//! Property-based tests for the simulator: determinism, ticket validity,
//! and hazard positivity across configuration perturbations.

use proptest::prelude::*;
use rainshine_dcsim::cooling::InletConditions;
use rainshine_dcsim::environment::EnvModel;
use rainshine_dcsim::hazard::{ComponentClass, HazardCalendar, RackBurstRates, RackHazard};
use rainshine_dcsim::topology::Fleet;
use rainshine_dcsim::{FleetConfig, Simulation};
use rainshine_telemetry::ids::{DcId, RegionId};
use rainshine_telemetry::time::SimTime;

fn tiny_config(dc1: usize, dc2: usize, days: u64) -> FleetConfig {
    FleetConfig {
        dc1_racks: dc1,
        dc2_racks: dc2,
        end: SimTime::from_days(days),
        ..FleetConfig::small()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn runs_are_seed_deterministic(seed in 0u64..1000, dc1 in 2usize..8, dc2 in 2usize..8) {
        let config = tiny_config(dc1, dc2, 60);
        let a = Simulation::new(config.clone(), seed).run();
        let b = Simulation::new(config, seed).run();
        prop_assert_eq!(a.tickets, b.tickets);
    }

    #[test]
    fn all_tickets_valid_and_in_span(seed in 0u64..1000) {
        let config = tiny_config(4, 4, 90);
        let out = Simulation::new(config.clone(), seed).run();
        for t in &out.tickets {
            prop_assert!(t.validate().is_ok());
            prop_assert!(t.opened >= config.start);
            prop_assert!(t.opened < config.end);
            prop_assert!(t.resolved <= config.end);
        }
    }

    #[test]
    fn fleet_layout_independent_of_run_seed(seed1 in 0u64..100, seed2 in 100u64..200) {
        let config = tiny_config(5, 5, 30);
        let a = Simulation::new(config.clone(), seed1).run();
        let b = Simulation::new(config, seed2).run();
        prop_assert_eq!(a.fleet, b.fleet);
    }

    #[test]
    fn hazard_rates_positive_and_bounded(
        temp in 56.0f64..90.0,
        rh in 5.0f64..87.0,
        day in 0u64..900,
    ) {
        let config = FleetConfig::paper_scale();
        let fleet = Fleet::build(&config);
        let env = InletConditions { temp_f: temp, rh };
        let t = SimTime::from_days(day);
        let calendar = HazardCalendar::new(&config.hazard, day..day + 1, &fleet.racks);
        for rack in fleet.racks.iter().take(50) {
            let hazard = RackHazard::new(&calendar, rack);
            let factors = hazard.day(day);
            for class in ComponentClass::ALL {
                let rate = factors.map_or(0.0, |f| hazard.rate(class, &f, env));
                prop_assert!(rate.is_finite());
                prop_assert!(rate >= 0.0);
                prop_assert!(rate < 5.0, "implausible rate {rate}");
                if !rack.is_active(t) {
                    prop_assert_eq!(rate, 0.0);
                }
            }
            let burst = RackBurstRates::new(&config.hazard, rack).rate(day);
            prop_assert!(burst.is_finite() && (0.0..0.5).contains(&burst));
        }
    }

    #[test]
    fn environment_always_within_table_iii_ranges(
        hour in 0u64..24_000,
        region in 1u8..=4,
        dc in 1u8..=2,
    ) {
        let env = EnvModel::paper_layout(7);
        let region = if dc == 2 { region.min(3) } else { region };
        let c = env.sample(DcId(dc), RegionId(region), SimTime(hour));
        prop_assert!((56.0..=90.0).contains(&c.temp_f), "temp {}", c.temp_f);
        prop_assert!((5.0..=87.0).contains(&c.rh), "rh {}", c.rh);
    }

    #[test]
    fn burst_sizes_respect_rack_capacity(u in 0.0f64..1.0) {
        let config = FleetConfig::paper_scale();
        let fleet = Fleet::build(&config);
        for rack in fleet.racks.iter().take(30) {
            let size = config.hazard.burst_size(rack, u);
            prop_assert!(size >= 1);
            prop_assert!(size <= rack.servers);
        }
    }

    #[test]
    fn false_positive_rate_respected(seed in 0u64..200) {
        let mut config = tiny_config(6, 6, 120);
        config.false_positive_rate = 0.15;
        let out = Simulation::new(config, seed).run();
        let fp = out.tickets.iter().filter(|t| t.false_positive).count() as f64;
        let share = fp / out.tickets.len() as f64;
        prop_assert!((share - 0.15).abs() < 0.05, "fp share {share}");
    }
}
