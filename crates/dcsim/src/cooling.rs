//! Cooling-system transfer functions: outdoor weather → rack-inlet
//! conditions.
//!
//! The two DCs differ exactly as in the paper's Table I:
//!
//! * **Adiabatic** (DC1) — outside-air economization with evaporative
//!   assist. Mild weather passes through (inlet tracks outdoor temperature);
//!   warm-but-not-extreme afternoons run in *dry* mode, producing the hot
//!   (> 78 °F) **and** dry (< 25 % RH) inlet corner the paper's Fig. 18
//!   flags; extreme heat engages the evaporative media, which caps the
//!   temperature but humidifies the air. Energy-efficient, weather-exposed.
//! * **Chilled water** (DC2) — a conventional HVAC loop holding a tight
//!   setpoint regardless of weather, so inlet T/RH barely move (and Q3 finds
//!   no environmental effect there).

use crate::climate::{signed_noise, Weather};

/// Rack-inlet environmental conditions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InletConditions {
    /// Inlet dry-bulb temperature, °F.
    pub temp_f: f64,
    /// Inlet relative humidity, %.
    pub rh: f64,
}

/// Cooling technology (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoolingSystem {
    /// Outside-air economization with evaporative (adiabatic) assist.
    Adiabatic,
    /// Chilled-water HVAC at a fixed setpoint.
    ChilledWater,
}

impl CoolingSystem {
    /// Human-readable name as used in Table I.
    pub fn name(&self) -> &'static str {
        match self {
            CoolingSystem::Adiabatic => "Adiabatic",
            CoolingSystem::ChilledWater => "Chilled water",
        }
    }

    /// Inlet conditions for the given outdoor weather. `noise_seed` and
    /// `hour` drive small deterministic sensor-level noise.
    pub fn inlet(&self, outdoor: Weather, noise_seed: u64, hour: u64) -> InletConditions {
        match self {
            CoolingSystem::Adiabatic => adiabatic_inlet(outdoor, noise_seed, hour),
            CoolingSystem::ChilledWater => chilled_water_inlet(noise_seed, hour),
        }
    }
}

fn adiabatic_inlet(outdoor: Weather, seed: u64, hour: u64) -> InletConditions {
    let t_noise = signed_noise(seed, hour) * 1.2;
    let rh_noise = signed_noise(seed.wrapping_add(7), hour) * 3.0;
    let (temp_f, rh) = if outdoor.temp_f <= 68.0 {
        // Free cooling: outside air plus IT heat pickup.
        ((outdoor.temp_f + 8.0).max(58.0), outdoor.rh)
    } else if outdoor.temp_f <= 96.0 {
        // Dry economizer mode: no water, inlet climbs with outdoor
        // temperature and inherits the outdoor (often very low) humidity.
        (66.0 + 0.75 * (outdoor.temp_f - 68.0), outdoor.rh)
    } else {
        // Evaporative assist: caps temperature, humidifies supply air.
        (81.0 + 0.15 * (outdoor.temp_f - 96.0), (outdoor.rh + 30.0).min(85.0))
    };
    InletConditions {
        temp_f: (temp_f + t_noise).clamp(56.0, 90.0),
        rh: (rh + rh_noise).clamp(5.0, 87.0),
    }
}

fn chilled_water_inlet(seed: u64, hour: u64) -> InletConditions {
    use std::f64::consts::TAU;
    let diurnal = 1.5 * (TAU * ((hour % 24) as f64 - 9.0) / 24.0).sin();
    let t_noise = signed_noise(seed, hour) * 1.5;
    let rh_noise = signed_noise(seed.wrapping_add(7), hour) * 5.0;
    InletConditions {
        temp_f: (65.0 + diurnal + t_noise).clamp(60.0, 72.0),
        rh: (48.0 + rh_noise).clamp(35.0, 60.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate::SiteClimate;
    use rainshine_telemetry::time::SimTime;

    fn inlet_at(cooling: CoolingSystem, climate: &SiteClimate, t: SimTime) -> InletConditions {
        let w = climate.weather(t.hours(), t.year_fraction());
        cooling.inlet(w, 99, t.hours())
    }

    #[test]
    fn chilled_water_holds_setpoint_year_round() {
        let climate = SiteClimate::temperate(5);
        for day in (0..900).step_by(13) {
            for hour in [3, 15] {
                let t = SimTime::from_days(day).plus_hours(hour);
                let c = inlet_at(CoolingSystem::ChilledWater, &climate, t);
                assert!((60.0..=72.0).contains(&c.temp_f), "temp {}", c.temp_f);
                assert!((35.0..=60.0).contains(&c.rh), "rh {}", c.rh);
            }
        }
    }

    #[test]
    fn adiabatic_tracks_weather() {
        let climate = SiteClimate::warm_dry(5);
        let winter =
            inlet_at(CoolingSystem::Adiabatic, &climate, SimTime::from_date(2012, 1, 15, 12));
        let summer =
            inlet_at(CoolingSystem::Adiabatic, &climate, SimTime::from_date(2012, 7, 15, 15));
        assert!(summer.temp_f > winter.temp_f + 8.0);
    }

    #[test]
    fn adiabatic_produces_hot_dry_corner() {
        // The corner Fig. 18 identifies: inlet > 78 F and RH < 25 % must
        // occur on warm-dry afternoons under adiabatic cooling.
        let climate = SiteClimate::warm_dry(5);
        let mut corner_hours = 0;
        let mut hot_humid_hours = 0;
        for day in 120..270 {
            // Late spring through summer.
            for hour in 10..20 {
                let t = SimTime::from_days(day).plus_hours(hour);
                let c = inlet_at(CoolingSystem::Adiabatic, &climate, t);
                if c.temp_f > 78.0 && c.rh < 25.0 {
                    corner_hours += 1;
                }
                if c.temp_f > 78.0 && c.rh >= 25.0 {
                    hot_humid_hours += 1;
                }
            }
        }
        assert!(corner_hours > 50, "hot+dry hours: {corner_hours}");
        // Both sub-branches of the T split need support.
        assert!(hot_humid_hours > 50, "hot+humid hours: {hot_humid_hours}");
    }

    #[test]
    fn inlet_ranges_match_table_iii() {
        // Table III: temperature 56-90 F, RH 5-87 %.
        for cooling in [CoolingSystem::Adiabatic, CoolingSystem::ChilledWater] {
            let climate = SiteClimate::warm_dry(5);
            for h in (0..24 * 900).step_by(7) {
                let t = SimTime(h);
                let w = climate.weather(t.hours(), t.year_fraction());
                let c = cooling.inlet(w, 3, h);
                assert!((56.0..=90.0).contains(&c.temp_f), "temp {}", c.temp_f);
                assert!((5.0..=87.0).contains(&c.rh), "rh {}", c.rh);
            }
        }
    }

    #[test]
    fn names_match_table_i() {
        assert_eq!(CoolingSystem::Adiabatic.name(), "Adiabatic");
        assert_eq!(CoolingSystem::ChilledWater.name(), "Chilled water");
    }
}
