//! Fleet and simulation configuration.

use rainshine_parallel::Parallelism;
use rainshine_telemetry::time::SimTime;

use crate::corruption::CorruptionConfig;
use crate::hazard::HazardConfig;
use crate::{Result, SimError};

/// Top-level simulation configuration.
///
/// Use [`FleetConfig::paper_scale`] for the full two-DC fleet the paper
/// studies (331 + 290 racks over 2.5 years) or [`FleetConfig::small`] /
/// [`FleetConfig::medium`] for faster runs in tests and examples.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Start of the observation window.
    pub start: SimTime,
    /// End of the observation window (exclusive).
    pub end: SimTime,
    /// Racks in DC1 (paper: R1–R331).
    pub dc1_racks: usize,
    /// Racks in DC2 (paper: R1–R290).
    pub dc2_racks: usize,
    /// Seed for the static fleet layout (placement, power ratings,
    /// commission dates). Separate from the run seed so topology stays
    /// fixed across Monte-Carlo replications.
    pub layout_seed: u64,
    /// Fraction of emitted tickets that are false positives (filtered out
    /// before analysis, as the paper does).
    pub false_positive_rate: f64,
    /// Hazard-model knobs (ground-truth effect sizes).
    pub hazard: HazardConfig,
    /// Dirty-data injection rates. Defaults to all-zero (pristine output);
    /// see [`CorruptionConfig::dirty_default`] for the documented dirty
    /// preset.
    pub corruption: CorruptionConfig,
    /// How to spread per-rack ticket generation across threads. Every
    /// rack draws from its own seed-derived RNG stream and results merge
    /// in rack order, so the ticket stream is bit-identical for any
    /// setting (see [`crate::Simulation::run`]).
    pub parallelism: Parallelism,
}

impl FleetConfig {
    /// The paper-scale fleet: 331 + 290 racks, 2012-01-01 through
    /// 2014-07-01 (≈ 2.5 years).
    pub fn paper_scale() -> Self {
        FleetConfig {
            start: SimTime::from_date(2012, 1, 1, 0),
            end: SimTime::from_date(2014, 7, 1, 0),
            dc1_racks: 331,
            dc2_racks: 290,
            layout_seed: 0xA11CE,
            false_positive_rate: 0.08,
            hazard: HazardConfig::default(),
            corruption: CorruptionConfig::default(),
            parallelism: Parallelism::Auto,
        }
    }

    /// A small fleet for unit tests and doc examples: 24 + 20 racks over
    /// six months.
    pub fn small() -> Self {
        FleetConfig {
            dc1_racks: 24,
            dc2_racks: 20,
            end: SimTime::from_date(2012, 6, 29, 0),
            ..Self::paper_scale()
        }
    }

    /// A medium fleet for integration tests: 90 + 80 racks over one year.
    pub fn medium() -> Self {
        FleetConfig {
            dc1_racks: 90,
            dc2_racks: 80,
            end: SimTime::from_date(2013, 1, 1, 0),
            ..Self::paper_scale()
        }
    }

    /// Observation span in whole days.
    pub fn span_days(&self) -> u64 {
        (self.end.hours().saturating_sub(self.start.hours())) / 24
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the span is empty, a DC has
    /// no racks, the false-positive rate is outside `[0, 0.9]`, or the
    /// hazard/corruption knobs are out of range.
    pub fn validate(&self) -> Result<()> {
        if self.end <= self.start {
            return Err(SimError::InvalidConfig {
                field: "end",
                reason: "end must be after start",
            });
        }
        if self.dc1_racks == 0 || self.dc2_racks == 0 {
            return Err(SimError::InvalidConfig {
                field: "racks",
                reason: "each datacenter needs at least one rack",
            });
        }
        if !(0.0..=0.9).contains(&self.false_positive_rate) {
            return Err(SimError::InvalidConfig {
                field: "false_positive_rate",
                reason: "must be within [0, 0.9]",
            });
        }
        self.hazard.validate()?;
        self.corruption.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_paper() {
        let c = FleetConfig::paper_scale();
        assert_eq!(c.dc1_racks, 331);
        assert_eq!(c.dc2_racks, 290);
        // 2.5 years ≈ 912 days.
        assert!((910..=915).contains(&c.span_days()), "{}", c.span_days());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn presets_validate() {
        assert!(FleetConfig::small().validate().is_ok());
        assert!(FleetConfig::medium().validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = FleetConfig::small();
        c.end = c.start;
        assert!(c.validate().is_err());

        let mut c = FleetConfig::small();
        c.dc1_racks = 0;
        assert!(c.validate().is_err());

        let mut c = FleetConfig::small();
        c.false_positive_rate = 0.95;
        assert!(c.validate().is_err());
    }
}
