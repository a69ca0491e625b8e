//! The workload catalog.
//!
//! Workloads are assigned at rack granularity (Section IV: "infrastructure
//! provisioning for a workload is done at the rack level"). Each workload
//! stresses components differently; the ground-truth overall ordering
//! matches Fig. 6: W2 (batch compute) highest, W3 (HPC) lowest, storage-data
//! (W5, W6) below storage-compute (W4, W7).

use std::sync::LazyLock;

use rainshine_telemetry::ids::Workload;

/// Static description of one workload's failure-stress profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Which workload this describes.
    pub workload: Workload,
    /// Hazard multiplier on disk failures (I/O wear).
    pub disk_stress: f64,
    /// Hazard multiplier on memory failures (occupancy / bit-flip exposure).
    pub memory_stress: f64,
    /// Hazard multiplier on other server hardware (thermal / power cycling).
    pub server_stress: f64,
    /// How strongly the weekday demand cycle modulates this workload's
    /// hazard (`0.0` = flat, `1.0` = full weekday swing). Batch and HPC
    /// workloads run around the clock and swing less.
    pub weekday_sensitivity: f64,
}

/// The full W1–W7 catalog, in [`Workload::ALL`] order.
pub fn catalog() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            workload: Workload::W1,
            disk_stress: 1.1,
            memory_stress: 1.3,
            server_stress: 1.3,
            weekday_sensitivity: 1.0,
        },
        WorkloadSpec {
            workload: Workload::W2,
            disk_stress: 1.6,
            memory_stress: 2.1,
            server_stress: 2.0,
            weekday_sensitivity: 0.8,
        },
        WorkloadSpec {
            workload: Workload::W3,
            disk_stress: 0.45,
            memory_stress: 0.5,
            server_stress: 0.45,
            weekday_sensitivity: 0.2,
        },
        WorkloadSpec {
            workload: Workload::W4,
            disk_stress: 1.5,
            memory_stress: 1.2,
            server_stress: 1.3,
            weekday_sensitivity: 0.9,
        },
        WorkloadSpec {
            workload: Workload::W5,
            disk_stress: 0.9,
            memory_stress: 0.75,
            server_stress: 0.8,
            weekday_sensitivity: 0.6,
        },
        WorkloadSpec {
            workload: Workload::W6,
            disk_stress: 1.0,
            memory_stress: 0.85,
            server_stress: 0.9,
            weekday_sensitivity: 0.6,
        },
        WorkloadSpec {
            workload: Workload::W7,
            disk_stress: 1.4,
            memory_stress: 1.2,
            server_stress: 1.25,
            weekday_sensitivity: 0.9,
        },
    ]
}

/// The catalog, built once; entry `i` describes `Workload::ALL[i]`.
static CATALOG: LazyLock<Vec<WorkloadSpec>> = LazyLock::new(catalog);

/// Looks up the spec of one workload.
pub fn spec_of(workload: Workload) -> &'static WorkloadSpec {
    &CATALOG[workload.index()]
}

#[cfg(test)]
impl WorkloadSpec {
    /// Geometric mean of the three component stresses — a scalar summary of
    /// the workload's overall aggressiveness.
    fn overall_stress(&self) -> f64 {
        (self.disk_stress * self.memory_stress * self.server_stress).cbrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_workloads() {
        let cat = catalog();
        assert_eq!(cat.len(), Workload::ALL.len());
        for w in Workload::ALL {
            assert!(cat.iter().any(|s| s.workload == w));
            assert_eq!(spec_of(w).workload, w, "catalog is in Workload::ALL order");
        }
    }

    #[test]
    fn fig6_ordering_holds_in_ground_truth() {
        let stress = |w| spec_of(w).overall_stress();
        // W2 highest, W3 lowest.
        for w in Workload::ALL {
            if w != Workload::W2 {
                assert!(stress(Workload::W2) > stress(w), "{w}");
            }
            if w != Workload::W3 {
                assert!(stress(Workload::W3) < stress(w), "{w}");
            }
        }
        // Storage-data below storage-compute.
        assert!(stress(Workload::W5) < stress(Workload::W4));
        assert!(stress(Workload::W6) < stress(Workload::W7));
    }

    #[test]
    fn weekday_sensitivity_in_unit_range() {
        for s in catalog() {
            assert!((0.0..=1.0).contains(&s.weekday_sensitivity));
        }
    }
}
