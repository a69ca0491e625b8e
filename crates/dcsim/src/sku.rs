//! The SKU (hardware configuration) catalog.
//!
//! Per Section IV of the paper: compute-intensive SKUs pack more than 40
//! servers per rack with ≈4 disks each; storage SKUs pack ≈20 servers per
//! rack with many more disks each. Each SKU also carries an *intrinsic*
//! reliability multiplier — the quantity Q2 tries to estimate — and unit
//! costs with the paper's server:disk:DIMM = 100:2:10 ratio.

use std::sync::LazyLock;

use rainshine_telemetry::ids::Sku;

/// Static description of one SKU.
#[derive(Debug, Clone, PartialEq)]
pub struct SkuSpec {
    /// Which SKU this describes.
    pub sku: Sku,
    /// Servers per rack.
    pub servers_per_rack: u32,
    /// Hard disks per server.
    pub disks_per_server: u32,
    /// Memory DIMMs per server.
    pub dimms_per_server: u32,
    /// Intrinsic hazard multiplier (ground truth for Q2). `1.0` is the
    /// fleet baseline; S2:S4 is 4:1 by design (Fig. 15).
    pub reliability_factor: f64,
    /// Rack rated-power options (kW) this SKU ships with (Fig. 8's x-axis
    /// values).
    pub power_options_kw: Vec<f64>,
    /// Relative cost of one server (the paper's ratio unit: server = 100).
    pub server_cost: f64,
}

/// Relative cost of one hard disk (paper ratio 100:2:10).
pub const DISK_COST: f64 = 2.0;
/// Relative cost of one memory DIMM (paper ratio 100:2:10).
pub const DIMM_COST: f64 = 10.0;

/// The full S1–S7 catalog, in [`Sku::ALL`] order.
pub fn catalog() -> Vec<SkuSpec> {
    vec![
        SkuSpec {
            sku: Sku::S1,
            servers_per_rack: 20,
            disks_per_server: 12,
            dimms_per_server: 8,
            reliability_factor: 1.0,
            power_options_kw: vec![4.0, 6.0, 7.0],
            server_cost: 100.0,
        },
        SkuSpec {
            sku: Sku::S2,
            servers_per_rack: 44,
            disks_per_server: 4,
            dimms_per_server: 16,
            reliability_factor: 2.0,
            power_options_kw: vec![13.0, 15.0],
            server_cost: 100.0,
        },
        SkuSpec {
            sku: Sku::S3,
            servers_per_rack: 22,
            disks_per_server: 10,
            dimms_per_server: 8,
            reliability_factor: 1.3,
            power_options_kw: vec![6.0, 7.0, 8.0],
            server_cost: 100.0,
        },
        SkuSpec {
            sku: Sku::S4,
            servers_per_rack: 42,
            disks_per_server: 4,
            dimms_per_server: 16,
            reliability_factor: 0.5,
            power_options_kw: vec![12.0, 13.0],
            server_cost: 100.0,
        },
        SkuSpec {
            sku: Sku::S5,
            servers_per_rack: 30,
            disks_per_server: 8,
            dimms_per_server: 12,
            reliability_factor: 0.9,
            power_options_kw: vec![8.0, 9.0],
            server_cost: 100.0,
        },
        SkuSpec {
            sku: Sku::S6,
            servers_per_rack: 30,
            disks_per_server: 8,
            dimms_per_server: 12,
            reliability_factor: 1.1,
            power_options_kw: vec![8.0, 9.0],
            server_cost: 100.0,
        },
        SkuSpec {
            sku: Sku::S7,
            servers_per_rack: 36,
            disks_per_server: 2,
            dimms_per_server: 16,
            reliability_factor: 0.7,
            power_options_kw: vec![12.0],
            server_cost: 100.0,
        },
    ]
}

/// The catalog, built once; entry `i` describes `Sku::ALL[i]`.
static CATALOG: LazyLock<Vec<SkuSpec>> = LazyLock::new(catalog);

/// Looks up the spec of one SKU.
pub fn spec_of(sku: Sku) -> &'static SkuSpec {
    &CATALOG[sku.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::ids::SkuClass;

    #[test]
    fn catalog_covers_all_skus() {
        let cat = catalog();
        assert_eq!(cat.len(), Sku::ALL.len());
        for sku in Sku::ALL {
            assert!(cat.iter().any(|s| s.sku == sku));
            assert_eq!(spec_of(sku).sku, sku, "catalog is in Sku::ALL order");
        }
    }

    #[test]
    fn compute_skus_have_more_servers_fewer_disks() {
        // Section IV: compute SKUs > 40 servers/rack, ~4 HDD/server;
        // storage SKUs ~20 servers/rack, more HDD.
        for spec in catalog() {
            match spec.sku.class() {
                SkuClass::ComputeIntensive => {
                    assert!(spec.servers_per_rack > 40, "{:?}", spec.sku);
                    assert!(spec.disks_per_server <= 4, "{:?}", spec.sku);
                }
                SkuClass::StorageIntensive => {
                    assert!(spec.servers_per_rack <= 24, "{:?}", spec.sku);
                    assert!(spec.disks_per_server >= 10, "{:?}", spec.sku);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn ground_truth_s2_s4_ratio_is_four() {
        let s2 = spec_of(Sku::S2).reliability_factor;
        let s4 = spec_of(Sku::S4).reliability_factor;
        assert!((s2 / s4 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cost_ratio_matches_paper() {
        for spec in catalog() {
            assert!((spec.server_cost / DISK_COST - 50.0).abs() < 1e-12);
            assert!((spec.server_cost / DIMM_COST - 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn power_options_within_table_iii_range() {
        for spec in catalog() {
            for &kw in &spec.power_options_kw {
                assert!((4.0..=15.0).contains(&kw));
            }
        }
    }
}
