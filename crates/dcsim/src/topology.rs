//! Fleet construction: datacenters, rows, racks, placement.
//!
//! The placement policy deliberately embeds the **confounding** the paper's
//! multi-factor analysis must untangle (Section V-A's SKU-selection
//! cautionary tale): in DC1 — the hot, adiabatically cooled site — the
//! compute SKU S2 is concentrated in the hottest regions and hosts the most
//! aggressive workload (W2), while S4 lives mostly in the tightly
//! climate-controlled DC2 with gentle workloads. A single-factor view of
//! S2 vs S4 therefore sees far more than their intrinsic 4:1 reliability
//! gap.

use rainshine_telemetry::ids::{
    DcId, RackId, RegionId, RowId, ServerId, ServerLocation, Sku, Workload,
};
use rainshine_telemetry::metrics::{SpatialGranularity, SpatialKey};
use rainshine_telemetry::quality::{FleetManifest, RackRecord};
use rainshine_telemetry::time::SimTime;

use crate::climate::unit_noise;
use crate::config::FleetConfig;
use crate::cooling::CoolingSystem;
use crate::sku::{self, SkuSpec};

/// Average days per month used for age bookkeeping.
const DAYS_PER_MONTH: f64 = 30.44;

/// Equipment age in months after `days` days in service (0 for a
/// negative count, before commissioning).
pub(crate) fn age_months_of_days(days: i64) -> f64 {
    (days as f64 / DAYS_PER_MONTH).max(0.0)
}

/// Static description of one datacenter (the paper's Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct Datacenter {
    /// Identifier.
    pub id: DcId,
    /// Packaging: containers vs colocation.
    pub packaging: &'static str,
    /// Power-availability design (nines).
    pub availability_nines: u8,
    /// Cooling technology.
    pub cooling: CoolingSystem,
    /// Number of regions.
    pub regions: u8,
    /// Number of rack rows.
    pub rows: u16,
}

/// One rack: the paper's provisioning granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct RackInfo {
    /// Fleet-unique rack id.
    pub id: RackId,
    /// Datacenter.
    pub dc: DcId,
    /// Region within the DC.
    pub region: RegionId,
    /// Row within the DC.
    pub row: RowId,
    /// Hardware configuration.
    pub sku: Sku,
    /// Workload hosted on the entire rack.
    pub workload: Workload,
    /// Rated power, kW.
    pub power_kw: f64,
    /// Commission day relative to the 2012-01-01 epoch (negative = already
    /// in service at epoch).
    pub commissioned_day: i64,
    /// Servers in the rack (from the SKU spec).
    pub servers: u32,
    /// First global server id; the rack owns `[base, base + servers)`.
    pub server_id_base: u32,
    /// Per-rack latent hazard multiplier (manufacturing lot, installation
    /// quality). Log-normal around 1.
    pub frailty: f64,
}

impl RackInfo {
    /// Equipment age in months at `t` (0 before commissioning).
    pub fn age_months(&self, t: SimTime) -> f64 {
        age_months_of_days(t.days() as i64 - self.commissioned_day)
    }

    /// Whether the rack is in service at `t`.
    pub fn is_active(&self, t: SimTime) -> bool {
        t.days() as i64 >= self.commissioned_day
    }

    /// Full location of the rack's `server_index`-th server.
    ///
    /// # Panics
    ///
    /// Panics if `server_index >= self.servers`.
    pub fn server_location(&self, server_index: u32) -> ServerLocation {
        assert!(server_index < self.servers, "server index out of range");
        ServerLocation {
            dc: self.dc,
            region: self.region,
            row: self.row,
            rack: self.id,
            server: ServerId(self.server_id_base + server_index),
        }
    }

    /// The rack's SKU spec.
    pub fn sku_spec(&self) -> &'static SkuSpec {
        sku::spec_of(self.sku)
    }

    /// The rack's μ key: the [`SpatialGranularity::Rack`] key its tickets
    /// are counted under.
    pub fn mu_key(&self) -> SpatialKey {
        SpatialGranularity::Rack.key(&self.server_location(0))
    }
}

/// The whole fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    /// The two datacenters.
    pub datacenters: Vec<Datacenter>,
    /// All racks across both DCs; [`Fleet::build`] gives `racks[i]` the id
    /// `RackId(i + 1)`, which [`Fleet::index_of`] and the manifest rely on.
    pub racks: Vec<RackInfo>,
}

/// SKU mix entry: `(sku, share, workload options with weights)`.
type MixEntry = (Sku, f64, &'static [(Workload, f64)]);

/// DC1 placement mix: S2-dominated compute hosting aggressive workloads.
const DC1_MIX: &[MixEntry] = &[
    (Sku::S2, 0.50, &[(Workload::W2, 0.55), (Workload::W1, 0.30), (Workload::W4, 0.15)]),
    (Sku::S4, 0.05, &[(Workload::W1, 0.60), (Workload::W2, 0.40)]),
    (Sku::S1, 0.15, &[(Workload::W6, 0.60), (Workload::W5, 0.40)]),
    (Sku::S3, 0.10, &[(Workload::W5, 0.50), (Workload::W6, 0.50)]),
    (Sku::S5, 0.10, &[(Workload::W4, 0.50), (Workload::W7, 0.50)]),
    (Sku::S7, 0.10, &[(Workload::W3, 1.00)]),
];

/// DC2 placement mix: S4-dominated compute with gentle workloads.
const DC2_MIX: &[MixEntry] = &[
    (Sku::S4, 0.35, &[(Workload::W1, 0.50), (Workload::W3, 0.30), (Workload::W2, 0.20)]),
    (Sku::S2, 0.10, &[(Workload::W1, 0.70), (Workload::W4, 0.30)]),
    (Sku::S1, 0.20, &[(Workload::W6, 0.70), (Workload::W5, 0.30)]),
    (Sku::S3, 0.15, &[(Workload::W5, 0.60), (Workload::W6, 0.40)]),
    (Sku::S6, 0.15, &[(Workload::W7, 0.60), (Workload::W4, 0.40)]),
    (Sku::S5, 0.05, &[(Workload::W4, 0.50), (Workload::W7, 0.50)]),
];

/// Region-preference weights for rack placement in DC1: compute SKUs are
/// biased toward the hotter regions (1 and 4), storage toward the cooler
/// ones — part of the planted confounding.
fn dc1_region_weights(sku: Sku) -> [f64; 4] {
    use rainshine_telemetry::ids::SkuClass;
    match sku.class() {
        SkuClass::ComputeIntensive => [0.30, 0.10, 0.10, 0.50],
        SkuClass::StorageIntensive => [0.10, 0.40, 0.40, 0.10],
        _ => [0.25, 0.25, 0.25, 0.25],
    }
}

fn weighted_pick<T: Copy>(options: &[(T, f64)], u: f64) -> T {
    let total: f64 = options.iter().map(|(_, w)| w).sum();
    let mut acc = 0.0;
    for &(v, w) in options {
        acc += w / total;
        if u < acc {
            return v;
        }
    }
    options.last().expect("non-empty options").0
}

/// Approximate standard-normal deviate from four uniform noise draws
/// (Irwin–Hall).
fn pseudo_normal(seed: u64, index: u64) -> f64 {
    let s: f64 = (0..4).map(|k| unit_noise(seed ^ (k << 56), index)).sum();
    (s - 2.0) * (3.0f64).sqrt()
}

impl Fleet {
    /// Builds the fleet for `config`. Deterministic in
    /// `config.layout_seed`.
    pub fn build(config: &FleetConfig) -> Fleet {
        let datacenters = vec![
            Datacenter {
                id: DcId(1),
                packaging: "Container",
                availability_nines: 3,
                cooling: CoolingSystem::Adiabatic,
                regions: 4,
                rows: 18,
            },
            Datacenter {
                id: DcId(2),
                packaging: "Colocated",
                availability_nines: 5,
                cooling: CoolingSystem::ChilledWater,
                regions: 3,
                rows: 32,
            },
        ];
        let mut racks = Vec::with_capacity(config.dc1_racks + config.dc2_racks);
        let mut next_rack: u32 = 1;
        let mut next_server: u32 = 1;
        let span_days = config.span_days() as i64;
        for (dc, count, mix) in [
            (&datacenters[0], config.dc1_racks, DC1_MIX),
            (&datacenters[1], config.dc2_racks, DC2_MIX),
        ] {
            for i in 0..count {
                let idx = next_rack as u64;
                let seed = config.layout_seed ^ (dc.id.0 as u64) << 48;
                // SKU by quota: walk the mix deterministically so shares are
                // exact; workload / power / region / age by hash.
                let frac = i as f64 / count as f64;
                let (sku_choice, wl_options) = pick_by_quota(mix, frac);
                let spec = sku::spec_of(sku_choice);
                let workload = weighted_pick(wl_options, unit_noise(seed ^ 0xA0, idx));
                let power_kw = spec.power_options_kw[(unit_noise(seed ^ 0xB0, idx)
                    * spec.power_options_kw.len() as f64)
                    as usize
                    % spec.power_options_kw.len()];
                let region = if dc.id == DcId(1) {
                    let w = dc1_region_weights(sku_choice);
                    let opts: Vec<(u8, f64)> = (1..=4u8).zip(w.iter().copied()).collect();
                    weighted_pick(&opts, unit_noise(seed ^ 0xC0, idx))
                } else {
                    1 + ((unit_noise(seed ^ 0xC0, idx) * dc.regions as f64) as u8) % dc.regions
                };
                let row = 1 + ((unit_noise(seed ^ 0xE0, idx) * dc.rows as f64) as u16) % dc.rows;
                // 60 % of racks pre-date the window (ages 0–36 months at
                // epoch); 40 % are commissioned during the first 60 % of it.
                let u_age = unit_noise(seed ^ 0xF0, idx);
                let commissioned_day = if u_age < 0.6 {
                    -(((u_age / 0.6) * 36.0 * DAYS_PER_MONTH) as i64)
                } else {
                    (((u_age - 0.6) / 0.4) * 0.6 * span_days as f64) as i64
                };
                let frailty = (0.28 * pseudo_normal(seed ^ 0xAB, idx)).exp();
                racks.push(RackInfo {
                    id: RackId(next_rack),
                    dc: dc.id,
                    region: RegionId(region),
                    row: RowId(row),
                    sku: sku_choice,
                    workload,
                    power_kw,
                    commissioned_day,
                    servers: spec.servers_per_rack,
                    server_id_base: next_server,
                    frailty,
                });
                next_server += spec.servers_per_rack;
                next_rack += 1;
            }
        }
        Fleet { datacenters, racks }
    }

    /// Racks in one datacenter.
    pub fn racks_in(&self, dc: DcId) -> impl Iterator<Item = &RackInfo> {
        self.racks.iter().filter(move |r| r.dc == dc)
    }

    /// Racks hosting one workload.
    pub fn racks_hosting(&self, workload: Workload) -> impl Iterator<Item = &RackInfo> {
        self.racks.iter().filter(move |r| r.workload == workload)
    }

    /// Total servers across the fleet.
    pub fn total_servers(&self) -> u64 {
        self.racks.iter().map(|r| r.servers as u64).sum()
    }

    /// The position of rack `id` in [`Fleet::racks`]: slot
    /// [`RackId::position`] (`id − 1`) if that slot holds rack `id`, else
    /// `None`.
    pub fn index_of(&self, id: RackId) -> Option<usize> {
        let index = id.position()?;
        (self.racks.get(index)?.id == id).then_some(index)
    }

    /// Looks up a rack by id.
    pub fn rack(&self, id: RackId) -> Option<&RackInfo> {
        self.racks.get(self.index_of(id)?)
    }

    /// The fleet inventory the ingestion layer checks ticket locations
    /// against: each rack's record in fleet order, so the manifest finds a
    /// rack exactly where [`Fleet::index_of`] does.
    pub fn manifest(&self) -> FleetManifest {
        FleetManifest::new(
            self.racks
                .iter()
                .map(|r| (r.id, RackRecord { dc: r.dc, region: r.region, row: r.row }))
                .collect(),
        )
    }
}

/// Deterministic quota-based SKU pick: rack `frac` ∈ [0,1) of its DC walks
/// the cumulative mix shares.
fn pick_by_quota(mix: &[MixEntry], frac: f64) -> (Sku, &'static [(Workload, f64)]) {
    let mut acc = 0.0;
    for &(sku, share, wl) in mix {
        acc += share;
        if frac < acc {
            return (sku, wl);
        }
    }
    let last = mix.last().expect("non-empty mix");
    (last.0, last.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn fleet() -> Fleet {
        Fleet::build(&FleetConfig::paper_scale())
    }

    #[test]
    fn build_is_deterministic() {
        let a = fleet();
        let b = fleet();
        assert_eq!(a, b);
    }

    #[test]
    fn racks_are_numbered_by_position() {
        for config in [FleetConfig::small(), FleetConfig::medium(), FleetConfig::paper_scale()] {
            let mut f = Fleet::build(&config);
            let n = f.racks.len();
            for (i, rack) in f.racks.iter().enumerate() {
                assert_eq!(rack.id, RackId(i as u32 + 1));
                assert_eq!(f.index_of(rack.id), Some(i));
                assert_eq!(f.rack(rack.id), Some(rack));
            }
            assert_eq!(f.index_of(RackId(0)), None);
            assert_eq!(f.index_of(RackId(n as u32 + 1)), None);
            // A slot overwritten with another rack answers for neither id.
            f.racks[2] = f.racks[0].clone();
            assert_eq!(f.rack(RackId(3)), None);
            assert_eq!(f.index_of(RackId(1)), Some(0));
        }
    }

    #[test]
    fn manifest_finds_racks_where_index_of_does() {
        let f = fleet();
        let manifest = f.manifest();
        for id in (0..=f.racks.len() as u32 + 1).chain([u32::MAX]).map(RackId) {
            // `rack` misses exactly where `index_of` does.
            let want = f.rack(id).map(|r| RackRecord { dc: r.dc, region: r.region, row: r.row });
            assert_eq!(manifest.get(id), want.as_ref(), "rack {id}");
        }
    }

    #[test]
    fn rack_counts_match_config() {
        let f = fleet();
        assert_eq!(f.racks_in(DcId(1)).count(), 331);
        assert_eq!(f.racks_in(DcId(2)).count(), 290);
        assert_eq!(f.racks.len(), 621);
    }

    #[test]
    fn table_i_properties() {
        let f = fleet();
        let dc1 = &f.datacenters[0];
        let dc2 = &f.datacenters[1];
        assert_eq!(dc1.packaging, "Container");
        assert_eq!(dc1.availability_nines, 3);
        assert_eq!(dc1.cooling, CoolingSystem::Adiabatic);
        assert_eq!(dc2.packaging, "Colocated");
        assert_eq!(dc2.availability_nines, 5);
        assert_eq!(dc2.cooling, CoolingSystem::ChilledWater);
    }

    #[test]
    fn sku_shares_approximate_mix() {
        let f = fleet();
        let mut counts: BTreeMap<Sku, usize> = BTreeMap::new();
        for r in f.racks_in(DcId(1)) {
            *counts.entry(r.sku).or_insert(0) += 1;
        }
        let s2_share = counts[&Sku::S2] as f64 / 331.0;
        assert!((s2_share - 0.50).abs() < 0.02, "S2 share {s2_share}");
    }

    #[test]
    fn confounding_s2_in_hot_regions() {
        let f = fleet();
        let s2_hot = f
            .racks_in(DcId(1))
            .filter(|r| r.sku == Sku::S2)
            .filter(|r| r.region == RegionId(1) || r.region == RegionId(4))
            .count();
        let s2_total = f.racks_in(DcId(1)).filter(|r| r.sku == Sku::S2).count();
        assert!(s2_hot as f64 / s2_total as f64 > 0.6, "S2 hot-region share {}/{s2_total}", s2_hot);
    }

    #[test]
    fn server_id_ranges_are_disjoint() {
        let f = fleet();
        let mut prev_end = 0u32;
        for r in &f.racks {
            assert!(r.server_id_base > prev_end || prev_end == 0);
            assert_eq!(r.server_id_base, prev_end + 1);
            prev_end = r.server_id_base + r.servers - 1;
        }
        assert_eq!(f.total_servers(), prev_end as u64);
    }

    #[test]
    fn ages_and_activity() {
        let f = fleet();
        let epoch = SimTime::EPOCH;
        let mut pre = 0;
        let mut post = 0;
        for r in &f.racks {
            if r.commissioned_day <= 0 {
                pre += 1;
                assert!(r.is_active(epoch));
                assert!(r.age_months(epoch) <= 37.0);
            } else {
                post += 1;
                assert!(!r.is_active(epoch));
                assert_eq!(r.age_months(epoch), 0.0);
            }
        }
        let pre_share = pre as f64 / (pre + post) as f64;
        assert!((0.5..0.7).contains(&pre_share), "pre-epoch share {pre_share}");
    }

    #[test]
    fn frailty_is_centered_near_one() {
        let f = fleet();
        let mean: f64 = f.racks.iter().map(|r| r.frailty).sum::<f64>() / f.racks.len() as f64;
        assert!((mean - 1.0).abs() < 0.15, "frailty mean {mean}");
        assert!(f.racks.iter().all(|r| r.frailty > 0.2 && r.frailty < 5.0));
    }

    #[test]
    fn server_location_panics_out_of_range() {
        let f = fleet();
        let r = &f.racks[0];
        let loc = r.server_location(0);
        assert_eq!(loc.rack, r.id);
        let result = std::panic::catch_unwind(|| r.server_location(r.servers));
        assert!(result.is_err());
    }

    #[test]
    fn workloads_respect_mix_options() {
        let f = fleet();
        for r in f.racks_in(DcId(1)).filter(|r| r.sku == Sku::S7) {
            assert_eq!(r.workload, Workload::W3);
        }
        // W6 racks exist in both DCs on storage SKUs (needed for Q1).
        assert!(f.racks_hosting(Workload::W6).any(|r| r.dc == DcId(1)));
        assert!(f.racks_hosting(Workload::W6).any(|r| r.dc == DcId(2)));
        assert!(f.racks_hosting(Workload::W1).any(|r| r.dc == DcId(1)));
        assert!(f.racks_hosting(Workload::W1).any(|r| r.dc == DcId(2)));
    }
}
