//! The per-(datacenter, region, hour) environment sampler.
//!
//! Combines a site climate ([`crate::climate`]), a cooling system
//! ([`crate::cooling`]), and per-region offsets (hot spots near power
//! distribution, cold-aisle ends, etc.) into the inlet conditions a rack's
//! sensors would report.

use rainshine_telemetry::ids::{DcId, RegionId};
use rainshine_telemetry::time::SimTime;

use crate::climate::{signed_noise, SiteClimate};
use crate::cooling::{CoolingSystem, InletConditions};

/// Environment model for one datacenter.
#[derive(Debug, Clone, PartialEq)]
pub struct DcEnvironment {
    /// The datacenter this model covers.
    pub dc: DcId,
    /// Outdoor climate at the site.
    pub climate: SiteClimate,
    /// Cooling technology (Table I).
    pub cooling: CoolingSystem,
    /// Additive inlet-temperature offset per region (°F): hot spots.
    pub region_temp_offsets: Vec<f64>,
    /// Noise seed for sensor-level jitter.
    pub seed: u64,
}

/// Environment models for the whole fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvModel {
    dcs: Vec<DcEnvironment>,
}

/// Hours at which daily means are sampled (night / morning / afternoon /
/// evening), approximating the BMS's day-average reading.
const DAILY_SAMPLE_HOURS: [u64; 4] = [2, 8, 14, 20];

impl EnvModel {
    /// Builds the two-DC model of the paper: DC1 warm-dry + adiabatic,
    /// DC2 temperate + chilled water.
    pub fn paper_layout(seed: u64) -> Self {
        EnvModel {
            dcs: vec![
                DcEnvironment {
                    dc: DcId(1),
                    climate: SiteClimate::warm_dry(seed ^ 0x1111),
                    cooling: CoolingSystem::Adiabatic,
                    // Region 4 is the hot aisle-end; region 3 is coolest.
                    region_temp_offsets: vec![1.5, 0.0, -1.5, 3.0],
                    seed: seed ^ 0xD1,
                },
                DcEnvironment {
                    dc: DcId(2),
                    climate: SiteClimate::temperate(seed ^ 0x2222),
                    cooling: CoolingSystem::ChilledWater,
                    region_temp_offsets: vec![0.5, 0.0, -0.5],
                    seed: seed ^ 0xD2,
                },
            ],
        }
    }

    /// The per-DC models.
    pub fn datacenters(&self) -> &[DcEnvironment] {
        &self.dcs
    }

    /// The model for one DC.
    ///
    /// # Panics
    ///
    /// Panics if `dc` is not part of the model.
    pub fn dc(&self, dc: DcId) -> &DcEnvironment {
        self.dcs.iter().find(|d| d.dc == dc).unwrap_or_else(|| panic!("unknown {dc}"))
    }

    /// Inlet conditions for a region at an instant.
    ///
    /// # Panics
    ///
    /// Panics if `dc` is unknown. Unknown regions use a zero offset.
    pub fn sample(&self, dc: DcId, region: RegionId, t: SimTime) -> InletConditions {
        let model = self.dc(dc);
        let weather = model.climate.weather(t.hours(), t.year_fraction());
        let mut inlet = model.cooling.inlet(weather, model.seed, t.hours());
        let offset = model
            .region_temp_offsets
            .get((region.0 as usize).saturating_sub(1))
            .copied()
            .unwrap_or(0.0);
        // Per-region sensor jitter, deterministic in (seed, region, hour).
        let jitter = signed_noise(model.seed ^ (region.0 as u64) << 32, t.hours()) * 0.8;
        inlet.temp_f = (inlet.temp_f + offset + jitter).clamp(56.0, 90.0);
        inlet
    }

    /// Mean inlet conditions for a region over one day (averaged over the
    /// hours 02, 08, 14 and 20) — what a rack-day analysis row records.
    pub fn daily_mean(&self, dc: DcId, region: RegionId, day: u64) -> InletConditions {
        let mut temp = 0.0;
        let mut rh = 0.0;
        for &h in &DAILY_SAMPLE_HOURS {
            let s = self.sample(dc, region, SimTime::from_days(day).plus_hours(h));
            temp += s.temp_f;
            rh += s.rh;
        }
        let n = DAILY_SAMPLE_HOURS.len() as f64;
        InletConditions { temp_f: temp / n, rh: rh / n }
    }
}

/// Daily inlet conditions of every (DC, region) over a span of days.
///
/// The hazard of every rack-day and every rack-day analysis row reads its
/// region's daily conditions, and hundreds of racks share each of a handful
/// of regions, so [`crate::Simulation`] fills each (DC, region, day) cell
/// once into this dense slab (region-major, days contiguous): the true
/// daily means for the hazard, then the ingested cells for the analyses.
/// [`Self::daily_mean`] samples a cell outside the slab, so a lookup never
/// fails.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyEnvSlab {
    start_day: u64,
    days: usize,
    /// Per DC: its id, its region count and the index of its first cell.
    dcs: Vec<(DcId, u8, usize)>,
    cells: Vec<InletConditions>,
}

impl DailyEnvSlab {
    /// Fills the cells of regions `1..=regions` of each listed DC over the
    /// days `start_day..end_day` with `cell(dc, region, day)`, called once
    /// per cell in DC, region, day order.
    pub fn from_fn<F>(dcs: &[(DcId, u8)], start_day: u64, end_day: u64, mut cell: F) -> Self
    where
        F: FnMut(DcId, RegionId, u64) -> InletConditions,
    {
        let days = end_day.saturating_sub(start_day) as usize;
        let mut layout = Vec::with_capacity(dcs.len());
        let mut cells = Vec::new();
        for &(dc, regions) in dcs {
            layout.push((dc, regions, cells.len()));
            for region in (1..=regions).map(RegionId) {
                cells.extend((start_day..end_day).map(|day| cell(dc, region, day)));
            }
        }
        DailyEnvSlab { start_day, days, dcs: layout, cells }
    }

    /// The slab's cell for a (DC, region, day), if it covers it.
    fn get(&self, dc: DcId, region: RegionId, day: u64) -> Option<InletConditions> {
        let &(_, regions, first) = self.dcs.iter().find(|&&(id, _, _)| id == dc)?;
        let offset = day.checked_sub(self.start_day)? as usize;
        if region.0 == 0 || region.0 > regions || offset >= self.days {
            return None;
        }
        self.cells.get(first + (region.0 as usize - 1) * self.days + offset).copied()
    }

    /// Inlet conditions for a region over one day: the slab's cell, or
    /// `env`'s daily mean for a cell outside the slab.
    pub fn daily_mean(
        &self,
        env: &EnvModel,
        dc: DcId,
        region: RegionId,
        day: u64,
    ) -> InletConditions {
        self.get(dc, region, day).unwrap_or_else(|| env.daily_mean(dc, region, day))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_matches_table_i() {
        let env = EnvModel::paper_layout(1);
        assert_eq!(env.dc(DcId(1)).cooling, CoolingSystem::Adiabatic);
        assert_eq!(env.dc(DcId(2)).cooling, CoolingSystem::ChilledWater);
        assert_eq!(env.dc(DcId(1)).region_temp_offsets.len(), 4);
        assert_eq!(env.dc(DcId(2)).region_temp_offsets.len(), 3);
    }

    #[test]
    fn sampling_is_deterministic() {
        let env = EnvModel::paper_layout(9);
        let t = SimTime::from_date(2012, 7, 4, 15);
        let a = env.sample(DcId(1), RegionId(4), t);
        let b = env.sample(DcId(1), RegionId(4), t);
        assert_eq!(a, b);
    }

    #[test]
    fn hot_region_runs_hotter_on_average() {
        let env = EnvModel::paper_layout(9);
        let mut hot = 0.0;
        let mut cool = 0.0;
        for day in 0..200 {
            hot += env.daily_mean(DcId(1), RegionId(4), day).temp_f;
            cool += env.daily_mean(DcId(1), RegionId(3), day).temp_f;
        }
        assert!(hot > cool + 200.0 * 2.0, "offsets should separate regions");
    }

    #[test]
    fn dc2_summer_is_unremarkable() {
        let env = EnvModel::paper_layout(9);
        // Mid-July afternoon, the worst case: DC2 stays within setpoint.
        let t = SimTime::from_date(2012, 7, 15, 15);
        let c = env.sample(DcId(2), RegionId(1), t);
        assert!(c.temp_f < 74.0, "dc2 temp {}", c.temp_f);
        assert!(c.rh > 30.0, "dc2 rh {}", c.rh);
    }

    #[test]
    fn daily_mean_within_sampled_extremes() {
        let env = EnvModel::paper_layout(9);
        let day = 200;
        let mean = env.daily_mean(DcId(1), RegionId(1), day);
        let samples: Vec<f64> = DAILY_SAMPLE_HOURS
            .iter()
            .map(|&h| {
                env.sample(DcId(1), RegionId(1), SimTime::from_days(day).plus_hours(h)).temp_f
            })
            .collect();
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(mean.temp_f >= lo && mean.temp_f <= hi);
    }

    #[test]
    fn slab_matches_sampling_inside_and_outside_its_span() {
        let env = EnvModel::paper_layout(9);
        let slab =
            DailyEnvSlab::from_fn(&[(DcId(1), 4), (DcId(2), 3)], 10, 40, |dc, region, day| {
                env.daily_mean(dc, region, day)
            });
        let bits = |c: InletConditions| (c.temp_f.to_bits(), c.rh.to_bits());
        for (dc, regions) in [(DcId(1), 4u8), (DcId(2), 3)] {
            for region in (0..=regions + 1).map(RegionId) {
                for day in [0, 9, 10, 25, 39, 40, 400] {
                    assert_eq!(
                        bits(slab.daily_mean(&env, dc, region, day)),
                        bits(env.daily_mean(dc, region, day)),
                        "{dc} {region:?} day {day}"
                    );
                }
            }
        }
        assert!(slab.get(DcId(2), RegionId(3), 39).is_some());
        for (dc, region, day) in [(3, 1, 20), (2, 4, 39), (1, 0, 20), (1, 1, 9), (1, 1, 40)] {
            assert_eq!(slab.get(DcId(dc), RegionId(region), day), None);
        }
    }

    #[test]
    #[should_panic(expected = "unknown DC9")]
    fn unknown_dc_panics() {
        let env = EnvModel::paper_layout(1);
        env.sample(DcId(9), RegionId(1), SimTime(0));
    }
}
