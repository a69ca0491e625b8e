//! The multi-factor hardware hazard model — the simulator's ground truth.
//!
//! Expected hardware failures for component class `c` on a rack over one
//! day:
//!
//! ```text
//! rate = units(c) · base(c)
//!        · f_sku · f_workload(c) · f_age · f_dow · f_season
//!        · f_env(c, T, RH) · f_power · f_region · f_dc(c) · frailty
//! ```
//!
//! Every factor mirrors an effect the paper reports (DESIGN.md §3 maps each
//! to its figure). All effect sizes are plain struct fields so ablation
//! scenarios (`scenarios/*.json`) can switch them off individually.
//!
//! Each factor is computed at the granularity it varies on:
//! [`HazardCalendar`] tabulates `f_season` once per day for the whole fleet
//! and `f_age` once per age in whole days; [`RackHazard`] evaluates
//! `units · base · f_sku · f_workload(c)` and the trailing
//! `f_power · f_region · f_dc(c) · frailty` once per rack, reads the two
//! tables and `f_dow` once per rack-day, and `f_env(c, T, RH)` per class.
//! It multiplies them out left to right in the order above, so each rate
//! is bit-identical to the single expression; regrouping the product would
//! change low bits of rates and with them the Poisson draws. The burst rate
//! changes with age band only, so [`RackBurstRates`] computes it once per
//! rack and band. These evaluators are the only way to a rate: a one-off
//! rate is a calendar of that day and a `RackHazard` over it.

use std::ops::Range;

use rainshine_telemetry::ids::DcId;
use rainshine_telemetry::time::SimTime;
use serde::Serialize;

use crate::cooling::InletConditions;
use crate::topology::{age_months_of_days, RackInfo};
use crate::workload;
use crate::{Result, SimError};

/// Hardware component classes that generate RMA tickets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentClass {
    /// Hard-disk drives.
    Disk,
    /// Memory DIMMs.
    Dimm,
    /// Power delivery (PSU / power strip).
    Power,
    /// Other server hardware (board, CPU, fans).
    ServerOther,
    /// NIC / connectivity.
    Network,
}

impl ComponentClass {
    /// All component classes.
    pub const ALL: [ComponentClass; 5] = [
        ComponentClass::Disk,
        ComponentClass::Dimm,
        ComponentClass::Power,
        ComponentClass::ServerOther,
        ComponentClass::Network,
    ];
}

/// Ground-truth hazard configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HazardConfig {
    /// Disk failures per disk-day at baseline (≈ 2.2 %/yr AFR).
    pub disk_base: f64,
    /// DIMM failures per DIMM-day at baseline.
    pub dimm_base: f64,
    /// Power-delivery failures per server-day at baseline.
    pub power_base: f64,
    /// Other server-hardware failures per server-day at baseline.
    pub server_base: f64,
    /// Network failures per server-day at baseline.
    pub network_base: f64,
    /// Extra power-component hazard in DC2: its five-nines power design
    /// (Table I) doubles up UPS/PDU strings, so there are many more
    /// RMA-able power components per server.
    pub dc2_power_infra_factor: f64,
    /// Network hazard scaling in DC2 (colocated facility uses the
    /// provider's aggregation gear, so fewer NIC-attributable tickets).
    pub dc2_network_factor: f64,

    /// Weekday hazard multiplier (utilization-driven, Fig. 3).
    pub weekday_factor: f64,
    /// Weekend hazard multiplier.
    pub weekend_factor: f64,
    /// Amplitude of the annual cycle peaking in the second half of the year
    /// (Fig. 4); `0.0` disables it.
    pub season_amplitude: f64,

    /// Extra infant-mortality hazard at age 0 (Fig. 9's elevated young
    /// equipment); decays exponentially.
    pub infant_scale: f64,
    /// e-folding age of infant mortality, months.
    pub infant_decay_months: f64,
    /// Age at which wear-out begins, months.
    pub wearout_onset_months: f64,
    /// Added hazard per month beyond the wear-out onset.
    pub wearout_slope: f64,

    /// Disk hazard slope per °F above [`Self::temp_ref_f`] (Fig. 17's
    /// gradual trend).
    pub disk_temp_slope: f64,
    /// Reference temperature for the disk slope, °F.
    pub temp_ref_f: f64,
    /// Threshold above which disks take a step-increase (Fig. 18: 78 °F).
    pub disk_hot_threshold_f: f64,
    /// Step multiplier above the hot threshold (paper: ×1.5).
    pub disk_hot_factor: f64,
    /// RH below which hot disks take a further step (Fig. 18: 25 %).
    pub disk_dry_rh_threshold: f64,
    /// Additional multiplier in the hot **and** dry corner (paper: ×1.25).
    pub disk_hot_dry_factor: f64,
    /// RH below which ESD-sensitive parts (DIMMs, boards) take a step
    /// (Fig. 5's elevated low-humidity bins).
    pub low_rh_threshold: f64,
    /// ESD multiplier below the low-RH threshold.
    pub low_rh_factor: f64,

    /// Rated power at/above which racks run hotter internally (Fig. 8:
    /// > 12 kW elevated).
    pub high_power_threshold_kw: f64,
    /// Multiplier at/above the power threshold.
    pub high_power_factor: f64,

    /// Per-region hazard multipliers for DC1 (installation/airflow quality,
    /// Fig. 2). Deliberately *not* aligned with the thermal offsets, so the
    /// environmental effects of Q3 stay attributable.
    pub dc1_region_factors: [f64; 4],
    /// Per-region hazard multipliers for DC2.
    pub dc2_region_factors: [f64; 3],

    /// Baseline probability of a correlated failure burst per rack-day
    /// (a PDU trip, a bad firmware push to one rack, a vibration storm in a
    /// dense-disk chassis). Bursts are what make μ heavy-tailed: many
    /// servers of one rack down *simultaneously* (Section V's "one spare
    /// may suffice when two servers do not fail at the same time but more
    /// may be needed to handle simultaneous failures").
    pub burst_base: f64,
    /// Burst-rate multiplier for racks at/above the high-power threshold.
    pub burst_power_factor: f64,
    /// Burst-rate multiplier while a rack is younger than the infant decay
    /// age (bad batches / teething installations).
    pub burst_infant_factor: f64,
    /// Exponent on `(disks_per_server / 4)` scaling burst proneness of
    /// dense-storage chassis.
    pub burst_disk_exponent: f64,
    /// Burst-rate factor for compute chassis (< 8 disks/server), whose
    /// bursts are bad-DIMM-batch storms rather than disk storms.
    pub burst_compute_factor: f64,
    /// Burst-rate multiplier once a rack passes the wear-out onset age —
    /// together with the infant factor this makes burst proneness a
    /// *bathtub in age*, the observable signature Q1's storage clusters
    /// key on ("devices that are either very old or very young require
    /// more spares").
    pub burst_wearout_factor: f64,
    /// Minimum fraction of a rack's servers a burst takes down.
    pub burst_min_frac: f64,
    /// Additional burst-size range for compute chassis:
    /// size = min + range·u² (right-skewed).
    pub burst_frac_range: f64,
    /// Additional burst-size range for dense-disk chassis — disk storms can
    /// take most of a storage rack down (the paper's 85 %-spares cluster).
    pub burst_storage_frac_range: f64,
    /// Commission-day windows (relative to the epoch) of "bad vendor lots".
    /// Racks commissioned inside a window carry full burst proneness;
    /// others are scaled by [`Self::burst_quiet_factor`]. Because lot
    /// membership is a function of commission date, CART can recover it
    /// through the `age_months` feature — the "very old or very young"
    /// clusters the paper reports.
    pub burst_bad_lot_windows: Vec<(i64, i64)>,
    /// Burst-rate scaling for racks outside every bad-lot window.
    pub burst_quiet_factor: f64,

    /// Scale on the spread of per-SKU intrinsic reliability around 1.0:
    /// `1.0` keeps the catalog factors (S2 intrinsically 4× S4), `0.0`
    /// flattens every SKU to the same intrinsic hazard (the SKU×workload
    /// confound then comes from placement alone). Conformance scenarios
    /// use this to ablate the Q2 effect.
    pub sku_spread: f64,
}

impl Default for HazardConfig {
    fn default() -> Self {
        HazardConfig {
            disk_base: 6.0e-5,
            dimm_base: 5.7e-6,
            power_base: 2.8e-5,
            server_base: 4.6e-5,
            network_base: 4.8e-5,
            dc2_power_infra_factor: 5.5,
            dc2_network_factor: 0.45,
            weekday_factor: 1.25,
            weekend_factor: 0.82,
            season_amplitude: 0.18,
            infant_scale: 1.6,
            infant_decay_months: 6.0,
            wearout_onset_months: 36.0,
            wearout_slope: 0.02,
            disk_temp_slope: 0.006,
            temp_ref_f: 60.0,
            disk_hot_threshold_f: 78.0,
            disk_hot_factor: 1.5,
            disk_dry_rh_threshold: 25.0,
            disk_hot_dry_factor: 1.4,
            low_rh_threshold: 30.0,
            low_rh_factor: 1.3,
            high_power_threshold_kw: 12.0,
            high_power_factor: 1.3,
            dc1_region_factors: [1.25, 1.0, 0.95, 1.1],
            dc2_region_factors: [0.8, 0.7, 0.75],
            burst_base: 1.5e-4,
            burst_power_factor: 2.0,
            burst_infant_factor: 6.0,
            burst_disk_exponent: 1.5,
            burst_compute_factor: 0.15,
            burst_wearout_factor: 3.0,
            burst_min_frac: 0.08,
            burst_frac_range: 0.45,
            burst_storage_frac_range: 0.77,
            burst_bad_lot_windows: vec![(-1095, -850), (-180, 180)],
            burst_quiet_factor: 0.01,
            sku_spread: 1.0,
        }
    }
}

impl HazardConfig {
    /// Validates that rates and factors are finite: the base rates and the
    /// calendar, ESD, disk and power step factors positive, the season
    /// amplitude in `[0, 1)`, and the SKU spread and the burst rates,
    /// factors and size fractions non-negative (the ablations zero some).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on the first field that breaks
    /// its rule.
    pub fn validate(&self) -> Result<()> {
        let positives = [
            ("disk_base", self.disk_base),
            ("dimm_base", self.dimm_base),
            ("power_base", self.power_base),
            ("server_base", self.server_base),
            ("network_base", self.network_base),
            ("weekday_factor", self.weekday_factor),
            ("weekend_factor", self.weekend_factor),
            ("infant_decay_months", self.infant_decay_months),
            ("disk_hot_factor", self.disk_hot_factor),
            ("disk_hot_dry_factor", self.disk_hot_dry_factor),
            ("low_rh_factor", self.low_rh_factor),
            ("high_power_factor", self.high_power_factor),
        ];
        for (field, v) in positives {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::InvalidConfig { field, reason: "must be positive finite" });
            }
        }
        if !self.season_amplitude.is_finite() || !(0.0..1.0).contains(&self.season_amplitude) {
            return Err(SimError::InvalidConfig {
                field: "season_amplitude",
                reason: "must be within [0, 1)",
            });
        }
        // A NaN burst rate passes the burst draw's `u >= rate` test on every
        // day, so a burst would fire on every active rack-day.
        let non_negatives = [
            ("sku_spread", self.sku_spread),
            ("burst_base", self.burst_base),
            ("burst_power_factor", self.burst_power_factor),
            ("burst_infant_factor", self.burst_infant_factor),
            ("burst_compute_factor", self.burst_compute_factor),
            ("burst_wearout_factor", self.burst_wearout_factor),
            ("burst_min_frac", self.burst_min_frac),
            ("burst_frac_range", self.burst_frac_range),
            ("burst_storage_frac_range", self.burst_storage_frac_range),
            ("burst_quiet_factor", self.burst_quiet_factor),
        ];
        for (field, v) in non_negatives {
            if !v.is_finite() || v < 0.0 {
                return Err(SimError::InvalidConfig {
                    field,
                    reason: "must be non-negative finite",
                });
            }
        }
        let finites = [
            ("disk_hot_threshold_f", self.disk_hot_threshold_f),
            ("burst_disk_exponent", self.burst_disk_exponent),
        ];
        for (field, v) in finites {
            if !v.is_finite() {
                return Err(SimError::InvalidConfig { field, reason: "must be finite" });
            }
        }
        Ok(())
    }

    /// Flattens the bathtub (Fig. 9): no infant mortality, no wear-out,
    /// and age-independent burst proneness.
    pub fn ablate_age_bathtub(&mut self) {
        self.infant_scale = 0.0;
        self.wearout_slope = 0.0;
        self.burst_infant_factor = 1.0;
        self.burst_wearout_factor = 1.0;
    }

    /// Zeroes every environmental hazard effect (Figs. 5, 17, 18).
    pub fn ablate_environment(&mut self) {
        self.disk_temp_slope = 0.0;
        self.disk_hot_factor = 1.0;
        self.disk_hot_dry_factor = 1.0;
        self.low_rh_factor = 1.0;
    }

    /// Flattens the weekday and seasonal cycles (Figs. 3, 4).
    pub fn ablate_calendar(&mut self) {
        self.weekday_factor = 1.0;
        self.weekend_factor = 1.0;
        self.season_amplitude = 0.0;
    }

    /// Removes the correlated-burst channel (Section V's simultaneous
    /// failures).
    pub fn ablate_bursts(&mut self) {
        self.burst_base = 0.0;
        self.burst_quiet_factor = 0.0;
    }

    /// A SKU's intrinsic reliability factor with [`Self::sku_spread`]
    /// applied. Exactly the catalog factor at the default spread of 1.0
    /// (no float rounding), so seed-pinned outputs are unchanged.
    fn sku_reliability(&self, catalog_factor: f64) -> f64 {
        if self.sku_spread == 1.0 {
            catalog_factor
        } else {
            1.0 + (catalog_factor - 1.0) * self.sku_spread
        }
    }

    /// Baseline per-unit daily rate of a component class.
    pub fn base_rate(&self, class: ComponentClass) -> f64 {
        match class {
            ComponentClass::Disk => self.disk_base,
            ComponentClass::Dimm => self.dimm_base,
            ComponentClass::Power => self.power_base,
            ComponentClass::ServerOther => self.server_base,
            ComponentClass::Network => self.network_base,
        }
    }

    /// Units of a component class in one server of `rack`'s SKU.
    pub fn units_per_server(&self, rack: &RackInfo, class: ComponentClass) -> f64 {
        let spec = rack.sku_spec();
        match class {
            ComponentClass::Disk => spec.disks_per_server as f64,
            ComponentClass::Dimm => spec.dimms_per_server as f64,
            // Per-server subsystems.
            ComponentClass::Power | ComponentClass::ServerOther | ComponentClass::Network => 1.0,
        }
    }

    /// Bathtub age factor (Fig. 9): elevated infant mortality decaying over
    /// [`Self::infant_decay_months`], flat mid-life, linear wear-out after
    /// [`Self::wearout_onset_months`].
    pub fn age_factor(&self, age_months: f64) -> f64 {
        let infant = self.infant_scale * (-age_months / self.infant_decay_months).exp();
        let wearout = self.wearout_slope * (age_months - self.wearout_onset_months).max(0.0);
        1.0 + infant + wearout
    }

    /// Day-of-week factor for a workload with the given sensitivity.
    pub fn dow_factor(&self, t: SimTime, weekday_sensitivity: f64) -> f64 {
        let base =
            if t.day_of_week().is_weekday() { self.weekday_factor } else { self.weekend_factor };
        1.0 + weekday_sensitivity * (base - 1.0)
    }

    /// Seasonal factor peaking in the second half of the year (Fig. 4).
    pub fn season_factor(&self, t: SimTime) -> f64 {
        use std::f64::consts::TAU;
        // Peak around early September (fraction 0.68).
        1.0 + self.season_amplitude * (TAU * (t.year_fraction() - 0.43)).sin()
    }

    /// Environmental factor for a component class (Figs. 5, 17, 18).
    pub fn env_factor(&self, class: ComponentClass, env: InletConditions) -> f64 {
        match class {
            ComponentClass::Disk => {
                let mut f = 1.0 + self.disk_temp_slope * (env.temp_f - self.temp_ref_f).max(0.0);
                if env.temp_f > self.disk_hot_threshold_f {
                    f *= self.disk_hot_factor;
                    if env.rh < self.disk_dry_rh_threshold {
                        f *= self.disk_hot_dry_factor;
                    }
                }
                f
            }
            ComponentClass::Dimm | ComponentClass::ServerOther => {
                if env.rh < self.low_rh_threshold {
                    self.low_rh_factor
                } else {
                    1.0
                }
            }
            ComponentClass::Power | ComponentClass::Network => 1.0,
        }
    }

    /// Rated-power factor (Fig. 8).
    pub fn power_factor(&self, power_kw: f64) -> f64 {
        if power_kw >= self.high_power_threshold_kw {
            self.high_power_factor
        } else {
            1.0
        }
    }

    /// Per-region installation-quality factor (Fig. 2).
    pub fn region_factor(&self, dc: DcId, region_1based: u8) -> f64 {
        let idx = (region_1based as usize).saturating_sub(1);
        match dc.0 {
            1 => self.dc1_region_factors.get(idx).copied().unwrap_or(1.0),
            2 => self.dc2_region_factors.get(idx).copied().unwrap_or(1.0),
            _ => 1.0,
        }
    }

    /// Servers taken down by a burst, given a uniform draw `u` in `[0, 1)`.
    /// Right-skewed: most bursts are small, a few take out half the rack.
    pub fn burst_size(&self, rack: &RackInfo, u: f64) -> u32 {
        let range = if rack.sku_spec().disks_per_server >= 8 {
            self.burst_storage_frac_range
        } else {
            self.burst_frac_range
        };
        let frac = self.burst_min_frac + range * u * u;
        ((frac * rack.servers as f64).ceil() as u32).clamp(1, rack.servers)
    }

    /// Per-DC component-class factor (power-infrastructure design and
    /// network topology differences between the two facilities).
    pub fn dc_component_factor(&self, dc: DcId, class: ComponentClass) -> f64 {
        if dc.0 == 2 {
            match class {
                ComponentClass::Power => self.dc2_power_infra_factor,
                ComponentClass::Network => self.dc2_network_factor,
                _ => 1.0,
            }
        } else {
            1.0
        }
    }
}

/// The factors that depend only on the calendar day or on equipment age in
/// whole days, tabulated once for a span and the racks that run in it.
///
/// `f_season` is one entry per span day, shared by every rack; `f_age` is
/// one entry per age from the youngest to the oldest any rack reaches in
/// the span. Each entry is the same [`HazardConfig`] function of the same
/// input as a direct call, so it has the same bits.
#[derive(Debug, Clone)]
pub struct HazardCalendar<'a> {
    config: &'a HazardConfig,
    first_day: u64,
    /// [`HazardConfig::season_factor`] per day from `first_day`.
    season: Vec<f64>,
    first_age_day: i64,
    /// [`HazardConfig::age_factor`] per age in whole days from
    /// `first_age_day`.
    age: Vec<f64>,
}

impl<'a> HazardCalendar<'a> {
    /// Tabulates `days` for `racks` under `config`.
    pub fn new(config: &'a HazardConfig, days: Range<u64>, racks: &[RackInfo]) -> Self {
        let season =
            days.clone().map(|day| config.season_factor(SimTime::from_days(day))).collect();
        // Ages of active rack-days: from `start − latest commission` (at
        // least 0) to `end − 1 − earliest commission`.
        let latest = racks.iter().map(|r| r.commissioned_day).max().unwrap_or(0);
        let earliest = racks.iter().map(|r| r.commissioned_day).min().unwrap_or(0);
        let first_age_day = (days.start as i64 - latest).max(0);
        let age = (first_age_day..days.end as i64 - earliest)
            .map(|age_days| config.age_factor(age_months_of_days(age_days)))
            .collect();
        HazardCalendar { config, first_day: days.start, season, first_age_day, age }
    }

    fn season(&self, day: u64) -> Option<f64> {
        let i = usize::try_from(day.checked_sub(self.first_day)?).ok()?;
        self.season.get(i).copied()
    }

    fn age(&self, age_days: i64) -> Option<f64> {
        let i = usize::try_from(age_days - self.first_age_day).ok()?;
        self.age.get(i).copied()
    }
}

/// The hazard of one rack, split by the granularity each factor varies on
/// (DESIGN.md §3).
///
/// [`RackHazard::new`] evaluates everything fixed for the rack's lifetime
/// once: the per-class prefix `units · base · f_sku · f_workload` and the
/// trailing power, region, DC-component and frailty factors.
/// [`RackHazard::day`] adds the factors that move with the day (age and
/// season from the [`HazardCalendar`], day of week), and
/// [`RackHazard::rate`] multiplies them out per class in the same
/// left-to-right order as the formula above, so every rate is
/// bit-identical to evaluating the whole product in one expression.
#[derive(Debug, Clone)]
pub struct RackHazard<'a> {
    calendar: &'a HazardCalendar<'a>,
    rack: &'a RackInfo,
    /// `units · base · f_sku · f_workload` per class, indexed like
    /// [`ComponentClass::ALL`].
    prefix: [f64; 5],
    /// The DC component factor per class, indexed like
    /// [`ComponentClass::ALL`].
    dc_component: [f64; 5],
    power: f64,
    region: f64,
    weekday_sensitivity: f64,
}

/// The day-varying factors of one active rack-day (see
/// [`RackHazard::day`]).
#[derive(Debug, Clone, Copy)]
pub struct RackDayFactors {
    age: f64,
    dow: f64,
    season: f64,
}

impl<'a> RackHazard<'a> {
    /// Evaluates the rack-constant factors of `rack` under the calendar's
    /// config; the day factors come from `calendar`.
    pub fn new(calendar: &'a HazardCalendar<'a>, rack: &'a RackInfo) -> Self {
        let config = calendar.config;
        let sku = config.sku_reliability(rack.sku_spec().reliability_factor);
        let wl = workload::spec_of(rack.workload);
        let prefix = ComponentClass::ALL.map(|class| {
            let stress = match class {
                ComponentClass::Disk => wl.disk_stress,
                ComponentClass::Dimm => wl.memory_stress,
                ComponentClass::Power | ComponentClass::ServerOther | ComponentClass::Network => {
                    wl.server_stress
                }
            };
            let units = rack.servers as f64 * config.units_per_server(rack, class);
            units * config.base_rate(class) * sku * stress
        });
        RackHazard {
            calendar,
            rack,
            prefix,
            dc_component: ComponentClass::ALL.map(|c| config.dc_component_factor(rack.dc, c)),
            power: config.power_factor(rack.power_kw),
            region: config.region_factor(rack.dc, rack.region.0),
            weekday_sensitivity: wl.weekday_sensitivity,
        }
    }

    /// The day-varying factors of `day` (days since the epoch), or `None`
    /// before the rack is commissioned (its hazard is zero then) or outside
    /// the calendar.
    pub fn day(&self, day: u64) -> Option<RackDayFactors> {
        let age_days = day as i64 - self.rack.commissioned_day;
        if age_days < 0 {
            return None;
        }
        Some(RackDayFactors {
            age: self.calendar.age(age_days)?,
            dow: self.calendar.config.dow_factor(SimTime::from_days(day), self.weekday_sensitivity),
            season: self.calendar.season(day)?,
        })
    }

    /// Expected failures of `class` on the rack-day `day`, given that
    /// day's mean inlet conditions.
    pub fn rate(&self, class: ComponentClass, day: &RackDayFactors, env: InletConditions) -> f64 {
        let i = class as usize;
        // Left-associated in the formula's order: reassociating changes
        // the low bits of the rate and with them the Poisson draws.
        self.prefix[i]
            * day.age
            * day.dow
            * day.season
            * self.calendar.config.env_factor(class, env)
            * self.power
            * self.region
            * self.dc_component[i]
            * self.rack.frailty
    }
}

/// Expected correlated-failure bursts per day of one rack.
///
/// Burst proneness concentrates in dense-disk chassis, high-power racks,
/// and young installations — the feature-defined pockets the MF clustering
/// must isolate to beat SF provisioning (Fig. 11). Only the age band
/// (infant, mid-life, wear-out) moves with the day, so the rate of each
/// band is computed once, with the factors multiplied in the same
/// left-to-right order as a per-day evaluation.
#[derive(Debug, Clone, Copy)]
pub struct RackBurstRates<'a> {
    config: &'a HazardConfig,
    rack: &'a RackInfo,
    /// The rate in the infant, mid-life and wear-out bands.
    by_band: [f64; 3],
}

impl<'a> RackBurstRates<'a> {
    /// Evaluates the burst rate of `rack` under `config` in each age band.
    pub fn new(config: &'a HazardConfig, rack: &'a RackInfo) -> Self {
        let spec = rack.sku_spec();
        let disk_factor = if spec.disks_per_server >= 8 {
            (spec.disks_per_server as f64 / 4.0).powf(config.burst_disk_exponent)
        } else {
            config.burst_compute_factor
        };
        let power = if rack.power_kw >= config.high_power_threshold_kw {
            config.burst_power_factor
        } else {
            1.0
        };
        let lot = if config
            .burst_bad_lot_windows
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&rack.commissioned_day))
        {
            1.0
        } else {
            config.burst_quiet_factor
        };
        let sku = config.sku_reliability(spec.reliability_factor);
        let by_band =
            [config.burst_infant_factor, 1.0, config.burst_wearout_factor].map(|age_factor| {
                config.burst_base * disk_factor * power * age_factor * lot * sku * rack.frailty
            });
        RackBurstRates { config, rack, by_band }
    }

    /// The burst rate on `day` (days since the epoch); zero before the
    /// rack is commissioned.
    pub fn rate(&self, day: u64) -> f64 {
        let day_start = SimTime::from_days(day);
        if !self.rack.is_active(day_start) {
            return 0.0;
        }
        let age = self.rack.age_months(day_start);
        let band = if age < self.config.infant_decay_months {
            0
        } else if age > self.config.wearout_onset_months {
            2
        } else {
            1
        };
        self.by_band[band]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;
    use crate::topology::Fleet;

    fn env(temp_f: f64, rh: f64) -> InletConditions {
        InletConditions { temp_f, rh }
    }

    #[test]
    fn defaults_validate() {
        assert!(HazardConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_nonpositive() {
        let h = HazardConfig { disk_base: 0.0, ..HazardConfig::default() };
        assert!(h.validate().is_err());
        let h = HazardConfig { season_amplitude: 1.5, ..HazardConfig::default() };
        assert!(h.validate().is_err());
    }

    #[test]
    fn sku_spread_default_is_exact_identity() {
        let h = HazardConfig::default();
        for f in [0.31, 1.0, 1.7, 4.0] {
            assert_eq!(h.sku_reliability(f).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn sku_spread_zero_flattens_reliability() {
        let h = HazardConfig { sku_spread: 0.0, ..HazardConfig::default() };
        assert_eq!(h.sku_reliability(4.0), 1.0);
        assert_eq!(h.sku_reliability(0.25), 1.0);
    }

    #[test]
    fn ablations_zero_their_effects() {
        let mut h = HazardConfig::default();
        h.ablate_age_bathtub();
        assert_eq!(h.age_factor(0.0), 1.0);
        assert_eq!(h.age_factor(60.0), 1.0);
        let mut h = HazardConfig::default();
        h.ablate_environment();
        assert_eq!(h.env_factor(ComponentClass::Disk, env(95.0, 10.0)), 1.0);
        assert_eq!(h.env_factor(ComponentClass::Dimm, env(65.0, 10.0)), 1.0);
        let mut h = HazardConfig::default();
        h.ablate_calendar();
        let monday = SimTime::from_date(2012, 1, 2, 0);
        assert_eq!(h.dow_factor(monday, 1.0), 1.0);
        assert_eq!(h.season_factor(SimTime::from_date(2012, 9, 15, 0)), 1.0);
        let mut h = HazardConfig::default();
        h.ablate_bursts();
        let fleet = Fleet::build(&FleetConfig::paper_scale());
        let day = SimTime::from_date(2012, 6, 1, 0).days();
        for rack in &fleet.racks {
            assert_eq!(RackBurstRates::new(&h, rack).rate(day), 0.0);
        }
    }

    #[test]
    fn validation_accepts_the_presets_and_rejects_nan_in_every_checked_field() {
        // Every numeric field `validate` checks.
        type Field = fn(&mut HazardConfig) -> &mut f64;
        let fields: [(&str, Field); 25] = [
            ("disk_base", |h| &mut h.disk_base),
            ("dimm_base", |h| &mut h.dimm_base),
            ("power_base", |h| &mut h.power_base),
            ("server_base", |h| &mut h.server_base),
            ("network_base", |h| &mut h.network_base),
            ("weekday_factor", |h| &mut h.weekday_factor),
            ("weekend_factor", |h| &mut h.weekend_factor),
            ("infant_decay_months", |h| &mut h.infant_decay_months),
            ("disk_hot_factor", |h| &mut h.disk_hot_factor),
            ("disk_hot_dry_factor", |h| &mut h.disk_hot_dry_factor),
            ("low_rh_factor", |h| &mut h.low_rh_factor),
            ("high_power_factor", |h| &mut h.high_power_factor),
            ("season_amplitude", |h| &mut h.season_amplitude),
            ("sku_spread", |h| &mut h.sku_spread),
            ("burst_base", |h| &mut h.burst_base),
            ("burst_power_factor", |h| &mut h.burst_power_factor),
            ("burst_infant_factor", |h| &mut h.burst_infant_factor),
            ("burst_compute_factor", |h| &mut h.burst_compute_factor),
            ("burst_wearout_factor", |h| &mut h.burst_wearout_factor),
            ("burst_min_frac", |h| &mut h.burst_min_frac),
            ("burst_frac_range", |h| &mut h.burst_frac_range),
            ("burst_storage_frac_range", |h| &mut h.burst_storage_frac_range),
            ("burst_quiet_factor", |h| &mut h.burst_quiet_factor),
            ("disk_hot_threshold_f", |h| &mut h.disk_hot_threshold_f),
            ("burst_disk_exponent", |h| &mut h.burst_disk_exponent),
        ];
        let ablations: [fn(&mut HazardConfig); 5] = [
            |_| {},
            HazardConfig::ablate_age_bathtub,
            HazardConfig::ablate_environment,
            HazardConfig::ablate_calendar,
            HazardConfig::ablate_bursts,
        ];
        for ablate in ablations {
            let mut base = HazardConfig::default();
            ablate(&mut base);
            assert!(base.validate().is_ok(), "{base:?}");
            for (name, field) in fields {
                let mut h = base.clone();
                *field(&mut h) = f64::NAN;
                assert!(h.validate().is_err(), "NaN {name} accepted");
            }
        }
        let h = HazardConfig { burst_base: -1e-9, ..HazardConfig::default() };
        assert!(h.validate().is_err());
    }

    #[test]
    fn age_factor_is_a_bathtub() {
        let h = HazardConfig::default();
        assert!(h.age_factor(0.0) > h.age_factor(12.0), "infant mortality");
        assert!(h.age_factor(12.0) > h.age_factor(24.0), "infant tail still decaying");
        assert!(h.age_factor(60.0) > h.age_factor(30.0), "wear-out");
        // Mid-life is the hazard floor.
        let floor = h.age_factor(34.0);
        assert!(h.age_factor(2.0) > floor && h.age_factor(58.0) > floor);
    }

    #[test]
    fn env_factor_encodes_fig18_thresholds() {
        let h = HazardConfig::default();
        let mild = h.env_factor(ComponentClass::Disk, env(70.0, 40.0));
        let hot = h.env_factor(ComponentClass::Disk, env(80.0, 40.0));
        let hot_dry = h.env_factor(ComponentClass::Disk, env(80.0, 20.0));
        // Hot step ≈ 1.5x beyond the slope, hot+dry another 1.25x.
        assert!(hot / mild > 1.4, "hot/mild = {}", hot / mild);
        let expected = HazardConfig::default().disk_hot_dry_factor;
        assert!((hot_dry / hot - expected).abs() < 1e-9);
        // Below the threshold RH is irrelevant for disks.
        let cool_dry = h.env_factor(ComponentClass::Disk, env(70.0, 10.0));
        assert_eq!(cool_dry, mild);
    }

    #[test]
    fn low_rh_hits_esd_sensitive_classes_only() {
        let h = HazardConfig::default();
        assert!(h.env_factor(ComponentClass::Dimm, env(65.0, 20.0)) > 1.0);
        assert!(h.env_factor(ComponentClass::ServerOther, env(65.0, 20.0)) > 1.0);
        assert_eq!(h.env_factor(ComponentClass::Power, env(65.0, 20.0)), 1.0);
        assert_eq!(h.env_factor(ComponentClass::Dimm, env(65.0, 50.0)), 1.0);
    }

    #[test]
    fn weekday_vs_weekend() {
        let h = HazardConfig::default();
        let monday = SimTime::from_date(2012, 1, 2, 0);
        let sunday = SimTime::from_date(2012, 1, 1, 0);
        assert!(h.dow_factor(monday, 1.0) > 1.0);
        assert!(h.dow_factor(sunday, 1.0) < 1.0);
        // Insensitive workloads barely move.
        assert!((h.dow_factor(monday, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn season_peaks_in_second_half() {
        let h = HazardConfig::default();
        let spring = h.season_factor(SimTime::from_date(2012, 3, 15, 0));
        let fall = h.season_factor(SimTime::from_date(2012, 9, 15, 0));
        assert!(fall > spring);
    }

    #[test]
    fn power_threshold() {
        let h = HazardConfig::default();
        assert_eq!(h.power_factor(9.0), 1.0);
        assert!(h.power_factor(13.0) > 1.2);
    }

    #[test]
    fn rack_day_rate_zero_before_commission() {
        let fleet = Fleet::build(&FleetConfig::paper_scale());
        let h = HazardConfig::default();
        let future_rack = fleet
            .racks
            .iter()
            .find(|r| r.commissioned_day > 10)
            .expect("some racks commissioned mid-window");
        let day = SimTime::EPOCH.days();
        let calendar = HazardCalendar::new(&h, day..day + 1, &fleet.racks);
        assert!(RackHazard::new(&calendar, future_rack).day(day).is_none());
    }

    #[test]
    fn rack_day_rates_are_sane() {
        let fleet = Fleet::build(&FleetConfig::paper_scale());
        let h = HazardConfig::default();
        let day = SimTime::from_date(2012, 6, 1, 0);
        let calendar = HazardCalendar::new(&h, day.days()..day.days() + 1, &fleet.racks);
        for rack in fleet.racks.iter().filter(|r| r.is_active(day)) {
            let hazard = RackHazard::new(&calendar, rack);
            let factors = hazard.day(day.days()).expect("active rack-day");
            let total: f64 = ComponentClass::ALL
                .iter()
                .map(|&c| hazard.rate(c, &factors, env(70.0, 40.0)))
                .sum();
            assert!(total > 0.0, "{:?}", rack.id);
            assert!(total < 1.0, "rack {:?} rate {total} too high", rack.id);
        }
    }

    #[test]
    fn disk_rate_scales_with_disk_count() {
        let fleet = Fleet::build(&FleetConfig::paper_scale());
        let h = HazardConfig::default();
        let day = SimTime::from_date(2012, 6, 1, 0);
        let rack = fleet.racks.iter().find(|r| r.is_active(day)).unwrap();
        let spec = rack.sku_spec();
        let per_server = h.units_per_server(rack, ComponentClass::Disk);
        assert_eq!(per_server, spec.disks_per_server as f64);
    }
}
