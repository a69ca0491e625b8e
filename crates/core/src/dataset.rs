//! Analysis-dataset assembly.
//!
//! Turns a [`SimulationOutput`] into the typed tables the framework
//! consumes, all of them on the ingested (sanitized) environment view:
//!
//! * [`RackDayCounts`] — matching ticket counts per (rack, day), the one
//!   count index behind λ here, Q3's per-disk rates and P1's history;
//! * [`rack_day_table`] — one row per active (rack, day) with every
//!   Table III candidate feature plus the day's failure count (the λ
//!   response at rack/day granularity, the paper's default), and
//!   [`rack_day_response`] — that count column alone, for deriving a
//!   second filter's table from the first;
//! * [`rack_table`] — one row per caller-supplied rack with static
//!   features, mean environment, and the caller's response (used by Q1 to
//!   cluster racks by provisioning need).

use std::num::NonZeroUsize;
use std::sync::Arc;

use rainshine_dcsim::cooling::InletConditions;
use rainshine_dcsim::topology::RackInfo;
use rainshine_dcsim::SimulationOutput;
use rainshine_telemetry::frame::{Column, Frame, NominalColumn};
use rainshine_telemetry::rma::{FaultKind, HardwareFault};
use rainshine_telemetry::schema::analysis_schema;
use rainshine_telemetry::time::SimTime;

use crate::{AnalysisError, Result};

/// Which tickets count toward the response column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFilter {
    /// All validated true-positive tickets (hardware + software + boot +
    /// other).
    All,
    /// All hardware tickets (the paper's Q1/Q2 population).
    AllHardware,
    /// One specific hardware component (Q1-B and Q3 use Disk / Memory).
    Component(HardwareFault),
    /// Hardware faults other than disk and memory (the population still
    /// needing whole-server spares under component-level provisioning).
    OtherHardware,
}

impl FaultFilter {
    /// Whether a ticket matches the filter.
    pub fn matches(&self, fault: FaultKind) -> bool {
        match self {
            FaultFilter::All => true,
            FaultFilter::AllHardware => fault.is_hardware(),
            FaultFilter::Component(c) => fault == FaultKind::Hardware(*c),
            FaultFilter::OtherHardware => {
                fault.is_hardware()
                    && fault != FaultKind::Hardware(HardwareFault::Disk)
                    && fault != FaultKind::Hardware(HardwareFault::Memory)
            }
        }
    }
}

/// Matching true-positive ticket counts per (rack, day) over the span: the
/// λ response and the failure-history features all read this one index.
///
/// Racks are addressed by their index in `output.fleet.racks`
/// ([`Fleet::index_of`]), days by absolute day number. Tickets opened
/// outside the span, or on a rack the fleet does not list, are not counted.
///
/// [`Fleet::index_of`]: rainshine_dcsim::topology::Fleet::index_of
#[derive(Debug, Clone)]
pub struct RackDayCounts {
    start_day: u64,
    days: u64,
    /// Per rack, `days + 1` running totals: entry `d` counts the tickets of
    /// the span's first `d` days.
    running: Vec<u32>,
}

impl RackDayCounts {
    /// Counts the tickets matching `filter` in one pass over
    /// [`SimulationOutput::true_positives`].
    pub fn new(output: &SimulationOutput, filter: FaultFilter) -> Self {
        let start_day = output.config.start.days();
        let days = output.config.end.days().saturating_sub(start_day);
        let width = days as usize + 1;
        let mut running = vec![0u32; output.fleet.racks.len() * width];
        for t in output.true_positives() {
            let rack = output.fleet.index_of(t.location.rack);
            let day = t.opened.days().checked_sub(start_day).filter(|&day| day < days);
            if let (Some(rack), Some(day), true) = (rack, day, filter.matches(t.fault)) {
                running[rack * width + day as usize + 1] += 1;
            }
        }
        for row in running.chunks_exact_mut(width) {
            for d in 1..width {
                row[d] += row[d - 1];
            }
        }
        RackDayCounts { start_day, days, running }
    }

    /// Tickets on `rack` opened on `day` (0 outside the span).
    pub fn on(&self, rack: usize, day: u64) -> u32 {
        self.between(rack, day, day.saturating_add(1))
    }

    /// Tickets on `rack` opened on days `from..to`, clamped to the span (0
    /// for an empty or inverted range and for an unknown rack index).
    pub fn between(&self, rack: usize, from: u64, to: u64) -> u32 {
        let offset = |day: u64| day.saturating_sub(self.start_day).min(self.days) as usize;
        let (lo, hi) = (offset(from), offset(to));
        match self.running.chunks_exact(self.days as usize + 1).nth(rack) {
            Some(row) if lo < hi => row[hi] - row[lo],
            _ => 0,
        }
    }
}

/// Builds the rack-day analysis table.
///
/// One row per active (rack, day), stepping days by `day_stride` (use 1 for
/// the full dataset; larger strides thin the table for faster tree fits —
/// the response is still that single day's count, so rates are unbiased).
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] if `day_stride == 0` and
/// [`AnalysisError::NoData`] if no rack-day is active in the span.
pub fn rack_day_table(
    output: &SimulationOutput,
    filter: FaultFilter,
    day_stride: usize,
) -> Result<Frame> {
    let day_stride = checked_stride(day_stride)?;
    let mut cols = AnalysisCols::with_capacity(active_rack_days(output, day_stride));
    // Each day's calendar ordinals, decomposed once for the span instead
    // of once per rack-day.
    let start_day = output.config.start.days();
    let calendar: Vec<[i64; 4]> = (start_day..output.config.end.days())
        .map(|day| calendar_of(SimTime::from_days(day)))
        .collect();
    // Per-rack nominal codes, interned on the rack's first active day so
    // code assignment matches first-seen row order.
    let mut cached: Option<(usize, RackCodes)> = None;
    for_each_rack_day_count(output, filter, day_stride, |index, rack, t, env, count| {
        let codes = match cached {
            Some((i, codes)) if i == index => codes,
            _ => cached.insert((index, cols.intern_rack(rack))).1,
        };
        // Ingested (sanitized) environment: spikes winsorized, blackout
        // cells NaN — the NaN-tolerant CART and the evidence series
        // handle missing readings downstream.
        let day = calendar[(t.days() - start_day) as usize];
        cols.push(codes, rack, t, day, env, count);
    })?;
    cols.into_frame()
}

/// The response column of [`rack_day_table`] alone: the same rows in the
/// same order, without the features.
///
/// A table for a second filter over the same rows is the first table with
/// this column swapped in ([`Frame::with_continuous`] on
/// [`columns::FAILURE_RATE`]), which shares every feature column instead
/// of building and holding them twice.
///
/// # Errors
///
/// As [`rack_day_table`].
///
/// [`columns::FAILURE_RATE`]: rainshine_telemetry::schema::columns::FAILURE_RATE
pub fn rack_day_response(
    output: &SimulationOutput,
    filter: FaultFilter,
    day_stride: usize,
) -> Result<Vec<f64>> {
    let day_stride = checked_stride(day_stride)?;
    let mut response = Vec::with_capacity(active_rack_days(output, day_stride));
    for_each_rack_day_count(output, filter, day_stride, |_, _, _, _, count| response.push(count))?;
    Ok(response)
}

/// `day_stride` as the positive stride the rack-day walk takes.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] if `day_stride == 0`.
pub(crate) fn checked_stride(day_stride: usize) -> Result<NonZeroUsize> {
    NonZeroUsize::new(day_stride)
        .ok_or(AnalysisError::InvalidParameter { name: "day_stride", value: 0.0 })
}

/// The number of (rack, day) visits of
/// [`SimulationOutput::for_each_active_rack_day`] at `day_stride`: for
/// each rack, the strided days of the span on or after its commissioning.
fn active_rack_days(output: &SimulationOutput, day_stride: NonZeroUsize) -> usize {
    let stride = day_stride.get() as u64;
    let start_day = output.config.start.days();
    let strided_days = output.config.end.days().saturating_sub(start_day).div_ceil(stride);
    output
        .fleet
        .racks
        .iter()
        .map(|rack| {
            let first_day = u64::try_from(rack.commissioned_day).unwrap_or(0).max(start_day);
            let skipped = (first_day - start_day).div_ceil(stride);
            strided_days.saturating_sub(skipped) as usize
        })
        .sum()
}

/// The one rack-day walk behind [`rack_day_table`] and
/// [`rack_day_response`]: every active (rack, day) at `day_stride`, in
/// [`SimulationOutput::for_each_active_rack_day`] order, with the day's
/// count of tickets matching `filter`.
fn for_each_rack_day_count<F>(
    output: &SimulationOutput,
    filter: FaultFilter,
    day_stride: NonZeroUsize,
    mut visit: F,
) -> Result<()>
where
    F: FnMut(usize, &RackInfo, SimTime, InletConditions, f64),
{
    let counts = RackDayCounts::new(output, filter);
    let rows = output.for_each_active_rack_day(day_stride, |index, rack, t, env| {
        visit(index, rack, t, env, f64::from(counts.on(index, t.days())));
    });
    if rows == 0 {
        return Err(AnalysisError::NoData { what: "no active rack-days in span".into() });
    }
    Ok(())
}

/// Nominal codes for one rack's static features, interned once and reused
/// for every day the rack contributes.
#[derive(Clone, Copy)]
struct RackCodes {
    sku: u32,
    workload: u32,
    dc: u32,
    region: u32,
    row: u32,
    rack: u32,
}

/// The 15 analysis-schema columns as typed buffers, in schema order, so
/// the emission loop appends to all of them without per-row [`Value`]
/// vectors.
///
/// [`Value`]: rainshine_telemetry::frame::Value
#[derive(Default)]
struct AnalysisCols {
    sku: NominalColumn,
    age: Vec<f64>,
    power: Vec<f64>,
    workload: NominalColumn,
    temp: Vec<f64>,
    rh: Vec<f64>,
    dc: NominalColumn,
    region: NominalColumn,
    row: NominalColumn,
    rack: NominalColumn,
    dow: Vec<i64>,
    week: Vec<i64>,
    month: Vec<i64>,
    year: Vec<i64>,
    response: Vec<f64>,
}

/// The calendar ordinals of `t` in schema order: day of week, week of
/// year, month and year offset.
fn calendar_of(t: SimTime) -> [i64; 4] {
    [
        t.day_of_week().index() as i64,
        i64::from(t.week_of_year()),
        i64::from(t.month()),
        i64::from(t.year_offset()),
    ]
}

impl AnalysisCols {
    /// Empty buffers with room for `rows` rows in every column.
    fn with_capacity(rows: usize) -> Self {
        let mut cols = AnalysisCols::default();
        for nominal in [
            &mut cols.sku,
            &mut cols.workload,
            &mut cols.dc,
            &mut cols.region,
            &mut cols.row,
            &mut cols.rack,
        ] {
            nominal.reserve(rows);
        }
        for continuous in
            [&mut cols.age, &mut cols.power, &mut cols.temp, &mut cols.rh, &mut cols.response]
        {
            continuous.reserve_exact(rows);
        }
        for ordinal in [&mut cols.dow, &mut cols.week, &mut cols.month, &mut cols.year] {
            ordinal.reserve_exact(rows);
        }
        cols
    }

    fn intern_rack(&mut self, rack: &RackInfo) -> RackCodes {
        RackCodes {
            sku: self.sku.intern(&rack.sku.to_string()),
            workload: self.workload.intern(&rack.workload.to_string()),
            dc: self.dc.intern(&rack.dc.to_string()),
            region: self.region.intern(&format!("{}-{}", rack.dc, rack.region.0)),
            row: self.row.intern(&format!("{}-row{}", rack.dc, rack.row.0)),
            rack: self.rack.intern(&rack.id.to_string()),
        }
    }

    /// Appends one row at `t`, whose calendar ordinals are `calendar`
    /// ([`calendar_of`]).
    fn push(
        &mut self,
        codes: RackCodes,
        rack: &RackInfo,
        t: SimTime,
        calendar: [i64; 4],
        env: InletConditions,
        response: f64,
    ) {
        self.sku.push_code(codes.sku);
        self.age.push(rack.age_months(t));
        self.power.push(rack.power_kw);
        self.workload.push_code(codes.workload);
        self.temp.push(env.temp_f);
        self.rh.push(env.rh);
        self.dc.push_code(codes.dc);
        self.region.push_code(codes.region);
        self.row.push_code(codes.row);
        self.rack.push_code(codes.rack);
        let [dow, week, month, year] = calendar;
        self.dow.push(dow);
        self.week.push(week);
        self.month.push(month);
        self.year.push(year);
        self.response.push(response);
    }

    fn into_frame(self) -> Result<Frame> {
        let columns = vec![
            self.sku.finish(),
            Column::Continuous(self.age),
            Column::Continuous(self.power),
            self.workload.finish(),
            Column::Continuous(self.temp),
            Column::Continuous(self.rh),
            self.dc.finish(),
            self.region.finish(),
            self.row.finish(),
            self.rack.finish(),
            Column::Ordinal(self.dow),
            Column::Ordinal(self.week),
            Column::Ordinal(self.month),
            Column::Ordinal(self.year),
            Column::Continuous(self.response),
        ];
        Ok(Frame::new(Arc::new(analysis_schema()), columns)?)
    }
}

/// Builds a rack-level table: one row per `(rack, response)` of `rows`, in
/// that order, carrying the rack's static features, its mean environment
/// over its active span, and the response. Callers pass racks in service
/// during the span; a rack without an active day gets the fallback mean
/// environment (65 °F, 45 %).
///
/// Time features are taken at the midpoint of the rack's active span (age)
/// or zeroed (calendar ordinals are meaningless for a whole-span summary).
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if `rows` is empty.
pub fn rack_table<'r>(
    output: &SimulationOutput,
    rows: impl IntoIterator<Item = (&'r RackInfo, f64)>,
) -> Result<Frame> {
    let start_day = output.config.start.days() as i64;
    let end_day = output.config.end.days() as i64;
    let mut cols = AnalysisCols::default();
    for (rack, resp) in rows {
        let active_start = rack.commissioned_day.max(start_day);
        let mid_day = ((active_start + end_day) / 2) as u64;
        let t = SimTime::from_days(mid_day);
        // Mean environment over a monthly sample of the active span.
        let mut temp = 0.0;
        let mut rh = 0.0;
        let mut n = 0.0;
        for day in (active_start as u64..end_day as u64).step_by(30) {
            let env = output.ingested_daily_env(rack.dc, rack.region, day);
            // Skip blacked-out samples; the mean comes from the days the
            // sensors actually reported.
            if env.temp_f.is_finite() && env.rh.is_finite() {
                temp += env.temp_f;
                rh += env.rh;
                n += 1.0;
            }
        }
        let (temp, rh) = if n > 0.0 { (temp / n, rh / n) } else { (65.0, 45.0) };
        let codes = cols.intern_rack(rack);
        let env = InletConditions { temp_f: temp, rh };
        cols.push(codes, rack, t, calendar_of(t), env, resp);
    }
    if cols.response.is_empty() {
        return Err(AnalysisError::NoData { what: "no racks with responses".into() });
    }
    cols.into_frame()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_dcsim::{FleetConfig, Simulation};
    use rainshine_telemetry::schema::columns;

    fn sim() -> SimulationOutput {
        Simulation::new(FleetConfig::small(), 11).run()
    }

    #[test]
    fn rack_day_table_has_schema_and_rows() {
        let out = sim();
        let t = rack_day_table(&out, FaultFilter::AllHardware, 1).unwrap();
        assert_eq!(t.schema().len(), 15);
        // Active rack-days <= racks × days.
        let max_rows = out.fleet.racks.len() as u64 * out.config.span_days();
        assert!(t.rows() as u64 <= max_rows);
        assert!(t.rows() > 1000);
        // Response is non-negative and non-trivial.
        let y = t.continuous(columns::FAILURE_RATE).unwrap();
        assert!(y.iter().all(|&v| v >= 0.0));
        assert!(y.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn reserved_rows_are_the_visited_rack_days() {
        let out = sim();
        let start_day = out.config.start.days() as i64;
        assert!(
            out.fleet.racks.iter().any(|r| r.commissioned_day > start_day),
            "some rack is commissioned inside the span"
        );
        for stride in [1, 2, 7, 30, 5000] {
            let stride = NonZeroUsize::new(stride).unwrap();
            let visited = out.for_each_active_rack_day(stride, |_, _, _, _| {});
            assert_eq!(active_rack_days(&out, stride), visited, "stride {stride}");
        }
    }

    #[test]
    fn stride_thins_rows_proportionally() {
        let out = sim();
        let full = rack_day_table(&out, FaultFilter::AllHardware, 1).unwrap();
        let thin = rack_day_table(&out, FaultFilter::AllHardware, 7).unwrap();
        let ratio = full.rows() as f64 / thin.rows() as f64;
        assert!((6.0..8.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn component_filter_counts_fewer() {
        let out = sim();
        let all = rack_day_table(&out, FaultFilter::AllHardware, 2).unwrap();
        let disks = rack_day_table(&out, FaultFilter::Component(HardwareFault::Disk), 2).unwrap();
        let sum = |t: &Frame| t.continuous(columns::FAILURE_RATE).unwrap().iter().sum::<f64>();
        assert!(sum(&disks) < sum(&all));
        assert!(sum(&disks) > 0.0);
    }

    #[test]
    fn zero_stride_rejected() {
        let out = sim();
        assert!(matches!(
            rack_day_table(&out, FaultFilter::All, 0),
            Err(AnalysisError::InvalidParameter { .. })
        ));
        assert!(matches!(
            rack_day_response(&out, FaultFilter::All, 0),
            Err(AnalysisError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rack_table_one_row_per_responding_rack() {
        let out = sim();
        // Every other rack, last first: rows come out in the order given.
        let rows: Vec<_> =
            out.fleet.racks.iter().step_by(2).rev().map(|r| (r, f64::from(r.id.0))).collect();
        let t = rack_table(&out, rows.iter().copied()).unwrap();
        assert_eq!(t.rows(), rows.len());
        let response = t.continuous(columns::FAILURE_RATE).unwrap();
        for (row, &(rack, resp)) in rows.iter().enumerate() {
            assert_eq!(t.nominal_label(columns::RACK, row).unwrap(), rack.id.to_string());
            assert_eq!(response[row], resp);
        }
        // Nominal features preserved.
        assert!(t.dictionary(columns::SKU).unwrap().labels().len() >= 2);
        assert_eq!(t.dictionary(columns::DATACENTER).unwrap().labels().len(), 2);
    }

    #[test]
    fn rack_table_empty_response_errors() {
        let out = sim();
        assert!(matches!(rack_table(&out, []), Err(AnalysisError::NoData { .. })));
    }

    #[test]
    fn fault_filter_matching() {
        use rainshine_telemetry::rma::{BootFault, SoftwareFault};
        let disk = FaultKind::Hardware(HardwareFault::Disk);
        let mem = FaultKind::Hardware(HardwareFault::Memory);
        let sw = FaultKind::Software(SoftwareFault::Timeout);
        let boot = FaultKind::Boot(BootFault::Pxe);
        assert!(FaultFilter::All.matches(sw));
        assert!(FaultFilter::AllHardware.matches(disk));
        assert!(!FaultFilter::AllHardware.matches(boot));
        assert!(FaultFilter::Component(HardwareFault::Disk).matches(disk));
        assert!(!FaultFilter::Component(HardwareFault::Disk).matches(mem));
    }
}
