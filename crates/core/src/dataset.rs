//! Analysis-dataset assembly.
//!
//! Turns a [`SimulationOutput`] into the typed tables the framework
//! consumes:
//!
//! * [`rack_day_table`] — one row per active (rack, day) with every
//!   Table III candidate feature plus the day's failure count (the λ
//!   response at rack/day granularity, the paper's default);
//! * [`rack_table`] — one row per rack with static features, mean
//!   environment, and a caller-supplied response (used by Q1 to cluster
//!   racks by provisioning need).

use std::collections::{BTreeMap, HashMap};

use rainshine_dcsim::topology::RackInfo;
use rainshine_dcsim::SimulationOutput;
use rainshine_telemetry::frame::{ColumnBuilder, Frame, FrameBuilder};
use rainshine_telemetry::ids::RackId;
use rainshine_telemetry::rma::{FaultKind, HardwareFault, RmaTicket};
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

/// Counts matching true-positive tickets per (rack, day).
///
/// Returned as a [`BTreeMap`] so that callers iterating the counts (rather
/// than just probing them) see a deterministic key order.
pub fn ticket_counts_by_rack_day(
    tickets: &[&RmaTicket],
    filter: FaultFilter,
) -> BTreeMap<(RackId, u64), u64> {
    let mut counts = BTreeMap::new();
    for t in tickets {
        if filter.matches(t.fault) {
            *counts.entry((t.location.rack, t.opened.days())).or_insert(0) += 1;
        }
    }
    counts
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
    if day_stride == 0 {
        return Err(AnalysisError::InvalidParameter { name: "day_stride", value: 0.0 });
    }
    let tickets = output.true_positives();
    let counts = ticket_counts_by_rack_day(&tickets, filter);
    let mut builder = FrameBuilder::new(analysis_schema());
    let rows = {
        let mut cols = AnalysisCols::split(&mut builder);
        // Per-rack nominal codes, interned on the rack's first active day so
        // code assignment matches first-seen row order.
        let mut cached: Option<(RackId, RackCodes)> = None;
        output.for_each_active_rack_day(day_stride, |rack, t, env| {
            let codes = match cached {
                Some((id, codes)) if id == rack.id => codes,
                _ => {
                    let codes = cols.intern_rack(rack);
                    cached = Some((rack.id, codes));
                    codes
                }
            };
            // Ingested (sanitized) environment: spikes winsorized, blackout
            // cells NaN — the NaN-tolerant CART and the evidence series
            // handle missing readings downstream.
            let count = counts.get(&(rack.id, t.days())).copied().unwrap_or(0) as f64;
            cols.push(codes, rack, t, env.temp_f, env.rh, count);
        })
    };
    if rows == 0 {
        return Err(AnalysisError::NoData { what: "no active rack-days in span".into() });
    }
    Ok(builder.build()?)
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

/// The 15 analysis-schema column builders, split-borrowed so the emission
/// loop can append to all of them without per-row [`Value`] vectors.
///
/// [`Value`]: rainshine_telemetry::frame::Value
struct AnalysisCols<'a> {
    sku: &'a mut ColumnBuilder,
    age: &'a mut ColumnBuilder,
    power: &'a mut ColumnBuilder,
    workload: &'a mut ColumnBuilder,
    temp: &'a mut ColumnBuilder,
    rh: &'a mut ColumnBuilder,
    dc: &'a mut ColumnBuilder,
    region: &'a mut ColumnBuilder,
    row: &'a mut ColumnBuilder,
    rack: &'a mut ColumnBuilder,
    dow: &'a mut ColumnBuilder,
    week: &'a mut ColumnBuilder,
    month: &'a mut ColumnBuilder,
    year: &'a mut ColumnBuilder,
    response: &'a mut ColumnBuilder,
}

impl<'a> AnalysisCols<'a> {
    fn split(builder: &'a mut FrameBuilder) -> Self {
        let [sku, age, power, workload, temp, rh, dc, region, row, rack, dow, week, month, year, response] =
            builder.columns_mut()
        else {
            unreachable!("analysis schema has 15 columns")
        };
        AnalysisCols {
            sku,
            age,
            power,
            workload,
            temp,
            rh,
            dc,
            region,
            row,
            rack,
            dow,
            week,
            month,
            year,
            response,
        }
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

    fn push(
        &mut self,
        codes: RackCodes,
        rack: &RackInfo,
        t: SimTime,
        temp_f: f64,
        rh: f64,
        response: f64,
    ) {
        self.sku.push_code(codes.sku);
        self.age.push_f64(rack.age_months(t));
        self.power.push_f64(rack.power_kw);
        self.workload.push_code(codes.workload);
        self.temp.push_f64(temp_f);
        self.rh.push_f64(rh);
        self.dc.push_code(codes.dc);
        self.region.push_code(codes.region);
        self.row.push_code(codes.row);
        self.rack.push_code(codes.rack);
        self.dow.push_i64(t.day_of_week().index() as i64);
        self.week.push_i64(t.week_of_year() as i64);
        self.month.push_i64(t.month() as i64);
        self.year.push_i64(t.year_offset() as i64);
        self.response.push_f64(response);
    }
}

/// Builds a rack-level table: one row per rack carrying its static features,
/// its mean environment over the active span, and the caller-supplied
/// response (racks missing from `response` are skipped). Returns the table
/// with the id of the rack behind each row, in row order.
///
/// Time features are taken at the midpoint of the rack's active span (age)
/// or zeroed (calendar ordinals are meaningless for a whole-span summary).
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if no rack has a response.
pub fn rack_table(
    output: &SimulationOutput,
    response: &HashMap<RackId, f64>,
) -> Result<(Frame, Vec<RackId>)> {
    let mut builder = FrameBuilder::new(analysis_schema());
    let start_day = output.config.start.days() as i64;
    let end_day = output.config.end.days() as i64;
    let mut racks = Vec::new();
    {
        let mut cols = AnalysisCols::split(&mut builder);
        for rack in &output.fleet.racks {
            let Some(&resp) = response.get(&rack.id) else {
                continue;
            };
            let active_start = rack.commissioned_day.max(start_day);
            if active_start >= end_day {
                continue;
            }
            let mid_day = ((active_start + end_day) / 2) as u64;
            let t = SimTime::from_days(mid_day);
            // Mean environment over a monthly sample of the active span.
            let mut temp = 0.0;
            let mut rh = 0.0;
            let mut n = 0.0;
            let mut day = active_start as u64;
            while (day as i64) < end_day {
                let env = output.ingested_daily_env(rack.dc, rack.region, day);
                // Skip blacked-out samples; the mean comes from the days the
                // sensors actually reported.
                if env.temp_f.is_finite() && env.rh.is_finite() {
                    temp += env.temp_f;
                    rh += env.rh;
                    n += 1.0;
                }
                day += 30;
            }
            let (temp, rh) = if n > 0.0 { (temp / n, rh / n) } else { (65.0, 45.0) };
            let codes = cols.intern_rack(rack);
            cols.push(codes, rack, t, temp, rh, resp);
            racks.push(rack.id);
        }
    }
    if racks.is_empty() {
        return Err(AnalysisError::NoData { what: "no racks with responses".into() });
    }
    Ok((builder.build()?, racks))
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
    }

    #[test]
    fn rack_table_one_row_per_responding_rack() {
        let out = sim();
        let mut resp = HashMap::new();
        for (i, r) in out.fleet.racks.iter().enumerate() {
            if i % 2 == 0 {
                resp.insert(r.id, i as f64);
            }
        }
        let (t, racks) = rack_table(&out, &resp).unwrap();
        assert_eq!(t.rows(), resp.len());
        for (row, rack) in racks.iter().enumerate() {
            assert_eq!(t.nominal_label(columns::RACK, row).unwrap(), rack.to_string());
        }
        // Nominal features preserved.
        assert!(t.dictionary(columns::SKU).unwrap().labels().len() >= 2);
        assert_eq!(t.dictionary(columns::DATACENTER).unwrap().labels().len(), 2);
    }

    #[test]
    fn rack_table_empty_response_errors() {
        let out = sim();
        assert!(matches!(rack_table(&out, &HashMap::new()), Err(AnalysisError::NoData { .. })));
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
