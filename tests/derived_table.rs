//! Differential oracles for the rack-day tables.
//!
//! `FleetAnalyses`, the memo behind `ExperimentContext` and the
//! conformance runner, builds the all-hardware rack-day table once and
//! derives the disk table from it by swapping in the disk response
//! (`dataset::rack_day_response` through `Frame::with_continuous`), so the
//! two tables share every feature column. The derived table must equal
//! `rack_day_table(output, Disk, stride)` built from scratch, column for
//! column: continuous values to the bit, nominal codes and dictionaries,
//! and ordinals. The dirty preset covers NaN environment cells.
//!
//! The all-hardware table itself, which `dataset` emits column by column,
//! must equal a row-by-row rebuild through `FrameBuilder::push_row` that
//! counts its own tickets.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;

use rainshine::analysis::dataset::{rack_day_response, rack_day_table, FaultFilter};
use rainshine::dcsim::{CorruptionConfig, SimulationOutput};
use rainshine::obs::Obs;
use rainshine::parallel::Parallelism;
use rainshine::telemetry::frame::{Frame, FrameBuilder, Value};
use rainshine::telemetry::ids::RackId;
use rainshine::telemetry::rma::HardwareFault;
use rainshine::telemetry::schema::{analysis_schema, columns};
use rainshine_bench::{ExperimentContext, Scale};

mod common;
use common::assert_same_table;

const DISK: FaultFilter = FaultFilter::Component(HardwareFault::Disk);

fn context(scale: Scale, seed: u64, corruption: CorruptionConfig) -> ExperimentContext {
    ExperimentContext::new_with_obs(scale, seed, Parallelism::Auto, corruption, Obs::disabled())
}

/// Checks the context's disk table, derived after the all-hardware table
/// is built, against a fresh build at the context's stride.
fn check_context(what: &str, ctx: &ExperimentContext) {
    let stride = ctx.day_stride_pub();
    let all_hw = ctx.all_hw_table().clone();
    if ctx.output.config.corruption.is_enabled() {
        assert!(
            all_hw.continuous(columns::TEMPERATURE_F).unwrap().iter().any(|t| t.is_nan()),
            "{what}: the dirty preset leaves NaN environment cells"
        );
    }
    let fresh = rack_day_table(&ctx.output, DISK, stride).unwrap();
    let derived = ctx.disk_table();
    assert_same_table(what, &derived, &fresh);
    let response = fresh.continuous(columns::FAILURE_RATE).unwrap();
    assert!(response.iter().sum::<f64>() > 0.0, "{what}: the disk response is not all zero");
}

/// Rebuilds the all-hardware rack-day table row by row through
/// `FrameBuilder::push_row`, in the emission and interning order of the
/// columnar path in `dataset`. The tickets are counted here, not by
/// `dataset::RackDayCounts`, so the comparison checks the count index too.
fn row_path_table(output: &SimulationOutput, stride: usize) -> Frame {
    let mut counts: BTreeMap<(RackId, u64), u64> = BTreeMap::new();
    for t in output.true_positives() {
        if FaultFilter::AllHardware.matches(t.fault) {
            *counts.entry((t.location.rack, t.opened.days())).or_insert(0) += 1;
        }
    }
    let mut builder = FrameBuilder::new(analysis_schema());
    output.for_each_active_rack_day(NonZeroUsize::new(stride).unwrap(), |_, rack, t, env| {
        let count = counts.get(&(rack.id, t.days())).copied().unwrap_or(0) as f64;
        let row = vec![
            Value::Nominal(rack.sku.to_string()),
            Value::Continuous(rack.age_months(t)),
            Value::Continuous(rack.power_kw),
            Value::Nominal(rack.workload.to_string()),
            Value::Continuous(env.temp_f),
            Value::Continuous(env.rh),
            Value::Nominal(rack.dc.to_string()),
            Value::Nominal(format!("{}-{}", rack.dc, rack.region.0)),
            Value::Nominal(format!("{}-row{}", rack.dc, rack.row.0)),
            Value::Nominal(rack.id.to_string()),
            Value::Ordinal(t.day_of_week().index() as i64),
            Value::Ordinal(t.week_of_year() as i64),
            Value::Ordinal(t.month() as i64),
            Value::Ordinal(t.year_offset() as i64),
            Value::Continuous(count),
        ];
        builder.push_row(row).unwrap();
    });
    builder.build().unwrap()
}

/// Checks the all-hardware table at `stride` against the row-path
/// rebuild, bit for bit.
fn check_row_path(what: &str, output: &SimulationOutput, stride: usize) {
    let columnar = rack_day_table(output, FaultFilter::AllHardware, stride).unwrap();
    let row_path = row_path_table(output, stride);
    assert_same_table(&format!("{what} row path at stride {stride}"), &columnar, &row_path);
    let response = columnar.continuous(columns::FAILURE_RATE).unwrap();
    assert!(response.iter().sum::<f64>() > 0.0, "{what}: the response is not all zero");
}

#[test]
fn derived_disk_table_matches_a_fresh_build_on_small_fleets() {
    check_context("small clean", &context(Scale::Small, 11, CorruptionConfig::default()));
    check_context("small dirty", &context(Scale::Small, 11, CorruptionConfig::dirty_default()));
}

#[test]
fn row_path_rebuild_matches_the_columnar_table_on_small_fleets() {
    for (what, corruption) in [
        ("small clean", CorruptionConfig::default()),
        ("small dirty", CorruptionConfig::dirty_default()),
    ] {
        let ctx = context(Scale::Small, 11, corruption);
        for stride in [1, 4] {
            check_row_path(what, &ctx.output, stride);
        }
    }
}

#[test]
fn derived_table_matches_at_every_stride_and_filter() {
    let ctx = ExperimentContext::new_with_obs(
        Scale::Small,
        3,
        Parallelism::Sequential,
        CorruptionConfig::dirty_default(),
        Obs::disabled(),
    );
    let output = &ctx.output;
    let others = [DISK, FaultFilter::Component(HardwareFault::Memory), FaultFilter::All];
    for stride in [1, 3] {
        let base = rack_day_table(output, FaultFilter::AllHardware, stride).unwrap();
        for filter in others {
            let response = rack_day_response(output, filter, stride).unwrap();
            let derived = base.with_continuous(columns::FAILURE_RATE, response).unwrap();
            let fresh = rack_day_table(output, filter, stride).unwrap();
            assert_same_table(&format!("{filter:?} at stride {stride}"), &derived, &fresh);
        }
    }
}

#[test]
#[ignore = "paper-scale fleet; run in release"]
fn derived_disk_table_matches_a_fresh_build_at_paper_scale() {
    for (what, corruption) in [
        ("paper clean", CorruptionConfig::default()),
        ("paper dirty", CorruptionConfig::dirty_default()),
    ] {
        let ctx = context(Scale::Paper, 42, corruption);
        check_context(what, &ctx);
        check_row_path(what, &ctx.output, ctx.day_stride_pub());
    }
}
