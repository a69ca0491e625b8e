//! Differential oracle for the derived disk rack-day table.
//!
//! `FleetAnalyses`, the memo behind `ExperimentContext` and the
//! conformance runner, builds the all-hardware rack-day table once and
//! derives the disk table from it by swapping in the disk response
//! (`dataset::rack_day_response` through `Frame::with_continuous`), so the
//! two tables share every feature column. The derived table must equal
//! `rack_day_table(output, Disk, stride)` built from scratch, column for
//! column: continuous values to the bit, nominal codes and dictionaries,
//! and ordinals. The dirty preset covers NaN environment cells.

use rainshine::analysis::dataset::{rack_day_response, rack_day_table, FaultFilter};
use rainshine::dcsim::CorruptionConfig;
use rainshine::obs::Obs;
use rainshine::parallel::Parallelism;
use rainshine::telemetry::rma::HardwareFault;
use rainshine::telemetry::schema::columns;
use rainshine_bench::{ExperimentContext, Scale};

mod common;
use common::assert_same_table;

const DISK: FaultFilter = FaultFilter::Component(HardwareFault::Disk);

/// Checks the context's disk table, derived after the all-hardware table
/// is built, against a fresh build at the context's stride.
fn check_context(what: &str, scale: Scale, seed: u64, corruption: CorruptionConfig) {
    let dirty = corruption != CorruptionConfig::default();
    let ctx = ExperimentContext::new_with_obs(
        scale,
        seed,
        Parallelism::Auto,
        corruption,
        Obs::disabled(),
    );
    let stride = ctx.day_stride_pub();
    let all_hw = ctx.all_hw_table().clone();
    if dirty {
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

#[test]
fn derived_disk_table_matches_a_fresh_build_on_small_fleets() {
    check_context("small clean", Scale::Small, 11, CorruptionConfig::default());
    check_context("small dirty", Scale::Small, 11, CorruptionConfig::dirty_default());
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
    check_context("paper clean", Scale::Paper, 42, CorruptionConfig::default());
    check_context("paper dirty", Scale::Paper, 42, CorruptionConfig::dirty_default());
}
