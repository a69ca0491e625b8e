//! Serde round-trips: the analysis artifacts (tables, tickets, metrics)
//! must survive JSON serialization unchanged, since the experiment harness
//! persists them.

use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};
use rainshine_telemetry::ids::{DcId, DeviceId, RackId, RegionId, RowId, ServerId, ServerLocation};
use rainshine_telemetry::metrics::WindowedSeries;
use rainshine_telemetry::rma::{FaultKind, HardwareFault, RmaTicket};
use rainshine_telemetry::time::SimTime;

#[test]
fn ticket_roundtrips_through_json() {
    let ticket = RmaTicket {
        device: DeviceId(42),
        location: ServerLocation {
            dc: DcId(1),
            region: RegionId(2),
            row: RowId(3),
            rack: RackId(4),
            server: ServerId(5),
        },
        fault: FaultKind::Hardware(HardwareFault::Disk),
        opened: SimTime(100),
        resolved: SimTime(110),
        repeat_count: 1,
        false_positive: false,
    };
    let json = serde_json::to_string(&ticket).unwrap();
    let back: RmaTicket = serde_json::from_str(&json).unwrap();
    assert_eq!(ticket, back);
}

#[test]
fn table_roundtrips_through_json() {
    let schema = Schema::new(vec![
        Field::new("x", FeatureKind::Continuous),
        Field::new("k", FeatureKind::Nominal),
        Field::new("o", FeatureKind::Ordinal),
    ]);
    let mut b = FrameBuilder::new(schema);
    for i in 0..5 {
        b.push_row(vec![
            Value::Continuous(i as f64),
            Value::Nominal(format!("c{}", i % 2)),
            Value::Ordinal(i),
        ])
        .unwrap();
    }
    let table = b.build().unwrap();
    let json = serde_json::to_string(&table).unwrap();
    let back: Frame = serde_json::from_str(&json).unwrap();
    assert_eq!(table, back);
    assert_eq!(back.nominal_label("k", 3).unwrap(), "c1");
}

#[test]
fn windowed_series_roundtrips() {
    let mut s = WindowedSeries::zeros(10);
    s.nonzero.insert(3, 7);
    let json = serde_json::to_string(&s).unwrap();
    let back: WindowedSeries = serde_json::from_str(&json).unwrap();
    assert_eq!(s, back);
    assert_eq!(back.quantile(1.0), 7);
}
