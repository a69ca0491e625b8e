//! Helpers shared by the integration tests that compare analysis tables.

use rainshine::telemetry::frame::{Column, Frame};

/// Asserts `derived` equals `fresh` column for column: continuous values
/// to the bit, nominal codes and dictionaries, and ordinals.
pub fn assert_same_table(what: &str, derived: &Frame, fresh: &Frame) {
    assert_eq!(derived.schema(), fresh.schema(), "{what}: schema");
    assert_eq!(derived.rows(), fresh.rows(), "{what}: rows");
    for (i, field) in fresh.schema().fields().iter().enumerate() {
        let name = &field.name;
        match (derived.column(i), fresh.column(i)) {
            (Column::Continuous(a), Column::Continuous(b)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(bits(a) == bits(b), "{what}: continuous column `{name}` differs");
            }
            (Column::Nominal { codes: a, dict: da }, Column::Nominal { codes: b, dict: db }) => {
                assert!(a == b, "{what}: codes of `{name}` differ");
                assert_eq!(da.labels(), db.labels(), "{what}: dictionary of `{name}`");
            }
            (Column::Ordinal(a), Column::Ordinal(b)) => {
                assert!(a == b, "{what}: ordinal column `{name}` differs");
            }
            _ => panic!("{what}: column `{name}` changed kind"),
        }
    }
}
