//! Property-based tests for the conformance harness: scenario specs must
//! survive a serde round-trip for any envelope values, and the divergence
//! arithmetic behind the differential oracles must be total — NaN cells,
//! signed zeros, and zero-row tables included.

use proptest::prelude::*;
use rainshine_conformance::scenario::{
    CartSpec, Claim, ClaimSpec, EffectToggles, Expect, Scenario,
};
use rainshine_conformance::{cell_divergence, DiffOracle, DivergenceBound};
use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};

const LABELS: [&str; 8] = ["W2", "W3", "S2", "S4", "DC1", "DC2", "software", "rack_7-b"];

fn finite() -> impl Strategy<Value = f64> {
    -1e6f64..1e6
}

/// Any f64 bit pattern: normals, subnormals, infinities, and NaNs.
fn any_f64() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

fn pbool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn label() -> impl Strategy<Value = String> {
    (0usize..LABELS.len()).prop_map(|i| LABELS[i].to_string())
}

/// Labels `Scenario::validate` accepts as workloads / mix categories.
fn workload() -> impl Strategy<Value = String> {
    (1usize..7).prop_map(|i| format!("W{i}"))
}

fn category() -> impl Strategy<Value = String> {
    (0usize..3).prop_map(|i| ["software", "hardware", "boot"][i].to_string())
}

fn cart_spec() -> impl Strategy<Value = CartSpec> {
    (2usize..2000, 1usize..1000, 0.0f64..0.1).prop_map(|(min_split, min_leaf, cp)| CartSpec {
        min_split,
        min_leaf,
        cp,
    })
}

fn effects() -> impl Strategy<Value = EffectToggles> {
    (pbool(), pbool(), pbool(), pbool(), 0.0f64..2.0, -10.0f64..10.0, 0.0f64..0.3).prop_map(
        |(age, env, cal, bursts, sku, shift, corruption)| EffectToggles {
            age_bathtub: age,
            environment: env,
            calendar: cal,
            bursts,
            sku_spread: sku,
            hot_threshold_shift_f: shift,
            corruption_rate: corruption,
        },
    )
}

/// One arbitrary claim covering every structural shape: bare envelope
/// floats, embedded [`CartSpec`]s, string-keyed variants.
fn claim() -> impl Strategy<Value = Claim> {
    (
        0usize..10,
        cart_spec(),
        1usize..8,
        (label(), label(), workload(), category()),
        (finite(), finite(), finite()),
        pbool(),
        0usize..10,
    )
        .prop_map(|(variant, cart, stride, (l1, l2, w, cat), (f1, f2, f3), flag, small)| {
            match variant {
                0 => Claim::AgeBathtub { min_young_over_mid: f1 },
                1 => Claim::RegionGap { min_dc1_over_dc2: f1 },
                2 => Claim::WeekdaySpread { lo: f1, hi: f2, weekdays_over_weekends: flag },
                3 => Claim::WorkloadExtremes { highest: w.clone(), lowest: w },
                4 => Claim::DriverImportance { cart, min_planted_share: f1, max_week_share: f2 },
                5 => Claim::MfSkuRatio {
                    cart,
                    table_stride: stride,
                    sku_hi: l1,
                    sku_lo: l2,
                    lo: f1,
                    hi: f2,
                },
                6 => Claim::TempThreshold {
                    cart,
                    table_stride: stride,
                    dc: l1,
                    lo_f: f1,
                    hi_f: f2,
                    min_hot_over_cool: f3,
                },
                7 => Claim::EnvRules { cart, table_stride: stride, dc: l1, min_rules: small },
                8 => Claim::SfOverprovision { workload: w, sla: 0.95, lo_pct: f1, hi_pct: f2 },
                _ => Claim::MixShare { category: cat, lo: f1, hi: f2 },
            }
        })
}

fn claim_spec() -> impl Strategy<Value = ClaimSpec> {
    (label(), claim(), pbool(), 0.0f64..1.0, label()).prop_map(
        |(name, claim, present, min_recovery, derivation)| ClaimSpec {
            name,
            claim,
            expect: if present { Expect::Present } else { Expect::Absent },
            min_recovery,
            derivation,
        },
    )
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        label(),
        label(),
        (0usize..3).prop_map(|i| ["small", "medium", "paper"][i].to_string()),
        1usize..8,
        0u64..u64::MAX / 2,
        effects(),
        prop::collection::vec(claim_spec(), 1..6),
    )
        .prop_map(|(name, description, scale, day_stride, seed_base, effects, claims)| {
            Scenario { name, description, scale, day_stride, seed_base, effects, claims }
        })
}

fn two_col_table(xs: &[f64], labels: &[String]) -> Frame {
    let schema = Schema::new(vec![
        Field { name: "x".into(), kind: FeatureKind::Continuous },
        Field { name: "label".into(), kind: FeatureKind::Nominal },
    ]);
    let mut b = FrameBuilder::new(schema);
    for (x, l) in xs.iter().zip(labels) {
        b.push_row(vec![Value::Continuous(*x), Value::Nominal(l.clone())]).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #[test]
    fn scenario_specs_round_trip_through_serde(s in scenario()) {
        let json = s.to_json();
        let reparsed = Scenario::from_json(&json).expect("generated scenario re-parses");
        prop_assert_eq!(reparsed, s);
    }

    #[test]
    fn cell_divergence_is_total_symmetric_and_self_zero(a in any_f64(), b in any_f64()) {
        // Total: never NaN, never negative.
        let d = cell_divergence(a, b);
        prop_assert!(!d.is_nan(), "divergence of {a:?} vs {b:?} is NaN");
        prop_assert!(d >= 0.0);
        // Symmetric.
        prop_assert_eq!(d.to_bits(), cell_divergence(b, a).to_bits());
        // Self-comparison is exactly zero, NaN included.
        prop_assert_eq!(cell_divergence(a, a), 0.0);
        // Mixed NaN is an unconditional violation signal.
        if a.is_nan() != b.is_nan() {
            prop_assert_eq!(d, f64::INFINITY);
        }
    }

    #[test]
    fn bound_arithmetic_matches_its_definition(d in 0.0f64..1e9, bound in 0.0f64..1e9) {
        prop_assert_eq!(DivergenceBound::MaxAbs(bound).allows(d), d <= bound);
        prop_assert_eq!(DivergenceBound::BitIdentical.allows(d), d == 0.0);
        prop_assert!(!DivergenceBound::MaxAbs(bound).allows(f64::INFINITY));
    }

    #[test]
    fn any_table_is_bit_identical_to_itself(
        cells in prop::collection::vec(((0u8..4), finite(), label()), 0..40),
    ) {
        // One cell in four is NaN: sensor blackouts must not break
        // self-comparison.
        let xs: Vec<f64> =
            cells.iter().map(|(k, x, _)| if *k == 0 { f64::NAN } else { *x }).collect();
        let labels: Vec<String> = cells.iter().map(|(_, _, l)| l.clone()).collect();
        let t = two_col_table(&xs, &labels);
        let oracle = DiffOracle::new("self", DivergenceBound::BitIdentical);
        let r = oracle.compare_tables(&t, &t);
        prop_assert!(!r.violation, "{}", r.detail);
        prop_assert_eq!(r.max_divergence, 0.0);
        prop_assert_eq!(r.cells as usize, cells.len() * 2);
    }

    #[test]
    fn perturbing_one_cell_beyond_the_bound_is_caught(
        rows in prop::collection::vec((finite(), label()), 1..30),
        pick in 0usize..1usize << 30,
        delta in 0.5f64..100.0,
    ) {
        let xs: Vec<f64> = rows.iter().map(|(x, _)| *x).collect();
        let labels: Vec<String> = rows.iter().map(|(_, l)| l.clone()).collect();
        let a = two_col_table(&xs, &labels);
        let mut ys = xs.clone();
        ys[pick % xs.len()] += delta;
        let b = two_col_table(&ys, &labels);
        let tight = DiffOracle::new("tight", DivergenceBound::MaxAbs(delta / 4.0));
        prop_assert!(tight.compare_tables(&a, &b).violation);
        let loose = DiffOracle::new("loose", DivergenceBound::MaxAbs(delta * 4.0));
        prop_assert!(!loose.compare_tables(&a, &b).violation);
    }
}

#[test]
fn zero_row_tables_compare_clean() {
    let a = two_col_table(&[], &[]);
    let b = two_col_table(&[], &[]);
    let oracle = DiffOracle::new("empty", DivergenceBound::BitIdentical);
    let r = oracle.compare_tables(&a, &b);
    assert!(!r.violation, "{}", r.detail);
    assert_eq!(r.cells, 0);
    assert_eq!(r.max_divergence, 0.0);
}
