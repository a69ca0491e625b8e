//! End-to-end tests of the `rainshine` command line: each subcommand runs
//! and writes its artifacts, bad input exits 1 with a message instead of a
//! panic, and `--help` exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rainshine(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rainshine")).args(args).output().expect("spawn rainshine")
}

/// A fresh scratch directory for one test, as a UTF-8 path string.
fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("rainshine-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.to_str().expect("UTF-8 temp dir").to_owned()
}

fn smoke_scenario() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.json").to_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[track_caller]
fn assert_exit(output: &Output, code: i32) {
    assert_eq!(output.status.code(), Some(code), "stderr: {}", stderr(output));
    assert!(!stderr(output).contains("panicked"), "stderr: {}", stderr(output));
}

#[test]
fn simulate_writes_the_dataset() {
    let out = scratch("simulate");
    assert_exit(&rainshine(&["simulate", "--scale", "small", "--out", &out]), 0);
    for file in ["fleet.csv", "tickets.csv", "environment.csv", "manifest.json"] {
        assert!(PathBuf::from(&out).join(file).is_file(), "missing {file}");
    }
}

#[test]
fn experiments_write_csvs_and_report() {
    let out = scratch("experiments");
    let report = format!("{out}/r.json");
    let args = ["--scale", "small", "--only", "t1,t3", "--out", &out, "--report", &report];
    assert_exit(&rainshine(&[&["experiments"][..], &args].concat()), 0);
    for file in ["t1.csv", "t3.csv", "r.json"] {
        assert!(PathBuf::from(&out).join(file).is_file(), "missing {file}");
    }
    assert!(std::fs::read_to_string(&report).unwrap().ends_with("}\n"));
}

#[test]
fn conformance_smoke_passes() {
    let smoke = smoke_scenario();
    assert_exit(&rainshine(&["conformance", "--scenario", &smoke, "--seeds", "1"]), 0);
}

#[test]
fn out_of_range_corruption_is_an_error_not_a_panic() {
    let out = scratch("corrupt");
    assert_exit(
        &rainshine(&["simulate", "--scale", "small", "--corrupt", "0.9", "--out", &out]),
        1,
    );
    let spec = ["--corrupt-spec", "duplicate=nan", "--out", &out];
    assert_exit(&rainshine(&[&["experiments", "--scale", "small"][..], &spec].concat()), 1);
    assert!(std::fs::read_dir(&out).unwrap().next().is_none(), "nothing ran");
}

#[test]
fn overflowing_seed_sweep_is_an_error_not_a_panic() {
    let text = std::fs::read_to_string(smoke_scenario()).expect("read smoke.json");
    let text = text.replace("\"seed_base\": 5,", &format!("\"seed_base\": {},", u64::MAX));
    let path = format!("{}/max_seed.json", scratch("seed-overflow"));
    std::fs::write(&path, text).expect("write scenario");
    let output = rainshine(&["conformance", "--scenario", &path, "--seeds", "2"]);
    assert_exit(&output, 1);
    assert!(stderr(&output).contains("overflows"), "stderr: {}", stderr(&output));
}

#[test]
fn usage_errors_exit_1_and_help_exits_0() {
    let misuse: [&[&str]; 5] = [
        &["frobnicate"],
        &[],
        &["simulate", "--only", "t1"],
        &["conformance", "--scale", "small"],
        &["conformance"],
    ];
    for args in misuse {
        let output = rainshine(args);
        assert_exit(&output, 1);
        assert!(stderr(&output).contains("usage: rainshine"), "{args:?}: {}", stderr(&output));
    }
    // The differential oracles run as tests, not under `conformance`.
    let output = rainshine(&["conformance", "--scenario", &smoke_scenario(), "--skip-oracles"]);
    assert_exit(&output, 1);
    assert!(stderr(&output).contains("unknown flag `--skip-oracles`"), "{}", stderr(&output));
    for args in [&["--help"][..], &["experiments", "--help"], &["conformance", "-h"]] {
        let output = rainshine(args);
        assert_exit(&output, 0);
        assert!(String::from_utf8_lossy(&output.stdout).starts_with("usage: rainshine"));
    }
}
