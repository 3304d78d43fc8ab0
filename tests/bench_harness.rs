//! Integration: the `rr bench` perf-regression harness end to end.
//!
//! One expensive happy-path flow (record a baseline, then check against
//! it) plus the two failure modes the harness exists to catch: a
//! cycle-exact invariant drift, and a wall-clock regression beyond the
//! tolerance. The failure cases doctor the baseline file instead of the
//! binary, so one suite execution serves all three checks.

use std::path::Path;
use std::process::Command;

use register_relocation::bench::BenchReport;

mod common;
use common::TempDir;

/// `rr` run with a temp dir as cwd: BENCH_<seq> sequence files land
/// wherever the process runs.
fn rr_in(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rr"));
    cmd.current_dir(dir);
    cmd
}

/// The quick suite with a single iteration — the cheapest real execution.
fn bench_args() -> [&'static str; 5] {
    ["bench", "--quick", "--iterations", "1", "--jobs"]
}

#[test]
fn bench_records_a_baseline_then_checks_clean_and_catches_regressions() {
    let dir = TempDir::new("flow");

    // 1. Record: writes BENCH_1.json with the full schema.
    let out = rr_in(dir.path()).args(bench_args()).arg("2").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let baseline_path = dir.join("BENCH_1.json");
    let baseline_json = std::fs::read_to_string(&baseline_path).expect("BENCH_1.json written");
    let baseline = BenchReport::from_json(&baseline_json).expect("schema round-trips");
    assert_eq!(baseline.suite, "quick");
    let names: Vec<&str> = baseline.cases.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "fig5_cold",
            "fig5_warm",
            "fig6_cold",
            "fig6_warm",
            "store_verify",
            "traced_point",
            "long_horizon"
        ]
    );
    let long = baseline.case("long_horizon").unwrap();
    let warm = baseline.case("fig5_warm").unwrap();
    let hit = |c: &register_relocation::bench::BenchCaseReport, n: &str| {
        c.invariants.iter().find(|i| i.name == n).map(|i| i.value)
    };
    assert_eq!(hit(warm, "points"), Some(18));
    assert_eq!(hit(warm, "cache_hits"), Some(18), "warm sweep serves every point");
    assert_eq!(hit(baseline.case("fig5_cold").unwrap(), "cache_hits"), Some(0));
    assert!(hit(baseline.case("store_verify").unwrap(), "records_ok").unwrap() >= 36);
    assert!(hit(baseline.case("traced_point").unwrap(), "fixed_events").unwrap() > 0);
    // The long-horizon case runs 10x the quick suite's per-thread work, so
    // its cycle counts dwarf the traced point's.
    assert!(
        hit(long, "fixed_cycles").unwrap()
            > 5 * hit(baseline.case("traced_point").unwrap(), "fixed_cycles").unwrap()
    );

    // 2. Check against the just-recorded baseline: cycle invariants are
    // deterministic, so with a generous wall tolerance this must pass and
    // must not write BENCH_2.json.
    let out = rr_in(dir.path())
        .args(bench_args())
        .args(["2", "--check", "--tolerance", "10"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("bench check ok"), "{stdout}");
    assert!(!dir.join("BENCH_2.json").exists(), "--check writes nothing");

    // 3. Injected cycle mismatch: a baseline whose invariants disagree
    // must fail the check even with an unlimited wall tolerance.
    let mut drifted = baseline.clone();
    for case in &mut drifted.cases {
        for inv in &mut case.invariants {
            if inv.name == "fixed_cycles" {
                inv.value += 1;
            }
        }
    }
    let drifted_path = dir.join("drifted.json");
    std::fs::write(&drifted_path, drifted.to_json_pretty().unwrap()).unwrap();
    let out = rr_in(dir.path())
        .args(bench_args())
        .args(["2", "--check", "--tolerance", "1000", "--baseline", "drifted.json"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "invariant drift must exit nonzero");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cycle-exact invariants changed"), "{err}");

    // 4. Wall regression beyond tolerance: a baseline claiming every case
    // took 1ns makes any real run an unbounded regression.
    let mut instant = baseline.clone();
    for case in &mut instant.cases {
        case.wall_nanos_median = 1;
        case.wall_nanos_min = 1;
    }
    let instant_path = dir.join("instant.json");
    std::fs::write(&instant_path, instant.to_json_pretty().unwrap()).unwrap();
    let out = rr_in(dir.path())
        .args(bench_args())
        .args(["2", "--check", "--tolerance", "0.5", "--baseline", "instant.json"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "wall regression must exit nonzero");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("wall regression"), "{err}");
}

/// Every failure that needs no simulation — missing baseline, bad config —
/// must exit nonzero in milliseconds, before the suite runs.
#[test]
fn bench_cheap_failures_exit_before_running_the_suite() {
    let dir = TempDir::new("cheap");
    // --help short-circuits before any work.
    let out = rr_in(dir.path()).args(["bench", "--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("perf-regression"));

    // --check with no BENCH_<seq>.json anywhere fails before simulating.
    let out = rr_in(dir.path()).args(["bench", "--quick", "--check"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no BENCH_"), "{err}");

    let out =
        rr_in(dir.path()).args(["bench", "--quick", "--iterations", "0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("at least one iteration"));

    let out =
        rr_in(dir.path()).args(["bench", "--quick", "--tolerance", "-1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("tolerance"));
}
