//! The benchmark's own checks, at a size that runs in seconds:
//!
//! * every workload emits every listed metric with its unit, in both the
//!   untraced and the traced run, and its outputs check correct;
//! * a deliberately corrupted reply, round result or verdict fails the run;
//! * the counts of `control-daily` and `sim-faults` repeat exactly for a
//!   fixed seed.
//!
//! Run with `cargo test --release --manifest-path wallbench/Cargo.toml`
//! (the simulator and the clustering are slow in a debug build).

use std::sync::Mutex;
use std::time::Duration;

use wallbench::{Options, Report, Size, END_TO_END, PER_LAYER, WORKLOADS};

/// Runs are timed, so the tests take turns rather than share the CPU.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(seed: u64, trace: bool, corrupt: bool) -> Options {
    Options { seed, measure: Duration::from_secs(1), trace, size: Size::Tiny, corrupt }
}

fn run(workload: &str, opts: &Options) -> Report {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    wallbench::run(workload, opts).expect("known workload")
}

fn assert_complete(workload: &str, report: &Report, list: &[(&str, &str)]) {
    assert!(report.correct(), "{workload}: {:?}", report.failures);
    let names: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, list, "{workload} emits exactly the listed metrics, in order");
    let line = report.result_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains(", \"failed\": 0, \"metrics\": {"), "{line}");
}

/// Untraced: every end-to-end metric, all positive. Traced: every
/// per-layer metric. Corrupted: the run fails.
fn check_workload(workload: &str) -> Report {
    let plain = run(workload, &tiny(7, false, false));
    assert_complete(workload, &plain, END_TO_END);
    for m in &plain.metrics {
        assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
    }

    let traced = run(workload, &tiny(7, true, false));
    assert_complete(workload, &traced, PER_LAYER);

    let broken = run(workload, &tiny(7, false, true));
    assert!(!broken.correct(), "{workload}: a corrupted output must fail the run");
    assert!(broken.failed >= 1);
    traced
}

fn value(report: &Report, name: &str) -> f64 {
    report.get(name).unwrap_or_else(|| panic!("{name} reported"))
}

#[test]
fn order_echo() {
    let traced = check_workload("order-echo");
    assert!(value(&traced, "replica.msgs_in_per_op") > 0.0);
    assert_eq!(value(&traced, "osint.sync_ms"), 0.0, "echo bypasses the control plane");
}

#[test]
fn order_kvs() {
    let traced = check_workload("order-kvs");
    assert!(value(&traced, "service.execute_ns_per_op") > 0.0);
    assert!(value(&traced, "baseline.unreplicated_ops_per_s") > 0.0);
}

#[test]
fn control_daily_counts_repeat() {
    const COUNTS: &[&str] =
        &["osint.cves_ingested", "nlp.reclusters", "core.reconfigurations", "core.alarms", "nlp.k"];
    let first = check_workload("control-daily");
    let again = run("control-daily", &tiny(7, true, false));
    for name in COUNTS {
        assert_eq!(value(&first, name), value(&again, name), "{name} repeats for seed 7");
    }
    assert!(value(&first, "osint.cves_ingested") > 0.0);
    let bound = wallbench::control::CONSERVATION_BOUND;
    assert!(value(&first, "core.conservation_error").abs() <= bound);
    // A second seed draws a different world.
    let other = run("control-daily", &tiny(8, true, false));
    assert!(other.correct(), "{:?}", other.failures);
}

#[test]
fn sim_faults_counts_repeat() {
    let first = check_workload("sim-faults");
    let again = run("sim-faults", &tiny(7, true, false));
    for name in ["sim.commits_checked", "sim.deliveries"] {
        assert_eq!(value(&first, name), value(&again, name), "{name} repeats for seed 7");
        assert!(value(&first, name) > 0.0);
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(wallbench::run("order-nope", &tiny(1, false, false)).is_err());
    assert_eq!(WORKLOADS.len(), 4);
}
