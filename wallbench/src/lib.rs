//! Wall-clock benchmark of the Lazarus stack.
//!
//! Four workloads drive the public APIs of the workspace crates from the
//! outside and time them with [`std::time::Instant`]:
//!
//! * `order-echo` — the §7.1 microbenchmark on the threaded runtime;
//! * `order-kvs` — YCSB 50/50 over a preloaded KVS (§7.3);
//! * `control-daily` — the controller's daily OSINT → risk → plan loop;
//! * `sim-faults` — the discrete-event simulator under nemesis faults.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics
//! ([`END_TO_END`]). A traced run (`trace = true`) first repeats the
//! untraced measurement for half the time, then measures again with the
//! instrumentation the program already exposes switched on, and reports
//! the per-layer metrics ([`PER_LAYER`]) plus the tracing overhead.
//! See `README.md` next to this file for what each metric predicts.

pub mod control;
pub mod order;
pub mod report;
pub mod sim;

use std::time::Duration;

pub use report::{Metric, Report};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["order-echo", "order-kvs", "control-daily", "sim-faults"];

/// End-to-end metrics: every untraced run reports each of these, and none
/// of them can be zero on a run that completed work.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
];

/// Per-layer metrics: every traced run reports each of these. A layer the
/// workload does not exercise reports 0 (the workload bypasses it).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.busy_share", "ratio"),
    ("runtime.inbox_depth_p99", "count"),
    ("replica.request_ns_per_op", "ns"),
    ("replica.propose_ns_per_op", "ns"),
    ("replica.write_ns_per_op", "ns"),
    ("replica.accept_ns_per_op", "ns"),
    ("replica.checkpoint_ns_per_op", "ns"),
    ("replica.reply_auth_ns_per_op", "ns"),
    ("replica.msgs_in_per_op", "count"),
    ("replica.wire_bytes_per_op", "B"),
    ("replica.help_revotes_per_op", "count"),
    ("replica.rejected_per_op", "count"),
    ("consensus.ops_per_batch", "count"),
    ("consensus.commit_mean_us", "us"),
    ("consensus.view_changes", "count"),
    ("consensus.state_transfers", "count"),
    ("service.execute_ns_per_op", "ns"),
    ("service.snapshot_ms", "ms"),
    ("service.snapshot_mib", "MiB"),
    ("baseline.unreplicated_ops_per_s", "1/s"),
    ("order.latency_p99_us", "us"),
    ("osint.sync_ms", "ms"),
    ("osint.cves_ingested", "count"),
    ("nlp.recluster_ms", "ms"),
    ("nlp.reclusters", "count"),
    ("nlp.k", "count"),
    ("risk.oracle_build_ms", "ms"),
    ("risk.matrix_ms", "ms"),
    ("risk.min_config_ms", "ms"),
    ("risk.alarm_scan_ms", "ms"),
    ("core.round_ms", "ms"),
    ("core.residual_ms", "ms"),
    ("core.conservation_error", "ratio"),
    ("core.quiet_round_p50_ms", "ms"),
    ("core.reconfigurations", "count"),
    ("core.alarms", "count"),
    ("sim.deliveries", "count"),
    ("sim.commits_checked", "count"),
    ("sim.wall_ns_per_delivery", "ns"),
    ("obs.trace_overhead", "ratio"),
];

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// A few-second run for the benchmark's own tests.
    Tiny,
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time of the run.
    pub measure: Duration,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Corrupt one program output before it is checked (the benchmark's
    /// self-test uses this to prove the checks bite).
    pub corrupt: bool,
}

impl Options {
    /// Options for a full-size run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            seed,
            measure: Duration::from_secs_f64(seconds),
            trace,
            size: Size::Full,
            corrupt: false,
        }
    }

    /// In a traced run, each of the two phases (untraced, traced) gets half
    /// the measured time.
    pub fn phase(&self) -> Duration {
        if self.trace {
            self.measure / 2
        } else {
            self.measure
        }
    }
}

/// Threads the single-threaded workloads (`control-daily`, `sim-faults`)
/// run their passes on, in parallel: as many as the ordered workloads'
/// client threads. A lone thread runs at the speed of whichever CPU it
/// lands on, and on a shared VM one vCPU can run the same clustering 20 %
/// slower than the other for minutes; passes on both average that out.
pub const WORKERS: u64 = 2;

/// Runs `work(j, report)` for every worker `j` in `0..WORKERS` on its own
/// thread, merges each worker's checks into `report`, and returns the
/// workers' results in worker order.
fn on_workers<T: Send>(report: &mut Report, work: impl Fn(u64, &mut Report) -> T + Sync) -> Vec<T> {
    let done: Vec<(T, Report)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|j| {
                let work = &work;
                s.spawn(move || {
                    let mut mine = Report::default();
                    (work(j, &mut mine), mine)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
    });
    done.into_iter()
        .map(|(out, mine)| {
            report.tally(mine.attempted, mine.failed, mine.failures);
            out
        })
        .collect()
}

/// Runs one workload and returns its report with every metric of the
/// run's kind present, in list order.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(workload: &str, opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    report.shape("available_parallelism", cpus);
    match workload {
        "order-echo" => order::run(order::Kind::Echo, opts, &mut report),
        "order-kvs" => order::run(order::Kind::Kvs, opts, &mut report),
        "control-daily" => control::run(opts, &mut report),
        "sim-faults" => sim::run(opts, &mut report),
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
    if !opts.trace {
        report.metric("peak_rss_mb", report::peak_rss_mib());
    }
    Ok(normalize(report, opts.trace))
}

/// Keeps only the metrics of the run's kind, in list order. A per-layer
/// metric the workload did not set is 0 (its layer was bypassed); an
/// end-to-end metric that is missing, not finite or not positive, or a
/// per-layer one that is not finite, fails the run.
fn normalize(mut report: Report, trace: bool) -> Report {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match report.get(name) {
            None if trace => 0.0,
            value => value.unwrap_or(f64::NAN),
        };
        let ok = value.is_finite() && (trace || value > 0.0);
        if !ok {
            report.check(false, || format!("metric {name} not measured ({value})"));
        }
        metrics.push(Metric { name, value, unit });
    }
    report.metrics = metrics;
    report
}
