//! `sim-faults`: the discrete-event simulator running nemesis fault plans.
//!
//! Each scenario run builds a 4-replica bare-metal cluster with 8 closed-
//! loop clients and the invariant checker installed, applies the named
//! fault plan, and simulates the 3 s nemesis horizon, timing the run. A
//! pass runs every scenario once; pass `i` draws its fault plans from seed
//! `seed + i`, and passes repeat on [`WORKERS`] threads in parallel until
//! the measured time is used (every worker completes its first pass). Each
//! scenario's runs are reduced to their median wall time, so one run
//! slowed from outside does not move the result.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lazarus::bft::service::CounterService;
use lazarus::bft::types::{Epoch, Membership, ReplicaId};
use lazarus::testbed::cluster::{SimCluster, SimConfig};
use lazarus::testbed::faults::InvariantChecker;
use lazarus::testbed::nemesis::{fault_plan, HORIZON, LIVENESS_FROM};
use lazarus::testbed::oscatalog::PerfProfile;
use lazarus::testbed::sim::SEC;
use lazarus_obs::Profiler;

use crate::report::{mean, mean_of, median, ratio, Report};
use crate::{on_workers, Options, WORKERS};

/// The nemesis scenarios this workload runs, in pass order.
/// `lossy` is left out: it breaks the program's agreement and liveness at
/// some plan seeds (see `README.md`), and a benchmark run must not fail on
/// a known defect of the program. `partition` takes its place as the
/// link-fault plan.
pub const SCENARIOS: &[&str] = &["partition", "leader-crash", "mute"];
/// Replicas per run.
const REPLICAS: u32 = 4;
/// Closed-loop simulated clients per run.
const CLIENTS: usize = 8;
/// Cluster builds per scenario run (the last one runs).
const BUILDS: usize = 5;

/// Builds one scenario's cluster exactly as the nemesis harness does.
fn build(scenario: &str, seed: u64, profiler: Option<&Profiler>) -> SimCluster {
    let membership = Membership::new(Epoch(0), (0..REPLICAS).map(ReplicaId).collect());
    let mut sim = match profiler {
        None => SimCluster::new(SimConfig::default()),
        Some(profiler) => {
            let mut sim = SimCluster::new_observed(SimConfig::default());
            sim.attach_profiler(profiler.clone(), scenario);
            sim
        }
    };
    sim.install_checker(InvariantChecker::new());
    for r in 0..REPLICAS {
        sim.add_node(
            ReplicaId(r),
            PerfProfile::bare_metal(),
            membership.clone(),
            Box::new(CounterService::new()),
        );
    }
    sim.install_faults(fault_plan(scenario, seed));
    sim.add_clients(1, CLIENTS, membership, |_| Bytes::new());
    sim
}

/// Samples of one phase (untraced or traced).
#[derive(Default)]
struct Phase {
    setups: Vec<f64>,
    /// Wall seconds of each run, per scenario (in [`SCENARIOS`] order).
    runs: Vec<Vec<f64>>,
    deliveries: u64,
    /// Commits checked and deliveries of pass 0.
    first_pass: Option<[u64; 2]>,
}

impl Phase {
    /// Median wall seconds of one run, per scenario.
    fn medians(&self) -> Vec<f64> {
        self.runs.iter().map(|r| median(r)).collect()
    }

    /// Virtual seconds simulated per wall second, over one median run of
    /// every scenario.
    fn virtual_s_per_s(&self) -> f64 {
        let horizon = HORIZON as f64 / SEC as f64;
        ratio(horizon * SCENARIOS.len() as f64, self.medians().iter().sum())
    }

    fn wall_s(&self) -> f64 {
        self.runs.iter().flatten().sum()
    }
}

/// Counter total over every labelled series of `family`.
fn counter_sum(sim: &SimCluster, family: &str) -> u64 {
    sim.obs().map_or(0, |obs| {
        obs.registry
            .snapshot()
            .counters
            .iter()
            .filter(|(name, _)| name.strip_prefix(family).is_some_and(|r| r.starts_with('{')))
            .map(|(_, v)| *v)
            .sum()
    })
}

/// Runs passes on every worker until `budget` is used (at least one whole
/// pass per worker): worker `j` runs passes `j`, `j + WORKERS`, … Returns
/// each worker's samples.
fn phase(opts: &Options, budget: Duration, traced: bool, report: &mut Report) -> Vec<Phase> {
    let profiler = traced.then(Profiler::unclocked);
    on_workers(report, |j, report| worker(opts, budget, profiler.as_ref(), j, report))
}

/// One worker's passes. Its `first_pass` counts are those of pass 0
/// (worker 0's first pass).
fn worker(
    opts: &Options,
    budget: Duration,
    profiler: Option<&Profiler>,
    j: u64,
    report: &mut Report,
) -> Phase {
    let mut out = Phase { runs: vec![Vec::new(); SCENARIOS.len()], ..Phase::default() };
    let begin = Instant::now();
    let (mut commits, mut deliveries) = (0u64, 0u64);
    let mut pass = j;
    loop {
        let seed = opts.seed.wrapping_add(pass);
        for (i, scenario) in SCENARIOS.iter().enumerate() {
            // Set-up is short; building several times steadies its median.
            let mut sim = None;
            for _ in 0..BUILDS {
                let t = Instant::now();
                sim = Some(build(scenario, seed, profiler));
                out.setups.push(t.elapsed().as_secs_f64());
            }
            let mut sim = sim.expect("built at least once");
            let t = Instant::now();
            sim.run_until(HORIZON);
            out.runs[i].push(t.elapsed().as_secs_f64());

            let window_s = (HORIZON - LIVENESS_FROM) as f64 / SEC as f64;
            let after_heal =
                (sim.metrics.throughput(LIVENESS_FROM, HORIZON) * window_s).round() as usize;
            let delivered = counter_sum(&sim, "bft_messages_in_total");
            out.deliveries += delivered;
            let checker = sim.checker_mut().expect("installed by build");
            checker.assert_liveness(after_heal);
            let mut ok = checker.ok();
            if opts.corrupt && j == 0 && report.attempted == 0 {
                ok = !ok;
            }
            let violations: Vec<String> =
                checker.violations().iter().take(2).map(ToString::to_string).collect();
            report.check(ok, || format!("{scenario} seed {seed}: {violations:?}"));
            if pass == 0 {
                commits += checker.commits_checked();
                deliveries += delivered;
            }
            if pass > j && begin.elapsed() >= budget {
                return out;
            }
        }
        if pass == 0 {
            out.first_pass = Some([commits, deliveries]);
        }
        if begin.elapsed() >= budget {
            return out;
        }
        pass += WORKERS;
    }
}

/// Runs the simulator workload.
pub fn run(opts: &Options, report: &mut Report) {
    report.shape("scenarios", SCENARIOS.join(","));
    report.shape("replicas", REPLICAS);
    report.shape("sim_clients", format!("{CLIENTS}, closed loop"));
    report.shape("horizon_virtual_s", HORIZON as f64 / SEC as f64);
    report
        .shape("workers", format!("{WORKERS} threads, worker j runs passes j, j + {WORKERS}, ..."));
    report.shape("plan_seeds", "pass i uses seed + i");
    report.shape("latency", "wall time of one run: mean over scenarios of the median run");
    report.shape("latency_tail", "median run of the slowest scenario");

    // Each statistic is taken per worker and averaged over the workers: the
    // workers' CPUs can run at different speeds, and a median of the pooled
    // runs would fall in the gap between them.
    let plain = phase(opts, opts.phase(), false, report);
    let speed = |phase: &[Phase]| mean_of(phase, Phase::virtual_s_per_s);
    if !opts.trace {
        report.shape("runs", plain.iter().map(|w| w.setups.len()).sum::<usize>() / BUILDS);
        report.metric("setup_s", mean_of(&plain, |w| median(&w.setups)));
        report.metric("throughput_per_s", speed(&plain));
        report.metric("latency_p50_us", mean_of(&plain, |w| mean(&w.medians())) * 1e6);
        let slowest = |w: &Phase| w.medians().into_iter().fold(0.0, f64::max);
        report.metric("latency_tail_us", mean_of(&plain, slowest) * 1e6);
        return;
    }
    let traced = phase(opts, opts.phase(), true, report);
    report.metric("obs.trace_overhead", speed(&plain) / speed(&traced) - 1.0);
    let [commits, deliveries] = traced[0].first_pass.unwrap_or_default();
    report.metric("sim.commits_checked", commits as f64);
    report.metric("sim.deliveries", deliveries as f64);
    let wall_ns: f64 = traced.iter().map(Phase::wall_s).sum::<f64>() * 1e9;
    let delivered: u64 = traced.iter().map(|w| w.deliveries).sum();
    report.metric("sim.wall_ns_per_delivery", ratio(wall_ns, delivered as f64));
}
