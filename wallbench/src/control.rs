//! `control-daily`: the controller's own loop (§5–6), one monitoring round
//! per simulated day.
//!
//! Inputs come from a [`SyntheticWorld`] generated from the seed. The
//! controller is bootstrapped on the knowledge base published before the
//! first day; each day, that day's CVEs are rendered as an NVD feed and
//! the benchmark times [`DataManager::sync_feeds`] followed by
//! [`Controller::monitor_round`]. A pass covers every day once; passes
//! repeat, each from a fresh bootstrap, on [`WORKERS`] threads in parallel
//! (one controller each) until the measured time is used.
//!
//! The traced run also times, each round, the public calls that
//! `monitor_round` makes, on a shadow [`RiskManager`] with the controller's
//! seed over the same knowledge base.

use std::time::{Duration, Instant};

use lazarus::core::controller::{Controller, ControllerConfig};
use lazarus::core::{DeploymentStep, RiskManager};
use lazarus::osint::catalog::{study_oses, OsVersion};
use lazarus::osint::datamgr::DataManager;
use lazarus::osint::date::Date;
use lazarus::osint::feed::{NvdFeed, NvdItem};
use lazarus::osint::kb::KnowledgeBase;
use lazarus::osint::synth::{SyntheticWorld, WorldConfig};
use lazarus::risk::oracle::RiskOracle;
use lazarus::risk::strategies::min_config_risk;
use lazarus::risk::MonitorOutcome;

use crate::report::{mean, mean_of, median, quantile, ratio, sorted, Report};
use crate::{on_workers, Options, Size, WORKERS};

/// The largest share of `core.round_ms` the untimed residual may take, or
/// that the timed parts may overshoot it by, before the conservation check
/// fails the traced run.
pub const CONSERVATION_BOUND: f64 = 0.15;

/// The day-by-day inputs of one pass.
struct Inputs {
    start: Date,
    /// Knowledge base published before `start`.
    kb: KnowledgeBase,
    /// One rendered NVD feed per day, with the number of CVEs in it.
    feeds: Vec<(Date, String, usize)>,
}

/// Generates the world for `seed` and cuts the run's inputs from it. The
/// start day is the day after the world's `kb_size`-th CVE was published,
/// and the window runs until `cve_days` days that publish at least one CVE
/// have passed, so every seed clusters a knowledge base of the same size
/// and makes the same number of decisions.
fn inputs(seed: u64, kb_size: usize, cve_days: usize) -> Inputs {
    let world = SyntheticWorld::generate(WorldConfig::paper_study(seed));
    let mut published: Vec<Date> = world.vulnerabilities.iter().map(|v| v.published).collect();
    published.sort();
    let last = *published.last().expect("the world publishes CVEs");
    let start = published[(kb_size - 1).min(published.len() - 1)] + 1;
    let kb = world.vulnerabilities.iter().filter(|v| v.published < start).cloned().collect();
    let mut feeds = Vec::new();
    let mut day = start;
    while feeds.iter().filter(|(_, _, n)| *n > 0).count() < cve_days && day <= last {
        let items: Vec<NvdItem> = world
            .vulnerabilities
            .iter()
            .filter(|v| v.published == day)
            .map(NvdItem::from_vulnerability)
            .collect();
        let n = items.len();
        feeds.push((day, NvdFeed::from_items(items).to_json(), n));
        day += 1;
    }
    Inputs { start, kb, feeds }
}

/// The inputs of pass `pass`: its world is that of seed
/// `seed * 1000 + pass`. Clustering cost depends on the corpus, so a run
/// averages over several worlds rather than one.
fn pass_inputs(seed: u64, pass: u64, size: Size) -> Inputs {
    let (kb_size, cve_days) = if size == Size::Full { (600, 25) } else { (150, 3) };
    inputs(seed.wrapping_mul(1000).wrapping_add(pass), kb_size, cve_days)
}

/// The checks `tests/control_loop.rs` makes after every round: the sets
/// form a partition, CONFIG has four members, the deployed set equals the
/// active set, and a plan adds before it removes.
fn round_ok(
    controller: &Controller,
    plan: &[DeploymentStep],
    active: &mut Vec<OsVersion>,
) -> Result<(), String> {
    let sets = controller.sets().ok_or("controller not bootstrapped")?;
    if !sets.is_partition() {
        return Err("CONFIG/POOL/QUARANTINE is not a partition".into());
    }
    if sets.config.len() != 4 {
        return Err(format!("CONFIG has {} members", sets.config.len()));
    }
    let mut deployed: Vec<OsVersion> = controller.deploy().active().iter().map(|d| d.os).collect();
    deployed.sort();
    active.sort();
    if deployed != *active {
        return Err("deployed set differs from the active set".into());
    }
    let add = plan.iter().position(|s| matches!(s, DeploymentStep::AddReplica { .. }));
    let rm = plan.iter().position(|s| matches!(s, DeploymentStep::RemoveReplica { .. }));
    if let (Some(a), Some(r)) = (add, rm) {
        if a > r {
            return Err("plan removes before it adds".into());
        }
    }
    Ok(())
}

/// Wall times of the parts of one round, measured on the shadow manager.
#[derive(Default)]
struct Parts {
    recluster: Option<f64>,
    clusters_ms: f64,
    oracle_build: f64,
    matrix: f64,
    min_config: f64,
    alarm_scan: f64,
}

impl Parts {
    fn sum(&self) -> f64 {
        self.clusters_ms + self.oracle_build + self.matrix + self.min_config + self.alarm_scan
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times the calls `monitor_round` makes into nlp and risk, on `shadow`.
fn shadow_parts(
    shadow: &mut RiskManager,
    last_len: &mut usize,
    data: &DataManager,
    universe: &[OsVersion],
    active: &[OsVersion],
    day: Date,
) -> Parts {
    data.read(|kb| {
        let mut parts = Parts::default();
        let t = Instant::now();
        let _ = shadow.clusters(kb);
        parts.clusters_ms = ms(t.elapsed());
        if kb.len() != *last_len {
            parts.recluster = Some(parts.clusters_ms);
            *last_len = kb.len();
        }
        // The clone `RiskManager::oracle` makes is not timed: it belongs to
        // the residual, like reconfiguration and deploy planning.
        let clusters = shadow.clusters(kb).clone();
        let t = Instant::now();
        let oracle = RiskOracle::build(kb, &clusters, universe, *shadow.params());
        parts.oracle_build = ms(t.elapsed());
        let t = Instant::now();
        let matrix = oracle.matrix(day);
        parts.matrix = ms(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(min_config_risk(&matrix, 4));
        parts.min_config = ms(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(shadow.scan_alarms(kb, active, day));
        parts.alarm_scan = ms(t.elapsed());
        parts
    })
}

/// Samples of one phase (untraced or traced).
#[derive(Default)]
struct Phase {
    setups: Vec<f64>,
    /// Feed sync to plan, rounds that ingested at least one CVE.
    decisions_ms: Vec<f64>,
    /// Feed sync to plan, rounds that ingested none.
    quiet_ms: Vec<f64>,
    sync_ms: Vec<f64>,
    round_ms: Vec<f64>,
    parts: Vec<Parts>,
    /// Counts of pass 0 (fixed inputs, so they repeat exactly).
    first_pass: Option<[u64; 5]>,
}

impl Phase {
    fn decision(&self, q: f64) -> f64 {
        quantile(&sorted(self.decisions_ms.clone()), q)
    }

    /// Rounds that ingested a CVE, per second of all rounds' time. (Quiet
    /// days differ in number between seeds but cost little, so counting
    /// them as rounds would make the rate depend on the seed.)
    fn decisions_per_s(&self) -> f64 {
        let secs =
            (self.decisions_ms.iter().sum::<f64>() + self.quiet_ms.iter().sum::<f64>()) / 1e3;
        ratio(self.decisions_ms.len() as f64, secs)
    }
}

/// Runs passes over their day windows on every worker until the phase's
/// time is used (at least one whole pass per worker): worker `j` runs
/// passes `j`, `j + WORKERS`, … With `traced`, the shadow manager times
/// each round's parts. Returns each worker's samples.
fn phase(opts: &Options, traced: bool, report: &mut Report) -> Vec<Phase> {
    on_workers(report, |j, report| worker(opts, traced, j, report))
}

/// One worker's passes. Its `first_pass` counts are those of pass `j`.
fn worker(opts: &Options, traced: bool, j: u64, report: &mut Report) -> Phase {
    let (budget, corrupt) = (opts.phase(), opts.corrupt && !traced && j == 0);
    let mut out = Phase::default();
    let begin = Instant::now();
    let universe = study_oses();
    'passes: for pass in (j..).step_by(WORKERS as usize) {
        let inp = pass_inputs(opts.seed, pass, opts.size);
        let cfg = ControllerConfig::new(universe.clone());
        let mut shadow = RiskManager::new(cfg.seed ^ 0xC1A5);
        let t = Instant::now();
        let mut controller = Controller::new(cfg, DataManager::new(inp.kb.clone()));
        controller.bootstrap(inp.start - 1);
        out.setups.push(t.elapsed().as_secs_f64());
        let mut last_len = 0;
        if traced {
            controller.data().read(|kb| {
                let _ = shadow.clusters(kb);
                last_len = kb.len();
            });
        }
        let (mut ingested, mut reclusters, mut reconfigs, mut alarms) = (0u64, 0u64, 0u64, 0u64);
        for (day, feed, _) in &inp.feeds {
            let t0 = Instant::now();
            let synced = controller.data().sync_feeds(std::slice::from_ref(feed));
            let sync = t0.elapsed();
            let retained = synced.as_ref().map_or(0, |s| s.retained);
            let mut active = controller.active_config();
            let parts = traced.then(|| {
                shadow_parts(
                    &mut shadow,
                    &mut last_len,
                    controller.data(),
                    &universe,
                    &active,
                    *day,
                )
            });
            let t1 = Instant::now();
            let round = controller.monitor_round(*day);
            let done = Instant::now();
            let decision = ms(done - t0);
            if retained > 0 {
                out.decisions_ms.push(decision);
            } else {
                out.quiet_ms.push(decision);
            }
            out.sync_ms.push(ms(sync));
            out.round_ms.push(ms(done - t1));
            ingested += retained as u64;
            reclusters += u64::from(parts.as_ref().is_some_and(|p| p.recluster.is_some()));
            reconfigs += u64::from(matches!(round.outcome, MonitorOutcome::Reconfigured { .. }));
            alarms += round.alarms.len() as u64;
            out.parts.extend(parts);

            active = controller.active_config();
            if corrupt && report.attempted == 0 {
                active.pop();
            }
            let checked = synced
                .map_err(|e| format!("feed sync failed: {e:?}"))
                .and_then(|_| round_ok(&controller, &round.plan, &mut active));
            report.check(checked.is_ok(), || format!("{day}: {}", checked.unwrap_err()));
            if out.first_pass.is_some() && begin.elapsed() >= budget {
                break 'passes;
            }
        }
        if out.first_pass.is_none() {
            let k = shadow.cached_cluster_count().unwrap_or(0) as u64;
            out.first_pass = Some([ingested, reclusters, reconfigs, alarms, k]);
        }
        if begin.elapsed() >= budget {
            break;
        }
    }
    out
}

/// Runs the control-loop workload.
pub fn run(opts: &Options, report: &mut Report) {
    let inp = pass_inputs(opts.seed, 0, opts.size);
    let cves: usize = inp.feeds.iter().map(|f| f.2).sum();
    report.shape("load", "one controller per worker, rounds back to back, one per simulated day");
    report
        .shape("workers", format!("{WORKERS} threads, worker j runs passes j, j + {WORKERS}, ..."));
    report.shape("worlds", "pass i: world of seed * 1000 + i; sizes below are pass 0's");
    report.shape("start_day", inp.start);
    report.shape("days", inp.feeds.len());
    report.shape("cve_days", inp.feeds.iter().filter(|f| f.2 > 0).count());
    report.shape("cves_in_window", cves);
    report.shape("kb_before_start", inp.kb.len());
    report.shape("universe_oses", study_oses().len());
    report.shape("latency", "feed sync to plan, rounds with >= 1 new CVE");
    report.shape("latency_tail", "p90");

    // Each statistic is taken per worker and averaged over the workers: the
    // workers' CPUs can run at different speeds, and a quantile of the
    // pooled samples would fall in the gap between them.
    let plain = phase(opts, false, report);
    if !opts.trace {
        report.metric("setup_s", mean_of(&plain, |w| median(&w.setups)));
        report.metric("throughput_per_s", mean_of(&plain, Phase::decisions_per_s));
        report.metric("latency_p50_us", mean_of(&plain, |w| w.decision(0.5)) * 1e3);
        report.metric("latency_tail_us", mean_of(&plain, |w| w.decision(0.9)) * 1e3);
        return;
    }

    let traced = phase(opts, true, report);
    let p50 = |phase: &[Phase]| mean_of(phase, |w| w.decision(0.5));
    report.metric("obs.trace_overhead", p50(&traced) / p50(&plain) - 1.0);
    report.metric("core.quiet_round_p50_ms", mean_of(&plain, |w| median(&w.quiet_ms)));

    let parts: Vec<&Parts> = traced.iter().flat_map(|w| &w.parts).collect();
    let each = |f: &dyn Fn(&Parts) -> f64| mean_of(&parts, |p| f(p));
    let reclusters: Vec<f64> = parts.iter().filter_map(|p| p.recluster).collect();
    let pooled = |f: &dyn Fn(&Phase) -> &Vec<f64>| {
        mean(&traced.iter().flat_map(f).copied().collect::<Vec<_>>())
    };
    report.metric("osint.sync_ms", pooled(&|w| &w.sync_ms));
    report.metric("nlp.recluster_ms", mean(&reclusters));
    report.metric("risk.oracle_build_ms", each(&|p| p.oracle_build));
    report.metric("risk.matrix_ms", each(&|p| p.matrix));
    report.metric("risk.min_config_ms", each(&|p| p.min_config));
    report.metric("risk.alarm_scan_ms", each(&|p| p.alarm_scan));
    let round = pooled(&|w| &w.round_ms);
    let residual = round - each(&|p| p.sum());
    report.metric("core.round_ms", round);
    report.metric("core.residual_ms", residual);
    let error = ratio(residual, round);
    report.metric("core.conservation_error", error);
    report.check(error.abs() <= CONSERVATION_BOUND, || {
        format!("timed parts miss core.round_ms by {error:.3} (bound {CONSERVATION_BOUND})")
    });

    let [ingested, reclusters, reconfigs, alarms, k] = traced[0].first_pass.unwrap_or_default();
    report.metric("osint.cves_ingested", ingested as f64);
    report.metric("nlp.reclusters", reclusters as f64);
    report.metric("core.reconfigurations", reconfigs as f64);
    report.metric("core.alarms", alarms as f64);
    report.metric("nlp.k", k as f64);
}
