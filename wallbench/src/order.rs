//! `order-echo` and `order-kvs`: closed-loop clients against a 4-replica
//! [`ThreadCluster`] on the threaded wall-clock runtime.
//!
//! Each client thread owns one [`ThreadClient`] and sends its next
//! operation only after the previous reply arrived. No network delay is
//! injected: latency is processor time plus scheduling. Operations start
//! after a warm-up; only operations started inside the measured window
//! count toward throughput and latency, but every reply is checked.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lazarus::apps::kvs::{KvsOp, KvsService};
use lazarus::apps::ycsb::{YcsbConfig, YcsbWorkload};
use lazarus::bft::obs::Instruments;
use lazarus::bft::runtime::{ThreadClient, ThreadCluster};
use lazarus::bft::service::{CounterService, Service};
use lazarus::bft::types::ClientId;
use lazarus_obs::{Obs, Profiler, Snapshot, WallClock};

use crate::report::{mean, median, quantile, ratio, sorted, Report};
use crate::{Options, Size};

/// Which ordered workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 32 B echo payloads on [`CounterService`].
    Echo,
    /// YCSB 50/50 on a preloaded [`KvsService`].
    Kvs,
}

/// Closed-loop client threads (one [`ThreadClient`] each).
pub const CLIENTS: u64 = 2;
/// Replicas in the cluster (`n = 3f + 1`, `f = 1`).
const REPLICAS: u32 = 4;
/// Echo payload size.
const ECHO_BYTES: usize = 32;
/// Value every preloaded key holds, and every PUT writes.
const VALUE_BYTE: u8 = 0xAB;
/// Operations pre-generated per client; clients cycle through them.
const RING: usize = 4096;
/// How long one invocation may take before it counts as failed.
const INVOKE_TIMEOUT: Duration = Duration::from_secs(10);
/// Inbox-depth sampling period of the traced run.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

struct Params {
    keys: u64,
    value_bytes: usize,
    checkpoint_period: u64,
    /// Clusters started (and their set-up timed) in an untraced run.
    setups: usize,
    /// How many of those are measured: every `setups / measured`-th, so
    /// the timed set-ups are spread over the run.
    measured: usize,
    warmup: Duration,
}

fn params(kind: Kind, size: Size) -> Params {
    let full = size == Size::Full;
    match kind {
        Kind::Echo => Params {
            keys: 0,
            value_bytes: ECHO_BYTES,
            // The replica default.
            checkpoint_period: 1000,
            setups: if full { 24 } else { 2 },
            measured: if full { 4 } else { 1 },
            warmup: Duration::from_millis(if full { 500 } else { 100 }),
        },
        Kind::Kvs => Params {
            keys: if full { 10_000 } else { 200 },
            value_bytes: 1024,
            checkpoint_period: if full { 1000 } else { 50 },
            setups: if full { 5 } else { 2 },
            measured: if full { 5 } else { 1 },
            warmup: Duration::from_millis(if full { 500 } else { 100 }),
        },
    }
}

/// Per-client operation rings, generated from the seed.
fn inputs(kind: Kind, p: &Params, seed: u64) -> Vec<Vec<Bytes>> {
    (0..CLIENTS)
        .map(|c| match kind {
            Kind::Echo => {
                let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (c + 1);
                (0..RING)
                    .map(|_| {
                        Bytes::from(
                            (0..ECHO_BYTES)
                                .map(|_| {
                                    x ^= x << 13;
                                    x ^= x >> 7;
                                    x ^= x << 17;
                                    x as u8
                                })
                                .collect::<Vec<u8>>(),
                        )
                    })
                    .collect()
            }
            Kind::Kvs => {
                let cfg = YcsbConfig {
                    read_ratio: 0.5,
                    keys: p.keys,
                    value_size: p.value_bytes,
                    zipf_theta: 0.99,
                };
                let mut w = YcsbWorkload::new(cfg, seed.wrapping_mul(1000).wrapping_add(c));
                (0..RING).map(|_| w.next_op()).collect()
            }
        })
        .collect()
}

/// The reply every operation must get: the payload itself (echo), the
/// preloaded value (GET) or `OK:replaced` (PUT on a preloaded key).
fn reply_ok(kind: Kind, value_bytes: usize, op: &[u8], reply: &[u8]) -> bool {
    match kind {
        Kind::Echo => reply == op,
        Kind::Kvs => match KvsOp::decode(op) {
            Some(KvsOp::Get { .. }) => {
                reply.len() == value_bytes && reply.iter().all(|&b| b == VALUE_BYTE)
            }
            Some(KvsOp::Put { .. }) => reply == b"OK:replaced",
            _ => false,
        },
    }
}

/// The service every replica starts from: a counter, or a KVS with every
/// key preloaded.
fn template(kind: Kind, p: &Params) -> Template {
    match kind {
        Kind::Echo => Template::Echo(CounterService::new()),
        Kind::Kvs => {
            let mut kvs = KvsService::new();
            for key in 0..p.keys {
                let put = KvsOp::Put {
                    key: key.to_be_bytes().to_vec(),
                    value: vec![VALUE_BYTE; p.value_bytes],
                };
                kvs.execute(ClientId(0), &put.encode());
            }
            Template::Kvs(kvs)
        }
    }
}

#[derive(Clone)]
enum Template {
    Echo(CounterService),
    Kvs(KvsService),
}

impl Template {
    fn boxed(&self) -> Box<dyn Service> {
        match self {
            Template::Echo(s) => Box::new(s.clone()),
            Template::Kvs(s) => Box::new(s.clone()),
        }
    }
}

/// Wall time and volume of the calls a replica makes into its service
/// (the traced run wraps every replica's service in one of these).
#[derive(Debug, Default)]
struct ServiceTimes {
    execute_ns: AtomicU64,
    snapshot_ns: AtomicU64,
    snapshots: AtomicU64,
    snapshot_bytes: AtomicU64,
}

impl ServiceTimes {
    fn read(&self) -> [u64; 4] {
        [
            self.execute_ns.load(Ordering::Relaxed),
            self.snapshot_ns.load(Ordering::Relaxed),
            self.snapshots.load(Ordering::Relaxed),
            self.snapshot_bytes.load(Ordering::Relaxed),
        ]
    }
}

struct TimedService {
    inner: Box<dyn Service>,
    times: Arc<ServiceTimes>,
}

impl Service for TimedService {
    fn execute(&mut self, client: ClientId, payload: &[u8]) -> Bytes {
        let t = Instant::now();
        let out = self.inner.execute(client, payload);
        self.times.execute_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> Bytes {
        let t = Instant::now();
        let out = self.inner.snapshot();
        self.times.snapshot_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.times.snapshots.fetch_add(1, Ordering::Relaxed);
        self.times.snapshot_bytes.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn install(&mut self, snapshot: &[u8]) {
        self.inner.install(snapshot);
    }

    fn state_size(&self) -> usize {
        self.inner.state_size()
    }
}

/// The instruments of a traced cluster.
struct Traced {
    obs: Obs,
    profiler: Profiler,
    service: Arc<ServiceTimes>,
}

/// Starts a cluster (building every replica's state from scratch) and
/// waits until each client has completed one operation, whose reply is
/// checked into `report`. Returns the cluster, its clients and the set-up
/// time.
fn setup(
    kind: Kind,
    p: &Params,
    rings: &[Vec<Bytes>],
    traced: Option<&Traced>,
    report: &mut Report,
) -> (ThreadCluster, Vec<ThreadClient>, f64) {
    let t = Instant::now();
    let base = template(kind, p);
    let cluster = match traced {
        None => ThreadCluster::start(REPLICAS, p.checkpoint_period, || base.boxed()),
        Some(tr) => ThreadCluster::start_instrumented(
            REPLICAS,
            p.checkpoint_period,
            || TimedService { inner: base.boxed(), times: Arc::clone(&tr.service) },
            Instruments::new().with_obs(tr.obs.clone()).with_profiler(tr.profiler.clone()),
        ),
    };
    let mut clients: Vec<ThreadClient> = (1..=CLIENTS).map(|id| cluster.client(id)).collect();
    let mut ready = Vec::new();
    for (client, ring) in clients.iter_mut().zip(rings) {
        ready.push(client.invoke(ring[0].clone(), INVOKE_TIMEOUT));
    }
    let secs = t.elapsed().as_secs_f64();
    for (c, (reply, ring)) in ready.into_iter().zip(rings).enumerate() {
        let ok = reply.is_ok_and(|r| reply_ok(kind, p.value_bytes, &ring[0], &r));
        report.check(ok, || format!("client {c}: wrong or missing first reply"));
    }
    (cluster, clients, secs)
}

/// What the closed loop measured.
struct Phase {
    ops: u64,
    window: Duration,
    /// Latencies (µs) of the operations started in the window, sorted.
    latencies: Vec<f64>,
    before: Option<Probe>,
    after: Option<Probe>,
    inbox_depths: Vec<f64>,
}

/// Instrument readings at one instant.
struct Probe {
    registry: Snapshot,
    frames: BTreeMap<String, u64>,
    service: [u64; 4],
}

fn probe(tr: &Traced) -> Probe {
    Probe {
        registry: tr.obs.registry.snapshot(),
        frames: tr.profiler.snapshot().frames.into_iter().map(|(k, f)| (k, f.wall_ns)).collect(),
        service: tr.service.read(),
    }
}

/// Drives the closed loop: warm-up, then the measured window. Every
/// reply is checked into `report`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    kind: Kind,
    p: &Params,
    clients: &mut [ThreadClient],
    rings: &[Vec<Bytes>],
    measure: Duration,
    corrupt: bool,
    traced: Option<&Traced>,
    report: &mut Report,
) -> Phase {
    let start = Instant::now() + p.warmup;
    let end = start + measure;
    let (results, probes) = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(rings)
            .enumerate()
            .map(|(c, (client, ring))| {
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    let (mut attempted, mut failed, mut reasons) = (0u64, 0u64, Vec::new());
                    let mut i = 1usize;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let op = &ring[i % ring.len()];
                        i += 1;
                        let result = client.invoke(op.clone(), INVOKE_TIMEOUT);
                        let lat = now.elapsed();
                        let measured = now >= start;
                        if measured {
                            latencies.push(lat.as_nanos() as f64 / 1000.0);
                        }
                        let ok = match result {
                            Ok(mut reply) => {
                                if corrupt && c == 0 && measured && latencies.len() == 1 {
                                    let mut bytes = reply.to_vec();
                                    bytes[0] ^= 0xFF;
                                    reply = Bytes::from(bytes);
                                }
                                reply_ok(kind, p.value_bytes, op, &reply)
                            }
                            Err(_) => false,
                        };
                        attempted += 1;
                        if !ok {
                            failed += 1;
                            reasons.push(format!("client {c} op {i}: wrong or missing reply"));
                        }
                    }
                    (latencies, attempted, failed, reasons)
                })
            })
            .collect();
        let sampler = traced.map(|tr| {
            s.spawn(move || {
                std::thread::sleep(start.saturating_duration_since(Instant::now()));
                let before = probe(tr);
                let gauges: Vec<_> = (0..REPLICAS)
                    .map(|r| {
                        tr.obs
                            .registry
                            .gauge_with("lazarus_queue_inbox_depth", &[("replica", &r.to_string())])
                    })
                    .collect();
                let mut depths = Vec::new();
                while Instant::now() < end {
                    // The runtime's channel counts a message in after the
                    // send, so a reader that wins the race drives the
                    // depth below zero and the gauge reads ~2^64; such a
                    // reading is an empty inbox.
                    depths.extend(gauges.iter().map(|g| g.get()).map(|d| {
                        if d > i64::MAX as f64 {
                            0.0
                        } else {
                            d
                        }
                    }));
                    std::thread::sleep(SAMPLE_EVERY);
                }
                (before, probe(tr), depths)
            })
        });
        let results: Vec<_> =
            workers.into_iter().map(|w| w.join().expect("client thread")).collect();
        let probes = sampler.map(|h| h.join().expect("sampler thread"));
        (results, probes)
    });
    let mut latencies = Vec::new();
    for (lat, attempted, failed, reasons) in results {
        latencies.extend(lat);
        report.tally(attempted, failed, reasons);
    }
    let (before, after, inbox_depths) = match probes {
        Some((b, a, d)) => (Some(b), Some(a), d),
        None => (None, None, Vec::new()),
    };
    Phase {
        ops: latencies.len() as u64,
        window: measure,
        latencies: sorted(latencies),
        before,
        after,
        inbox_depths,
    }
}

impl Phase {
    fn latency(&self, q: f64) -> f64 {
        quantile(&self.latencies, q)
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.window.as_secs_f64()
    }
}

/// A per-cluster statistic over the measured clusters: the mean of its
/// values without the lowest and the highest. A cluster that drifts into
/// a slow regime (fault-free view changes, state transfer) or meets a
/// burst of interference from outside the benchmark is dropped; averaging
/// the rest keeps the result fine-grained where one cluster's value is
/// coarse (the KVS completes operations in bursts between checkpoint
/// stalls, so its count over a few seconds moves in steps of a checkpoint
/// period).
fn across(phases: &[Phase], stat: impl Fn(&Phase) -> f64) -> f64 {
    let values = sorted(phases.iter().map(stat).collect());
    let kept = if values.len() > 2 { &values[1..values.len() - 1] } else { &values[..] };
    mean(kept)
}

/// Runs one ordered workload.
pub fn run(kind: Kind, opts: &Options, report: &mut Report) {
    let p = params(kind, opts.size);
    let rings = inputs(kind, &p, opts.seed);
    report.shape("replicas", REPLICAS);
    report.shape("client_threads", CLIENTS);
    report.shape("load", "closed loop, one outstanding op per client");
    report.shape("injected_delay", "none");
    report.shape("checkpoint_period", p.checkpoint_period);
    report.shape("warmup_s", p.warmup.as_secs_f64());
    match kind {
        Kind::Echo => report.shape("payload_bytes", ECHO_BYTES),
        Kind::Kvs => {
            report.shape("payload_bytes", format!("GET 13, PUT {}", 17 + p.value_bytes));
            report.shape("keys", p.keys);
            report.shape("value_bytes", p.value_bytes);
            report.shape("state_mib", (p.keys as usize * (8 + p.value_bytes)) as f64 / MIB);
            report.shape("mix", "YCSB 50/50, Zipf 0.99");
        }
    }
    report.shape("latency_tail", if kind == Kind::Kvs { "p99.9" } else { "p90" });

    // Untraced: several clusters are started and their set-up timed
    // (median reported); every `setups / measured`-th runs an equal share
    // of the window on its own.
    let share = opts.phase() / p.measured as u32;
    let mut setups = Vec::new();
    let mut plain = Vec::new();
    for i in 0..p.setups {
        let (cluster, mut clients, secs) = setup(kind, &p, &rings, None, report);
        setups.push(secs);
        if (i + 1) % (p.setups / p.measured) == 0 {
            let corrupt = opts.corrupt && plain.is_empty();
            plain.push(closed_loop(kind, &p, &mut clients, &rings, share, corrupt, None, report));
        }
        drop(clients);
        cluster.shutdown();
    }

    if !opts.trace {
        report.metric("setup_s", median(&setups));
        report.metric("throughput_per_s", across(&plain, Phase::ops_per_s));
        report.metric("latency_p50_us", across(&plain, |ph| ph.latency(0.5)));
        // The KVS tail is the checkpoint stall: p99.9 over every measured
        // operation. Echo's p99 moves by 2x with the host's CPU steal on a
        // shared 2-vCPU machine, so its bounded tail is p90; the traced
        // run reports p99.
        let tail = match kind {
            Kind::Kvs => quantile(
                &sorted(plain.iter().flat_map(|ph| ph.latencies.iter().copied()).collect()),
                0.999,
            ),
            Kind::Echo => across(&plain, |ph| ph.latency(0.9)),
        };
        report.metric("latency_tail_us", tail);
        return;
    }

    let tr = Traced {
        obs: Obs::new(Arc::new(WallClock::new())),
        profiler: Profiler::new(Arc::new(WallClock::new())),
        service: Arc::new(ServiceTimes::default()),
    };
    let (cluster, mut clients, _) = setup(kind, &p, &rings, Some(&tr), report);
    let traced =
        closed_loop(kind, &p, &mut clients, &rings, opts.phase(), false, Some(&tr), report);
    drop(clients);
    cluster.shutdown();

    report.metric("order.latency_p99_us", across(&plain, |ph| ph.latency(0.99)));
    report.metric(
        "obs.trace_overhead",
        ratio(across(&plain, Phase::ops_per_s), traced.ops_per_s()) - 1.0,
    );
    per_layer(&traced, report);
    report.metric("baseline.unreplicated_ops_per_s", unreplicated(kind, &p, &rings));
}

const MIB: f64 = 1024.0 * 1024.0;

/// Derives the per-layer metrics from the instrument readings taken at the
/// start and end of the traced window. Costs are summed over the four
/// replicas and divided by the operations completed in the window.
fn per_layer(phase: &Phase, report: &mut Report) {
    let (Some(before), Some(after)) = (&phase.before, &phase.after) else { return };
    let ops = phase.ops as f64;
    let window_ns = phase.window.as_nanos() as f64;

    let frame = |pred: &dyn Fn(&str) -> bool| -> f64 {
        after
            .frames
            .iter()
            .filter(|(path, _)| pred(path))
            .map(|(path, &ns)| ns.saturating_sub(before.frames.get(path).copied().unwrap_or(0)))
            .sum::<u64>() as f64
    };
    // Frames are `replica_<id>;on_message;<KIND>[;phase]`; self-times of a
    // root and its children sum to the root's inclusive time.
    let handler = |kind: &str| frame(&|path| path.split(';').nth(2) == Some(kind)) / ops.max(1.0);
    report.metric("runtime.busy_share", frame(&|_| true) / (window_ns * f64::from(REPLICAS)));
    report.metric(
        "runtime.inbox_depth_p99",
        quantile(&sorted(phase.inbox_depths.clone()), 0.99).max(0.0),
    );
    report.metric("replica.request_ns_per_op", handler("REQUEST"));
    report.metric("replica.propose_ns_per_op", handler("PROPOSE"));
    report.metric("replica.write_ns_per_op", handler("WRITE"));
    report.metric("replica.accept_ns_per_op", handler("ACCEPT"));
    report.metric("replica.checkpoint_ns_per_op", handler("CHECKPOINT"));

    let [exec0, snap_ns0, snaps0, snap_bytes0] = before.service;
    let [exec1, snap_ns1, snaps1, snap_bytes1] = after.service;
    let execute_phase = frame(&|path| path.ends_with(";execute"));
    let service_exec = (exec1 - exec0) as f64;
    report.metric("service.execute_ns_per_op", ratio(service_exec, ops));
    report.metric("replica.reply_auth_ns_per_op", ratio(execute_phase - service_exec, ops));
    let snaps = (snaps1 - snaps0) as f64;
    report.metric("service.snapshot_ms", ratio((snap_ns1 - snap_ns0) as f64 / 1e6, snaps));
    report.metric("service.snapshot_mib", ratio((snap_bytes1 - snap_bytes0) as f64 / MIB, snaps));

    let counter = |family: &str| -> f64 {
        let sum = |snap: &Snapshot| -> u64 {
            snap.counters
                .iter()
                .filter(|(name, _)| {
                    name == family || name.strip_prefix(family).is_some_and(|r| r.starts_with('{'))
                })
                .map(|(_, v)| *v)
                .sum()
        };
        (sum(&after.registry) - sum(&before.registry)) as f64
    };
    report.metric("replica.msgs_in_per_op", ratio(counter("bft_messages_in_total"), ops));
    report.metric("replica.wire_bytes_per_op", ratio(counter("bft_wire_bytes_total"), ops));
    report.metric("replica.help_revotes_per_op", ratio(counter("bft_help_revotes_total"), ops));
    report.metric("replica.rejected_per_op", ratio(counter("bft_rejected_messages_total"), ops));
    report.metric(
        "consensus.ops_per_batch",
        ratio(counter("bft_requests_executed_total"), counter("bft_slots_decided_total")),
    );
    report.metric("consensus.view_changes", counter("bft_view_changes_total"));
    report.metric("consensus.state_transfers", counter("bft_state_transfers_total"));
    report.metric("consensus.commit_mean_us", commit_mean(&before.registry, &after.registry));
}

/// Mean of the commit-latency histogram over the window (its median is
/// only known to a power of two, which reads the same on every run).
fn commit_mean(before: &Snapshot, after: &Snapshot) -> f64 {
    let totals = |snap: &Snapshot| {
        snap.histograms
            .iter()
            .find(|(n, _)| n == "bft_commit_latency_us")
            .map_or((0, 0), |(_, h)| (h.sum, h.count))
    };
    let ((sum0, n0), (sum1, n1)) = (totals(before), totals(after));
    ratio((sum1 - sum0) as f64, (n1 - n0) as f64)
}

/// The single-node baseline: the same operation stream executed directly
/// on one bare service, no replication.
fn unreplicated(kind: Kind, p: &Params, rings: &[Vec<Bytes>]) -> f64 {
    let mut service = template(kind, p).boxed();
    let stream: Vec<&Bytes> = rings.iter().flatten().collect();
    let budget = Duration::from_millis(300);
    let t = Instant::now();
    let mut ops = 0usize;
    while t.elapsed() < budget {
        for op in &stream {
            std::hint::black_box(service.execute(ClientId(1), std::hint::black_box(op)));
        }
        ops += stream.len();
    }
    ops as f64 / t.elapsed().as_secs_f64()
}
