//! `obs::health` — deterministic streaming health scores per replica.
//!
//! A [`HealthTracker`] folds the raw per-replica signals the rest of the
//! observability stack already produces (commit latencies, per-phase
//! critical-path time, rejected-message and help-revote rates, view-change
//! participation, CST activity, last-activity timestamps) into
//! ring-buffered [`RollingWindow`]s over the injected
//! [`Clock`](crate::Clock), and reduces them on demand into a versioned
//! [`ReplicaHealth`] score with explainable sub-scores. An online anomaly
//! detector runs at every [`HealthTracker::snapshot`] and raises
//! edge-triggered [`AnomalyKind`]s (leader stall, latency inflation,
//! silence) as `health.anomaly` trace events plus
//! `health_anomalies_total{kind=…}` counters; per-replica gauges land under
//! `lazarus_health_*`.
//!
//! Determinism contract: every timestamp comes from the injected clock and
//! every reduction is integer arithmetic over the recorded multiset, so a
//! fixed-seed simulation produces byte-identical snapshots at any
//! `LAZARUS_THREADS` setting. The streaming fold path is panic-free by
//! construction — no `unwrap()` (a CI grep gate holds this line): stale or
//! out-of-order timestamps are clamped, empty windows reduce to `None`
//! percentiles, and missing replicas are registered on first touch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::clock::Clock;
use crate::metrics::{bucket_index, rank_bound, HISTOGRAM_BUCKETS};
use crate::trace::FieldValue;
use crate::Obs;

/// Sub-score and composite score ceiling (scores are integer permille).
pub const SCORE_MAX: u32 = 1000;

/// The consensus phases whose critical-path share the tracker accounts.
pub const PHASES: [&str; 3] = ["propose", "write", "accept"];

/// One time bucket of a [`RollingWindow`]: a count/sum pair plus the same
/// log₂ histogram layout the metrics registry uses, so window percentiles
/// and registry percentiles agree bucket-for-bucket.
#[derive(Debug, Clone)]
struct WindowBucket {
    count: u64,
    sum: u64,
    hist: [u64; HISTOGRAM_BUCKETS],
}

impl WindowBucket {
    fn empty() -> WindowBucket {
        WindowBucket { count: 0, sum: 0, hist: [0; HISTOGRAM_BUCKETS] }
    }

    fn clear(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.hist = [0; HISTOGRAM_BUCKETS];
    }
}

/// A ring of time buckets over the injected clock: samples land in the
/// bucket owning their timestamp, buckets older than the window are evicted
/// lazily as time advances, and [`RollingWindow::fold`] reduces the ring to
/// one [`WindowStats`].
///
/// The fold/evict path never panics: time running backwards is clamped to
/// the current head bucket, and a jump farther than the whole window simply
/// clears every bucket.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    bucket_us: u64,
    buckets: Vec<WindowBucket>,
    /// Absolute index (`now / bucket_us`) of the bucket currently at head;
    /// `None` until the first sample or advance.
    head: Option<u64>,
}

impl RollingWindow {
    /// A window spanning `window_us`, bucketed at `bucket_us` granularity.
    /// Both are clamped to at least 1 µs; the ring holds at least one
    /// bucket.
    #[must_use]
    pub fn new(window_us: u64, bucket_us: u64) -> RollingWindow {
        let bucket_us = bucket_us.max(1);
        let len = (window_us.max(1) / bucket_us).max(1) as usize;
        RollingWindow { bucket_us, buckets: vec![WindowBucket::empty(); len], head: None }
    }

    /// The window span in microseconds.
    #[must_use]
    pub fn window_us(&self) -> u64 {
        self.bucket_us * self.buckets.len() as u64
    }

    /// Records `value` at `now_us`, evicting buckets that fell out of the
    /// window. Timestamps earlier than the current head are folded into the
    /// head bucket (the clock contract is monotone; a stale producer must
    /// not corrupt the ring).
    pub fn observe(&mut self, now_us: u64, value: u64) {
        let idx = self.advance_to(now_us);
        let slot = (idx % self.buckets.len() as u64) as usize;
        if let Some(bucket) = self.buckets.get_mut(slot) {
            bucket.count += 1;
            bucket.sum += value;
            bucket.hist[bucket_index(value)] += 1;
        }
    }

    /// Advances the eviction horizon to `now_us` without recording a
    /// sample; returns the head's absolute bucket index.
    pub fn advance_to(&mut self, now_us: u64) -> u64 {
        let idx = now_us / self.bucket_us;
        let head = match self.head {
            None => {
                self.head = Some(idx);
                return idx;
            }
            Some(head) => head,
        };
        if idx <= head {
            // Monotone clamp: late samples join the newest bucket.
            return head;
        }
        let len = self.buckets.len() as u64;
        let steps = (idx - head).min(len);
        for step in 1..=steps {
            let slot = ((head + step) % len) as usize;
            if let Some(bucket) = self.buckets.get_mut(slot) {
                bucket.clear();
            }
        }
        self.head = Some(idx);
        idx
    }

    /// Reduces the live buckets to one [`WindowStats`].
    #[must_use]
    pub fn fold(&self) -> WindowStats {
        let mut stats = WindowStats::empty();
        for bucket in &self.buckets {
            stats.count += bucket.count;
            stats.sum += bucket.sum;
            for (i, n) in bucket.hist.iter().enumerate() {
                stats.hist[i] += n;
            }
        }
        stats
    }
}

/// The fold of one [`RollingWindow`]: sample count, sum, and the merged
/// log₂ histogram, with integer nearest-rank percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStats {
    /// Samples currently inside the window.
    pub count: u64,
    /// Sum of those samples.
    pub sum: u64,
    hist: [u64; HISTOGRAM_BUCKETS],
}

impl WindowStats {
    fn empty() -> WindowStats {
        WindowStats { count: 0, sum: 0, hist: [0; HISTOGRAM_BUCKETS] }
    }

    /// Nearest-rank quantile at `q_permille` (e.g. 990 = p99): the upper
    /// bound of the histogram bucket containing the `⌈q·count/1000⌉`-th
    /// smallest sample. `None` when the window is empty. Pure integer
    /// arithmetic — byte-stable across platforms and thread counts.
    #[must_use]
    pub fn quantile_permille(&self, q_permille: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q_permille.min(1000);
        let rank = (self.count * q).div_ceil(1000).max(1);
        Some(rank_bound(&self.hist, rank))
    }

    /// Integer mean of the window (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<u64> {
        self.sum.checked_div(self.count)
    }
}

/// What the online detector can flag on a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// The current leader has stopped moving slots: no commit anywhere in
    /// the cluster (or an open proposal) for longer than
    /// [`HealthConfig::stall_after_us`].
    LeaderStall,
    /// Windowed commit-latency p99 beyond
    /// [`HealthConfig::inflation_factor`] × the latency target.
    LatencyInflation,
    /// No traffic observed from the replica for longer than
    /// [`HealthConfig::silence_after_us`].
    Silence,
}

impl AnomalyKind {
    /// Every kind, in declaration order (the `kind=` label vocabulary).
    pub const ALL: [AnomalyKind; 3] =
        [AnomalyKind::LeaderStall, AnomalyKind::LatencyInflation, AnomalyKind::Silence];

    /// The stable label value used in metrics and trace events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::LeaderStall => "leader-stall",
            AnomalyKind::LatencyInflation => "latency-inflation",
            AnomalyKind::Silence => "silence",
        }
    }

    fn bit(self) -> u8 {
        match self {
            AnomalyKind::LeaderStall => 1,
            AnomalyKind::LatencyInflation => 2,
            AnomalyKind::Silence => 4,
        }
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning of the streaming aggregation and the anomaly detector.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Rolling-window span for every folded signal.
    pub window_us: u64,
    /// Ring-bucket granularity inside the window.
    pub bucket_us: u64,
    /// Commit-latency p99 at (or below) which the latency sub-score is
    /// perfect.
    pub target_p99_us: u64,
    /// p99 ≥ `inflation_factor × target_p99_us` raises
    /// [`AnomalyKind::LatencyInflation`].
    pub inflation_factor: u64,
    /// No traffic from a replica for this long raises
    /// [`AnomalyKind::Silence`] (and zeroes its liveness sub-score).
    pub silence_after_us: u64,
    /// No commit anywhere (or a proposal left open) for this long raises
    /// [`AnomalyKind::LeaderStall`] on the current leader. Keep it below
    /// the protocol's own view-change latency, or the watchdog heals the
    /// cluster before the detector ever names the culprit.
    pub stall_after_us: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window_us: 500_000,
            bucket_us: 100_000,
            target_p99_us: 10_000,
            inflation_factor: 4,
            silence_after_us: 400_000,
            stall_after_us: 300_000,
        }
    }
}

/// One replica's reduced health at a snapshot version: the composite score,
/// the three explainable sub-scores it was folded from, and the windowed
/// evidence behind them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Replica id.
    pub replica: u32,
    /// Snapshot version this reduction belongs to.
    pub version: u64,
    /// Composite score, 0..=[`SCORE_MAX`]: `(4·latency + 3·stability +
    /// 3·liveness) / 10`.
    pub score: u32,
    /// Commit-latency sub-score (p99 against the target).
    pub latency_score: u32,
    /// Protocol-stability sub-score (view changes, CSTs, rejects,
    /// help-revotes charged against the replica).
    pub stability_score: u32,
    /// Recency-of-activity sub-score (decays over the silence horizon).
    pub liveness_score: u32,
    /// Windowed commit-latency percentiles (`None` = no commits in
    /// window).
    pub p50_us: Option<u64>,
    /// p95 of the same window.
    pub p95_us: Option<u64>,
    /// p99 of the same window.
    pub p99_us: Option<u64>,
    /// Share of the propose→commit critical path spent in each consensus
    /// phase, permille of the summed phase time (all zero when no slot
    /// completed in the window). Order follows [`PHASES`].
    pub phase_share_permille: [u32; 3],
    /// Commits folded into the window.
    pub commits: u64,
    /// Rejected messages charged to this replica in the window.
    pub rejects: u64,
    /// Help re-votes it needed in the window.
    pub help_revotes: u64,
    /// View changes it participated in inside the window.
    pub view_changes: u64,
    /// State-transfer completions inside the window.
    pub cst_ops: u64,
    /// Anomalies active at this snapshot, in [`AnomalyKind::ALL`] order.
    pub anomalies: Vec<AnomalyKind>,
}

impl ReplicaHealth {
    /// True when the detector currently flags the replica.
    #[must_use]
    pub fn anomalous(&self) -> bool {
        !self.anomalies.is_empty()
    }

    fn to_json_inner(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"replica\":{},\"version\":{},\"score\":{},\"latency_score\":{},\
             \"stability_score\":{},\"liveness_score\":{}",
            self.replica,
            self.version,
            self.score,
            self.latency_score,
            self.stability_score,
            self.liveness_score
        );
        for (key, v) in [("p50_us", self.p50_us), ("p95_us", self.p95_us), ("p99_us", self.p99_us)]
        {
            match v {
                Some(v) => {
                    let _ = write!(out, ",\"{key}\":{v}");
                }
                None => {
                    let _ = write!(out, ",\"{key}\":null");
                }
            }
        }
        let _ = write!(
            out,
            ",\"phase_share_permille\":[{},{},{}]",
            self.phase_share_permille[0],
            self.phase_share_permille[1],
            self.phase_share_permille[2]
        );
        let _ = write!(
            out,
            ",\"commits\":{},\"rejects\":{},\"help_revotes\":{},\"view_changes\":{},\
             \"cst_ops\":{}",
            self.commits, self.rejects, self.help_revotes, self.view_changes, self.cst_ops
        );
        out.push_str(",\"anomalies\":[");
        for (i, kind) in self.anomalies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{kind}\"");
        }
        out.push_str("]}");
    }
}

/// A versioned, id-sorted reduction of every tracked replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Monotone snapshot version (bumped per [`HealthTracker::snapshot`]).
    pub version: u64,
    /// Clock time the reduction ran at.
    pub at_us: u64,
    /// The leader of the highest view any replica reported.
    pub leader: Option<u32>,
    /// Per-replica health, sorted by replica id.
    pub replicas: Vec<ReplicaHealth>,
}

impl HealthSnapshot {
    /// The entry for `replica`, if tracked.
    #[must_use]
    pub fn replica(&self, replica: u32) -> Option<&ReplicaHealth> {
        self.replicas.iter().find(|r| r.replica == replica)
    }

    /// One-line deterministic JSON rendering (byte-comparable across
    /// reruns and `LAZARUS_THREADS` settings).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + 256 * self.replicas.len());
        let _ = write!(out, "{{\"version\":{},\"at_us\":{}", self.version, self.at_us);
        match self.leader {
            Some(leader) => {
                let _ = write!(out, ",\"leader\":{leader}");
            }
            None => out.push_str(",\"leader\":null"),
        }
        out.push_str(",\"replicas\":[");
        for (i, replica) in self.replicas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            replica.to_json_inner(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[derive(Debug)]
struct ReplicaState {
    commit_latency_us: RollingWindow,
    phase_us: [RollingWindow; 3],
    rejects: RollingWindow,
    help_revotes: RollingWindow,
    view_changes: RollingWindow,
    cst: RollingWindow,
    last_seen_us: Option<u64>,
    registered_at_us: u64,
    /// Open proposals this replica has observed: slot → opened-at.
    open_proposals: BTreeMap<u64, u64>,
    /// Bitmask of currently active anomalies (edge-trigger memory).
    active: u8,
}

impl ReplicaState {
    fn new(cfg: &HealthConfig, now_us: u64) -> ReplicaState {
        let window = || RollingWindow::new(cfg.window_us, cfg.bucket_us);
        ReplicaState {
            commit_latency_us: window(),
            phase_us: [window(), window(), window()],
            rejects: window(),
            help_revotes: window(),
            view_changes: window(),
            cst: window(),
            last_seen_us: None,
            registered_at_us: now_us,
            open_proposals: BTreeMap::new(),
            active: 0,
        }
    }
}

#[derive(Debug)]
struct TrackerInner {
    replicas: BTreeMap<u32, ReplicaState>,
    version: u64,
    started_at_us: u64,
    /// Highest view any replica reported installed, and its leader.
    cur_view: u64,
    leader: Option<u32>,
    last_commit_us: Option<u64>,
}

/// The streaming aggregation layer: producers push raw signals, consumers
/// pull versioned [`HealthSnapshot`]s.
///
/// Cheap to clone via [`Arc`]; interior mutability makes every producer
/// hook `&self`. Under the discrete-event testbed all calls happen on one
/// thread in virtual-time order, so snapshots are a pure function of the
/// seed; under the threaded runtime the mutex serializes producers and the
/// scores are best-effort wall-clock telemetry.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    inner: Arc<Mutex<TrackerInner>>,
    clock: Arc<dyn Clock>,
    obs: Obs,
    cfg: HealthConfig,
}

impl HealthTracker {
    /// A tracker clocked and metered by `obs`. Pre-registers the
    /// `health_anomalies_total{kind=…}` counters (so they exist at zero)
    /// and the `lazarus_health_*` family help texts.
    #[must_use]
    pub fn new(cfg: HealthConfig, obs: &Obs) -> HealthTracker {
        let registry = &obs.registry;
        for kind in AnomalyKind::ALL {
            registry.counter_with("health_anomalies_total", &[("kind", kind.as_str())]);
        }
        registry.describe("health_anomalies_total", "Anomaly onsets flagged by the detector.");
        registry.describe("lazarus_health_score", "Composite replica health (0-1000 permille).");
        registry.describe("lazarus_health_p99_us", "Windowed commit-latency p99 per replica.");
        registry.describe("lazarus_health_snapshots_total", "Health reductions taken.");
        let now = obs.now_micros();
        HealthTracker {
            inner: Arc::new(Mutex::new(TrackerInner {
                replicas: BTreeMap::new(),
                version: 0,
                started_at_us: now,
                cur_view: 0,
                leader: None,
                last_commit_us: None,
            })),
            clock: Arc::clone(obs.clock()),
            obs: obs.clone(),
            cfg,
        }
    }

    /// The tracker's configuration.
    #[must_use]
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, TrackerInner> {
        // A producer panicking mid-update cannot leave half-updated window
        // arithmetic (all folds are per-field), so a poisoned lock is safe
        // to keep using — health must never take the data plane down.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn state<'a>(
        inner: &'a mut TrackerInner,
        cfg: &HealthConfig,
        replica: u32,
        now: u64,
    ) -> &'a mut ReplicaState {
        inner.replicas.entry(replica).or_insert_with(|| ReplicaState::new(cfg, now))
    }

    /// Declares `replica` tracked, reporting the view it starts in and that
    /// view's leader.
    pub fn register(&self, replica: u32, view: u64, leader: u32) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        Self::state(&mut inner, &self.cfg, replica, now);
        if inner.leader.is_none() || view > inner.cur_view {
            inner.cur_view = view;
            inner.leader = Some(leader);
        }
    }

    /// Any traffic from `replica` hit the wire (silence detector food).
    pub fn seen(&self, replica: u32) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        Self::state(&mut inner, &self.cfg, replica, now).last_seen_us = Some(now);
    }

    /// `replica` accepted a proposal for `seq` (opens the stall clock on
    /// that slot).
    pub fn proposal_open(&self, replica: u32, seq: u64) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        let state = Self::state(&mut inner, &self.cfg, replica, now);
        state.open_proposals.entry(seq).or_insert(now);
    }

    /// `replica` decided slot `seq` with the given propose→decide latency.
    pub fn commit(&self, replica: u32, seq: u64, latency_us: u64) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        inner.last_commit_us = Some(now);
        let state = Self::state(&mut inner, &self.cfg, replica, now);
        state.commit_latency_us.observe(now, latency_us);
        // Deciding is ingress-driven (a quorum of *other* replicas' votes
        // arrived) — deliberately NOT silence-detector food: a mute replica
        // still receives and decides, and only [`HealthTracker::seen`]
        // (egress hitting the wire) proves the replica is participating.
        // The decided slot (and any predecessors a CST skipped over) no
        // longer count as stalled.
        state.open_proposals.retain(|&open_seq, _| open_seq > seq);
    }

    /// Per-phase critical-path time of a decided slot on `replica`
    /// (propose→write, write→accept, accept→commit), in [`PHASES`] order.
    pub fn phases(&self, replica: u32, phase_us: [u64; 3]) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        let state = Self::state(&mut inner, &self.cfg, replica, now);
        for (window, us) in state.phase_us.iter_mut().zip(phase_us) {
            window.observe(now, us);
        }
    }

    /// A rejected ingress message, charged to `replica` (the culprit — for
    /// proposal-fault reasons the producer charges the leader, not the
    /// honest replica that refused the message).
    pub fn reject(&self, replica: u32) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        Self::state(&mut inner, &self.cfg, replica, now).rejects.observe(now, 1);
    }

    /// `replica` needed (or provided) a help re-vote.
    pub fn help_revote(&self, replica: u32) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        Self::state(&mut inner, &self.cfg, replica, now).help_revotes.observe(now, 1);
    }

    /// `replica` installed `view`, whose leader is `leader`.
    pub fn view_change(&self, replica: u32, view: u64, leader: u32) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        if view > inner.cur_view {
            inner.cur_view = view;
            inner.leader = Some(leader);
        }
        let state = Self::state(&mut inner, &self.cfg, replica, now);
        state.view_changes.observe(now, 1);
        state.last_seen_us = Some(now);
        // Slots from the dead view restart their stall clocks.
        state.open_proposals.clear();
    }

    /// `replica` completed a state transfer.
    pub fn cst(&self, replica: u32) {
        let now = self.clock.now_micros();
        let mut inner = self.locked();
        let state = Self::state(&mut inner, &self.cfg, replica, now);
        state.cst.observe(now, 1);
        state.open_proposals.clear();
    }

    /// Reduces every tracked replica to a fresh [`ReplicaHealth`], runs the
    /// anomaly detector, publishes `lazarus_health_*` gauges, counts
    /// anomaly *onsets* into `health_anomalies_total{kind=…}`, and emits a
    /// `health.anomaly` trace event per onset. Returns the versioned
    /// snapshot.
    pub fn snapshot(&self) -> HealthSnapshot {
        let now = self.clock.now_micros();
        let cfg = self.cfg.clone();
        let mut inner = self.locked();
        inner.version += 1;
        let version = inner.version;
        let leader = inner.leader;
        let started = inner.started_at_us;
        let last_commit = inner.last_commit_us;

        // Cluster-wide stall evidence: the newest of (tracker start, last
        // commit) is the last time slots demonstrably moved; any proposal
        // left open past the threshold is equivalent evidence.
        let commit_gap = now.saturating_sub(last_commit.unwrap_or(started));
        let mut oldest_open: Option<u64> = None;
        for state in inner.replicas.values() {
            if let Some((_, &opened)) = state.open_proposals.iter().next() {
                oldest_open = Some(oldest_open.map_or(opened, |cur: u64| cur.min(opened)));
            }
        }
        let open_gap = oldest_open.map_or(0, |opened| now.saturating_sub(opened));
        let stalled = commit_gap > cfg.stall_after_us || open_gap > cfg.stall_after_us;

        let mut replicas = Vec::with_capacity(inner.replicas.len());
        let mut onsets: Vec<(u32, AnomalyKind, u32)> = Vec::new();
        for (&id, state) in inner.replicas.iter_mut() {
            let latency = state.commit_latency_us.fold();
            let p50 = latency.quantile_permille(500);
            let p95 = latency.quantile_permille(950);
            let p99 = latency.quantile_permille(990);

            let target = cfg.target_p99_us.max(1);
            let latency_score = match p99 {
                None => SCORE_MAX,
                Some(p99) if p99 <= target => SCORE_MAX,
                Some(p99) => (target.saturating_mul(1000) / p99.max(1)).min(1000) as u32,
            };

            let commits_in_window = latency.count;
            let rejects = state.rejects.fold().count;
            let help_revotes = state.help_revotes.fold().count;
            let view_changes = state.view_changes.fold().count;
            let cst_ops = state.cst.fold().count;
            // One help re-vote per slot is ordinary pipeline skew (in a
            // deterministic topology the same replica decides last every
            // slot); only help *beyond* the window's commit count signals a
            // replica genuinely falling behind.
            let help_excess = help_revotes.saturating_sub(commits_in_window);
            let stability_score = SCORE_MAX
                .saturating_sub((view_changes.min(4) as u32) * 250)
                .saturating_sub((cst_ops.min(5) as u32) * 200)
                .saturating_sub(((rejects * 10).min(300)) as u32)
                .saturating_sub(((help_excess * 50).min(300)) as u32);

            let idle = now.saturating_sub(state.last_seen_us.unwrap_or(state.registered_at_us));
            let silence = cfg.silence_after_us.max(1);
            let liveness_score = if idle >= silence {
                0
            } else {
                SCORE_MAX - ((idle * 1000 / silence) as u32).min(SCORE_MAX)
            };

            let score = (4 * latency_score + 3 * stability_score + 3 * liveness_score) / 10;

            let phase_sums =
                [0usize, 1, 2].map(|i| state.phase_us.get(i).map_or(0, |w| w.fold().sum));
            let phase_total: u64 = phase_sums.iter().sum();
            let phase_share_permille = if phase_total == 0 {
                [0; 3]
            } else {
                phase_sums.map(|sum| (sum * 1000 / phase_total) as u32)
            };

            let mut flags = 0u8;
            if leader == Some(id) && stalled {
                flags |= AnomalyKind::LeaderStall.bit();
            }
            if let (Some(p99), true) = (p99, latency.count > 0) {
                if p99 >= cfg.inflation_factor.max(1).saturating_mul(target) {
                    flags |= AnomalyKind::LatencyInflation.bit();
                }
            }
            if idle >= silence {
                flags |= AnomalyKind::Silence.bit();
            }
            let anomalies: Vec<AnomalyKind> =
                AnomalyKind::ALL.into_iter().filter(|k| flags & k.bit() != 0).collect();
            for kind in &anomalies {
                if state.active & kind.bit() == 0 {
                    onsets.push((id, *kind, score));
                }
            }
            state.active = flags;

            replicas.push(ReplicaHealth {
                replica: id,
                version,
                score,
                latency_score,
                stability_score,
                liveness_score,
                p50_us: p50,
                p95_us: p95,
                p99_us: p99,
                phase_share_permille,
                commits: latency.count,
                rejects,
                help_revotes,
                view_changes,
                cst_ops,
                anomalies,
            });
        }
        drop(inner);

        let registry = &self.obs.registry;
        registry.counter("lazarus_health_snapshots_total").inc();
        let mut label = String::new();
        for health in &replicas {
            label.clear();
            let _ = write!(label, "{}", health.replica);
            registry
                .gauge_with("lazarus_health_score", &[("replica", &label)])
                .set(f64::from(health.score));
            registry
                .gauge_with("lazarus_health_latency_score", &[("replica", &label)])
                .set(f64::from(health.latency_score));
            registry
                .gauge_with("lazarus_health_stability_score", &[("replica", &label)])
                .set(f64::from(health.stability_score));
            registry
                .gauge_with("lazarus_health_liveness_score", &[("replica", &label)])
                .set(f64::from(health.liveness_score));
            registry
                .gauge_with("lazarus_health_p99_us", &[("replica", &label)])
                .set(health.p99_us.map_or(0.0, |v| v as f64));
        }
        for (replica, kind, score) in onsets {
            registry.counter_with("health_anomalies_total", &[("kind", kind.as_str())]).inc();
            self.obs.tracer.event(
                "health.anomaly",
                vec![
                    ("replica", FieldValue::from(replica)),
                    ("kind", FieldValue::from(kind.as_str())),
                    ("score", FieldValue::from(u64::from(score))),
                    ("version", FieldValue::from(version)),
                ],
            );
        }

        HealthSnapshot { version, at_us: now, leader, replicas }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn tracked() -> (Arc<ManualClock>, Obs, HealthTracker) {
        let clock = Arc::new(ManualClock::new());
        let obs = Obs::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let tracker = HealthTracker::new(HealthConfig::default(), &obs);
        (clock, obs, tracker)
    }

    #[test]
    fn rolling_window_folds_and_evicts() {
        let mut w = RollingWindow::new(500, 100);
        w.observe(10, 7);
        w.observe(20, 9);
        let stats = w.fold();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.sum, 16);
        assert_eq!(stats.mean(), Some(8));
        // Advance past the whole window: everything evicts.
        w.observe(1000, 5);
        let stats = w.fold();
        assert_eq!((stats.count, stats.sum), (1, 5));
    }

    #[test]
    fn rolling_window_partial_eviction() {
        let mut w = RollingWindow::new(300, 100);
        w.observe(50, 1); // bucket 0
        w.observe(150, 2); // bucket 1
        w.observe(250, 3); // bucket 2
        assert_eq!(w.fold().count, 3);
        // t=350 opens bucket 3, which wraps onto bucket 0 — sample 1 gone.
        w.observe(350, 4);
        let stats = w.fold();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.sum, 9);
    }

    #[test]
    fn rolling_window_clamps_backwards_time() {
        let mut w = RollingWindow::new(300, 100);
        w.observe(250, 3);
        w.observe(10, 1); // late producer: folds into the head bucket
        assert_eq!(w.fold().count, 2);
        // …and does not resurrect on the next advance.
        w.advance_to(260);
        assert_eq!(w.fold().count, 2);
    }

    #[test]
    fn window_quantiles_are_nearest_rank() {
        let mut w = RollingWindow::new(1000, 100);
        for v in [1u64, 2, 2, 4, 8] {
            w.observe(10, v);
        }
        let stats = w.fold();
        assert_eq!(stats.quantile_permille(500), Some(2));
        assert_eq!(stats.quantile_permille(990), Some(8));
        assert_eq!(RollingWindow::new(1000, 100).fold().quantile_permille(500), None);
    }

    #[test]
    fn healthy_replica_scores_full_marks() {
        let (clock, _obs, tracker) = tracked();
        tracker.register(0, 0, 0);
        clock.set(100_000);
        tracker.seen(0);
        tracker.commit(0, 1, 2_000);
        let snap = tracker.snapshot();
        let h = snap.replica(0).expect("tracked");
        assert_eq!(h.score, SCORE_MAX);
        assert_eq!(h.latency_score, SCORE_MAX);
        assert_eq!(h.liveness_score, SCORE_MAX);
        assert!(h.anomalies.is_empty());
        assert_eq!(h.p99_us, Some(2_048), "log2 bucket upper bound");
    }

    #[test]
    fn silent_replica_is_flagged_once_per_onset() {
        let (clock, obs, tracker) = tracked();
        tracker.register(0, 0, 0);
        tracker.register(1, 0, 0);
        clock.set(50_000);
        tracker.seen(1);
        tracker.commit(1, 1, 500); // keeps the cluster un-stalled
        clock.set(300_000);
        tracker.seen(1);
        tracker.commit(1, 2, 500);
        clock.set(500_000);
        tracker.commit(1, 3, 500);
        let snap = tracker.snapshot();
        let h = snap.replica(0).expect("tracked");
        assert_eq!(h.liveness_score, 0);
        assert_eq!(h.anomalies, vec![AnomalyKind::Silence]);
        assert!(snap.replica(1).expect("tracked").anomalies.is_empty());
        let silent =
            obs.registry.counter_with("health_anomalies_total", &[("kind", "silence")]).get();
        assert_eq!(silent, 1);
        // Still silent at the next snapshot: edge-triggered, no re-count.
        clock.set(600_000);
        tracker.commit(1, 4, 500);
        tracker.snapshot();
        let again =
            obs.registry.counter_with("health_anomalies_total", &[("kind", "silence")]).get();
        assert_eq!(again, 1);
        // The trace ring saw the onset event.
        assert!(obs.tracer.recent().iter().any(|e| e.name == "health.anomaly"));
    }

    #[test]
    fn stalled_leader_and_inflated_latency_are_detected() {
        let (clock, _obs, tracker) = tracked();
        tracker.register(0, 0, 0);
        tracker.register(1, 0, 0);
        clock.set(10_000);
        tracker.proposal_open(1, 5);
        tracker.seen(0);
        // 10 ms + stall_after elapses with the proposal still open.
        clock.set(450_000);
        tracker.seen(0);
        tracker.seen(1);
        // An (eventually) committed slot with terrible latency.
        tracker.commit(1, 4, 120_000);
        let snap = tracker.snapshot();
        let leader = snap.replica(0).expect("tracked");
        assert!(leader.anomalies.contains(&AnomalyKind::LeaderStall), "{snap:?}");
        let laggard = snap.replica(1).expect("tracked");
        assert!(laggard.anomalies.contains(&AnomalyKind::LatencyInflation), "{snap:?}");
        assert!(laggard.latency_score < 100, "p99 ≫ target collapses the sub-score");
    }

    #[test]
    fn view_change_updates_leader_and_stability() {
        let (clock, _obs, tracker) = tracked();
        tracker.register(0, 0, 0);
        tracker.register(1, 0, 0);
        clock.set(100_000);
        tracker.view_change(1, 1, 1);
        let snap = tracker.snapshot();
        assert_eq!(snap.leader, Some(1));
        let h = snap.replica(1).expect("tracked");
        assert_eq!(h.view_changes, 1);
        assert_eq!(h.stability_score, SCORE_MAX - 250);
    }

    #[test]
    fn snapshot_json_is_versioned_and_stable() {
        let (clock, _obs, tracker) = tracked();
        tracker.register(0, 0, 0);
        clock.set(42);
        tracker.seen(0);
        let a = tracker.snapshot();
        let b = tracker.snapshot();
        assert_eq!(a.version + 1, b.version);
        assert!(a.to_json().starts_with("{\"version\":1,\"at_us\":42,\"leader\":0"));
        let rerun = a.to_json();
        assert_eq!(a.to_json(), rerun, "rendering is pure");
    }

    #[test]
    fn phase_shares_sum_to_permille() {
        let (clock, _obs, tracker) = tracked();
        tracker.register(0, 0, 0);
        clock.set(1_000);
        tracker.phases(0, [100, 300, 600]);
        let snap = tracker.snapshot();
        let shares = snap.replica(0).expect("tracked").phase_share_permille;
        assert_eq!(shares, [100, 300, 600]);
    }
}
