//! Observability hooks for the replica hot path.
//!
//! A replica states each protocol milestone once, as a [`ProtocolEvent`].
//! [`ReplicaObs`] holds the sinks it fans out to — pre-registered counter
//! handles (one registry lock per series at attach time, lock-free atomic
//! adds afterwards), the proposal→decide latency histogram, the health
//! tracker, trace events for the rare transitions (view change,
//! checkpoint, state transfer, epoch change), and the causal flight
//! recorder — and [`ReplicaObs::record`] is the one table mapping each
//! event onto them. A replica without sinks pays one `Option` branch per
//! event.
//!
//! [`WireObs`] is the embedding runtime's side: per-message-kind count and
//! bytes-on-wire counters, fed from wherever messages actually hit the
//! "network" (the threaded runtime's channel sends, the testbed's cost
//! model).
//!
//! All counters and histograms are shared across replicas in one registry —
//! their updates commute, so snapshots are deterministic even when replicas
//! run on parallel workers. Timestamps come from the injected
//! [`Clock`](lazarus_obs::Clock): sim-time under the testbed, wall time
//! under the threaded runtime.

use std::collections::HashMap;
use std::sync::Arc;

use lazarus_obs::causal::{EventKind, FlightRecorder, TraceCtx};
use lazarus_obs::{Clock, Counter, Gauge, HealthTracker, Histogram, Obs, Tracer};

use crate::types::{Epoch, ReplicaId, SeqNo, View};

/// Every [`Message::label`](crate::messages::Message::label) value, in the
/// protocol's phase order (new kinds are appended — slot indices are part
/// of the metric contract).
pub const MESSAGE_KINDS: [&str; 13] = [
    "REQUEST",
    "PROPOSE",
    "WRITE",
    "ACCEPT",
    "CHECKPOINT",
    "STOP",
    "STOP-DATA",
    "SYNC",
    "CST-REQUEST",
    "CST-REPLY",
    "RECONFIG",
    "CST-CHUNK-REQUEST",
    "CST-CHUNK-REPLY",
];

fn kind_slot(label: &str) -> usize {
    MESSAGE_KINDS.iter().position(|&k| k == label).unwrap_or(0)
}

/// Every reason a replica refuses an ingress message. Rejections are the
/// *designed* response to malformed, forged, stale, or Byzantine traffic —
/// they must be countable (for the nemesis harness and for operators), and
/// they must never escalate to a panic.
pub const REJECT_REASONS: [&str; 15] = [
    "bad-request-sig",
    "stale-request",
    "duplicate-request",
    "stale-consensus",
    "non-member",
    "wrong-view",
    "not-leader",
    "bad-batch",
    "equivocation",
    "stale-view-change",
    "bad-snapshot",
    "bad-reconfig-sig",
    "stale-reconfig",
    "bad-chunk",
    "bad-suffix",
];

fn reason_slot(reason: &str) -> usize {
    REJECT_REASONS.iter().position(|&r| r == reason).unwrap_or(0)
}

/// The replica instrumentation bundle: every optional observer a
/// [`Replica`](crate::replica::Replica) accepts, attached in one
/// [`attach`](crate::replica::Replica::attach) call. Embedders build one
/// with the `with_*` combinators and hand clones to each replica:
///
/// ```ignore
/// replica.attach(Instruments::new().with_obs(obs.clone()).with_flight(rec));
/// ```
///
/// Only the present fields are applied, in dependency order — the health
/// tracker hooks into the metrics bundle, so `obs` (when present) attaches
/// first.
#[derive(Clone, Default)]
pub struct Instruments {
    /// Shared metrics/tracer bundle (registry + injected clock).
    pub obs: Option<Obs>,
    /// Streaming health tracker. Requires `obs` (attached previously or in
    /// the same bundle); ignored otherwise.
    pub health: Option<HealthTracker>,
    /// Causal flight recorder for this replica's protocol events.
    pub flight: Option<FlightRecorder>,
    /// Phase profiler (deterministic call counts, embedder-charged time).
    pub profiler: Option<lazarus_obs::profile::Profiler>,
}

impl Instruments {
    /// An empty bundle (attaching it is a no-op).
    pub fn new() -> Instruments {
        Instruments::default()
    }

    /// Adds the shared metrics/tracer bundle.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Instruments {
        self.obs = Some(obs);
        self
    }

    /// Adds the streaming health tracker.
    #[must_use]
    pub fn with_health(mut self, health: HealthTracker) -> Instruments {
        self.health = Some(health);
        self
    }

    /// Adds the causal flight recorder.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightRecorder) -> Instruments {
        self.flight = Some(flight);
        self
    }

    /// Adds the phase profiler.
    #[must_use]
    pub fn with_profiler(mut self, profiler: lazarus_obs::profile::Profiler) -> Instruments {
        self.profiler = Some(profiler);
        self
    }
}

impl std::fmt::Debug for Instruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instruments")
            .field("obs", &self.obs.is_some())
            .field("health", &self.health.is_some())
            .field("flight", &self.flight.is_some())
            .field("profiler", &self.profiler.is_some())
            .finish()
    }
}

/// Per-message-kind wire accounting for an embedding runtime.
#[derive(Debug, Clone)]
pub struct WireObs {
    sent: [Counter; MESSAGE_KINDS.len()],
    bytes: [Counter; MESSAGE_KINDS.len()],
}

impl WireObs {
    /// Registers the `bft_wire_messages_total{kind=…}` /
    /// `bft_wire_bytes_total{kind=…}` series in `obs`'s registry.
    #[must_use]
    pub fn new(obs: &Obs) -> WireObs {
        WireObs {
            sent: MESSAGE_KINDS.map(|kind| {
                obs.registry.counter_with("bft_wire_messages_total", &[("kind", kind)])
            }),
            bytes: MESSAGE_KINDS
                .map(|kind| obs.registry.counter_with("bft_wire_bytes_total", &[("kind", kind)])),
        }
    }

    /// Accounts one message of `label` kind and `wire_size` bytes leaving a
    /// replica, `copies` times (a broadcast is one call with `copies` =
    /// fan-out).
    pub fn sent(&self, label: &str, wire_size: usize, copies: usize) {
        let slot = kind_slot(label);
        self.sent[slot].add(copies as u64);
        self.bytes[slot].add((wire_size * copies) as u64);
    }
}

/// One protocol milestone of a replica, stated once at the site where it
/// happens. Plain `Copy` data: building one allocates nothing, and a
/// replica with no sinks attached drops it after one `Option` branch.
///
/// [`ReplicaObs::record`] is the only place that maps an event onto its
/// sinks — registry counters and the commit-latency histogram, the
/// [`HealthTracker`], the causal flight recorder, and the `replica.*`
/// tracer events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A protocol message of this kind (one of [`MESSAGE_KINDS`]) reached
    /// the replica.
    MessageIn(&'static str),
    /// `(reason, culprit)`: an ingress message was refused for `reason`
    /// (one of [`REJECT_REASONS`]). Rejection is the designed response to
    /// forged, stale, or Byzantine traffic: drop, count, move on — never
    /// panic. When member replica `culprit` caused the refusal by its own
    /// behaviour, the health tracker charges it to that *sender*, so a
    /// Byzantine replica bleeds stability score instead of its victims;
    /// client-origin or benign refusals (votes on already-decided slots)
    /// carry no culprit and only count.
    Rejected(&'static str, Option<ReplicaId>),
    /// `(seq, view)`: a proposal for the slot was accepted into the local
    /// instance (starts the slot's proposal→decide clock).
    Proposed(SeqNo, View),
    /// `(seq, view)`: this replica broadcast its WRITE for the slot.
    Wrote(SeqNo, View),
    /// `(seq, view)`: this replica broadcast its ACCEPT for the slot.
    Accepted(SeqNo, View),
    /// `(seq, view, requests)`: the slot was decided and applied in order
    /// (closes its latency measurement); `requests` is the batch size.
    Decided(SeqNo, View, usize),
    /// `(seq, requests)`: a decided batch ran against the service;
    /// `requests` excludes refused duplicates.
    Executed(SeqNo, usize),
    /// A local checkpoint was taken at this slot.
    Checkpoint(SeqNo),
    /// `(view, leader)`: the replica installed the view after a STOP
    /// quorum.
    ViewChange(View, ReplicaId),
    /// The replica jumped to this view because f + 1 peers were already
    /// stopping it (no STOP quorum of its own yet).
    ViewAdopted(View),
    /// `(peer, seq, view)`: the replica re-sent its WRITE/ACCEPT votes for
    /// decided slot `seq` to lagging `peer`, whose stale vote was in
    /// `view` (throttled to once per `(peer, slot, view)`).
    HelpRevote(ReplicaId, SeqNo, View),
    /// `(last_decided, view)`: a state-transfer round started.
    CstStart(SeqNo, View),
    /// `(checkpoint, index)`: a snapshot chunk arrived and passed its
    /// manifest digest check.
    CstChunkFetched(SeqNo, u32),
    /// A snapshot chunk from this donor failed its manifest digest check
    /// (also a `bad-chunk` rejection charged to the donor).
    CstChunkRejected(ReplicaId),
    /// This many already-verified chunks were carried across a designee
    /// rotation instead of being fetched again.
    CstChunksResumed(u64),
    /// `(last_decided, view)`: a state transfer completed.
    CstDone(SeqNo, View),
    /// `(stable_seq, virtual_us, torn_tail)`: the replica finished
    /// replaying its journal at boot, in a deterministic bytes-derived
    /// `virtual_us`.
    Recovered(SeqNo, u64, bool),
    /// `(epoch, n)`: an ordered reconfiguration changed the membership to
    /// `n` replicas.
    EpochChange(Epoch, usize),
}

impl ProtocolEvent {
    /// The causal flight record this event leaves, as
    /// `(kind, seq, view, extra)` — `None` for events the flight recorder
    /// does not carry.
    fn flight(self) -> Option<(EventKind, Option<u64>, Option<u64>, u64)> {
        use ProtocolEvent as E;
        Some(match self {
            E::Proposed(seq, view) => (EventKind::Propose, Some(seq.0), Some(view.0), 0),
            E::Wrote(seq, view) => (EventKind::Write, Some(seq.0), Some(view.0), 0),
            E::Accepted(seq, view) => (EventKind::Accept, Some(seq.0), Some(view.0), 0),
            E::Decided(seq, view, n) => (EventKind::Commit, Some(seq.0), Some(view.0), n as u64),
            E::Executed(seq, n) => (EventKind::Exec, Some(seq.0), None, n as u64),
            E::ViewChange(view, _) => (EventKind::ViewChange, None, Some(view.0), 0),
            E::ViewAdopted(view) => (EventKind::ViewChange, None, Some(view.0), 1),
            E::HelpRevote(peer, seq, view) => {
                (EventKind::HelpRevote, Some(seq.0), Some(view.0), u64::from(peer.0))
            }
            E::CstStart(seq, view) => (EventKind::CstStart, Some(seq.0), Some(view.0), 0),
            E::CstChunkFetched(seq, index) => {
                (EventKind::CstChunk, Some(seq.0), None, u64::from(index))
            }
            E::CstDone(seq, view) => (EventKind::CstDone, Some(seq.0), Some(view.0), 0),
            E::Recovered(seq, virtual_us, _) => (EventKind::Recover, Some(seq.0), None, virtual_us),
            E::MessageIn(_)
            | E::Rejected(..)
            | E::Checkpoint(_)
            | E::CstChunkRejected(_)
            | E::CstChunksResumed(_)
            | E::EpochChange(..) => return None,
        })
    }
}

/// Per-slot clock marks along the commit critical path.
#[derive(Debug, Clone, Copy)]
struct SlotMarks {
    proposed: u64,
    wrote: Option<u64>,
    accepted: Option<u64>,
}

/// The metered sinks of one replica: pre-registered counter handles (one
/// registry lock per series at attach time, lock-free atomic adds
/// afterwards), the commit-latency histogram with its per-slot marks, the
/// tracer, and the optional health tracker.
#[derive(Debug)]
struct Meters {
    id: ReplicaId,
    clock: Arc<dyn Clock>,
    tracer: Tracer,

    msgs_in: [Counter; MESSAGE_KINDS.len()],
    rejected: [Counter; REJECT_REASONS.len()],
    decided_total: Counter,
    executed_requests_total: Counter,
    view_changes_total: Counter,
    help_revotes_total: Counter,
    checkpoints_total: Counter,
    state_transfers_total: Counter,
    commit_latency_us: Histogram,
    cst_chunks_fetched_total: Counter,
    cst_chunks_rejected_total: Counter,
    cst_chunks_resumed_total: Counter,
    recovery_duration_us: Gauge,

    /// Open proposals: slot → phase timestamps along the critical path.
    marks: HashMap<u64, SlotMarks>,

    /// Streaming health aggregation (None = metered but not
    /// health-scored).
    health: Option<HealthTracker>,
}

impl Meters {
    fn new(obs: &Obs, id: ReplicaId) -> Meters {
        let r = &obs.registry;
        Meters {
            id,
            clock: Arc::clone(obs.clock()),
            tracer: obs.tracer.clone(),
            msgs_in: MESSAGE_KINDS
                .map(|kind| r.counter_with("bft_messages_in_total", &[("kind", kind)])),
            rejected: REJECT_REASONS
                .map(|reason| r.counter_with("bft_rejected_messages_total", &[("reason", reason)])),
            decided_total: r.counter("bft_slots_decided_total"),
            executed_requests_total: r.counter("bft_requests_executed_total"),
            view_changes_total: r.counter("bft_view_changes_total"),
            help_revotes_total: r.counter("bft_help_revotes_total"),
            checkpoints_total: r.counter("bft_checkpoints_total"),
            state_transfers_total: r.counter("bft_state_transfers_total"),
            commit_latency_us: r.histogram("bft_commit_latency_us"),
            cst_chunks_fetched_total: r.counter("bft_cst_chunks_fetched_total"),
            cst_chunks_rejected_total: r.counter("bft_cst_chunks_rejected_total"),
            cst_chunks_resumed_total: r.counter("bft_cst_chunks_resumed_total"),
            recovery_duration_us: r.gauge("bft_recovery_duration_us"),
            marks: HashMap::new(),
            health: None,
        }
    }

    /// Maps `event` onto the registry counters, the commit-latency
    /// histogram, the health tracker, and the `replica.*` tracer events.
    fn record(&mut self, event: ProtocolEvent) {
        use ProtocolEvent as E;
        let id = self.id.0;
        let health = self.health.as_ref();
        match event {
            E::MessageIn(kind) => self.msgs_in[kind_slot(kind)].inc(),
            E::Rejected(reason, culprit) => {
                self.rejected[reason_slot(reason)].inc();
                if let (Some(health), Some(culprit)) = (health, culprit) {
                    health.reject(culprit.0);
                }
            }
            E::Proposed(seq, _) => {
                let now = self.clock.now_micros();
                self.marks.entry(seq.0).or_insert(SlotMarks {
                    proposed: now,
                    wrote: None,
                    accepted: None,
                });
                if let Some(health) = health {
                    health.proposal_open(id, seq.0);
                }
            }
            E::Wrote(seq, _) => {
                let now = self.clock.now_micros();
                if let Some(marks) = self.marks.get_mut(&seq.0) {
                    marks.wrote.get_or_insert(now);
                }
            }
            E::Accepted(seq, _) => {
                let now = self.clock.now_micros();
                if let Some(marks) = self.marks.get_mut(&seq.0) {
                    marks.accepted.get_or_insert(now);
                }
            }
            E::Decided(seq, ..) => {
                self.decided_total.inc();
                let Some(marks) = self.marks.remove(&seq.0) else { return };
                let now = self.clock.now_micros();
                let latency = now.saturating_sub(marks.proposed);
                self.commit_latency_us.observe(latency);
                if let Some(health) = health {
                    // Missing intermediate marks (e.g. a slot finished via
                    // a vote replay) collapse the absent phase to zero.
                    let wrote = marks.wrote.unwrap_or(marks.proposed);
                    let accepted = marks.accepted.unwrap_or(wrote);
                    health.commit(id, seq.0, latency);
                    health.phases(
                        id,
                        [
                            wrote.saturating_sub(marks.proposed),
                            accepted.saturating_sub(wrote),
                            now.saturating_sub(accepted),
                        ],
                    );
                }
            }
            E::Executed(_, n) => self.executed_requests_total.add(n as u64),
            E::Checkpoint(seq) => {
                self.checkpoints_total.inc();
                self.tracer.event(
                    "replica.checkpoint",
                    vec![("replica", id.into()), ("seq", seq.0.into())],
                );
            }
            E::ViewChange(view, leader) => {
                self.view_changes_total.inc();
                // Stale slots from the old view would otherwise pin their
                // start timestamps forever.
                self.marks.clear();
                if let Some(health) = health {
                    health.view_change(id, view.0, leader.0);
                }
                self.tracer.event(
                    "replica.view_change",
                    vec![("replica", id.into()), ("view", view.0.into())],
                );
            }
            E::ViewAdopted(_) | E::CstStart(..) => {}
            E::HelpRevote(peer, seq, _) => {
                self.help_revotes_total.inc();
                if let Some(health) = health {
                    // The *peer* needed the help — it is the one falling
                    // behind.
                    health.help_revote(peer.0);
                }
                self.tracer.event(
                    "replica.help_revote",
                    vec![("replica", id.into()), ("peer", peer.0.into()), ("seq", seq.0.into())],
                );
            }
            E::CstChunkFetched(..) => self.cst_chunks_fetched_total.inc(),
            E::CstChunkRejected(culprit) => {
                self.record(E::Rejected("bad-chunk", Some(culprit)));
                self.cst_chunks_rejected_total.inc();
            }
            E::CstChunksResumed(n) => self.cst_chunks_resumed_total.add(n),
            E::CstDone(seq, _) => {
                self.state_transfers_total.inc();
                if let Some(health) = health {
                    health.cst(id);
                }
                self.tracer.event(
                    "replica.state_transfer",
                    vec![("replica", id.into()), ("seq", seq.0.into())],
                );
            }
            E::Recovered(seq, virtual_us, torn_tail) => {
                self.recovery_duration_us.set(virtual_us as f64);
                self.tracer.event(
                    "replica.recovery",
                    vec![
                        ("replica", id.into()),
                        ("seq", seq.0.into()),
                        ("virtual_us", virtual_us.into()),
                        ("torn_tail", u64::from(torn_tail).into()),
                    ],
                );
            }
            E::EpochChange(epoch, n) => self.tracer.event(
                "replica.epoch_change",
                vec![("replica", id.into()), ("epoch", epoch.0.into()), ("n", n.into())],
            ),
        }
    }
}

/// Where a replica's [`ProtocolEvent`]s go: the metered sinks (registry,
/// health, tracer) and the causal flight recorder, each present only once
/// an [`Instruments`] bundle supplied it.
#[derive(Debug)]
pub struct ReplicaObs {
    id: ReplicaId,
    meters: Option<Meters>,
    flight: Option<FlightRecorder>,
}

impl ReplicaObs {
    /// Sinks for replica `id` with nothing attached yet.
    #[must_use]
    pub fn new(id: ReplicaId) -> ReplicaObs {
        ReplicaObs { id, meters: None, flight: None }
    }

    /// Folds the metrics, health, and flight parts of `instruments` in.
    /// Absent fields keep what an earlier call attached; a new `obs`
    /// replaces the metered sinks (health included), and health — which
    /// requires metrics, now or earlier — registers the replica as
    /// starting in `view` under `leader`.
    pub fn attach(&mut self, instruments: Instruments, view: View, leader: ReplicaId) {
        if let Some(obs) = &instruments.obs {
            self.meters = Some(Meters::new(obs, self.id));
        }
        if let (Some(health), Some(meters)) = (instruments.health, self.meters.as_mut()) {
            health.register(self.id.0, view.0, leader.0);
            meters.health = Some(health);
        }
        if let Some(flight) = instruments.flight {
            self.flight = Some(flight);
        }
    }

    /// Registers `# HELP` texts for the replica metric families (shared
    /// registry — idempotent across replicas).
    pub fn describe(obs: &Obs) {
        let r = &obs.registry;
        r.describe("bft_view_changes_total", "Views installed after a leader change.");
        r.describe("bft_help_revotes_total", "Throttled vote re-sends to lagging peers.");
        r.describe("bft_slots_decided_total", "Consensus slots decided locally.");
        r.describe("bft_state_transfers_total", "Completed CST state transfers.");
        r.describe("bft_commit_latency_us", "Proposal-to-decide latency per slot.");
        r.describe("bft_cst_chunks_fetched_total", "CST snapshot chunks fetched and verified.");
        r.describe("bft_cst_chunks_rejected_total", "CST chunks refused for a digest mismatch.");
        r.describe(
            "bft_cst_chunks_resumed_total",
            "Verified chunks carried across a CST designee rotation instead of re-fetched.",
        );
        r.describe(
            "bft_recovery_duration_us",
            "Virtual duration of the last journal replay at replica boot.",
        );
        r.describe("bft_journal_fsync_us", "Virtual journal sync durations (bytes-derived).");
        r.describe(
            "bft_journal_compaction_us",
            "Virtual journal compaction durations (bytes-derived).",
        );
    }

    /// Records `event` into every attached sink; its flight record is
    /// parented to `ctx`, the context of the input being handled.
    pub fn record(&mut self, event: ProtocolEvent, ctx: &TraceCtx) {
        if let Some(meters) = self.meters.as_mut() {
            meters.record(event);
        }
        if let (Some(recorder), Some((kind, seq, view, extra))) = (&self.flight, event.flight()) {
            recorder.protocol(kind, seq, view, ctx, extra);
        }
    }
}

/// Metric handles for a [`Journal`](crate::storage::Journal) backend.
///
/// Durations fed here are *virtual* (deterministic functions of the bytes
/// involved — see `crate::storage`), never wall time, so metric snapshots
/// stay byte-identical across reruns and thread counts.
#[derive(Debug, Clone)]
pub struct JournalObs {
    fsyncs_total: Counter,
    fsync_us: Histogram,
    compactions_total: Counter,
    compaction_us: Histogram,
}

impl JournalObs {
    /// Registers the `bft_journal_*` series in `obs`'s registry.
    #[must_use]
    pub fn new(obs: &Obs) -> JournalObs {
        JournalObs {
            fsyncs_total: obs.registry.counter("bft_journal_fsyncs_total"),
            fsync_us: obs.registry.histogram("bft_journal_fsync_us"),
            compactions_total: obs.registry.counter("bft_journal_compactions_total"),
            compaction_us: obs.registry.histogram("bft_journal_compaction_us"),
        }
    }

    /// One journal sync completed with the given virtual duration.
    pub fn fsync(&self, virtual_us: u64) {
        self.fsyncs_total.inc();
        self.fsync_us.observe(virtual_us);
    }

    /// One compaction completed with the given virtual duration.
    pub fn compaction(&self, virtual_us: u64) {
        self.compactions_total.inc();
        self.compaction_us.observe(virtual_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_cover_every_label() {
        use crate::crypto::Digest;
        use crate::messages::{CheckpointMsg, ConsensusMsg, Message};
        let sample = Message::Checkpoint {
            from: ReplicaId(0),
            msg: CheckpointMsg { seq: SeqNo(1), digest: Digest::of(b"x") },
        };
        assert!(MESSAGE_KINDS.contains(&sample.label()));
        let write = Message::Consensus {
            from: ReplicaId(0),
            msg: ConsensusMsg::Write { view: View(0), seq: SeqNo(1), digest: Digest::of(b"x") },
        };
        assert_eq!(kind_slot(write.label()), 2);
    }

    #[test]
    fn wire_obs_accounts_broadcast_fanout() {
        let obs = Obs::unclocked();
        let wire = WireObs::new(&obs);
        wire.sent("PROPOSE", 100, 3);
        wire.sent("WRITE", 80, 1);
        let snap = obs.registry.snapshot();
        let get = |name: &str| {
            snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert_eq!(get("bft_wire_messages_total{kind=\"PROPOSE\"}"), 3);
        assert_eq!(get("bft_wire_bytes_total{kind=\"PROPOSE\"}"), 300);
        assert_eq!(get("bft_wire_bytes_total{kind=\"WRITE\"}"), 80);
    }

    #[test]
    fn replica_obs_latency_runs_proposal_to_decide() {
        let clock = Arc::new(lazarus_obs::ManualClock::new());
        let obs = Obs::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut robs = ReplicaObs::new(ReplicaId(0));
        robs.attach(Instruments::new().with_obs(obs.clone()), View(0), ReplicaId(0));
        let ctx = TraceCtx::root(0, 0);
        clock.set(100);
        robs.record(ProtocolEvent::Proposed(SeqNo(1), View(0)), &ctx);
        clock.set(350);
        robs.record(ProtocolEvent::Decided(SeqNo(1), View(0), 4), &ctx);
        robs.record(ProtocolEvent::Executed(SeqNo(1), 4), &ctx);
        let snap = obs.registry.snapshot();
        let (_, hist) =
            snap.histograms.iter().find(|(n, _)| n == "bft_commit_latency_us").expect("registered");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 250);
        assert_eq!(
            snap.counters.iter().find(|(n, _)| n == "bft_requests_executed_total").unwrap().1,
            4
        );
    }
}
