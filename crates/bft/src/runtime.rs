//! A threaded wall-clock runtime for the replication library.
//!
//! The replica state machines are runtime-agnostic; this module gives them a
//! real execution environment: one OS thread per replica, crossbeam
//! channels as the network, and wall-clock timers derived from the replica's
//! `SetTimer` hints. It is the runtime used by the Criterion wall-clock
//! benchmarks and by embedders that want actual concurrency rather than
//! virtual time (the discrete-event simulator lives in `lazarus-testbed`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use lazarus_obs::causal::{
    slot_trace_id, EventKind, FlightEvent, FlightRecorder, TraceCtx, NO_SPAN,
};
use lazarus_obs::profile::Profiler;
use lazarus_obs::{Gauge, HealthConfig, HealthTracker, Obs, WallClock};

use crate::client::Client;
use crate::messages::{Message, Reply};
use crate::obs::{Instruments, WireObs};
use crate::replica::{Action, Replica, ReplicaConfig, TimerId};
use crate::service::Service;
use crate::types::{ClientId, Epoch, Membership, ReplicaId};

enum Input {
    Msg(Arc<Message>, Option<TraceCtx>),
    Shutdown,
}

/// A root context with no trace: what a replica handles when the input
/// carried no [`TraceCtx`] (client traffic, startup actions).
const UNTRACED: TraceCtx = TraceCtx { trace_id: 0, parent_id: NO_SPAN, span_id: NO_SPAN };

/// Allocates a wire span for `message` leaving for `to`, records the
/// `send` event, and returns the context to attach on the wire. `None`
/// when the sender has no flight recorder (tracing off).
fn send_ctx(
    flight: Option<&FlightRecorder>,
    message: &Message,
    to: ReplicaId,
    handling: &TraceCtx,
) -> Option<TraceCtx> {
    let flight = flight?;
    let slot = message.consensus_slot();
    let trace_id = slot.map_or(handling.trace_id, |(_, seq)| slot_trace_id(seq.0));
    let ctx = TraceCtx { trace_id, parent_id: handling.span_id, span_id: flight.next_span() };
    flight.push(FlightEvent {
        at_us: flight.now_micros(),
        node: flight.node(),
        event: EventKind::Send,
        kind: message.label(),
        seq: slot.map(|(_, s)| s.0),
        view: slot.map(|(v, _)| v.0),
        peer: Some(to.0),
        trace_id: ctx.trace_id,
        parent_id: ctx.parent_id,
        span_id: ctx.span_id,
        extra: 0,
    });
    Some(ctx)
}

/// Records the `recv` event for an arriving message and returns the
/// handling context (a fresh span parented to the wire span). Without a
/// flight recorder the wire context is adopted as-is.
fn recv_ctx(
    flight: Option<&FlightRecorder>,
    message: &Message,
    wire: Option<TraceCtx>,
) -> Option<TraceCtx> {
    let Some(flight) = flight else { return wire };
    let slot = message.consensus_slot();
    let trace_id =
        wire.map(|c| c.trace_id).or_else(|| slot.map(|(_, seq)| slot_trace_id(seq.0))).unwrap_or(0);
    let ctx = TraceCtx {
        trace_id,
        parent_id: wire.map_or(NO_SPAN, |c| c.span_id),
        span_id: flight.next_span(),
    };
    flight.push(FlightEvent {
        at_us: flight.now_micros(),
        node: flight.node(),
        event: EventKind::Recv,
        kind: message.label(),
        seq: slot.map(|(_, s)| s.0),
        view: slot.map(|(v, _)| v.0),
        peer: message.sender().map(|r| r.0),
        trace_id: ctx.trace_id,
        parent_id: ctx.parent_id,
        span_id: ctx.span_id,
        extra: 0,
    });
    Some(ctx)
}

type ReplyRouter = Arc<Mutex<HashMap<ClientId, Sender<Reply>>>>;

/// A running cluster of replica threads.
pub struct ThreadCluster {
    inboxes: HashMap<u32, Sender<Input>>,
    membership: Membership,
    master_secret: Vec<u8>,
    router: ReplyRouter,
    handles: Vec<JoinHandle<()>>,
    running: Arc<AtomicBool>,
    obs: Option<Obs>,
    health: Option<HealthTracker>,
    flights: HashMap<u32, FlightRecorder>,
    profiler: Option<Profiler>,
}

impl std::fmt::Debug for ThreadCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCluster")
            .field("replicas", &self.inboxes.len())
            .field("running", &self.running.load(Ordering::Relaxed))
            .finish()
    }
}

impl ThreadCluster {
    /// Starts `n` replica threads running services from `make_service`.
    pub fn start<S, F>(n: u32, checkpoint_period: u64, make_service: F) -> ThreadCluster
    where
        S: Service + 'static,
        F: FnMut() -> S,
    {
        Self::start_inner(n, checkpoint_period, make_service, None)
    }

    /// As [`ThreadCluster::start`], with every replica instrumented against
    /// a fresh wall-clock [`Obs`] bundle (readable via
    /// [`ThreadCluster::obs`]).
    pub fn start_observed<S, F>(n: u32, checkpoint_period: u64, make_service: F) -> ThreadCluster
    where
        S: Service + 'static,
        F: FnMut() -> S,
    {
        let obs = Obs::new(Arc::new(WallClock::new()));
        Self::start_instrumented(
            n,
            checkpoint_period,
            make_service,
            Instruments::new().with_obs(obs),
        )
    }

    /// As [`ThreadCluster::start`], with every replica attached to the
    /// given [`Instruments`] base: the bundle's metrics, health tracker,
    /// and profiler are shared across all replica threads (a missing health
    /// tracker or profiler is derived from the bundle's `obs` when one is
    /// present). Per-replica flight recorders are always created internally
    /// — a recorder in `base` is ignored, since one shared ring cannot
    /// carry per-replica streams.
    pub fn start_instrumented<S, F>(
        n: u32,
        checkpoint_period: u64,
        make_service: F,
        base: Instruments,
    ) -> ThreadCluster
    where
        S: Service + 'static,
        F: FnMut() -> S,
    {
        Self::start_inner(n, checkpoint_period, make_service, Some(base))
    }

    fn start_inner<S, F>(
        n: u32,
        checkpoint_period: u64,
        mut make_service: F,
        base: Option<Instruments>,
    ) -> ThreadCluster
    where
        S: Service + 'static,
        F: FnMut() -> S,
    {
        let obs = base.as_ref().and_then(|b| b.obs.clone());
        let membership = Membership::new(Epoch(0), (0..n).map(ReplicaId).collect());
        let master_secret = b"lazarus-deployment".to_vec();
        let router: ReplyRouter = Arc::new(Mutex::new(HashMap::new()));
        let running = Arc::new(AtomicBool::new(true));

        let mut inboxes = HashMap::new();
        let mut rxs = Vec::new();
        for id in 0..n {
            let (tx, rx) = channel::unbounded();
            inboxes.insert(id, tx);
            rxs.push(rx);
        }

        // One shared health tracker across all replica threads: producer
        // hooks commute under its mutex, scores read from wall-clock
        // telemetry (best-effort, unlike the deterministic sim-time health
        // the testbed produces).
        let health = base
            .as_ref()
            .and_then(|b| b.health.clone())
            .or_else(|| obs.as_ref().map(|o| HealthTracker::new(HealthConfig::default(), o)));
        // One shared profiler across all replica threads: frame charges
        // commute under its mutex, and the per-replica root frames keep
        // the threads' stacks apart. Wall-clock scopes measure real CPU;
        // scope `sim_us` deltas follow the bundle's wall clock here.
        let profiler = base
            .as_ref()
            .and_then(|b| b.profiler.clone())
            .or_else(|| obs.as_ref().map(|o| Profiler::new(Arc::clone(o.clock()))));
        let mut handles = Vec::new();
        let mut flights = HashMap::new();
        for (id, rx) in (0..n).zip(rxs) {
            let mut cfg = ReplicaConfig::new(ReplicaId(id), membership.clone());
            cfg.checkpoint_period = checkpoint_period;
            cfg.master_secret = master_secret.clone();
            cfg.request_timeout = 50; // ms, wall clock
            let (mut replica, initial_actions) = Replica::new(cfg, make_service());
            let wire = obs.as_ref().map(WireObs::new);
            // Real inbox depth of this replica's channel, sampled on every
            // loop iteration (wall-clock telemetry; the deterministic
            // counterpart is the testbed's health-tick sampler).
            let inbox_gauge = obs.as_ref().map(|o| {
                o.registry.gauge_with("lazarus_queue_inbox_depth", &[("replica", &id.to_string())])
            });
            // An observed cluster also records causal flight events
            // (wall-clock stamps — best-effort, unlike the deterministic
            // sim-time streams the testbed produces).
            let flight = obs.as_ref().map(|o| {
                let rec = FlightRecorder::new(
                    id,
                    FlightRecorder::DEFAULT_CAPACITY,
                    Arc::clone(o.clock()),
                );
                flights.insert(id, rec.clone());
                rec
            });
            replica.attach(Instruments {
                obs: obs.clone(),
                health: health.clone(),
                flight: flight.clone(),
                profiler: profiler.clone(),
            });
            let peers = inboxes.clone();
            let router = Arc::clone(&router);
            let running = Arc::clone(&running);
            let health_tx = health.clone();
            handles.push(std::thread::spawn(move || {
                replica_loop(
                    replica,
                    rx,
                    peers,
                    router,
                    running,
                    initial_actions,
                    wire,
                    flight,
                    health_tx,
                    inbox_gauge,
                );
            }));
        }

        ThreadCluster {
            inboxes,
            membership,
            master_secret,
            router,
            handles,
            running,
            obs,
            health,
            flights,
            profiler,
        }
    }

    /// The instrumentation bundle, when started via
    /// [`ThreadCluster::start_observed`].
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// The shared health tracker, when started via
    /// [`ThreadCluster::start_observed`]. Call
    /// [`HealthTracker::snapshot`] to reduce the current windows.
    pub fn health(&self) -> Option<&HealthTracker> {
        self.health.as_ref()
    }

    /// The shared phase profiler, when started via
    /// [`ThreadCluster::start_observed`]. Snapshot it for a wall-clock
    /// phase profile of every replica thread.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// Replica `id`'s flight recorder (shares the ring with the replica
    /// thread), when started via [`ThreadCluster::start_observed`].
    pub fn flight(&self, id: u32) -> Option<&FlightRecorder> {
        self.flights.get(&id)
    }

    /// The cluster membership (for external clients).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Creates a blocking client handle.
    pub fn client(&self, id: u64) -> ThreadClient {
        let (tx, rx) = channel::unbounded();
        self.router.lock().insert(ClientId(id), tx);
        ThreadClient {
            client: Client::new(ClientId(id), self.membership.clone(), &self.master_secret),
            inboxes: self.inboxes.clone(),
            replies: rx,
        }
    }

    /// Stops every replica thread and joins them.
    pub fn shutdown(mut self) {
        self.running.store(false, Ordering::Relaxed);
        for tx in self.inboxes.values() {
            let _ = tx.send(Input::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn replica_loop<S: Service>(
    mut replica: Replica<S>,
    rx: Receiver<Input>,
    peers: HashMap<u32, Sender<Input>>,
    router: ReplyRouter,
    running: Arc<AtomicBool>,
    initial_actions: Vec<Action>,
    wire: Option<WireObs>,
    flight: Option<FlightRecorder>,
    health: Option<HealthTracker>,
    inbox_gauge: Option<Gauge>,
) {
    let me = replica.id().0;
    let mut timers: HashMap<TimerId, Instant> = HashMap::new();
    let apply =
        |actions: Vec<Action>, timers: &mut HashMap<TimerId, Instant>, handling: TraceCtx| {
            for action in actions {
                match action {
                    Action::Send(to, message) => {
                        if let Some(wire) = &wire {
                            wire.sent(message.label(), message.wire_size(), 1);
                        }
                        if let Some(health) = &health {
                            health.seen(me);
                        }
                        let ctx = send_ctx(flight.as_ref(), &message, to, &handling);
                        if let Some(tx) = peers.get(&to.0) {
                            let _ = tx.send(Input::Msg(Arc::new(message), ctx));
                        }
                    }
                    Action::Broadcast(peers_list, message) => {
                        if let Some(wire) = &wire {
                            wire.sent(message.label(), message.wire_size(), peers_list.len());
                        }
                        if let Some(health) = &health {
                            health.seen(me);
                        }
                        // One shared allocation fanned out to every peer inbox;
                        // each copy gets its own wire span (distinct DAG edges).
                        for to in peers_list {
                            let ctx = send_ctx(flight.as_ref(), &message, to, &handling);
                            if let Some(tx) = peers.get(&to.0) {
                                let _ = tx.send(Input::Msg(Arc::clone(&message), ctx));
                            }
                        }
                    }
                    Action::SendClient(client, reply) => {
                        if let Some(tx) = router.lock().get(&client) {
                            let _ = tx.send(reply);
                        }
                    }
                    Action::SetTimer(timer, hint_ms) => {
                        timers.insert(timer, Instant::now() + Duration::from_millis(hint_ms));
                    }
                    Action::CancelTimer(timer) => {
                        timers.remove(&timer);
                    }
                    _ => {}
                }
            }
        };
    apply(initial_actions, &mut timers, UNTRACED);

    while running.load(Ordering::Relaxed) {
        let next_deadline = timers.values().min().copied();
        let timeout = next_deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(Input::Msg(message, wire_ctx)) => {
                if let Some(gauge) = &inbox_gauge {
                    gauge.set(rx.len() as f64);
                }
                let ctx = recv_ctx(flight.as_ref(), &message, wire_ctx);
                let message = Arc::try_unwrap(message).unwrap_or_else(|shared| (*shared).clone());
                let actions = replica.on_message(message, ctx.into());
                apply(actions, &mut timers, ctx.unwrap_or(UNTRACED));
            }
            Ok(Input::Shutdown) => break,
            Err(channel::RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                let due: Vec<TimerId> =
                    timers.iter().filter(|(_, &d)| d <= now).map(|(&t, _)| t).collect();
                for timer in due {
                    timers.remove(&timer);
                    // A timer is a causal root of everything it triggers.
                    let ctx = flight
                        .as_ref()
                        .map(|f| f.protocol(EventKind::Timer, None, None, &UNTRACED, 0));
                    let actions = replica.on_timer(timer, ctx.into());
                    apply(actions, &mut timers, ctx.unwrap_or(UNTRACED));
                }
            }
            Err(channel::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// A blocking client over the threaded cluster.
#[derive(Debug)]
pub struct ThreadClient {
    client: Client,
    inboxes: HashMap<u32, Sender<Input>>,
    replies: Receiver<Reply>,
}

/// Error returned when an invocation does not complete in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeTimeout;

impl std::fmt::Display for InvokeTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("operation timed out waiting for f+1 matching replies")
    }
}

impl std::error::Error for InvokeTimeout {}

impl ThreadClient {
    /// Invokes one operation and blocks until `f + 1` matching replies
    /// arrive (retransmitting every 500 ms).
    ///
    /// # Errors
    ///
    /// Returns [`InvokeTimeout`] after `timeout`.
    pub fn invoke(&mut self, payload: Bytes, timeout: Duration) -> Result<Bytes, InvokeTimeout> {
        let deadline = Instant::now() + timeout;
        for (to, message) in self.client.invoke(payload) {
            if let Some(tx) = self.inboxes.get(&to.0) {
                let _ = tx.send(Input::Msg(Arc::new(message), None));
            }
        }
        let mut next_retry = Instant::now() + Duration::from_millis(500);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(InvokeTimeout);
            }
            let wait = next_retry.min(deadline).saturating_duration_since(now);
            match self.replies.recv_timeout(wait) {
                Ok(reply) => {
                    if let Some(done) = self.client.on_reply(reply) {
                        return Ok(done.result);
                    }
                }
                Err(channel::RecvTimeoutError::Timeout) => {
                    if Instant::now() >= next_retry {
                        for (to, message) in self.client.retransmit() {
                            if let Some(tx) = self.inboxes.get(&to.0) {
                                let _ = tx.send(Input::Msg(Arc::new(message), None));
                            }
                        }
                        next_retry = Instant::now() + Duration::from_millis(500);
                    }
                }
                Err(channel::RecvTimeoutError::Disconnected) => return Err(InvokeTimeout),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::CounterService;

    #[test]
    fn threaded_cluster_serves_operations() {
        let cluster = ThreadCluster::start(4, 10_000, CounterService::new);
        let mut client = cluster.client(1);
        for i in 0..20u32 {
            let payload = Bytes::copy_from_slice(&i.to_be_bytes());
            let reply = client.invoke(payload.clone(), Duration::from_secs(5)).expect("completes");
            assert_eq!(reply, payload);
        }
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_make_progress() {
        let cluster = ThreadCluster::start(4, 10_000, CounterService::new);
        let mut joins = Vec::new();
        for c in 1..=4u64 {
            let mut client = cluster.client(c);
            joins.push(std::thread::spawn(move || {
                for i in 0..10u32 {
                    let payload = Bytes::from(format!("c{c}-{i}"));
                    let reply =
                        client.invoke(payload.clone(), Duration::from_secs(10)).expect("completes");
                    assert_eq!(reply, payload);
                }
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
        cluster.shutdown();
    }

    #[test]
    fn observed_cluster_accounts_wire_traffic() {
        let cluster = ThreadCluster::start_observed(4, 10_000, CounterService::new);
        let mut client = cluster.client(1);
        for i in 0..5u32 {
            let payload = Bytes::copy_from_slice(&i.to_be_bytes());
            client.invoke(payload, Duration::from_secs(5)).expect("completes");
        }
        let snap = cluster.obs().expect("observed").registry.snapshot();
        let get = |name: &str| {
            snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert!(get("bft_wire_messages_total{kind=\"PROPOSE\"}") >= 5);
        assert!(get("bft_wire_bytes_total{kind=\"WRITE\"}") > 0);
        // The client returns on f+1 matching replies, so stragglers may not
        // have decided every slot yet — a quorum has, though.
        assert!(get("bft_slots_decided_total") >= 5 * 3, "a quorum decides every slot");
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "bft_commit_latency_us")
            .expect("latency histogram registered");
        assert!(hist.count >= 5 * 3);
        cluster.shutdown();
    }

    #[test]
    fn observed_cluster_records_causal_flight_events() {
        use lazarus_obs::causal::EventKind;
        let cluster = ThreadCluster::start_observed(4, 10_000, CounterService::new);
        let mut client = cluster.client(1);
        for i in 0..3u32 {
            let payload = Bytes::copy_from_slice(&i.to_be_bytes());
            client.invoke(payload, Duration::from_secs(5)).expect("completes");
        }
        // Collect every replica's stream; the wire spans recorded at a
        // sender must be the parents adopted by receivers.
        let mut spans = std::collections::HashSet::new();
        let mut events = Vec::new();
        for id in 0..4 {
            let flight = cluster.flight(id).expect("observed cluster records flight");
            for ev in flight.events() {
                spans.insert(ev.span_id);
                events.push(ev);
            }
        }
        cluster.shutdown();
        let recvs: Vec<_> =
            events.iter().filter(|e| e.event == EventKind::Recv && e.parent_id != 0).collect();
        assert!(!recvs.is_empty(), "replica-to-replica traffic records recv events");
        for recv in &recvs {
            assert!(spans.contains(&recv.parent_id), "recv parent is a recorded send span");
        }
        // Protocol milestones landed in the same streams, linked to slots.
        assert!(events
            .iter()
            .any(|e| e.event == EventKind::Commit && e.trace_id == slot_trace_id(1)));
    }

    #[test]
    fn shutdown_is_clean() {
        let cluster = ThreadCluster::start(4, 10_000, CounterService::new);
        cluster.shutdown(); // no hang, no panic
    }
}
