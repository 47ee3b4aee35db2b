//! Golden outputs of the replica's protocol-event sinks.
//!
//! Every protocol milestone a replica reaches is recorded once and fanned
//! out to four sinks: the metrics registry, the health tracker, the causal
//! flight recorder, and the tracer ring. This test pins all four, byte for
//! byte, on one small fixed-seed observed run that exercises the rare
//! paths as well as the common ones:
//!
//! * the initial leader (a journal-backed node) crashes and reboots from
//!   its journal — a view change plus a journal recovery;
//! * a joiner chunk-fetches the snapshot while a quarter of the chunk
//!   replies are corrupted in flight — a state transfer with rejected
//!   chunks;
//! * a controller reconfiguration adds the joiner — an epoch change.
//!
//! The fixtures live in `tests/fixtures/event_golden/`. After a deliberate
//! change to what the sinks record, regenerate them with
//! `LAZARUS_BLESS=1 cargo test -p lazarus-testbed --test event_golden` and
//! review the diff.

use std::path::{Path, PathBuf};

use bytes::Bytes;
use lazarus_bft::service::{BlobService, Service};
use lazarus_bft::types::{Epoch, Membership, ReplicaId};
use lazarus_testbed::cluster::{NetworkModel, SimCluster, SimConfig};
use lazarus_testbed::faults::{DiskFaults, FaultPlan};
use lazarus_testbed::oscatalog::PerfProfile;
use lazarus_testbed::sim::{Micros, MS};

const SEED: u64 = 7;
const HORIZON: Micros = 1100 * MS;
const BLOB: usize = 128 * 1024;

/// Runs the scenario and returns `(file name, contents)` for every output.
fn golden_run() -> Vec<(String, String)> {
    let fast_boot = PerfProfile { boot: 50 * MS, ..PerfProfile::bare_metal() };
    let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
    // A slow network and one closed-loop client keep the run to a few
    // dozen slots, so the fixtures stay small enough to review.
    let cfg = SimConfig {
        network: NetworkModel { latency: 5 * MS, ..NetworkModel::default() },
        checkpoint_period: 20,
        cst_chunk_bytes: 16 * 1024,
        ..SimConfig::default()
    };
    let mut sim = SimCluster::new_observed(cfg);
    sim.enable_flight(1 << 16);

    let dir = std::env::temp_dir().join(format!("lazarus_event_golden_{}_r0", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sim.register_scratch(dir.clone());
    sim.add_durable_node(
        ReplicaId(0),
        fast_boot,
        membership.clone(),
        &dir,
        Box::new(|| Box::new(BlobService::new(BLOB)) as Box<dyn Service>),
    )
    .expect("journal opens under the temp dir");
    for r in 1..4 {
        sim.add_node(ReplicaId(r), fast_boot, membership.clone(), Box::new(BlobService::new(BLOB)));
    }
    let joined = membership.reconfigured(Some(ReplicaId(4)), None);
    sim.boot_joiner_at(250 * MS, ReplicaId(4), fast_boot, joined, Box::new(BlobService::new(0)));
    sim.install_faults(
        FaultPlan::new(SEED)
            .crash_reboot(ReplicaId(0), 200 * MS, 700 * MS)
            .disk_faults(DiskFaults { corrupt_chunk_p: 0.25, ..DiskFaults::default() }),
    );
    sim.inject_reconfig_at(900 * MS, Epoch(0), Some(ReplicaId(4)), None);
    sim.add_clients(1, 1, membership, |_| Bytes::new());
    sim.run_until(HORIZON);

    let obs = sim.obs().expect("observed cluster");
    let mut out = vec![
        ("metrics.prom".to_string(), obs.registry.snapshot().to_prometheus()),
        ("health.json".to_string(), sim.health_snapshot().expect("observed").to_json() + "\n"),
        ("tracer.txt".to_string(), obs.tracer.recent().iter().map(|e| e.render() + "\n").collect()),
    ];
    for (id, events) in sim.flight_streams() {
        let stream: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        out.push((format!("replica_{id}.jsonl"), stream));
    }
    out
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/event_golden")
}

/// The first line where `want` and `got` differ, for a readable failure.
fn first_difference(want: &str, got: &str) -> String {
    let mut w = want.lines();
    let mut g = got.lines();
    for line in 1.. {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => return "same lines, different line endings".to_string(),
            (a, b) => return format!("line {line}:\n  want {a:?}\n  got  {b:?}"),
        }
    }
    unreachable!()
}

#[test]
fn protocol_event_sinks_match_golden_fixtures() {
    let outputs = golden_run();
    let metrics = &outputs[0].1;
    for (series, what) in [
        ("bft_view_changes_total", "a view change"),
        ("bft_checkpoints_total", "a checkpoint"),
        ("bft_state_transfers_total", "a state transfer"),
        ("bft_cst_chunks_rejected_total", "a rejected chunk"),
        ("bft_recovery_duration_us", "a journal recovery"),
    ] {
        let value = metrics
            .lines()
            .find_map(|l| l.strip_prefix(series).and_then(|v| v.trim().parse::<f64>().ok()))
            .unwrap_or(0.0);
        assert!(value > 0.0, "the golden run must cover {what} ({series} = {value})");
    }
    assert!(
        outputs[2].1.contains("replica.epoch_change"),
        "the golden run must cover an epoch change"
    );
    assert_eq!(outputs.len(), 3 + 5, "one flight stream per replica, joiner included");

    let dir = fixture_dir();
    if std::env::var_os("LAZARUS_BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("fixture dir");
        for (name, contents) in &outputs {
            std::fs::write(dir.join(name), contents).expect("write fixture");
        }
        return;
    }
    for (name, got) in &outputs {
        let want = std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); rerun with LAZARUS_BLESS=1"));
        assert!(want == *got, "{name} drifted from its golden fixture at {}", {
            first_difference(&want, got)
        });
    }
}
