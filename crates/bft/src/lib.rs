//! A BFT state-machine-replication library (the execution plane of Lazarus).
//!
//! A from-scratch, BFT-SMaRt-inspired replication kernel:
//!
//! * [`replica`] — the Mod-SMaRt-style replica state machine: pipelined
//!   PROPOSE/WRITE/ACCEPT consensus (up to a configurable window of slots
//!   in flight, executed in order) with Byzantine quorums, request
//!   watchdogs, STOP/STOP-DATA/SYNC leader change, quorum-stable
//!   checkpoints, state transfer, and controller-driven replica-set
//!   **reconfiguration** (the mechanism Lazarus uses to rotate diverse
//!   replicas in and out, paper §5.2/§7.3);
//! * [`client`] — the `f + 1`-matching-replies client;
//! * [`service`] — the deterministic state-machine trait applications
//!   implement;
//! * [`crypto`] — SHA-256 / HMAC-SHA256 and the simulated key
//!   distribution;
//! * [`consensus`], [`log`], [`messages`], [`types`] — the protocol
//!   building blocks;
//! * [`storage`] — pluggable durability behind the decided log: an
//!   in-memory backend and an append-only CRC-framed journal a rebooting
//!   replica recovers from;
//! * [`runtime`] — a threaded wall-clock runtime (one thread per replica,
//!   crossbeam channels as the network);
//! * [`testkit`] — a deterministic in-memory cluster for tests.
//!
//! Replicas are pure state machines (`input → Vec<Action>`), so the same
//! protocol code runs under the discrete-event performance simulator
//! (`lazarus-testbed`) and the threaded wall-clock runtime.
//!
//! # Example
//!
//! ```
//! use bytes::Bytes;
//! use lazarus_bft::client::Client;
//! use lazarus_bft::testkit::{TestCluster, TEST_SECRET};
//! use lazarus_bft::types::ClientId;
//!
//! let mut cluster = TestCluster::new(4, 1000);
//! let mut client = Client::new(ClientId(1), cluster.membership(), TEST_SECRET);
//! let result = cluster.run_client_op(&mut client, b"hello");
//! assert_eq!(&result[..], b"hello"); // echo service
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod consensus;
pub mod crypto;
pub mod log;
pub mod messages;
pub mod obs;
pub mod replica;
pub mod runtime;
pub mod service;
pub mod storage;
pub mod testkit;
pub mod types;

pub use client::Client;
pub use obs::Instruments;
pub use replica::{Action, Ctx, Replica, ReplicaConfig, Status, TimerId};
pub use service::Service;
pub use types::{ClientId, Epoch, Membership, ReplicaId, SeqNo, View};
