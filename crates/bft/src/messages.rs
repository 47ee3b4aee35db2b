//! Protocol messages.
//!
//! The message vocabulary of a Mod-SMaRt-style protocol: client requests and
//! replies; the three-phase consensus messages (PROPOSE / WRITE / ACCEPT);
//! the leader-change messages (STOP / STOP-DATA / SYNC); checkpointing;
//! state transfer (CST); and the controller-signed reconfiguration command
//! that Lazarus uses to rotate replicas.
//!
//! The [`envelope`] module frames a serialized message with a versioned
//! header that can carry an optional causal [`TraceCtx`]; decoders that
//! predate the envelope skip the header by length and still recover the
//! payload.

use lazarus_obs::causal::TraceCtx;

use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::crypto::{AuthTag, Digest};
use crate::types::{ClientId, Epoch, Membership, ReplicaId, SeqNo, View};

/// A client operation to be totally ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Issuing client.
    pub client: ClientId,
    /// Client-local sequence number (for reply matching and dedup).
    pub op: u64,
    /// Opaque service payload.
    pub payload: Bytes,
    /// Client authentication tag.
    pub tag: AuthTag,
}

impl Request {
    /// Canonical digest of the request.
    pub fn digest(&self) -> Digest {
        Digest::of_parts(&[&self.client.0.to_be_bytes(), &self.op.to_be_bytes(), &self.payload])
    }

    /// The bytes the client tag authenticates.
    pub fn auth_bytes(client: ClientId, op: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(&client.0.to_be_bytes());
        out.extend_from_slice(&op.to_be_bytes());
        out.extend_from_slice(payload);
        out
    }
}

/// An ordered batch of requests (the value decided by one consensus
/// instance).
///
/// Cloning is O(1): the request slice lives behind an [`Arc`] shared by all
/// clones, and the batch digest is memoized in a [`OnceLock`] on the shared
/// allocation, so a batch is hashed at most once no matter how many times it
/// is proposed, logged, certified, or re-sent.
#[derive(Clone, Default)]
pub struct Batch {
    inner: Arc<BatchInner>,
}

#[derive(Default)]
struct BatchInner {
    /// Requests in proposal order.
    requests: Vec<Request>,
    /// Lazily-computed digest, shared by every clone.
    digest: OnceLock<Digest>,
}

impl Batch {
    /// Builds a batch from requests in proposal order.
    pub fn new(requests: Vec<Request>) -> Batch {
        Batch { inner: Arc::new(BatchInner { requests, digest: OnceLock::new() }) }
    }

    /// Requests in proposal order.
    pub fn requests(&self) -> &[Request] {
        &self.inner.requests
    }

    /// Digest of the batch (digest of the request digests, order-sensitive).
    ///
    /// Computed on first call and memoized; subsequent calls — including on
    /// clones made before or after the first call — return the cached value.
    pub fn digest(&self) -> Digest {
        *self.inner.digest.get_or_init(|| {
            let digests: Vec<[u8; 32]> = self.inner.requests.iter().map(|r| r.digest().0).collect();
            let parts: Vec<&[u8]> = digests.iter().map(|d| d.as_slice()).collect();
            Digest::of_parts(&parts)
        })
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.inner.requests.len()
    }

    /// True when the batch carries no requests.
    pub fn is_empty(&self) -> bool {
        self.inner.requests.is_empty()
    }
}

impl From<Vec<Request>> for Batch {
    fn from(requests: Vec<Request>) -> Batch {
        Batch::new(requests)
    }
}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batch").field("requests", &self.inner.requests).finish()
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Batch) -> bool {
        // Clones share the allocation; compare by content otherwise. The
        // memoized digest is deliberately excluded.
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.requests == other.inner.requests
    }
}

impl Eq for Batch {}

/// The reply sent back to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Responding replica.
    pub from: ReplicaId,
    /// The client's operation number this answers.
    pub op: u64,
    /// Service result.
    pub result: Bytes,
    /// Membership epoch at execution time (lets clients track
    /// reconfigurations).
    pub epoch: Epoch,
    /// Replica authentication tag.
    pub tag: AuthTag,
}

/// Consensus phase of one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusMsg {
    /// Leader's proposal of a batch for slot `seq`.
    Propose {
        /// Leader regency the proposal belongs to.
        view: View,
        /// Slot.
        seq: SeqNo,
        /// Proposed value.
        batch: Batch,
    },
    /// First echo phase: the replica vouches for the proposal digest.
    Write {
        /// Regency.
        view: View,
        /// Slot.
        seq: SeqNo,
        /// Digest of the proposed batch.
        digest: Digest,
    },
    /// Second phase: a write quorum was observed.
    Accept {
        /// Regency.
        view: View,
        /// Slot.
        seq: SeqNo,
        /// Digest of the proposed batch.
        digest: Digest,
    },
}

impl ConsensusMsg {
    /// The slot this message concerns.
    pub fn seq(&self) -> SeqNo {
        match self {
            ConsensusMsg::Propose { seq, .. }
            | ConsensusMsg::Write { seq, .. }
            | ConsensusMsg::Accept { seq, .. } => *seq,
        }
    }

    /// The regency this message belongs to.
    pub fn view(&self) -> View {
        match self {
            ConsensusMsg::Propose { view, .. }
            | ConsensusMsg::Write { view, .. }
            | ConsensusMsg::Accept { view, .. } => *view,
        }
    }
}

/// Evidence that a batch reached the WRITE quorum in some view — the value
/// a new leader must re-propose (carried in STOP-DATA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteCertificate {
    /// View in which the quorum was observed.
    pub view: View,
    /// Slot.
    pub seq: SeqNo,
    /// The batch itself (so the new leader can re-propose it).
    pub batch: Batch,
}

/// A reconfiguration command, authenticated by the controller's key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigCommand {
    /// Epoch this command applies to (guards against replay).
    pub epoch: Epoch,
    /// Replica joining, if any.
    pub add: Option<ReplicaId>,
    /// Replica leaving, if any.
    pub remove: Option<ReplicaId>,
    /// Controller tag over the command bytes.
    pub tag: AuthTag,
}

impl ReconfigCommand {
    /// The bytes the controller tag authenticates.
    pub fn auth_bytes(epoch: Epoch, add: Option<ReplicaId>, remove: Option<ReplicaId>) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&epoch.0.to_be_bytes());
        out.extend_from_slice(&add.map(|r| r.0 + 1).unwrap_or(0).to_be_bytes());
        out.extend_from_slice(&remove.map(|r| r.0 + 1).unwrap_or(0).to_be_bytes());
        out
    }
}

/// A checkpoint proof fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMsg {
    /// Last slot covered by the snapshot.
    pub seq: SeqNo,
    /// Digest of the service snapshot.
    pub digest: Digest,
}

/// Per-chunk digests of a snapshot split into fixed-size chunks.
///
/// The manifest is what CST repliers certify (`f + 1` matching summaries);
/// the chunk bytes themselves then stream in from *any* mix of peers in
/// [`Message::CstChunkReply`] messages, each verifiable in isolation
/// against its manifest digest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChunkManifest {
    /// Size of every chunk except possibly the last, in bytes.
    pub chunk_size: u32,
    /// Total snapshot length in bytes.
    pub total_len: u64,
    /// Digest of each chunk, in offset order (empty for an empty snapshot).
    pub chunks: Vec<Digest>,
}

impl ChunkManifest {
    /// Splits `snapshot` into `chunk_size`-byte chunks and digests each
    /// (`chunk_size` is clamped to at least 1).
    pub fn build(snapshot: &[u8], chunk_size: usize) -> ChunkManifest {
        let chunk_size = chunk_size.max(1);
        ChunkManifest {
            chunk_size: chunk_size as u32,
            total_len: snapshot.len() as u64,
            chunks: snapshot.chunks(chunk_size).map(Digest::of).collect(),
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The byte range of chunk `index` within the snapshot, `None` when out
    /// of range.
    pub fn chunk_range(&self, index: usize) -> Option<std::ops::Range<usize>> {
        if index >= self.chunks.len() {
            return None;
        }
        let start = index * self.chunk_size as usize;
        let end = (start + self.chunk_size as usize).min(self.total_len as usize);
        Some(start..end)
    }

    /// Chunk `index` of `snapshot`, `None` when out of range or when the
    /// snapshot is shorter than the manifest claims.
    pub fn slice<'a>(&self, snapshot: &'a [u8], index: usize) -> Option<&'a [u8]> {
        snapshot.get(self.chunk_range(index)?)
    }

    /// True when `data` is exactly chunk `index`: right length, right
    /// digest.
    pub fn verify_chunk(&self, index: usize, data: &[u8]) -> bool {
        match (self.chunk_range(index), self.chunks.get(index)) {
            (Some(range), Some(digest)) => range.len() == data.len() && Digest::of(data) == *digest,
            _ => false,
        }
    }

    /// Digest over the whole manifest (covered by the CST summary, so a
    /// certified summary pins every chunk digest).
    pub fn digest(&self) -> Digest {
        let mut parts: Vec<Vec<u8>> = vec![
            u64::from(self.chunk_size).to_be_bytes().to_vec(),
            self.total_len.to_be_bytes().to_vec(),
        ];
        for c in &self.chunks {
            parts.push(c.0.to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        Digest::of_parts(&refs)
    }
}

/// State-transfer reply: a stable checkpoint summary plus the decided
/// suffix. The snapshot bytes are *not* carried here — they stream in as
/// verified chunks ([`Message::CstChunkReply`]) named by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CstReply {
    /// Slot of the included checkpoint.
    pub checkpoint_seq: SeqNo,
    /// Digest of the whole snapshot.
    pub snapshot_digest: Digest,
    /// Per-chunk digests of the snapshot.
    pub manifest: ChunkManifest,
    /// Decided batches after the checkpoint, in slot order.
    pub suffix: Vec<(SeqNo, Batch)>,
    /// Membership at the reply.
    pub membership: Membership,
    /// Current view at the reply.
    pub view: View,
}

impl CstReply {
    /// Digest over everything [`CstReply::summary_digest`] covers *except*
    /// the decided suffix: checkpoint seq, snapshot digest, chunk manifest,
    /// and membership. Donors serving the same stable checkpoint share this
    /// base even when their live logs are caught at different decided
    /// points; certification then installs the longest suffix prefix the
    /// f + 1 base-matching donors agree on.
    pub fn base_digest(&self) -> Digest {
        let mut parts: Vec<Vec<u8>> = vec![
            self.checkpoint_seq.0.to_be_bytes().to_vec(),
            self.snapshot_digest.0.to_vec(),
            self.manifest.digest().0.to_vec(),
            self.membership.epoch.0.to_be_bytes().to_vec(),
        ];
        for r in &self.membership.replicas {
            parts.push(r.0.to_be_bytes().to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        Digest::of_parts(&refs)
    }

    /// Digest summarizing the reply (checkpoint digest + chunk manifest +
    /// suffix digests + membership), used to cross-check `f + 1` replies.
    pub fn summary_digest(&self) -> Digest {
        let mut parts: Vec<Vec<u8>> = vec![
            self.checkpoint_seq.0.to_be_bytes().to_vec(),
            self.snapshot_digest.0.to_vec(),
            self.manifest.digest().0.to_vec(),
            self.membership.epoch.0.to_be_bytes().to_vec(),
        ];
        for r in &self.membership.replicas {
            parts.push(r.0.to_be_bytes().to_vec());
        }
        for (seq, batch) in &self.suffix {
            parts.push(seq.0.to_be_bytes().to_vec());
            parts.push(batch.digest().0.to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        Digest::of_parts(&refs)
    }
}

/// Every replica-to-replica (and client-to-replica) message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A client request (possibly forwarded by another replica).
    Request(Request),
    /// A consensus-phase message.
    Consensus {
        /// Sending replica.
        from: ReplicaId,
        /// Phase payload.
        msg: ConsensusMsg,
    },
    /// Checkpoint announcement.
    Checkpoint {
        /// Sending replica.
        from: ReplicaId,
        /// Proof fragment.
        msg: CheckpointMsg,
    },
    /// Leader-change: `STOP` — the sender asks to move past `view`.
    Stop {
        /// Sending replica.
        from: ReplicaId,
        /// The view being abandoned.
        view: View,
    },
    /// Leader-change: `STOP-DATA` — the sender reports its prepared state to
    /// the leader of `new_view`.
    StopData {
        /// Sending replica.
        from: ReplicaId,
        /// The view being installed.
        new_view: View,
        /// Highest slot decided by the sender.
        last_decided: SeqNo,
        /// The sender's evidence for every in-flight window slot: write
        /// certificates where the ACCEPT phase was reached, plus the
        /// batches of slots decided out of order (not yet covered by
        /// `last_decided`), ordered by slot.
        prepared: Vec<WriteCertificate>,
    },
    /// Leader-change: `SYNC` — the new leader's installation message.
    Sync {
        /// Sending replica (the new leader).
        from: ReplicaId,
        /// The view being installed.
        new_view: View,
        /// The values that must be re-proposed before new proposals, ordered
        /// by slot: for each undecided window slot the highest write
        /// certificate among 2f+1 STOP-DATA messages (or an explicit no-op
        /// filler for a hole below a certified slot).
        repropose: Vec<WriteCertificate>,
    },
    /// State-transfer request: the sender wants everything after `from_seq`.
    CstRequest {
        /// Requesting replica.
        from: ReplicaId,
        /// Last slot the requester has applied.
        from_seq: SeqNo,
    },
    /// State-transfer reply (summary + suffix; snapshot bytes stream
    /// separately as chunks).
    CstReply {
        /// Replying replica.
        from: ReplicaId,
        /// Payload.
        reply: Box<CstReply>,
    },
    /// State-transfer chunk request: one snapshot chunk of the checkpoint
    /// at `seq`.
    CstChunkRequest {
        /// Requesting replica.
        from: ReplicaId,
        /// Checkpoint slot the chunk belongs to.
        seq: SeqNo,
        /// Chunk index within the manifest.
        index: u32,
    },
    /// State-transfer chunk reply: the snapshot bytes of one chunk,
    /// verifiable against the certified manifest.
    CstChunkReply {
        /// Replying replica.
        from: ReplicaId,
        /// Checkpoint slot the chunk belongs to.
        seq: SeqNo,
        /// Chunk index within the manifest.
        index: u32,
        /// The chunk bytes.
        data: Bytes,
    },
    /// A controller-issued reconfiguration (enters the total order like a
    /// request).
    Reconfig(ReconfigCommand),
}

impl Message {
    /// Short label for logs and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Message::Request(_) => "REQUEST",
            Message::Consensus { msg: ConsensusMsg::Propose { .. }, .. } => "PROPOSE",
            Message::Consensus { msg: ConsensusMsg::Write { .. }, .. } => "WRITE",
            Message::Consensus { msg: ConsensusMsg::Accept { .. }, .. } => "ACCEPT",
            Message::Checkpoint { .. } => "CHECKPOINT",
            Message::Stop { .. } => "STOP",
            Message::StopData { .. } => "STOP-DATA",
            Message::Sync { .. } => "SYNC",
            Message::CstRequest { .. } => "CST-REQUEST",
            Message::CstReply { .. } => "CST-REPLY",
            Message::CstChunkRequest { .. } => "CST-CHUNK-REQUEST",
            Message::CstChunkReply { .. } => "CST-CHUNK-REPLY",
            Message::Reconfig(_) => "RECONFIG",
        }
    }

    /// Approximate wire size in bytes (drives the performance model of the
    /// testbed; exact serialization is not required for the simulation).
    pub fn wire_size(&self) -> usize {
        const HEADER: usize = 48; // ids, view/seq numbers, tag
        match self {
            Message::Request(r) => HEADER + r.payload.len(),
            Message::Consensus { msg: ConsensusMsg::Propose { batch, .. }, .. } => {
                HEADER + batch.requests().iter().map(|r| 48 + r.payload.len()).sum::<usize>()
            }
            Message::Consensus { .. } => HEADER + 32,
            Message::Checkpoint { .. } => HEADER + 40,
            Message::Stop { .. } => HEADER,
            Message::StopData { prepared, .. } => {
                HEADER
                    + prepared
                        .iter()
                        .flat_map(|c| c.batch.requests().iter())
                        .map(|r| 48 + r.payload.len())
                        .sum::<usize>()
            }
            Message::Sync { repropose, .. } => {
                HEADER
                    + repropose
                        .iter()
                        .flat_map(|c| c.batch.requests().iter())
                        .map(|r| 48 + r.payload.len())
                        .sum::<usize>()
            }
            Message::CstRequest { .. } => HEADER,
            Message::CstReply { from: _, reply } => {
                HEADER
                    + 32
                    + 12
                    + 32 * reply.manifest.chunk_count()
                    + reply
                        .suffix
                        .iter()
                        .map(|(_, b)| {
                            b.requests().iter().map(|r| 48 + r.payload.len()).sum::<usize>()
                        })
                        .sum::<usize>()
            }
            Message::CstChunkRequest { .. } => HEADER + 12,
            Message::CstChunkReply { data, .. } => HEADER + 12 + data.len(),
            Message::Reconfig(_) => HEADER + 16,
        }
    }

    /// The sending replica, when the message has one (client requests and
    /// controller reconfigurations don't).
    pub fn sender(&self) -> Option<ReplicaId> {
        match self {
            Message::Consensus { from, .. }
            | Message::Checkpoint { from, .. }
            | Message::Stop { from, .. }
            | Message::StopData { from, .. }
            | Message::Sync { from, .. }
            | Message::CstRequest { from, .. }
            | Message::CstReply { from, .. }
            | Message::CstChunkRequest { from, .. }
            | Message::CstChunkReply { from, .. } => Some(*from),
            Message::Request(_) | Message::Reconfig(_) => None,
        }
    }

    /// The `(view, slot)` a consensus-phase message concerns, `None` for
    /// every other message kind.
    pub fn consensus_slot(&self) -> Option<(View, SeqNo)> {
        match self {
            Message::Consensus { msg, .. } => Some((msg.view(), msg.seq())),
            _ => None,
        }
    }
}

/// Versioned wire framing carrying an optional [`TraceCtx`] alongside a
/// serialized message payload.
///
/// Layout: `[MAGIC][VERSION][header_len: u16 BE][header][payload]` where
/// `header` is `[flags: u8]` followed by flag-gated extensions (today only
/// [`FLAG_TRACE_CTX`] → a 24-byte [`TraceCtx`]). `header_len` counts the
/// header bytes only, so a decoder skips flag-gated extensions it does not
/// understand and still recovers the payload: trace contexts are
/// forward-compatible metadata, never load-bearing.
pub mod envelope {
    use super::TraceCtx;

    /// First frame byte, guarding against mis-framed input.
    pub const MAGIC: u8 = 0xC7;
    /// Current envelope version.
    pub const VERSION: u8 = 1;
    /// Header flag: a 24-byte [`TraceCtx`] follows the flags byte.
    pub const FLAG_TRACE_CTX: u8 = 0b0000_0001;

    /// Frames `payload`, attaching `ctx` when present.
    #[must_use]
    pub fn encode(ctx: Option<&TraceCtx>, payload: &[u8]) -> Vec<u8> {
        let header_len = 1 + if ctx.is_some() { TraceCtx::WIRE_LEN } else { 0 };
        let mut out = Vec::with_capacity(4 + header_len + payload.len());
        out.push(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(header_len as u16).to_be_bytes());
        match ctx {
            Some(ctx) => {
                out.push(FLAG_TRACE_CTX);
                out.extend_from_slice(&ctx.encode());
            }
            None => out.push(0),
        }
        out.extend_from_slice(payload);
        out
    }

    /// Decodes a frame into its optional [`TraceCtx`] and payload after
    /// validating magic, version, and length. `None` on malformed input.
    ///
    /// Unknown header flags are ignored (their extension bytes, if any,
    /// were length-prefixed away by `header_len`), so a v1 decoder accepts
    /// frames from future encoders that only add flag-gated extensions.
    #[must_use]
    pub fn decode(frame: &[u8]) -> Option<(Option<TraceCtx>, &[u8])> {
        if frame.len() < 4 || frame[0] != MAGIC || frame[1] == 0 || frame[1] > VERSION {
            return None;
        }
        let header_len = usize::from(u16::from_be_bytes([frame[2], frame[3]]));
        let body = &frame[4..];
        if body.len() < header_len {
            return None;
        }
        let (header, payload) = body.split_at(header_len);
        let flags = *header.first()?;
        let ctx = if flags & FLAG_TRACE_CTX != 0 {
            Some(TraceCtx::decode(header.get(1..)?)?)
        } else {
            None
        };
        Some((ctx, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Keyring;

    fn request(client: u64, op: u64, payload: &[u8]) -> Request {
        let ring = Keyring::new(b"test");
        Request {
            client: ClientId(client),
            op,
            payload: Bytes::copy_from_slice(payload),
            tag: ring.sign(
                crate::crypto::Principal::Client(client),
                &Request::auth_bytes(ClientId(client), op, payload),
            ),
        }
    }

    #[test]
    fn request_digest_depends_on_content() {
        let a = request(1, 1, b"x");
        let b = request(1, 1, b"y");
        let c = request(1, 2, b"x");
        let d = request(2, 1, b"x");
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), d.digest());
        assert_eq!(a.digest(), request(1, 1, b"x").digest());
    }

    #[test]
    fn batch_digest_is_order_sensitive() {
        let a = request(1, 1, b"x");
        let b = request(2, 1, b"y");
        let ab = Batch::new(vec![a.clone(), b.clone()]);
        let ba = Batch::new(vec![b, a]);
        assert_ne!(ab.digest(), ba.digest());
        assert!(!ab.is_empty());
        assert_eq!(ab.len(), 2);
        assert!(Batch::default().is_empty());
    }

    #[test]
    fn consensus_accessors() {
        let m = ConsensusMsg::Write { view: View(3), seq: SeqNo(7), digest: Digest::ZERO };
        assert_eq!(m.seq(), SeqNo(7));
        assert_eq!(m.view(), View(3));
    }

    #[test]
    fn labels_and_sizes() {
        let r = request(1, 1, &[0u8; 100]);
        let msg = Message::Request(r.clone());
        assert_eq!(msg.label(), "REQUEST");
        assert!(msg.wire_size() >= 100);
        let propose = Message::Consensus {
            from: ReplicaId(0),
            msg: ConsensusMsg::Propose { view: View(0), seq: SeqNo(1), batch: Batch::new(vec![r]) },
        };
        assert_eq!(propose.label(), "PROPOSE");
        assert!(propose.wire_size() > msg.wire_size());
        let write = Message::Consensus {
            from: ReplicaId(0),
            msg: ConsensusMsg::Write { view: View(0), seq: SeqNo(1), digest: Digest::ZERO },
        };
        assert!(write.wire_size() < propose.wire_size());
    }

    #[test]
    fn reconfig_auth_bytes_distinguish_commands() {
        let a = ReconfigCommand::auth_bytes(Epoch(0), Some(ReplicaId(4)), Some(ReplicaId(1)));
        let b = ReconfigCommand::auth_bytes(Epoch(0), Some(ReplicaId(1)), Some(ReplicaId(4)));
        let c = ReconfigCommand::auth_bytes(Epoch(1), Some(ReplicaId(4)), Some(ReplicaId(1)));
        let d = ReconfigCommand::auth_bytes(Epoch(0), None, None);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn sender_and_slot_accessors() {
        let write = Message::Consensus {
            from: ReplicaId(2),
            msg: ConsensusMsg::Write { view: View(1), seq: SeqNo(9), digest: Digest::ZERO },
        };
        assert_eq!(write.sender(), Some(ReplicaId(2)));
        assert_eq!(write.consensus_slot(), Some((View(1), SeqNo(9))));
        let req = Message::Request(request(1, 1, b"x"));
        assert_eq!(req.sender(), None);
        assert_eq!(req.consensus_slot(), None);
    }

    #[test]
    fn envelope_round_trips_with_and_without_ctx() {
        let payload = b"serialized message bytes";
        let ctx = TraceCtx { trace_id: 77, parent_id: 5, span_id: 6 };
        let framed = envelope::encode(Some(&ctx), payload);
        assert_eq!(envelope::decode(&framed), Some((Some(ctx), payload.as_slice())));
        let bare = envelope::encode(None, payload);
        assert_eq!(envelope::decode(&bare), Some((None, payload.as_slice())));
        assert!(bare.len() < framed.len());
    }

    #[test]
    fn envelope_rejects_malformed_frames() {
        let good = envelope::encode(None, b"x");
        assert_eq!(envelope::decode(&[]), None);
        assert_eq!(envelope::decode(&good[..3]), None);
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(envelope::decode(&bad_magic), None);
        let mut future_version = good.clone();
        future_version[1] = envelope::VERSION + 1;
        assert_eq!(envelope::decode(&future_version), None);
        let mut truncated_header = envelope::encode(Some(&TraceCtx::root(1, 2)), b"x");
        truncated_header.truncate(8);
        assert_eq!(envelope::decode(&truncated_header), None);
    }

    proptest::proptest! {
        /// Any `TraceCtx` wire round-trips through the envelope.
        #[test]
        fn envelope_ctx_round_trip(
            trace_id in 0u64..=u64::MAX,
            parent_id in 0u64..=u64::MAX,
            span_id in 0u64..=u64::MAX,
            payload in "\\PC{0,64}",
        ) {
            let ctx = TraceCtx { trace_id, parent_id, span_id };
            let framed = envelope::encode(Some(&ctx), payload.as_bytes());
            let (decoded, body) = envelope::decode(&framed).expect("well-formed frame");
            proptest::prop_assert_eq!(decoded, Some(ctx));
            proptest::prop_assert_eq!(body, payload.as_bytes());
        }
    }

    #[test]
    fn cst_summary_digest_detects_divergence() {
        let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
        let state = b"the full service state";
        let base = CstReply {
            checkpoint_seq: SeqNo(10),
            snapshot_digest: Digest::of(state),
            manifest: ChunkManifest::build(state, 8),
            suffix: vec![(SeqNo(11), Batch::new(vec![request(1, 1, b"x")]))],
            membership: membership.clone(),
            view: View(0),
        };
        // the summary covers content, not who sent it
        assert_eq!(base.summary_digest(), base.clone().summary_digest());
        let diverged = CstReply { snapshot_digest: Digest::of(b"other"), ..base.clone() };
        assert_ne!(base.summary_digest(), diverged.summary_digest());
        // a different chunking of the same state is a different summary:
        // the manifest is pinned by certification, chunk by chunk
        let rechunked = CstReply { manifest: ChunkManifest::build(state, 4), ..base.clone() };
        assert_ne!(base.summary_digest(), rechunked.summary_digest());
        let longer = CstReply {
            suffix: vec![
                (SeqNo(11), Batch::new(vec![request(1, 1, b"x")])),
                (SeqNo(12), Batch::default()),
            ],
            ..base.clone()
        };
        assert_ne!(base.summary_digest(), longer.summary_digest());
    }

    #[test]
    fn chunk_manifest_splits_verifies_and_rejects() {
        let state: Vec<u8> = (0..100u8).collect();
        let manifest = ChunkManifest::build(&state, 32);
        assert_eq!(manifest.chunk_count(), 4);
        assert_eq!(manifest.total_len, 100);
        assert_eq!(manifest.chunk_range(3), Some(96..100));
        assert_eq!(manifest.chunk_range(4), None);
        for i in 0..manifest.chunk_count() {
            let chunk = manifest.slice(&state, i).expect("in range");
            assert!(manifest.verify_chunk(i, chunk));
        }
        // Wrong bytes, wrong length, wrong index all fail closed.
        assert!(!manifest.verify_chunk(0, &state[1..33]));
        assert!(!manifest.verify_chunk(3, &state[96..99]));
        assert!(!manifest.verify_chunk(9, &state[..32]));
        // Empty snapshot: no chunks, nothing to fetch.
        let empty = ChunkManifest::build(b"", 32);
        assert_eq!(empty.chunk_count(), 0);
        assert_eq!(empty.total_len, 0);
        // Reassembling every chunk reproduces the snapshot digest.
        let mut assembled = Vec::new();
        for i in 0..manifest.chunk_count() {
            assembled.extend_from_slice(manifest.slice(&state, i).expect("in range"));
        }
        assert_eq!(Digest::of(&assembled), Digest::of(&state));
    }

    #[test]
    fn chunk_message_labels_and_sizes() {
        let req = Message::CstChunkRequest { from: ReplicaId(4), seq: SeqNo(10), index: 2 };
        assert_eq!(req.label(), "CST-CHUNK-REQUEST");
        assert_eq!(req.sender(), Some(ReplicaId(4)));
        assert_eq!(req.consensus_slot(), None);
        let reply = Message::CstChunkReply {
            from: ReplicaId(1),
            seq: SeqNo(10),
            index: 2,
            data: Bytes::from_static(&[0u8; 256]),
        };
        assert_eq!(reply.label(), "CST-CHUNK-REPLY");
        assert_eq!(reply.sender(), Some(ReplicaId(1)));
        assert!(reply.wire_size() >= 256 + req.wire_size());
    }
}
