//! The binary frame codec: how a [`WireMessage`] crosses a socket. It is
//! the one binary format of the repo — the rejoin snapshot of a store
//! travels as a frame too ([`FailoverControl::Snapshot`]) — versioned,
//! checksummed, bounds-checked, with every field in a fixed order:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SSNF"
//! 4       4     format (u32 LE, currently 3)
//! 8       4     payload length (u32 LE)
//! 12      8     checksum of the payload (u64 LE, specsync_ps::checksum)
//! 20      n     payload: tag byte, then the variant's fields
//! ```
//!
//! The [`checksum`] is FNV-1a on payloads of at most 1 MiB, so formats 2
//! and 3 changed only larger frames: format 2 folded the FNV-1a of each
//! 1 MiB segment, format 3 hashes each segment eight bytes at a time.
//! Integers are little-endian; floats are raw IEEE-754 bits (bit-exact
//! round-trip, no text formatting); slices and strings are length-prefixed.
//! Decoding demands an exact fit — trailing bytes are as fatal as missing
//! ones — so any single flipped byte in a frame is rejected (magic, format,
//! length and checksum cover the header; the checksum covers the payload).
//! A frame vouches for its bytes, not for what they mean: a snapshot
//! decodes as it was sent, and
//! [`ParameterStore::restore`](specsync_ps::ParameterStore::restore)
//! checks it against the store's invariants.

use std::fmt;
use std::io::{self, Read, Write};
use std::mem;

use specsync_ps::{checksum, checksum_filled, le_floats, PushPayload, StoreCheckpoint};
use specsync_simnet::WorkerId;
use specsync_tensor::SparseGrad;

use crate::wire::{FailoverControl, WireMessage};

/// Frame magic: `SSNF`, SpecSync Net Frame.
pub const MAGIC: [u8; 4] = *b"SSNF";
/// Current frame format version.
pub const FORMAT: u32 = 3;
/// Bytes before the payload: magic, format, length, checksum.
pub const HEADER_LEN: usize = 20;
/// Upper bound on a payload a peer may ask us to buffer (256 MiB — far
/// above any model this repo trains, far below a hostile length field).
pub const PAYLOAD_LIMIT: usize = 256 << 20;
/// Upper bound on a sparse gradient's declared dimension: the dimension
/// of the largest dense gradient a frame can carry (`PAYLOAD_LIMIT` / 4
/// bytes per f32). `dim` sizes decoder-side scratch without contributing
/// bytes to the payload, so the usual remaining-bytes bound on length
/// prefixes cannot cover it.
pub const MAX_SPARSE_DIM: u64 = (PAYLOAD_LIMIT / 4) as u64;
/// Upper bound (exclusive) on a worker id a frame may name. Stores and
/// hosts size per-worker tables by the largest id they have seen, so an
/// unbounded id would let one frame force a huge allocation.
pub const MAX_WORKERS: u64 = 1 << 16;

const TAG_PULL: u8 = 0;
const TAG_PULL_REPLY: u8 = 1;
const TAG_PUSH: u8 = 2;
const TAG_PUSH_ACK: u8 = 3;
const TAG_NOTIFY: u8 = 4;
// Tag 5 (`Check`) is retired: it decodes as a bad tag.
const TAG_ABORT: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_FAILOVER: u8 = 8;
const TAG_SHUTDOWN: u8 = 9;
const TAG_RELAY_PUSH: u8 = 10;
const TAG_RELAY_TAG: u8 = 11;

/// Encoded size of a [`WireMessage::RelayTag`] frame: header, tag byte,
/// `seq`, `lr`. The shard server reserves this much room in front of every
/// frame it receives, so a relayed `Push` leaves behind its tag in one
/// write.
pub const RELAY_TAG_FRAME_LEN: usize = HEADER_LEN + 1 + 8 + 4;

// Failover sub-tags 0 (`Crash`), 3 (`Recover`), 4 (`Ack`), 9
// (`SnapshotChunk`) and 10 (`CatchUp`) are retired: they decode as a bad
// sub-tag.
const FC_PROMOTE: u8 = 1;
const FC_PROMOTED: u8 = 2;
const FC_REGISTER: u8 = 5;
const FC_QUERY_PRIMARY: u8 = 6;
const FC_PRIMARY: u8 = 7;
const FC_JOIN_AS_BACKUP: u8 = 8;
const FC_BACKUP_READY: u8 = 11;
const FC_SNAPSHOT: u8 = 12;

const PAYLOAD_DENSE: u8 = 0;
const PAYLOAD_SPARSE: u8 = 1;

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not `SSNF`.
    BadMagic,
    /// The format version is not one this build reads.
    UnsupportedFormat {
        /// The version found in the header.
        found: u32,
    },
    /// The buffer ended before the advertised payload did.
    Truncated,
    /// The payload does not hash to the header checksum.
    ChecksumMismatch,
    /// Structurally invalid payload (bad tag, bad length, bad value).
    Malformed(&'static str),
    /// The header advertises a payload beyond [`PAYLOAD_LIMIT`].
    TooLarge {
        /// The advertised payload length.
        len: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic (want SSNF)"),
            FrameError::UnsupportedFormat { found } => {
                write!(
                    f,
                    "unsupported frame format {found} (this build reads {FORMAT})"
                )
            }
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::TooLarge { len } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {PAYLOAD_LIMIT}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The frame [`checksum`] of a payload of at most 1 MiB; re-exported for
/// the benchmark, which times it.
pub use specsync_simnet::fnv1a;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Floats converted per stack block by [`put_f32_slice`]: 4 KiB, well
/// inside L1.
const STAGE: usize = 1024;

/// Reserves once, then converts a stack block at a time and appends it:
/// each byte of `out` is written once, with no zero-fill ahead of the copy
/// and no per-element capacity check.
fn put_f32_slice(out: &mut Vec<u8>, vs: &[f32]) {
    put_u64(out, vs.len() as u64);
    out.reserve(vs.len() * 4);
    let mut block = [[0u8; 4]; STAGE];
    for chunk in vs.chunks(STAGE) {
        for (dst, v) in block.iter_mut().zip(chunk) {
            *dst = v.to_le_bytes();
        }
        out.extend_from_slice(block[..chunk.len()].as_flattened());
    }
}

/// Writes bytes `at .. at + dst.len()` of the little-endian encoding of
/// `vs` into `dst`: one segment's share of a dense field. A segment edge
/// can cut a float, so the first and last float may be written in part.
fn put_f32_bytes(vs: &[f32], at: usize, dst: &mut [u8]) {
    let (first, skip) = (at / 4, at % 4);
    let (lead, rest) = dst.split_at_mut(((4 - skip) % 4).min(dst.len()));
    if !lead.is_empty() {
        lead.copy_from_slice(&vs[first].to_le_bytes()[skip..skip + lead.len()]);
    }
    let next = first + usize::from(skip != 0);
    let (whole, tail) = rest.as_chunks_mut::<4>();
    for (dst, v) in whole.iter_mut().zip(&vs[next..]) {
        *dst = v.to_le_bytes();
    }
    if !tail.is_empty() {
        tail.copy_from_slice(&vs[next + whole.len()].to_le_bytes()[..tail.len()]);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_u64_slice(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v);
    }
}

fn put_worker(out: &mut Vec<u8>, w: WorkerId) {
    put_u64(out, w.index() as u64);
}

fn put_push_payload(out: &mut Vec<u8>, payload: &PushPayload) {
    match payload {
        PushPayload::Dense(grad) => {
            out.push(PAYLOAD_DENSE);
            put_f32_slice(out, grad);
        }
        PushPayload::Sparse(grad) => {
            out.push(PAYLOAD_SPARSE);
            put_u64(out, grad.dim() as u64);
            put_u64(out, grad.nnz() as u64);
            for (index, value) in grad.iter() {
                put_u64(out, index as u64);
                put_f32(out, value);
            }
        }
    }
}

/// Appends `msg`'s payload to `out`. [`encode_frame_into`] writes a
/// frame that ends in a dense float slice through [`seal_dense`] instead;
/// those arms are the two-pass form (append, then hash) the tests hold
/// the fused writer to.
fn encode_payload(msg: &WireMessage, out: &mut Vec<u8>) {
    match msg {
        WireMessage::Pull { worker } => {
            out.push(TAG_PULL);
            put_worker(out, *worker);
        }
        WireMessage::PullReply { version, params } => {
            out.push(TAG_PULL_REPLY);
            put_u64(out, *version);
            put_f32_slice(out, params);
        }
        WireMessage::Push { worker, payload } => {
            out.push(TAG_PUSH);
            put_worker(out, *worker);
            put_push_payload(out, payload);
        }
        WireMessage::RelayPush {
            seq,
            worker,
            lr,
            payload,
        } => {
            out.push(TAG_RELAY_PUSH);
            put_u64(out, *seq);
            put_worker(out, *worker);
            put_f32(out, *lr);
            put_push_payload(out, payload);
        }
        WireMessage::RelayTag { seq, lr } => {
            out.push(TAG_RELAY_TAG);
            put_u64(out, *seq);
            put_f32(out, *lr);
        }
        WireMessage::PushAck {
            version,
            pushes_by_worker,
        } => {
            out.push(TAG_PUSH_ACK);
            put_u64(out, *version);
            put_u64(out, *pushes_by_worker);
        }
        WireMessage::Notify { worker, pushes } => {
            out.push(TAG_NOTIFY);
            put_worker(out, *worker);
            put_u64(out, *pushes);
        }
        WireMessage::Abort { worker } => {
            out.push(TAG_ABORT);
            put_worker(out, *worker);
        }
        WireMessage::Heartbeat { worker } => {
            out.push(TAG_HEARTBEAT);
            put_worker(out, *worker);
        }
        WireMessage::Failover(control) => {
            out.push(TAG_FAILOVER);
            match control {
                FailoverControl::Promote { server } => {
                    out.push(FC_PROMOTE);
                    put_u64(out, *server);
                }
                FailoverControl::Promoted {
                    server,
                    version,
                    replayed,
                } => {
                    out.push(FC_PROMOTED);
                    put_u64(out, *server);
                    put_u64(out, *version);
                    put_u64(out, *replayed);
                }
                FailoverControl::Register {
                    server,
                    backup,
                    addr,
                } => {
                    out.push(FC_REGISTER);
                    put_u64(out, *server);
                    out.push(u8::from(*backup));
                    put_str(out, addr);
                }
                FailoverControl::QueryPrimary => {
                    out.push(FC_QUERY_PRIMARY);
                }
                FailoverControl::Primary { addr, epoch } => {
                    out.push(FC_PRIMARY);
                    put_str(out, addr);
                    put_u64(out, *epoch);
                }
                FailoverControl::JoinAsBackup { server, addr } => {
                    out.push(FC_JOIN_AS_BACKUP);
                    put_u64(out, *server);
                    put_str(out, addr);
                }
                FailoverControl::Snapshot(snapshot) => {
                    out.push(FC_SNAPSHOT);
                    put_u64(out, snapshot.num_shards as u64);
                    put_u64(out, snapshot.version);
                    put_f32(out, snapshot.momentum);
                    put_f32_slice(out, &snapshot.params);
                    put_f32_slice(out, &snapshot.velocity);
                    put_u64_slice(out, &snapshot.pushes_per_worker);
                    put_u64_slice(out, &snapshot.last_pull_version);
                }
                FailoverControl::BackupReady { server, version } => {
                    out.push(FC_BACKUP_READY);
                    put_u64(out, *server);
                    put_u64(out, *version);
                }
            }
        }
        WireMessage::Shutdown => {
            out.push(TAG_SHUTDOWN);
        }
    }
}

/// Encodes one message as a complete frame (header + payload).
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the payload exceeds [`PAYLOAD_LIMIT`]:
/// every receiver would reject such a frame anyway, and a payload past
/// `u32::MAX` would silently truncate the length field and corrupt the
/// stream, so the sender refuses to put it on the wire at all. A bulk
/// field alone past the limit is refused before anything is allocated.
pub fn encode_frame(msg: &WireMessage) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::new();
    encode_frame_into(msg, &mut out)?;
    Ok(out)
}

/// [`encode_frame`] into a buffer the caller keeps: `out` holds exactly
/// the frame afterwards, so a buffer reused across frames allocates only
/// when a frame outgrows every earlier one. A frame that ends in a dense
/// float slice is written over the buffer's old bytes and hashed a
/// segment at a time as it is written. On an error its contents are
/// unspecified.
///
/// # Errors
///
/// As [`encode_frame`].
pub fn encode_frame_into(msg: &WireMessage, out: &mut Vec<u8>) -> Result<(), FrameError> {
    match DenseHead::of(msg) {
        Some((head, floats)) => seal_dense(out, head, floats),
        None => seal(out, bulk_len(msg), |out| encode_payload(msg, out)),
    }
}

/// Whether `msg`'s frame ends in a dense float slice: a `PullReply`, or a
/// `Push` or `RelayPush` of a dense gradient.
pub(crate) fn ends_dense(msg: &WireMessage) -> bool {
    DenseHead::of(msg).is_some()
}

/// The `PullReply` frame of `version` encoded straight from the floats
/// where they live, as [`encode_frame_into`] encodes one: the shard's
/// pull-reply cache is rebuilt from its store this way, with no owned
/// snapshot in between.
pub(crate) fn encode_pull_reply_into(
    version: u64,
    params: &[f32],
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    seal_dense(out, DenseHead::PullReply { version }, params)
}

/// Frames what `payload` writes: header first, then the payload, then
/// the length and checksum the header could only take once the payload
/// was written. `bulk` is [`bulk_len`]'s figure.
fn seal(
    out: &mut Vec<u8>,
    bulk: usize,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), FrameError> {
    if bulk > PAYLOAD_LIMIT {
        return Err(FrameError::TooLarge { len: bulk as u64 });
    }
    out.clear();
    // Sized up front: header, the fixed fields (well under 64 bytes for
    // every variant with a bulk field), and the bulk field.
    out.reserve(HEADER_LEN + 64 + bulk);
    out.resize(HEADER_LEN, 0);
    payload(out);
    let payload_len = out.len() - HEADER_LEN;
    if payload_len > PAYLOAD_LIMIT {
        return Err(FrameError::TooLarge {
            len: payload_len as u64,
        });
    }
    let sum = checksum(&out[HEADER_LEN..]);
    put_header(out, payload_len, sum);
    Ok(())
}

/// The fields in front of the dense float slice that ends a `PullReply`,
/// or a `Push` or `RelayPush` of a dense gradient.
#[derive(Debug, Clone, Copy)]
enum DenseHead {
    PullReply { version: u64 },
    Push { worker: WorkerId },
    RelayPush { seq: u64, worker: WorkerId, lr: f32 },
}

impl DenseHead {
    /// `msg`'s head and float slice, or `None` for a message that does not
    /// end in a dense float slice.
    fn of(msg: &WireMessage) -> Option<(DenseHead, &[f32])> {
        match msg {
            WireMessage::PullReply { version, params } => {
                Some((DenseHead::PullReply { version: *version }, params))
            }
            WireMessage::Push {
                worker,
                payload: PushPayload::Dense(grad),
            } => Some((DenseHead::Push { worker: *worker }, grad)),
            WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload: PushPayload::Dense(grad),
            } => Some((
                DenseHead::RelayPush {
                    seq: *seq,
                    worker: *worker,
                    lr: *lr,
                },
                grad,
            )),
            WireMessage::Push { .. }
            | WireMessage::RelayPush { .. }
            | WireMessage::Pull { .. }
            | WireMessage::PushAck { .. }
            | WireMessage::Notify { .. }
            | WireMessage::Abort { .. }
            | WireMessage::Heartbeat { .. }
            | WireMessage::Failover(_)
            | WireMessage::Shutdown
            | WireMessage::RelayTag { .. } => None,
        }
    }

    /// Hands `put` the bytes of each field in frame order, as
    /// [`encode_payload`] writes them, up to the float slice's length
    /// prefix.
    fn put(self, mut put: impl FnMut(&[u8])) {
        match self {
            DenseHead::PullReply { version } => {
                put(&[TAG_PULL_REPLY]);
                put(&version.to_le_bytes());
            }
            DenseHead::Push { worker } => {
                put(&[TAG_PUSH]);
                put(&(worker.index() as u64).to_le_bytes());
                put(&[PAYLOAD_DENSE]);
            }
            DenseHead::RelayPush { seq, worker, lr } => {
                put(&[TAG_RELAY_PUSH]);
                put(&seq.to_le_bytes());
                put(&(worker.index() as u64).to_le_bytes());
                put(&lr.to_bits().to_le_bytes());
                put(&[PAYLOAD_DENSE]);
            }
        }
    }
}

/// [`seal`] for a frame that ends in `floats`, written in one pass: the
/// header's fixed part, `head` and the slice's length prefix over the
/// front of `out`, then each segment has its floats written and is hashed
/// while it is in cache ([`checksum_filled`], which keeps a payload of one
/// segment on the caller). A buffer at least as long as the frame is cut
/// to it and overwritten in place; a shorter one is zero-filled only
/// where it grows.
fn seal_dense(out: &mut Vec<u8>, head: DenseHead, floats: &[f32]) -> Result<(), FrameError> {
    let mut from = 8;
    head.put(|field| from += field.len());
    let bulk = floats.len() * 4;
    let payload_len = from + bulk;
    if bulk > PAYLOAD_LIMIT {
        return Err(FrameError::TooLarge { len: bulk as u64 });
    }
    if payload_len > PAYLOAD_LIMIT {
        return Err(FrameError::TooLarge {
            len: payload_len as u64,
        });
    }
    let frame_len = HEADER_LEN + payload_len;
    if out.capacity() < frame_len {
        // Nothing in `out` survives: a fresh zeroed buffer, not a copy.
        *out = vec![0; frame_len];
    } else {
        out.resize(frame_len, 0);
    }
    let mut front = &mut out[HEADER_LEN..HEADER_LEN + from];
    let mut put = |field: &[u8]| {
        let (dst, rest) = mem::take(&mut front).split_at_mut(field.len());
        dst.copy_from_slice(field);
        front = rest;
    };
    head.put(&mut put);
    put(&(floats.len() as u64).to_le_bytes());
    let sum = checksum_filled(&mut out[HEADER_LEN..], from, |at, dst| {
        put_f32_bytes(floats, at, dst);
    });
    put_header(out, payload_len, sum);
    Ok(())
}

/// Writes the header over the first [`HEADER_LEN`] bytes of `out`.
fn put_header(out: &mut [u8], payload_len: usize, sum: u64) {
    out[..4].copy_from_slice(&MAGIC);
    out[4..8].copy_from_slice(&FORMAT.to_le_bytes());
    out[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[12..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

/// Encoded size of the variable-length fields a message can carry:
/// exact for dense, sparse and snapshot fields, so a message whose bulk
/// alone passes [`PAYLOAD_LIMIT`] is refused unbuilt. Otherwise a capacity
/// hint: a wrong answer costs a reallocation, never a byte of the frame.
fn bulk_len(msg: &WireMessage) -> usize {
    match msg {
        WireMessage::PullReply { params, .. } => params.len() * 4,
        WireMessage::Push { payload, .. } | WireMessage::RelayPush { payload, .. } => match payload
        {
            PushPayload::Dense(grad) => grad.len() * 4,
            PushPayload::Sparse(grad) => grad.nnz() * 12,
        },
        WireMessage::Failover(FailoverControl::Snapshot(snapshot)) => {
            4 * (snapshot.params.len() + snapshot.velocity.len())
                + 8 * (snapshot.pushes_per_worker.len() + snapshot.last_pull_version.len())
        }
        WireMessage::Pull { .. }
        | WireMessage::PushAck { .. }
        | WireMessage::Notify { .. }
        | WireMessage::Abort { .. }
        | WireMessage::Heartbeat { .. }
        | WireMessage::Failover(_)
        | WireMessage::Shutdown
        | WireMessage::RelayTag { .. } => 0,
    }
}

/// Bounds-checked sequential reader over a payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f32(&mut self) -> Result<f32, FrameError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(f32::from_bits(u32::from_le_bytes(b)))
    }

    /// A length prefix, bounds-checked against `per_item` bytes of
    /// remaining buffer so a hostile length cannot force a huge
    /// pre-allocation.
    fn len_prefix(&mut self, per_item: usize) -> Result<usize, FrameError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(per_item as u64).is_none_or(|b| b > remaining) {
            return Err(FrameError::Malformed("length prefix exceeds payload"));
        }
        Ok(n as usize)
    }

    /// A dense field: one bounds check for the whole slice, which stays
    /// the bytes it arrived as. Only an owner converts them
    /// ([`le_floats`]).
    fn f32_bytes(&mut self) -> Result<&'a [u8], FrameError> {
        let n = self.len_prefix(4)?;
        let len = n
            .checked_mul(4)
            .ok_or(FrameError::Malformed("length prefix exceeds payload"))?;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed("non-UTF-8 string"))
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, FrameError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Malformed("bad bool")),
        }
    }

    fn worker(&mut self) -> Result<WorkerId, FrameError> {
        let idx = self.u64()?;
        if idx >= MAX_WORKERS {
            return Err(FrameError::Malformed("worker index out of range"));
        }
        Ok(WorkerId::new(idx as usize))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after payload"))
        }
    }
}

/// A decoded frame that still borrows the buffer it was decoded from:
/// a dense field is left as its checksum-verified little-endian bytes.
/// [`read_frame_into`] yields this form, and a shard applies a dense push
/// straight from it; [`into_owned`](Self::into_owned) converts what an
/// owner needs, which is all [`decode_frame`] adds. Both run the one
/// parser, so every bound — exact fit, [`MAX_WORKERS`],
/// [`MAX_SPARSE_DIM`], the length prefixes — holds for either.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameRef<'a> {
    /// [`WireMessage::PullReply`] with its parameters' bytes.
    PullReply {
        /// Store version of the snapshot.
        version: u64,
        /// The parameters, four little-endian bytes each.
        params: &'a [u8],
    },
    /// [`WireMessage::Push`] with its gradient in place.
    Push {
        /// The pushing worker.
        worker: WorkerId,
        /// The gradient.
        body: PushBody<'a>,
    },
    /// [`WireMessage::RelayPush`] with its gradient in place.
    RelayPush {
        /// Store version the push produces.
        seq: u64,
        /// The originating worker.
        worker: WorkerId,
        /// Learning rate the primary applies.
        lr: f32,
        /// The gradient.
        body: PushBody<'a>,
    },
    /// Every variant without a dense field, decoded outright. Never one
    /// of the three above.
    Owned(WireMessage),
}

/// A push's gradient as the parser leaves it.
#[derive(Debug, Clone, PartialEq)]
pub enum PushBody<'a> {
    /// A dense gradient: four little-endian bytes per float. It is the
    /// last field of its frame, so its bytes end the frame.
    Dense(&'a [u8]),
    /// A sparse gradient, decoded.
    Sparse(SparseGrad),
}

impl FrameRef<'_> {
    /// The owned message: dense bytes are converted into the floats a
    /// [`WireMessage`] holds, one allocation each.
    pub fn into_owned(self) -> WireMessage {
        match self {
            FrameRef::PullReply { version, params } => WireMessage::PullReply {
                version,
                params: le_floats(params).collect(),
            },
            FrameRef::Push { worker, body } => WireMessage::Push {
                worker,
                payload: body.into_owned(),
            },
            FrameRef::RelayPush {
                seq,
                worker,
                lr,
                body,
            } => WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload: body.into_owned(),
            },
            FrameRef::Owned(msg) => msg,
        }
    }
}

impl PushBody<'_> {
    /// The owned payload.
    pub fn into_owned(self) -> PushPayload {
        match self {
            PushBody::Dense(bytes) => PushPayload::Dense(le_floats(bytes).collect()),
            PushBody::Sparse(grad) => PushPayload::Sparse(grad),
        }
    }
}

fn read_push_body<'a>(r: &mut Reader<'a>) -> Result<PushBody<'a>, FrameError> {
    match r.u8()? {
        PAYLOAD_DENSE => Ok(PushBody::Dense(r.f32_bytes()?)),
        PAYLOAD_SPARSE => {
            let dim = r.u64()?;
            // `SparseGrad::reset` allocates per-dimension scratch,
            // so a hostile dim would force a huge allocation even
            // with zero entries on the wire: cap it like a length.
            if dim > MAX_SPARSE_DIM {
                return Err(FrameError::Malformed("sparse dim exceeds limit"));
            }
            let nnz = r.len_prefix(12)?;
            let mut grad = SparseGrad::new();
            grad.reset(dim as usize);
            for _ in 0..nnz {
                let index = r.u64()?;
                let value = r.f32()?;
                if index >= dim {
                    return Err(FrameError::Malformed("sparse index beyond dim"));
                }
                grad.add(index as usize, value);
            }
            grad.finish();
            Ok(PushBody::Sparse(grad))
        }
        _ => Err(FrameError::Malformed("bad push payload kind")),
    }
}

fn decode_payload(payload: &[u8]) -> Result<FrameRef<'_>, FrameError> {
    let mut r = Reader::new(payload);
    let frame = match r.u8()? {
        TAG_PULL_REPLY => FrameRef::PullReply {
            version: r.u64()?,
            params: r.f32_bytes()?,
        },
        TAG_PUSH => FrameRef::Push {
            worker: r.worker()?,
            body: read_push_body(&mut r)?,
        },
        TAG_RELAY_PUSH => FrameRef::RelayPush {
            seq: r.u64()?,
            worker: r.worker()?,
            lr: r.f32()?,
            body: read_push_body(&mut r)?,
        },
        tag => FrameRef::Owned(decode_owned(tag, &mut r)?),
    };
    r.finish()?;
    Ok(frame)
}

/// The variants with no dense field, after their tag.
fn decode_owned(tag: u8, r: &mut Reader<'_>) -> Result<WireMessage, FrameError> {
    Ok(match tag {
        TAG_PULL => WireMessage::Pull {
            worker: r.worker()?,
        },
        TAG_RELAY_TAG => WireMessage::RelayTag {
            seq: r.u64()?,
            lr: r.f32()?,
        },
        TAG_PUSH_ACK => WireMessage::PushAck {
            version: r.u64()?,
            pushes_by_worker: r.u64()?,
        },
        TAG_NOTIFY => WireMessage::Notify {
            worker: r.worker()?,
            pushes: r.u64()?,
        },
        TAG_ABORT => WireMessage::Abort {
            worker: r.worker()?,
        },
        TAG_HEARTBEAT => WireMessage::Heartbeat {
            worker: r.worker()?,
        },
        TAG_FAILOVER => {
            let control = match r.u8()? {
                FC_PROMOTE => FailoverControl::Promote { server: r.u64()? },
                FC_PROMOTED => FailoverControl::Promoted {
                    server: r.u64()?,
                    version: r.u64()?,
                    replayed: r.u64()?,
                },
                FC_REGISTER => FailoverControl::Register {
                    server: r.u64()?,
                    backup: r.bool()?,
                    addr: r.string()?,
                },
                FC_QUERY_PRIMARY => FailoverControl::QueryPrimary,
                FC_PRIMARY => FailoverControl::Primary {
                    addr: r.string()?,
                    epoch: r.u64()?,
                },
                FC_JOIN_AS_BACKUP => FailoverControl::JoinAsBackup {
                    server: r.u64()?,
                    addr: r.string()?,
                },
                FC_BACKUP_READY => FailoverControl::BackupReady {
                    server: r.u64()?,
                    version: r.u64()?,
                },
                // Carried as sent: `ParameterStore::restore` is what
                // checks a snapshot against the store's invariants.
                FC_SNAPSHOT => FailoverControl::Snapshot(StoreCheckpoint {
                    num_shards: usize::try_from(r.u64()?)
                        .map_err(|_| FrameError::Malformed("shard count out of range"))?,
                    version: r.u64()?,
                    momentum: r.f32()?,
                    params: le_floats(r.f32_bytes()?).collect(),
                    velocity: le_floats(r.f32_bytes()?).collect(),
                    pushes_per_worker: r.u64_vec()?,
                    last_pull_version: r.u64_vec()?,
                }),
                _ => return Err(FrameError::Malformed("bad failover sub-tag")),
            };
            WireMessage::Failover(control)
        }
        TAG_SHUTDOWN => WireMessage::Shutdown,
        _ => return Err(FrameError::Malformed("bad frame tag")),
    })
}

/// Decodes one complete frame. The buffer must hold exactly one frame —
/// missing bytes report [`FrameError::Truncated`], extra bytes
/// [`FrameError::Malformed`] once the frame they follow checks out. This
/// is [`read_frame_into`]'s in-place decode, turned owned.
pub fn decode_frame(buf: &[u8]) -> Result<WireMessage, FrameError> {
    let Some((header, rest)) = buf.split_first_chunk::<HEADER_LEN>() else {
        // A short buffer that cannot even disprove the magic is truncated;
        // one that can is reported as whatever the header says first.
        if buf.len() >= 4 && buf[..4] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        return Err(FrameError::Truncated);
    };
    let (payload_len, checksum) = parse_header(header)?;
    let (payload, trailing) = rest
        .split_at_checked(payload_len)
        .ok_or(FrameError::Truncated)?;
    // Checked in the order a stream reader meets the bytes, so a length
    // field cut short fails its checksum here as it does there.
    let frame = decode_checked(payload, checksum)?;
    if !trailing.is_empty() {
        return Err(FrameError::Malformed("trailing bytes after frame"));
    }
    Ok(frame.into_owned())
}

/// Validates a complete header — magic, then format, then the advertised
/// length against [`PAYLOAD_LIMIT`] — and returns the payload length and
/// checksum it carries.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(usize, u64), FrameError> {
    let [m0, m1, m2, m3, f0, f1, f2, f3, l0, l1, l2, l3, checksum @ ..] = *header;
    if [m0, m1, m2, m3] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let format = u32::from_le_bytes([f0, f1, f2, f3]);
    if format != FORMAT {
        return Err(FrameError::UnsupportedFormat { found: format });
    }
    let payload_len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if payload_len > PAYLOAD_LIMIT {
        return Err(FrameError::TooLarge {
            len: payload_len as u64,
        });
    }
    Ok((payload_len, u64::from_le_bytes(checksum)))
}

/// Decodes a payload of exactly the advertised length, in place, once it
/// hashes to the header checksum.
fn decode_checked(payload: &[u8], sum: u64) -> Result<FrameRef<'_>, FrameError> {
    if checksum(payload) != sum {
        return Err(FrameError::ChecksumMismatch);
    }
    decode_payload(payload)
}

/// Writes one frame to a stream, returning the bytes written. An
/// unencodable message (payload over [`PAYLOAD_LIMIT`]) surfaces as
/// [`io::ErrorKind::InvalidInput`] with nothing written.
pub fn write_frame(w: &mut dyn Write, msg: &WireMessage) -> io::Result<usize> {
    let bytes = encode_frame(msg).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Reads one frame from a stream, returning the message and the bytes
/// consumed. An EOF before the first header byte reports
/// [`ReadOutcome::Closed`]; any later truncation is an error. A thin call
/// of [`read_frame_into`] on a buffer of its own, for links that carry
/// only small frames.
pub fn read_frame(r: &mut dyn Read) -> Result<ReadOutcome, FrameReadError> {
    let mut buf = Vec::new();
    Ok(match read_frame_into(r, 0, &mut buf)? {
        Some((frame, end)) => ReadOutcome::Frame(frame.into_owned(), end),
        None => ReadOutcome::Closed,
    })
}

/// Reads one frame from a stream into `buf`, in place: the header and
/// payload land at `buf[headroom..end]`, checked against the header's
/// checksum, and the frame comes back decoded in place with `end`. `None`
/// is the clean close.
///
/// The buffer grows to the largest frame it has held and is never shrunk
/// or cleared, so a connection that reads every frame into one buffer
/// allocates only when a frame outgrows every earlier one. Bytes outside
/// `headroom..end` are whatever earlier frames left there: nothing reads
/// them, and a receiver that forwards the frame writes what it sends
/// first (the relay tag) into the headroom.
pub fn read_frame_into<'b>(
    r: &mut dyn Read,
    headroom: usize,
    buf: &'b mut Vec<u8>,
) -> Result<Option<(FrameRef<'b>, usize)>, FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish a clean close (no bytes at all) from a mid-frame cut.
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(FrameReadError::Frame(FrameError::Truncated));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let (payload_len, checksum) = parse_header(&header).map_err(FrameReadError::Frame)?;
    let payload_at = headroom + HEADER_LEN;
    let end = payload_at + payload_len;
    if buf.len() < end {
        // Replaced, not resized: the allocator's zeroed pages are untouched
        // until the payload arrives, so a header announcing more than ever
        // comes costs address space, not a fill. What the old buffer held
        // is nobody's business.
        *buf = vec![0; end];
    }
    buf[headroom..payload_at].copy_from_slice(&header);
    if let Err(e) = r.read_exact(&mut buf[payload_at..end]) {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            return Err(FrameReadError::Frame(FrameError::Truncated));
        }
        return Err(FrameReadError::Io(e));
    }
    let buf: &'b [u8] = buf;
    match decode_checked(&buf[payload_at..end], checksum) {
        Ok(frame) => Ok(Some((frame, end))),
        Err(e) => Err(FrameReadError::Frame(e)),
    }
}

/// Result of reading from a framed stream.
#[derive(Debug)]
pub enum ReadOutcome {
    /// One complete frame, with the bytes it occupied on the wire.
    Frame(WireMessage, usize),
    /// The peer closed the stream cleanly between frames.
    Closed,
}

/// Why reading a frame from a stream failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The stream itself failed.
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Frame(FrameError),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame read i/o error: {e}"),
            FrameReadError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use specsync_ps::SEGMENT;

    use super::*;

    fn sample_frames() -> Vec<WireMessage> {
        let w = WorkerId::new(2);
        let mut sparse = SparseGrad::new();
        sparse.reset(10);
        sparse.add(1, 0.5);
        sparse.add(7, -2.25);
        sparse.finish();
        vec![
            WireMessage::Pull { worker: w },
            WireMessage::PullReply {
                version: 42,
                params: Arc::from(vec![1.0f32, -0.5, 3.25].as_slice()),
            },
            WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(vec![0.25, -1.0]),
            },
            WireMessage::Push {
                worker: w,
                payload: PushPayload::Sparse(sparse),
            },
            WireMessage::PushAck {
                version: 43,
                pushes_by_worker: 7,
            },
            WireMessage::Notify {
                worker: w,
                pushes: 12,
            },
            WireMessage::Abort { worker: w },
            WireMessage::Heartbeat { worker: w },
            WireMessage::Failover(FailoverControl::Promote { server: 0 }),
            WireMessage::Failover(FailoverControl::Promoted {
                server: 0,
                version: 99,
                replayed: 3,
            }),
            WireMessage::Failover(FailoverControl::Register {
                server: 0,
                backup: true,
                addr: "127.0.0.1:4242".to_string(),
            }),
            WireMessage::Failover(FailoverControl::QueryPrimary),
            WireMessage::Failover(FailoverControl::Primary {
                addr: "127.0.0.1:4243".to_string(),
                epoch: 2,
            }),
            WireMessage::Failover(FailoverControl::JoinAsBackup {
                server: 2,
                addr: "127.0.0.1:4244".to_string(),
            }),
            // A momentum store's snapshot, signed zeros included.
            WireMessage::Failover(FailoverControl::Snapshot(StoreCheckpoint {
                params: vec![0.5, -0.0, 3.25],
                num_shards: 2,
                version: 3,
                pushes_per_worker: vec![2, 1],
                last_pull_version: vec![3, 1],
                momentum: 0.9,
                velocity: vec![-0.0, 0.125, -1.5],
            })),
            WireMessage::Failover(FailoverControl::BackupReady {
                server: 2,
                version: 104,
            }),
            {
                let mut sparse = SparseGrad::new();
                sparse.reset(6);
                sparse.add(0, 1.5);
                sparse.add(5, -0.75);
                sparse.finish();
                WireMessage::RelayPush {
                    seq: 44,
                    worker: w,
                    lr: 0.05,
                    payload: PushPayload::Sparse(sparse),
                }
            },
            WireMessage::RelayPush {
                seq: 45,
                worker: w,
                lr: 0.05,
                payload: PushPayload::Dense(vec![0.5, -0.25, 0.125]),
            },
            WireMessage::RelayTag { seq: 46, lr: 0.05 },
            WireMessage::Shutdown,
        ]
    }

    fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn reference_f32_slice(out: &mut Vec<u8>, vs: &[f32]) {
        put_u64(out, vs.len() as u64);
        for &v in vs {
            put_f32(out, v);
        }
    }

    /// The two-buffer encoder FORMAT 1 shipped with: floats appended one
    /// at a time to a payload `Vec`, the frame assembled in a second one.
    /// Kept as the reference `encode_frame` must stay byte-identical to.
    fn reference_encode(msg: &WireMessage) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64);
        match msg {
            WireMessage::PullReply { version, params } => {
                payload.push(TAG_PULL_REPLY);
                put_u64(&mut payload, *version);
                reference_f32_slice(&mut payload, params);
            }
            WireMessage::Push {
                worker,
                payload: PushPayload::Dense(grad),
            } => {
                payload.push(TAG_PUSH);
                put_worker(&mut payload, *worker);
                payload.push(PAYLOAD_DENSE);
                reference_f32_slice(&mut payload, grad);
            }
            WireMessage::RelayPush {
                seq,
                worker,
                lr,
                payload: PushPayload::Dense(grad),
            } => {
                payload.push(TAG_RELAY_PUSH);
                put_u64(&mut payload, *seq);
                put_worker(&mut payload, *worker);
                put_f32(&mut payload, *lr);
                payload.push(PAYLOAD_DENSE);
                reference_f32_slice(&mut payload, grad);
            }
            // No float slice: the variant's payload bytes are shared.
            other => encode_payload(other, &mut payload),
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT);
        put_u32(&mut out, payload.len() as u32);
        put_u64(&mut out, checksum(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// `len` floats cycling through the bit patterns a value-level copy
    /// could mangle: quiet and signalling NaNs with payloads, `-0.0`,
    /// subnormals, the extremes.
    fn awkward_floats(len: usize) -> Vec<f32> {
        const BITS: [u32; 8] = [
            0x7fc0_0001, // quiet NaN with a payload
            0xffa5_5aa5, // negative signalling NaN
            0x8000_0000, // -0.0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            0x7f7f_ffff, // f32::MAX
            0xff80_0000, // -inf
            0x3f80_0000, // 1.0
        ];
        (0..len).map(|i| f32::from_bits(BITS[i % 8])).collect()
    }

    fn dense_carriers(values: &[f32]) -> [WireMessage; 3] {
        let w = WorkerId::new(5);
        [
            WireMessage::PullReply {
                version: 9,
                params: Arc::from(values),
            },
            WireMessage::Push {
                worker: w,
                payload: PushPayload::Dense(values.to_vec()),
            },
            WireMessage::RelayPush {
                seq: 10,
                worker: w,
                lr: 0.05,
                payload: PushPayload::Dense(values.to_vec()),
            },
        ]
    }

    #[test]
    fn encoder_is_byte_identical_to_the_two_buffer_reference() {
        for msg in sample_frames() {
            assert_eq!(
                encode_frame(&msg).unwrap(),
                reference_encode(&msg),
                "{msg:?}"
            );
        }
        for len in [0, 1, 3, 4, 5, 31, 32, 33, 1025] {
            let values = awkward_floats(len);
            let bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
            for msg in dense_carriers(&values) {
                let bytes = encode_frame(&msg).unwrap();
                assert_eq!(bytes, reference_encode(&msg), "len {len}");
                // NaN != NaN, so compare the decoded floats by bits.
                let decoded: Vec<u32> = match decode_frame(&bytes).unwrap() {
                    WireMessage::PullReply { params, .. } => {
                        params.iter().map(|v| v.to_bits()).collect()
                    }
                    WireMessage::Push {
                        payload: PushPayload::Dense(grad),
                        ..
                    }
                    | WireMessage::RelayPush {
                        payload: PushPayload::Dense(grad),
                        ..
                    } => grad.iter().map(|v| v.to_bits()).collect(),
                    other => panic!("decoded the wrong variant: {other:?}"),
                };
                assert_eq!(decoded, bits, "len {len}");
            }
        }
    }

    /// The fused encoder is the format written out. For every frame that
    /// ends in a dense float slice, with that slice ending on both sides
    /// of payload bytes `SEGMENT - 1`, `SEGMENT`, `SEGMENT + 1` and
    /// `2 * SEGMENT + 3`, or three segments and a tail in, it writes the
    /// bytes the two-pass encoder writes (`put_f32_slice`, then
    /// `checksum`) into a fresh buffer, one that held a longer frame (cut
    /// to length), one that held a shorter frame (grown) and one that held
    /// a sparse frame after a dense one (grown within its capacity).
    #[test]
    fn the_fused_encoder_writes_what_the_two_pass_encoder_writes() {
        let two_pass = |msg: &WireMessage| {
            let mut out = Vec::new();
            seal(&mut out, bulk_len(msg), |out| encode_payload(msg, out)).unwrap();
            out
        };
        let mut grad = SparseGrad::new();
        grad.reset(10);
        grad.add(3, 1.5);
        grad.finish();
        let sparse = WireMessage::Push {
            worker: WorkerId::new(1),
            payload: PushPayload::Sparse(grad),
        };
        let tail = 3 * SEGMENT / 4 + 1000;
        let values = awkward_floats(tail + 1001);
        for variant in 0..3 {
            let carrier = |vs: &[f32]| dense_carriers(vs)[variant].clone();
            // The payload bytes in front of the floats.
            let from = encode_frame(&carrier(&[])).unwrap().len() - HEADER_LEN;
            let mut dims: Vec<usize> = [SEGMENT - 1, SEGMENT, SEGMENT + 1, 2 * SEGMENT + 3]
                .into_iter()
                .flat_map(|end| [(end - from) / 4, (end - from).div_ceil(4)])
                .collect();
            dims.push(tail);
            for n in dims {
                let msg = carrier(&values[..n]);
                let want = two_pass(&msg);
                // Other floats at every offset, so a stale byte shows.
                let longer = encode_frame(&carrier(&values[1..n + 1001])).unwrap();
                let shorter = encode_frame(&carrier(&values[1..n / 2])).unwrap();
                let mut held_sparse = longer.clone();
                encode_frame_into(&sparse, &mut held_sparse).unwrap();
                for (state, mut out) in [
                    ("fresh", Vec::new()),
                    ("longer", longer),
                    ("shorter", shorter),
                    ("sparse", held_sparse),
                ] {
                    encode_frame_into(&msg, &mut out).unwrap();
                    assert!(out == want, "variant {variant}, {n} floats, {state} buffer");
                }
            }
        }
    }

    /// Two frames as the build before the single-buffer encoder wrote
    /// them, and the relay tag as an independent FNV-1a computed it.
    /// Formats 2 and 3 each changed bytes 4..8 and nothing else, because a
    /// payload of one segment still carries its FNV-1a; format 1 and 2
    /// frames are refused.
    #[test]
    fn golden_frames_pin_format_3() {
        let pull = WireMessage::Pull {
            worker: WorkerId::new(3),
        };
        let reply = WireMessage::PullReply {
            version: 42,
            params: Arc::from(vec![1.0f32, -0.5, 3.25].as_slice()),
        };
        let golden = [
            (
                pull,
                "53534e4603000000090000005c4bc2031f2d1489000300000000000000",
            ),
            (
                reply,
                "53534e46030000001d000000f511b99bcf1642e5012a00000000000000\
                 03000000000000000000803f000000bf00005040",
            ),
            (
                WireMessage::RelayTag { seq: 46, lr: 0.05 },
                "53534e46030000000d000000223dbc54366da4a20b2e00000000000000cdcc4c3d",
            ),
        ];
        for (msg, hex) in golden {
            let bytes = encode_frame(&msg).unwrap();
            let encoded: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(encoded, hex, "{msg:?}");
            assert_eq!(decode_frame(&bytes).unwrap(), msg);
            for found in [1u32, 2] {
                let mut older = bytes.clone();
                older[4..8].copy_from_slice(&found.to_le_bytes());
                assert_eq!(
                    decode_frame(&older),
                    Err(FrameError::UnsupportedFormat { found })
                );
            }
        }
    }

    /// A pull reply over two segments as format 2 wrote it: the FNV-1a of
    /// each segment, folded. Its checksum differs from format 3's, and
    /// the format field refuses it first.
    #[test]
    fn a_format_2_frame_over_one_segment_is_refused() {
        let segment = SEGMENT;
        let mut bytes = encode_frame(&WireMessage::PullReply {
            version: 3,
            params: Arc::from(awkward_floats(segment / 4 + 1).as_slice()),
        })
        .unwrap();
        let format_2 = bytes[HEADER_LEN..]
            .chunks(segment)
            .map(fnv1a)
            .reduce(|acc, h| (acc ^ h).wrapping_mul(specsync_simnet::FNV_PRIME))
            .unwrap();
        assert_ne!(format_2, checksum(&bytes[HEADER_LEN..]));
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        bytes[12..20].copy_from_slice(&format_2.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::UnsupportedFormat { found: 2 })
        );
    }

    /// Pull replies of 3 MiB + 5 B and 4 MiB + 5 B (four and five
    /// segments, the last of 5 bytes, all remainder): flipping the first,
    /// middle or last byte of any segment is a checksum mismatch.
    #[test]
    fn a_flip_in_any_segment_is_a_checksum_mismatch() {
        let segment = SEGMENT;
        for full in [3, 4] {
            // tag(1) + version(8) + length(8) + 4 bytes per float.
            let floats = (full * segment + 5 - 17) / 4;
            let bytes = encode_frame(&WireMessage::PullReply {
                version: 3,
                params: Arc::from(awkward_floats(floats).as_slice()),
            })
            .unwrap();
            let payload_len = bytes.len() - HEADER_LEN;
            assert_eq!(payload_len, full * segment + 5);
            for start in (0..payload_len).step_by(segment) {
                let end = (start + segment).min(payload_len) - 1;
                for at in [start, (start + end) / 2, end] {
                    let mut corrupt = bytes.clone();
                    corrupt[HEADER_LEN + at] ^= 0x01;
                    assert_eq!(
                        decode_frame(&corrupt),
                        Err(FrameError::ChecksumMismatch),
                        "{full} MiB + 5 B, payload byte {at}"
                    );
                }
            }
        }
    }

    /// Hand-built, checksum-valid frames in the layouts the retired verbs
    /// were sent in: `Check { worker: 3 }` (tag 5), `Crash`/`Recover`/`Ack
    /// { server: 1 }` (failover sub-tags 0, 3, 4), `SnapshotChunk { index:
    /// 0, total: 1, data: [7] }` (sub-tag 9), `CatchUp { entries: 2,
    /// through: 9 }` (sub-tag 10), and `BackupReady` with the `replayed`
    /// field it no longer has. None of them may decode.
    #[test]
    fn retired_frames_are_malformed() {
        let frame = |payload: &[u8]| {
            let mut out = MAGIC.to_vec();
            put_u32(&mut out, FORMAT);
            put_u32(&mut out, payload.len() as u32);
            put_u64(&mut out, checksum(payload));
            out.extend_from_slice(payload);
            out
        };
        let with_u64s = |head: &[u8], fields: &[u64]| {
            let mut payload = head.to_vec();
            for &field in fields {
                put_u64(&mut payload, field);
            }
            payload
        };
        let rows = [
            (with_u64s(&[5], &[3]), "bad frame tag"),
            (with_u64s(&[TAG_FAILOVER, 0], &[1]), "bad failover sub-tag"),
            (with_u64s(&[TAG_FAILOVER, 3], &[1]), "bad failover sub-tag"),
            (with_u64s(&[TAG_FAILOVER, 4], &[1]), "bad failover sub-tag"),
            (
                [with_u64s(&[TAG_FAILOVER, 9], &[0, 1, 1]), vec![7]].concat(),
                "bad failover sub-tag",
            ),
            (
                with_u64s(&[TAG_FAILOVER, 10], &[2, 9]),
                "bad failover sub-tag",
            ),
            (
                with_u64s(&[TAG_FAILOVER, FC_BACKUP_READY], &[2, 9, 4]),
                "trailing bytes after payload",
            ),
        ];
        for (payload, why) in rows {
            assert_eq!(
                decode_frame(&frame(&payload)),
                Err(FrameError::Malformed(why)),
                "{payload:?}"
            );
        }
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in sample_frames() {
            let bytes = encode_frame(&msg).unwrap();
            let back = decode_frame(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        for msg in sample_frames() {
            let bytes = encode_frame(&msg).unwrap();
            for i in 0..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 0x01;
                assert!(
                    decode_frame(&corrupt).is_err(),
                    "flipping byte {i} of {msg:?} must not decode"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        for msg in sample_frames() {
            let bytes = encode_frame(&msg).unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    decode_frame(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes of {msg:?}"
                );
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert_eq!(
                decode_frame(&extended),
                Err(FrameError::Malformed("trailing bytes after frame")),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn stream_round_trip_and_clean_close() {
        let mut buf = Vec::new();
        let frames = sample_frames();
        for msg in &frames {
            write_frame(&mut buf, msg).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        for msg in &frames {
            match read_frame(&mut cursor).unwrap() {
                ReadOutcome::Frame(got, n) => {
                    assert_eq!(&got, msg);
                    assert!(n >= HEADER_LEN);
                }
                ReadOutcome::Closed => panic!("stream closed early"),
            }
        }
        assert!(matches!(
            read_frame(&mut cursor).unwrap(),
            ReadOutcome::Closed
        ));
    }

    /// One buffer across every frame, as a connection keeps it: each
    /// frame lands behind the headroom exactly as written, whatever a
    /// larger earlier frame left in the buffer, and a relay tag written
    /// over the whole headroom makes the two one stream.
    #[test]
    fn kept_bytes_are_the_frame_as_written_behind_the_headroom() {
        let relay_tag = WireMessage::RelayTag { seq: 7, lr: 0.5 };
        let tag = encode_frame(&relay_tag).unwrap();
        assert_eq!(tag.len(), RELAY_TAG_FRAME_LEN);
        let mut buf = Vec::new();
        for msg in sample_frames() {
            let written = encode_frame(&msg).unwrap();
            for headroom in [0, RELAY_TAG_FRAME_LEN] {
                let mut cursor = io::Cursor::new(written.clone());
                let (got, end) = read_frame_into(&mut cursor, headroom, &mut buf)
                    .unwrap()
                    .unwrap();
                assert_eq!(got.into_owned(), msg);
                assert_eq!(buf[headroom..end], written[..], "{msg:?}");
                if headroom == RELAY_TAG_FRAME_LEN {
                    buf[..headroom].copy_from_slice(&tag);
                    let mut forwarded = io::Cursor::new(buf[..end].to_vec());
                    for want in [&relay_tag, &msg] {
                        let ReadOutcome::Frame(got, _) = read_frame(&mut forwarded).unwrap() else {
                            panic!("the forwarded stream closed early");
                        };
                        assert_eq!(&got, want);
                    }
                }
            }
        }
        let mut empty = io::Cursor::new(Vec::new());
        assert!(read_frame_into(&mut empty, RELAY_TAG_FRAME_LEN, &mut buf)
            .unwrap()
            .is_none());
    }

    #[test]
    fn stream_truncated_mid_frame_errors() {
        let bytes = encode_frame(&WireMessage::PullReply {
            version: 7,
            params: Arc::from(vec![1.0f32; 16].as_slice()),
        })
        .unwrap();
        for cut in 1..bytes.len() {
            let mut cursor = io::Cursor::new(bytes[..cut].to_vec());
            assert!(
                matches!(
                    read_frame(&mut cursor),
                    Err(FrameReadError::Frame(FrameError::Truncated))
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_length_is_bounded() {
        let mut bytes = encode_frame(&WireMessage::Shutdown).unwrap();
        // Forge a payload length far beyond the limit.
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn sparse_index_beyond_dim_is_malformed() {
        let mut sparse = SparseGrad::new();
        sparse.reset(4);
        sparse.add(3, 1.0);
        sparse.finish();
        let msg = WireMessage::Push {
            worker: WorkerId::new(0),
            payload: PushPayload::Sparse(sparse),
        };
        let mut bytes = encode_frame(&msg).unwrap();
        // The index field sits after header(20) + tag(1) + worker(8) +
        // kind(1) + dim(8) + nnz(8) = 46; overwrite it with dim.
        bytes[46..54].copy_from_slice(&4u64.to_le_bytes());
        // Fix the checksum so only the semantic check can reject it.
        let sum = checksum(&bytes[HEADER_LEN..]);
        bytes[12..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Malformed("sparse index beyond dim"))
        );
    }

    #[test]
    fn hostile_sparse_dim_is_bounded() {
        let mut sparse = SparseGrad::new();
        sparse.reset(4);
        sparse.add(1, 1.0);
        sparse.finish();
        let msg = WireMessage::Push {
            worker: WorkerId::new(0),
            payload: PushPayload::Sparse(sparse),
        };
        let mut bytes = encode_frame(&msg).unwrap();
        // The dim field sits after header(20) + tag(1) + worker(8) +
        // kind(1) = 30; forge a multi-terabyte dimension on an otherwise
        // tiny frame and fix the checksum, so only the dim bound can
        // reject it before the decoder allocates.
        bytes[30..38].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let sum = checksum(&bytes[HEADER_LEN..]);
        bytes[12..20].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(FrameError::Malformed("sparse dim exceeds limit"))
        );
    }

    #[test]
    fn worker_ids_past_the_bound_are_malformed() {
        // The encoder does not police ids, so it forges the 29-byte
        // hostile frame a peer could send.
        let pull = |worker: u64| WireMessage::Pull {
            worker: WorkerId::new(worker as usize),
        };
        for hostile in [MAX_WORKERS, u32::MAX as u64] {
            let bytes = encode_frame(&pull(hostile)).unwrap();
            assert_eq!(
                decode_frame(&bytes),
                Err(FrameError::Malformed("worker index out of range"))
            );
        }
        let bytes = encode_frame(&pull(MAX_WORKERS - 1)).unwrap();
        assert_eq!(decode_frame(&bytes), Ok(pull(MAX_WORKERS - 1)));
    }

    #[test]
    fn oversized_payload_refuses_to_encode() {
        // One f32 past the largest dense gradient a frame can carry.
        let n = PAYLOAD_LIMIT / 4 + 1;
        let msg = WireMessage::PullReply {
            version: 1,
            params: Arc::from(vec![0.0f32; n].as_slice()),
        };
        assert!(matches!(
            encode_frame(&msg),
            Err(FrameError::TooLarge { .. })
        ));
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing may reach the wire");
        // A snapshot's bulk is its parameters and velocity together: each
        // half fits a frame, the two do not. Zeroed, never written: the
        // pages stay untouched.
        let half = || vec![0.0f32; PAYLOAD_LIMIT / 8 + 1];
        let snapshot = WireMessage::Failover(FailoverControl::Snapshot(StoreCheckpoint {
            params: half(),
            num_shards: 1,
            version: 0,
            pushes_per_worker: Vec::new(),
            last_pull_version: Vec::new(),
            momentum: 0.5,
            velocity: half(),
        }));
        assert_eq!(
            encode_frame(&snapshot),
            Err(FrameError::TooLarge {
                len: PAYLOAD_LIMIT as u64 + 8
            })
        );
    }
}
