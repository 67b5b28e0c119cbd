//! Crash-consistent checkpointing of the parameter store.
//!
//! A [`StoreCheckpoint`] is a settled copy of everything a
//! [`ParameterStore`](crate::ParameterStore) needs to resume exactly where
//! it left off: parameters, optimizer state (momentum velocity), version
//! counters and per-worker bookkeeping. The binary codec is versioned and
//! checksummed so a torn or bit-rotted file is a typed
//! [`CheckpointError`], never a panic and never silently wrong state.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! magic "SSCP" | format u32 | checksum u64 (crate::checksum over payload) | payload
//! ```
//!
//! The payload is a fixed field order — no self-describing keys — because
//! both ends are this module; the format version gates layout and
//! checksum changes (format 2: the segmented [`checksum`]).

use crate::checksum::checksum;

/// Magic prefix identifying a SpecSync checkpoint blob.
const MAGIC: [u8; 4] = *b"SSCP";

/// Current codec format version.
const FORMAT: u32 = 2;

/// Bytes before the payload: magic, format, checksum.
const HEADER_LEN: usize = 16;

/// A malformed or corrupted checkpoint blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with the checkpoint magic bytes.
    BadMagic,
    /// The blob was written by an unknown (newer) codec version.
    UnsupportedFormat(u32),
    /// The blob ends before the announced payload does.
    Truncated,
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the payload actually read.
        actual: u64,
    },
    /// The payload decoded but violates a store invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "checkpoint: bad magic bytes"),
            CheckpointError::UnsupportedFormat(v) => {
                write!(f, "checkpoint: unsupported format version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint: truncated blob"),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint: checksum mismatch (header {expected:#018x}, payload {actual:#018x})"
            ),
            CheckpointError::Malformed(what) => write!(f, "checkpoint: malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A settled, self-contained snapshot of a parameter store.
///
/// Obtain one with
/// [`ParameterStore::snapshot_for_checkpoint`](crate::ParameterStore::snapshot_for_checkpoint),
/// serialize with [`encode`](StoreCheckpoint::encode), and bring a store
/// back with [`ParameterStore::restore`](crate::ParameterStore::restore).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreCheckpoint {
    pub(crate) params: Vec<f32>,
    pub(crate) num_shards: usize,
    pub(crate) version: u64,
    pub(crate) pushes_per_worker: Vec<u64>,
    pub(crate) last_pull_version: Vec<u64>,
    pub(crate) momentum: f32,
    pub(crate) velocity: Vec<f32>,
    pub(crate) grad_clip: Option<f32>,
}

impl StoreCheckpoint {
    /// The global version (total pushes) captured by this checkpoint.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of parameters captured.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Serializes the checkpoint into the versioned, checksummed format.
    pub fn encode(&self) -> Vec<u8> {
        // One buffer, sized up front: header, the fixed fields and the
        // four length-prefixed slices.
        let bulk = 4 * (self.params.len() + self.velocity.len())
            + 8 * (self.pushes_per_worker.len() + self.last_pull_version.len());
        let mut out = Vec::with_capacity(HEADER_LEN + 64 + bulk);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT.to_le_bytes());
        // The checksum is only known once the payload is written.
        out.resize(HEADER_LEN, 0);
        put_u64(&mut out, self.num_shards as u64);
        put_u64(&mut out, self.version);
        put_f32(&mut out, self.momentum);
        match self.grad_clip {
            Some(clip) => {
                out.push(1);
                put_f32(&mut out, clip);
            }
            None => out.push(0),
        }
        put_f32_slice(&mut out, &self.params);
        put_f32_slice(&mut out, &self.velocity);
        put_u64_slice(&mut out, &self.pushes_per_worker);
        put_u64_slice(&mut out, &self.last_pull_version);
        let sum = checksum(&out[HEADER_LEN..]);
        out[8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserializes a checkpoint, verifying magic, format, checksum and
    /// every store invariant.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] describing the first defect found; a
    /// corrupted blob never panics and never yields a checkpoint.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN {
            return Err(if bytes.len() >= 4 && bytes[..4] != MAGIC {
                CheckpointError::BadMagic
            } else if bytes.len() >= 4 {
                CheckpointError::Truncated
            } else {
                CheckpointError::BadMagic
            });
        }
        if bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let format = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if format != FORMAT {
            return Err(CheckpointError::UnsupportedFormat(format));
        }
        let expected = u64::from_le_bytes([
            bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
        ]);
        let payload = &bytes[HEADER_LEN..];
        let actual = checksum(payload);
        if actual != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }

        let mut r = Reader { buf: payload };
        let num_shards = r.u64()? as usize;
        let version = r.u64()?;
        let momentum = r.f32()?;
        let grad_clip = match r.u8()? {
            0 => None,
            1 => Some(r.f32()?),
            _ => return Err(CheckpointError::Malformed("bad grad-clip tag")),
        };
        let params = r.f32_slice()?;
        let velocity = r.f32_slice()?;
        let pushes_per_worker = r.u64_slice()?;
        let last_pull_version = r.u64_slice()?;
        if !r.buf.is_empty() {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }

        let ckpt = StoreCheckpoint {
            params,
            num_shards,
            version,
            pushes_per_worker,
            last_pull_version,
            momentum,
            velocity,
            grad_clip,
        };
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Checks every invariant [`ParameterStore::restore`] relies on.
    ///
    /// [`ParameterStore::restore`]: crate::ParameterStore::restore
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        if self.params.is_empty() {
            return Err(CheckpointError::Malformed("empty parameter vector"));
        }
        if self.num_shards == 0 || self.num_shards > self.params.len() {
            return Err(CheckpointError::Malformed("shard count out of range"));
        }
        if !(self.momentum.is_finite() && (0.0..1.0).contains(&self.momentum)) {
            return Err(CheckpointError::Malformed("momentum outside [0, 1)"));
        }
        if let Some(clip) = self.grad_clip {
            if !(clip.is_finite() && clip > 0.0) {
                return Err(CheckpointError::Malformed("non-positive clip norm"));
            }
        }
        let want_velocity = if self.momentum > 0.0 {
            self.params.len()
        } else {
            0
        };
        if self.velocity.len() != want_velocity {
            return Err(CheckpointError::Malformed("velocity length mismatch"));
        }
        if self.pushes_per_worker.len() != self.last_pull_version.len() {
            return Err(CheckpointError::Malformed("worker table length mismatch"));
        }
        if self.pushes_per_worker.iter().sum::<u64>() != self.version {
            return Err(CheckpointError::Malformed(
                "per-worker pushes do not sum to the version",
            ));
        }
        if self.last_pull_version.iter().any(|&v| v > self.version) {
            return Err(CheckpointError::Malformed("pull version from the future"));
        }
        Ok(())
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Floats travel as raw bits so every value — including NaN payloads and
/// signed zeros — round-trips exactly.
fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f32_slice(out: &mut Vec<u8>, vs: &[f32]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_f32(out, v);
    }
}

fn put_u64_slice(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v);
    }
}

/// A bounds-checked little-endian reader over the payload.
struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.buf.len() < n {
            return Err(CheckpointError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        let b = self.take(4)?;
        Ok(f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
    }

    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let len = self.u64()?;
        // Reject lengths the remaining buffer cannot possibly hold before
        // allocating, so a corrupted length is `Truncated`, not an OOM.
        let len = usize::try_from(len).map_err(|_| CheckpointError::Truncated)?;
        match len.checked_mul(elem_size) {
            Some(n) if n <= self.buf.len() => {}
            _ => return Err(CheckpointError::Truncated),
        }
        Ok(len)
    }

    fn f32_slice(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let len = self.len_prefix(4)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    fn u64_slice(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let len = self.len_prefix(8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParameterStore;
    use specsync_simnet::WorkerId;

    fn busy_store() -> ParameterStore {
        let mut s = ParameterStore::new(vec![0.5; 8], 4)
            .with_momentum(0.9)
            .with_grad_clip(2.0);
        for i in 0..5 {
            s.apply_push(WorkerId::new(i % 3), &[0.1 * (i as f32 + 1.0); 8], 0.05);
            s.pull(WorkerId::new(i % 2));
        }
        s
    }

    #[test]
    fn encode_decode_is_identity() {
        let ckpt = busy_store().snapshot_for_checkpoint();
        let decoded = StoreCheckpoint::decode(&ckpt.encode()).expect("round trip");
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn restore_resumes_bit_identically() {
        let mut original = busy_store();
        let ckpt = original.snapshot_for_checkpoint();
        let mut restored = ParameterStore::restore(ckpt).expect("valid checkpoint");
        // The restored store continues exactly where the original would.
        for i in 0..4 {
            let g = vec![0.01 * (i as f32 + 1.0); 8];
            original.apply_push(WorkerId::new(i), &g, 0.05);
            restored.apply_push(WorkerId::new(i), &g, 0.05);
        }
        assert_eq!(original.params(), restored.params());
        assert_eq!(original.version(), restored.version());
        assert_eq!(
            original.staleness_of(WorkerId::new(0)),
            restored.staleness_of(WorkerId::new(0))
        );
    }

    #[test]
    fn shard_count_out_of_range_is_malformed() {
        let out_of_range = CheckpointError::Malformed("shard count out of range");
        // `busy_store` has 8 parameters: 0 servers and 9 servers are out.
        for num_shards in [0, 9] {
            let mut ckpt = busy_store().snapshot_for_checkpoint();
            ckpt.num_shards = num_shards;
            assert_eq!(StoreCheckpoint::decode(&ckpt.encode()), Err(out_of_range));
            assert_eq!(ParameterStore::restore(ckpt).err(), Some(out_of_range));
        }
        for num_shards in [1, 8] {
            let mut ckpt = busy_store().snapshot_for_checkpoint();
            ckpt.num_shards = num_shards;
            let restored = ParameterStore::restore(ckpt).expect("in range");
            assert_eq!(restored.num_shards(), num_shards);
        }
    }

    #[test]
    fn corrupted_bytes_are_typed_errors_never_panics() {
        let bytes = busy_store().snapshot_for_checkpoint().encode();
        // Flip every byte position in turn: each corruption must surface as
        // an Err, never a panic, and never decode to the original.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            if let Ok(ckpt) = StoreCheckpoint::decode(&bad) {
                // Only reachable if the flip cancelled out — impossible
                // for a single XOR — so any Ok must equal the original.
                assert_eq!(ckpt.encode(), bytes, "byte {i} decoded corrupt state");
            }
        }
    }

    #[test]
    fn checksum_mismatch_is_reported_as_such() {
        let mut bytes = busy_store().snapshot_for_checkpoint().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            StoreCheckpoint::decode(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_magic_and_format_errors() {
        let bytes = busy_store().snapshot_for_checkpoint().encode();
        assert_eq!(
            StoreCheckpoint::decode(&bytes[..bytes.len() - 3]),
            Err(CheckpointError::ChecksumMismatch {
                expected: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
                actual: checksum(&bytes[16..bytes.len() - 3]),
            })
        );
        assert_eq!(
            StoreCheckpoint::decode(b"nope"),
            Err(CheckpointError::BadMagic)
        );
        let mut wrong_format = bytes.clone();
        wrong_format[4] = 0xee;
        assert!(matches!(
            StoreCheckpoint::decode(&wrong_format),
            Err(CheckpointError::UnsupportedFormat(_))
        ));
        wrong_format[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            StoreCheckpoint::decode(&wrong_format),
            Err(CheckpointError::UnsupportedFormat(1))
        );
        assert_eq!(StoreCheckpoint::decode(&[]), Err(CheckpointError::BadMagic));
    }

    /// A store of `dim` parameters with momentum and one push applied.
    fn wide_store(dim: usize) -> ParameterStore {
        let mut s = ParameterStore::new(vec![0.5; dim], 1).with_momentum(0.9);
        s.apply_push(WorkerId::new(0), &vec![0.25; dim], 0.1);
        s
    }

    /// Checkpoints over one checksum segment: 1.28 MB (two segments) and
    /// 4.8 MB (a full block of lanes and a partial tail). Flipping the
    /// first, middle or last payload byte of any segment is a checksum
    /// mismatch.
    #[test]
    fn a_flip_in_any_segment_is_a_checksum_mismatch() {
        use crate::SEGMENT;
        for dim in [160_000, 600_000] {
            let bytes = wide_store(dim).snapshot_for_checkpoint().encode();
            let payload_len = bytes.len() - HEADER_LEN;
            assert!(payload_len > SEGMENT);
            for start in (0..payload_len).step_by(SEGMENT) {
                let end = (start + SEGMENT).min(payload_len) - 1;
                for at in [start, (start + end) / 2, end] {
                    let mut bad = bytes.clone();
                    bad[HEADER_LEN + at] ^= 0x01;
                    assert!(
                        matches!(
                            StoreCheckpoint::decode(&bad),
                            Err(CheckpointError::ChecksumMismatch { .. })
                        ),
                        "{dim} params, payload byte {at}"
                    );
                }
            }
        }
    }

    /// The encoder before the single-buffer one: the payload built in one
    /// `Vec`, the blob assembled in a second. Kept as the reference
    /// `encode` must stay byte-identical to.
    fn reference_encode(ckpt: &StoreCheckpoint) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, ckpt.num_shards as u64);
        put_u64(&mut payload, ckpt.version);
        put_f32(&mut payload, ckpt.momentum);
        match ckpt.grad_clip {
            Some(clip) => {
                payload.push(1);
                put_f32(&mut payload, clip);
            }
            None => payload.push(0),
        }
        put_f32_slice(&mut payload, &ckpt.params);
        put_f32_slice(&mut payload, &ckpt.velocity);
        put_u64_slice(&mut payload, &ckpt.pushes_per_worker);
        put_u64_slice(&mut payload, &ckpt.last_pull_version);
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT.to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    #[test]
    fn encoder_is_byte_identical_to_the_two_buffer_reference() {
        let plain = ParameterStore::new(vec![-0.0, f32::MIN_POSITIVE, 3.5], 2);
        for mut store in [busy_store(), plain, wide_store(600_000)] {
            let ckpt = store.snapshot_for_checkpoint();
            let bytes = ckpt.encode();
            assert_eq!(
                bytes,
                reference_encode(&ckpt),
                "{} params",
                ckpt.num_params()
            );
            assert_eq!(StoreCheckpoint::decode(&bytes), Ok(ckpt));
        }
    }

    #[test]
    fn lazy_momentum_state_is_settled_before_capture() {
        use specsync_tensor::SparseGrad;
        let mut s = ParameterStore::new(vec![0.0; 4], 2).with_momentum(0.8);
        let mut g = SparseGrad::new();
        g.reset(4);
        g.add(1, 1.0);
        g.finish();
        s.apply_push_sparse(WorkerId::new(0), &g, 0.1);
        s.apply_push_sparse(WorkerId::new(0), &g, 0.1);
        let ckpt = s.snapshot_for_checkpoint();
        let mut restored = ParameterStore::restore(ckpt).expect("valid");
        assert_eq!(s.params(), restored.params());
    }
}
