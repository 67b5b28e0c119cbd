//! The payload checksum of the frame codec (format 3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

use specsync_simnet::{fnv1a, FNV_OFFSET, FNV_PRIME};

/// Bytes per checksum segment. Part of the format, not a setting.
pub const SEGMENT: usize = 1 << 20;

/// The odd multiplier and the left rotation of a [`segment_hash`] lane step.
const K: u64 = 0x9E37_79B9_7F4A_7C15;
const R: u32 = 29;

/// The checksum of `bytes`. A payload of at most one [`SEGMENT`] hashes
/// to exactly its FNV-1a. A longer one is cut into segments, each hashed
/// by `segment_hash`, and the hashes are folded left as
/// `acc = (acc ^ h_i) * FNV_PRIME` from `h_0`, on up to
/// `available_parallelism()` threads, the caller among them; the value
/// depends on the bytes only.
pub fn checksum(bytes: &[u8]) -> u64 {
    if bytes.len() <= SEGMENT {
        return fnv1a(bytes);
    }
    checksum_on(bytes, threads())
}

/// [`checksum`] of a payload longer than one segment, on `threads`.
fn checksum_on(bytes: &[u8], threads: usize) -> u64 {
    fold_segments(bytes.chunks(SEGMENT), threads, |_, segment| {
        segment_hash(segment)
    })
}

/// The [`checksum`] of `payload` once `fill` has written its bytes from
/// `from` on: `fill(at, dst)` writes the payload's bytes
/// `from + at .. from + at + dst.len()` into `dst`. A payload longer than
/// one segment is filled and hashed a segment at a time, each segment
/// hashed by the thread that filled it while the segment is in cache, on
/// [`checksum`]'s threads; a shorter one is filled, then hashed, on the
/// caller.
///
/// # Panics
///
/// Panics if `from` is past the end of `payload`.
pub fn checksum_filled(
    payload: &mut [u8],
    from: usize,
    fill: impl Fn(usize, &mut [u8]) + Sync,
) -> u64 {
    assert!(from <= payload.len(), "fill starts past the payload");
    if payload.len() <= SEGMENT {
        fill(0, &mut payload[from..]);
        return fnv1a(payload);
    }
    fold_segments(payload.chunks_mut(SEGMENT), threads(), |index, segment| {
        let start = index * SEGMENT;
        if let Some(dst) = segment.get_mut(from.saturating_sub(start)..) {
            fill(start.saturating_sub(from), dst);
        }
        segment_hash(segment)
    })
}

/// The hashes `hash(index, segment)` gives `segments`, computed on
/// `threads` and folded left from the first.
fn fold_segments<S>(
    segments: impl ExactSizeIterator<Item = S> + Send,
    threads: usize,
    hash: impl Fn(usize, S) -> u64 + Sync,
) -> u64
where
    S: Send,
{
    let hashes: Vec<AtomicU64> = (0..segments.len()).map(|_| AtomicU64::new(0)).collect();
    fan_out(segments.enumerate(), threads, |(index, segment)| {
        hashes[index].store(hash(index, segment), Ordering::Relaxed);
    });
    // Relaxed is enough: `fan_out` joins every thread before it returns,
    // ordering each hash store before the fold.
    hashes
        .into_iter()
        .map(AtomicU64::into_inner)
        .reduce(fnv_step)
        .unwrap_or(FNV_OFFSET)
}

/// `available_parallelism()`, read once per process: std reads cgroup
/// files to answer it.
pub(crate) fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `work` on every item on up to `threads` threads, the caller
/// among them. Each thread takes the next item as it finishes one, so
/// every thread stays busy until the items run out. With one item, or one
/// thread, everything runs on the caller and nothing is spawned.
pub(crate) fn fan_out<I>(items: I, threads: usize, work: impl Fn(I::Item) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    let spawned = threads.min(items.len()).saturating_sub(1);
    if spawned == 0 {
        items.for_each(work);
        return;
    }
    let items = Mutex::new(items);
    let run = || loop {
        let next = items.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some(item) = next else {
            break;
        };
        work(item);
    };
    thread::scope(|s| {
        for _ in 0..spawned {
            s.spawn(run);
        }
        run();
    });
}

/// The hash of one segment of a multi-segment payload, 8 bytes at a time.
///
/// Four lanes, seeded `FNV_OFFSET ^ lane`, take the little-endian words of
/// each 32-byte block in turn: `h = (h ^ w) * K`, rotated left by `R`.
/// Each lane chain is independent, so a core keeps four multiplies in
/// flight. Every step is a bijection of the lane for a fixed word and of
/// the word for a fixed lane, and so is every FNV step of the closing
/// fold of the segment length, the four lanes and the remaining bytes:
/// a change confined to one aligned 8-byte word of a block, or to one
/// remaining byte, always changes the hash.
fn segment_hash(segment: &[u8]) -> u64 {
    let (blocks, rest) = segment.as_chunks::<32>();
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    for block in blocks {
        for (h, w) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *h = (*h ^ u64::from_le_bytes(*w)).wrapping_mul(K).rotate_left(R);
        }
    }
    let acc = fnv_step(FNV_OFFSET, segment.len() as u64);
    let acc = lanes.into_iter().fold(acc, fnv_step);
    rest.iter().fold(acc, |acc, &b| fnv_step(acc, u64::from(b)))
}

/// One FNV-1a step over a 64-bit value: `(acc ^ x) * FNV_PRIME`.
fn fnv_step(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(FNV_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + i / 7) as u8).collect()
    }

    /// The format rule written out: fold the per-segment hashes.
    fn fold(hashes: &[u64]) -> u64 {
        hashes[1..]
            .iter()
            .fold(hashes[0], |acc, &h| (acc ^ h).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn one_segment_is_plain_fnv1a() {
        for len in [0, 1, SEGMENT] {
            let bytes = pattern(len);
            assert_eq!(checksum(&bytes), fnv1a(&bytes), "{len} bytes");
        }
        // One byte more is two segments, each hashed word-wise.
        let bytes = pattern(SEGMENT + 1);
        let (head, tail) = bytes.split_at(SEGMENT);
        assert_eq!(
            checksum(&bytes),
            fold(&[segment_hash(head), segment_hash(tail)])
        );
    }

    #[test]
    fn the_thread_count_does_not_change_the_value() {
        let bytes = pattern(5 * SEGMENT + 3);
        let one = checksum_on(&bytes, 1);
        for threads in [2, 3, 6, 64] {
            assert_eq!(checksum_on(&bytes, threads), one, "{threads} threads");
        }
        assert_eq!(checksum(&bytes), one);
    }

    /// Filled a segment at a time, a payload holds the bytes one pass
    /// writes and hashes to their checksum, wherever `from` falls: the
    /// first segment, the second, a segment edge, the very end.
    #[test]
    fn a_filled_payload_hashes_as_written() {
        for (len, from) in [
            (0, 0),
            (10, 3),
            (SEGMENT, 17),
            (SEGMENT + 1, 17),
            (2 * SEGMENT + 5, SEGMENT + 3),
            (2 * SEGMENT + 5, 2 * SEGMENT),
            (3 * SEGMENT, 3 * SEGMENT),
        ] {
            let written = pattern(len);
            let mut payload = vec![0xAA; len];
            payload[..from].copy_from_slice(&written[..from]);
            let sum = checksum_filled(&mut payload, from, |at, dst| {
                dst.copy_from_slice(&written[from + at..from + at + dst.len()]);
            });
            assert!(payload == written, "{len} bytes from {from}");
            assert_eq!(sum, checksum(&written), "{len} bytes from {from}");
        }
    }

    /// Every layout from two to nine segments, the last one full, partial
    /// or a single byte, on 1, 2, 3 and 64 threads, and every remainder
    /// of 1 to 31 bytes past the last segment's four-lane blocks, against
    /// the rule written out.
    #[test]
    fn every_lane_layout_matches_the_rule_written_out() {
        let longest = pattern(9 * SEGMENT);
        let full: Vec<u64> = longest.chunks(SEGMENT).map(segment_hash).collect();
        let layout = |segments: usize, last: usize, threads: &[usize]| {
            let start = (segments - 1) * SEGMENT;
            let bytes = &longest[..start + last];
            let mut hashes = full[..segments - 1].to_vec();
            hashes.push(segment_hash(&bytes[start..]));
            for &threads in threads {
                assert_eq!(
                    checksum_on(bytes, threads),
                    fold(&hashes),
                    "{segments} segments, last {last}, {threads} threads"
                );
            }
        };
        for segments in 2..=9 {
            for last in [SEGMENT, SEGMENT / 3, 1] {
                layout(segments, last, &[1, 2, 3, 64]);
            }
        }
        for remainder in 1..32 {
            layout(2, 64 + remainder, &[1, 2]);
        }
    }

    /// The fold, pinned: a fixed pattern spanning three segments, the last
    /// one partial, against the rule written out and against a literal
    /// computed by an independent implementation.
    #[test]
    fn pinned_value_of_three_segments() {
        let bytes = pattern(2 * SEGMENT + 7);
        let h: Vec<u64> = bytes.chunks(SEGMENT).map(segment_hash).collect();
        let folded = ((h[0] ^ h[1]).wrapping_mul(FNV_PRIME) ^ h[2]).wrapping_mul(FNV_PRIME);
        assert_eq!(checksum(&bytes), folded);
        assert_eq!(checksum(&bytes), 0xc14a_c470_8646_f9cf);
    }

    /// Sixteen full segments and a tail of 712 blocks and 17 bytes, the
    /// shape of a 4.2 M-parameter frame, pinned to a literal computed by an
    /// independent implementation.
    #[test]
    fn pinned_value_of_sixteen_segments_and_a_tail() {
        let bytes = pattern(16 * SEGMENT + 22_801);
        let hashes: Vec<u64> = bytes.chunks(SEGMENT).map(segment_hash).collect();
        assert_eq!(checksum(&bytes), fold(&hashes));
        assert_eq!(checksum(&bytes), 0x0e66_ab9c_1cdc_c221);
    }

    /// Two segments and 37 bytes: flipping any one bit of the first or
    /// last 64 bytes of each segment (so all of the last one, its 5-byte
    /// remainder included) or of 2 000 seeded random bytes changes the
    /// checksum.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut bytes = pattern(2 * SEGMENT + 37);
        let len = bytes.len();
        let clean = checksum(&bytes);
        let mut at: Vec<usize> = (0..len)
            .step_by(SEGMENT)
            .flat_map(|start| {
                let end = (start + SEGMENT).min(len);
                (start..start + 64).chain(end - 64..end)
            })
            .filter(|&i| i < len)
            .collect();
        let mut x = 0x5EED_u64;
        at.extend((0..2_000).map(|_| {
            // xorshift64*, scaled to [0, len).
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((u128::from(r) * len as u128) >> 64) as usize
        }));
        for i in at {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                assert_ne!(checksum(&bytes), clean, "byte {i}, bit {bit}");
                bytes[i] ^= 1 << bit;
            }
        }
    }
}
