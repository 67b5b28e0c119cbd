//! The payload checksum of the frame and checkpoint codecs (format 2).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;

use specsync_simnet::{fnv1a, FNV_OFFSET, FNV_PRIME};

/// Bytes per checksum segment. Part of the format, not a setting.
pub const SEGMENT: usize = 1 << 20;

/// Full segments one core hashes in one pass, their FNV-1a chains
/// interleaved. FNV-1a is latency bound (each byte waits on the previous
/// byte's multiply), so independent chains keep the multiplier busy; four
/// measured fastest, eight no faster. Speed only: each segment still
/// hashes to its own FNV-1a.
const LANES: usize = 4;

/// The checksum of `bytes`: FNV-1a of each [`SEGMENT`], folded left as
/// `acc = (acc ^ h_i) * FNV_PRIME` from `h_0`, so a payload of at most one
/// segment hashes to exactly its FNV-1a. Larger payloads are hashed on up
/// to `available_parallelism()` threads, the caller among them; the value
/// depends on the bytes only.
pub fn checksum(bytes: &[u8]) -> u64 {
    if bytes.len() <= SEGMENT {
        return fnv1a(bytes);
    }
    let threads = thread::available_parallelism().map_or(1, usize::from);
    checksum_on(bytes, threads)
}

/// [`checksum`] of a payload longer than one segment, on `threads`.
///
/// The work units are the blocks of [`LANES`] full segments, then each
/// segment left over, the partial tail last. Threads take the next unit
/// from a shared counter, so every thread stays busy until the units run
/// out.
fn checksum_on(bytes: &[u8], threads: usize) -> u64 {
    let (full, tail) = bytes.as_chunks::<SEGMENT>();
    let (blocks, _) = full.as_chunks::<LANES>();
    let first_single = blocks.len() * LANES;
    let segments = bytes.len().div_ceil(SEGMENT);
    let units = blocks.len() + segments - first_single;
    let hashes: Vec<AtomicU64> = (0..segments).map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let unit = next.fetch_add(1, Ordering::Relaxed);
        if let Some(block) = blocks.get(unit) {
            let out = &hashes[unit * LANES..][..LANES];
            for (slot, h) in out.iter().zip(hash_lanes(block)) {
                slot.store(h, Ordering::Relaxed);
            }
        } else if unit < units {
            let index = first_single + unit - blocks.len();
            let segment = full.get(index).map_or(tail, |seg| seg.as_slice());
            hashes[index].store(fnv1a(segment), Ordering::Relaxed);
        } else {
            break;
        }
    };
    // Relaxed is enough: the counter publishes nothing, and the scope
    // joins every thread, ordering each hash store before the fold.
    thread::scope(|s| {
        for _ in 1..threads.clamp(1, units) {
            s.spawn(work);
        }
        work();
    });
    hashes
        .into_iter()
        .map(AtomicU64::into_inner)
        .reduce(|acc, h| (acc ^ h).wrapping_mul(FNV_PRIME))
        .unwrap_or(FNV_OFFSET)
}

/// The FNV-1a of each of [`LANES`] full segments, in one interleaved pass.
fn hash_lanes(block: &[[u8; SEGMENT]; LANES]) -> [u64; LANES] {
    let mut hashes = [FNV_OFFSET; LANES];
    for i in 0..SEGMENT {
        for (h, segment) in hashes.iter_mut().zip(block) {
            *h = (*h ^ u64::from(segment[i])).wrapping_mul(FNV_PRIME);
        }
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + i / 7) as u8).collect()
    }

    /// The format rule written out: fold the per-segment FNV-1a values.
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

    /// Every layout from one segment to two lane blocks and one more, the
    /// last segment full, partial or a single byte, on 1, 2, 3 and 64
    /// threads, against the rule written out.
    #[test]
    fn every_lane_layout_matches_the_rule_written_out() {
        let longest = pattern((2 * LANES + 1) * SEGMENT);
        let full: Vec<u64> = longest.chunks(SEGMENT).map(fnv1a).collect();
        for segments in 1..=2 * LANES + 1 {
            for last in [SEGMENT, SEGMENT / 3, 1] {
                let start = (segments - 1) * SEGMENT;
                let bytes = &longest[..start + last];
                let mut hashes = full[..segments - 1].to_vec();
                hashes.push(fnv1a(&bytes[start..]));
                for threads in [1, 2, 3, 64] {
                    assert_eq!(
                        checksum_on(bytes, threads),
                        fold(&hashes),
                        "{segments} segments, last {last}, {threads} threads"
                    );
                }
            }
        }
    }

    /// The fold, pinned: a fixed pattern spanning three segments, the last
    /// one partial, against the rule written out and against a literal
    /// computed by an independent implementation.
    #[test]
    fn pinned_value_of_three_segments() {
        let bytes = pattern(2 * SEGMENT + 7);
        let h: Vec<u64> = bytes.chunks(SEGMENT).map(fnv1a).collect();
        let folded = ((h[0] ^ h[1]).wrapping_mul(FNV_PRIME) ^ h[2]).wrapping_mul(FNV_PRIME);
        assert_eq!(checksum(&bytes), folded);
        assert_eq!(checksum(&bytes), 0x9768_e727_5f34_b721);
    }

    /// Two full lane blocks, one full segment left over and a partial
    /// tail, pinned to a literal computed by an independent implementation.
    #[test]
    fn pinned_value_of_two_lane_blocks_and_a_tail() {
        let bytes = pattern((2 * LANES + 1) * SEGMENT + 11);
        let hashes: Vec<u64> = bytes.chunks(SEGMENT).map(fnv1a).collect();
        assert_eq!(checksum(&bytes), fold(&hashes));
        assert_eq!(checksum(&bytes), 0x80fa_0376_1fcc_19d2);
    }
}
