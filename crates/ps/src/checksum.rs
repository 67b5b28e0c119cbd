//! The payload checksum of the frame and checkpoint codecs (format 2).

use std::thread;

use specsync_simnet::{fnv1a, FNV_PRIME};

/// Bytes per checksum segment. Part of the format, not a setting.
pub const SEGMENT: usize = 1 << 20;

/// The checksum of `bytes`: FNV-1a of each [`SEGMENT`], folded left as
/// `acc = (acc ^ h_i) * FNV_PRIME` from `h_0`, so a payload of at most one
/// segment hashes to exactly its FNV-1a. Segments are hashed in contiguous
/// groups on up to `available_parallelism()` threads, the caller taking
/// the first group; the value depends on the bytes only.
pub fn checksum(bytes: &[u8]) -> u64 {
    if bytes.len() <= SEGMENT {
        return fnv1a(bytes);
    }
    let threads = thread::available_parallelism().map_or(1, usize::from);
    checksum_on(bytes, threads)
}

/// [`checksum`] of a payload longer than one segment, on `threads`.
fn checksum_on(bytes: &[u8], threads: usize) -> u64 {
    let segments = bytes.len().div_ceil(SEGMENT);
    let per_group = segments.div_ceil(threads.clamp(1, segments));
    let mut hashes = vec![0u64; segments];
    thread::scope(|s| {
        let mut groups = bytes
            .chunks(per_group * SEGMENT)
            .zip(hashes.chunks_mut(per_group));
        let own = groups.next();
        for (group, out) in groups {
            s.spawn(move || hash_segments(group, out));
        }
        if let Some((group, out)) = own {
            hash_segments(group, out);
        }
    });
    hashes[1..]
        .iter()
        .fold(hashes[0], |acc, &h| (acc ^ h).wrapping_mul(FNV_PRIME))
}

fn hash_segments(group: &[u8], out: &mut [u64]) {
    for (segment, h) in group.chunks(SEGMENT).zip(out) {
        *h = fnv1a(segment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + i / 7) as u8).collect()
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
}
