//! Fragment integrity checksums.
//!
//! The paper's system model (§3.1) notes that Pahoehoe "detect\[s\] disk
//! corruption using hashes" (elided there for space). This module supplies
//! that hash: a fast 64-bit content checksum recorded when a fragment is
//! durably stored and re-verified by the fragment server's scrubber. It
//! detects corruption, not adversaries — Pahoehoe's failure model is
//! benign (no Byzantine faults), so a non-cryptographic hash suffices.
//!
//! The implementation has two bodies, split by input length. Below
//! [`WIDE_MIN`] it runs **four independent FNV-1a lanes** over 32-byte
//! chunks — breaking the single-lane multiply dependency chain that caps
//! plain FNV at one multiply per 8 bytes — then folds the lanes together
//! with rotations, absorbs the tail serially, and finishes with a
//! splitmix64 avalanche. At and above it, **128 `u32` FNV-1a lanes**
//! advance over 512-byte blocks, a loop LLVM vectorizes; the lanes fold in
//! a pairwise multiply-rotate-XOR tree, whose root seeds the four-lane
//! body for the last (under 512) bytes and the finish. The wide body pays
//! a fixed cost of about 40 ns to start and fold its lanes: with AVX2 it
//! overtakes the four lanes near 1.5 KiB, and [`WIDE_MIN`] = 4 KiB leaves
//! a margin (DESIGN §8.4 has the measurements).
//!
//! Checksums are persisted in one place: `check::explorer`'s digest lines
//! record `Checksum::of` of each run's metrics string as `metrics=`, and
//! those lines are committed under `results/digests/`. The metrics strings
//! are about 3 KiB, below [`WIDE_MIN`], so the narrow body keeps exactly
//! the values it has always had; changing it, or lowering [`WIDE_MIN`]
//! below those strings, would move every committed digest. A fragment's
//! checksum only lives within a run.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;
const FNV32_OFFSET: u32 = 0x811c_9dc5;
const FNV32_PRIME: u32 = 0x0100_0193;

/// The four-lane body's starting lanes.
const NARROW_SEED: [u64; 4] = [
    FNV_OFFSET,
    FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
    FNV_OFFSET ^ 0xc2b2_ae3d_27d4_eb4f,
    FNV_OFFSET ^ 0x1656_67b1_9e37_79f9,
];

/// Inputs of at least this many bytes take the wide body.
pub const WIDE_MIN: usize = 4 * 1024;

/// Lanes of the wide body.
const WIDE_LANES: usize = 128;

/// Bytes the wide body consumes per step: one `u32` word per lane.
const WIDE_BLOCK: usize = 4 * WIDE_LANES;

/// The wide body's starting lanes, each a distinct offset from the FNV-1a
/// basis.
const WIDE_SEED: [u32; WIDE_LANES] = {
    let mut seed = [0u32; WIDE_LANES];
    let mut i = 0;
    while i < WIDE_LANES {
        seed[i] = FNV32_OFFSET ^ (i as u32).wrapping_mul(0x9e37_79b9);
        i += 1;
    }
    seed
};

/// A 64-bit content checksum.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Checksum(u64);

impl Checksum {
    /// Computes the checksum of `data`.
    // lint:hot
    pub fn of(data: &[u8]) -> Self {
        if data.len() >= WIDE_MIN {
            return Checksum(wide_on_host(data));
        }
        Checksum(finalize(narrow(data, NARROW_SEED, data.len())))
    }

    /// Whether `data` still matches this checksum.
    pub fn verify(self, data: &[u8]) -> bool {
        Checksum::of(data) == self
    }

    /// The raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// The four-lane body from `lanes`, with `len` mixed in before the tail;
/// not yet finalized. Always inlined, so that short inputs run it as
/// straight-line code in [`Checksum::of`], as before the wide body existed.
#[inline(always)]
fn narrow(data: &[u8], mut lanes: [u64; 4], len: usize) -> u64 {
    // Four FNV-1a lanes advance in lockstep over 32-byte chunks, so
    // the four multiplies per chunk are independent and pipeline.
    let mut chunks = data.chunks_exact(32);
    for c in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }
    // Fold the lanes with distinct rotations so no two lanes can
    // cancel, then absorb the (at most 31-byte) tail serially.
    let mut h = lanes[0];
    for lane in &lanes[1..] {
        h = h.rotate_left(27).wrapping_mul(FNV_PRIME) ^ lane;
    }
    h ^= len as u64;
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`wide`] in the fastest build this CPU runs. Kept out of line: inlined,
/// the wide body's stack frame would be set up on every short input too.
#[inline(never)]
fn wide_on_host(data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(h) = crate::gf::simd::checksum_wide(data) {
        return h;
    }
    wide(data)
}

/// The wide body of [`Checksum::of`], finalized. Always inlined, so that
/// [`gf::simd`](crate::gf) can compile it a second time with AVX2 enabled.
///
/// Every step of a lane, and of the fold, is a bijection of the value it
/// updates, so a change confined to one lane's words always changes the
/// root, and a change in the last bytes always changes the four-lane
/// finish.
#[inline(always)]
pub(crate) fn wide(data: &[u8]) -> u64 {
    let (blocks, rest) = data.as_chunks::<WIDE_BLOCK>();
    let mut lanes = WIDE_SEED;
    for block in blocks {
        let (words, _) = block.as_chunks::<4>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = (*lane ^ u32::from_le_bytes(*word)).wrapping_mul(FNV32_PRIME);
        }
    }
    // Pair the lanes into 64-bit words, then halve the words level by
    // level: each survivor is multiplied and rotated before the XOR, so no
    // two words can cancel.
    let mut words = [0u64; WIDE_LANES / 2];
    let (low, high) = lanes.split_at(WIDE_LANES / 2);
    for ((w, &lo), &hi) in words.iter_mut().zip(low).zip(high) {
        *w = u64::from(lo) | u64::from(hi) << 32;
    }
    let mut n = WIDE_LANES / 2;
    while n > 1 {
        n /= 2;
        let (keep, fold) = words.split_at_mut(n);
        for (w, &f) in keep.iter_mut().zip(&*fold) {
            *w = w.wrapping_mul(FNV_PRIME).rotate_left(29) ^ f;
        }
    }
    let mut seed = NARROW_SEED;
    seed[0] ^= words[0];
    finalize(narrow(rest, seed, data.len()))
}

/// Finalization avalanche (splitmix64 tail).
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(Checksum::of(b"abc"), Checksum::of(b"abc"));
        assert_ne!(Checksum::of(b"abc"), Checksum::of(b"abd"));
        assert_ne!(Checksum::of(b"abc"), Checksum::of(b"abc\0"));
        assert_ne!(Checksum::of(b""), Checksum::of(b"\0"));
    }

    #[test]
    fn verify_detects_single_bit_flips() {
        // Lengths on both sides of the split between the two bodies, and a
        // wide input whose last bytes go through the four-lane finish.
        for len in [10_000, WIDE_MIN - 1, WIDE_MIN, WIDE_MIN + 1, 64 * 1024 + 37] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let sum = Checksum::of(&data);
            assert!(sum.verify(&data));
            for bit in [0usize, 7, 8 * (len / 2) + 3, 8 * (len - 1) + 7] {
                let mut corrupted = data.clone();
                corrupted[bit / 8] ^= 1 << (bit % 8);
                assert!(!sum.verify(&corrupted), "len {len}: bit {bit} undetected");
            }
        }
    }

    /// `len` bytes of a xorshift stream from `seed`.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_avx2_build_matches_the_portable_body() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        // Odd steps from just below the split to 80 KiB give every kind of
        // tail after the last 512-byte block.
        let lens = (WIDE_MIN - 1..=80 * 1024).step_by(1531).chain([80 * 1024]);
        for (seed, len) in lens.enumerate() {
            let data = seeded(len, seed as u64);
            assert_eq!(
                crate::gf::simd::checksum_wide(&data),
                Some(wide(&data)),
                "len {len}"
            );
        }
    }

    #[test]
    fn narrow_body_keeps_its_values() {
        // Committed explorer digests record narrow checksums; these values
        // are the four-lane body's from before the wide body existed.
        let pinned: [(usize, u64); 4] = [
            (0, 0xfbdb_45cd_b940_83c0),
            (31, 0x3e04_aec5_b076_ecad),
            (3000, 0xf080_56f2_222c_3fe6),
            (WIDE_MIN - 1, 0x57d1_0cf5_6110_a60a),
        ];
        for (len, value) in pinned {
            assert_eq!(Checksum::of(&seeded(len, 7)).as_u64(), value, "len {len}");
        }
    }

    #[test]
    fn dispersion_over_similar_inputs() {
        // Checksums of near-identical inputs should not collide and
        // should differ in roughly half their bits on average.
        let mut total_bits = 0u32;
        let n = 500u64;
        for i in 0..n {
            let a = Checksum::of(&i.to_le_bytes());
            let b = Checksum::of(&(i + 1).to_le_bytes());
            assert_ne!(a, b);
            total_bits += (a.as_u64() ^ b.as_u64()).count_ones();
        }
        let avg = f64::from(total_bits) / n as f64;
        assert!((24.0..40.0).contains(&avg), "poor avalanche: {avg}");
    }

    #[test]
    fn lanes_do_not_collide_on_shifted_content() {
        // Inputs differing only in which lane a byte lands in must not
        // collide: 32 offsets across the four-lane path's chunk, and 32
        // spread over the wide path's lanes and its four-lane finish.
        for (len, step) in [(256usize, 1usize), (WIDE_MIN + 300, 139)] {
            let base: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let sums: Vec<u64> = (0..32)
                .map(|n| {
                    let mut v = base.clone();
                    v[n * step] ^= 0x5a;
                    Checksum::of(&v).as_u64()
                })
                .collect();
            for i in 0..sums.len() {
                for j in (i + 1)..sums.len() {
                    assert_ne!(sums[i], sums[j], "len {len}: offsets {i} and {j} collide");
                }
            }
        }
    }
}
