//! Fragment integrity checksums.
//!
//! The paper's system model (§3.1) notes that Pahoehoe "detect\[s\] disk
//! corruption using hashes" (elided there for space). This module supplies
//! that hash: a fast 64-bit content checksum recorded when a fragment is
//! durably stored and re-verified by the fragment server's scrubber. It
//! detects corruption, not adversaries — Pahoehoe's failure model is
//! benign (no Byzantine faults), so a non-cryptographic hash suffices.
//!
//! The implementation runs **four independent FNV-1a lanes** over 32-byte
//! chunks — breaking the single-lane multiply dependency chain that caps
//! plain FNV at one multiply per 8 bytes — then folds the lanes together
//! with rotations, absorbs the tail serially, and finishes with a
//! splitmix64 avalanche. Nothing persists checksums, so only within-run
//! consistency matters.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// A 64-bit content checksum.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Checksum(u64);

impl Checksum {
    /// Computes the checksum of `data`.
    // lint:hot
    pub fn of(data: &[u8]) -> Self {
        // Four FNV-1a lanes advance in lockstep over 32-byte chunks, so
        // the four multiplies per chunk are independent and pipeline.
        let mut lanes: [u64; 4] = [
            FNV_OFFSET,
            FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
            FNV_OFFSET ^ 0xc2b2_ae3d_27d4_eb4f,
            FNV_OFFSET ^ 0x1656_67b1_9e37_79f9,
        ];
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
        h ^= data.len() as u64;
        for &b in chunks.remainder() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        Checksum(finalize(h))
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
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let sum = Checksum::of(&data);
        assert!(sum.verify(&data));
        for bit in [0usize, 7, 8 * 4999 + 3, 8 * 9999 + 7] {
            let mut corrupted = data.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert!(!sum.verify(&corrupted), "bit {bit} undetected");
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
        // Inputs long enough to exercise the 4-lane path, differing only
        // in which lane a byte lands in, must not collide.
        let base: Vec<u8> = (0..256).map(|i| (i % 251) as u8).collect();
        let sums: Vec<u64> = (0..32)
            .map(|off| {
                let mut v = base.clone();
                v[off] ^= 0x5a;
                Checksum::of(&v).as_u64()
            })
            .collect();
        for i in 0..sums.len() {
            for j in (i + 1)..sums.len() {
                assert_ne!(sums[i], sums[j], "offsets {i} and {j} collide");
            }
        }
    }
}
