//! Arithmetic in the finite field GF(2⁸).
//!
//! Elements are bytes; addition is XOR; multiplication is polynomial
//! multiplication modulo the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (`0x11d`), the polynomial conventionally used by
//! storage Reed-Solomon implementations. Multiplication and division are
//! table-driven: `EXP`/`LOG` tables are generated at compile time from the
//! generator element `2`, and a flat 64 KiB [`MUL`] product table (also
//! compile-time) backs the hot paths. The log/exp routines
//! ([`mul_logexp`], [`mul_acc_ref`]) are kept as the reference
//! implementation that the tables and property tests are checked against.
//!
//! The bulk [`mul_acc`] kernel has one body per platform. On x86-64 with
//! AVX2 it runs a split-nibble shuffle kernel (the PSHUFB technique
//! standard in storage Reed-Solomon libraries): each byte's product is the
//! XOR of two 16-entry table lookups — one indexed by the low nibble, one
//! by the high — and a 32-wide byte shuffle performs all lookups of a
//! register at once. Everywhere else it runs the scalar flat-table loop,
//! which also finishes the kernel's sub-register tails. The property tests
//! pin both to [`mul_acc_ref`] bit for bit.

/// The primitive polynomial, with the x⁸ term included (`0x11d`).
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// Order of the multiplicative group (number of non-zero elements).
pub const GROUP_ORDER: usize = 255;

/// `EXP[i] = 2^i` for `i` in `0..510`; doubled so that
/// `EXP[LOG[a] + LOG[b]]` never needs a modular reduction.
pub static EXP: [u8; 510] = build_exp();

/// `LOG[a]` is the discrete logarithm of `a` base `2`; `LOG[0]` is unused
/// (set to 0, never read because multiplication short-circuits on zero).
pub static LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 510] {
    let mut table = [0u8; 510];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// Flat 64 KiB multiplication table: `MUL[a][b] == a * b` in GF(2⁸).
///
/// `MUL[a]` is a contiguous 256-byte row, so the encode/decode inner loops
/// fetch one row per scalar and then index it per source byte — no
/// zero-checks, no log/exp double lookup, and the row stays resident in L1
/// for the whole slice.
pub static MUL: [[u8; 256]; 256] = build_mul();

const fn build_mul() -> [[u8; 256]; 256] {
    let exp = build_exp();
    let log = build_log();
    let mut table = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let mut b = 1usize;
        while b < 256 {
            table[a][b] = exp[log[a] as usize + log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// Split-nibble product tables for the SIMD kernel: for each scalar `s`,
/// `NIB_LO[s][x] == s * x` (products of the 16 possible low nibbles) and
/// `NIB_HI[s][x] == s * (x << 4)` (products of the 16 possible high
/// nibbles). Since GF(2⁸) multiplication distributes over XOR and any
/// byte is `(b & 0x0f) ^ (b & 0xf0)`, the full product is
/// `NIB_LO[s][b & 0x0f] ^ NIB_HI[s][b >> 4]` — two shuffle-sized lookups.
static NIB_LO: [[u8; 16]; 256] = build_nib(false);

/// High-nibble half of the split-product tables; see [`NIB_LO`].
static NIB_HI: [[u8; 16]; 256] = build_nib(true);

const fn build_nib(high: bool) -> [[u8; 16]; 256] {
    let mul = build_mul();
    let mut table = [[0u8; 16]; 256];
    let mut s = 0usize;
    while s < 256 {
        let mut x = 0usize;
        while x < 16 {
            table[s][x] = mul[s][if high { x << 4 } else { x }];
            x += 1;
        }
        s += 1;
    }
    table
}

/// Returns the 256-byte multiplication row for `scalar`:
/// `mul_row(s)[b] == s * b`.
///
/// Hot loops that apply one scalar to a whole slice should fetch the row
/// once and index it directly, as [`mul_acc`] does.
#[inline]
pub fn mul_row(scalar: u8) -> &'static [u8; 256] {
    &MUL[scalar as usize]
}

/// Adds two field elements. In GF(2⁸) addition and subtraction are both XOR.
#[inline]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts `b` from `a`; identical to [`add`] in characteristic 2.
#[inline]
pub const fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements (branch-free [`MUL`] table lookup).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    MUL[a as usize][b as usize]
}

/// Multiplies two field elements via the log/exp tables.
///
/// Reference implementation for [`mul`]; kept for the property tests.
#[inline]
pub fn mul_logexp(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b == 0`; division by zero is undefined in a field.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(2^8)");
    if a == 0 {
        0
    } else {
        let diff = LOG[a as usize] as usize + GROUP_ORDER - LOG[b as usize] as usize;
        EXP[diff % GROUP_ORDER]
    }
}

/// Computes the multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a == 0`; zero has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(2^8)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// Raises `a` to the power `e` (with the convention `pow(0, 0) == 1`).
pub fn pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    // a = 2^LOG[a], so a^e = 2^(LOG[a]*e mod 255).
    let log = LOG[a as usize] as usize * (e % GROUP_ORDER);
    EXP[log % GROUP_ORDER]
}

/// Multiplies every byte of `src` by `scalar` and XORs the products into
/// `dst`: `dst[i] ^= scalar * src[i]`.
///
/// This is the inner loop of Reed-Solomon encoding and decoding.
/// `scalar == 1` degenerates to a word-wide XOR; on x86-64 with AVX2 the
/// body runs the split-nibble shuffle kernel ([`NIB_LO`] / [`NIB_HI`]),
/// and everywhere else it fetches the 256-byte [`MUL`] row for `scalar`
/// once and runs a branch-free, 8-way-unrolled loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
// lint:hot
pub fn mul_acc(dst: &mut [u8], src: &[u8], scalar: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc slice length mismatch");
    if scalar == 0 {
        return;
    }
    if scalar == 1 {
        xor_slice(dst, src);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::mul_acc_simd(dst, src, scalar) {
        return;
    }
    mul_acc_table(dst, src, scalar);
}

/// The portable flat-table body of [`mul_acc`] (non-trivial scalars);
/// also finishes the sub-register tail for the AVX2 kernel.
// lint:hot
fn mul_acc_table(dst: &mut [u8], src: &[u8], scalar: u8) {
    let row = mul_row(scalar);
    let mut d_chunks = dst.chunks_exact_mut(8);
    let mut s_chunks = src.chunks_exact(8);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        // Gather the 8 products into one word so the accumulate is a
        // single load + XOR + store instead of 8 byte-wide read-modify-
        // writes.
        let products = u64::from_ne_bytes([
            row[s[0] as usize],
            row[s[1] as usize],
            row[s[2] as usize],
            row[s[3] as usize],
            row[s[4] as usize],
            row[s[5] as usize],
            row[s[6] as usize],
            row[s[7] as usize],
        ]);
        let dw = u64::from_ne_bytes(d.try_into().expect("chunk is 8 bytes"));
        d.copy_from_slice(&(dw ^ products).to_ne_bytes());
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= row[*s as usize];
    }
}

/// XORs `src` into `dst` one machine word at a time (the `scalar == 1`
/// fast path of [`mul_acc`]; GF(2⁸) multiplication by 1 is the identity,
/// so the accumulate step is a plain XOR).
// lint:hot
fn xor_slice(dst: &mut [u8], src: &[u8]) {
    const W: usize = std::mem::size_of::<u64>();
    let mut d_chunks = dst.chunks_exact_mut(W);
    let mut s_chunks = src.chunks_exact(W);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        let dw = u64::from_ne_bytes(d.try_into().expect("chunk is W bytes"));
        let sw = u64::from_ne_bytes(s.try_into().expect("chunk is W bytes"));
        d.copy_from_slice(&(dw ^ sw).to_ne_bytes());
    }
    for (d, s) in d_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *d ^= *s;
    }
}

/// The x86-64 split-nibble shuffle kernel behind [`mul_acc`].
///
/// This module is the one place the crate steps outside safe Rust: the
/// PSHUFB technique needs the `std::arch` intrinsics. The unsafety is
/// narrow and mechanical — unaligned 16/32-byte loads and stores entirely
/// inside bounds established by `chunks_exact`, plus a `#[target_feature]`
/// function that is only reached behind the matching runtime CPU feature
/// check — and the kernel is pinned bit-for-bit to [`mul_acc_ref`] by the
/// property tests.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::{mul_acc_table, NIB_HI, NIB_LO};
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    /// Runs the AVX2 shuffle kernel; returns `false` when the CPU lacks
    /// AVX2 so the caller falls back to the portable loop. The
    /// `is_x86_feature_detected!` result is cached by the standard
    /// library, so the per-call cost is one atomic load.
    // lint:hot
    #[inline]
    pub fn mul_acc_simd(dst: &mut [u8], src: &[u8], scalar: u8) -> bool {
        if !std::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: the AVX2 feature was just verified at runtime.
        unsafe { mul_acc_avx2(dst, src, scalar) };
        true
    }

    /// 32 bytes per iteration: both 16-entry nibble tables are broadcast
    /// to the two 128-bit lanes (PSHUFB shuffles within lanes), each
    /// source register is split into nibble indices, and the two
    /// shuffled product halves XOR together and into `dst`.
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_acc_avx2(dst: &mut [u8], src: &[u8], scalar: u8) {
        // SAFETY: the nibble tables are 16-byte rows, valid for an
        // unaligned 128-bit load.
        let (lo, hi) = unsafe {
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    NIB_LO[scalar as usize].as_ptr().cast::<__m128i>(),
                )),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    NIB_HI[scalar as usize].as_ptr().cast::<__m128i>(),
                )),
            )
        };
        let mask = _mm256_set1_epi8(0x0f);
        let mut d_chunks = dst.chunks_exact_mut(32);
        let mut s_chunks = src.chunks_exact(32);
        for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
            // SAFETY: `chunks_exact` guarantees `d` and `s` are exactly
            // 32 bytes, in bounds for unaligned 256-bit access.
            unsafe {
                let sv = _mm256_loadu_si256(s.as_ptr().cast::<__m256i>());
                let lo_idx = _mm256_and_si256(sv, mask);
                // The 64-bit lane shift drags bits across byte borders,
                // but the mask keeps only each byte's own high nibble.
                let hi_idx = _mm256_and_si256(_mm256_srli_epi64(sv, 4), mask);
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo, lo_idx),
                    _mm256_shuffle_epi8(hi, hi_idx),
                );
                let dv = _mm256_loadu_si256(d.as_ptr().cast::<__m256i>());
                _mm256_storeu_si256(d.as_mut_ptr().cast::<__m256i>(), _mm256_xor_si256(dv, prod));
            }
        }
        mul_acc_table(d_chunks.into_remainder(), s_chunks.remainder(), scalar);
    }
}

/// Log/exp-table reference implementation of [`mul_acc`].
///
/// Byte-at-a-time with a zero check per source byte — exactly the loop the
/// codec shipped with before the flat-table rewrite. The property tests
/// assert `mul_acc` matches this for all scalars, and the codec's unit
/// tests build their whole-stripe oracle from it.
pub fn mul_acc_ref(dst: &mut [u8], src: &[u8], scalar: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc slice length mismatch");
    if scalar == 0 {
        return;
    }
    if scalar == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
        return;
    }
    let log_s = LOG[scalar as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= EXP[log_s + LOG[*s as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slice lengths both `mul_acc` bodies are checked at, over all 256
    /// scalars.
    const REFERENCE_LENS: [usize; 5] = [19, 16, 32, 133, 1000];

    #[test]
    fn exp_log_are_inverse_bijections() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
        for i in 0..255usize {
            assert_eq!(LOG[EXP[i] as usize] as usize, i);
        }
    }

    #[test]
    fn exp_table_wraps_at_group_order() {
        for i in 0..255usize {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // 2 is primitive for 0x11d: powers 2^0..2^254 hit every non-zero
        // element exactly once.
        let mut seen = [false; 256];
        for i in 0..255usize {
            assert!(!seen[EXP[i] as usize], "2^{i} repeated");
            seen[EXP[i] as usize] = true;
        }
        assert!(!seen[0]);
    }

    #[test]
    fn mul_matches_schoolbook() {
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut p = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                let carry = a & 0x80 != 0;
                a <<= 1;
                if carry {
                    a ^= (PRIMITIVE_POLY & 0xff) as u8;
                }
                b >>= 1;
            }
            p
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "mul({a},{b})");
            }
        }
    }

    #[test]
    fn mul_table_matches_logexp_reference() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_logexp(a, b), "MUL[{a}][{b}]");
                assert_eq!(MUL[a as usize][b as usize], mul_logexp(a, b));
            }
        }
    }

    #[test]
    fn mul_row_is_table_row() {
        for s in 0..=255u8 {
            let row = mul_row(s);
            for b in 0..=255u8 {
                assert_eq!(row[b as usize], mul(s, b));
            }
        }
    }

    #[test]
    fn mul_acc_matches_reference_all_scalars() {
        // Lengths chosen to cross every kernel boundary: sub-register
        // (16, 19), exactly one AVX2 register (32), register chunks plus
        // an awkward tail (133), and a realistic row (1000) — each with
        // zeros sprinkled in.
        for len in REFERENCE_LENS {
            let src: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(37) % 251) as u8).collect();
            for scalar in 0..=255u8 {
                let mut fast = vec![0x5Au8; src.len()];
                let mut slow = fast.clone();
                mul_acc(&mut fast, &src, scalar);
                mul_acc_ref(&mut slow, &src, scalar);
                assert_eq!(fast, slow, "len={len} scalar={scalar}");
            }
        }
    }

    #[test]
    fn nib_tables_split_the_product() {
        // NIB_LO[s][b & 0x0f] ^ NIB_HI[s][b >> 4] must reassemble the
        // full MUL row for every scalar and byte.
        for s in 0..=255u8 {
            for b in 0..=255u8 {
                let split =
                    NIB_LO[s as usize][(b & 0x0f) as usize] ^ NIB_HI[s as usize][(b >> 4) as usize];
                assert_eq!(split, mul(s, b), "scalar={s} byte={b}");
            }
        }
    }

    #[test]
    fn mul_acc_table_fallback_matches_reference() {
        // The portable loop must stay correct on its own (it is the tail
        // handler and the whole kernel on every host without AVX2),
        // independent of SIMD dispatch: every scalar, the dispatch test's
        // lengths, and the empty, single-byte and 8-byte-word edges.
        for len in REFERENCE_LENS.into_iter().chain([0, 1, 7, 8, 9]) {
            let src: Vec<u8> = (0..len).map(|i| (i * 7 % 253) as u8).collect();
            for scalar in 0..=255u8 {
                let mut fast = vec![0xC3u8; src.len()];
                let mut slow = fast.clone();
                mul_acc_table(&mut fast, &src, scalar);
                mul_acc_ref(&mut slow, &src, scalar);
                assert_eq!(fast, slow, "len={len} scalar={scalar}");
            }
        }
    }

    #[test]
    fn xor_slice_handles_unaligned_lengths() {
        for len in 0..40usize {
            let src: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(13) ^ 0xA5).collect();
            let mut fast = vec![0x33u8; len];
            let expect: Vec<u8> = fast.iter().zip(&src).map(|(d, s)| d ^ s).collect();
            mul_acc(&mut fast, &src, 1);
            assert_eq!(fast, expect, "len={len}");
        }
    }

    #[test]
    fn div_inverts_mul() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(div(mul(a, b), b), a, "({a}*{b})/{b}");
            }
        }
    }

    #[test]
    fn inv_is_multiplicative_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = div(7, 0);
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(1, 200), 1);
        for a in 1..=255u8 {
            assert_eq!(pow(a, 1), a);
            assert_eq!(pow(a, 2), mul(a, a));
            assert_eq!(pow(a, 255), 1, "Fermat: a^(q-1) = 1");
            assert_eq!(pow(a, 256), a, "a^q = a");
            assert_eq!(pow(a, 254), inv(a), "a^(q-2) = a^-1");
        }
    }

    #[test]
    fn mul_acc_accumulates() {
        let src = [1u8, 2, 3, 0, 255];
        let mut dst = [9u8, 9, 9, 9, 9];
        mul_acc(&mut dst, &src, 7);
        for i in 0..src.len() {
            assert_eq!(dst[i], 9 ^ mul(src[i], 7));
        }
    }

    #[test]
    fn mul_acc_scalar_zero_is_noop() {
        let src = [42u8; 8];
        let mut dst = [3u8; 8];
        mul_acc(&mut dst, &src, 0);
        assert_eq!(dst, [3u8; 8]);
    }

    #[test]
    fn mul_acc_scalar_one_is_xor() {
        let src = [0xAAu8; 4];
        let mut dst = [0xFFu8; 4];
        mul_acc(&mut dst, &src, 1);
        assert_eq!(dst, [0x55u8; 4]);
    }
}
