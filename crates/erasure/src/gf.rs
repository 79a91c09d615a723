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
//! There are two bulk operations. [`mul_acc`] (`dst ^= s · src`) is the
//! portable flat-table primitive; the matrix algebra on k-byte rows runs
//! on it. [`mul_rows`] is the codec's one product: rows of a coefficient
//! matrix times the k input rows, appended to a `Vec` with each output
//! byte written once. It has one body per platform. On x86-64 with AVX2
//! and GFNI it runs a fused affine kernel: multiplication by a constant
//! `s` is linear over GF(2), so it is an 8×8 bit matrix (one `u64` of
//! `AFFINE`), and one `gf2p8affineqb` applies that matrix to all 32
//! bytes of a register. Up to four output rows accumulate in registers
//! across all inputs before each is stored once. Everywhere else it runs
//! the flat-table loop, which writes the first input's product and adds
//! the rest with [`mul_acc`]. The property tests pin both bodies to
//! [`mul_acc_ref`] bit for bit.

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

/// The 8×8 bit matrix of multiplication by each scalar, laid out for
/// `gf2p8affineqb`: byte `7 - i` of `AFFINE[s]` has bit `j` set when bit `i`
/// of `s · 2ʲ` is set, so the instruction's output bit `i` — the parity of
/// that byte AND the input `x` — is bit `i` of `s · x` (multiplication by
/// `s` distributes over the bits of `x`).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
static AFFINE: [u64; 256] = build_affine();

const fn build_affine() -> [u64; 256] {
    let mul = build_mul();
    let mut table = [0u64; 256];
    let mut s = 0usize;
    while s < 256 {
        let mut out_bit = 0;
        while out_bit < 8 {
            let mut row = 0u64;
            let mut in_bit = 0;
            while in_bit < 8 {
                row |= (((mul[s][1 << in_bit] >> out_bit) & 1) as u64) << in_bit;
                in_bit += 1;
            }
            table[s] |= row << (8 * (7 - out_bit));
            out_bit += 1;
        }
        s += 1;
    }
    table
}

/// Returns the 256-byte multiplication row for `scalar`:
/// `mul_row(s)[b] == s * b`.
///
/// Hot loops that apply one scalar to a whole slice should fetch the row
/// once and index it directly, as [`mul_acc`] and [`mul_rows`] do.
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
/// The portable primitive: [`matrix`](crate::matrix)'s algebra on k-byte
/// rows runs on it, and so does the flat-table body of [`mul_rows`].
/// `scalar == 1` degenerates to a word-wide XOR; otherwise it fetches the
/// 256-byte [`MUL`] row for `scalar` once and runs a branch-free,
/// 8-way-unrolled loop.
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

/// Most input rows [`mul_rows`] takes: a code over GF(2⁸) has at most 256
/// fragments.
const MAX_INPUTS: usize = 256;

/// Appends `coeffs.len() * flen` bytes to `out`: for each coefficient row
/// `c`, in order, the `flen` bytes `c[0]·in[0] ^ … ^ c[k-1]·in[k-1]`, where
/// `in` are the `k` rows `inputs` yields.
///
/// This is the one product behind Reed-Solomon encode, decode and
/// recovery: rows of a matrix (as [`Matrix::row`](crate::matrix::Matrix::row)
/// slices) times the `k` input rows. Nothing is zero-filled first: each
/// output byte is written once, into capacity grown with
/// `reserve_exact`, so a `Vec` that arrives empty leaves with
/// `capacity() == len()`. `inputs` is cloned, never collected, so naming
/// the rows allocates nothing. On x86-64 with AVX2 and GFNI the body is
/// the fused affine kernel; everywhere else the flat-table loop writes the
/// first input's product and adds the rest with [`mul_acc`].
///
/// # Panics
///
/// Panics if there are no inputs or more than 256 (no code over GF(2⁸)
/// has more), an input is not `flen` bytes long, or a coefficient row
/// does not have one entry per input.
// lint:hot
pub fn mul_rows<'c, 'i>(
    out: &mut Vec<u8>,
    mut coeffs: impl ExactSizeIterator<Item = &'c [u8]>,
    inputs: impl Iterator<Item = &'i [u8]> + Clone,
    flen: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::mul_rows(out, &mut coeffs, inputs.clone(), flen) {
        return;
    }
    mul_rows_table(out, coeffs, inputs, flen);
}

/// The portable flat-table body of [`mul_rows`].
// lint:hot
fn mul_rows_table<'c, 'i>(
    out: &mut Vec<u8>,
    coeffs: impl ExactSizeIterator<Item = &'c [u8]>,
    inputs: impl Iterator<Item = &'i [u8]> + Clone,
    flen: usize,
) {
    let k = inputs.clone().count();
    assert!(
        (1..=MAX_INPUTS).contains(&k),
        "mul_rows takes 1 to 256 input rows, not {k}"
    );
    out.reserve_exact(product_len(coeffs.len(), flen));
    for row in coeffs {
        assert_eq!(row.len(), k, "mul_rows coefficient row length mismatch");
        let start = out.len();
        let mut terms = row.iter().zip(inputs.clone());
        if let Some((&c, first)) = terms.next() {
            assert_eq!(first.len(), flen, "mul_rows input length mismatch");
            let products = mul_row(c);
            out.extend(first.iter().map(|&b| products[b as usize]));
        }
        for (&c, input) in terms {
            assert_eq!(input.len(), flen, "mul_rows input length mismatch");
            mul_acc(&mut out[start..], input, c);
        }
    }
}

/// The byte length of `rows` output rows of `flen` bytes.
fn product_len(rows: usize, flen: usize) -> usize {
    rows.checked_mul(flen)
        .expect("mul_rows output length overflows usize")
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

/// The x86-64 bodies behind [`mul_rows`] and the wide
/// [`Checksum`](crate::Checksum) path.
///
/// This module is the one place the crate steps outside safe Rust: the
/// affine kernel needs the `std::arch` intrinsics, and writing each output
/// byte once means writing into a `Vec`'s spare capacity before `set_len`.
/// The unsafety is narrow and mechanical — unaligned 32-byte loads inside
/// inputs whose lengths the entry point checks, stores inside capacity it
/// reserved, and `#[target_feature]` functions that are only reached behind
/// the matching runtime CPU feature check — and the kernel is pinned
/// bit-for-bit to [`mul_acc_ref`] by the property tests.
///
/// The kernel walks the rows in 64-byte steps of two registers. Per step,
/// each input's two registers are loaded once. For each of up to four
/// output rows, the [`AFFINE`] matrix of its coefficient for that input is
/// broadcast to all four 64-bit lanes once, applied to both registers with
/// `gf2p8affineqb` and XORed into the row's two sums, which are stored once
/// after the last input: eight sums, two input registers and the matrix
/// take eleven of the sixteen AVX2 registers. More rows take more passes
/// over the inputs; a 32-byte remainder takes a one-register step, and a
/// sub-register tail is finished with [`MUL`] lookups, each byte likewise
/// written once. The registers stay 256 bits wide: a 512-bit body encoded
/// faster on its own but made the whole put path slower (DESIGN §8.1).
///
/// [`checksum_wide`](crate::gf::simd::checksum_wide) is the checksum's
/// wide body compiled a second time with AVX2 enabled, so its 128 lanes
/// run eight to an instruction.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod simd {
    use super::{product_len, AFFINE, MAX_INPUTS, MUL};
    use std::arch::x86_64::{
        __m256i, _mm256_gf2p8affine_epi64_epi8, _mm256_loadu_si256, _mm256_set1_epi64x,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm256_xor_si256,
    };
    use std::mem::MaybeUninit;

    /// Output rows accumulated per pass over the inputs (see the module
    /// doc for the register budget).
    const GROUP: usize = 4;

    /// Runs the fused affine kernel and returns `true`; returns `false`,
    /// leaving `out` and `coeffs` untouched, when the CPU lacks AVX2 or
    /// GFNI so the caller falls back to the portable loop. The
    /// `is_x86_feature_detected!` results are cached by the standard
    /// library, so the per-call cost is two atomic loads.
    // lint:hot
    pub fn mul_rows<'c, 'i>(
        out: &mut Vec<u8>,
        mut coeffs: impl ExactSizeIterator<Item = &'c [u8]>,
        inputs: impl Iterator<Item = &'i [u8]>,
        flen: usize,
    ) -> bool {
        if !(std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("gfni")) {
            return false;
        }
        // The input base pointers, gathered once: every step reads them.
        let mut gathered = [MaybeUninit::<*const u8>::uninit(); MAX_INPUTS];
        let mut k = 0;
        for input in inputs {
            assert!(k < MAX_INPUTS, "mul_rows takes 1 to 256 input rows");
            assert_eq!(input.len(), flen, "mul_rows input length mismatch");
            gathered[k].write(input.as_ptr());
            k += 1;
        }
        assert!(k > 0, "mul_rows takes 1 to 256 input rows, not 0");
        // SAFETY: the first `k` entries were written above, and
        // `MaybeUninit<T>` has the layout of `T`.
        let inputs =
            unsafe { std::slice::from_raw_parts(gathered.as_ptr().cast::<*const u8>(), k) };
        let rows = coeffs.len();
        out.reserve_exact(product_len(rows, flen));
        let base = out.len();
        let mut written = 0;
        loop {
            let mut group: [&[u8]; GROUP] = [&[]; GROUP];
            let mut g = 0;
            for row in coeffs.by_ref().take(GROUP) {
                assert_eq!(row.len(), k, "mul_rows coefficient row length mismatch");
                group[g] = row;
                g += 1;
            }
            if g == 0 {
                break;
            }
            // An iterator whose `len()` undercounted would otherwise write
            // past the reservation.
            assert!(
                written + g <= rows,
                "mul_rows coefficient iterator overran its len()"
            );
            // SAFETY: AVX2 and GFNI were detected above. `out` has capacity
            // for `rows * flen` bytes past `base`, and `written + g <= rows`,
            // so the `g * flen` bytes at row `written` are inside it. Every
            // input pointer is valid for `flen` bytes of reads, borrowed for
            // the whole call, and every row in `group[..g]` has one entry
            // per input (both checked above).
            unsafe {
                let dst = out.as_mut_ptr().add(base + written * flen);
                match g {
                    1 => dot::<1>(dst, &group, inputs, flen),
                    2 => dot::<2>(dst, &group, inputs, flen),
                    3 => dot::<3>(dst, &group, inputs, flen),
                    _ => dot::<4>(dst, &group, inputs, flen),
                }
            }
            written += g;
        }
        // SAFETY: `dot` initialised all `written * flen` bytes past `base`,
        // which lie inside the reservation (checked per group above).
        unsafe { out.set_len(base + written * flen) };
        true
    }

    /// Writes `R` output rows of `flen` bytes each, row `r` at
    /// `dst + r * flen`: the sum over inputs `i` of `rows[r][i] · inputs[i]`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and GFNI; `dst` must be valid for writes
    /// of `R * flen` bytes; every input pointer must be valid for reads of
    /// `flen` bytes, and every `rows[r]` with `r < R` must have one entry
    /// per input.
    #[target_feature(enable = "avx2,gfni")]
    unsafe fn dot<const R: usize>(
        dst: *mut u8,
        rows: &[&[u8]; GROUP],
        inputs: &[*const u8],
        flen: usize,
    ) {
        let mut at = 0;
        while at + 64 <= flen {
            // SAFETY: `at + 64 <= flen`; the caller's guarantees cover the rest.
            unsafe { step::<R, 2>(dst, rows, inputs, flen, at) };
            at += 64;
        }
        if at + 32 <= flen {
            // SAFETY: `at + 32 <= flen`; the caller's guarantees cover the rest.
            unsafe { step::<R, 1>(dst, rows, inputs, flen, at) };
            at += 32;
        }
        for at in at..flen {
            for (r, row) in rows[..R].iter().enumerate() {
                let mut b = 0u8;
                for (&c, &input) in row.iter().zip(inputs) {
                    // SAFETY: `at < flen`, inside the input's readable bytes.
                    b ^= MUL[c as usize][unsafe { *input.add(at) } as usize];
                }
                // SAFETY: `r * flen + at < R * flen`, inside `dst`'s
                // writable range.
                unsafe { dst.add(r * flen + at).write(b) };
            }
        }
    }

    /// Writes the `C` 32-byte registers at byte `at` of each of `R` output
    /// rows; each row's matrix per input is broadcast once for all `C`
    /// registers.
    ///
    /// # Safety
    ///
    /// As for [`dot`], and `at + 32 * C <= flen`.
    #[target_feature(enable = "avx2,gfni")]
    #[inline]
    unsafe fn step<const R: usize, const C: usize>(
        dst: *mut u8,
        rows: &[&[u8]; GROUP],
        inputs: &[*const u8],
        flen: usize,
        at: usize,
    ) {
        let mut acc = [[_mm256_setzero_si256(); C]; R];
        for (i, &input) in inputs.iter().enumerate() {
            let mut src = [_mm256_setzero_si256(); C];
            for (c, sv) in src.iter_mut().enumerate() {
                // SAFETY: `at + 32 * (c + 1) <= flen`, inside the input's
                // readable bytes, for an unaligned 256-bit load.
                *sv = unsafe { _mm256_loadu_si256(input.add(at + 32 * c).cast::<__m256i>()) };
            }
            for (sums, row) in acc.iter_mut().zip(rows) {
                // The matrix's bits, reinterpreted for the broadcast.
                let matrix = _mm256_set1_epi64x(AFFINE[row[i] as usize] as i64);
                for (sum, &sv) in sums.iter_mut().zip(&src) {
                    let prod = _mm256_gf2p8affine_epi64_epi8::<0>(sv, matrix);
                    *sum = _mm256_xor_si256(*sum, prod);
                }
            }
        }
        for (r, sums) in acc.iter().enumerate() {
            for (c, sum) in sums.iter().enumerate() {
                // SAFETY: `r * flen + at + 32 * (c + 1) <= R * flen`,
                // inside `dst`'s writable range.
                unsafe {
                    _mm256_storeu_si256(dst.add(r * flen + at + 32 * c).cast::<__m256i>(), *sum)
                };
            }
        }
    }

    /// [`checksum::wide`](crate::checksum::wide) compiled with AVX2, or
    /// `None` when the CPU lacks AVX2 and the caller runs the portable
    /// build. Both builds return the same value.
    // lint:hot
    pub fn checksum_wide(data: &[u8]) -> Option<u64> {
        if !std::is_x86_feature_detected!("avx2") {
            return None;
        }
        // SAFETY: AVX2 was detected above.
        Some(unsafe { checksum_wide_avx2(data) })
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn checksum_wide_avx2(data: &[u8]) -> u64 {
        crate::checksum::wide(data)
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
        // Lengths chosen to cross every loop boundary: empty, one byte,
        // either side of the 8-byte word (7, 8, 9), sub-register (16, 19),
        // 32, words plus an awkward tail (133), and a realistic row (1000)
        // — each with zeros sprinkled in.
        for len in [0usize, 1, 7, 8, 9, 19, 16, 32, 133, 1000] {
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
    fn mul_acc_table_fallback_matches_reference() {
        // `mul_acc` is the flat-table loop itself, so it must hold at every
        // length around its 8-way unroll and tail (0..=24), on sub-slices
        // that start off any word boundary, for every scalar.
        let backing: Vec<u8> = (0..40usize).map(|i| (i * 7 % 253) as u8).collect();
        for offset in 0..8usize {
            for len in 0..=24usize {
                let src = &backing[offset..offset + len];
                for scalar in 0..=255u8 {
                    let mut fast = vec![0xC3u8; offset + len];
                    let mut slow = fast.clone();
                    mul_acc(&mut fast[offset..], src, scalar);
                    mul_acc_ref(&mut slow[offset..], src, scalar);
                    assert_eq!(fast, slow, "offset={offset} len={len} scalar={scalar}");
                }
            }
        }
    }

    /// A scalar model of `gf2p8affineqb` on one byte with a zero constant:
    /// output bit `i` is the parity of byte `7 - i` of `matrix` AND `x`.
    fn affine_model(matrix: u64, x: u8) -> u8 {
        (0..8).fold(0u8, |out, i| {
            let row = (matrix >> (8 * (7 - i))) as u8;
            out | (((row & x).count_ones() & 1) as u8) << i
        })
    }

    #[test]
    fn affine_matrices_are_the_products() {
        // Applied as the instruction applies it, AFFINE[s] must give the
        // MUL row of `s` for every scalar and byte.
        for s in 0..=255u8 {
            for x in 0..=255u8 {
                assert_eq!(
                    affine_model(AFFINE[s as usize], x),
                    mul(s, x),
                    "scalar={s} byte={x}"
                );
            }
        }
    }

    /// `rows` coefficient rows of `k` entries: a pseudo-random spread
    /// with 0 and 1 planted in every row.
    fn coefficient_rows(rows: usize, k: usize) -> Vec<Vec<u8>> {
        (0..rows)
            .map(|r| {
                (0..k)
                    .map(|i| match (r + i) % 5 {
                        0 => 0,
                        1 => 1,
                        _ => ((r * 71 + i * 113 + 29) % 256) as u8,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn mul_rows_matches_reference_on_both_bodies() {
        // Rows 1–9 cover every remainder of the four-row kernel group; the
        // lengths cover empty, sub-register, either side of the one- and
        // two-register steps, and long rows ending in a one-register step
        // plus a tail (1000) or a 7-byte tail alone (4103).
        // Each output arrives non-empty with spare capacity, and its prefix
        // must survive the append. On a host with AVX2 and GFNI the kernel
        // must run, or `mul_rows` would be checked against the table loop
        // it falls back to.
        const LENS: [usize; 10] = [0, 1, 31, 32, 33, 63, 64, 65, 1000, 4103];
        let prefix = [0xEEu8, 0x11, 0x5A];
        #[cfg(target_arch = "x86_64")]
        let affine_kernel =
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("gfni");
        for k in 1..=17usize {
            for flen in LENS {
                let inputs: Vec<Vec<u8>> = (0..k)
                    .map(|i| {
                        (0..flen)
                            .map(|j| ((j * 37 + i * 101) % 251) as u8)
                            .collect()
                    })
                    .collect();
                let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
                for rows in 1..=9usize {
                    let coeffs = coefficient_rows(rows, k);
                    let mut expect = prefix.to_vec();
                    for row in &coeffs {
                        let mut sum = vec![0u8; flen];
                        for (&c, input) in row.iter().zip(&inputs) {
                            mul_acc_ref(&mut sum, input, c);
                        }
                        expect.extend_from_slice(&sum);
                    }
                    let fresh = || {
                        let mut out = Vec::with_capacity(prefix.len() + 5);
                        out.extend_from_slice(&prefix);
                        out
                    };
                    let mut fast = fresh();
                    let rows_of = || coeffs.iter().map(Vec::as_slice);
                    mul_rows(&mut fast, rows_of(), inputs.iter().copied(), flen);
                    assert_eq!(fast, expect, "mul_rows k={k} flen={flen} rows={rows}");
                    let mut table = fresh();
                    mul_rows_table(&mut table, rows_of(), inputs.iter().copied(), flen);
                    assert_eq!(
                        table, expect,
                        "mul_rows_table k={k} flen={flen} rows={rows}"
                    );
                    #[cfg(target_arch = "x86_64")]
                    {
                        let mut kernel = fresh();
                        let ran =
                            simd::mul_rows(&mut kernel, rows_of(), inputs.iter().copied(), flen);
                        assert_eq!(ran, affine_kernel, "affine kernel ran on this host");
                        if ran {
                            assert_eq!(kernel, expect, "simd k={k} flen={flen} rows={rows}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mul_rows_into_an_empty_vec_fits_exactly() {
        for flen in [0usize, 1, 33, 1000] {
            let input = vec![7u8; flen];
            let coeffs = coefficient_rows(5, 1);
            let mut out = Vec::new();
            let inputs = std::iter::once(input.as_slice());
            mul_rows(&mut out, coeffs.iter().map(Vec::as_slice), inputs, flen);
            assert_eq!(out.len(), 5 * flen);
            assert_eq!(out.capacity(), out.len(), "flen={flen}");
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
