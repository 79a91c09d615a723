//! The systematic Reed-Solomon codec.
//!
//! The generator matrix is derived from an `n × k` Vandermonde matrix `V`
//! (rows are evaluation points `0..n`): `G = V · (V_top)⁻¹`, where `V_top`
//! is the top `k × k` block. Multiplying by a fixed invertible matrix keeps
//! every `k`-row subset of `G` invertible while turning the top block into
//! the identity — hence *systematic*: fragments `0..k` are the value
//! striped verbatim.

use std::cell::RefCell;
use std::collections::BTreeMap;

use bytes::Bytes;

use crate::error::CodecError;
use crate::fragment::{Fragment, FragmentIndex};
use crate::gf;
use crate::matrix::Matrix;

/// Upper bound on cached decode-matrix inversions per codec.
///
/// A convergence run decodes the same few surviving subsets over and over
/// (the paper's steady state), so a small bound captures essentially all
/// hits; it exists only to keep adversarial access patterns from growing
/// the cache without limit.
const INVERSION_CACHE_CAP: usize = 64;

/// Bounded cache of decode-matrix inversions, keyed by the sorted set of
/// surviving fragment indices used as decode rows.
///
/// Eviction is deterministic FIFO: each entry records the monotone tick at
/// which it was inserted and the oldest entry is dropped when the cache is
/// full. Cached inverses are exactly the matrices Gaussian elimination
/// would produce, so hits are byte-identical to cold decodes and replay
/// digests are unaffected.
#[derive(Debug, Clone, Default)]
struct InversionCache {
    entries: BTreeMap<Vec<u8>, (u64, Matrix)>,
    tick: u64,
}

impl InversionCache {
    fn get(&self, key: &[u8]) -> Option<&Matrix> {
        self.entries.get(key).map(|(_, m)| m)
    }

    fn insert(&mut self, key: Vec<u8>, inv: Matrix) {
        if self.entries.len() >= INVERSION_CACHE_CAP {
            // Evict the oldest insertion (deterministic: ticks are unique).
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        let tick = self.tick;
        self.tick += 1;
        self.entries.insert(key, (tick, inv));
    }
}

/// A systematic Reed-Solomon `(k, n)` erasure codec over GF(2⁸).
///
/// `k` is the number of data fragments, `n` the total number of fragments;
/// any `k` distinct fragments recover the value. The generator matrix is
/// computed once at construction; encode/decode are then pure table-driven
/// byte loops.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), erasure::CodecError> {
/// let codec = erasure::Codec::new(4, 12)?;
/// let frags = codec.encode(b"hello, archive");
/// let back = codec.decode(&frags[4..8], 14)?; // four parity fragments
/// assert_eq!(back, b"hello, archive");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Codec {
    k: usize,
    n: usize,
    generator: Matrix,
    // Per-data-row packed parity tables: `packed[d][b]` holds the products
    // `gen[k+p][d] · b` for every parity row `p`, one per byte lane of the
    // `u64`. Empty when the shape has no parity or more than 8 parity rows.
    packed: Vec<[u64; 256]>,
    // Interior mutability so `decode`/`recover` stay `&self`; the codec
    // lives inside single-threaded simulation actors, which never needed
    // `Sync`. `Send` is preserved (no `Rc` inside).
    inversions: RefCell<InversionCache>,
    // Scratch for the packed encode kernel (position-major packed parity
    // words), reused across calls so the hot path allocates nothing.
    inter: RefCell<Vec<u64>>,
}

impl Codec {
    /// Creates a `(k, n)` codec.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameters`] unless `0 < k <= n <= 256`.
    pub fn new(k: usize, n: usize) -> Result<Self, CodecError> {
        if k == 0 || k > n || n > 256 {
            return Err(CodecError::InvalidParameters { k, n });
        }
        let vandermonde = Matrix::vandermonde(n, k);
        let top = vandermonde.submatrix(k, k);
        let top_inv = top
            .inverse()
            .expect("top block of a Vandermonde matrix is invertible");
        let generator = vandermonde.mul(&top_inv);
        debug_assert!(generator.submatrix(k, k).is_identity());
        let packed = if (1..=8).contains(&(n - k)) {
            (0..k)
                .map(|d| {
                    let mut t = [0u64; 256];
                    for (b, e) in t.iter_mut().enumerate() {
                        let mut w = 0u64;
                        for p in 0..(n - k) {
                            w |= u64::from(gf::mul_row(generator.get(k + p, d))[b]) << (8 * p);
                        }
                        *e = w;
                    }
                    t
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(Codec {
            k,
            n,
            generator,
            packed,
            inversions: RefCell::new(InversionCache::default()),
            inter: RefCell::new(Vec::new()),
        })
    }

    /// Number of data fragments (`k`).
    pub fn data_fragments(&self) -> usize {
        self.k
    }

    /// Total number of fragments (`n`).
    pub fn total_fragments(&self) -> usize {
        self.n
    }

    /// Number of parity fragments (`n - k`).
    pub fn parity_fragments(&self) -> usize {
        self.n - self.k
    }

    /// Payload length of each fragment for a value of `value_len` bytes:
    /// `ceil(value_len / k)`.
    pub fn fragment_len(&self, value_len: usize) -> usize {
        value_len.div_ceil(self.k)
    }

    /// Encodes `value` into all `n` fragments (data fragments first).
    ///
    /// The value is zero-padded up to `k * fragment_len`; the original
    /// length must be carried out-of-band (Pahoehoe keeps it in metadata)
    /// and passed back to [`decode`](Self::decode).
    pub fn encode(&self, value: &[u8]) -> Vec<Fragment> {
        let mut frags = Vec::with_capacity(self.n);
        self.encode_into(value, &mut frags);
        frags
    }

    /// Like [`encode`](Self::encode), but reuses `out` for the fragment
    /// list (cleared first) so per-operation callers keep one `Vec` alive
    /// instead of allocating a fresh one per protocol step.
    ///
    /// The whole stripe — data and parity — lives in a single allocation:
    /// the value is striped into an `n * fragment_len` buffer, parity is
    /// computed in place, and the buffer is frozen into one refcounted
    /// [`Bytes`] that every fragment holds a zero-copy window of.
    // lint:hot
    pub fn encode_into(&self, value: &[u8], out: &mut Vec<Fragment>) {
        out.clear();
        let flen = self.fragment_len(value.len());
        // Copy the value in, then zero-extend: only the padding and the
        // parity region get zeroed, not the bytes we just wrote.
        let mut stripe = Vec::with_capacity(self.n * flen);
        stripe.extend_from_slice(value);
        stripe.resize(self.n * flen, 0);
        let (data, parity) = stripe.split_at_mut(self.k * flen);
        self.encode_parity(|i| &data[i * flen..(i + 1) * flen], parity, flen);
        let backing = Bytes::from(stripe);
        out.reserve(self.n);
        for i in 0..self.n {
            out.push(Fragment::new(
                i as FragmentIndex,
                backing.slice(i * flen..(i + 1) * flen),
            ));
        }
    }

    /// Encodes a refcounted value without copying its payload: the data
    /// fragments are zero-copy windows of `value` (only a padded tail row
    /// is materialized, when `value.len()` is not a multiple of the
    /// fragment length), and the parity rows are computed into one shared
    /// backing allocation. Byte-identical to [`encode`](Self::encode) —
    /// this is the put-path fast lane.
    // lint:hot
    pub fn encode_value(&self, value: &Bytes, out: &mut Vec<Fragment>) {
        out.clear();
        let flen = self.fragment_len(value.len());
        // Data rows: windows of the value where a full row fits, one
        // padded copy per tail row (at most one for non-degenerate
        // shapes; short values may owe several all-zero rows).
        let mut rows: Vec<Bytes> = Vec::with_capacity(self.k);
        for i in 0..self.k {
            let start = i * flen;
            let end = start + flen;
            if end <= value.len() {
                rows.push(value.slice(start..end));
            } else {
                let mut pad = Vec::with_capacity(flen);
                pad.extend_from_slice(&value[start.min(value.len())..]);
                pad.resize(flen, 0);
                rows.push(Bytes::from(pad));
            }
        }
        let pk = self.n - self.k;
        out.reserve(self.n);
        if pk > 0 && flen > 0 {
            let mut parity = vec![0u8; pk * flen];
            self.encode_parity(|i| &rows[i], &mut parity, flen);
            let backing = Bytes::from(parity);
            for (i, row) in rows.into_iter().enumerate() {
                out.push(Fragment::new(i as FragmentIndex, row));
            }
            for p in 0..pk {
                out.push(Fragment::new(
                    (self.k + p) as FragmentIndex,
                    backing.slice(p * flen..(p + 1) * flen),
                ));
            }
        } else {
            for (i, row) in rows.into_iter().enumerate() {
                out.push(Fragment::new(i as FragmentIndex, row));
            }
            for p in 0..pk {
                out.push(Fragment::new((self.k + p) as FragmentIndex, Bytes::new()));
            }
        }
    }

    /// Fills the `(n - k) * flen` parity region from the `k` data rows
    /// (`row(i)` is data row `i`, `flen` bytes), choosing the loop
    /// structure from what the codec can observe: the packed
    /// position-major gather wins for the scalar table kernel; when the
    /// SIMD shuffle kernel is active — or the shape has no packed tables
    /// — row-at-a-time [`gf::mul_acc`] over long contiguous rows is faster
    /// still. Both produce the same bytes.
    // lint:hot
    fn encode_parity<'a>(&self, row: impl Fn(usize) -> &'a [u8], parity: &mut [u8], flen: usize) {
        if flen == 0 {
            return;
        }
        if !self.packed.is_empty() && !gf::simd_active() {
            self.encode_parity_packed(row, parity, flen);
            return;
        }
        for (p, seg) in parity.chunks_exact_mut(flen).enumerate() {
            for i in 0..self.k {
                gf::mul_acc(seg, row(i), self.generator.get(self.k + p, i));
            }
        }
    }

    /// The packed-table body of [`encode_parity`](Self::encode_parity):
    /// one lookup per data byte produces the products for **all** parity
    /// rows at once (byte lanes of a `u64`), XOR-accumulated
    /// position-major, then de-interleaved into row-major parity by an
    /// in-register 8×8 byte transpose. Requires `1 <= n - k <= 8`.
    ///
    /// Byte-identical to the row-at-a-time [`gf::mul_acc`] loop: the lanes
    /// are the same GF(2⁸) products, and XOR never crosses lanes.
    // lint:hot
    fn encode_parity_packed<'a>(
        &self,
        row: impl Fn(usize) -> &'a [u8],
        parity: &mut [u8],
        flen: usize,
    ) {
        let pk = self.n - self.k;
        let mut inter = self.inter.borrow_mut();
        if inter.len() != flen {
            inter.clear();
            inter.resize(flen, 0);
        }
        if self.k == 4 {
            // The paper's default policy (k=4, n=12) gets a fully unrolled
            // gather: four loads, four lookups, three XORs per position.
            // Every packed word is overwritten, so stale scratch from a
            // previous call needs no re-zeroing.
            let (t0, t1, t2, t3) = (
                &self.packed[0],
                &self.packed[1],
                &self.packed[2],
                &self.packed[3],
            );
            let (d0, d1, d2, d3) = (row(0), row(1), row(2), row(3));
            for (j, w) in inter.iter_mut().enumerate() {
                *w = t0[d0[j] as usize]
                    ^ t1[d1[j] as usize]
                    ^ t2[d2[j] as usize]
                    ^ t3[d3[j] as usize];
            }
        } else {
            // The generic gather accumulates, so the scratch must start
            // zeroed.
            inter.fill(0);
            for (i, t) in self.packed.iter().enumerate() {
                for (w, &b) in inter.iter_mut().zip(row(i)) {
                    *w ^= t[b as usize];
                }
            }
        }
        // Scatter: transpose each 8-position block of packed words into 8
        // contiguous bytes per parity row. Lanes `pk..8` are zero and are
        // simply not written.
        let nb = flen / 8;
        for blk in 0..nb {
            let mut w = [0u64; 8];
            w.copy_from_slice(&inter[blk * 8..blk * 8 + 8]);
            transpose8x8(&mut w);
            for (p, lane) in w.iter().enumerate().take(pk) {
                parity[p * flen + blk * 8..p * flen + blk * 8 + 8]
                    .copy_from_slice(&lane.to_le_bytes());
            }
        }
        for j in nb * 8..flen {
            let w = inter[j];
            for p in 0..pk {
                parity[p * flen + j] = (w >> (8 * p)) as u8;
            }
        }
    }

    /// Decodes the original `value_len`-byte value from any `k` distinct
    /// fragments (duplicates are ignored).
    ///
    /// # Errors
    ///
    /// * [`CodecError::NotEnoughFragments`] — fewer than `k` distinct
    ///   indices supplied.
    /// * [`CodecError::InvalidFragmentIndex`] — an index is `>= n`.
    /// * [`CodecError::FragmentLengthMismatch`] — a payload length differs
    ///   from `fragment_len(value_len)`.
    pub fn decode(&self, fragments: &[Fragment], value_len: usize) -> Result<Vec<u8>, CodecError> {
        let mut value = Vec::new();
        self.decode_into(fragments, value_len, &mut value)?;
        Ok(value)
    }

    /// Like [`decode`](Self::decode), but writes the value into `out`
    /// (cleared first), reusing its capacity across calls. The decode rows
    /// are applied directly to `out`'s segments — no intermediate shard
    /// `Vec`s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`decode`](Self::decode); on error `out`'s
    /// contents are unspecified (but it remains valid to reuse).
    pub fn decode_into(
        &self,
        fragments: &[Fragment],
        value_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let picked = self.pick_fragments(fragments, value_len)?;
        let flen = self.fragment_len(value_len);
        out.clear();
        out.resize(self.k * flen, 0);
        self.reconstruct_into(&picked, flen, out);
        out.truncate(value_len);
        Ok(())
    }

    /// Regenerates the fragments with indices `missing` from any `k`
    /// distinct fragments.
    ///
    /// This is the primitive behind the paper's *sibling fragment recovery*
    /// optimization: one retrieval of `k` fragments amortizes over
    /// regenerating **all** missing sibling fragments.
    ///
    /// # Errors
    ///
    /// Same conditions as [`decode`](Self::decode), plus
    /// [`CodecError::InvalidFragmentIndex`] if a requested index is `>= n`.
    pub fn recover(
        &self,
        fragments: &[Fragment],
        missing: &[FragmentIndex],
        value_len: usize,
    ) -> Result<Vec<Fragment>, CodecError> {
        let mut out = Vec::with_capacity(missing.len());
        self.recover_into(fragments, missing, value_len, &mut out)?;
        Ok(out)
    }

    /// Like [`recover`](Self::recover), but reuses `out` for the fragment
    /// list (cleared first). All regenerated fragments share one backing
    /// allocation, like [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Same conditions as [`recover`](Self::recover).
    // lint:hot
    pub fn recover_into(
        &self,
        fragments: &[Fragment],
        missing: &[FragmentIndex],
        value_len: usize,
        out: &mut Vec<Fragment>,
    ) -> Result<(), CodecError> {
        out.clear();
        for &m in missing {
            if (m as usize) >= self.n {
                return Err(CodecError::InvalidFragmentIndex {
                    index: m,
                    n: self.n,
                });
            }
        }
        let picked = self.pick_fragments(fragments, value_len)?;
        let flen = self.fragment_len(value_len);

        let mut data = vec![0u8; self.k * flen];
        self.reconstruct_into(&picked, flen, &mut data);

        let mut buf = vec![0u8; missing.len() * flen];
        for (j, &m) in missing.iter().enumerate() {
            let row = m as usize;
            let seg = &mut buf[j * flen..(j + 1) * flen];
            for i in 0..self.k {
                gf::mul_acc(
                    seg,
                    &data[i * flen..(i + 1) * flen],
                    self.generator.get(row, i),
                );
            }
        }
        let backing = Bytes::from(buf);
        out.reserve(missing.len());
        for (j, &m) in missing.iter().enumerate() {
            out.push(Fragment::new(m, backing.slice(j * flen..(j + 1) * flen)));
        }
        Ok(())
    }

    /// Validates and deduplicates `fragments`, returning the `k` fragments
    /// that will serve as decode rows, in ascending index order.
    fn pick_fragments<'a>(
        &self,
        fragments: &'a [Fragment],
        value_len: usize,
    ) -> Result<Vec<&'a Fragment>, CodecError> {
        let flen = self.fragment_len(value_len);

        // Deduplicate by index, validating as we go.
        let mut chosen: Vec<Option<&Fragment>> = vec![None; self.n];
        let mut distinct = 0usize;
        for f in fragments {
            let idx = f.index() as usize;
            if idx >= self.n {
                return Err(CodecError::InvalidFragmentIndex {
                    index: f.index(),
                    n: self.n,
                });
            }
            if f.len() != flen {
                return Err(CodecError::FragmentLengthMismatch {
                    expected: flen,
                    actual: f.len(),
                });
            }
            if chosen[idx].is_none() {
                chosen[idx] = Some(f);
                distinct += 1;
                if distinct == self.k {
                    break;
                }
            }
        }
        if distinct < self.k {
            return Err(CodecError::NotEnoughFragments {
                have: distinct,
                need: self.k,
            });
        }
        Ok(chosen.into_iter().flatten().take(self.k).collect())
    }

    /// Reconstructs the `k` padded data shards from `picked` (ascending
    /// index order, as produced by
    /// [`pick_fragments`](Self::pick_fragments)) into `out`, which must be
    /// `k * flen` zeroed bytes; shard `i` lands at `out[i*flen..(i+1)*flen]`.
    // lint:hot
    fn reconstruct_into(&self, picked: &[&Fragment], flen: usize, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.k * flen);

        // Fast path: all k data fragments present — no algebra needed.
        if picked
            .iter()
            .enumerate()
            .all(|(i, f)| f.index() as usize == i)
        {
            for (i, f) in picked.iter().enumerate() {
                out[i * flen..(i + 1) * flen].copy_from_slice(f.data());
            }
            return;
        }

        let inv = self.decode_matrix(picked);
        for r in 0..self.k {
            let seg = &mut out[r * flen..(r + 1) * flen];
            for (c, frag) in picked.iter().enumerate() {
                gf::mul_acc(seg, frag.data(), inv.get(r, c));
            }
        }
    }

    /// Returns the inverse of the generator rows selected by `picked`,
    /// consulting the [`InversionCache`] first.
    ///
    /// `picked` is in ascending index order, so the cache key is the
    /// sorted surviving-index set directly. A hit clones the cached
    /// `k × k` matrix (at most 256 bytes for the paper's shapes) instead
    /// of re-running Gaussian elimination.
    fn decode_matrix(&self, picked: &[&Fragment]) -> Matrix {
        let key: Vec<u8> = picked.iter().map(|f| f.index()).collect();
        if let Some(inv) = self.inversions.borrow().get(&key) {
            return inv.clone();
        }
        let rows: Vec<usize> = key.iter().map(|&i| i as usize).collect();
        let inv = self
            .generator
            .select_rows(&rows)
            .inverse()
            .expect("any k rows of the systematic generator are independent");
        self.inversions.borrow_mut().insert(key, inv.clone());
        inv
    }

    /// Number of decode-matrix inversions currently cached (for tests and
    /// diagnostics).
    pub fn cached_inversions(&self) -> usize {
        self.inversions.borrow().entries.len()
    }
}

/// Transposes an 8×8 byte matrix held in eight `u64`s (word `i` = row `i`,
/// byte lane `j` = column `j`) in place, using the classic three-stage
/// SWAR butterfly: swap 1×1 blocks across the diagonal of each 2×2 block,
/// then 2×2 blocks within 4×4, then 4×4 halves.
#[inline]
fn transpose8x8(w: &mut [u64; 8]) {
    const M0: u64 = 0x00ff_00ff_00ff_00ff;
    const M1: u64 = 0x0000_ffff_0000_ffff;
    const M2: u64 = 0x0000_0000_ffff_ffff;
    for i in (0..8).step_by(2) {
        let (a, b) = (w[i], w[i + 1]);
        w[i] = (a & M0) | ((b & M0) << 8);
        w[i + 1] = ((a >> 8) & M0) | (b & !M0);
    }
    for i in [0usize, 1, 4, 5] {
        let (a, b) = (w[i], w[i + 2]);
        w[i] = (a & M1) | ((b & M1) << 16);
        w[i + 2] = ((a >> 16) & M1) | (b & !M1);
    }
    for i in 0..4 {
        let (a, b) = (w[i], w[i + 4]);
        w[i] = (a & M2) | ((b & M2) << 32);
        w[i + 4] = ((a >> 32) & M2) | (b & !M2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn parameters_validated() {
        assert!(Codec::new(4, 12).is_ok());
        assert!(Codec::new(1, 1).is_ok());
        assert!(Codec::new(256, 256).is_ok());
        assert_eq!(
            Codec::new(0, 4).unwrap_err(),
            CodecError::InvalidParameters { k: 0, n: 4 }
        );
        assert!(Codec::new(5, 4).is_err());
        assert!(Codec::new(4, 257).is_err());
    }

    #[test]
    fn accessors() {
        let c = Codec::new(4, 12).unwrap();
        assert_eq!(c.data_fragments(), 4);
        assert_eq!(c.total_fragments(), 12);
        assert_eq!(c.parity_fragments(), 8);
        assert_eq!(c.fragment_len(100), 25);
        assert_eq!(c.fragment_len(101), 26);
        assert_eq!(c.fragment_len(0), 0);
    }

    #[test]
    fn systematic_property() {
        // The first k fragments are the value striped verbatim.
        let c = Codec::new(4, 12).unwrap();
        let v = value(100);
        let frags = c.encode(&v);
        for i in 0..4 {
            assert_eq!(&frags[i].data()[..], &v[i * 25..(i + 1) * 25]);
        }
    }

    #[test]
    fn roundtrip_with_data_fragments() {
        let c = Codec::new(4, 12).unwrap();
        let v = value(1000);
        let frags = c.encode(&v);
        assert_eq!(c.decode(&frags[..4], v.len()).unwrap(), v);
    }

    #[test]
    fn roundtrip_with_any_k_subset() {
        let c = Codec::new(3, 6).unwrap();
        let v = value(77);
        let frags = c.encode(&v);
        // Exhaustively test every 3-subset of 6 fragments.
        for a in 0..6 {
            for b in (a + 1)..6 {
                for d in (b + 1)..6 {
                    let subset = vec![frags[a].clone(), frags[b].clone(), frags[d].clone()];
                    assert_eq!(c.decode(&subset, v.len()).unwrap(), v, "subset {a},{b},{d}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_value_not_divisible_by_k() {
        let c = Codec::new(4, 8).unwrap();
        for len in [1usize, 2, 3, 5, 97, 102_401] {
            let v = value(len);
            let frags = c.encode(&v);
            assert_eq!(c.decode(&frags[4..], len).unwrap(), v, "len={len}");
        }
    }

    #[test]
    fn roundtrip_empty_value() {
        let c = Codec::new(4, 12).unwrap();
        let frags = c.encode(b"");
        assert_eq!(frags.len(), 12);
        assert!(frags.iter().all(Fragment::is_empty));
        assert_eq!(c.decode(&frags[5..9], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn k_equals_one_is_replication() {
        let c = Codec::new(1, 3).unwrap();
        let v = value(10);
        let frags = c.encode(&v);
        for f in &frags {
            assert_eq!(&f.data()[..], &v[..], "every fragment is a replica");
        }
    }

    #[test]
    fn k_equals_n_has_no_parity() {
        let c = Codec::new(4, 4).unwrap();
        let v = value(64);
        let frags = c.encode(&v);
        assert_eq!(frags.len(), 4);
        assert_eq!(c.decode(&frags, v.len()).unwrap(), v);
    }

    #[test]
    fn duplicates_are_ignored() {
        let c = Codec::new(3, 6).unwrap();
        let v = value(30);
        let frags = c.encode(&v);
        let with_dups = vec![
            frags[5].clone(),
            frags[5].clone(),
            frags[1].clone(),
            frags[1].clone(),
            frags[3].clone(),
        ];
        assert_eq!(c.decode(&with_dups, v.len()).unwrap(), v);
    }

    #[test]
    fn not_enough_fragments_is_an_error() {
        let c = Codec::new(4, 12).unwrap();
        let v = value(40);
        let frags = c.encode(&v);
        let err = c.decode(&frags[..3], v.len()).unwrap_err();
        assert_eq!(err, CodecError::NotEnoughFragments { have: 3, need: 4 });
        // Duplicates do not count toward k.
        let dup = vec![frags[0].clone(); 4];
        assert_eq!(
            c.decode(&dup, v.len()).unwrap_err(),
            CodecError::NotEnoughFragments { have: 1, need: 4 }
        );
    }

    #[test]
    fn invalid_index_is_an_error() {
        let c = Codec::new(2, 4).unwrap();
        let bogus = Fragment::new(9, vec![0u8; 5]);
        let err = c.decode(&[bogus], 10).unwrap_err();
        assert_eq!(err, CodecError::InvalidFragmentIndex { index: 9, n: 4 });
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let c = Codec::new(2, 4).unwrap();
        let v = value(10);
        let mut frags = c.encode(&v);
        frags[1] = Fragment::new(1, vec![0u8; 3]);
        let err = c.decode(&frags, v.len()).unwrap_err();
        assert_eq!(
            err,
            CodecError::FragmentLengthMismatch {
                expected: 5,
                actual: 3
            }
        );
    }

    #[test]
    fn recover_regenerates_exact_fragments() {
        let c = Codec::new(4, 12).unwrap();
        let v = value(100 * 1024);
        let frags = c.encode(&v);
        // Pretend fragments 2, 7, 11 were lost; recover from 4 others.
        let survivors = vec![
            frags[0].clone(),
            frags[5].clone(),
            frags[8].clone(),
            frags[3].clone(),
        ];
        let recovered = c.recover(&survivors, &[2, 7, 11], v.len()).unwrap();
        assert_eq!(recovered.len(), 3);
        for r in &recovered {
            assert_eq!(r, &frags[r.index() as usize]);
        }
    }

    #[test]
    fn recover_all_missing_from_k() {
        // Recover every fragment (even present ones) — must equal encode.
        let c = Codec::new(3, 6).unwrap();
        let v = value(42);
        let frags = c.encode(&v);
        let all: Vec<FragmentIndex> = (0..6).collect();
        let re = c.recover(&frags[3..6], &all, v.len()).unwrap();
        assert_eq!(re, frags);
    }

    #[test]
    fn recover_invalid_target_is_an_error() {
        let c = Codec::new(2, 4).unwrap();
        let v = value(8);
        let frags = c.encode(&v);
        let err = c.recover(&frags[..2], &[4], v.len()).unwrap_err();
        assert_eq!(err, CodecError::InvalidFragmentIndex { index: 4, n: 4 });
    }

    /// The log/exp oracle: stripe and pad `v`, then compute every fragment
    /// row byte-at-a-time with [`gf::mul_acc_ref`] over the generator — no
    /// flat tables, no packed kernel, no SIMD, one allocation per shard.
    fn oracle_encode(c: &Codec, v: &[u8]) -> Vec<Fragment> {
        let flen = c.fragment_len(v.len());
        let mut data = v.to_vec();
        data.resize(c.k * flen, 0);
        (0..c.n)
            .map(|row| {
                let mut shard = vec![0u8; flen];
                for i in 0..c.k {
                    let src = &data[i * flen..(i + 1) * flen];
                    gf::mul_acc_ref(&mut shard, src, c.generator.get(row, i));
                }
                Fragment::new(row as FragmentIndex, shard)
            })
            .collect()
    }

    /// Oracle reconstruction of the `k * flen` padded data bytes from `k`
    /// survivors in ascending index order: a fresh Gaussian elimination
    /// (no inversion cache) applied with log/exp arithmetic.
    fn oracle_data(c: &Codec, survivors: &[Fragment], flen: usize) -> Vec<u8> {
        let rows: Vec<usize> = survivors.iter().map(|f| f.index() as usize).collect();
        let inv = c.generator.select_rows(&rows).inverse().unwrap();
        let mut data = vec![0u8; c.k * flen];
        for r in 0..c.k {
            let shard = &mut data[r * flen..(r + 1) * flen];
            for (col, f) in survivors.iter().enumerate() {
                gf::mul_acc_ref(shard, f.data(), inv.get(r, col));
            }
        }
        data
    }

    #[test]
    fn encode_decode_recover_match_the_logexp_oracle() {
        // Shapes straddle the packed-table boundary (1..=8 parity rows;
        // (4,4) has none and (2,12) has ten) and lengths cover empty,
        // sub-block, odd-tail, and exact multiples of the 8-byte
        // transpose block.
        for (k, n) in [(4, 12), (16, 19), (1, 3), (2, 10), (3, 6), (4, 4), (2, 12)] {
            let c = Codec::new(k, n).unwrap();
            let all: Vec<FragmentIndex> = (0..n as FragmentIndex).collect();
            for len in [0usize, 1, 5, 7, 8, 9, 63, 64, 65, 1000, 4096] {
                let v = value(len);
                let frags = c.encode(&v);
                assert_eq!(frags, oracle_encode(&c, &v), "encode k={k} n={n} len={len}");
                // The systematic set, then — where parity exists — two
                // sets that need algebra: the last k fragments, and the
                // data fragments with the first swapped for the last
                // parity.
                let mut sets = vec![frags[..k].to_vec()];
                if n > k {
                    sets.push(frags[n - k..].to_vec());
                    sets.push([&frags[1..k], &frags[n - 1..]].concat());
                }
                for survivors in sets {
                    let ids: Vec<u8> = survivors.iter().map(Fragment::index).collect();
                    let data = oracle_data(&c, &survivors, c.fragment_len(len));
                    assert_eq!(
                        c.decode(&survivors, len).unwrap(),
                        data[..len],
                        "decode k={k} n={n} len={len} from {ids:?}"
                    );
                    assert_eq!(
                        c.recover(&survivors, &all, len).unwrap(),
                        oracle_encode(&c, &data),
                        "recover k={k} n={n} len={len} from {ids:?}"
                    );
                    assert_eq!(data[..len], v[..], "the oracle itself round-trips");
                }
            }
        }
    }

    #[test]
    fn transpose8x8_is_a_transpose() {
        let mut w = [0u64; 8];
        for (r, word) in w.iter_mut().enumerate() {
            for c in 0..8 {
                *word |= ((r * 8 + c) as u64) << (8 * c);
            }
        }
        transpose8x8(&mut w);
        for (r, word) in w.iter().enumerate() {
            for c in 0..8 {
                assert_eq!((word >> (8 * c)) as u8, (c * 8 + r) as u8, "({r},{c})");
            }
        }
    }

    #[test]
    fn packed_kernel_matches_the_oracle_on_every_host() {
        // `encode` takes the row-at-a-time path wherever the SIMD kernel
        // is active, so the packed kernel is called directly: it is what
        // every other host runs. (4,12) takes the unrolled k = 4 gather,
        // the rest the generic one; fragment lengths cover the 8-byte
        // block scatter, the tail loop, and both together.
        for (k, n) in [(4, 12), (3, 6), (2, 10), (16, 19)] {
            // One codec per shape, so every call after the first runs on
            // scratch an earlier call left behind: the repeated 64 reuses
            // same-length scratch (which the k = 4 gather never re-zeroes)
            // and the final 1 is a short call after a long one.
            let c = Codec::new(k, n).unwrap();
            let flens = [1usize, 7, 8, 9, 63, 64, 64, 65, 1000, 4096, 1];
            for (round, flen) in flens.into_iter().enumerate() {
                let v: Vec<u8> = (0..k * flen)
                    .map(|i| ((i * 31 + round * 7) % 251) as u8)
                    .collect();
                let mut parity = vec![0u8; (n - k) * flen];
                c.encode_parity_packed(|i| &v[i * flen..(i + 1) * flen], &mut parity, flen);
                let expect = oracle_encode(&c, &v);
                for (p, seg) in parity.chunks_exact(flen).enumerate() {
                    assert_eq!(
                        seg,
                        &expect[k + p].data()[..],
                        "k={k} n={n} flen={flen} round={round} parity row {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn encode_fragments_share_one_backing_allocation() {
        let c = Codec::new(4, 12).unwrap();
        let v = value(100);
        let frags = c.encode(&v);
        let base = frags[0].data().as_ref().as_ptr();
        let flen = c.fragment_len(v.len());
        for (i, f) in frags.iter().enumerate() {
            assert_eq!(
                f.data().as_ref().as_ptr(),
                base.wrapping_add(i * flen),
                "fragment {i} is a window of the stripe"
            );
        }
    }

    #[test]
    fn encode_value_matches_encode() {
        // Shapes cover packed tables present (k=4 and generic) and absent
        // (more than 8 parity rows), no-parity codes, and tail/padding
        // edge lengths including empty.
        for (k, n) in [(4, 12), (3, 6), (2, 10), (4, 4), (2, 12), (16, 19)] {
            let c = Codec::new(k, n).unwrap();
            for len in [0usize, 1, 5, 8, 63, 64, 65, 1000, 4096] {
                let v = value(len);
                let expect = c.encode(&v);
                let bytes = Bytes::from(v);
                let mut out = Vec::new();
                c.encode_value(&bytes, &mut out);
                assert_eq!(out, expect, "k={k} n={n} len={len}");
            }
        }
    }

    #[test]
    fn encode_value_data_fragments_are_zero_copy() {
        let c = Codec::new(4, 12).unwrap();
        let v = Bytes::from(value(100 * 1024)); // divides evenly: no tail copy
        let flen = c.fragment_len(v.len());
        let mut out = Vec::new();
        c.encode_value(&v, &mut out);
        for (i, f) in out.iter().take(4).enumerate() {
            assert_eq!(
                f.data().as_ref().as_ptr(),
                v.as_ref()[i * flen..].as_ptr(),
                "data fragment {i} is a window of the value"
            );
        }
        // Parity fragments share one backing allocation.
        let base = out[4].data().as_ref().as_ptr();
        for (p, f) in out.iter().skip(4).enumerate() {
            assert_eq!(f.data().as_ref().as_ptr(), base.wrapping_add(p * flen));
        }
    }

    #[test]
    fn encode_into_reuses_output_vec() {
        let c = Codec::new(3, 6).unwrap();
        let mut out = Vec::new();
        c.encode_into(&value(33), &mut out);
        assert_eq!(out.len(), 6);
        let expect = c.encode(&value(60));
        c.encode_into(&value(60), &mut out);
        assert_eq!(out, expect, "second use after clear matches fresh encode");
    }

    #[test]
    fn decode_into_matches_decode() {
        let c = Codec::new(4, 12).unwrap();
        let v = value(1001);
        let frags = c.encode(&v);
        let mut out = vec![0xFFu8; 3]; // dirty, undersized scratch
        c.decode_into(&frags[6..10], v.len(), &mut out).unwrap();
        assert_eq!(out, v);
        // Errors leave the scratch reusable.
        assert!(c.decode_into(&frags[..2], v.len(), &mut out).is_err());
        c.decode_into(&frags[2..6], v.len(), &mut out).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn recover_into_matches_recover() {
        let c = Codec::new(4, 12).unwrap();
        let v = value(555);
        let frags = c.encode(&v);
        let survivors = [
            frags[1].clone(),
            frags[4].clone(),
            frags[9].clone(),
            frags[11].clone(),
        ];
        let mut out = Vec::new();
        c.recover_into(&survivors, &[0, 2, 7], v.len(), &mut out)
            .unwrap();
        assert_eq!(out, c.recover(&survivors, &[0, 2, 7], v.len()).unwrap());
        for r in &out {
            assert_eq!(r, &frags[r.index() as usize]);
        }
    }

    #[test]
    fn inversion_cache_populates_and_hits_identically() {
        let warm = Codec::new(3, 6).unwrap();
        let v = value(99);
        let frags = warm.encode(&v);

        // Fast path (all data fragments) must not touch the cache.
        assert_eq!(warm.decode(&frags[..3], v.len()).unwrap(), v);
        assert_eq!(warm.cached_inversions(), 0);

        let subset = [frags[1].clone(), frags[4].clone(), frags[5].clone()];
        assert_eq!(warm.decode(&subset, v.len()).unwrap(), v);
        assert_eq!(warm.cached_inversions(), 1);

        // Warm decode (cache hit) is byte-identical to a cold codec.
        let cold = Codec::new(3, 6).unwrap();
        assert_eq!(
            warm.decode(&subset, v.len()).unwrap(),
            cold.decode(&subset, v.len()).unwrap()
        );
        assert_eq!(warm.cached_inversions(), 1, "same subset reuses its entry");

        // `recover` shares the same cache.
        let re = warm.recover(&subset, &[0, 2], v.len()).unwrap();
        assert_eq!(re[0], frags[0]);
        assert_eq!(re[1], frags[2]);
        assert_eq!(warm.cached_inversions(), 1);
    }

    #[test]
    fn inversion_cache_is_bounded() {
        // k=2, n=12: 66 two-fragment subsets, 65 of which need algebra —
        // one more than the cap, so eviction must kick in.
        let c = Codec::new(2, 12).unwrap();
        let v = value(24);
        let frags = c.encode(&v);
        for a in 0..12 {
            for b in (a + 1)..12 {
                let subset = [frags[a].clone(), frags[b].clone()];
                assert_eq!(c.decode(&subset, v.len()).unwrap(), v, "subset {a},{b}");
            }
        }
        assert!(
            c.cached_inversions() <= super::INVERSION_CACHE_CAP,
            "cache stayed bounded: {}",
            c.cached_inversions()
        );
        // Everything still decodes correctly after evictions.
        let subset = [frags[2].clone(), frags[3].clone()];
        assert_eq!(c.decode(&subset, v.len()).unwrap(), v);
    }

    #[test]
    fn default_policy_shape_matches_paper() {
        // (k=4, n=12) with 100 KiB values: 25 KiB fragments, 3x overhead.
        let c = Codec::new(4, 12).unwrap();
        let v = value(100 * 1024);
        let frags = c.encode(&v);
        assert_eq!(frags.len(), 12);
        let total: usize = frags.iter().map(Fragment::len).sum();
        assert_eq!(total, 3 * v.len(), "same overhead as triple replication");
    }
}
