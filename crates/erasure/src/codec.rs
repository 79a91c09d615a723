//! The systematic Reed-Solomon codec.
//!
//! The generator matrix is derived from an `n × k` Vandermonde matrix `V`
//! (rows are evaluation points `0..n`): `G = V · (V_top)⁻¹`, where `V_top`
//! is the top `k × k` block. Multiplying by a fixed invertible matrix keeps
//! every `k`-row subset of `G` invertible while turning the top block into
//! the identity — hence *systematic*: fragments `0..k` are the value
//! striped verbatim.
//!
//! Encode parity, decode reconstruction and recovery are one operation —
//! rows of a matrix times the `k` input rows — and all three run the one
//! product kernel, [`gf::mul_rows`], which appends each output byte to a
//! `Vec` once: nothing is zero-filled first. Recovery multiplies the
//! surviving fragments by the generator rows it regenerates composed with
//! the decode matrix, so it never materializes the data rows. There is one
//! encoder, [`Codec::encode_value`]; [`Codec::encode`] runs it on a copy
//! of the value.

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

/// The `k` fragments a decode or recovery reads: their indices in
/// ascending order (the inversion cache's key, 256 bytes on the stack) and
/// the fragments they were picked from, so that picking allocates nothing.
struct Picked<'a> {
    len: usize,
    indices: [FragmentIndex; 256],
    fragments: &'a [Fragment],
}

impl<'a> Picked<'a> {
    fn indices(&self) -> &[FragmentIndex] {
        &self.indices[..self.len]
    }

    /// The picks' payloads in index order: the product's input rows. Each
    /// is the first fragment carrying its index.
    fn rows(&self) -> impl Iterator<Item = &'a [u8]> + Clone + '_ {
        let fragments = self.fragments;
        self.indices().iter().filter_map(move |&index| {
            fragments
                .iter()
                .find(|f| f.index() == index)
                .map(|f| &f.data()[..])
        })
    }

    /// Whether the picks are the data fragments `0..k`, which decode to
    /// themselves with no algebra.
    fn is_systematic(&self) -> bool {
        self.indices()
            .iter()
            .enumerate()
            .all(|(i, &f)| f as usize == i)
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
    // Interior mutability so `decode`/`recover` stay `&self`; the codec
    // lives inside single-threaded simulation actors, which never needed
    // `Sync`. `Send` is preserved (no `Rc` inside).
    inversions: RefCell<InversionCache>,
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
        Ok(Codec {
            k,
            n,
            generator,
            inversions: RefCell::new(InversionCache::default()),
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
    /// and passed back to [`decode`](Self::decode). This is
    /// [`encode_value`](Self::encode_value) on a refcounted copy of
    /// `value`.
    pub fn encode(&self, value: &[u8]) -> Vec<Fragment> {
        let mut frags = Vec::with_capacity(self.n);
        self.encode_value(&Bytes::copy_from_slice(value), &mut frags);
        frags
    }

    /// Encodes a refcounted value into `out` (cleared first) without
    /// copying its payload: the data fragments are zero-copy windows of
    /// `value` (only a padded tail row is materialized, when `value.len()`
    /// is not a multiple of the fragment length), and the parity rows are
    /// computed from them into one shared backing allocation. This is the
    /// put path's encoder, and the only one.
    // lint:hot
    pub fn encode_value(&self, value: &Bytes, out: &mut Vec<Fragment>) {
        out.clear();
        out.reserve(self.n);
        let flen = self.fragment_len(value.len());
        // Data rows: windows of the value where a full row fits, one
        // padded copy per tail row (at most one for non-degenerate
        // shapes; short values may owe several all-zero rows).
        for i in 0..self.k {
            let start = i * flen;
            let end = start + flen;
            let row = if end <= value.len() {
                value.slice(start..end)
            } else {
                // The value's tail, then the zero padding: each byte
                // written once.
                let tail = &value[start.min(value.len())..];
                let mut pad = Vec::with_capacity(flen);
                pad.extend_from_slice(tail);
                pad.extend(std::iter::repeat_n(0, flen - tail.len()));
                Bytes::from(pad)
            };
            out.push(Fragment::new(i as FragmentIndex, row));
        }
        let backing = Bytes::from(self.parity(out, flen));
        for p in 0..self.n - self.k {
            out.push(Fragment::new(
                (self.k + p) as FragmentIndex,
                backing.slice(p * flen..(p + 1) * flen),
            ));
        }
    }

    /// The `n - k` parity rows of the `k` data fragments `data`, back to
    /// back in one exact-fit allocation.
    // lint:hot
    fn parity(&self, data: &[Fragment], flen: usize) -> Vec<u8> {
        let mut parity = Vec::with_capacity((self.n - self.k) * flen);
        gf::mul_rows(
            &mut parity,
            (self.k..self.n).map(|r| self.generator.row(r)),
            data.iter().map(|f| &f.data()[..]),
            flen,
        );
        parity
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
    /// are applied directly from the fragments into `out` — no
    /// intermediate shard `Vec`s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`decode`](Self::decode); on error `out`'s
    /// contents are unspecified (but it remains valid to reuse).
    // lint:hot
    pub fn decode_into(
        &self,
        fragments: &[Fragment],
        value_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let picked = self.pick_fragments(fragments, value_len)?;
        let flen = self.fragment_len(value_len);
        out.clear();
        if picked.is_systematic() {
            // All k data fragments present — no algebra needed.
            out.reserve(self.k * flen);
            for row in picked.rows() {
                out.extend_from_slice(row);
            }
        } else {
            self.with_decode_matrix(&picked, |inv| {
                gf::mul_rows(out, (0..self.k).map(|r| inv.row(r)), picked.rows(), flen);
            });
        }
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
    /// allocation, like the parity fragments of
    /// [`encode_value`](Self::encode_value), computed straight from the
    /// picked fragments: each requested generator row is first composed
    /// with the decode matrix (a `k`-byte row), so the data rows are never
    /// materialized.
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
        let targets = missing.iter().map(|&m| self.generator.row(m as usize));
        let mut buf = Vec::with_capacity(missing.len() * flen);
        if picked.is_systematic() {
            gf::mul_rows(&mut buf, targets, picked.rows(), flen);
        } else {
            self.with_decode_matrix(&picked, |inv| {
                // Row m of G·inv expresses fragment m over the picks.
                let inv_rows = (0..self.k).map(|r| inv.row(r));
                let mut composed = Vec::with_capacity(missing.len() * self.k);
                gf::mul_rows(&mut composed, targets, inv_rows, self.k);
                gf::mul_rows(&mut buf, composed.chunks_exact(self.k), picked.rows(), flen);
            });
        }
        let backing = Bytes::from(buf);
        out.reserve(missing.len());
        for (j, &m) in missing.iter().enumerate() {
            out.push(Fragment::new(m, backing.slice(j * flen..(j + 1) * flen)));
        }
        Ok(())
    }

    /// Validates and deduplicates `fragments`, picking the first `k`
    /// distinct indices: each new one is insertion-sorted into the picks,
    /// so nothing is allocated.
    fn pick_fragments<'a>(
        &self,
        fragments: &'a [Fragment],
        value_len: usize,
    ) -> Result<Picked<'a>, CodecError> {
        let flen = self.fragment_len(value_len);
        let mut picked = Picked {
            len: 0,
            indices: [0; 256],
            fragments,
        };
        for f in fragments {
            if f.index() as usize >= self.n {
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
            let Err(at) = picked.indices().binary_search(&f.index()) else {
                continue; // a duplicate index
            };
            picked.indices.copy_within(at..picked.len, at + 1);
            picked.indices[at] = f.index();
            picked.len += 1;
            if picked.len == self.k {
                return Ok(picked);
            }
        }
        Err(CodecError::NotEnoughFragments {
            have: picked.len,
            need: self.k,
        })
    }

    /// Runs `product` on the inverse of the generator rows `picked` names.
    /// A cache hit runs it on the cached [`InversionCache`] entry in place
    /// (the key is looked up as the picks' index slice, so a hit allocates
    /// nothing); a miss runs Gaussian elimination, then caches the result.
    fn with_decode_matrix<R>(&self, picked: &Picked, product: impl FnOnce(&Matrix) -> R) -> R {
        if let Some(inv) = self.inversions.borrow().get(picked.indices()) {
            return product(inv);
        }
        let rows: Vec<usize> = picked.indices().iter().map(|&i| i as usize).collect();
        let inv = self
            .generator
            .select_rows(&rows)
            .inverse()
            .expect("any k rows of the systematic generator are independent");
        let result = product(&inv);
        self.inversions
            .borrow_mut()
            .insert(picked.indices().to_vec(), inv);
        result
    }

    /// Number of decode-matrix inversions currently cached.
    #[cfg(test)]
    fn cached_inversions(&self) -> usize {
        self.inversions.borrow().entries.len()
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
    /// flat tables, no SIMD, one allocation per shard.
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
        // Shapes have no parity ((4,4)), 1..=8 parity rows, and more
        // than eight ((2,12) has ten); lengths cover empty, sub-word,
        // odd-tail, and exact multiples of the 8-byte word and of the
        // 32-byte AVX2 register.
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
    fn encode_fragments_share_one_backing_allocation() {
        // `encode` copies the value once: the data fragments are windows
        // of that copy, and the parity fragments windows of one parity
        // allocation.
        let c = Codec::new(4, 12).unwrap();
        let v = value(100); // divides evenly: no padded tail row
        let frags = c.encode(&v);
        let flen = c.fragment_len(v.len());
        for group in [0..4, 4..12] {
            let base = frags[group.start].data().as_ref().as_ptr();
            for (i, f) in frags[group.clone()].iter().enumerate() {
                assert_eq!(
                    f.data().as_ref().as_ptr(),
                    base.wrapping_add(i * flen),
                    "fragment {} is a window of its group's allocation",
                    group.start + i
                );
            }
        }
    }

    #[test]
    fn encode_value_matches_encode() {
        // Shapes cover no-parity codes, 1..=8 and more than 8 parity
        // rows, and tail/padding edge lengths including empty. One output
        // `Vec` is reused throughout: each call clears what the last left.
        let mut out = Vec::new();
        for (k, n) in [(4, 12), (3, 6), (2, 10), (4, 4), (2, 12), (16, 19)] {
            let c = Codec::new(k, n).unwrap();
            for len in [0usize, 1, 5, 8, 63, 64, 65, 1000, 4096] {
                let v = value(len);
                let expect = c.encode(&v);
                c.encode_value(&Bytes::from(v), &mut out);
                assert_eq!(out, expect, "k={k} n={n} len={len}");
            }
        }
    }

    #[test]
    fn encode_value_parity_backing_fits_exactly() {
        // The parity backing every parity fragment holds a window of is
        // the `Vec` `parity` returns: any spare capacity in it would stay
        // resident for as long as one parity fragment lives.
        for (k, n) in [(4, 12), (3, 6), (16, 19), (4, 4)] {
            let c = Codec::new(k, n).unwrap();
            for len in [0usize, 1, 65, 100 * 1024] {
                let mut out = Vec::new();
                c.encode_value(&Bytes::from(value(len)), &mut out);
                let flen = c.fragment_len(len);
                let parity = c.parity(&out[..k], flen);
                assert_eq!(parity.capacity(), parity.len(), "k={k} n={n} len={len}");
                let windows: Vec<u8> = out[k..].iter().flat_map(|f| f.data().to_vec()).collect();
                assert_eq!(parity, windows, "k={k} n={n} len={len}");
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
