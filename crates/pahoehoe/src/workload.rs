//! Workload generation.
//!
//! The paper targets "binary large objects such as pictures, audio files
//! or movies of moderate size (~100 × 2¹⁰ B to 100 × 2²⁰ B)" (§2). This
//! module builds deterministic, seed-driven put scripts over that range:
//! fixed-size (the evaluation's 100 × 100 KiB workload), uniform, and a
//! heavy-tailed media mix.

use bytes::Bytes;

use crate::client::{Client, ClientOp};
use crate::policy::Policy;
use crate::types::Key;

/// Object-size distribution for generated workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeDistribution {
    /// Every object has the same size (the paper's evaluation workload).
    Fixed(usize),
    /// Sizes uniform in `[min, max]`.
    Uniform {
        /// Smallest object size.
        min: usize,
        /// Largest object size (inclusive).
        max: usize,
    },
    /// A media-archive mixture over the paper's stated range: 70 %
    /// thumbnails/photos (100 KiB–1 MiB), 25 % audio (1–10 MiB, scaled
    /// down 10× to keep simulations snappy), 5 % "movies" (top of the
    /// range, scaled likewise).
    MediaMix,
}

/// A deterministic workload builder.
///
/// ```
/// use pahoehoe::workload::{SizeDistribution, Workload};
///
/// let ops = Workload::new(10)
///     .sizes(SizeDistribution::Uniform { min: 1024, max: 8192 })
///     .seed(7)
///     .build();
/// assert_eq!(ops.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    count: usize,
    sizes: SizeDistribution,
    policy: Policy,
    key_prefix: String,
    seed: u64,
}

impl Workload {
    /// A workload of `count` puts with the paper's defaults
    /// (100 KiB fixed-size objects, default policy).
    pub fn new(count: usize) -> Self {
        Workload {
            count,
            sizes: SizeDistribution::Fixed(100 * 1024),
            policy: Policy::paper_default(),
            key_prefix: "obj".to_string(),
            seed: 0,
        }
    }

    /// Sets the size distribution.
    pub fn sizes(mut self, sizes: SizeDistribution) -> Self {
        self.sizes = sizes;
        self
    }

    /// Sets the durability policy for every put.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the key-name prefix (keys are `"<prefix>/<index>"`).
    pub fn key_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.key_prefix = prefix.into();
        self
    }

    /// Sets the generator seed (contents and sampled sizes derive from
    /// it deterministically).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The key of the `i`-th object of this workload.
    pub fn key(&self, i: usize) -> Key {
        Key::from_name(format!("{}/{}", self.key_prefix, i).as_bytes())
    }

    fn sample_size(&self, rng: &mut SplitMix) -> usize {
        match &self.sizes {
            SizeDistribution::Fixed(s) => *s,
            SizeDistribution::Uniform { min, max } => {
                assert!(min <= max, "uniform range inverted");
                min + (rng.next() as usize) % (max - min + 1)
            }
            SizeDistribution::MediaMix => {
                let roll = rng.next() % 100;
                let (lo, hi) = if roll < 70 {
                    (100 * 1024, 1024 * 1024) // photos
                } else if roll < 95 {
                    (1024 * 1024 / 10, 10 * 1024 * 1024 / 10) // audio /10
                } else {
                    (10 * 1024 * 1024 / 10, 100 * 1024 * 1024 / 100) // movies /100
                };
                lo + (rng.next() as usize) % (hi - lo + 1)
            }
        }
    }

    /// Generates the put script.
    pub fn build(&self) -> Vec<ClientOp> {
        let mut rng = SplitMix(self.seed ^ 0x5851_f42d_4c95_7f2d);
        (0..self.count)
            .map(|i| {
                let size = self.sample_size(&mut rng);
                ClientOp::Put {
                    key: self.key(i),
                    value: Client::synthetic_value(self.seed.wrapping_add(i as u64), size),
                    policy: self.policy,
                }
            })
            .collect()
    }

    /// Total bytes the workload will store (sum of value sizes).
    pub fn total_bytes(&self) -> usize {
        self.build()
            .iter()
            .map(|op| match op {
                ClientOp::Put { value, .. } => value.len(),
                ClientOp::Get { .. } => 0,
            })
            .sum()
    }

    /// Expected value for key `i` (for read-back verification).
    pub fn expected_value(&self, i: usize) -> Bytes {
        match &self.build()[i] {
            ClientOp::Put { value, .. } => value.clone(),
            ClientOp::Get { .. } => unreachable!("workloads are puts"),
        }
    }
}

/// Tiny deterministic generator (splitmix64).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Stateless splitmix64 finalizer: a high-quality 64-bit mix of `x`.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key-popularity distribution for [`StreamingWorkload`]s.
///
/// Real key-value traffic is heavily skewed — a few hot keys take most of
/// the writes — which is exactly the regime where superseded-version
/// residue dominates fragment-server memory. Every distribution here maps
/// a put index to a *popularity rank* in `1..=key_space` with O(1) work
/// and no per-key state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Put `i` writes rank `i % key_space + 1`: every key exactly once
    /// when `puts == key_space` (the insert-only scale shape).
    Sequential,
    /// Ranks uniform in `1..=key_space`.
    Uniform,
    /// Zipf-distributed ranks: rank `r` is written proportionally to
    /// `r^-exponent`, sampled in O(1) by inverting the continuous
    /// approximation of the Zipf CDF.
    Zipf {
        /// The skew exponent `s > 0` (web caches are typically ~0.9–1.1).
        exponent: f64,
    },
    /// `hot_permille`/1000 of the puts hit one of the first `hot_keys`
    /// ranks uniformly; the rest spread uniformly over the whole space.
    HotKey {
        /// Size of the hot set.
        hot_keys: u64,
        /// Fraction of puts (in 1/1000) aimed at the hot set.
        hot_permille: u16,
    },
}

/// A constant-memory workload stream: `op_at(i)` synthesizes the `i`-th
/// put from `(seed, i)` alone, so a million-key workload costs no more
/// resident memory than a ten-key one — no key vector, no value table.
///
/// Keys are fingerprints of the sampled popularity rank, so key
/// popularity follows the configured distribution while the key *values*
/// spread uniformly over the 64-bit space (shard-friendly). Values follow
/// the standard-workload convention — the blob for key `k` is
/// [`Client::synthetic_value`]`(k - 1, value_len)` — so the durability
/// invariants can reconstruct any expected blob from the key alone.
///
/// ```
/// use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
///
/// let wl = StreamingWorkload {
///     puts: 1_000_000,
///     key_space: 1_000_000,
///     value_len: 64,
///     policy: pahoehoe::Policy::paper_default(),
///     seed: 42,
///     dist: KeyDistribution::Zipf { exponent: 0.99 },
///     overwrite_delta_permille: 0,
/// };
/// assert_eq!(wl.key_at(7), wl.key_at(7)); // pure function of (seed, index)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingWorkload {
    /// Total number of puts in the stream.
    pub puts: u64,
    /// Number of distinct keys the stream draws from.
    pub key_space: u64,
    /// Value length of every put.
    pub value_len: usize,
    /// Durability policy of every put.
    pub policy: Policy,
    /// Stream seed: ranks, and therefore keys, derive from `(seed, i)`.
    pub seed: u64,
    /// Key-popularity shape.
    pub dist: KeyDistribution,
    /// Overwrite correlation: the fraction of bytes (in 1/1000) each put
    /// rewrites inside a fixed per-key window, with contents that vary by
    /// put index. `0` keeps the standard key-derived blobs — required
    /// whenever byte-level durability checks are installed, since those
    /// reconstruct the expected blob from the key alone. Nonzero values
    /// make windowed overwrites: successive puts to the same key differ
    /// only within the window. Nothing in the workspace sets it above 0
    /// except its own test; it stays because `benchmark/src/api.rs` names
    /// it, and goes with that reference in ROADMAP item 1's `[benchmark]`
    /// change.
    pub overwrite_delta_permille: u16,
}

impl StreamingWorkload {
    /// The popularity rank (`1..=key_space`) put `i` writes.
    pub fn rank_at(&self, i: u64) -> u64 {
        let n = self.key_space.max(1);
        let draw = mix64(self.seed ^ mix64(i));
        match self.dist {
            KeyDistribution::Sequential => i % n + 1,
            KeyDistribution::Uniform => draw % n + 1,
            KeyDistribution::Zipf { exponent } => {
                // Invert the continuous Zipf CDF: for s != 1 the mass below
                // rank x is ~ (x^(1-s) - 1) / (N^(1-s) - 1); for s = 1 it
                // is ~ ln(x) / ln(N). Deterministic for a fixed build.
                let u = (draw >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
                let nf = n as f64;
                let s = exponent;
                let x = if (s - 1.0).abs() < 1e-9 {
                    nf.powf(u)
                } else {
                    (1.0 + u * (nf.powf(1.0 - s) - 1.0)).powf(1.0 / (1.0 - s))
                };
                (x as u64).clamp(1, n)
            }
            KeyDistribution::HotKey {
                hot_keys,
                hot_permille,
            } => {
                let hot = hot_keys.clamp(1, n);
                if draw % 1000 < u64::from(hot_permille) {
                    mix64(draw) % hot + 1
                } else {
                    mix64(draw) % n + 1
                }
            }
        }
    }

    /// The key put `i` writes: a 64-bit fingerprint of its rank (uniform
    /// over the key space regardless of the popularity shape).
    pub fn key_at(&self, i: u64) -> Key {
        Key::from_u64(mix64(self.seed ^ self.rank_at(i)) | 1)
    }

    /// Synthesizes put `i` — value bytes included — in O(`value_len`).
    pub fn op_at(&self, i: u64) -> ClientOp {
        let key = self.key_at(i);
        let mut value = Client::synthetic_value(key.as_u64().wrapping_sub(1), self.value_len);
        if self.overwrite_delta_permille > 0 && self.value_len > 0 {
            let len = self.value_len;
            let w = (len * usize::from(self.overwrite_delta_permille) / 1000).clamp(1, len);
            let off = (mix64(key.as_u64()) % (len - w + 1) as u64) as usize;
            let mut buf = value.to_vec();
            let mut state = mix64(key.as_u64() ^ mix64(i)) | 1;
            for b in &mut buf[off..off + w] {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = state as u8;
            }
            value = Bytes::from(buf);
        }
        ClientOp::Put {
            key,
            value,
            policy: self.policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_sizes_are_fixed() {
        let ops = Workload::new(5).build();
        for op in &ops {
            let ClientOp::Put { value, .. } = op else {
                panic!("put")
            };
            assert_eq!(value.len(), 100 * 1024);
        }
    }

    #[test]
    fn uniform_sizes_stay_in_range_and_vary() {
        let w = Workload::new(200)
            .sizes(SizeDistribution::Uniform { min: 10, max: 20 })
            .seed(3);
        let mut seen = std::collections::BTreeSet::new();
        for op in w.build() {
            let ClientOp::Put { value, .. } = op else {
                panic!("put")
            };
            assert!((10..=20).contains(&value.len()));
            seen.insert(value.len());
        }
        assert!(seen.len() > 5, "uniform should hit most sizes: {seen:?}");
    }

    #[test]
    fn media_mix_spans_the_papers_range() {
        let w = Workload::new(300).sizes(SizeDistribution::MediaMix).seed(5);
        let sizes: Vec<usize> = w
            .build()
            .iter()
            .map(|op| match op {
                ClientOp::Put { value, .. } => value.len(),
                _ => 0,
            })
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min >= 100 * 1024, "min {min}");
        assert!(max > 500 * 1024, "max {max}");
        // Photos dominate.
        let photos = sizes.iter().filter(|&&s| s <= 1024 * 1024).count() as f64;
        assert!(photos / sizes.len() as f64 > 0.55);
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let a = Workload::new(10).sizes(SizeDistribution::MediaMix).seed(9);
        let b = Workload::new(10).sizes(SizeDistribution::MediaMix).seed(9);
        let c = Workload::new(10).sizes(SizeDistribution::MediaMix).seed(10);
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_ne!(a.total_bytes(), c.total_bytes());
        assert_eq!(a.expected_value(3), b.expected_value(3));
    }

    #[test]
    fn keys_are_distinct_and_prefixed() {
        let w = Workload::new(4).key_prefix("photos");
        let keys: std::collections::BTreeSet<Key> = (0..4).map(|i| w.key(i)).collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(w.key(0), Key::from_name(b"photos/0"));
    }

    #[test]
    #[should_panic(expected = "range inverted")]
    fn inverted_uniform_panics() {
        let _ = Workload::new(1)
            .sizes(SizeDistribution::Uniform { min: 5, max: 1 })
            .build();
    }

    fn stream(dist: KeyDistribution) -> StreamingWorkload {
        StreamingWorkload {
            puts: 10_000,
            key_space: 1_000,
            value_len: 32,
            policy: Policy::paper_default(),
            seed: 42,
            dist,
            overwrite_delta_permille: 0,
        }
    }

    #[test]
    fn streaming_ops_are_pure_functions_of_seed_and_index() {
        let wl = stream(KeyDistribution::Zipf { exponent: 0.99 });
        for i in [0, 1, 7, 9_999] {
            assert_eq!(wl.key_at(i), wl.key_at(i));
        }
        let mut other = wl.clone();
        other.seed = 43;
        let same = (0..100)
            .filter(|&i| wl.key_at(i) == other.key_at(i))
            .count();
        assert!(same < 100, "different seeds must reshuffle keys");
    }

    #[test]
    fn streaming_values_follow_the_standard_convention() {
        let wl = stream(KeyDistribution::Uniform);
        let ClientOp::Put { key, value, .. } = wl.op_at(5) else {
            panic!("streams are puts")
        };
        assert_eq!(
            value,
            Client::synthetic_value(key.as_u64().wrapping_sub(1), 32),
            "durability invariants reconstruct blobs from the key alone"
        );
    }

    #[test]
    fn sequential_stream_covers_the_key_space_exactly() {
        let mut wl = stream(KeyDistribution::Sequential);
        wl.puts = wl.key_space;
        let keys: std::collections::BTreeSet<Key> = (0..wl.puts).map(|i| wl.key_at(i)).collect();
        assert_eq!(keys.len() as u64, wl.key_space);
    }

    #[test]
    fn zipf_stream_is_head_heavy() {
        let wl = stream(KeyDistribution::Zipf { exponent: 0.99 });
        let mut hits = vec![0u64; 1_001];
        for i in 0..wl.puts {
            hits[wl.rank_at(i) as usize] += 1;
        }
        let head: u64 = hits[1..=10].iter().sum();
        assert!(
            head * 5 > wl.puts,
            "top-10 ranks should take >20% of a Zipf(0.99) stream, got {head}"
        );
        assert!(hits[1] > hits[500], "rank 1 beats the tail");
    }

    #[test]
    fn hot_key_stream_respects_the_hot_fraction() {
        let wl = stream(KeyDistribution::HotKey {
            hot_keys: 10,
            hot_permille: 900,
        });
        let hot = (0..wl.puts).filter(|&i| wl.rank_at(i) <= 10).count() as f64;
        let frac = hot / wl.puts as f64;
        assert!((0.85..=0.95).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn overwrite_knob_rewrites_one_fixed_window_per_key() {
        let mut wl = stream(KeyDistribution::Sequential);
        wl.value_len = 4096;
        wl.overwrite_delta_permille = 10; // ~1 % of bytes per overwrite
                                          // Sequential ranks repeat every `key_space` puts, so puts i and
                                          // i + key_space overwrite the same key.
        let (i, j) = (3, 3 + wl.key_space);
        let ClientOp::Put {
            key: ka, value: va, ..
        } = wl.op_at(i)
        else {
            panic!("put")
        };
        let ClientOp::Put {
            key: kb, value: vb, ..
        } = wl.op_at(j)
        else {
            panic!("put")
        };
        assert_eq!(ka, kb, "sequential stream must revisit the key");
        let changed: Vec<usize> = (0..va.len()).filter(|&p| va[p] != vb[p]).collect();
        assert!(!changed.is_empty(), "overwrites must differ");
        let span = changed.last().unwrap() - changed.first().unwrap() + 1;
        let w = 4096 * 10 / 1000;
        assert!(span <= w, "diff span {span} exceeds the {w}-byte window");
        // The window position is a function of the key alone: diffs from
        // another overwrite of the same key land in the same window.
        let ClientOp::Put { value: vc, .. } = wl.op_at(j + wl.key_space) else {
            panic!("put")
        };
        let changed2: Vec<usize> = (0..vb.len()).filter(|&p| vb[p] != vc[p]).collect();
        let lo = (*changed.first().unwrap()).min(*changed2.first().unwrap());
        let hi = (*changed.last().unwrap()).max(*changed2.last().unwrap());
        assert!(hi - lo < w, "both diffs share one {w}-byte window");
        // Zero keeps the standard key-derived convention byte-for-byte.
        wl.overwrite_delta_permille = 0;
        let ClientOp::Put { value: plain, .. } = wl.op_at(i) else {
            panic!("put")
        };
        assert_eq!(
            plain,
            Client::synthetic_value(ka.as_u64().wrapping_sub(1), 4096)
        );
    }

    #[test]
    fn streaming_ranks_stay_in_range() {
        for dist in [
            KeyDistribution::Sequential,
            KeyDistribution::Uniform,
            KeyDistribution::Zipf { exponent: 1.0 },
            KeyDistribution::Zipf { exponent: 1.2 },
            KeyDistribution::HotKey {
                hot_keys: 3,
                hot_permille: 500,
            },
        ] {
            let wl = stream(dist);
            for i in 0..2_000 {
                let r = wl.rank_at(i);
                assert!((1..=wl.key_space).contains(&r), "{dist:?}: rank {r}");
            }
        }
    }
}
