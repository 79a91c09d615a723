//! Workload generation.
//!
//! A [`StreamingWorkload`] synthesizes each put from `(seed, index)` —
//! key popularity from a [`KeyDistribution`], the value from the key — so
//! a million-put stream costs no more resident memory than a ten-put one.
//! The paper's script is [`StreamingWorkload::numbered`]; any other script
//! is a sequence of `Cluster::put` calls.

use bytes::Bytes;

use crate::client::{Client, ClientOp};
use crate::policy::Policy;
use crate::types::Key;

/// Stateless splitmix64 finalizer: a high-quality 64-bit mix of `x`. It
/// also hashes keys for [`KeyTable`](crate::table::KeyTable).
pub(crate) fn mix64(x: u64) -> u64 {
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
    /// [`Sequential`](Self::Sequential), but the key is the rank itself,
    /// not a fingerprint of it ([`StreamingWorkload::numbered`]).
    Numbered,
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
/// Keys are fingerprints of the sampled popularity rank (but for
/// [`KeyDistribution::Numbered`]), so key popularity follows the
/// configured distribution while the key *values* spread uniformly over
/// the 64-bit space (shard-friendly). The blob for key `k` is
/// [`Client::synthetic_value`]`(k - 1, value_len)`, so the durability
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
    /// Overwrite correlation: each put rewrites this fraction of its bytes
    /// (in 1/1000) inside a fixed per-key window, with contents that vary by
    /// put index. Byte-level durability checks need `0`, the key-derived
    /// blobs. Only its own test sets it above 0; it goes with its reference
    /// in `benchmark/src/api.rs` in ROADMAP item 6(c).
    pub overwrite_delta_permille: u16,
}

impl StreamingWorkload {
    /// The paper's script (§5.1), `rounds` times: keys `1..=keys` in order,
    /// each with its key-derived blob, so later rounds overwrite every key
    /// with the same bytes.
    pub fn numbered(keys: u64, rounds: u64, value_len: usize, policy: Policy) -> Self {
        StreamingWorkload {
            puts: keys * rounds,
            key_space: keys,
            value_len,
            policy,
            seed: 0,
            dist: KeyDistribution::Numbered,
            overwrite_delta_permille: 0,
        }
    }

    /// The popularity rank (`1..=key_space`) put `i` writes.
    pub fn rank_at(&self, i: u64) -> u64 {
        let n = self.key_space.max(1);
        let draw = mix64(self.seed ^ mix64(i));
        match self.dist {
            KeyDistribution::Numbered | KeyDistribution::Sequential => i % n + 1,
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
    /// over the key space regardless of the popularity shape), or under
    /// [`KeyDistribution::Numbered`] the rank itself.
    pub fn key_at(&self, i: u64) -> Key {
        let rank = self.rank_at(i);
        match self.dist {
            KeyDistribution::Numbered => Key::from_u64(rank),
            _ => Key::from_u64(mix64(self.seed ^ rank) | 1),
        }
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
    fn numbered_stream_is_the_papers_script() {
        let policy = Policy::paper_default();
        let mut wl = StreamingWorkload::numbered(5, 2, 128, policy);
        assert_eq!(wl.puts, 10);
        for seed in [0, 7] {
            wl.seed = seed;
            for i in 0..wl.puts {
                let ClientOp::Put {
                    key,
                    value,
                    policy: p,
                } = wl.op_at(i)
                else {
                    panic!("streams are puts")
                };
                assert_eq!(key, Key::from_u64(i % 5 + 1), "put {i}, seed {seed}");
                assert_eq!(value, Client::synthetic_value(i % 5, 128), "put {i}");
                assert_eq!(p, policy);
            }
        }
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
        // Zero keeps the key-derived convention byte-for-byte.
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
            KeyDistribution::Numbered,
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
