//! The four workloads, their frozen sizes, and the input generators.
//!
//! Inputs are a pure function of `(workload, seed, op count)`. The op
//! count is `nominal_ops × seconds ÷ NOMINAL_SECONDS`: it follows the
//! `--seconds` argument and nothing measured at run time, so a slower
//! build does the same work in more time and its simulated metrics do
//! not move.

use crate::api::{Fault, Server, Shape, Stream};

/// The `run_seconds` of `BENCHMARK.json`, which `nominal_ops` is sized for:
/// three child processes of about 6.5 s timed phase each on the 2-core
/// host the counts were frozen on.
pub const NOMINAL_SECONDS: u64 = 20;

/// The timed phase runs as this many batches.
pub const BATCHES: u64 = 200;

/// Simulated time one closed-loop put takes on the paper cluster, used
/// only to place faults at fixed fractions of a stream. Measured: 60 000
/// puts take 1.8 simulated hours.
const PUT_SIM_US: u64 = 108_000;

/// Simulated time one op of `archive-readback` takes (nine gets to one
/// put, some of them waiting out a dead server's fragments).
const READBACK_OP_SIM_US: u64 = 108_000;

const PAPER: Shape = Shape {
    layout: None,
    policy: None,
    drop_rate: 0.0,
    naive: false,
};

/// How a workload's operations reach the cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// The program's streaming client synthesizes and issues the puts.
    Stream {
        /// Distinct keys; `None` gives every put its own key.
        key_space: Option<u64>,
        /// Bytes per value.
        value_len: usize,
        /// Zipf exponent; `None` cycles the keys.
        zipf: Option<f64>,
        /// Whether the rolling fault schedule is applied.
        faults: bool,
    },
    /// The harness issues one op at a time through `put` / `get`.
    Driven {
        /// Objects put (and converged) during set-up.
        preload: u64,
        /// Distinct keys.
        keys: u64,
        /// Bytes per value.
        value_len: usize,
        /// Gets per hundred ops.
        get_pct: u64,
        /// Zipf exponent of the key choice; `None` cycles the keys.
        zipf: Option<f64>,
        /// Whether `fs(0,0)` is down for the middle third.
        outage: bool,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, one line.
    pub why: &'static str,
    /// Cluster shape.
    pub shape: Shape,
    /// Operation source.
    pub kind: Kind,
    /// Client ops in one child's timed phase at [`NOMINAL_SECONDS`].
    pub nominal_ops: u64,
}

/// The benchmark's workloads. Names are final.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "blob-ingest",
        why: "256 KiB puts over 64 cycled keys: encode, checksum and payload movement; the paper's failure-free costs",
        shape: PAPER,
        kind: Kind::Driven {
            preload: 0,
            keys: 64,
            value_len: 256 * 1024,
            get_pct: 0,
            zipf: None,
            outage: false,
        },
        nominal_ops: 28_000,
    },
    Workload {
        name: "small-put-churn",
        why: "256 B Zipf-1.1 overwrites on 24 nodes: event queue, network, stores and compaction; the codec is idle",
        shape: Shape {
            layout: Some((4, 2, 4)),
            policy: Some((4, 16, 4, 1)),
            drop_rate: 0.0,
            naive: false,
        },
        kind: Kind::Stream {
            key_space: Some(2_000),
            value_len: 256,
            zipf: Some(1.1),
            faults: false,
        },
        nominal_ops: 60_000,
    },
    Workload {
        name: "fault-recovery",
        why: "2 KiB inserts under 1 % loss, rolling FS and KLS outages and a partition: convergence rounds, back-off, recovery",
        shape: Shape {
            drop_rate: 0.01,
            ..PAPER
        },
        kind: Kind::Stream {
            key_space: None,
            value_len: 1024,
            zipf: None,
            faults: true,
        },
        nominal_ops: 56_000,
    },
    Workload {
        name: "archive-readback",
        why: "90 % Zipf-0.9 gets of 64 KiB objects beside overwrites, one FS down for a third: decode, lookups, degraded reads",
        shape: PAPER,
        kind: Kind::Driven {
            preload: 2_000,
            keys: 2_000,
            value_len: 8 * 1024,
            get_pct: 90,
            zipf: Some(0.9),
            outage: true,
        },
        nominal_ops: 80_000,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Client ops of one child's timed phase for a `--seconds` argument,
    /// divided by `div` (the smoke pass uses 50).
    pub fn ops_for(&self, seconds: u64, div: u64) -> u64 {
        (self.nominal_ops * seconds / NOMINAL_SECONDS / div.max(1)).max(BATCHES)
    }
}

/// One operation the harness issues itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Put the value generated from `value_seed` under key `key`.
    Put {
        /// Key index.
        key: u32,
        /// Seed of [`fill_value`].
        value_seed: u64,
    },
    /// Get key `key`.
    Get {
        /// Key index.
        key: u32,
    },
}

/// Everything one child needs to run a workload: the generated inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Cluster shape.
    pub shape: Shape,
    /// Scheduled faults.
    pub faults: Vec<Fault>,
    /// The streamed puts, for `Kind::Stream`.
    pub stream: Option<Stream>,
    /// Puts issued during set-up, for `Kind::Driven`.
    pub preload: Vec<Op>,
    /// Ops of the timed phase, for `Kind::Driven`.
    pub script: Vec<Op>,
    /// Distinct keys the harness itself names (`Kind::Driven`).
    pub keys: u64,
    /// Bytes per value.
    pub value_len: usize,
    /// Simulated time the timed phase starts at (after the preload).
    pub start_us: u64,
    /// Client ops in the timed phase.
    pub ops: u64,
}

impl Workload {
    /// Generates the inputs for `ops` client operations from `seed`.
    pub fn plan(&self, ops: u64, seed: u64) -> Plan {
        match self.kind {
            Kind::Stream {
                key_space,
                value_len,
                zipf,
                faults,
            } => Plan {
                shape: self.shape,
                faults: if faults {
                    rolling_faults(ops * PUT_SIM_US)
                } else {
                    Vec::new()
                },
                stream: Some(Stream {
                    puts: ops,
                    key_space: key_space.unwrap_or(ops),
                    value_len,
                    zipf,
                    seed,
                }),
                preload: Vec::new(),
                script: Vec::new(),
                keys: 0,
                value_len,
                start_us: 0,
                ops,
            },
            Kind::Driven {
                preload,
                keys,
                value_len,
                get_pct,
                zipf,
                outage,
            } => {
                // The smoke pass shrinks the key space with the op count.
                let keys = keys.min(ops);
                let preload = preload.min(keys);
                // The timed phase starts at a fixed simulated time well
                // past the preload, so the outage window can be scheduled
                // before the cluster is built.
                let start_us = preload * 2 * PUT_SIM_US + 400_000_000 * u64::from(preload > 0);
                let span = ops * READBACK_OP_SIM_US;
                Plan {
                    shape: self.shape,
                    faults: if outage {
                        vec![Fault::Outage {
                            server: Server::Fs(0, 0),
                            start_us: start_us + span / 3,
                            len_us: span / 3,
                        }]
                    } else {
                        Vec::new()
                    },
                    stream: None,
                    preload: (0..preload)
                        .map(|key| Op::Put {
                            key: key as u32,
                            value_seed: mix64(seed ^ mix64(key)) | 1,
                        })
                        .collect(),
                    script: (0..ops)
                        .map(|i| driven_op(seed, i, keys, get_pct, zipf))
                        .collect(),
                    keys,
                    value_len,
                    start_us,
                    ops,
                }
            }
        }
    }
}

fn driven_op(seed: u64, i: u64, keys: u64, get_pct: u64, zipf: Option<f64>) -> Op {
    let draw = mix64(seed ^ mix64(i.wrapping_add(0x5eed)));
    let key = match zipf {
        Some(s) => zipf_rank(mix64(draw), keys, s) - 1,
        None => i % keys,
    } as u32;
    if draw % 100 < get_pct {
        Op::Get { key }
    } else {
        Op::Put {
            key,
            value_seed: mix64(draw ^ 0xb10b) | 1,
        }
    }
}

/// The fault schedule of `fault-recovery`, at fixed fractions of the
/// stream's expected simulated length: four rolling single-FS outages
/// alternating data centers, one KLS outage, one DC0|DC1 partition. Each
/// lasts 5 % of the stream (five simulated minutes at 56 000 puts), except
/// the third, which lasts 10 % and so outlives the 300 s minimum age at
/// which siblings start converging: their steps fail and back off.
fn rolling_faults(stream_us: u64) -> Vec<Fault> {
    let at = |pct: u64| stream_us * pct / 100;
    let outage = |server, start_pct, len_pct| Fault::Outage {
        server,
        start_us: at(start_pct),
        len_us: at(len_pct),
    };
    vec![
        outage(Server::Fs(0, 0), 8, 5),
        outage(Server::Fs(1, 1), 21, 5),
        outage(Server::Fs(0, 2), 34, 10),
        outage(Server::Fs(1, 0), 52, 5),
        outage(Server::Kls(0, 1), 65, 5),
        Fault::Partition {
            start_us: at(78),
            len_us: at(5),
        },
    ]
}

/// Stateless splitmix64 finalizer.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A Zipf-distributed rank in `1..=n` from a uniform draw, by inverting
/// the continuous approximation of the Zipf CDF.
fn zipf_rank(draw: u64, n: u64, s: f64) -> u64 {
    let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
    let nf = n as f64;
    let x = if (s - 1.0).abs() < 1e-9 {
        nf.powf(u)
    } else {
        (1.0 + u * (nf.powf(1.0 - s) - 1.0)).powf(1.0 / (1.0 - s))
    };
    (x as u64).clamp(1, n)
}

fn value_word(seed: u64, i: u64) -> u64 {
    let w = seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    w ^ (w >> 29)
}

/// `len` bytes of incompressible-looking content from `seed`. Word `i`
/// depends only on `(seed, i)`, so the loop has no carried dependency and
/// costs far less than the put it feeds.
pub fn fill_value(seed: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let mut chunks = v.chunks_exact_mut(8);
    for (i, chunk) in (&mut chunks).enumerate() {
        chunk.copy_from_slice(&value_word(seed, i as u64).to_le_bytes());
    }
    for (i, b) in chunks.into_remainder().iter_mut().enumerate() {
        *b = (seed >> (8 * i)) as u8;
    }
    v
}

/// Whether `got` is exactly `fill_value(seed, got.len())`.
pub fn value_matches(seed: u64, got: &[u8]) -> bool {
    let mut chunks = got.chunks_exact(8);
    let words_ok = (&mut chunks)
        .enumerate()
        .all(|(i, c)| c == value_word(seed, i as u64).to_le_bytes());
    words_ok
        && chunks
            .remainder()
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (seed >> (8 * i)) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        for w in &WORKLOADS {
            let ops = w.ops_for(NOMINAL_SECONDS, 50);
            assert_eq!(w.plan(ops, 42), w.plan(ops, 42), "{}", w.name);
            assert_ne!(w.plan(ops, 42), w.plan(ops, 43), "{}", w.name);
        }
    }

    #[test]
    fn readback_mix_is_nine_gets_to_one_put() {
        let w = by_name("archive-readback").unwrap();
        let plan = w.plan(20_000, 7);
        let gets = plan
            .script
            .iter()
            .filter(|op| matches!(op, Op::Get { .. }))
            .count();
        assert!((17_600..=18_400).contains(&gets), "{gets} gets of 20000");
        assert_eq!(plan.preload.len(), 2_000);
        // Zipf 0.9: the hottest key takes far more than a uniform share.
        let hottest = plan
            .script
            .iter()
            .filter(|op| matches!(op, Op::Get { key: 0 } | Op::Put { key: 0, .. }))
            .count();
        assert!(hottest > 20_000 / 2_000 * 20, "hottest key got {hottest}");
    }

    #[test]
    fn fault_schedule_scales_with_the_stream() {
        let w = by_name("fault-recovery").unwrap();
        let (a, b) = (w.plan(10_000, 1), w.plan(20_000, 1));
        assert_eq!(a.faults.len(), 6);
        let start = |f: &Fault| match *f {
            Fault::Outage { start_us, .. } | Fault::Partition { start_us, .. } => start_us,
        };
        for (x, y) in a.faults.iter().zip(&b.faults) {
            assert_eq!(2 * start(x), start(y));
        }
    }

    #[test]
    fn values_verify_and_differ_by_seed() {
        for len in [0, 5, 8, 256, 1027] {
            let v = fill_value(99, len);
            assert_eq!(v.len(), len);
            assert!(value_matches(99, &v));
            if len >= 8 {
                assert!(!value_matches(98, &v));
                let mut bad = v.clone();
                bad[len - 1] ^= 1;
                assert!(!value_matches(99, &bad));
            }
        }
    }

    #[test]
    fn op_counts_follow_seconds_only() {
        let w = by_name("small-put-churn").unwrap();
        assert_eq!(w.ops_for(NOMINAL_SECONDS, 1), w.nominal_ops);
        assert_eq!(w.ops_for(NOMINAL_SECONDS / 2, 1), w.nominal_ops / 2);
        assert_eq!(w.ops_for(1, 1_000), BATCHES);
    }
}
