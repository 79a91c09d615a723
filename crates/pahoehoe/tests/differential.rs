//! Differential tests: the three [`ProtocolMode`] behaviour switches, each
//! alone against the default protocol.
//!
//! Converged-version compaction must be *invisible* on a fault-free run —
//! same outcome, event sequence, clock, traffic and per-server observables,
//! with superseded settled versions allowed to collapse to residuals —
//! delta coding must change what a put ships, never what the archive
//! holds, and batched rounds must change how many messages convergence
//! sends, never where it ends up. (The version store itself is checked
//! against an in-test model in `fs/tests/store.rs`, without a cluster.)

use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::convergence::ConvergenceOptions;
use pahoehoe::fs::Fs;
use pahoehoe::kls::Kls;
use pahoehoe::protocol::ProtocolMode;
use pahoehoe::types::ObjectVersion;
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use proptest::prelude::*;
use simnet::{FaultPlan, NetworkConfig, NodeId, RunOutcome, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Compaction and nothing else: [`ProtocolMode::scale`] also batches rounds,
/// which moves messages, and these tests are about what compaction moves.
const COMPACTING: ProtocolMode = ProtocolMode {
    compact_converged: true,
    delta: false,
    batch_rounds: false,
};

/// A small randomized scenario: everything that feeds the deterministic
/// simulation, minus the workload stream and the protocol mode under test.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    value_len: usize,
    drop_pct: u8,
    dup_pct: u8,
    naive: bool,
    /// `(node index, start secs, duration secs)` outages.
    outages: Vec<(u32, u64, u64)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let outage = (0u32..10, 0u64..60, 30u64..300);
    (
        any::<u64>(),
        (0usize..3).prop_map(|i| [512usize, 4096, 16 * 1024][i]),
        0u8..8,
        0u8..5,
        any::<bool>(),
        proptest::collection::vec(outage, 0..3),
    )
        .prop_map(
            |(seed, value_len, drop_pct, dup_pct, naive, outages)| Scenario {
                seed,
                value_len,
                drop_pct,
                dup_pct,
                naive,
                outages,
            },
        )
}

/// Runs an update-heavy streamed workload — a small key space cycled
/// sequentially, so most puts supersede an earlier version of the same
/// key — and returns the cluster for in-place inspection.
fn run_update_heavy(
    sc: &Scenario,
    key_space: u64,
    puts: u64,
    mode: ProtocolMode,
    overwrite_delta_permille: u16,
) -> (Cluster, RunOutcome) {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = layout;
    cfg.protocol = mode;
    cfg.workload_value_len = sc.value_len;
    cfg.streaming_workload = Some(StreamingWorkload {
        puts,
        key_space,
        value_len: sc.value_len,
        policy: cfg.policy,
        seed: sc.seed,
        dist: KeyDistribution::Sequential,
        overwrite_delta_permille,
    });
    cfg.convergence = if sc.naive {
        ConvergenceOptions::naive()
    } else {
        ConvergenceOptions::all()
    };
    cfg.network = NetworkConfig {
        drop_rate: f64::from(sc.drop_pct) / 100.0,
        duplicate_rate: f64::from(sc.dup_pct) / 100.0,
        ..NetworkConfig::paper_default()
    };
    let mut faults = FaultPlan::none();
    for &(node, start, dur) in &sc.outages {
        faults.add_node_outage(
            simnet::NodeId::new(node),
            SimTime::ZERO + SimDuration::from_secs(start),
            SimDuration::from_secs(dur),
        );
    }
    let mut cluster = Cluster::build_with_faults(cfg, sc.seed, faults);
    let outcome = cluster.run_to_convergence().outcome;
    (cluster, outcome)
}

/// Asserts the compacting run is observationally equivalent to the full
/// run: identical KLS tables, identical per-FS classification sets and
/// settle times, byte-identical entries for every uncompacted version,
/// and for each compacted version a residual mask recording exactly the
/// fragments the full store still holds. Returns the number of
/// compacted store entries seen (a superseded version compacts once per
/// FS that held it).
fn assert_compaction_invisible(full: &Cluster, compact: &Cluster) -> usize {
    let topo = full.topology().clone();
    for id in topo.all_klss() {
        let f: &Kls = full.sim().actor(id);
        let c: &Kls = compact.sim().actor(id);
        let mut f_ovs: Vec<_> = f.known_versions().collect();
        let mut c_ovs: Vec<_> = c.known_versions().collect();
        f_ovs.sort();
        c_ovs.sort();
        assert_eq!(f_ovs, c_ovs, "KLS {id:?} knows the same versions");
        for ov in f_ovs {
            assert_eq!(
                format!("{:?}", f.meta(ov)),
                format!("{:?}", c.meta(ov)),
                "KLS {id:?} metadata for {ov:?} is untouched by compaction"
            );
        }
    }

    let sorted = |it: Box<dyn Iterator<Item = pahoehoe::types::ObjectVersion> + '_>| {
        let mut v: Vec<_> = it.collect();
        v.sort();
        v
    };
    let mut compacted_entries = 0usize;
    for id in topo.all_fss() {
        let f: &Fs = full.sim().actor(id);
        let c: &Fs = compact.sim().actor(id);
        let known = sorted(Box::new(f.known_versions()));
        assert_eq!(
            known,
            sorted(Box::new(c.known_versions())),
            "FS {id:?} knows the same versions"
        );
        assert_eq!(
            sorted(Box::new(f.amr_versions())),
            sorted(Box::new(c.amr_versions())),
            "FS {id:?} AMR sets match"
        );
        assert_eq!(
            sorted(Box::new(f.pending_versions())),
            sorted(Box::new(c.pending_versions())),
            "FS {id:?} pending sets match"
        );
        assert_eq!(
            sorted(Box::new(f.gave_up_versions())),
            sorted(Box::new(c.gave_up_versions())),
            "FS {id:?} gave-up sets match"
        );
        for ov in known {
            assert_eq!(
                f.amr_settled_at(ov),
                c.amr_settled_at(ov),
                "FS {id:?} settle time for {ov:?} matches"
            );
            assert_eq!(
                f.verified(ov),
                c.verified(ov),
                "FS {id:?} verification for {ov:?} matches"
            );
            match c.compacted_residual(ov) {
                Some(mask) => {
                    compacted_entries += 1;
                    assert!(
                        c.amr_settled_at(ov).is_some(),
                        "only settled-AMR versions compact ({ov:?})"
                    );
                    assert!(
                        c.entry(ov).is_none(),
                        "compacted slot for {ov:?} released its full entry"
                    );
                    let entry = f.entry(ov).expect("full run keeps the entry");
                    let held: Vec<_> = mask.iter().collect();
                    let full_held: Vec<_> = entry.fragments.keys().copied().collect();
                    assert_eq!(
                        held, full_held,
                        "FS {id:?} residual for {ov:?} records exactly the fragments held"
                    );
                }
                None => {
                    assert_eq!(
                        format!("{:?}", f.entry(ov)),
                        format!("{:?}", c.entry(ov)),
                        "FS {id:?} uncompacted entry for {ov:?} is byte-identical"
                    );
                }
            }
        }
        assert_eq!(
            c.compacted_count(),
            sorted(Box::new(c.compacted_versions())).len(),
            "FS {id:?} compacted count matches its residual listing"
        );
    }
    compacted_entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Converged-version compaction against the full store on an
    /// update-heavy stream: on a clean network compaction is pure local
    /// bookkeeping, so the outcome, event sequence, virtual clock,
    /// per-kind message counts, KLS tables and every per-FS
    /// observable must match — with superseded settled versions allowed
    /// to collapse to residuals that mirror the full store's fragment
    /// sets. (Under faults the stores legitimately diverge: a residual
    /// still answers verification queries, but its released fragments
    /// can no longer feed a straggling sibling's recovery, and late
    /// duplicate fragment pushes are dropped instead of stored — so the
    /// strict event-level claim is scoped to fault-free runs.)
    #[test]
    fn compaction_is_invisible(
        sc in scenario_strategy(),
        key_space in 1u64..4,
        puts in 4u64..13,
    ) {
        let sc = Scenario {
            drop_pct: 0,
            dup_pct: 0,
            outages: Vec::new(),
            ..sc
        };
        let (full, full_outcome) =
            run_update_heavy(&sc, key_space, puts, ProtocolMode::default(), 0);
        let (compact, compact_outcome) = run_update_heavy(&sc, key_space, puts, COMPACTING, 0);
        prop_assert_eq!(full_outcome, compact_outcome);
        prop_assert_eq!(
            full.sim().events_processed(),
            compact.sim().events_processed()
        );
        prop_assert_eq!(full.sim().now(), compact.sim().now());
        let entries = |c: &Cluster| -> Vec<(&'static str, u64)> {
            c.sim()
                .metrics()
                .registry()
                .iter()
                .map(|&k| (k, c.sim().metrics().kind(k).count))
                .collect()
        };
        prop_assert_eq!(entries(&full), entries(&compact));
        assert_compaction_invisible(&full, &compact);
    }
}

/// A clean-network scripted run where every put supersedes the single
/// key: compaction must collapse each superseded version on every FS
/// that held its fragments, while staying observationally equivalent to
/// the full store.
#[test]
fn compaction_collapses_superseded_versions_invisibly() {
    let sc = Scenario {
        seed: 7,
        value_len: 4096,
        drop_pct: 0,
        dup_pct: 0,
        naive: false,
        outages: Vec::new(),
    };
    let (full, full_outcome) = run_update_heavy(&sc, 1, 8, ProtocolMode::default(), 0);
    let (compact, compact_outcome) = run_update_heavy(&sc, 1, 8, COMPACTING, 0);
    assert_eq!(full_outcome, compact_outcome);
    assert_eq!(
        full.sim().events_processed(),
        compact.sim().events_processed(),
        "compaction is event-neutral"
    );
    let compacted = assert_compaction_invisible(&full, &compact);
    // 8 puts to one key leave 7 superseded versions, each compacted on
    // every FS that held fragments of it.
    assert!(
        compacted >= 7,
        "each superseded version compacted somewhere (got {compacted} entries)"
    );
}

// ---------------------------------------------------------------------------
// Batched rounds: fewer messages, the same archive
// ---------------------------------------------------------------------------

/// What a converged cluster must look like whatever its messages were:
/// every put the client saw succeed is at maximum redundancy — complete
/// metadata at every KLS, and every sibling FS settled AMR holding exactly
/// its assigned fragments — no FS gave a version up, and no FS still has
/// work for a durable version. Returns, per FS, the state and stored
/// fragment indices of each durable version it knows: what two runs that
/// stored the same versions must agree on. (Non-durable leftovers of failed
/// attempts stay pending for ever; which siblings had heard of one when the
/// run stopped is an accident of timing.)
fn converged_state(cluster: &Cluster) -> BTreeMap<NodeId, BTreeMap<ObjectVersion, String>> {
    let sim = cluster.sim();
    let topo = cluster.topology().clone();
    let fss: Vec<NodeId> = topo.all_fss().collect();
    let durable = pahoehoe::analysis::durable_versions(sim, &fss);
    for &ov in cluster.client().success_versions() {
        assert!(pahoehoe::analysis::is_amr(sim, &topo, ov), "{ov:?} acked");
        let kls: &Kls = sim.actor(topo.all_klss().next().expect("a KLS"));
        let meta = kls.meta(ov).expect("AMR implies stored metadata");
        for id in meta.siblings() {
            let fs: &Fs = sim.actor(id);
            assert!(fs.amr_settled_at(ov).is_some(), "FS {id:?} settled {ov:?}");
            let held: Vec<_> = fs
                .entry(ov)
                .expect("live")
                .fragments
                .keys()
                .copied()
                .collect();
            assert_eq!(
                held,
                meta.fragments_of(id),
                "FS {id:?} stores its share of {ov:?}"
            );
        }
    }
    let mut state = BTreeMap::new();
    for &id in &fss {
        let fs: &Fs = sim.actor(id);
        assert_eq!(fs.gave_up_versions().count(), 0, "FS {id:?} gave up");
        let pending: BTreeSet<_> = fs.pending_versions().collect();
        assert!(pending.is_disjoint(&durable), "FS {id:?} still has work");
        let amr: BTreeSet<_> = fs.amr_versions().collect();
        let per_version = fs
            .known_versions()
            .filter(|ov| durable.contains(ov))
            .map(|ov| {
                let held: Vec<_> = fs.entry(ov).expect("live").fragments.keys().collect();
                (ov, format!("amr={} held={held:?}", amr.contains(&ov)))
            })
            .collect();
        state.insert(id, per_version);
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched rounds against the default protocol under the scenario's
    /// drops, duplicates and outages. A batch is lost or delivered whole
    /// and fewer sends shift every later RNG draw, so the two runs are
    /// different executions — but both must converge, both must leave
    /// every acked put at maximum redundancy ([`converged_state`]), and
    /// when the put phase was over before the first round diverged them
    /// (the same versions acked and failed) every FS must end with the
    /// same AMR, pending and gave-up sets and the same stored fragments.
    ///
    /// Batching sends one message per destination, kind and dispatch where
    /// the default sends one per version, so a dispatch never costs more —
    /// but two executions are not one schedule of dispatches. The count is
    /// compared where rounds carry every version (naive convergence: each
    /// put takes rounds until it verifies, and batching wins by the number
    /// of puts). With every optimization on a round is usually about one
    /// straggler, batching saves nothing, and which run loses one more
    /// probe and retries is the luck of the draw (of 322 such generated
    /// cases 9 sent more batched, the worst 275 messages against 159; of
    /// 278 naive ones none, the closest 1.57 times fewer).
    #[test]
    fn batching_changes_messages_not_outcomes(
        sc in scenario_strategy(),
        key_space in 1u64..4,
        puts in 4u64..13,
    ) {
        let batching = ProtocolMode {
            batch_rounds: true,
            ..ProtocolMode::default()
        };
        let (single, single_outcome) =
            run_update_heavy(&sc, key_space, puts, ProtocolMode::default(), 0);
        let (batched, batched_outcome) = run_update_heavy(&sc, key_space, puts, batching, 0);
        prop_assert_eq!(single_outcome, RunOutcome::PredicateSatisfied);
        prop_assert_eq!(batched_outcome, RunOutcome::PredicateSatisfied);
        prop_assert_eq!(single.client().puts_succeeded(), puts);
        prop_assert_eq!(batched.client().puts_succeeded(), puts);

        let single_state = converged_state(&single);
        let batched_state = converged_state(&batched);
        let ledger = |c: &Cluster| {
            let client = c.client();
            (client.success_versions().clone(), client.failed_versions().clone())
        };
        if ledger(&single) == ledger(&batched) {
            prop_assert_eq!(single_state, batched_state);
        }

        let round_sends = |c: &Cluster| -> u64 {
            ["KLSConvergeReq", "KLSConvergeRep", "FSConvergeReq", "FSConvergeRep", "AMRIndication"]
                .iter()
                .map(|kind| c.sim().metrics().kind(kind).count)
                .sum()
        };
        if sc.naive {
            prop_assert!(
                round_sends(&batched) <= round_sends(&single),
                "batched rounds sent {} messages, single sends {}",
                round_sends(&batched),
                round_sends(&single)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Delta coding: semantic equivalence against the full-encode path
// ---------------------------------------------------------------------------

/// The streaming workload [`run_update_heavy`] drives for `sc`, rebuilt
/// so tests can compute expected last-writer blobs.
fn update_heavy_workload(
    sc: &Scenario,
    key_space: u64,
    puts: u64,
    overwrite_delta_permille: u16,
) -> StreamingWorkload {
    StreamingWorkload {
        puts,
        key_space,
        value_len: sc.value_len,
        policy: pahoehoe::policy::Policy::paper_default(),
        seed: sc.seed,
        dist: KeyDistribution::Sequential,
        overwrite_delta_permille,
    }
}

/// Decodes every key's newest stored version from FS fragments and
/// asserts it equals the last writer's bytes from the workload stream —
/// the end-to-end correctness claim for delta resolution: whatever mix of
/// full and XOR-delta stripes travelled, the archive holds the blobs.
fn assert_last_writer_values(cluster: &Cluster, wl: &StreamingWorkload) {
    use pahoehoe::client::ClientOp;
    use std::collections::BTreeMap;

    let mut last_put: BTreeMap<pahoehoe::types::Key, u64> = BTreeMap::new();
    for i in 0..wl.puts {
        last_put.insert(wl.key_at(i), i);
    }
    let topo = cluster.topology().clone();
    let codec = erasure::Codec::new(4, 12).expect("paper-default policy");
    for (key, &i) in &last_put {
        let mut newest: Option<pahoehoe::types::ObjectVersion> = None;
        let mut frags: BTreeMap<u8, erasure::Fragment> = BTreeMap::new();
        for id in topo.all_fss() {
            let fs: &Fs = cluster.sim().actor(id);
            for ov in fs.known_versions().filter(|ov| ov.key == *key) {
                if newest.is_none_or(|n| ov.ts > n.ts) {
                    newest = Some(ov);
                    frags.clear();
                }
            }
        }
        let ov = newest.expect("every key was stored");
        for id in topo.all_fss() {
            let fs: &Fs = cluster.sim().actor(id);
            if let Some(entry) = fs.entry(ov) {
                for (&idx, frag) in &entry.fragments {
                    assert!(!frag.is_delta(), "stores hold dense resolved fragments");
                    frags.entry(idx).or_insert_with(|| frag.clone());
                }
            }
        }
        assert!(frags.len() >= 4, "newest {ov:?} is decodable");
        let subset: Vec<erasure::Fragment> = frags.into_values().take(4).collect();
        let decoded = codec.decode(&subset, wl.value_len).expect("decodes");
        let ClientOp::Put { value, .. } = wl.op_at(i) else {
            panic!("streams are puts")
        };
        assert_eq!(
            decoded, value,
            "key {key:?} must hold put {i}'s bytes (newest {ov:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delta coding changes the put-path *representation* — windowed XOR
    /// stripes against the proxy's cached base instead of full fragments
    /// — but never the archive's contents. On a clean network with an
    /// overwrite-correlated stream, the delta run and the full-encode run
    /// both succeed every put, classify every version identically, and
    /// every key converges to its last writer's exact bytes — including
    /// when converged-version compaction reclaims superseded delta bases
    /// underneath the chain.
    #[test]
    fn delta_mode_archives_last_writer_values(
        sc in scenario_strategy(),
        key_space in 1u64..5,
        extra_puts in 2u64..11,
        compact: bool,
        permille in 1u16..30,
    ) {
        let sc = Scenario {
            drop_pct: 0,
            dup_pct: 0,
            outages: Vec::new(),
            ..sc
        };
        let puts = key_space + extra_puts; // every run revisits a key
        let delta_mode = ProtocolMode {
            compact_converged: compact,
            ..ProtocolMode::delta()
        };
        // The baseline differs from the delta run in exactly one switch,
        // so every report delta is attributable to delta coding. (The
        // compaction flag must match: released residuals are invisible
        // to the report's durability census by design.)
        let full_mode = ProtocolMode {
            delta: false,
            ..delta_mode
        };
        let (delta, delta_outcome) =
            run_update_heavy(&sc, key_space, puts, delta_mode, permille);
        let (full, full_outcome) = run_update_heavy(&sc, key_space, puts, full_mode, permille);
        prop_assert_eq!(delta_outcome, RunOutcome::PredicateSatisfied);
        prop_assert_eq!(full_outcome, RunOutcome::PredicateSatisfied);

        // Non-vacuity: overwrites of cached stripes really took the
        // delta path.
        let metrics = delta.sim().metrics().clone();
        prop_assert!(metrics.event("deltas_encoded") > 0, "{metrics:?}");
        prop_assert_eq!(metrics.event("delta_unresolvable"), 0);
        prop_assert_eq!(
            metrics.event("deltas_resolved") > 0,
            metrics.event("deltas_encoded") > 0
        );

        // Semantic equivalence: identical put ledger and AMR census.
        // (Raw digests legitimately differ — delta puts skip the
        // location-decision round, so the message flow changes.)
        let dr = delta.report(delta_outcome);
        let fr = full.report(full_outcome);
        prop_assert_eq!(dr.puts_attempted, fr.puts_attempted);
        prop_assert_eq!(dr.puts_succeeded, fr.puts_succeeded);
        prop_assert_eq!(dr.puts_succeeded, puts);
        prop_assert_eq!(dr.amr_versions, fr.amr_versions);
        prop_assert_eq!(dr.excess_amr, fr.excess_amr);
        prop_assert_eq!(dr.non_durable, fr.non_durable);
        prop_assert_eq!(dr.durable_not_amr, fr.durable_not_amr);
        if !compact {
            // Without compaction every version stays fully inspectable:
            // all must be durable and settled AMR.
            prop_assert_eq!(dr.non_durable, 0);
            prop_assert_eq!(dr.durable_not_amr, 0);
            prop_assert_eq!(dr.amr_versions as u64, puts);
        }

        let wl = update_heavy_workload(&sc, key_space, puts, permille);
        assert_last_writer_values(&delta, &wl);
        assert_last_writer_values(&full, &wl);
    }
}

/// A scripted delta chain long enough to cross the chain-depth bound
/// *and* run over an actively compacting store: twelve puts to one hot
/// key under `delta + compact_converged`. Superseded bases must compact
/// (the store stays bounded) while every resolved stripe still decodes
/// to the last writer's bytes.
#[test]
fn delta_chains_survive_base_compaction() {
    let sc = Scenario {
        seed: 7,
        value_len: 4096,
        drop_pct: 0,
        dup_pct: 0,
        naive: false,
        outages: Vec::new(),
    };
    let mode = ProtocolMode {
        compact_converged: true,
        ..ProtocolMode::delta()
    };
    let (cluster, outcome) = run_update_heavy(&sc, 1, 12, mode, 10);
    assert_eq!(outcome, RunOutcome::PredicateSatisfied);

    let compacted: usize = cluster
        .topology()
        .clone()
        .all_fss()
        .map(|id| cluster.sim().actor::<Fs>(id).compacted_count())
        .sum();
    assert!(compacted > 0, "superseded delta bases compacted");

    let metrics = cluster.sim().metrics().clone();
    // Twelve puts to one key: the first is a full encode and every
    // chain-depth re-anchor falls back, but most overwrites are deltas.
    assert!(metrics.event("deltas_encoded") >= 6, "{metrics:?}");
    assert_eq!(metrics.event("delta_unresolvable"), 0, "{metrics:?}");

    let report = cluster.report(outcome);
    assert_eq!(report.puts_succeeded, 12);

    let wl = update_heavy_workload(&sc, 1, 12, 10);
    assert_last_writer_values(&cluster, &wl);
}

/// The delta codec's headline number (DESIGN.md §8.8): on a hot overwrite
/// stream — 16 keys cycled sequentially, 4 KiB values, ~1 % of bytes
/// rewritten per overwrite, so every stripe stays inside the proxy's
/// 32-entry cache and only the chain-depth re-anchors ship full stripes —
/// delta coding cuts the put path's fragment payload at least threefold
/// while the pair converges to the same put and AMR ledger. Every quantity
/// is a deterministic count: 3.33x here, and 3.49x for the same stream at
/// 4 096 puts in `results/history/BENCH_delta.json`.
#[test]
fn delta_cuts_hot_pair_payload_threefold() {
    let sc = Scenario {
        seed: 42,
        value_len: 4096,
        drop_pct: 0,
        dup_pct: 0,
        naive: false,
        outages: Vec::new(),
    };
    let puts = 512u64;
    let run = |mode: ProtocolMode| {
        let (cluster, outcome) = run_update_heavy(&sc, 16, puts, mode, 10);
        assert_eq!(outcome, RunOutcome::PredicateSatisfied);
        let report = cluster.report(outcome);
        let metrics = cluster.sim().metrics().clone();
        (report, metrics)
    };
    let (on, on_metrics) = run(ProtocolMode::delta());
    let (off, off_metrics) = run(ProtocolMode::default());

    assert_eq!(on.puts_succeeded, off.puts_succeeded);
    assert_eq!(off.puts_succeeded, puts);
    assert_eq!(on.amr_versions, off.amr_versions);
    assert_eq!(on.non_durable, off.non_durable);
    assert_eq!(on_metrics.event("delta_unresolvable"), 0);

    let policy = pahoehoe::policy::Policy::paper_default();
    let full_stripe = u64::from(policy.n) * sc.value_len as u64 / u64::from(policy.k);
    let off_payload = off_metrics.event("full_frag_bytes");
    assert_eq!(
        off_payload,
        puts * full_stripe,
        "every put ships one full stripe"
    );
    assert_eq!(off_metrics.event("delta_frag_bytes"), 0);
    let on_payload = on_metrics.event("delta_frag_bytes") + on_metrics.event("full_frag_bytes");
    let ratio = off_payload as f64 / on_payload as f64;
    assert!(
        ratio >= 3.0,
        "expected >= 3x put-path payload reduction, got {ratio:.2}x \
         ({off_payload} B full-stripe vs {on_payload} B with delta coding)"
    );
}
