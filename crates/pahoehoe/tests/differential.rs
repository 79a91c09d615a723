//! Differential tests: the [`ProtocolMode`] behaviour switch, batched
//! rounds, against the default protocol. Batching must change how many
//! messages convergence sends, never where it ends up. (Converged-version
//! compaction runs in both: it is not a mode. The version store is checked
//! against an in-test model in `fs/tests/store.rs`, without a cluster.)

use erasure::FragmentIndex;
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
) -> (Cluster, RunOutcome) {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = layout;
    cfg.protocol = mode;
    cfg.streaming_workload = Some(StreamingWorkload {
        puts,
        key_space,
        value_len: sc.value_len,
        policy: cfg.policy,
        seed: sc.seed,
        dist: KeyDistribution::Sequential,
        overwrite_delta_permille: 0,
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

// ---------------------------------------------------------------------------
// Batched rounds: fewer messages, the same archive
// ---------------------------------------------------------------------------

/// The fragment indices `fs` holds of `ov`, or `None` once `fs` compacted
/// it and freed them.
fn held(fs: &Fs, ov: ObjectVersion) -> Option<Vec<FragmentIndex>> {
    match fs.entry(ov) {
        Some(entry) => Some(entry.fragments.keys().copied().collect()),
        None => {
            assert!(fs.compacted_residual(ov).is_some(), "{ov:?} is unknown");
            None
        }
    }
}

/// What a converged cluster must look like whatever its messages were:
/// every put the client saw succeed is at maximum redundancy — complete
/// metadata at every KLS, and every sibling FS settled AMR holding exactly
/// its assigned fragments (unless a newer version compacted it) — no FS
/// gave a version up, and no FS still has work for a durable version.
/// Returns, per FS, the state and held fragment indices (or that it was
/// compacted) of each durable version it knows: what two runs that stored
/// the same versions must agree on. (Non-durable leftovers of failed
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
            if let Some(held) = held(fs, ov) {
                assert_eq!(
                    held,
                    meta.fragments_of(id),
                    "FS {id:?} stores its share of {ov:?}"
                );
            }
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
                let held = match held(fs, ov) {
                    Some(held) => format!("held={held:?}"),
                    None => "compacted".to_string(),
                };
                let state = format!("amr={} {held}", amr.contains(&ov));
                (ov, state)
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
        let batching = ProtocolMode { batch_rounds: true };
        let (single, single_outcome) =
            run_update_heavy(&sc, key_space, puts, ProtocolMode::default());
        let (batched, batched_outcome) = run_update_heavy(&sc, key_space, puts, batching);
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
