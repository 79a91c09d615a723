//! Property-based tests over whole-cluster behaviour: proptest generates
//! fault schedules, workloads and policies; the properties are the
//! paper's correctness claims.

use bytes::Bytes;
use pahoehoe_repro::pahoehoe::analysis;
use pahoehoe_repro::pahoehoe::client::{Client, ClientOp};
use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe_repro::pahoehoe::types::Key;
use pahoehoe_repro::pahoehoe::workload::StreamingWorkload;
use pahoehoe_repro::pahoehoe::Policy;
use pahoehoe_repro::simnet::{FaultPlan, NetworkConfig, RunOutcome, SimDuration, SimTime};
use proptest::prelude::*;

fn layout() -> ClusterLayout {
    ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    }
}

/// A generated outage: which server, when, and for how long.
#[derive(Debug, Clone)]
struct Outage {
    kls: bool,
    dc: usize,
    idx: usize,
    start_secs: u64,
    dur_secs: u64,
}

fn outage_strategy() -> impl Strategy<Value = Outage> {
    (
        any::<bool>(),
        0usize..2,
        0usize..2, // for FSs this picks among the first two of three
        0u64..180,
        30u64..600,
    )
        .prop_map(|(kls, dc, idx, start_secs, dur_secs)| Outage {
            kls,
            dc,
            idx,
            start_secs,
            dur_secs,
        })
}

fn plan_from(outages: &[Outage]) -> FaultPlan {
    let l = layout();
    let mut plan = FaultPlan::none();
    for o in outages {
        let node = if o.kls {
            l.kls(o.dc, o.idx)
        } else {
            l.fs(o.dc, o.idx)
        };
        plan.add_node_outage(
            node,
            SimTime::ZERO + SimDuration::from_secs(o.start_secs),
            SimDuration::from_secs(o.dur_secs),
        );
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, // each case is a full cluster simulation
        .. ProptestConfig::default()
    })]

    /// Eventual consistency: under arbitrary finite outage schedules and
    /// moderate loss, every durable version reaches AMR and every put
    /// eventually succeeds.
    #[test]
    fn converges_under_arbitrary_outage_schedules(
        outages in proptest::collection::vec(outage_strategy(), 0..4),
        drop_pct in 0u32..8,
        seed in 0u64..1_000,
    ) {
        let mut cfg = ClusterConfig::paper_default();
        cfg.streaming_workload = Some(StreamingWorkload::numbered(4, 1, 4096, cfg.policy));
        cfg.network = NetworkConfig::with_drop_rate(drop_pct as f64 / 100.0);
        let mut cluster =
            Cluster::build_with_faults(cfg, seed, plan_from(&outages));
        let report = cluster.run_to_convergence();
        prop_assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
        prop_assert_eq!(report.puts_succeeded, 4);
        prop_assert_eq!(report.durable_not_amr, 0);

        // Check the AMR predicate globally, not just through the report.
        let topo = cluster.topology().clone();
        let fss: Vec<_> = topo.all_fss().collect();
        let klss: Vec<_> = topo.all_klss().collect();
        let durable = analysis::durable_versions(cluster.sim(), &fss);
        for ov in analysis::known_versions(cluster.sim(), &klss, &fss) {
            if durable.contains(&ov) {
                prop_assert!(analysis::is_amr(cluster.sim(), &topo, ov));
            }
        }
    }

    /// Round-trip integrity: whatever the value and (valid) policy,
    /// get(put(v)) == v after convergence.
    #[test]
    fn put_get_roundtrip_for_any_value_and_policy(
        value in proptest::collection::vec(any::<u8>(), 0..20_000),
        k in 1u8..=4,
        extra in 0u8..=4,
        seed in 0u64..1_000,
    ) {
        // n spread over 2 DCs with <=2 per FS and k fitting in one DC.
        let per_dc = (k + extra).min(6).max(k);
        let n = per_dc * 2;
        let policy = Policy::new(k, n, 2, 2);
        let mut cfg = ClusterConfig::paper_default();
        cfg.policy = policy;
        let mut cluster = Cluster::build(cfg, seed);
        cluster.put(b"prop", value.clone());
        let report = cluster.run_to_convergence();
        prop_assert_eq!(report.amr_versions, 1);
        prop_assert_eq!(cluster.get(b"prop"), Some(value));
    }

    /// Determinism: a run is a pure function of its seed, whatever the
    /// fault schedule.
    #[test]
    fn runs_are_deterministic_under_faults(
        outages in proptest::collection::vec(outage_strategy(), 0..3),
        seed in 0u64..1_000,
    ) {
        let run = || {
            let mut cfg = ClusterConfig::paper_default();
            cfg.streaming_workload = Some(StreamingWorkload::numbered(3, 1, 2048, cfg.policy));
            let mut cluster =
                Cluster::build_with_faults(cfg, seed, plan_from(&outages));
            let r = cluster.run_to_convergence();
            (r.sim_time, r.metrics.total_count(), r.metrics.total_bytes())
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The client's scripted interface preserves per-key last-writer
    /// semantics: after converged sequential overwrites, the get returns
    /// the newest value for every key.
    #[test]
    fn last_writer_wins_per_key(
        writes in proptest::collection::vec((0u8..4, any::<u8>()), 1..12),
        seed in 0u64..1_000,
    ) {
        let mut cfg = ClusterConfig::paper_default();
        let l = layout();
        let mut cluster = Cluster::build(cfg.clone(), seed);
        let _ = &mut cfg;
        let mut expected: std::collections::BTreeMap<u8, u8> =
            std::collections::BTreeMap::new();
        {
            let client_id = l.client();
            let sim = cluster.sim_mut();
            let client = sim.actor_mut::<Client>(client_id);
            for &(key_id, byte) in &writes {
                expected.insert(key_id, byte);
                client.enqueue(ClientOp::Put {
                    key: Key::from_u64(u64::from(key_id)),
                    value: Bytes::from(vec![byte; 512]),
                    policy: Policy::paper_default(),
                });
            }
            sim.schedule_timer(client_id, SimDuration::ZERO, 1);
        }
        let report = cluster.run_to_convergence();
        prop_assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
        for (key_id, byte) in expected {
            let client_id = l.client();
            let sim = cluster.sim_mut();
            let client = sim.actor_mut::<Client>(client_id);
            let before = client.gets_done().len();
            client.enqueue(ClientOp::Get { key: Key::from_u64(u64::from(key_id)) });
            sim.schedule_timer(client_id, SimDuration::ZERO, 1);
            sim.run_until(move |s| {
                s.actor::<Client>(client_id).gets_done().len() > before
            });
            let outcome = &cluster.client().gets_done()[before];
            let (_, v) = outcome.result.as_ref().expect("converged key readable");
            prop_assert_eq!(v[0], byte, "key {}", key_id);
        }
    }
}
