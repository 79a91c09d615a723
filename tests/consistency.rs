//! Consistency-semantics tests: Pahoehoe's eventual consistency with
//! regular semantics that permits aborts (§3.6).
//!
//! The contract under test:
//!
//! * **Regular semantics with aborts** — a get returns a *recent* version
//!   (any durable version newer than the latest AMR version at get
//!   start), or the *latest AMR* version, or aborts. It never returns a
//!   version older than the latest AMR version.
//! * **Eventual consistency** — once puts stop, every durable version
//!   reaches AMR, after which gets deterministically return the newest.
//! * **AMR stability** — once a version is AMR it stays AMR forever
//!   (nothing ever deletes metadata or fragments).

use pahoehoe_repro::pahoehoe::analysis;
use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe_repro::pahoehoe::workload::StreamingWorkload;
use pahoehoe_repro::simnet::{FaultPlan, NetworkConfig, SimDuration, SimTime};

#[test]
fn get_returns_latest_amr_version_after_each_overwrite() {
    let mut cluster = Cluster::build(ClusterConfig::paper_default(), 1);
    for generation in 0..5u8 {
        cluster.put(b"doc", vec![generation; 1024]);
        let report = cluster.run_to_convergence();
        assert_eq!(report.durable_not_amr, 0);
        assert_eq!(
            cluster.get(b"doc"),
            Some(vec![generation; 1024]),
            "generation {generation}"
        );
    }
}

#[test]
fn get_never_returns_older_than_latest_amr() {
    // Write v0 and let it become AMR. Then write v1 during a WAN
    // partition (v1 is durable on DC0 only, not AMR). A get must return
    // v1 (a recent version) or abort — never v0.
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let partition_start = SimTime::ZERO + SimDuration::from_mins(2);
    let mut side_a = layout.dc_nodes(0);
    side_a.push(layout.proxy());
    side_a.push(layout.client());
    let mut faults = FaultPlan::none();
    faults.add_partition(
        &side_a,
        &layout.dc_nodes(1),
        partition_start,
        SimDuration::from_mins(30),
    );

    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = layout;
    let mut cluster = Cluster::build_with_faults(cfg, 3, faults);

    cluster.put(b"doc", b"v0-old".to_vec());
    let r = cluster.run_to_convergence();
    assert_eq!(r.amr_versions, 1, "v0 is the latest AMR version");

    // Enter the partition and overwrite.
    cluster
        .sim_mut()
        .run_until_time(partition_start + SimDuration::from_secs(10));
    cluster.put(b"doc", b"v1-new".to_vec());
    cluster
        .sim_mut()
        .run_until_time(partition_start + SimDuration::from_mins(1));

    // Several reads during the partition: each must be v1 or an abort.
    for i in 0..3 {
        if let Some(v) = cluster.get(b"doc") {
            assert_eq!(v, b"v1-new".to_vec(), "read {i} regressed to v0");
        } // an abort (None) is allowed by the semantics
    }
}

#[test]
fn amr_is_stable_across_later_failures() {
    // Once AMR, a version stays AMR: a later outage makes servers
    // unreachable but never un-stores anything (crash-recovery model with
    // stable storage, §3.1).
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let outage_start = SimTime::ZERO + SimDuration::from_mins(5);
    let mut faults = FaultPlan::none();
    faults.add_node_outage(layout.fs(0, 0), outage_start, SimDuration::from_mins(10));
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(5, 1, 4096, cfg.policy));
    let mut cluster = Cluster::build_with_faults(cfg, 11, faults);
    let before = cluster.run_to_convergence();
    assert_eq!(before.amr_versions, 5);

    // Jump beyond the outage; nothing should have changed.
    cluster
        .sim_mut()
        .run_until_time(outage_start + SimDuration::from_mins(20));
    let after = cluster.report(pahoehoe_repro::simnet::RunOutcome::Quiescent);
    assert_eq!(after.amr_versions, 5, "AMR is a stable property");
    assert_eq!(after.durable_not_amr, 0);
}

#[test]
fn eventual_consistency_under_randomized_fault_schedules() {
    // A randomized stress: for a batch of seeds, build an arbitrary (but
    // seed-derived) schedule of node outages, partitions and loss, run a
    // small workload, and check the eventual-consistency postcondition:
    // every durable version is AMR at quiescence and the system state is
    // globally consistent.
    for seed in 0..12u64 {
        let layout = ClusterLayout {
            dcs: 2,
            kls_per_dc: 2,
            fs_per_dc: 3,
        };
        let mut faults = FaultPlan::none();
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |m: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m
        };
        // 0–3 random node outages among KLSs and FSs.
        for _ in 0..next(4) {
            let node = match next(2) {
                0 => layout.kls(next(2) as usize, next(2) as usize),
                _ => layout.fs(next(2) as usize, next(3) as usize),
            };
            let start = SimTime::ZERO + SimDuration::from_secs(next(120));
            let dur = SimDuration::from_secs(60 + next(540));
            faults.add_node_outage(node, start, dur);
        }
        // Possibly a WAN partition.
        if next(2) == 0 {
            let mut side_a = layout.dc_nodes(0);
            side_a.push(layout.proxy());
            side_a.push(layout.client());
            faults.add_partition(
                &side_a,
                &layout.dc_nodes(1),
                SimTime::ZERO + SimDuration::from_secs(next(60)),
                SimDuration::from_secs(120 + next(600)),
            );
        }
        let mut cfg = ClusterConfig::paper_default();
        cfg.streaming_workload = Some(StreamingWorkload::numbered(5, 1, 4096, cfg.policy));
        cfg.network = NetworkConfig::with_drop_rate(next(8) as f64 / 100.0);
        let mut cluster = Cluster::build_with_faults(cfg, seed, faults);
        let report = cluster.run_to_convergence();
        assert_eq!(
            report.durable_not_amr, 0,
            "seed {seed}: durable version stuck non-AMR"
        );
        assert_eq!(report.puts_succeeded, 5, "seed {seed}");

        // Double-check the global AMR predicate directly.
        let topo = cluster.topology().clone();
        let klss: Vec<_> = topo.all_klss().collect();
        let fss: Vec<_> = topo.all_fss().collect();
        let durable = analysis::durable_versions(cluster.sim(), &fss);
        for ov in analysis::known_versions(cluster.sim(), &klss, &fss) {
            if durable.contains(&ov) {
                assert!(
                    analysis::is_amr(cluster.sim(), &topo, ov),
                    "seed {seed}: durable {ov:?} not AMR"
                );
            }
        }
    }
}

#[test]
fn concurrent_history_reads_are_monotonic_after_convergence() {
    // Writes w0 < w1 < w2 to the same key with convergence between them:
    // reads after each convergence never go backwards.
    let mut cluster = Cluster::build(ClusterConfig::paper_default(), 8);
    let mut last_seen: Option<u8> = None;
    for gen in [10u8, 20, 30] {
        cluster.put(b"mono", vec![gen; 512]);
        cluster.run_to_convergence();
        let got = cluster.get(b"mono").expect("converged value readable");
        let g = got[0];
        if let Some(prev) = last_seen {
            assert!(g >= prev, "read regressed: {g} < {prev}");
        }
        assert_eq!(g, gen);
        last_seen = Some(g);
    }
}
