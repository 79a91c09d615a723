//! Cross-crate integration tests: the erasure codec, the discrete-event
//! simulator and the Pahoehoe protocols working together.

use pahoehoe_repro::pahoehoe::client::Client;
use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe_repro::pahoehoe::convergence::ConvergenceOptions;
use pahoehoe_repro::pahoehoe::workload::StreamingWorkload;
use pahoehoe_repro::pahoehoe::Policy;
use pahoehoe_repro::simnet::{FaultPlan, RunOutcome, SimDuration, SimTime};

fn small(puts: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(puts, 1, 8 * 1024, cfg.policy));
    cfg
}

#[test]
fn values_survive_the_full_pipeline_bit_exactly() {
    // Values are encoded by the proxy, scattered as fragments, and
    // reassembled by a get: check byte-exactness across many sizes,
    // including sizes not divisible by k and the empty value.
    let mut cluster = Cluster::build(ClusterConfig::paper_default(), 31);
    let sizes = [0usize, 1, 3, 4, 5, 1023, 4096, 9999, 100 * 1024];
    for (i, &size) in sizes.iter().enumerate() {
        let value = Client::synthetic_value(i as u64, size).to_vec();
        cluster.put(format!("obj-{size}").as_bytes(), value);
    }
    let report = cluster.run_to_convergence();
    assert_eq!(report.amr_versions, sizes.len());
    for (i, &size) in sizes.iter().enumerate() {
        let expect = Client::synthetic_value(i as u64, size).to_vec();
        assert_eq!(
            cluster.get(format!("obj-{size}").as_bytes()),
            Some(expect),
            "size {size}"
        );
    }
}

#[test]
fn all_optimization_configs_reach_the_same_amr_state() {
    // Optimizations change costs, never outcomes: every configuration
    // converges the same workload to the same number of AMR versions.
    let configs = [
        ConvergenceOptions::naive(),
        ConvergenceOptions::fs_amr_synchronized(),
        ConvergenceOptions::fs_amr_unsynchronized(),
        ConvergenceOptions::put_amr(),
        ConvergenceOptions::sibling(),
        ConvergenceOptions::all(),
    ];
    for conv in configs {
        let mut cfg = small(8);
        cfg.convergence = conv.clone();
        let mut cluster = Cluster::build(cfg, 5);
        let report = cluster.run_to_convergence();
        assert_eq!(report.outcome, RunOutcome::PredicateSatisfied, "{conv:?}");
        assert_eq!(report.amr_versions, 8, "{conv:?}");
        assert_eq!(report.durable_not_amr, 0, "{conv:?}");
        assert_eq!(report.non_durable, 0, "{conv:?}");
    }
}

#[test]
fn optimization_cost_ordering_matches_the_paper() {
    // Fig. 5's ordering must hold for message counts on any seed.
    let count = |conv: ConvergenceOptions, seed| {
        let mut cfg = small(10);
        cfg.convergence = conv;
        let mut cluster = Cluster::build(cfg, seed);
        let r = cluster.run_to_convergence();
        // Exclude client traffic like the experiments do.
        r.metrics.total_count()
            - r.metrics.kind("ClientPutReq").count
            - r.metrics.kind("ClientPutRep").count
    };
    for seed in [1, 77] {
        let naive = count(ConvergenceOptions::naive(), seed);
        let fsamr_s = count(ConvergenceOptions::fs_amr_synchronized(), seed);
        let fsamr_u = count(ConvergenceOptions::fs_amr_unsynchronized(), seed);
        let all = count(ConvergenceOptions::all(), seed);
        assert!(fsamr_s > naive, "seed {seed}: {fsamr_s} vs {naive}");
        assert!(fsamr_u < naive, "seed {seed}: {fsamr_u} vs {naive}");
        assert!(all < fsamr_u, "seed {seed}: {all} vs {fsamr_u}");
    }
}

#[test]
fn sibling_recovery_cuts_recovery_bytes() {
    // Fig. 7's headline: with sibling fragment recovery, rebuilding after
    // an outage retrieves k fragments once instead of once per FS.
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let retrieve_bytes = |sibling: bool, seed| {
        let mut conv = ConvergenceOptions::all();
        conv.sibling_recovery = sibling;
        let mut cfg = small(6);
        cfg.convergence = conv;
        let mut faults = FaultPlan::none();
        faults.add_node_outage(layout.fs(0, 0), SimTime::ZERO, SimDuration::from_mins(10));
        faults.add_node_outage(layout.fs(1, 0), SimTime::ZERO, SimDuration::from_mins(10));
        let mut cluster = Cluster::build_with_faults(cfg, seed, faults);
        let r = cluster.run_to_convergence();
        assert_eq!(r.durable_not_amr, 0);
        r.metrics.kind("RetrieveFragRep").bytes
    };
    let with = retrieve_bytes(true, 3);
    let without = retrieve_bytes(false, 3);
    assert!(
        with * 2 < without,
        "sibling recovery should at least halve retrieval bytes: {with} vs {without}"
    );
}

#[test]
fn kls_partition_is_repaired_with_fs_decide_locs() {
    // Fig. 8's 2P case: both KLSs of the remote DC unreachable during the
    // puts, so no locations exist for that DC until convergence repairs
    // the metadata through FsDecideLocs + LocsIndication.
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut faults = FaultPlan::none();
    for i in 0..2 {
        faults.add_node_outage(layout.kls(1, i), SimTime::ZERO, SimDuration::from_mins(10));
    }
    let mut cluster = Cluster::build_with_faults(small(5), 9, faults);
    let report = cluster.run_to_convergence();
    assert_eq!(report.amr_versions, 5);
    assert!(report.metrics.kind("FSDecideLocsReq").count > 0);
    assert!(report.metrics.kind("LocsIndication").count > 0);
    assert!(
        report.metrics.kind("SiblingStoreReq").count > 0,
        "remote-DC fragments regenerated via sibling recovery"
    );
}

#[test]
fn replication_is_the_k1_special_case() {
    // §6: Pahoehoe "supports both erasure codes and replication" —
    // replication is the (k = 1, n) code.
    let mut cfg = ClusterConfig::paper_default();
    cfg.policy = Policy::new(1, 4, 2, 2);
    let mut cluster = Cluster::build(cfg, 13);
    cluster.put(b"replicated", vec![0x42; 2000]);
    let report = cluster.run_to_convergence();
    assert_eq!(report.amr_versions, 1);
    assert_eq!(cluster.get(b"replicated"), Some(vec![0x42; 2000]));
}

#[test]
fn give_up_age_stops_hopeless_convergence() {
    // §3.5: versions that can never achieve AMR (fewer than k durable
    // fragments) are retried with exponential backoff and abandoned after
    // the give-up age ("in practice, we set this parameter to two
    // months"; shortened here). We blank out five of six FSs for the
    // first minute so the early put attempts fail with only two durable
    // fragments — non-durable versions that convergence can never fix.
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let give_up = SimDuration::from_mins(10);
    let mut conv = ConvergenceOptions::all();
    conv.give_up_age = Some(give_up);
    let mut cfg = small(1);
    cfg.convergence = conv;
    let mut faults = FaultPlan::none();
    for (dc, i) in [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)] {
        faults.add_node_outage(layout.fs(dc, i), SimTime::ZERO, SimDuration::from_secs(60));
    }
    let mut cluster = Cluster::build_with_faults(cfg, 21, faults);
    let report = cluster.run_to_convergence();
    // The eventual attempt succeeded; the early ones left non-durable
    // versions behind.
    assert_eq!(report.puts_succeeded, 1);
    assert!(report.puts_attempted > 1, "outage forced retries");
    assert!(report.non_durable >= 1);
    assert_eq!(report.durable_not_amr, 0);

    // Let the give-up age elapse: every FS abandons the hopeless
    // versions instead of gossiping forever.
    let deadline = cluster.sim().now() + give_up + SimDuration::from_mins(15);
    cluster.sim_mut().run_until_time(deadline);
    let mut gave_up_total = 0;
    for dc in 0..2 {
        for i in 0..3 {
            let fs = cluster.fs(layout.fs(dc, i));
            assert_eq!(
                fs.pending_versions().count(),
                0,
                "fs({dc},{i}) still has pending work"
            );
            gave_up_total += fs.gave_up_versions().count();
        }
    }
    assert!(
        gave_up_total >= 1,
        "someone abandoned the hopeless versions"
    );
}

#[test]
fn three_data_centers_converge_too() {
    // The protocols generalize beyond the paper's 2-DC setup: a 3-DC
    // cluster with an (k=4, n=18) policy (6 fragments per DC).
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = ClusterLayout {
        dcs: 3,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    cfg.policy = Policy::new(4, 18, 3, 2);
    cfg.streaming_workload = Some(StreamingWorkload::numbered(5, 1, 8 * 1024, cfg.policy));
    let mut cluster = Cluster::build(cfg, 23);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.amr_versions, 5);
    // 18 fragments stored per put.
    assert_eq!(report.metrics.kind("StoreFragmentReq").count, 5 * 18);
    // And with an entire DC partitioned away, values still decode.
    let layout = cluster.layout();
    let mut faults = FaultPlan::none();
    let others: Vec<_> = layout
        .dc_nodes(0)
        .into_iter()
        .chain(layout.dc_nodes(1))
        .chain([layout.proxy(), layout.client()])
        .collect();
    faults.add_partition(
        &others,
        &layout.dc_nodes(2),
        SimTime::ZERO,
        SimDuration::from_mins(10),
    );
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = layout;
    cfg.policy = Policy::new(4, 18, 3, 2);
    let mut cluster = Cluster::build_with_faults(cfg, 24, faults);
    cluster.put(b"global", vec![5; 4096]);
    cluster
        .sim_mut()
        .run_until_time(SimTime::ZERO + SimDuration::from_secs(30));
    assert_eq!(cluster.get(b"global"), Some(vec![5; 4096]));
}

#[test]
fn lan_wan_latency_classes_speed_up_local_work() {
    // Opt-in LAN/WAN latency refinement: intra-DC at 1-3 ms instead of
    // the paper's uniform 10-30 ms. In a single-DC deployment every link
    // is LAN, so full redundancy lands an order of magnitude sooner;
    // outcomes are unchanged.
    let finish_time = |lan: bool| {
        let mut cfg = ClusterConfig::paper_default();
        cfg.layout = ClusterLayout {
            dcs: 1,
            kls_per_dc: 2,
            fs_per_dc: 6,
        };
        cfg.policy = Policy::new(4, 12, 1, 2);
        cfg.streaming_workload = Some(StreamingWorkload::numbered(5, 1, 8 * 1024, cfg.policy));
        if lan {
            cfg.network = cfg.layout.lan_wan_network(
                cfg.network.clone(),
                SimDuration::from_millis(1),
                SimDuration::from_millis(3),
            );
        }
        let mut cluster = Cluster::build(cfg, 29);
        let report = cluster.run_to_convergence();
        assert_eq!(report.amr_versions, 5);
        *report.time_to_amr.last().expect("versions exist")
    };
    let with_lan = finish_time(true);
    let uniform = finish_time(false);
    assert!(
        with_lan.as_micros() * 3 < uniform.as_micros(),
        "all-LAN deployment converges much faster: {with_lan} vs {uniform}"
    );
}

#[test]
fn proxy_failure_mid_put_yields_excess_amr() {
    // §5's setup notes that message drops also model "a proxy failing
    // after completing only some portion of a put operation". Here the
    // proxy loses every server link right after its fragment stores go
    // out: the version becomes durable (the stores were sent) but the
    // acknowledgments never return, so the client is told failure and
    // retries. Convergence finishes the orphaned version anyway — the
    // paper's "excess AMR" outcome.
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut faults = FaultPlan::none();
    // One-way modeling isn't supported; an outage window starting ~70 ms
    // in (after the decide+store sends at ~20-50 ms, before the replies
    // arrive) cuts the proxy off for 2 minutes.
    faults.add_node_outage(
        layout.proxy(),
        SimTime::ZERO + SimDuration::from_micros(71_000),
        SimDuration::from_secs(120),
    );
    let mut cluster = Cluster::build_with_faults(small(1), 19, faults);
    let report = cluster.run_to_convergence();
    assert_eq!(report.puts_succeeded, 1, "the retry eventually lands");
    assert!(report.puts_attempted >= 2, "first attempt was orphaned");
    assert!(
        report.excess_amr >= 1,
        "the orphaned-but-durable version converged: {report:?}"
    );
    assert_eq!(report.durable_not_amr, 0);
}

#[test]
fn multiple_failures_compose() {
    // An FS outage + a KLS outage + 5% loss, all at once.
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut faults = FaultPlan::none();
    faults.add_node_outage(layout.fs(1, 2), SimTime::ZERO, SimDuration::from_mins(10));
    faults.add_node_outage(layout.kls(0, 1), SimTime::ZERO, SimDuration::from_mins(10));
    let mut cfg = small(6);
    cfg.network = pahoehoe_repro::simnet::NetworkConfig::with_drop_rate(0.05);
    let mut cluster = Cluster::build_with_faults(cfg, 17, faults);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_succeeded, 6);
    assert_eq!(report.durable_not_amr, 0);
}
