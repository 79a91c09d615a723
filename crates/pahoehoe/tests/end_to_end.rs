//! End-to-end protocol tests for a full simulated Pahoehoe cluster.

use std::collections::BTreeSet;

use pahoehoe::analysis;
use pahoehoe::client::Client;
use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::convergence::ConvergenceOptions;
use pahoehoe::fs::Fs;
use pahoehoe::kls::Kls;
use pahoehoe::protocol::ProtocolMode;
use pahoehoe::types::{Key, ObjectVersion};
use pahoehoe::workload::StreamingWorkload;
use simnet::{FaultPlan, NetworkConfig, NodeId, RunOutcome, SimDuration, SimTime};

/// `cfg` with the paper's script over `keys` keys of 8 KiB, `rounds` times.
fn small_workload(mut cfg: ClusterConfig, keys: u64, rounds: u64) -> ClusterConfig {
    cfg.streaming_workload = Some(StreamingWorkload::numbered(
        keys,
        rounds,
        8 * 1024,
        cfg.policy,
    ));
    cfg
}

#[test]
fn failure_free_with_all_optimizations_needs_no_convergence() {
    let cfg = small_workload(ClusterConfig::paper_default(), 10, 1);
    let mut cluster = Cluster::build(cfg, 1);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_attempted, 10);
    assert_eq!(report.puts_succeeded, 10);
    assert_eq!(report.amr_versions, 10);
    assert_eq!(report.excess_amr, 0);
    assert_eq!(report.non_durable, 0);
    assert_eq!(report.durable_not_amr, 0);
    // Put-AMR indications suppress all convergence traffic.
    let m = &report.metrics;
    assert_eq!(m.kind("KLSConvergeReq").count, 0);
    assert_eq!(m.kind("FSConvergeReq").count, 0);
    assert_eq!(m.kind("RetrieveFragReq").count, 0);
    // One AMR indication per sibling FS per put.
    assert_eq!(m.kind("AMRIndication").count, 10 * 6);
    // 12 fragments per put, each stored exactly once.
    assert_eq!(m.kind("StoreFragmentReq").count, 10 * 12);
}

#[test]
fn failure_free_naive_converges_with_probes() {
    let mut cfg = small_workload(ClusterConfig::paper_default(), 10, 1);
    cfg.convergence = ConvergenceOptions::naive();
    let mut cluster = Cluster::build(cfg, 2);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.amr_versions, 10);
    let m = &report.metrics;
    // Naive convergence probes every KLS and sibling FS.
    assert!(m.kind("KLSConvergeReq").count > 0);
    assert!(m.kind("FSConvergeReq").count > 0);
    assert_eq!(m.kind("AMRIndication").count, 0, "no indications in naive");
    // No fragment was ever re-transferred: convergence only verified.
    assert_eq!(m.kind("RetrieveFragReq").count, 0);
    assert_eq!(m.kind("SiblingStoreReq").count, 0);
}

#[test]
fn fs_outage_is_repaired_by_convergence() {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut faults = FaultPlan::none();
    // One FS in DC0 is unreachable for 10 minutes from the start.
    faults.add_node_outage(layout.fs(0, 0), SimTime::ZERO, SimDuration::from_mins(10));
    let cfg = small_workload(ClusterConfig::paper_default(), 5, 1);
    let mut cluster = Cluster::build_with_faults(cfg, 3, faults);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_succeeded, 5, "puts succeed despite the outage");
    assert_eq!(report.amr_versions, 5, "convergence repaired the outage");
    assert_eq!(report.durable_not_amr, 0);
    // Repair required fragment recovery traffic.
    assert!(report.metrics.kind("RetrieveFragReq").count > 0);
    // Convergence finished within minutes of the outage healing.
    assert!(report.sim_time >= SimTime::ZERO + SimDuration::from_mins(10));
    assert!(report.sim_time <= SimTime::ZERO + SimDuration::from_mins(60));
}

#[test]
fn returned_fs_does_not_wait_min_age_again() {
    // fs(0,0) is unreachable from 10 s to 410 s; 20 puts start at 10 s.
    // Its siblings wait out `min_age`, probe it in vain, and reach it once
    // it is back: it adopts versions that are then ≈ 400 s old. Timing the
    // gate from that adoption (≥ 410 s) put its first step at ≥ 710 s for
    // any seed; by the versions' own age it recovers at its next round.
    let layout = ClusterConfig::paper_default().layout;
    let min_age = ConvergenceOptions::all().min_age;
    let (start, len) = (SimDuration::from_secs(10), SimDuration::from_secs(400));
    let outage_end = SimTime::ZERO + start + len;
    let mut faults = FaultPlan::none();
    faults.add_node_outage(layout.fs(0, 0), SimTime::ZERO + start, len);
    let cfg = ClusterConfig::paper_default();
    let mut cluster = Cluster::build_with_faults(cfg, 12, faults);
    cluster.sim_mut().run_until_time(SimTime::ZERO + start);
    for i in 0..20u8 {
        cluster.put(&[i], vec![i; 8 * 1024]);
    }
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!((report.puts_succeeded, report.amr_versions), (20, 20));
    assert!(report.metrics.kind("RetrieveFragReq").count > 0);
    for &ov in cluster.client().success_versions() {
        let settled = cluster
            .topology()
            .all_fss()
            .filter_map(|fs| cluster.fs(fs).amr_settled_at(ov))
            .max()
            .expect("AMR");
        assert!(
            settled < outage_end + min_age,
            "{ov:?} settled at {settled:?}: a second min_age after the outage"
        );
    }
    // The siblings stop re-probing as soon as the returned FS is whole:
    // with the gate on the adoption time this run (same seed, at commit
    // 7f06971) ended at 811.6 s and sent 602 780 bytes of round probes;
    // now it ends at 526.4 s and sends 381 140.
    const PARENT_PROBE_BYTES: u64 = 602_780;
    let probes: u64 = [
        "KLSConvergeReq",
        "KLSConvergeRep",
        "FSConvergeReq",
        "FSConvergeRep",
    ]
    .iter()
    .map(|kind| report.metrics.kind(kind).bytes)
    .sum();
    assert!(probes < PARENT_PROBE_BYTES, "{probes} probe bytes");
}

#[test]
fn returned_fs_is_reprobed_without_waiting_out_a_capped_back_off() {
    // fs(0,0) is unreachable from 10 s for 2 880 s, far longer than the
    // 600 s back-off cap, while 24 puts land 100 s apart in the outage's
    // first 2 310 s. By its end every sibling has been failing and backing
    // off on each version since `min_age`, so the next step of each is
    // anywhere up to 600 s away. Once the returned FS speaks to a sibling —
    // answering the first probe that reaches it, or probing for what it
    // learned — each version's re-prober steps it at its next round, so
    // everything is AMR within a few rounds of the return. Seeds 1–14 all
    // settle 81–249 s after it here, and 480–638 s after it when nothing
    // resets the back-off (this seed: 202.5 s against 480.7 s).
    let layout = ClusterConfig::paper_default().layout;
    let opts = ConvergenceOptions::all();
    let (start, len) = (SimDuration::from_secs(10), SimDuration::from_secs(2_880));
    let outage_end = SimTime::ZERO + start + len;
    let mut faults = FaultPlan::none();
    faults.add_node_outage(layout.fs(0, 0), SimTime::ZERO + start, len);
    let cfg = ClusterConfig::paper_default();
    let mut cluster = Cluster::build_with_faults(cfg, 14, faults);
    for i in 0..24u8 {
        let at = SimTime::ZERO + start + SimDuration::from_secs(100 * u64::from(i));
        cluster.sim_mut().run_until_time(at);
        cluster.put(&[i], vec![i; 8 * 1024]);
    }
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!((report.puts_succeeded, report.amr_versions), (24, 24));
    let deadline = outage_end + opts.round_max.saturating_mul(3);
    for &ov in cluster.client().success_versions() {
        let settled = cluster
            .topology()
            .all_fss()
            .filter_map(|fs| cluster.fs(fs).amr_settled_at(ov))
            .max()
            .expect("AMR");
        assert!(
            settled <= deadline,
            "{ov:?} settled at {settled:?}, after {deadline:?}: it waited out a back-off"
        );
    }
}

#[test]
fn min_age_still_holds_back_young_versions() {
    // The other side: 1 % loss and no outage. Lost `StoreFragment`s and
    // indications leave versions pending, and none of them may be stepped
    // before the first put's stamp + min_age.
    let mut cfg = small_workload(ClusterConfig::paper_default(), 40, 1);
    cfg.network = NetworkConfig::with_drop_rate(0.01);
    let min_age = cfg.convergence.min_age;
    let mut cluster = Cluster::build(cfg, 13);
    cluster
        .sim_mut()
        .run_until_time(SimTime::ZERO + SimDuration::from_secs(1));
    let c = cluster.client();
    let attempts = c.success_versions().iter().chain(c.failed_versions());
    let first_stamp = attempts
        .map(|ov| ov.ts.clock_micros())
        .min()
        .expect("a put was attempted in the first second");
    let eligible = SimTime::from_micros(first_stamp) + min_age;
    cluster.sim_mut().run_until_time(eligible);
    let fss: Vec<_> = cluster.topology().all_fss().collect();
    let pending: usize = fss
        .iter()
        .map(|&fs| cluster.fs(fs).pending_versions().count())
        .sum();
    assert!(
        pending > 0,
        "the loss left nothing to converge; pick another seed"
    );
    for &fs in &fss {
        assert_eq!(
            cluster.fs(fs).steps_run(),
            0,
            "{fs:?} stepped a young version"
        );
    }
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.durable_not_amr, 0);
}

#[test]
fn wan_partition_preserves_availability_and_heals() {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut faults = FaultPlan::none();
    // The proxy (and its client) sit in DC0, so they partition with it.
    let mut side_a = layout.dc_nodes(0);
    side_a.push(layout.proxy());
    side_a.push(layout.client());
    faults.add_partition(
        &side_a,
        &layout.dc_nodes(1),
        SimTime::ZERO,
        SimDuration::from_mins(10),
    );
    let cfg = small_workload(ClusterConfig::paper_default(), 5, 1);
    let mut cluster = Cluster::build_with_faults(cfg, 4, faults);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    // Availability: puts succeed during the partition using only DC0
    // (the proxy's side), per the paper's single-DC success threshold.
    assert_eq!(report.puts_succeeded, 5);
    // Eventual consistency: after the partition heals every version is
    // repaired to full redundancy in DC1 too.
    assert_eq!(report.amr_versions, 5);
    assert!(
        report.metrics.kind("RetrieveFragReq").count > 0,
        "DC1 fragments must be regenerated from DC0 fragments"
    );
}

#[test]
fn whole_dc_blackout_with_loss_converges() {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    // Every server of DC1 is dark for the first five minutes while the
    // client writes through DC0, on a network that also loses 2 %.
    let mut faults = FaultPlan::none();
    for node in layout.dc_nodes(1) {
        faults.add_node_outage(node, SimTime::ZERO, SimDuration::from_secs(300));
    }
    let mut cfg = small_workload(ClusterConfig::paper_default(), 3, 1);
    cfg.network = NetworkConfig::with_drop_rate(0.02);
    let mut cluster = Cluster::build_with_faults(cfg, 42, faults);
    let r = cluster.run_to_convergence();
    assert_eq!(r.outcome, RunOutcome::PredicateSatisfied);
    // The client retries until the proxy reports success, so convergence
    // implies a full success ledger; failed attempts account for exactly
    // the excess-AMR remainder.
    assert_eq!(r.puts_succeeded, 3);
    assert!(r.puts_attempted >= r.puts_succeeded);
    assert_eq!(r.durable_not_amr, 0);
    assert_eq!(
        r.amr_versions as u64,
        r.puts_succeeded + r.excess_amr as u64
    );
    assert!(r.sim_time >= SimTime::ZERO + SimDuration::from_secs(300));
}

#[test]
fn lossy_network_eventually_converges() {
    let mut cfg = small_workload(ClusterConfig::paper_default(), 10, 1);
    cfg.network = NetworkConfig::with_drop_rate(0.10);
    let mut cluster = Cluster::build(cfg, 5);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_succeeded, 10);
    assert!(report.puts_attempted >= 10);
    assert_eq!(report.durable_not_amr, 0, "every durable version is AMR");
    assert!(report.metrics.dropped() > 0, "losses actually happened");
}

#[test]
fn get_after_convergence_returns_stored_values() {
    let cfg = ClusterConfig::paper_default();
    let mut cluster = Cluster::build(cfg, 6);
    cluster.put(b"alpha", vec![1u8; 5000]);
    cluster.put(b"beta", vec![2u8; 333]);
    let report = cluster.run_to_convergence();
    assert_eq!(report.amr_versions, 2);
    assert_eq!(cluster.get(b"alpha"), Some(vec![1u8; 5000]));
    assert_eq!(cluster.get(b"beta"), Some(vec![2u8; 333]));
    assert_eq!(cluster.get(b"gamma"), None, "unknown key fails cleanly");
}

#[test]
fn overwrites_return_the_latest_version() {
    let mut cluster = Cluster::build(ClusterConfig::paper_default(), 7);
    cluster.put(b"key", b"old".to_vec());
    cluster.run_to_convergence();
    cluster.put(b"key", b"new".to_vec());
    cluster.run_to_convergence();
    assert_eq!(cluster.get(b"key"), Some(b"new".to_vec()));
}

#[test]
fn report_counts_compacted_versions_as_durable_and_amr() {
    // Three rounds over four keys under the scale protocol mode: every
    // version but the newest of each key is superseded once AMR, so the
    // FSs collapse them to residual records. The ledger must still count
    // them — compaction only happens after a version reached AMR.
    let mut cfg = small_workload(ClusterConfig::paper_default(), 4, 3);
    cfg.protocol = ProtocolMode::scale();
    let mut cluster = Cluster::build(cfg, 8);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_succeeded, 12);
    assert_eq!(report.non_durable, 0);
    assert_eq!(report.durable_not_amr, 0);
    assert_eq!(report.amr_versions, 12);

    // Every superseded version is a residual on each FS that knows it, and
    // the newest of each key is not.
    for id in cluster.topology().all_fss() {
        let fs = cluster.fs(id);
        let known: Vec<ObjectVersion> = fs.known_versions().collect();
        let superseded: Vec<ObjectVersion> = known
            .iter()
            .copied()
            .filter(|ov| known.iter().any(|n| n.key == ov.key && n.ts > ov.ts))
            .collect();
        let compacted: Vec<ObjectVersion> = fs.compacted_versions().collect();
        assert_eq!(compacted, superseded, "{id:?} compacts what was superseded");
        assert!(!compacted.is_empty(), "{id:?} compacted nothing");
        assert_eq!(fs.compacted_count(), compacted.len(), "{id:?}");
    }
}

/// `(known, durable)` version counts of `cluster`, after checking that
/// `durable_versions` is exactly the known versions `is_durable` accepts,
/// and that `for_each_known_version` visits each version of the servers'
/// and the client's sets exactly once.
fn durable_is_known_filtered(cluster: &Cluster) -> (usize, usize) {
    let sim = cluster.sim();
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    let klss: Vec<NodeId> = cluster.topology().all_klss().collect();
    let client: &Client = sim.actor(cluster.layout().client());
    let recorded = [client.success_versions(), client.failed_versions()];
    let mut servers: BTreeSet<ObjectVersion> = BTreeSet::new();
    for &kls in &klss {
        servers.extend(sim.actor::<Kls>(kls).known_versions());
    }
    for &fs in &fss {
        servers.extend(sim.actor::<Fs>(fs).known_versions());
    }
    let union: Vec<ObjectVersion> = recorded
        .iter()
        .copied()
        .flatten()
        .chain(&servers)
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut visited = Vec::new();
    analysis::for_each_known_version(sim, &klss, &fss, &recorded, |ov| visited.push(ov));
    visited.sort_unstable();
    assert_eq!(visited, union);

    let known = analysis::known_versions(sim, &klss, &fss);
    assert_eq!(known, servers);
    let filtered: BTreeSet<ObjectVersion> = known
        .iter()
        .copied()
        .filter(|&ov| analysis::is_durable(sim, &fss, ov))
        .collect();
    assert_eq!(analysis::durable_versions(sim, &fss), filtered);
    (known.len(), filtered.len())
}

#[test]
fn durable_versions_are_the_known_versions_is_durable_accepts() {
    // One definition of durability: `durable_versions` (the report's) and
    // `is_durable` (what `run_to_convergence` asks of each pending
    // version) agree on a lossy run that leaves a version non-durable, a
    // compacting one and one with FS outages, at every stage of each.
    let layout = ClusterConfig::paper_default().layout;
    let mut lossy = small_workload(ClusterConfig::paper_default(), 60, 1);
    lossy.network = NetworkConfig::with_drop_rate(0.15);
    let mut compacting = small_workload(ClusterConfig::paper_default(), 4, 3);
    compacting.protocol = ProtocolMode::scale();
    let mut outages = FaultPlan::none();
    outages.add_node_outage(layout.fs(0, 0), SimTime::ZERO, SimDuration::from_mins(10));
    outages.add_node_outage(layout.fs(1, 2), SimTime::ZERO, SimDuration::from_mins(5));
    let runs = [
        (lossy, FaultPlan::none(), 7),
        (compacting, FaultPlan::none(), 8),
        (
            small_workload(ClusterConfig::paper_default(), 5, 1),
            outages,
            3,
        ),
    ];
    let (mut non_durable, mut compacted) = (0, 0);
    for (cfg, faults, seed) in runs {
        let mut cluster = Cluster::build_with_faults(cfg, seed, faults);
        for secs in [1, 5, 30, 120, 900] {
            let at = SimTime::ZERO + SimDuration::from_secs(secs);
            cluster.sim_mut().run_until_time(at);
            durable_is_known_filtered(&cluster);
        }
        let report = cluster.run_to_convergence();
        assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
        let (known, durable) = durable_is_known_filtered(&cluster);
        non_durable += known - durable;
        compacted += cluster
            .topology()
            .all_fss()
            .map(|fs| cluster.fs(fs).compacted_count())
            .sum::<usize>();
    }
    assert!(
        non_durable > 0,
        "the lossy run leaves a non-durable version"
    );
    assert!(compacted > 0, "the compacting run compacts");
}

#[test]
fn a_compacted_version_is_durable_only_while_a_newer_one_holds_k_fragments() {
    // One key put twice: every FS compacts v1 once v2 settles, so v1 is
    // durable through v2 alone. Destroying every disk that holds a
    // fragment of v2 leaves v1 with nothing to be read from.
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(1, 2, 1024, cfg.policy));
    let mut cluster = Cluster::build(cfg, 1);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    let acked: Vec<ObjectVersion> = cluster
        .client()
        .success_versions()
        .iter()
        .copied()
        .collect();
    let [v1, v2] = acked[..] else {
        panic!("two acked versions, not {acked:?}")
    };
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    assert!(analysis::is_durable(cluster.sim(), &fss, v1));
    assert!(analysis::durable_versions(cluster.sim(), &fss).contains(&v1));

    let now = cluster.sim().now();
    for &id in &fss {
        let disks: BTreeSet<u8> = cluster.fs(id).entry(v2).map_or_else(BTreeSet::new, |e| {
            e.meta
                .assignments()
                .filter(|(_, loc)| loc.fs() == id)
                .map(|(_, loc)| loc.disk())
                .collect()
        });
        let fs = cluster.sim_mut().actor_mut::<Fs>(id);
        for disk in disks {
            fs.destroy_disk(disk, now);
        }
    }
    let sim = cluster.sim();
    assert!(fss
        .iter()
        .all(|&id| sim.actor::<Fs>(id).entry(v2).unwrap().fragments.is_empty()));
    assert!(!analysis::is_durable(sim, &fss, v2));
    assert!(
        !analysis::is_durable(sim, &fss, v1),
        "v1's fragments were freed"
    );
    assert!(analysis::durable_versions(sim, &fss).is_empty());
}

#[test]
fn fs_slots_follow_live_versions_not_puts() {
    // 50 overwrite rounds over 20 keys: 1 000 versions reach every FS, but
    // once converged only the newest of each key still holds fragments.
    // Compaction gives the other 980 slots back, so the slab is sized by
    // the live versions, and every version is accounted for exactly once.
    let mut cfg = small_workload(ClusterConfig::paper_default(), 20, 50);
    cfg.protocol = ProtocolMode::scale();
    let mut cluster = Cluster::build(cfg, 10);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_succeeded, 1_000);
    for id in cluster.topology().all_fss() {
        let fs = cluster.fs(id);
        assert_eq!(fs.known_versions().count(), 1_000, "{id:?}");
        assert!(
            fs.resident_slots() <= 60,
            "{id:?} keeps {} slots for 20 live versions",
            fs.resident_slots()
        );
        assert_eq!(
            fs.resident_slots() + fs.compacted_count(),
            fs.known_versions().count(),
            "{id:?} leaked or double-counted a slot"
        );
    }
}

#[test]
fn gets_are_all_counted_and_the_newest_retained() {
    let mut cluster = Cluster::build(ClusterConfig::paper_default(), 9);
    for round in 0..2u8 {
        for k in 0..8u8 {
            cluster.put(&[k], vec![round * 8 + k; 300]);
        }
    }
    cluster.run_to_convergence();
    for i in 0..200u8 {
        let k = i % 8;
        assert_eq!(cluster.get(&[k]), Some(vec![8 + k; 300]), "get {i}");
    }
    let log = cluster.client().gets_done();
    assert_eq!((log.len(), log.failed()), (200, 0));
    assert!(log.get(0).is_none(), "the first outcome left the window");
    let last = log.last().expect("200 gets completed");
    assert!(std::ptr::eq(last, &log[199]), "last() is the 200th");
    assert_eq!(last.key, Key::from_name(&[199 % 8]));
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let run = |seed| {
        let cfg = small_workload(ClusterConfig::paper_default(), 5, 1);
        let mut cluster = Cluster::build(cfg, seed);
        let r = cluster.run_to_convergence();
        (
            r.sim_time,
            r.metrics.total_count(),
            r.metrics.total_bytes(),
            r.puts_attempted,
        )
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11).1, 0);
}

#[test]
fn one_metadata_allocation_per_amr_version() {
    // Failure-free puts on the 4-DC (4, 16) layout: each server receives a
    // partial snapshot before the complete one (the KLSs on the first DC
    // answer, the FSs of DCs 0–2 with their fragments), and at
    // quiescence every server that still stores the record must hold the
    // *same* allocation — merging adopts the superset snapshot instead of
    // copying it.
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = ClusterLayout {
        dcs: 4,
        kls_per_dc: 2,
        fs_per_dc: 4,
    };
    cfg.policy = pahoehoe::Policy::new(4, 16, 4, 1);
    let mut cfg = small_workload(cfg, 6, 2);
    cfg.protocol = ProtocolMode::scale();
    let mut cluster = Cluster::build(cfg, 42);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.amr_versions, 12);

    let topo = cluster.topology().clone();
    let versions: Vec<_> = cluster
        .client()
        .success_versions()
        .iter()
        .copied()
        .collect();
    assert_eq!(versions.len(), 12);
    let mut full_entries = 0;
    for ov in versions {
        let mut klss = topo.all_klss();
        let first = cluster
            .kls(klss.next().expect("a KLS"))
            .meta(ov)
            .expect("every KLS knows an AMR version");
        assert!(first.is_complete());
        for kls in klss {
            let meta = cluster.kls(kls).meta(ov).expect("known");
            assert!(std::ptr::eq(first, meta), "{kls:?} copied {ov:?}");
        }
        for fs in topo.all_fss() {
            if let Some(entry) = cluster.fs(fs).entry(ov) {
                full_entries += 1;
                assert!(std::ptr::eq(first, &*entry.meta), "{fs:?} copied {ov:?}");
            }
        }
    }
    assert!(
        full_entries >= 6 * 16,
        "the newest versions keep full entries"
    );
}
