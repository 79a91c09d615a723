//! End-to-end tests for the background repair engine: threshold-driven
//! re-protection after disk loss, bandwidth throttling, and the paced
//! scrub scheduler.

use pahoehoe::client::{Client, ClientOp};
use pahoehoe::cluster::{Cluster, ClusterConfig};
use pahoehoe::fs::Fs;
use pahoehoe::repair::RepairOptions;
use pahoehoe::types::{Key, ObjectVersion};
use pahoehoe::workload::StreamingWorkload;
use simnet::{NodeId, RunOutcome, SimDuration};

fn repair_cfg(puts: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default();
    cfg.convergence.repair = Some(RepairOptions::paper_default());
    cfg.racks_per_dc = Some(3);
    cfg.streaming_workload = Some(StreamingWorkload::numbered(puts, 1, 8 * 1024, cfg.policy));
    cfg
}

/// Total live fragments for `ov` across every FS in the cluster.
fn cluster_live(cluster: &Cluster, ov: ObjectVersion) -> usize {
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    fss.iter()
        .map(|&fs| cluster.fs(fs).entry(ov).map_or(0, |e| e.fragments.len()))
        .sum()
}

#[test]
fn repair_engine_reprotects_after_losing_both_disks_of_a_server() {
    let mut cluster = Cluster::build(repair_cfg(10), 7);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.amr_versions, 10);
    let ovs: Vec<ObjectVersion> = cluster
        .client()
        .success_versions()
        .iter()
        .copied()
        .collect();
    assert_eq!(ovs.len(), 10);
    for &ov in &ovs {
        assert_eq!(cluster_live(&cluster, ov), 12);
    }

    // Kill both disks of one DC-0 server: each object drops from 6 to 4
    // live fragments in that DC, below the 80% repair threshold. No round
    // wake is scheduled, so the repair engine is the only re-protection
    // path.
    let victim = cluster.layout().fs(0, 0);
    let now = cluster.sim().now();
    let lost = {
        let fs = cluster.sim_mut().actor_mut::<Fs>(victim);
        fs.destroy_disk(0, now) + fs.destroy_disk(1, now)
    };
    assert_eq!(lost, 2 * 10, "two fragments per object on the victim");
    for &ov in &ovs {
        assert_eq!(cluster_live(&cluster, ov), 10);
    }

    cluster
        .sim_mut()
        .run_until_time(now + SimDuration::from_secs(600));

    // The job counts are both DCs' actors': all ten are DC 0's, whose
    // server lost its disks, and none DC 1's.
    let m = cluster.sim().metrics();
    assert_eq!(m.event("repair_triggered"), 10, "every object dipped below");
    assert_eq!(m.event("repair_completed"), 10);
    assert_eq!(m.event("repair_abandoned"), 0);
    assert!(m.event("repair_bytes") > 0);
    let repair = cluster.repair_actor(0);
    assert_eq!(repair.backlog(), 0);
    for &ov in &ovs {
        assert_eq!(cluster_live(&cluster, ov), 12, "back at full redundancy");
        assert_eq!(repair.live_fragments(ov), 6);
    }

    // The archive still serves every value (workload keys are
    // `Key::from_u64(i + 1)`).
    let client_id = cluster.layout().client();
    for i in 0..10u64 {
        let done = cluster.sim().actor::<Client>(client_id).gets_done().len();
        cluster
            .sim_mut()
            .actor_mut::<Client>(client_id)
            .enqueue(ClientOp::Get {
                key: Key::from_u64(i + 1),
            });
        cluster
            .sim_mut()
            .schedule_timer(client_id, SimDuration::ZERO, 1);
        cluster
            .sim_mut()
            .run_until(move |sim| sim.actor::<Client>(client_id).gets_done().len() > done);
        let outcome = &cluster.sim().actor::<Client>(client_id).gets_done()[done];
        assert!(outcome.result.is_some(), "get after repair must succeed");
    }
}

/// The channel duplicates messages (§3.1): a donor reply that arrives twice
/// counts once, so the both-disks loss repairs exactly as on a clean
/// channel — every job completes at the first attempt, and the repair bytes
/// are the duplication-free total (10 jobs × (4 donor + 2 rebuilt) × 2 KiB).
#[test]
fn duplicated_donor_replies_count_once() {
    let mut cfg = repair_cfg(10);
    cfg.network.duplicate_rate = 0.2;
    let mut cluster = Cluster::build(cfg, 7);
    assert_eq!(cluster.run_to_convergence().amr_versions, 10);

    let victim = cluster.layout().fs(0, 0);
    let now = cluster.sim().now();
    {
        let fs = cluster.sim_mut().actor_mut::<Fs>(victim);
        fs.destroy_disk(0, now);
        fs.destroy_disk(1, now);
    }
    cluster
        .sim_mut()
        .run_until_time(now + SimDuration::from_secs(900));

    // Both DCs' actors: the ten jobs are DC 0's.
    let m = cluster.sim().metrics();
    assert_eq!(m.event("repair_triggered"), 10);
    assert_eq!(m.event("repair_completed"), 10);
    assert_eq!(m.event("repair_abandoned"), 0);
    assert_eq!(m.event("repair_bytes"), 122_880);
}

#[test]
fn throttled_repair_stalls_but_still_reprotects() {
    let mut cfg = repair_cfg(10);
    // A budget well under one job's cost forces the drain loop to stall
    // and accumulate tokens across ticks.
    cfg.convergence.repair = Some(RepairOptions::throttled(4 * 1024));
    let mut cluster = Cluster::build(cfg, 7);
    let report = cluster.run_to_convergence();
    assert_eq!(report.amr_versions, 10);
    let ovs: Vec<ObjectVersion> = cluster
        .client()
        .success_versions()
        .iter()
        .copied()
        .collect();

    let victim = cluster.layout().fs(0, 0);
    let now = cluster.sim().now();
    {
        let fs = cluster.sim_mut().actor_mut::<Fs>(victim);
        fs.destroy_disk(0, now);
        fs.destroy_disk(1, now);
    }
    cluster
        .sim_mut()
        .run_until_time(now + SimDuration::from_secs(1200));

    // Both DCs' actors: the ten jobs are DC 0's.
    let m = cluster.sim().metrics();
    assert_eq!(m.event("repair_completed"), 10);
    assert!(
        m.event("repair_throttle_stalls") > 0,
        "the token bucket must have gated admissions"
    );
    for &ov in &ovs {
        assert_eq!(cluster_live(&cluster, ov), 12);
    }
}

#[test]
fn reads_survive_the_rebuild_and_the_throttle_costs_time_not_bytes() {
    // {rack-aware, legacy placement} x {unthrottled, 8 KiB/tick}: an
    // 8 KiB budget is below one job's ~12 KiB cost (k = 4 donor fetches
    // plus 2 re-placed 2 KiB fragments), so the throttled cells stall.
    for racks_per_dc in [Some(3), None] {
        let [fast, slow] = [
            RepairOptions::paper_default(),
            RepairOptions::throttled(8 * 1024),
        ]
        .map(|repair| {
            let mut cfg = repair_cfg(48);
            cfg.racks_per_dc = racks_per_dc;
            cfg.convergence.repair = Some(repair);
            let mut cluster = Cluster::build(cfg, 42);
            let report = cluster.run_to_convergence();
            assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
            let ovs: Vec<ObjectVersion> = cluster
                .client()
                .success_versions()
                .iter()
                .copied()
                .collect();
            assert_eq!(ovs.len(), 48);

            let victim = cluster.layout().fs(0, 0);
            let destroyed_at = cluster.sim().now();
            {
                let fs = cluster.sim_mut().actor_mut::<Fs>(victim);
                fs.destroy_disk(0, destroyed_at);
                fs.destroy_disk(1, destroyed_at);
            }
            // Flash-crowd burst: read every key while the rebuild runs.
            let client_id = cluster.layout().client();
            for i in 0..48 {
                cluster
                    .sim_mut()
                    .actor_mut::<Client>(client_id)
                    .enqueue(ClientOp::Get {
                        key: Key::from_u64(i + 1),
                    });
            }
            cluster
                .sim_mut()
                .schedule_timer(client_id, SimDuration::ZERO, 1);

            // Poll at a fixed sim cadence until every stripe is whole.
            let deadline = destroyed_at + SimDuration::from_secs(3600);
            while !ovs.iter().all(|&ov| cluster_live(&cluster, ov) == 12) {
                let step = cluster.sim().now() + SimDuration::from_millis(500);
                assert!(step < deadline, "never re-protected");
                cluster.sim_mut().run_until_time(step);
            }
            let reprotected_after = cluster.sim().now().duration_since(destroyed_at);
            cluster
                .sim_mut()
                .run_until(move |sim| sim.actor::<Client>(client_id).gets_done().len() >= 48);

            assert_eq!(
                cluster.client().gets_done().failed(),
                0,
                "a read failed mid-rebuild"
            );
            let m = cluster.sim().metrics();
            assert!(m.event("degraded_reads") > 0, "no read raced the rebuild");
            assert_eq!(m.event("repair_triggered"), m.event("repair_completed"));
            assert_eq!(m.event("repair_abandoned"), 0);
            (reprotected_after, m.event("repair_bytes"))
        });
        assert!(slow.0 >= fast.0, "{racks_per_dc:?}: throttle sped it up");
        assert_eq!(slow.1, fast.1, "{racks_per_dc:?}: throttle moved bytes");
    }
}

#[test]
fn repair_is_not_triggered_above_threshold() {
    let mut cluster = Cluster::build(repair_cfg(5), 11);
    cluster.run_to_convergence();

    // One disk = one fragment per object on the victim: 6 -> 5 live in
    // the DC, which is still >= 80% of 6.
    let victim = cluster.layout().fs(0, 1);
    let now = cluster.sim().now();
    let lost = cluster
        .sim_mut()
        .actor_mut::<Fs>(victim)
        .destroy_disk(0, now);
    assert_eq!(lost, 5);
    cluster
        .sim_mut()
        .run_until_time(now + SimDuration::from_secs(300));

    // Neither DC's actor triggers a job.
    assert_eq!(cluster.sim().metrics().event("repair_triggered"), 0);
}

#[test]
fn paced_scrub_detects_corruption_without_starving_the_protocol() {
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(10, 1, 128 * 1024, cfg.policy));
    // 128 KiB values fragment to 32 KiB, so a tick's 64 KiB budget
    // re-hashes two fragments and a full pass takes multiple ticks.
    cfg.convergence.scrub_interval = Some(SimDuration::from_secs(5));
    let mut cluster = Cluster::build(cfg, 3);
    let report = cluster.run_to_convergence();
    assert_eq!(report.amr_versions, 10);

    // Flip one stored fragment on a DC-1 server.
    let victim = cluster.layout().fs(1, 2);
    let (ov, idx) = {
        let fs: &Fs = cluster.fs(victim);
        let ov = fs.known_versions().next().expect("stores fragments");
        let idx = *fs
            .entry(ov)
            .expect("entry exists")
            .fragments
            .keys()
            .next()
            .expect("holds a fragment");
        (ov, idx)
    };
    assert!(cluster
        .sim_mut()
        .actor_mut::<Fs>(victim)
        .corrupt_fragment(ov, idx));

    // While the cursor-paced scrub crawls the store, fresh protocol work
    // must still make progress: a put issued mid-scrub completes and is
    // readable.
    let now = cluster.sim().now();
    cluster
        .sim_mut()
        .run_until_time(now + SimDuration::from_secs(7));
    cluster.put(b"mid-scrub", vec![0xAB; 4096]);
    assert_eq!(cluster.get(b"mid-scrub"), Some(vec![0xAB; 4096]));

    // And the scrubber finds the corruption within a few passes.
    let now = cluster.sim().now();
    cluster
        .sim_mut()
        .run_until_time(now + SimDuration::from_secs(120));
    assert!(
        cluster.fs(victim).corruption_detected() >= 1,
        "paced scrub still re-hashes the whole store"
    );
}
