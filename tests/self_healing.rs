//! Tests for the paper's elided robustness features (§3.1): disk
//! corruption detection via hashes, scrubbing, and disk rebuild.

use pahoehoe_repro::erasure::checksum::WIDE_MIN;
use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe_repro::pahoehoe::fs::{Fs, WAKE_TIMER_TAG};
use pahoehoe_repro::pahoehoe::workload::StreamingWorkload;
use pahoehoe_repro::simnet::SimDuration;

fn layout() -> ClusterLayout {
    ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    }
}

/// The value length of most tests: 2 KiB fragments, checksummed by the
/// four-lane body.
const VALUE_LEN: usize = 8 * 1024;

/// A value length whose 16 KiB fragments take the wide checksum body.
const WIDE_VALUE_LEN: usize = 64 * 1024;

fn converged_cluster(scrub: Option<SimDuration>, seed: u64, value_len: usize) -> Cluster {
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(3, 1, value_len, cfg.policy));
    cfg.convergence.scrub_interval = scrub;
    let mut cluster = Cluster::build(cfg, seed);
    let report = cluster.run_to_convergence();
    assert_eq!(report.amr_versions, 3);
    cluster
}

/// The versions stored on an FS, with one fragment index each.
fn stored_versions(
    cluster: &Cluster,
    fs: pahoehoe_repro::simnet::NodeId,
) -> Vec<(pahoehoe_repro::pahoehoe::ObjectVersion, u8)> {
    let actor = cluster.fs(fs);
    actor
        .known_versions()
        .filter_map(|ov| {
            actor
                .entry(ov)
                .and_then(|e| e.fragments.keys().next().copied())
                .map(|idx| (ov, idx))
        })
        .collect()
}

/// The first stored version on `fs` and one of its fragment indices, after
/// checking that the fragment's length puts its checksum on the body that
/// `value_len` is meant to reach.
fn victim(
    cluster: &Cluster,
    fs: pahoehoe_repro::simnet::NodeId,
    value_len: usize,
) -> (pahoehoe_repro::pahoehoe::ObjectVersion, u8) {
    let victims = stored_versions(cluster, fs);
    assert!(!victims.is_empty());
    let (ov, idx) = victims[0];
    let entry = cluster.fs(fs).entry(ov).expect("victim stored");
    let flen = entry
        .fragments
        .get(&idx)
        .expect("victim fragment")
        .fragment
        .len();
    assert_eq!(
        flen >= WIDE_MIN,
        value_len == WIDE_VALUE_LEN,
        "{flen}-byte fragment"
    );
    (ov, idx)
}

#[test]
fn read_path_detects_corruption_and_convergence_repairs_it() {
    read_path_repair(VALUE_LEN);
}

#[test]
fn read_path_detects_corruption_of_a_wide_checksummed_fragment() {
    read_path_repair(WIDE_VALUE_LEN);
}

fn read_path_repair(value_len: usize) {
    use pahoehoe_repro::pahoehoe::client::{Client, ClientOp};

    let mut cluster = converged_cluster(None, 1, value_len);
    let fs_id = layout().fs(0, 0);
    let (ov, idx) = victim(&cluster, fs_id, value_len);

    // Corrupt one fragment in place (checksum left stale).
    assert!(cluster
        .sim_mut()
        .actor_mut::<Fs>(fs_id)
        .corrupt_fragment(ov, idx));

    // Read the corrupted object through the client. The FS detects the
    // bad hash, answers ⊥ for that fragment, and the get still succeeds
    // from the remaining eleven fragments.
    let client_id = cluster.layout().client();
    let before = cluster.client().gets_done().len();
    {
        let sim = cluster.sim_mut();
        sim.actor_mut::<Client>(client_id)
            .enqueue(ClientOp::Get { key: ov.key });
        sim.schedule_timer(client_id, SimDuration::ZERO, 1);
        sim.run_until(move |s| s.actor::<Client>(client_id).gets_done().len() > before);
    }
    let outcome = &cluster.client().gets_done()[before];
    assert!(
        outcome.result.is_some(),
        "get succeeds despite the corrupted fragment"
    );
    assert_eq!(cluster.fs(fs_id).corruption_detected(), 1);

    // The read dropped the bad fragment and re-pended the version;
    // convergence regenerates it.
    cluster
        .sim_mut()
        .schedule_timer(fs_id, SimDuration::ZERO, WAKE_TIMER_TAG);
    let report = cluster.run_to_convergence();
    assert_eq!(report.durable_not_amr, 0);
    let fs = cluster.fs(fs_id);
    let entry = fs.entry(ov).expect("entry kept");
    assert!(
        entry.fragments.contains_key(&idx),
        "fragment regenerated after read-path detection"
    );
    assert!(fs.verified(ov));
}

#[test]
fn scrubber_detects_and_repairs_corruption() {
    scrub_repair(VALUE_LEN);
}

#[test]
fn scrubber_detects_corruption_of_a_wide_checksummed_fragment() {
    scrub_repair(WIDE_VALUE_LEN);
}

fn scrub_repair(value_len: usize) {
    let mut cluster = converged_cluster(Some(SimDuration::from_secs(30)), 2, value_len);
    let fs_id = layout().fs(1, 1);
    let (ov, idx) = victim(&cluster, fs_id, value_len);
    assert!(cluster
        .sim_mut()
        .actor_mut::<Fs>(fs_id)
        .corrupt_fragment(ov, idx));

    // Let the scrubber run and convergence repair the fragment.
    let deadline = cluster.sim().now() + SimDuration::from_mins(20);
    cluster.sim_mut().run_until_time(deadline);

    let fs = cluster.fs(fs_id);
    assert!(fs.corruption_detected() >= 1, "scrubber found the rot");
    let entry = fs.entry(ov).expect("version still stored");
    assert!(
        entry.fragments.contains_key(&idx),
        "fragment regenerated after scrub dropped it"
    );
    // The regenerated fragment passes verification again.
    assert!(fs.verified(ov));
    assert_eq!(fs.pending_versions().count(), 0, "re-converged");
}

#[test]
fn destroyed_disk_is_rebuilt_by_convergence() {
    let mut cluster = converged_cluster(None, 3, VALUE_LEN);
    let fs_id = layout().fs(0, 1);
    let before: usize = {
        let fs = cluster.fs(fs_id);
        fs.known_versions()
            .filter_map(|ov| fs.entry(ov))
            .map(|e| e.fragments.len())
            .sum()
    };
    assert!(before > 0);

    // Wipe disk 0 on this FS and wake its convergence loop.
    let now = cluster.sim().now();
    let lost = cluster
        .sim_mut()
        .actor_mut::<Fs>(fs_id)
        .destroy_disk(0, now);
    assert!(lost > 0, "disk 0 held fragments");
    cluster
        .sim_mut()
        .schedule_timer(fs_id, SimDuration::ZERO, WAKE_TIMER_TAG);

    let report = cluster.run_to_convergence();
    assert_eq!(report.durable_not_amr, 0);
    let after: usize = {
        let fs = cluster.fs(fs_id);
        fs.known_versions()
            .filter_map(|ov| fs.entry(ov))
            .map(|e| e.fragments.len())
            .sum()
    };
    assert_eq!(after, before, "every lost fragment was rebuilt");
    assert!(report.metrics.kind("RetrieveFragReq").count > 0);
}

#[test]
fn scrubbing_a_clean_store_changes_nothing() {
    let mut cluster = converged_cluster(Some(SimDuration::from_secs(20)), 4, VALUE_LEN);
    let deadline = cluster.sim().now() + SimDuration::from_mins(5);
    cluster.sim_mut().run_until_time(deadline);
    for dc in 0..2 {
        for i in 0..3 {
            let fs = cluster.fs(layout().fs(dc, i));
            assert_eq!(fs.corruption_detected(), 0);
            assert_eq!(fs.pending_versions().count(), 0);
        }
    }
}
