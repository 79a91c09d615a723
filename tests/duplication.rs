//! Idempotence under message duplication.
//!
//! The paper's system model assumes "point-to-point channels with fair
//! losses and **bounded message duplication**" (§3.1), so every protocol
//! handler must be idempotent: stores, converge probes, indications and
//! recovery pushes may all arrive twice.

use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe_repro::pahoehoe::workload::StreamingWorkload;
use pahoehoe_repro::simnet::{FaultPlan, NetworkConfig, RunOutcome, SimDuration, SimTime};

#[test]
fn cluster_state_is_identical_under_full_duplication() {
    // Every message delivered twice: the workload must converge to
    // exactly the same logical state (same AMR count, same values).
    let run = |duplicate_rate: f64| {
        let mut cfg = ClusterConfig::paper_default();
        cfg.streaming_workload = Some(StreamingWorkload::numbered(8, 1, 4096, cfg.policy));
        cfg.network = NetworkConfig {
            duplicate_rate,
            ..NetworkConfig::paper_default()
        };
        let mut cluster = Cluster::build(cfg, 77);
        let report = cluster.run_to_convergence();
        assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
        (
            report.amr_versions,
            report.non_durable,
            report.puts_succeeded,
        )
    };
    assert_eq!(run(0.0), run(1.0));
    assert_eq!(run(1.0), (8, 0, 8));
}

#[test]
fn duplicated_stores_do_not_double_fragments() {
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(3, 1, 2048, cfg.policy));
    cfg.network = NetworkConfig {
        duplicate_rate: 1.0,
        ..NetworkConfig::paper_default()
    };
    let mut cluster = Cluster::build(cfg, 5);
    let report = cluster.run_to_convergence();
    assert_eq!(report.amr_versions, 3);
    // Each FS holds exactly its assigned fragments — duplication never
    // inflates the stores.
    let layout = cluster.layout();
    let mut total_fragments = 0;
    for dc in 0..2 {
        for i in 0..3 {
            let fs = cluster.fs(layout.fs(dc, i));
            for ov in fs.known_versions() {
                let entry = fs.entry(ov).expect("known");
                assert_eq!(
                    entry.fragments.len(),
                    entry.meta.fragments_of(layout.fs(dc, i)).len(),
                    "exactly the assigned fragments"
                );
                total_fragments += entry.fragments.len();
            }
        }
    }
    assert_eq!(total_fragments, 3 * 12);
    assert!(cluster.sim().metrics().duplicated() > 0);
}

#[test]
fn duplication_combined_with_loss_and_outage_still_converges() {
    let layout = ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    };
    let mut faults = FaultPlan::none();
    faults.add_node_outage(layout.fs(1, 1), SimTime::ZERO, SimDuration::from_mins(10));
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(5, 1, 4096, cfg.policy));
    cfg.network = NetworkConfig {
        duplicate_rate: 0.2,
        drop_rate: 0.05,
        ..NetworkConfig::paper_default()
    };
    let mut cluster = Cluster::build_with_faults(cfg, 31, faults);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_succeeded, 5);
    assert_eq!(report.durable_not_amr, 0);
    // And reads return correct data afterwards.
    let v = cluster.get(b"");
    assert_eq!(v, None, "unknown key still fails cleanly");
}
