//! AMR indications carry metadata only where it is news.
//!
//! A proxy leaves the metadata out of a Put-AMR indication to an FS it
//! knows holds it complete, and an FS always leaves it out of the
//! indications it sends the siblings that just verified (§4.1). An FS
//! settles on an indication without reading it, so one sent without
//! metadata to an FS that lacks it would leave that FS settled on
//! incomplete metadata: the version would look converged and never be AMR.
//! Under loss the proxy's last location update to a data center is often
//! still unconfirmed when the put is fully acknowledged, which is the case
//! these runs exercise.

use pahoehoe_repro::pahoehoe::analysis;
use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig};
use pahoehoe_repro::pahoehoe::protocol::ProtocolMode;
use pahoehoe_repro::pahoehoe::workload::StreamingWorkload;
use pahoehoe_repro::simnet::{NetworkConfig, RunOutcome};

/// The paper's cluster at 5 % loss: every acknowledged put ends AMR.
fn every_acked_put_ends_amr(protocol: ProtocolMode, seed: u64) {
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(300, 1, 1024, cfg.policy));
    cfg.network = NetworkConfig::with_drop_rate(0.05);
    cfg.protocol = protocol;
    let mut cluster = Cluster::build(cfg, seed);
    let report = cluster.run_to_convergence();
    assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
    let acked = cluster.client().success_versions();
    assert_eq!(acked.len(), 300);
    let topo = cluster.topology();
    let stuck: Vec<_> = acked
        .iter()
        .filter(|&&ov| !analysis::is_amr(cluster.sim(), topo, ov))
        .collect();
    assert!(stuck.is_empty(), "acked but not AMR: {stuck:?}");
    assert!(
        cluster.proxy().puts_fully_acked() > 0,
        "some puts were fully acknowledged, so Put-AMR indications went out"
    );
}

#[test]
fn every_acked_put_ends_amr_under_loss() {
    every_acked_put_ends_amr(ProtocolMode::default(), 5);
}

#[test]
fn every_acked_put_ends_amr_under_loss_at_scale() {
    every_acked_put_ends_amr(ProtocolMode::scale(), 5);
}
