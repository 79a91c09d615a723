//! Cross-WAN traffic accounting from a record of every message send.
//!
//! Figure 8's discussion makes a claim the aggregate counters cannot
//! check directly: during recovery from a metadata partition, sibling
//! fragment recovery "prevents all FSs from independently transferring
//! fragments needed for their recovery over the WAN; instead, only one of
//! the FSs performs this recovery on behalf of the others", reducing
//! *WAN* usage specifically (the regenerated fragments then travel over
//! the LAN). A `Vec<TraceEvent>` observer on the simulation records each
//! send's endpoints and size, so the tests sum exactly the bytes crossing
//! the inter-data-center boundary.

use std::cell::RefCell;
use std::rc::Rc;

use pahoehoe_repro::pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe_repro::pahoehoe::convergence::ConvergenceOptions;
use pahoehoe_repro::pahoehoe::workload::StreamingWorkload;
use pahoehoe_repro::simnet::{FaultPlan, NodeId, SimDuration, SimTime, TraceEvent};

fn layout() -> ClusterLayout {
    ClusterLayout {
        dcs: 2,
        kls_per_dc: 2,
        fs_per_dc: 3,
    }
}

/// Records every send `cluster` makes from now on.
fn traced(cluster: &mut Cluster) -> Rc<RefCell<Vec<TraceEvent>>> {
    let trace = Rc::default();
    cluster.sim_mut().observe(Rc::clone(&trace));
    trace
}

/// Runs the Figure-8 "2P" scenario (both remote-DC KLSs down during the
/// puts) and returns (cross-WAN bytes, total bytes).
fn wan_bytes(sibling_recovery: bool, seed: u64) -> (u64, u64) {
    let l = layout();
    let mut faults = FaultPlan::none();
    for i in 0..2 {
        faults.add_node_outage(l.kls(1, i), SimTime::ZERO, SimDuration::from_mins(10));
    }
    let mut conv = ConvergenceOptions::all();
    conv.sibling_recovery = sibling_recovery;
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(10, 1, 64 * 1024, cfg.policy));
    cfg.convergence = conv;
    let mut cluster = Cluster::build_with_faults(cfg, seed, faults);
    let trace = traced(&mut cluster);
    let report = cluster.run_to_convergence();
    assert_eq!(report.durable_not_amr, 0);
    assert_eq!(report.amr_versions, 10);

    // DC0 side includes the proxy and client (they live there).
    let mut side_a: Vec<NodeId> = l.dc_nodes(0);
    side_a.push(l.proxy());
    side_a.push(l.client());
    let side_b = l.dc_nodes(1);
    let crosses = |e: &TraceEvent| {
        (side_a.contains(&e.from) && side_b.contains(&e.to))
            || (side_b.contains(&e.from) && side_a.contains(&e.to))
    };
    let wan = trace
        .borrow()
        .iter()
        .filter(|e| crosses(e))
        .map(|e| e.bytes as u64)
        .sum();
    (wan, cluster.sim().metrics().total_bytes())
}

#[test]
fn sibling_recovery_cuts_wan_bytes_specifically() {
    let (wan_with, _) = wan_bytes(true, 7);
    let (wan_without, _) = wan_bytes(false, 7);

    // Fragments are 16 KiB (64 KiB / k=4). Baseline WAN cost present in
    // both runs: the put sends 6 fragments per object to DC1 = 96 KiB per
    // object. Recovery-from-DC0 adds WAN retrievals: with sibling
    // recovery one FS pulls k=4 fragments per object (64 KiB); without,
    // each of the three DC1 FSs pulls at least k (>= 192 KiB).
    assert!(
        wan_without > wan_with,
        "naive recovery must cost more WAN: {wan_without} vs {wan_with}"
    );
    let saved = wan_without - wan_with;
    // At least one object-worth of duplicate k-fragment transfers per
    // object version is saved (2 extra FSs x 4 fragments x 16 KiB x 10
    // objects minus protocol noise).
    assert!(
        saved > 10 * 8 * 16 * 1024 / 2,
        "savings too small: {saved} bytes"
    );
}

#[test]
fn fragment_stores_respect_dc_locality_during_partition() {
    // During the 2P window the proxy has no DC1 locations, so *no*
    // StoreFragmentReq crosses the WAN until convergence repairs the
    // metadata after the outage lifts.
    let l = layout();
    let mut faults = FaultPlan::none();
    for i in 0..2 {
        faults.add_node_outage(l.kls(1, i), SimTime::ZERO, SimDuration::from_mins(10));
    }
    let mut cfg = ClusterConfig::paper_default();
    cfg.streaming_workload = Some(StreamingWorkload::numbered(5, 1, 32 * 1024, cfg.policy));
    let mut cluster = Cluster::build_with_faults(cfg, 9, faults);
    let trace = traced(&mut cluster);
    cluster.run_to_convergence();

    let trace = trace.borrow();
    let of_kind = |kind| trace.iter().filter(move |e| e.kind == kind);
    let dc1: Vec<NodeId> = l.dc_nodes(1);
    let cross_stores: Vec<_> = of_kind("StoreFragmentReq")
        .filter(|e| dc1.contains(&e.to))
        .collect();
    assert!(
        cross_stores.is_empty(),
        "proxy never learned DC1 locations, so no direct stores there: {cross_stores:?}"
    );
    // DC1's fragments arrived via sibling pushes instead.
    assert!(of_kind("SiblingStoreReq").count() > 0);
}
