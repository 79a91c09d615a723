//! The nine invariants on more than two data centers. The cluster is the
//! benchmark's `small-put-churn` shape — four DCs of two KLSs and four FSs,
//! k = 4 of n = 16 with four fragments per DC and one per FS, under
//! `ProtocolMode::scale()` — fed a Zipf stream of 256 B puts under 1 %
//! loss, with DC 1 partitioned from the rest of the cluster, proxy
//! included, in the middle of the stream. Every invariant is checked after
//! every event, at the node it ran on.

use std::cell::Cell;
use std::rc::Rc;

use check::invariants::{registry, Checker, ClusterView, Invariant};
use pahoehoe::analysis;
use pahoehoe::client::Client;
use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use pahoehoe::{Policy, ProtocolMode};
use simnet::{FaultPlan, NetworkConfig, NodeId, SimDuration, SimTime};

const SEED: u64 = 42;
const PUTS: u64 = 300;
const LAYOUT: ClusterLayout = ClusterLayout {
    dcs: 4,
    kls_per_dc: 2,
    fs_per_dc: 4,
};
/// The stream's puts land between 0 and ≈ 68 s of simulated time; DC 1 is
/// cut off from 20 s to 40 s.
fn dc1_partition() -> FaultPlan {
    let rest: Vec<NodeId> = [0, 2, 3]
        .into_iter()
        .flat_map(|dc| LAYOUT.dc_nodes(dc))
        .chain([LAYOUT.proxy(), LAYOUT.client()])
        .collect();
    let mut plan = FaultPlan::none();
    plan.add_partition(
        &LAYOUT.dc_nodes(1),
        &rest,
        SimTime::ZERO + SimDuration::from_secs(20),
        SimDuration::from_secs(20),
    );
    plan
}

fn small_put_churn(plan: FaultPlan) -> Cluster {
    let mut cfg = ClusterConfig::paper_default();
    cfg.layout = LAYOUT;
    cfg.policy = Policy::new(4, 16, 4, 1);
    cfg.protocol = ProtocolMode::scale();
    cfg.network = NetworkConfig::with_drop_rate(0.01);
    cfg.streaming_workload = Some(StreamingWorkload {
        puts: PUTS,
        key_space: 100,
        value_len: 256,
        policy: cfg.policy,
        seed: SEED,
        dist: KeyDistribution::Zipf { exponent: 1.1 },
        overwrite_delta_permille: 0,
    });
    Cluster::build_with_faults(cfg, SEED, plan)
}

#[test]
fn invariants_hold_on_four_dcs_through_a_partition() {
    let mut cluster = small_put_churn(dc1_partition());
    let checker = Checker::install(&mut cluster, registry());
    let report = cluster.run_to_convergence();
    let violation = checker.finish(&cluster, report.outcome);
    assert!(violation.is_none(), "{violation:?}");

    let sim = cluster.sim();
    let topo = cluster.topology();
    let mut acked = 0;
    for c in cluster.client_ids() {
        for &ov in sim.actor::<Client>(c).success_versions() {
            assert!(analysis::is_amr(sim, topo, ov), "acked {ov:?} is not AMR");
            acked += 1;
        }
    }
    assert!(acked > PUTS / 2, "{acked} of {PUTS} puts acked");
    // The partition cut traffic, and so did the loss.
    let (fault, random) = sim.metrics().iter_drops().fold((0, 0), |(f, r), (_, d)| {
        (f + d.fault_count, r + d.random_count)
    });
    assert!(
        fault > 0 && random > 0,
        "drops: {fault} by the partition, {random} by loss"
    );
}

/// Counts the checks it is asked for.
struct CountChecks(Rc<Cell<u64>>);

impl Invariant for CountChecks {
    fn name(&self) -> &'static str {
        "count-checks"
    }

    fn check_event(&mut self, _view: &ClusterView<'_>) -> Result<(), String> {
        self.0.set(self.0.get() + 1);
        Ok(())
    }
}

#[test]
fn every_event_on_four_dcs_is_checked() {
    let mut cluster = small_put_churn(dc1_partition());
    let calls = Rc::new(Cell::new(0));
    let checker = Checker::install(&mut cluster, vec![Box::new(CountChecks(Rc::clone(&calls)))]);
    let report = cluster.run_to_convergence();
    let events = cluster.sim().events_processed();
    assert_eq!(calls.get(), events);
    assert_eq!(checker.finish(&cluster, report.outcome), None);
    assert_eq!(calls.get(), events + 1, "and once more as the run ends");
}
