//! The process-wide store switches: `set_flat_store` and
//! `set_compaction` must apply to *subsequently constructed* clusters
//! (each actor captures its mode at construction)
//! and must be observationally safe to flip back afterwards.
//!
//! Both switches are exercised from one `#[test]` so the process-wide
//! toggles never race another test thread in this binary.

use pahoehoe::cluster::{Cluster, ClusterConfig};
use pahoehoe::fs::Fs;
use pahoehoe::protocol::{set_delta_coding, ProtocolMode};
use pahoehoe::{set_compaction, set_flat_store};

/// Builds a small cluster under whatever switches are currently set,
/// drives an update-heavy workload (every put overwrites the same key,
/// so superseded versions accumulate), and returns it converged.
fn run_update_heavy() -> Cluster {
    let mut cfg = ClusterConfig::paper_default();
    cfg.workload_puts = 0;
    let mut cluster = Cluster::build(cfg, 7);
    for i in 0..4u8 {
        cluster.put(b"hot-key", vec![i; 2048]);
        cluster.run_to_convergence();
    }
    cluster
}

fn total_compacted(cluster: &Cluster) -> usize {
    let topo = cluster.topology().clone();
    topo.all_fss()
        .map(|id| cluster.sim().actor::<Fs>(id).compacted_count())
        .sum()
}

#[test]
fn switches_capture_at_construction() {
    // Defaults: sharded store on, compaction off.
    let mode = ProtocolMode::current();
    assert!(mode.shard_store, "sharded store is the default");
    assert!(!mode.compact_converged, "compaction is opt-in");

    // `set_flat_store(true)` routes `current()` to the flat (fanout-1)
    // index for subsequently built clusters.
    set_flat_store(true);
    assert!(!ProtocolMode::current().shard_store);
    let flat = run_update_heavy();
    set_flat_store(false);
    assert!(ProtocolMode::current().shard_store);

    // The flat-store run behaves identically to the sharded default —
    // the shard fanout is pure representation.
    let sharded = run_update_heavy();
    assert_eq!(
        flat.sim().events_processed(),
        sharded.sim().events_processed()
    );
    assert_eq!(
        format!("{:?}", flat.sim().metrics()),
        format!("{:?}", sharded.sim().metrics())
    );

    // `set_compaction(true)` is captured at construction: the cluster
    // built under the switch compacts superseded AMR versions even
    // after the switch is flipped back, and the default cluster never
    // compacts.
    assert_eq!(total_compacted(&sharded), 0, "compaction off by default");
    set_compaction(true);
    assert!(ProtocolMode::current().compact_converged);
    let compacting = run_update_heavy();
    set_compaction(false);
    assert!(!ProtocolMode::current().compact_converged);
    assert!(
        total_compacted(&compacting) > 0,
        "superseded AMR versions collapse to residuals under the switch"
    );
    // Compaction is local bookkeeping only: the event sequence matches
    // the non-compacting run exactly.
    assert_eq!(
        compacting.sim().events_processed(),
        sharded.sim().events_processed()
    );
    assert_eq!(
        format!("{:?}", compacting.sim().metrics()),
        format!("{:?}", sharded.sim().metrics())
    );

    // `set_delta_coding(true)` routes overwrites of a cached key through
    // the XOR-delta stripe path. Successive values differ in one byte, so
    // the dirty window is tiny and the delta encoder must engage rather
    // than fall back.
    assert!(!mode.delta, "delta coding is opt-in");
    set_delta_coding(true);
    assert!(ProtocolMode::current().delta);
    let mut cfg = ClusterConfig::paper_default();
    cfg.workload_puts = 0;
    let mut delta_run = Cluster::build(cfg, 7);
    for i in 0..4u8 {
        let mut value = vec![0xab; 2048];
        value[17] = i;
        delta_run.put(b"hot-key", value);
        delta_run.run_to_convergence();
    }
    set_delta_coding(false);
    assert!(!ProtocolMode::current().delta);
    let metrics = delta_run.sim().metrics().clone();
    assert_eq!(
        metrics.event("deltas_encoded"),
        3,
        "puts 2-4 overwrite the cached stripe: {metrics:?}"
    );
    assert!(metrics.event("delta_bytes_saved") > 0);
    assert!(
        metrics.event("deltas_resolved") > 0,
        "fragment servers resolve windowed deltas against the stored base"
    );
    assert_eq!(metrics.event("delta_unresolvable"), 0);
    // The delta run converges to the same AMR ledger as a full-stripe run
    // of the same script.
    let report = delta_run.report(simnet::RunOutcome::PredicateSatisfied);
    assert_eq!(report.puts_succeeded, 4);
    assert_eq!(report.non_durable, 0);
}
