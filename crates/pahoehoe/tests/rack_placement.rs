//! Property-based and differential tests for rack-aware fragment
//! placement: stripes spread across failure domains whenever the rack
//! count allows it, degrade to max-spread otherwise, and the placement
//! choice never changes what a get decodes.

use std::collections::{BTreeMap, BTreeSet};

use pahoehoe::cluster::{Cluster, ClusterConfig};
use pahoehoe::kls::Kls;
use pahoehoe::policy::Policy;
use pahoehoe::topology::{DataCenterId, Topology};
use pahoehoe::types::{Key, ObjectVersion, Timestamp};
use std::sync::Arc;

use proptest::prelude::*;
use simnet::{NodeId, SimTime};

/// Single-DC topology: one KLS (id 0) and `fs_count` FSs (ids 1..) split
/// into `racks` racks by position.
fn topo(fs_count: usize, racks: usize) -> Arc<Topology> {
    let fss: Vec<NodeId> = (1..=fs_count as u32).map(NodeId::new).collect();
    Topology::with_racks(vec![(vec![NodeId::new(0)], fss)], racks)
}

fn ov_for(seed: u64) -> ObjectVersion {
    ObjectVersion {
        key: Key::from_u64(seed),
        ts: Timestamp::new(SimTime::from_micros(1_000_000 + seed), 0),
    }
}

proptest! {
    /// With racks >= stripe width, no two fragments share a rack; with
    /// fewer racks, the deal stays maximally spread (per-rack counts
    /// differ by at most one and every rack is used).
    #[test]
    fn rack_aware_placement_spreads_across_failure_domains(
        fs_count in 1usize..=8,
        racks in 1usize..=8,
        frags in 2u8..=12,
        seed in 0u64..500,
    ) {
        let k = (frags / 2).max(1);
        let policy = Policy::new(k, frags, 1, 12);
        let topo = topo(fs_count, racks);
        let dc = DataCenterId::new(0);
        let locs = Kls::which_locs(&topo, dc, ov_for(seed), &policy);
        prop_assert_eq!(locs.len(), usize::from(policy.frags_per_dc));

        // No (fs, disk) slot is used twice.
        let slots: BTreeSet<(NodeId, u8)> =
            locs.iter().map(|l| (l.fs(), l.disk())).collect();
        prop_assert_eq!(slots.len(), locs.len());

        let effective = racks.min(fs_count);
        let mut per_rack: BTreeMap<usize, usize> = BTreeMap::new();
        for loc in &locs {
            let rack = topo.rack_of(dc, loc.fs()).expect("placement targets FSs");
            prop_assert!(rack < effective);
            *per_rack.entry(rack).or_insert(0) += 1;
        }
        if effective >= locs.len() {
            // Enough failure domains: all fragments in distinct racks.
            prop_assert!(per_rack.values().all(|&c| c == 1));
        } else {
            // Degraded mode: every rack is used, loads differ by <= 1.
            prop_assert_eq!(per_rack.len(), effective);
            let max = per_rack.values().max().copied().unwrap_or(0);
            let min = per_rack.values().min().copied().unwrap_or(0);
            prop_assert!(max - min <= 1, "max-spread: {:?}", per_rack);
        }
    }

    /// Placement is a pure function of (topology, ov, policy).
    #[test]
    fn rack_aware_placement_is_deterministic(
        fs_count in 1usize..=6,
        racks in 1usize..=4,
        seed in 0u64..200,
    ) {
        let policy = Policy::new(4, 6, 1, 12);
        let topo = topo(fs_count, racks);
        let dc = DataCenterId::new(0);
        let a = Kls::which_locs(&topo, dc, ov_for(seed), &policy);
        let b = Kls::which_locs(&topo, dc, ov_for(seed), &policy);
        prop_assert_eq!(a, b);
    }
}

/// Rack-aware and legacy placement store different layouts but decode
/// identical values: the placement mode is invisible to readers.
#[test]
fn rack_aware_and_legacy_placement_decode_identical_values() {
    let run = |racks: Option<usize>| {
        let mut cfg = ClusterConfig::paper_default();
        cfg.racks_per_dc = racks;
        let mut cluster = Cluster::build(cfg, 99);
        for i in 0..8u8 {
            cluster.put(
                format!("blob-{i}").as_bytes(),
                vec![i ^ 0x5A; 4096 + i as usize],
            );
        }
        cluster.run_to_convergence();
        (0..8u8)
            .map(|i| cluster.get(format!("blob-{i}").as_bytes()))
            .collect::<Vec<_>>()
    };
    let legacy = run(None);
    let rack_aware = run(Some(3));
    assert_eq!(legacy, rack_aware);
    for (i, v) in legacy.iter().enumerate() {
        let i = i as u8;
        assert_eq!(v.as_deref(), Some(&vec![i ^ 0x5A; 4096 + i as usize][..]));
    }
}
