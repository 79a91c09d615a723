//! The analytic *Idealized* implementation of Figure 5.
//!
//! The paper compares its protocols against "an Idealized implementation
//! … one that knows this is a failure-free execution and so can send the
//! absolute minimum number of messages to reach AMR", calculated
//! analytically (§5.2):
//!
//! * one KLS per data center receives a locations request, which elicits
//!   one response;
//! * the proxy sends each of the four KLSs the chosen locations, to which
//!   each sends one response;
//! * it also sends each of the six FSs two store-fragment requests (one
//!   per sibling fragment), for which each FS sends **one** response and
//!   receives an AMR indication.
//!
//! Each store-fragment request carries the complete metadata, so each AMR
//! indication is priced as the protocol's own indication to an FS known
//! to hold it complete: the object version alone.
//!
//! We reproduce that calculation with the same wire-size model the
//! simulated protocols use, so byte totals are comparable.

use std::collections::BTreeMap;

use pahoehoe::cluster::ClusterLayout;
use pahoehoe::kls::Kls;
use pahoehoe::messages::Message;
use pahoehoe::metadata::Metadata;
use pahoehoe::policy::Policy;
use pahoehoe::topology::{DataCenterId, Topology};
use pahoehoe::types::{Key, ObjectVersion, Timestamp};
use simnet::{Payload, SimTime};
use stats::Accumulator;

use crate::runner::ConfigResult;

/// Per-kind `(count, bytes)` for one idealized put.
pub fn per_put(
    layout: ClusterLayout,
    policy: Policy,
    value_len: usize,
) -> BTreeMap<&'static str, (u64, u64)> {
    let topo = Topology::new(
        (0..layout.dcs)
            .map(|dc| {
                (
                    (0..layout.kls_per_dc).map(|i| layout.kls(dc, i)).collect(),
                    (0..layout.fs_per_dc).map(|i| layout.fs(dc, i)).collect(),
                )
            })
            .collect(),
    );
    let ov = ObjectVersion::new(Key::from_u64(1), Timestamp::new(SimTime::ZERO, 0));
    let home = DataCenterId::new(0);
    let mut meta = Metadata::new(policy, home, value_len);
    for dc in topo.dc_ids() {
        meta.add_dc_locations(dc, Kls::which_locs(&topo, dc, ov, &policy));
    }
    assert!(meta.is_complete());
    let meta = std::sync::Arc::new(meta);

    let frag_len = value_len.div_ceil(usize::from(policy.k));
    let fragment = erasure::Fragment::new(0, vec![0u8; frag_len]);

    let klss = topo.all_klss().count() as u64;
    let dcs = layout.dcs as u64;
    let fss = topo.all_fss().count() as u64;
    let frags = u64::from(policy.n);

    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut add = |msg: Message, count: u64| {
        let e = out.entry(msg.kind()).or_insert((0, 0));
        e.0 += count;
        e.1 += count * msg.wire_size() as u64;
    };

    // One locations round trip per data center.
    add(
        Message::DecideLocs {
            ov,
            policy,
            home_dc: home,
        },
        dcs,
    );
    add(
        Message::DecideLocsReply {
            ov,
            dc: home,
            locations: meta.dc_locations(home).expect("complete").to_vec(),
        },
        dcs,
    );
    // Chosen locations to every KLS, one response each.
    add(
        Message::StoreMetadata {
            ov,
            meta: meta.clone(),
        },
        klss,
    );
    add(Message::StoreMetadataReply { ov, complete: true }, klss);
    // Every fragment stored once; one response per FS; one AMR indication
    // per FS.
    add(
        Message::StoreFragment {
            ov,
            meta: meta.clone(),
            fragment: fragment.clone(),
        },
        frags,
    );
    add(Message::StoreFragmentReply { ov, fragment: 0 }, fss);
    add(Message::AmrIndication { ov, meta: None }, fss);
    out
}

/// The idealized bound as a [`ConfigResult`] for `puts` puts, so it can
/// sit alongside measured configurations in the Figure 5 table.
pub fn as_config_result(
    layout: ClusterLayout,
    policy: Policy,
    value_len: usize,
    puts: u64,
) -> ConfigResult {
    let per = per_put(layout, policy, value_len);
    let mut kind_counts = BTreeMap::new();
    let mut kind_bytes = BTreeMap::new();
    let mut total_c = 0u64;
    let mut total_b = 0u64;
    for (k, (c, b)) in &per {
        let (c, b) = (c * puts, b * puts);
        kind_counts.insert(*k, constant(c as f64));
        kind_bytes.insert(*k, constant(b as f64));
        total_c += c;
        total_b += b;
    }
    ConfigResult {
        label: "Idealized".to_string(),
        kind_counts,
        kind_bytes,
        kind_drops: BTreeMap::new(),
        event_counts: BTreeMap::new(),
        dropped_fault: constant(0.0),
        dropped_random: constant(0.0),
        total_count: constant(total_c as f64),
        total_bytes: constant(total_b as f64),
        sim_secs: constant(0.0),
        puts_attempted: constant(puts as f64),
        excess_amr: constant(0.0),
        non_durable: constant(0.0),
        all_converged: true,
    }
}

fn constant(v: f64) -> stats::Summary {
    let acc: Accumulator = [v].into_iter().collect();
    acc.summary()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_layout() -> ClusterLayout {
        ClusterLayout {
            dcs: 2,
            kls_per_dc: 2,
            fs_per_dc: 3,
        }
    }

    #[test]
    fn matches_the_papers_arithmetic() {
        // 2+2 decide, 4+4 metadata, 12 fragment stores + 6 replies,
        // 6 indications = 36 messages per put.
        let per = per_put(paper_layout(), Policy::paper_default(), 100 * 1024);
        let total: u64 = per.values().map(|(c, _)| c).sum();
        assert_eq!(total, 36);
        assert_eq!(per["DecideLocsReq"].0, 2);
        assert_eq!(per["DecideLocsRep"].0, 2);
        assert_eq!(per["StoreMetadataReq"].0, 4);
        assert_eq!(per["StoreMetadataRep"].0, 4);
        assert_eq!(per["StoreFragmentReq"].0, 12);
        assert_eq!(per["StoreFragmentRep"].0, 6);
        assert_eq!(per["AMRIndication"].0, 6);
    }

    #[test]
    fn bytes_are_dominated_by_fragments() {
        let per = per_put(paper_layout(), Policy::paper_default(), 100 * 1024);
        let frag_bytes = per["StoreFragmentReq"].1;
        let total: u64 = per.values().map(|(_, b)| b).sum();
        // 12 x 25 KiB of fragment payload ≈ 300 KiB.
        assert!(frag_bytes > 12 * 25 * 1024);
        assert!(frag_bytes as f64 / total as f64 > 0.95);
    }

    #[test]
    fn config_result_scales_with_put_count() {
        let one = as_config_result(paper_layout(), Policy::paper_default(), 100 * 1024, 1);
        let hundred = as_config_result(paper_layout(), Policy::paper_default(), 100 * 1024, 100);
        assert_eq!(one.total_count.mean * 100.0, hundred.total_count.mean);
        assert_eq!(hundred.total_count.mean, 3600.0);
        assert!(hundred.all_converged);
    }
}
