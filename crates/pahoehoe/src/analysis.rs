//! Global-state analysis: durability and AMR checks across all servers.
//!
//! These functions implement the *observer's* view of the definitions in
//! §2–3 of the paper, used by the experiment harness to decide when a run
//! has converged and to classify leftover object versions:
//!
//! * a version is **durable** when at least `k` distinct sibling fragments
//!   are durably stored across the fragment servers;
//! * a version is **at maximum redundancy (AMR)** when every KLS stores
//!   complete metadata for it and every sibling FS stores both complete
//!   metadata and all of its assigned sibling fragments.
//!
//! Under converged-version compaction an FS may hold only a residual record
//! of a superseded version; since compaction requires the version to have
//! settled AMR first, a residual counts as stored on both definitions.

use std::collections::BTreeSet;

use simnet::{NodeId, Simulation};

use crate::fs::Fs;
use crate::kls::Kls;
use crate::messages::Message;
use crate::topology::Topology;
use crate::types::ObjectVersion;

/// Object versions with at least `k` distinct fragments stored across the
/// given fragment servers: the versions they know of that pass
/// [`is_durable`].
pub fn durable_versions(sim: &Simulation<Message>, fss: &[NodeId]) -> BTreeSet<ObjectVersion> {
    let mut seen: BTreeSet<ObjectVersion> = BTreeSet::new();
    for &fs in fss {
        seen.extend(sim.actor::<Fs>(fs).known_versions());
    }
    seen.retain(|&ov| is_durable(sim, fss, ov));
    seen
}

/// Whether at least `k` distinct fragments of `ov` are stored across the
/// given fragment servers. A version some FS has compacted to a residual
/// counts as durable: compaction only happens after the version settled
/// AMR, and the residual is the record that its fragments were stored.
pub fn is_durable(sim: &Simulation<Message>, fss: &[NodeId], ov: ObjectVersion) -> bool {
    let mut distinct: BTreeSet<u8> = BTreeSet::new();
    let mut k = None;
    for &fs in fss {
        let actor = sim.actor::<Fs>(fs);
        if let Some(entry) = actor.entry(ov) {
            k = Some(entry.meta.policy().k);
            distinct.extend(entry.fragments.keys().copied());
        } else if actor.compacted_residual(ov).is_some() {
            return true;
        }
    }
    k.is_some_and(|k| distinct.len() >= usize::from(k))
}

/// Every object version any KLS or FS has heard of.
pub fn known_versions(
    sim: &Simulation<Message>,
    klss: &[NodeId],
    fss: &[NodeId],
) -> BTreeSet<ObjectVersion> {
    let mut out = BTreeSet::new();
    for &kls in klss {
        out.extend(sim.actor::<Kls>(kls).known_versions());
    }
    for &fs in fss {
        out.extend(sim.actor::<Fs>(fs).known_versions());
    }
    out
}

/// Whether `ov` is globally at maximum redundancy.
pub fn is_amr(sim: &Simulation<Message>, topo: &Topology, ov: ObjectVersion) -> bool {
    // Every KLS must hold complete metadata.
    let mut meta = None;
    for kls in topo.all_klss() {
        let actor = sim.actor::<Kls>(kls);
        if !actor.has_complete_meta(ov) {
            return false;
        }
        if meta.is_none() {
            meta = actor.meta(ov).cloned();
        }
    }
    let Some(meta) = meta else { return false };
    debug_assert!(meta.is_complete());
    // Every sibling FS must hold complete metadata and every fragment
    // assigned to it (or a compaction residual, which implies it did).
    meta.sibling_fss()
        .into_iter()
        .all(|fs| sim.actor::<Fs>(fs).verified(ov))
}
