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
//! Under converged-version compaction an FS may hold only a residual of a
//! superseded version: it counts as stored for AMR (which compaction
//! requires first), and as durable only while a newer version of its key is.

use std::collections::BTreeSet;

use simnet::{NodeId, Simulation};

use crate::fs::Fs;
use crate::kls::Kls;
use crate::messages::Message;
use crate::protocol::FragMask;
use crate::topology::Topology;
use crate::types::ObjectVersion;

/// Object versions that pass [`is_durable`], of those the given fragment
/// servers know: one pass over them, newest first, so a compacted version
/// comes after every newer version of its key.
pub fn durable_versions(sim: &Simulation<Message>, fss: &[NodeId]) -> BTreeSet<ObjectVersion> {
    let mut seen: BTreeSet<ObjectVersion> = BTreeSet::new();
    for &fs in fss {
        seen.extend(sim.actor::<Fs>(fs).known_versions());
    }
    let mut newer = None; // the key of the last version walked that holds `k`
    seen.into_iter()
        .rev()
        .filter(|&ov| {
            if newer == Some(ov.key) && compacted(sim, fss, ov) {
                return true;
            }
            let holds = holds_k(sim, fss, ov);
            newer = if holds { Some(ov.key) } else { newer };
            holds
        })
        .collect()
}

/// Whether at least `k` distinct live fragments of `ov` are stored across
/// the given fragment servers, or some FS compacted `ov` and a strictly
/// newer version of its key has `k`: a compacted version's own fragments
/// are freed.
pub fn is_durable(sim: &Simulation<Message>, fss: &[NodeId], ov: ObjectVersion) -> bool {
    holds_k(sim, fss, ov)
        || (compacted(sim, fss, ov)
            && fss
                .iter()
                .flat_map(|&fs| sim.actor::<Fs>(fs).live_versions_of(ov.key))
                .any(|v| v.ts > ov.ts && holds_k(sim, fss, v)))
}

/// The distinct fragment indices of `ov` stored live across `fss`: the
/// count the paper's durability (§2–3) compares with `k`. A compacted
/// residual holds none.
pub fn live_fragments(sim: &Simulation<Message>, fss: &[NodeId], ov: ObjectVersion) -> FragMask {
    let mut live = FragMask::new();
    for &fs in fss {
        if let Some(entry) = sim.actor::<Fs>(fs).entry(ov) {
            for &idx in entry.fragments.keys() {
                live.insert(idx);
            }
        }
    }
    live
}

/// Whether `k` distinct live fragments of `ov` are stored across `fss`,
/// `k` read from the metadata of an FS that holds `ov`.
fn holds_k(sim: &Simulation<Message>, fss: &[NodeId], ov: ObjectVersion) -> bool {
    let live = live_fragments(sim, fss, ov).count();
    live > 0
        && fss
            .iter()
            .find_map(|&fs| Some(sim.actor::<Fs>(fs).entry(ov)?.meta.policy().k))
            .is_some_and(|k| live >= usize::from(k))
}

/// Whether some FS of `fss` compacted `ov` to a residual.
fn compacted(sim: &Simulation<Message>, fss: &[NodeId], ov: ObjectVersion) -> bool {
    fss.iter()
        .any(|&fs| sim.actor::<Fs>(fs).compacted_residual(ov).is_some())
}

/// Every object version any KLS or FS has heard of.
pub fn known_versions(
    sim: &Simulation<Message>,
    klss: &[NodeId],
    fss: &[NodeId],
) -> BTreeSet<ObjectVersion> {
    let mut out = BTreeSet::new();
    for_each_known_version(sim, klss, fss, &[], |ov| {
        out.insert(ov);
    });
    out
}

/// Calls `visit` once for every object version any KLS or FS has heard of
/// or any of the `recorded` sets (a client's, say) holds, without building
/// their union: a holder — each KLS, then each FS, then each set — passes
/// on a version only if no holder before it knows that version.
pub fn for_each_known_version(
    sim: &Simulation<Message>,
    klss: &[NodeId],
    fss: &[NodeId],
    recorded: &[&BTreeSet<ObjectVersion>],
    mut visit: impl FnMut(ObjectVersion),
) {
    let klss: Vec<&Kls> = klss.iter().map(|&id| sim.actor::<Kls>(id)).collect();
    let fss: Vec<&Fs> = fss.iter().map(|&id| sim.actor::<Fs>(id)).collect();
    // Whether one of the first `n` KLSs, FSs or sets knows `ov`.
    let in_klss = |n: usize, ov| klss.iter().take(n).any(|kls| kls.meta(ov).is_some());
    let in_fss = |n: usize, ov| {
        fss.iter()
            .take(n)
            .any(|fs| fs.entry(ov).is_some() || fs.compacted_residual(ov).is_some())
    };
    let in_sets = |n: usize, ov| recorded.iter().take(n).any(|set| set.contains(&ov));
    for (i, kls) in klss.iter().enumerate() {
        kls.known_versions()
            .filter(|&ov| !in_klss(i, ov))
            .for_each(&mut visit);
    }
    for (i, fs) in fss.iter().enumerate() {
        fs.known_versions()
            .filter(|&ov| !in_klss(klss.len(), ov) && !in_fss(i, ov))
            .for_each(&mut visit);
    }
    for (i, set) in recorded.iter().enumerate() {
        set.iter()
            .copied()
            .filter(|&ov| !in_klss(klss.len(), ov) && !in_fss(fss.len(), ov) && !in_sets(i, ov))
            .for_each(&mut visit);
    }
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
