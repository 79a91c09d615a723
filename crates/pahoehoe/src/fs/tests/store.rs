//! `fs::store::tests`: the packed residual record, and the store against a
//! map-based model — no actor, no cluster. Mounted from `store.rs` and kept
//! under `tests/` so the analyzer reads it as test code.

use super::*;
use crate::chain::{Chain, EXACT_FIT_CHAIN};
use crate::fs::tests::full_meta;
use crate::fs::StoredFragment;
use crate::metadata::Metadata;
use crate::protocol::FragMap;
use erasure::Fragment;
use std::mem::size_of;
use std::sync::Arc;

/// A fresh entry with complete metadata and no fragments.
fn blank() -> FragEntry {
    FragEntry {
        meta: full_meta(8),
        fragments: FragMap::new(),
    }
}

/// A stored fragment of four bytes, each `idx`.
fn stored(idx: FragmentIndex) -> StoredFragment {
    StoredFragment::new(Fragment::new(idx, vec![idx; 4]))
}

/// Per-version memory is pinned: a field that grows what every stored
/// version costs fails here. A live version's entry is its metadata handle
/// and one vector of fragments, each with its checksum; a compacted one is
/// a 16-byte record, its timestamp and its AMR time, in a chain slot of at
/// most three words. A pending version's convergence work holds an
/// in-flight recovery, with its donor collector, behind one pointer.
#[test]
fn per_version_layout_is_pinned() {
    assert!(size_of::<FragEntry>() <= size_of::<Arc<Metadata>>() + size_of::<Vec<u8>>());
    assert_eq!(size_of::<Residual>(), 16);
    assert!(size_of::<Chain<Residual>>() <= 24);
    assert!(size_of::<ConvWork>() <= 80);
}

/// A residual keeps when its version settled AMR, and a re-stamp moves
/// only that time.
#[test]
fn residual_word_round_trips_its_range_ends() {
    let ts = Timestamp::new(SimTime::from_micros(5), 3);
    let mut store = VersionStore::new();
    let older = ObjectVersion::new(Key::from_u64(1), ts);
    let newer = ObjectVersion::new(Key::from_u64(1), Timestamp::new(SimTime::from_micros(6), 3));
    let settled = SimTime::from_micros(1);
    for (ov, idx) in [(older, 64), (newer, 0)] {
        let (s, entry) = store
            .adopt(ov, SimTime::ZERO, blank)
            .expect("a new version");
        entry.fragments.insert(idx, stored(idx));
        store.settle_amr(s, settled);
        store.compact_superseded(s);
    }
    assert_eq!(store.residual(older), Some(settled));
    assert_eq!(store.residual(newer), None, "the newest version is live");
    for last in [SimTime::ZERO, SimTime::MAX] {
        store.restamp_residual(older, last);
        assert_eq!(store.residual(older), Some(last));
        assert_eq!(store.compacted_versions().collect::<Vec<_>>(), [older]);
    }
}

/// A walk resumed at a cursor starts at that version, whether the cursor
/// is stored or not, and covers only live versions from there on.
#[test]
fn live_walk_starts_at_the_cursor() {
    let version =
        |key: u64| ObjectVersion::new(Key::from_u64(key), Timestamp::new(SimTime::ZERO, 0));
    let mut store = VersionStore::new();
    for key in [2, 4, 6, 8] {
        store
            .adopt(version(key), SimTime::ZERO, blank)
            .expect("a new version");
    }
    let walk = |from| {
        store
            .live_from(from)
            .map(|s| s.ov().key)
            .collect::<Vec<_>>()
    };
    let keys = |ks: &[u64]| ks.iter().map(|&k| Key::from_u64(k)).collect::<Vec<_>>();
    assert_eq!(walk(None), keys(&[2, 4, 6, 8]));
    assert_eq!(
        walk(Some(version(4))),
        keys(&[4, 6, 8]),
        "the cursor's own version first"
    );
    assert_eq!(
        walk(Some(version(5))),
        keys(&[6, 8]),
        "a cursor between versions"
    );
    assert_eq!(walk(Some(version(9))), keys(&[]), "a cursor past the end");
}

#[test]
fn residual_record_is_packed() {
    let version = |key: u64, us: u64| {
        ObjectVersion::new(
            Key::from_u64(key),
            Timestamp::new(SimTime::from_micros(us), 0),
        )
    };
    // A short chain is exactly as long as what it holds, through the
    // store's own compaction path; a long one has at most a quarter of its
    // length, plus one, spare.
    let mut store = VersionStore::new();
    let key = Key::from_u64(7);
    let mut capacities = BTreeSet::new();
    for i in 0..=1_000u64 {
        let ov = version(7, 10 * (i + 1));
        let at = SimTime::from_micros(i);
        let (s, entry) = store
            .adopt(ov, at, blank)
            .expect("a new version is never a residual");
        entry.fragments.insert(0, stored(0));
        store.settle_amr(s, at);
        store.compact_superseded(s);
        assert_eq!(store.compacted_count() as u64, i);
        let Some(chain) = store.residuals.chains.raw(key) else {
            assert_eq!(i, 0, "the second settle compacts the first version");
            continue;
        };
        let (len, capacity) = (chain.as_slice().len(), chain.capacity());
        assert_eq!(len as u64, i);
        if len <= EXACT_FIT_CHAIN {
            assert_eq!(capacity, len, "{i} compactions");
        } else {
            assert!(
                capacity <= len + len / 4 + 1,
                "{len} residuals in {capacity}"
            );
        }
        capacities.insert(capacity);
    }
    assert!(capacities.len() <= 27, "{capacities:?}");
    assert_eq!(store.resident_slots(), 1);

    // Many keys' chains read back in object-version order, each record
    // with its own AMR time.
    let mut table = ResidualTable::default();
    for i in 0..10_000 {
        let ov = version(i as u64 % 100, i as u64 / 100);
        table.insert(ov, SimTime::from_micros(i as u64));
    }
    assert_eq!((table.chains.len(), table.chains.keys()), (10_000, 100));
    assert_eq!(
        table.versions().collect::<Vec<_>>(),
        (0..100u64)
            .flat_map(|key| (0..100u64).map(move |us| version(key, us)))
            .collect::<Vec<_>>()
    );
    for i in 0..10_000 {
        let residual = table
            .chains
            .get(version(i as u64 % 100, i as u64 / 100))
            .expect("inserted");
        assert_eq!(residual.amr_at, SimTime::from_micros(i as u64));
    }
}

// ---- the version store against a map-based model ----

/// Timestamps per key in the model test: enough for six compacted
/// versions of a key beside a live one.
const MODEL_TIMESTAMPS: usize = 8;

/// The versions the model test draws from: 3 keys x 8 timestamps.
const MODEL_VERSIONS: usize = 3 * MODEL_TIMESTAMPS;

/// The fragment indices the model test stores: low ones, one past the
/// first 64 and the last.
const MODEL_FRAGMENTS: [FragmentIndex; 6] = [0, 1, 2, 3, 64, 255];

fn model_version(i: usize) -> ObjectVersion {
    let (key, ts) = (i / MODEL_TIMESTAMPS, i % MODEL_TIMESTAMPS);
    ObjectVersion::new(
        Key::from_u64(1 + key as u64),
        Timestamp::new(SimTime::from_micros(10 * (1 + ts) as u64), 0),
    )
}

/// What every case starts with: on the first key, the residual-chain
/// shapes a random sequence reaches too rarely to rely on; then a second
/// key's insert into a slot compaction vacated. Versions settle out of
/// timestamp order, so two residuals land mid-chain, six compactions take
/// the chain past its exact-fit length, and a repeated settle re-stamps a
/// mid-chain record.
fn model_prelude() -> Vec<(u8, usize, FragmentIndex)> {
    const INSERT: u8 = 0;
    const FRAGMENT: u8 = 2;
    const SETTLE: u8 = 3;
    let held: [&[FragmentIndex]; 8] = [
        &[0, 1],
        &[0, 1],
        &[64, 255],
        &[2],
        &[0, 1],
        &[0, 1],
        &[3],
        &[],
    ];
    let mut ops = Vec::new();
    for (version, indices) in held.iter().enumerate() {
        ops.push((INSERT, version, 0));
        ops.extend(indices.iter().map(|&idx| (FRAGMENT, version, idx)));
    }
    // Chain of the first key after each settle, compaction on:
    // [] [0] [0 3] [0 1 3] [0 1 2 3] [0 1 2 3 4] [.. 5]; then the
    // re-stamp of 1 and 2; then [.. 6]. Settling 1 after 4 compacts 1
    // itself, vacating the slot its handle names.
    ops.extend([0, 3, 4, 1, 2, 5, 6, 1, 2, 7].map(|version| (SETTLE, version, 0)));
    // A second key's first version takes a slot compaction freed.
    ops.push((INSERT, MODEL_TIMESTAMPS, 0));
    ops
}

/// What the model keeps per known version: the fragment indices held,
/// and whether compaction has freed them.
#[derive(Default)]
struct ModelEntry {
    held: BTreeSet<FragmentIndex>,
    compacted: bool,
}

/// The version store as four ordered collections — the obvious
/// representation, from which [`VersionStore`]'s slab, index, pending
/// list, free list and residual table must be indistinguishable.
#[derive(Default)]
struct ModelStore {
    entries: BTreeMap<ObjectVersion, ModelEntry>,
    pending: BTreeSet<ObjectVersion>,
    amr: BTreeMap<ObjectVersion, SimTime>,
    gave_up: BTreeSet<ObjectVersion>,
}

impl ModelStore {
    fn is_live(&self, ov: ObjectVersion) -> bool {
        self.entries.get(&ov).is_some_and(|e| !e.compacted)
    }

    /// `adopt`: `None` for a compacted version, else whether the version
    /// was new.
    fn insert(&mut self, ov: ObjectVersion) -> Option<bool> {
        if self.entries.get(&ov).is_some_and(|e| e.compacted) {
            return None;
        }
        let inserted = !self.entries.contains_key(&ov);
        if inserted {
            self.entries.insert(ov, ModelEntry::default());
            self.pending.insert(ov);
        }
        Some(inserted)
    }

    /// `settle_amr`: whether pending work was displaced.
    fn settle_amr(&mut self, ov: ObjectVersion, at: SimTime) -> bool {
        self.gave_up.remove(&ov);
        self.amr.insert(ov, at);
        self.pending.remove(&ov)
    }

    /// The compaction rule, stated on its own: on the first AMR
    /// settle of `ov`, every settled-AMR version of the key older
    /// than `ov` — and `ov` itself if a newer settled-AMR version of
    /// the key exists — keeps only its settle time.
    fn compact_superseded(&mut self, ov: ObjectVersion) {
        let newer_amr = self.amr.keys().any(|v| v.key == ov.key && v.ts > ov.ts);
        for (v, entry) in &mut self.entries {
            let superseded = v.key == ov.key && (v.ts < ov.ts || (*v == ov && newer_amr));
            if superseded && self.amr.contains_key(v) {
                entry.compacted = true;
            }
        }
    }

    /// `settle_gave_up`: whether pending work was displaced.
    fn settle_gave_up(&mut self, ov: ObjectVersion) -> bool {
        self.gave_up.insert(ov);
        self.pending.remove(&ov)
    }

    fn reopen(&mut self, ov: ObjectVersion) {
        self.amr.remove(&ov);
        self.gave_up.remove(&ov);
        self.pending.insert(ov);
    }
}

/// Compares everything the store answers with the model's answer.
/// `handles` is every slot the store has handed out so far, by version:
/// each must still read its own version while that version is live and
/// nothing once compaction vacated it, whoever holds its slot now.
fn check_against_model(
    store: &mut VersionStore,
    model: &ModelStore,
    handles: &BTreeMap<ObjectVersion, Slot>,
    now: SimTime,
) -> proptest::test_runner::TestCaseResult {
    use proptest::prelude::*;

    let held = |e: &FragEntry| e.fragments.keys().copied().collect::<BTreeSet<_>>();
    for ov in (0..MODEL_VERSIONS).map(model_version) {
        let m = model.entries.get(&ov);
        let full = m.filter(|e| !e.compacted).map(|e| e.held.clone());
        let s = store.find(ov);
        prop_assert_eq!(s.is_some(), full.is_some(), "find({:?})", ov);
        prop_assert_eq!(
            s.and_then(|s| store.entry(s)).map(held),
            full,
            "entry of {:?}",
            ov
        );
        let pending = model.pending.contains(&ov);
        prop_assert_eq!(s.and_then(|s| store.work(s)).is_some(), pending);
        let residual = store.residual(ov);
        let amr_at = match s {
            Some(s) => store.amr_at(s),
            None => residual,
        };
        prop_assert_eq!(amr_at, model.amr.get(&ov).copied(), "amr_at({:?})", ov);
        let compacted = m.is_some_and(|e| e.compacted);
        prop_assert_eq!(
            residual,
            model.amr.get(&ov).copied().filter(|_| compacted),
            "residual of {:?}",
            ov
        );
        if compacted {
            let again = store.adopt(ov, now, || -> FragEntry {
                unreachable!("a compacted version is never rebuilt")
            });
            prop_assert!(again.is_none(), "{:?} was resurrected", ov);
        }
    }

    // Handles: a live version keeps the slot it was first given, and a
    // vacated handle reads as absent even where a later insert reuses its
    // slot.
    for (&ov, &h) in handles {
        prop_assert_eq!(h.ov(), ov);
        let live = model.is_live(ov);
        prop_assert_eq!(store.find(ov).filter(|&s| s == h).is_some(), live);
        let full = model
            .entries
            .get(&ov)
            .filter(|_| live)
            .map(|e| e.held.clone());
        prop_assert_eq!(store.entry(h).map(held), full, "handle of {:?}", ov);
        prop_assert_eq!(store.work(h).is_some(), live && model.pending.contains(&ov));
        prop_assert_eq!(
            store.amr_at(h).is_some(),
            live && model.amr.contains_key(&ov)
        );
    }

    // Listings: same versions, same order; listed slots resolve.
    let pending: Vec<_> = model.pending.iter().copied().collect();
    let live: Vec<_> = model
        .entries
        .keys()
        .copied()
        .filter(|&ov| model.is_live(ov))
        .collect();
    let compacted: Vec<_> = model
        .entries
        .keys()
        .copied()
        .filter(|&ov| !model.is_live(ov))
        .collect();
    let mut listed = Vec::new();
    store.collect_pending(&mut listed);
    prop_assert_eq!(
        listed.iter().map(|s| s.ov()).collect::<Vec<_>>(),
        pending.clone()
    );
    for &s in &listed {
        prop_assert!(store.work(s).is_some() && store.entry(s).is_some());
        prop_assert_eq!(store.find(s.ov()), Some(s));
    }
    store.collect_live(&mut listed);
    prop_assert_eq!(listed.iter().map(|s| s.ov()).collect::<Vec<_>>(), live);
    for &s in &listed {
        prop_assert_eq!(store.find(s.ov()), Some(s));
        prop_assert!(store.entry(s).is_some());
    }
    prop_assert_eq!(store.pending_versions().collect::<Vec<_>>(), pending);
    prop_assert_eq!(store.pending_is_empty(), model.pending.is_empty());
    prop_assert_eq!(
        store.known_versions().collect::<Vec<_>>(),
        model.entries.keys().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        store.amr_versions().collect::<Vec<_>>(),
        model.amr.keys().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        store.gave_up_versions().collect::<Vec<_>>(),
        model.gave_up.iter().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        store.compacted_versions().collect::<Vec<_>>(),
        compacted.clone()
    );
    prop_assert_eq!(store.compacted_count(), compacted.len());
    prop_assert_eq!(
        store.resident_slots() + store.compacted_count(),
        store.known_versions().count()
    );
    Ok(())
}

/// Drives the store and the model through `ops` — `(kind, version,
/// fragment index)` triples — comparing after every step. Each operation
/// resolves its version once, as an `Fs` handler does, and keeps to what
/// `Fs` does with it: it settles only versions it has adopted (a compacted
/// one is re-stamped), gives up only on pending ones, and reopens only
/// versions whose full entry it holds. Returns how many handles the store
/// had vacated and then handed the same slot to a later insert.
fn run_against_model(
    ops: &[(u8, usize, FragmentIndex)],
    compact: bool,
) -> Result<usize, proptest::test_runner::TestCaseError> {
    use proptest::prelude::*;

    let mut store = VersionStore::new();
    let mut model = ModelStore::default();
    let mut handles: BTreeMap<ObjectVersion, Slot> = BTreeMap::new();
    let mut reused = 0;
    for (step, &(kind, version, idx)) in ops.iter().enumerate() {
        let now = SimTime::from_micros(1 + step as u64);
        let ov = model_version(version);
        let s = store.find(ov);
        match kind {
            0 | 1 => {
                let got = store.adopt(ov, now, blank).map(|(s, _)| s);
                let new = got.is_some() && s.is_none();
                prop_assert_eq!(got.map(|_| new), model.insert(ov), "insert {:?}", ov);
                prop_assert!(s.is_none() || got == s, "{:?} moved", ov);
                if let Some(got) = got.filter(|_| new) {
                    reused += handles
                        .values()
                        .filter(|h| !model.is_live(h.ov()) && h.at == got.at)
                        .count();
                    handles.insert(ov, got);
                }
            }
            2 => {
                let entry = s.and_then(|s| store.entry_mut(s));
                prop_assert_eq!(entry.is_some(), model.is_live(ov));
                if let Some(entry) = entry {
                    entry.fragments.insert(idx, stored(idx));
                    model.entries.entry(ov).or_default().held.insert(idx);
                }
            }
            3..=5 if model.entries.contains_key(&ov) => {
                let first = s.is_some_and(|s| store.amr_at(s).is_none());
                prop_assert_eq!(first, !model.amr.contains_key(&ov));
                let displaced = match s {
                    Some(s) => store.settle_amr(s, now).is_some(),
                    None => {
                        store.restamp_residual(ov, now);
                        false
                    }
                };
                prop_assert_eq!(displaced, model.settle_amr(ov, now), "settle {:?}", ov);
                // What `Fs::finalize_amr` does next: the compaction may
                // take `ov` itself, vacating `s`.
                if let Some(s) = s.filter(|_| compact && first) {
                    store.compact_superseded(s);
                    model.compact_superseded(ov);
                }
            }
            6 if model.pending.contains(&ov) => {
                let s = s.expect("a pending version is live");
                let displaced = store.settle_gave_up(s).is_some();
                prop_assert_eq!(displaced, model.settle_gave_up(ov));
            }
            7 if model.is_live(ov) => {
                store.reopen(s.expect("live"), now);
                model.reopen(ov);
            }
            _ => {}
        }
        check_against_model(&mut store, &model, &handles, now)?;
    }
    Ok(reused)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// The slab store answers exactly as the map-based model does,
    /// with compaction off and on, through interleavings a cluster
    /// run rarely produces: give-up and reopen between settles,
    /// settles in any version order, slot reuse after compaction,
    /// and (by [`model_prelude`]) long residual chains
    /// filled out of order. Every handle the store gave out is checked
    /// after every step, and (by the prelude) at least one was vacated
    /// and its slot reused.
    #[test]
    fn version_store_matches_the_model(
        ops in proptest::collection::vec(
            (0u8..8, 0..MODEL_VERSIONS, 0..MODEL_FRAGMENTS.len()),
            1..160,
        ),
    ) {
        let drawn = ops
            .into_iter()
            .map(|(kind, version, nth)| (kind, version, MODEL_FRAGMENTS[nth]));
        let ops: Vec<_> = model_prelude().into_iter().chain(drawn).collect();
        run_against_model(&ops, false)?;
        let reused = run_against_model(&ops, true)?;
        proptest::prop_assert!(reused > 0, "no vacated slot was reused");
    }
}

/// A recovery timer's payload leads straight to its slot, and a stale one
/// finds nothing: another op id, a slot with no recovery, a settled
/// version, and a slot compaction vacated and another version reused.
#[test]
fn a_recovery_timer_finds_its_slot_and_a_stale_one_finds_nothing() {
    let mut sim: simnet::Simulation<crate::messages::Message> = simnet::Simulation::new(0);
    let mut recover = |store: &mut VersionStore, s: Slot, op: OpId| {
        let timeout_timer = sim.schedule_timer(NodeId::new(0), simnet::SimDuration::ZERO, 0);
        store.work_mut(s).expect("pending").recovery = Some(Box::new(Recovery {
            op,
            phase: RecoveryPhase::Fetching,
            reports: BTreeMap::new(),
            donors: Donors::default(),
            wait_timer: None,
            timeout_timer,
        }));
    };
    let version = |key: u64, us: u64| {
        ObjectVersion::new(
            Key::from_u64(key),
            Timestamp::new(SimTime::from_micros(us), 0),
        )
    };
    let mut store = VersionStore::new();
    let adopt =
        |store: &mut VersionStore, ov| store.adopt(ov, SimTime::ZERO, blank).expect("new").0;
    let (old, new) = (
        adopt(&mut store, version(1, 5)),
        adopt(&mut store, version(1, 6)),
    );
    recover(&mut store, old, 7);
    let timer = VersionStore::recovery_timer(old, 7);
    assert_eq!(store.find_recovery(timer), Some(old));
    assert_eq!(
        store.find_recovery(VersionStore::recovery_timer(old, 8)),
        None
    );
    assert_eq!(
        store.find_recovery(VersionStore::recovery_timer(new, 7)),
        None
    );
    assert_eq!(
        store.find_recovery(timer + (2 << RECOVERY_OP_BITS)),
        None,
        "past the slab"
    );

    // Settled: the recovery went with the pending work.
    assert!(store.settle_amr(old, SimTime::ZERO).is_some());
    store.compact_superseded(old);
    assert_eq!(store.find_recovery(timer), None);
    // Compacted, and the slot reused by another version's recovery.
    store.settle_amr(new, SimTime::ZERO);
    store.compact_superseded(new);
    assert_eq!(store.compacted_count(), 1);
    let other = adopt(&mut store, version(2, 5));
    assert_eq!(
        store.slab_shape(),
        (2, 0),
        "the new version took the vacated slot"
    );
    recover(&mut store, other, 9);
    assert_eq!(store.find_recovery(timer), None);
    assert_eq!(
        store.find_recovery(VersionStore::recovery_timer(other, 9)),
        Some(other)
    );
}
