//! The fragment store and the convergence store beside it (§3.1):
//! [`VersionStore`] holds every version's [`FragEntry`] and whether it is
//! pending (with its [`ConvWork`]), settled AMR or given up, and shrinks
//! settled, superseded versions to [`Residual`]s (DESIGN.md §8.7). It
//! sends nothing and sets no timer.

use std::collections::{BTreeMap, BTreeSet};

use erasure::FragmentIndex;
use simnet::{NodeId, SimTime, TimerId};

use super::FragEntry;
use crate::chain::{Chains, Stamped};
use crate::messages::OpId;
use crate::protocol::Donors;
use crate::types::{Key, ObjectVersion, Timestamp};

/// Bits of a recovery timer's payload that carry its op id; the slab index
/// sits above them ([`VersionStore::recovery_timer`]).
const RECOVERY_OP_BITS: u32 = 24;

/// The op id bits a recovery timer carries.
const RECOVERY_OP_MASK: u64 = (1 << RECOVERY_OP_BITS) - 1;

/// Convergence bookkeeping for one not-yet-AMR object version.
#[derive(Debug)]
pub(super) struct ConvWork {
    /// When this FS first learned of the version, or re-pended it after
    /// scrub / disk loss. Drives `give_up_age` only: a three-month-old
    /// version re-pended today gets its full retry budget instead of being
    /// abandoned on arrival. `min_age` does *not* read this — it reads the
    /// version's own age (`now − ov.ts`, see `Fs::run_round`), so a
    /// version waits it once, not once more at every FS that adopts it late.
    pub(super) created: SimTime,
    /// Unsuccessful steps so far (drives exponential backoff).
    pub(super) attempts: u32,
    /// Next time a step may run.
    pub(super) next_eligible: SimTime,
    /// KLSs that verified during the last verification step.
    pub(super) kls_ok: BTreeSet<NodeId>,
    /// Sibling FSs that verified during the last verification step (or a
    /// re-ask since).
    pub(super) fs_ok: BTreeSet<NodeId>,
    /// What the latest step awaits.
    pub(super) step: Step,
    /// In-flight fragment recovery, if any: boxed, since every pending
    /// version carries this field and few are recovering.
    pub(super) recovery: Option<Box<Recovery>>,
}

impl ConvWork {
    fn new(created: SimTime) -> Self {
        ConvWork {
            created,
            attempts: 0,
            next_eligible: created,
            kls_ok: BTreeSet::new(),
            fs_ok: BTreeSet::new(),
            step: Step::Closed,
            recovery: None,
        }
    }
}

/// What a version's latest convergence step awaits (`Fs::step`).
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(super) enum Step {
    /// No verification answers: no step has run, or the latest repaired
    /// metadata or started a recovery (and cleared `kls_ok` / `fs_ok`).
    Closed,
    /// A verification step's answers, all fresh: every KLS and sibling
    /// verifying settles AMR.
    Verifying,
    /// A re-ask of the silent siblings alone (batched rounds): the other
    /// answers are kept from the last verification step, so they settle
    /// nothing, and a verified answer runs a full step at once.
    Reasking,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(super) enum RecoveryPhase {
    /// Sibling mode: waiting for need-reports from siblings.
    AwaitingReports,
    /// Fetching fragments.
    Fetching,
}

#[derive(Debug)]
pub(super) struct Recovery {
    pub(super) op: OpId,
    pub(super) phase: RecoveryPhase,
    /// Sibling need-reports: fs → (has, missing).
    pub(super) reports: BTreeMap<NodeId, (Vec<FragmentIndex>, Vec<FragmentIndex>)>,
    /// The fragments asked of remote holders and their answers.
    pub(super) donors: Donors,
    pub(super) wait_timer: Option<TimerId>,
    pub(super) timeout_timer: TimerId,
}

/// Lifecycle state of one stored object version. Exactly one of these
/// holds at any time (a stored version is being converged, settled AMR,
/// or abandoned), which is what lets the store keep it as a single tagged
/// field.
#[derive(Debug)]
enum VersionState {
    /// Still being converged.
    Pending(Box<ConvWork>),
    /// Verified (or indicated) AMR at the recorded time.
    Amr(SimTime),
    /// Abandoned after `give_up_age`.
    GaveUp,
}

/// One dense per-version record: fragment entry and lifecycle state side
/// by side in one slab slot.
#[derive(Debug)]
struct VersionSlot {
    ov: ObjectVersion,
    entry: FragEntry,
    state: VersionState,
}

/// All that converged-version compaction keeps of a version: it was
/// settled AMR *and* superseded by a newer settled-AMR version of the same
/// key, so its fragment bytes, checksums, metadata handle, slab slot and
/// index entry have all been released. One two-word record in its key's
/// chain of a [`ResidualTable`]: the key is the chain's, the words are the
/// version's timestamp and when it settled AMR. Which fragments it held is
/// not kept: they are freed, and no reply may claim them.
#[derive(Debug, Clone, Copy)]
struct Residual {
    ts: Timestamp,
    /// When the version settled AMR (re-stamped by a later indication, as
    /// a full entry's is).
    amr_at: SimTime,
}

impl Stamped for Residual {
    fn ts(&self) -> Timestamp {
        self.ts
    }
}

/// What is left of an FS's compacted versions: per key, a chain of
/// [`Residual`]s sorted by timestamp (the layout the KLS keeps its
/// metadata in, [`Chains`]).
#[derive(Debug, Default)]
struct ResidualTable {
    chains: Chains<Residual>,
}

impl ResidualTable {
    /// The timestamp of `key`'s newest compacted version.
    fn newest(&self, key: Key) -> Option<Timestamp> {
        self.chains.chain(key).last().map(Residual::ts)
    }

    /// Every compacted version, in object-version order.
    fn versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.chains
            .iter()
            .map(|(key, residual)| ObjectVersion::new(key, residual.ts()))
    }

    /// Records that `ov`, settled AMR at `amr_at`, was compacted. A
    /// version is compacted once: it has no record yet.
    fn insert(&mut self, ov: ObjectVersion, amr_at: SimTime) {
        let (inserted, _) = self
            .chains
            .get_or_insert_with(ov, || Residual { ts: ov.ts, amr_at });
        debug_assert!(inserted, "{ov:?} compacted twice");
    }
}

/// A live version's place in the index: its timestamp (the key is its
/// chain's) and its slab slot. One record per live version in its key's
/// chain of [`VersionStore::index`], 16 B.
#[derive(Debug, Clone, Copy)]
struct Live {
    ts: Timestamp,
    at: u32,
}

impl Stamped for Live {
    fn ts(&self) -> Timestamp {
        self.ts
    }
}

/// The occupied slab slot `s`, for a slot id taken from the index or the
/// pending list: those only name occupied slots, because compaction drops
/// a slot's index record as it vacates the slot and only vacates settled
/// (hence not pending) slots.
fn live(slots: &[Option<VersionSlot>], s: u32) -> &VersionSlot {
    // lint:allow(panic-path): index and pending entries always name occupied slots
    slots[s as usize].as_ref().expect("occupied slot")
}

/// Mutable variant of [`live`].
fn live_mut(slots: &mut [Option<VersionSlot>], s: u32) -> &mut VersionSlot {
    // lint:allow(panic-path): index and pending entries always name occupied slots
    slots[s as usize].as_mut().expect("occupied slot")
}

/// A live version's place in the store. [`VersionStore::find`] and
/// [`VersionStore::adopt`] resolve a version to one, once per message, and
/// the listings hand them out; every other accessor takes one. Only the
/// store makes a `Slot`. It names its version as well as its slab slot, and
/// every access checks that the slot still holds that version, so a handle
/// whose slot compaction vacated reads as absent, before and after a later
/// insert reuses the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Slot {
    at: u32,
    ov: ObjectVersion,
}

impl Slot {
    /// The version this handle was resolved for.
    pub(super) fn ov(self) -> ObjectVersion {
        self.ov
    }
}

/// Per-version storage for an FS.
///
/// Every *live* version — one that still holds its fragments — sits in a
/// slab slot. The index is a hash-addressed table keyed by [`Key`]
/// ([`Chains`]) whose value is that key's live `(timestamp, slot)` list,
/// sorted by timestamp and held inline when the key has one live version;
/// a sorted list of pending slot indices is what `run_round` walks
/// without any lookups. A handler probes the index once per message,
/// through [`VersionStore::find`] or [`VersionStore::adopt`], and reaches
/// the version by its [`Slot`] from then on. Versions are never
/// forgotten, but a compacted one shrinks to a 16-byte [`Residual`] in its
/// key's chain of the [`ResidualTable`] — a second table, so that settling
/// a hot key walks its few live versions, not every residual it has left —
/// and gives its slot and index record back, so slab, index, pending list
/// and every walk over them are O(live versions), not O(versions ever
/// stored). A walk across keys (the live listings, the scrub cursor's
/// [`VersionStore::live_from`]) sorts the keys it visits, so it comes out
/// in object-version order whatever the table's layout.
#[derive(Debug)]
pub(super) struct VersionStore {
    /// `None` marks a vacated slot, listed in `free`.
    slots: Vec<Option<VersionSlot>>,
    /// Slots vacated by compaction, reused before the slab grows.
    free: Vec<u32>,
    /// Each live version's slot: per key, a chain of [`Live`] records
    /// sorted by timestamp, so a key's live versions are one slice.
    index: Chains<Live>,
    /// Slot indices of pending versions, sorted by object version so
    /// rounds step versions in version order.
    pending: Vec<u32>,
    /// What is left of each compacted version. Consulted when the index
    /// misses: a version is in the index or here, never both. Compacting
    /// takes a newer settled version of the key, so the newest version a
    /// key has is never here: every residual has a newer version of its
    /// key in the index. Kept apart from the index: one chain per key
    /// holding both would make every settle of a hot key walk all its
    /// residuals.
    residuals: ResidualTable,
}

impl VersionStore {
    pub(super) fn new() -> Self {
        VersionStore {
            slots: Vec::new(),
            free: Vec::new(),
            index: Chains::default(),
            pending: Vec::new(),
            residuals: ResidualTable::default(),
        }
    }

    /// The slot of `ov`, if it is live.
    // lint:hot
    pub(super) fn find(&self, ov: ObjectVersion) -> Option<Slot> {
        self.index.get(ov).map(|live| Slot { at: live.at, ov })
    }

    /// `s`'s record, if its slot still holds the version `s` names.
    // lint:hot
    fn held(&self, s: Slot) -> Option<&VersionSlot> {
        let slot = self.slots.get(s.at as usize)?.as_ref()?;
        (slot.ov == s.ov).then_some(slot)
    }

    /// Mutable variant of [`VersionStore::held`].
    // lint:hot
    fn held_mut(&mut self, s: Slot) -> Option<&mut VersionSlot> {
        let slot = self.slots.get_mut(s.at as usize)?.as_mut()?;
        (slot.ov == s.ov).then_some(slot)
    }

    pub(super) fn entry(&self, s: Slot) -> Option<&FragEntry> {
        Some(&self.held(s)?.entry)
    }

    pub(super) fn entry_mut(&mut self, s: Slot) -> Option<&mut FragEntry> {
        Some(&mut self.held_mut(s)?.entry)
    }

    /// The convergence work for `s`'s version, if it is pending.
    pub(super) fn work(&self, s: Slot) -> Option<&ConvWork> {
        match &self.held(s)?.state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    pub(super) fn work_mut(&mut self, s: Slot) -> Option<&mut ConvWork> {
        match &mut self.held_mut(s)?.state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    /// When `s`'s version settled AMR, if it has.
    pub(super) fn amr_at(&self, s: Slot) -> Option<SimTime> {
        match self.held(s)?.state {
            VersionState::Amr(at) => Some(at),
            _ => None,
        }
    }

    /// When compacted `ov` settled AMR, if it has been compacted.
    pub(super) fn residual(&self, ov: ObjectVersion) -> Option<SimTime> {
        Some(self.residuals.chains.get(ov)?.amr_at)
    }

    /// Re-stamps compacted `ov`'s AMR time, as a repeated settle re-stamps
    /// a live version's.
    pub(super) fn restamp_residual(&mut self, ov: ObjectVersion, at: SimTime) {
        if let Some(residual) = self.residuals.chains.get_mut(ov) {
            residual.amr_at = at;
        }
    }

    /// Number of compacted residual records.
    pub(super) fn compacted_count(&self) -> usize {
        self.residuals.chains.len()
    }

    /// Slab slots in use: one per version that still holds a full entry.
    pub(super) fn resident_slots(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The slab's length and how much of it is on the free list, for the
    /// actor test that watches a compacted version's slot being reused.
    #[cfg(test)]
    pub(super) fn slab_shape(&self) -> (usize, usize) {
        (self.slots.len(), self.free.len())
    }

    /// Incremental compaction run on the *first* settle of `s`'s version
    /// `ov`: compacts `ov` itself when a strictly newer settled-AMR version
    /// of its key exists, and every settled-AMR version strictly older than
    /// `ov` — fragments, checksums and the metadata handle are dropped,
    /// the slot and its index entry are freed, and a [`Residual`] is all
    /// that stays.
    ///
    /// Running this on every first settle maintains the invariant that
    /// *every settled version superseded by a newer settled version is
    /// compacted*. Each version is compacted exactly once, and because a
    /// compacted version leaves the index, the walk below only meets a
    /// key's live versions — the newest settled one plus the bounded
    /// window of still-unsettled interleaved ones — so the amortized cost
    /// per settle is O(1) however many versions the key has had.
    pub(super) fn compact_superseded(&mut self, s: Slot) {
        let VersionStore {
            slots,
            free,
            index,
            residuals,
            ..
        } = self;
        let ov = s.ov;
        let amr_at = |at: u32| match live(slots, at).state {
            VersionState::Amr(t) => Some(t),
            _ => None,
        };
        // One walk over the key's live versions. Everything strictly older
        // than the just-settled `ov` is superseded; `ov` is superseded iff
        // any strictly newer version of its key has settled (newer
        // unsettled versions are the in-flight window). A newer residual
        // counts: it settled before it was compacted, and the newest one
        // ends the key's chain.
        let mut victims: Vec<(ObjectVersion, u32, SimTime)> = Vec::new();
        let (mut newer_live, mut newer_amr) = (false, false);
        for live in index.chain(ov.key) {
            let v = ObjectVersion::new(ov.key, live.ts);
            if v < ov {
                victims.extend(amr_at(live.at).map(|t| (v, live.at, t)));
            } else if v > ov {
                newer_live = true;
                newer_amr |= amr_at(live.at).is_some();
            }
        }
        let superseded =
            newer_live && (newer_amr || residuals.newest(ov.key).is_some_and(|ts| ts > ov.ts));
        if superseded {
            victims.extend(amr_at(s.at).map(|t| (ov, s.at, t)));
        }
        for (victim, at, settled) in victims {
            residuals.insert(victim, settled);
            index.remove(victim);
            // lint:allow(panic-path): `live` read this slot in the walk above
            slots[at as usize] = None;
            free.push(at);
        }
    }

    pub(super) fn pending_is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Fills `out` with the pending versions' slots in object-version
    /// order, reusing `out`'s capacity.
    // lint:hot
    pub(super) fn collect_pending(&self, out: &mut Vec<Slot>) {
        out.clear();
        out.extend(self.pending.iter().map(|&at| Slot {
            at,
            ov: live(&self.slots, at).ov,
        }));
    }

    /// Fills `out` with the slots of every version that still holds a full
    /// entry — compacted versions have no bytes to scrub, lose or report —
    /// in object-version order.
    pub(super) fn collect_live(&self, out: &mut Vec<Slot>) {
        out.clear();
        out.extend(self.live_from(None));
    }

    /// The slots of the versions that still hold a full entry, in
    /// object-version order from `from` on (from the first with `None`).
    /// The walk sorts the keys from `from`'s on, so a resumed walk costs a
    /// sort of the keys it has left, not of the whole store.
    pub(super) fn live_from(&self, from: Option<ObjectVersion>) -> impl Iterator<Item = Slot> + '_ {
        self.index.iter_from(from).map(|(key, live)| Slot {
            at: live.at,
            ov: ObjectVersion::new(key, live.ts),
        })
    }

    /// `key`'s live versions, oldest first.
    pub(super) fn live_versions_of(&self, key: Key) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.index
            .chain(key)
            .iter()
            .map(move |live| ObjectVersion::new(key, live.ts))
    }

    pub(super) fn pending_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.pending.iter().map(|&s| live(&self.slots, s).ov)
    }

    /// Live versions matching `keep` plus the `compacted` ones, in global
    /// object-version order (inspection paths only).
    fn sorted_versions_where(
        &self,
        compacted: impl Iterator<Item = ObjectVersion>,
        keep: impl Fn(&VersionSlot) -> bool,
    ) -> std::vec::IntoIter<ObjectVersion> {
        let mut out: Vec<ObjectVersion> = self
            .live_from(None)
            .filter(|s| keep(live(&self.slots, s.at)))
            .map(Slot::ov)
            .chain(compacted)
            .collect();
        // Two sorted runs: the stable sort merges them in one pass.
        out.sort();
        out.into_iter()
    }

    pub(super) fn amr_versions(&self) -> std::vec::IntoIter<ObjectVersion> {
        self.sorted_versions_where(self.residuals.versions(), |slot| {
            matches!(slot.state, VersionState::Amr(_))
        })
    }

    pub(super) fn gave_up_versions(&self) -> std::vec::IntoIter<ObjectVersion> {
        self.sorted_versions_where(std::iter::empty(), |slot| {
            matches!(slot.state, VersionState::GaveUp)
        })
    }

    pub(super) fn known_versions(&self) -> std::vec::IntoIter<ObjectVersion> {
        self.sorted_versions_where(self.residuals.versions(), |_| true)
    }

    /// Versions collapsed to compaction residuals, in object-version
    /// order.
    pub(super) fn compacted_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.residuals.versions()
    }

    /// `ov`'s slot and entry, inserting a fresh entry (which always starts
    /// pending) built by `make` if `ov` is new — or `None` if the version
    /// is a compacted residual, which must never be resurrected into a full
    /// entry. One index probe for a known version; a new one also probes
    /// the residuals, unless its key has no live version newer than it
    /// (every residual has one), and then inserts.
    // lint:hot
    pub(super) fn adopt(
        &mut self,
        ov: ObjectVersion,
        now: SimTime,
        make: impl FnOnce() -> FragEntry,
    ) -> Option<(Slot, &mut FragEntry)> {
        let VersionStore {
            slots,
            free,
            index,
            pending,
            residuals,
        } = self;
        // A key's live versions are one sorted chain, and every residual
        // is older than its key's newest live version: a version past the
        // chain's end is new without a residual probe.
        let chain = index.chain(ov.key);
        let known = match chain.last() {
            Some(newest) if newest.ts == ov.ts => Some(newest.at),
            Some(newest) if newest.ts > ov.ts => {
                match chain.binary_search_by(|live| live.ts.cmp(&ov.ts)) {
                    Ok(i) => chain.get(i).map(|live| live.at),
                    Err(_) if residuals.chains.get(ov).is_some() => return None,
                    Err(_) => None,
                }
            }
            _ => None,
        };
        let at = match known {
            Some(at) => at,
            None => {
                let slot = Some(VersionSlot {
                    ov,
                    entry: make(),
                    state: VersionState::Pending(Box::new(ConvWork::new(now))),
                });
                let at = match free.pop() {
                    Some(at) => {
                        // lint:allow(panic-path): the free list holds ids of slots inside the slab
                        slots[at as usize] = slot;
                        at
                    }
                    None => {
                        slots.push(slot);
                        (slots.len() - 1) as u32
                    }
                };
                let (inserted, _) = index.get_or_insert_with(ov, || Live { ts: ov.ts, at });
                debug_assert!(inserted, "{ov:?} was live already");
                Self::pending_insert(slots, pending, at);
                at
            }
        };
        Some((Slot { at, ov }, &mut live_mut(slots, at).entry))
    }

    /// Settles `s`'s version as AMR at `at` (overwriting an earlier AMR
    /// time), returning the pending work it displaced, if any.
    pub(super) fn settle_amr(&mut self, s: Slot, at: SimTime) -> Option<ConvWork> {
        self.settle(s, VersionState::Amr(at))
    }

    /// Abandons `s`'s version (give-up age exceeded), returning its pending
    /// work.
    pub(super) fn settle_gave_up(&mut self, s: Slot) -> Option<ConvWork> {
        self.settle(s, VersionState::GaveUp)
    }

    fn settle(&mut self, s: Slot, settled: VersionState) -> Option<ConvWork> {
        let VersionState::Pending(work) = std::mem::replace(&mut self.held_mut(s)?.state, settled)
        else {
            return None;
        };
        Self::pending_remove(&self.slots, &mut self.pending, s.ov);
        Some(*work)
    }

    /// Re-enters a stored version for convergence (after corruption or
    /// disk loss), clearing any AMR/give-up mark; the returned work is
    /// fresh or the still-pending one.
    pub(super) fn reopen(&mut self, s: Slot, now: SimTime) -> &mut ConvWork {
        // Compacted versions hold no bytes to lose, so they never
        // re-enter convergence: the handle is live.
        // lint:allow(panic-path): callers reopen only versions whose full entry they just edited
        let slot = self.held_mut(s).expect("reopened version is stored");
        if !matches!(slot.state, VersionState::Pending(_)) {
            slot.state = VersionState::Pending(Box::new(ConvWork::new(now)));
            Self::pending_insert(&self.slots, &mut self.pending, s.at);
        }
        match &mut live_mut(&mut self.slots, s.at).state {
            VersionState::Pending(w) => w,
            _ => unreachable!("just made pending"),
        }
    }

    /// The payload of a timer for `s`'s recovery `op`: the slab index
    /// above the op id's low [`RECOVERY_OP_BITS`] bits, 56 bits in all, so
    /// that [`VersionStore::find_recovery`] goes straight to the slot.
    pub(super) fn recovery_timer(s: Slot, op: OpId) -> u64 {
        u64::from(s.at) << RECOVERY_OP_BITS | op & RECOVERY_OP_MASK
    }

    /// The slot of the version whose in-flight recovery a timer of
    /// `payload` ([`VersionStore::recovery_timer`]) belongs to, if that
    /// recovery is still in flight: the slot must hold a pending version
    /// recovering under the timer's op id. A stale timer — its recovery
    /// ended, or its slot was vacated or holds another version now —
    /// finds nothing: op ids only grow, so another recovery matches only
    /// 2^24 recoveries later, and every path that ends a recovery cancels
    /// its timers long before that.
    pub(super) fn find_recovery(&self, payload: u64) -> Option<Slot> {
        let at = u32::try_from(payload >> RECOVERY_OP_BITS).ok()?;
        let slot = self.slots.get(at as usize)?.as_ref()?;
        match &slot.state {
            VersionState::Pending(w)
                if w.recovery
                    .as_ref()
                    .is_some_and(|r| r.op & RECOVERY_OP_MASK == payload & RECOVERY_OP_MASK) =>
            {
                Some(Slot { at, ov: slot.ov })
            }
            _ => None,
        }
    }

    fn pending_insert(slots: &[Option<VersionSlot>], pending: &mut Vec<u32>, s: u32) {
        let ov = live(slots, s).ov;
        if let Err(pos) = pending.binary_search_by(|&p| live(slots, p).ov.cmp(&ov)) {
            pending.insert(pos, s);
        }
    }

    fn pending_remove(slots: &[Option<VersionSlot>], pending: &mut Vec<u32>, ov: ObjectVersion) {
        if let Ok(pos) = pending.binary_search_by(|&p| live(slots, p).ov.cmp(&ov)) {
            pending.remove(pos);
        }
    }
}

#[cfg(test)]
#[path = "tests/store.rs"]
mod tests;
