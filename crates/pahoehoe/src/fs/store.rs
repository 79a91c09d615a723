//! The fragment store and the convergence store beside it (§3.1):
//! [`VersionStore`] holds every version's [`FragEntry`] and whether it is
//! pending (with its [`ConvWork`]), settled AMR or given up, and shrinks
//! settled, superseded versions to [`Residual`]s (DESIGN.md §8.7). It
//! sends nothing and sets no timer.

use std::collections::{BTreeMap, BTreeSet};

use erasure::{Fragment, FragmentIndex};
use simnet::{NodeId, SimTime, TimerId};

use super::FragEntry;
use crate::messages::OpId;
use crate::protocol::FragMask;
use crate::types::{Key, ObjectVersion, Timestamp};

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
    /// In-flight fragment recovery, if any.
    pub(super) recovery: Option<Recovery>,
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
    /// Fragments fetched so far.
    pub(super) collected: BTreeMap<FragmentIndex, Fragment>,
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
/// index entry have all been released. One packed record in its key's
/// chain of a [`ResidualTable`]: the key is the chain's, the timestamp is
/// stored as its two parts so that the fields pack into three words, and
/// the held-index set is an id into the table's interned masks.
#[derive(Debug, Clone, Copy)]
struct Residual {
    /// The version timestamp's clock part, in microseconds.
    clock: u64,
    /// When the version settled AMR (re-stamped by a later indication, as
    /// a full entry's is).
    amr_at: SimTime,
    /// The version timestamp's proxy part.
    proxy: u32,
    /// Which fragment indices were stored at compaction time — what keeps
    /// convergence replies about this version byte-identical to the full
    /// store's (and lets the sampled invariants assert the version really
    /// was durable) — as an id into [`ResidualTable::masks`].
    held: u16,
}

impl Residual {
    fn ts(&self) -> Timestamp {
        Timestamp::new(SimTime::from_micros(self.clock), self.proxy)
    }
}

/// Chains of up to this many records are allocated exact-fit: most keys of
/// a wide key space are overwritten once or twice, and `Vec`'s first push
/// would reserve four records for each of them. Longer chains belong to hot
/// keys and grow amortised.
const EXACT_FIT_CHAIN: usize = 4;

/// What is left of an FS's compacted versions: per key, a chain of
/// [`Residual`]s sorted by timestamp, so walking the table key by key
/// lists versions in [`ObjectVersion`] order. A probe searches a map with
/// one entry per compacted *key* — small and warm next to one entry per
/// compacted version — and then the key's own chain.
#[derive(Debug, Default)]
struct ResidualTable {
    chains: BTreeMap<Key, Vec<Residual>>,
    /// The distinct held-index sets, by [`Residual::held`] id. Placement
    /// deals fragments by server rank, so an FS only ever holds a handful
    /// of different sets; storing each once is what lets a record carry
    /// two bytes for any 256-bit mask.
    masks: Vec<FragMask>,
    /// Records over all chains.
    count: usize,
}

impl ResidualTable {
    /// Where the record stamped `ts` sits in `chain`, if it is there.
    fn position(chain: &[Residual], ts: Timestamp) -> Option<usize> {
        chain.binary_search_by(|r| r.ts().cmp(&ts)).ok()
    }

    fn get(&self, ov: ObjectVersion) -> Option<&Residual> {
        let chain = self.chains.get(&ov.key)?;
        chain.get(Self::position(chain, ov.ts)?)
    }

    fn get_mut(&mut self, ov: ObjectVersion) -> Option<&mut Residual> {
        let chain = self.chains.get_mut(&ov.key)?;
        let at = Self::position(chain, ov.ts)?;
        chain.get_mut(at)
    }

    /// The fragment-index set `residual` recorded.
    fn held(&self, residual: &Residual) -> FragMask {
        // lint:allow(panic-path): a record's id is a position `intern` returned, and masks are never removed
        self.masks[usize::from(residual.held)]
    }

    /// The timestamp of `key`'s newest compacted version.
    fn newest(&self, key: Key) -> Option<Timestamp> {
        self.chains.get(&key)?.last().map(Residual::ts)
    }

    /// Every compacted version, in object-version order.
    fn versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.chains.iter().flat_map(|(&key, chain)| {
            chain
                .iter()
                .map(move |residual| ObjectVersion::new(key, residual.ts()))
        })
    }

    /// The id of `mask`, added to the table if this is its first use.
    fn intern(&mut self, mask: FragMask) -> u16 {
        let known = self.masks.iter().position(|m| *m == mask);
        let Ok(id) = u16::try_from(known.unwrap_or(self.masks.len())) else {
            // 65 536 different placements on one server is a broken
            // placement, not a workload: stop rather than wrap an id.
            panic!(
                "this FS compacted versions holding more than {} distinct fragment-index sets, \
                 and a residual names its set by a u16 id",
                self.masks.len()
            );
        };
        if known.is_none() {
            self.masks.push(mask);
        }
        id
    }

    /// Records that `ov`, settled AMR at `amr_at`, was compacted holding
    /// `held`. A version is compacted once: it has no record yet.
    fn insert(&mut self, ov: ObjectVersion, held: FragMask, amr_at: SimTime) {
        let held = self.intern(held);
        let chain = self.chains.entry(ov.key).or_default();
        // Versions mostly settle in timestamp order: look at the chain's
        // end before searching it.
        let at = match chain.last() {
            Some(last) if last.ts() > ov.ts => chain.partition_point(|r| r.ts() < ov.ts),
            _ => chain.len(),
        };
        debug_assert!(chain.get(at).is_none_or(|r| r.ts() != ov.ts));
        if EXACT_FIT_CHAIN > chain.len() {
            chain.reserve_exact(1);
        }
        chain.insert(
            at,
            Residual {
                clock: ov.ts.clock_micros(),
                amr_at,
                proxy: ov.ts.proxy(),
                held,
            },
        );
        self.count += 1;
    }
}

/// The occupied slab slot `s`, for a slot id taken from the index or the
/// pending list: those only name occupied slots, because compaction drops
/// a slot's index entry as it vacates the slot and only vacates settled
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

/// Shard count of the store's key-sharded `ov -> slot` index (power of
/// two; the shard is a hash of the key, so every version of a key lands in
/// the same shard and per-key range scans stay local).
const SHARD_FANOUT: usize = 64;

/// The store's `ov -> slot` index, split into [`SHARD_FANOUT`] shards by
/// key hash. Lookups touch a single shard whose size is
/// `~versions / SHARD_FANOUT`, which keeps comparisons short and the
/// working set of a hot key's operations small at million-key scale.
#[derive(Debug)]
struct ShardIndex {
    shards: Vec<BTreeMap<ObjectVersion, u32>>,
}

impl ShardIndex {
    fn new() -> Self {
        ShardIndex {
            shards: (0..SHARD_FANOUT).map(|_| BTreeMap::new()).collect(),
        }
    }

    /// The shard holding `key`'s versions (splitmix64 finalizer: workload
    /// keys are often sequential, so the raw bits must be mixed).
    // lint:hot
    fn shard_of(key: Key) -> usize {
        let mut h = key.as_u64();
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h & (SHARD_FANOUT as u64 - 1)) as usize
    }

    // lint:hot
    fn get(&self, ov: &ObjectVersion) -> Option<u32> {
        // lint:allow(panic-path): shard_of is masked to the shard count
        self.shards[Self::shard_of(ov.key)].get(ov).copied()
    }

    fn insert(&mut self, ov: ObjectVersion, s: u32) {
        // lint:allow(panic-path): shard_of is masked to the shard count
        self.shards[Self::shard_of(ov.key)].insert(ov, s);
    }

    fn remove(&mut self, ov: &ObjectVersion) {
        // lint:allow(panic-path): shard_of is masked to the shard count
        self.shards[Self::shard_of(ov.key)].remove(ov);
    }

    /// `key`'s versions strictly newer than `ov`, ascending, with slot
    /// ids.
    fn key_versions_above(
        &self,
        ov: ObjectVersion,
    ) -> impl DoubleEndedIterator<Item = (ObjectVersion, u32)> + '_ {
        let hi = ObjectVersion::new(ov.key, Timestamp::MAX);
        // lint:allow(panic-path): shard_of is masked to the shard count
        self.shards[Self::shard_of(ov.key)]
            .range((std::ops::Bound::Excluded(ov), std::ops::Bound::Included(hi)))
            .map(|(&v, &s)| (v, s))
    }

    /// `key`'s versions strictly older than `ov`, ascending, with slot
    /// ids.
    fn key_versions_below(
        &self,
        ov: ObjectVersion,
    ) -> impl DoubleEndedIterator<Item = (ObjectVersion, u32)> + '_ {
        let lo = ObjectVersion::new(ov.key, Timestamp::MIN);
        // lint:allow(panic-path): shard_of is masked to the shard count
        self.shards[Self::shard_of(ov.key)]
            .range(lo..ov)
            .map(|(&v, &s)| (v, s))
    }
}

/// Per-version storage for an FS.
///
/// Every *live* version — one that still holds its fragments — sits in a
/// slab slot, with an `ov -> slot` index and a sorted list of pending slot
/// indices that `run_round` walks without any map lookups. Versions are
/// never forgotten, but a compacted one shrinks to a 24-byte [`Residual`]
/// in its key's chain of the [`ResidualTable`] and gives its slot and index
/// entry back, so slab, index, pending list and every walk over them are
/// O(live versions), not O(versions ever stored).
#[derive(Debug)]
pub(super) struct VersionStore {
    /// `None` marks a vacated slot, listed in `free`.
    slots: Vec<Option<VersionSlot>>,
    /// Slots vacated by compaction, reused before the slab grows.
    free: Vec<u32>,
    index: ShardIndex,
    /// Slot indices of pending versions, sorted by object version so
    /// rounds step versions in version order.
    pending: Vec<u32>,
    /// What is left of each compacted version. Consulted when the index
    /// misses: a version is in the index or here, never both. Compacting
    /// takes a newer settled version of the key, so the newest version a
    /// key has is never here: every residual has a newer version of its
    /// key in the index.
    residuals: ResidualTable,
}

impl VersionStore {
    pub(super) fn new() -> Self {
        VersionStore {
            slots: Vec::new(),
            free: Vec::new(),
            index: ShardIndex::new(),
            pending: Vec::new(),
            residuals: ResidualTable::default(),
        }
    }

    pub(super) fn entry(&self, ov: ObjectVersion) -> Option<&FragEntry> {
        let s = self.index.get(&ov)?;
        Some(&live(&self.slots, s).entry)
    }

    pub(super) fn entry_mut(&mut self, ov: ObjectVersion) -> Option<&mut FragEntry> {
        let s = self.index.get(&ov)?;
        Some(&mut live_mut(&mut self.slots, s).entry)
    }

    /// The slot `ov` lives in, for stepping it outside a round's listing.
    pub(super) fn slot_of(&self, ov: ObjectVersion) -> Option<u32> {
        self.index.get(&ov)
    }

    /// Entry access by the slot a `collect_pending`/`collect_live` listing
    /// named (skips the index walk). A listed slot stays good for the walk
    /// it was listed for: nothing is inserted during a round or a scrub,
    /// so no slot changes owner, and a slot that compaction vacated
    /// mid-walk reads as absent.
    // lint:hot
    pub(super) fn entry_at(&self, ov: ObjectVersion, s: u32) -> Option<&FragEntry> {
        // lint:allow(panic-path): a slot from a collect_* listing is inside the slab, which never shrinks
        let slot = self.slots[s as usize].as_ref()?;
        debug_assert_eq!(slot.ov, ov);
        Some(&slot.entry)
    }

    /// Mutable variant of [`VersionStore::entry_at`].
    // lint:hot
    pub(super) fn entry_at_mut(&mut self, ov: ObjectVersion, s: u32) -> Option<&mut FragEntry> {
        // lint:allow(panic-path): a slot from a collect_* listing is inside the slab, which never shrinks
        let slot = self.slots[s as usize].as_mut()?;
        debug_assert_eq!(slot.ov, ov);
        Some(&mut slot.entry)
    }

    /// The convergence work for `ov`, if it is pending.
    pub(super) fn work(&self, ov: ObjectVersion) -> Option<&ConvWork> {
        match &live(&self.slots, self.index.get(&ov)?).state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    pub(super) fn work_mut(&mut self, ov: ObjectVersion) -> Option<&mut ConvWork> {
        match &mut live_mut(&mut self.slots, self.index.get(&ov)?).state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    /// Work access by listed slot (see [`VersionStore::entry_at`]).
    // lint:hot
    pub(super) fn work_at(&self, ov: ObjectVersion, s: u32) -> Option<&ConvWork> {
        // lint:allow(panic-path): a slot from a collect_* listing is inside the slab, which never shrinks
        let slot = self.slots[s as usize].as_ref()?;
        debug_assert_eq!(slot.ov, ov);
        match &slot.state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    /// Mutable variant of [`VersionStore::work_at`].
    // lint:hot
    pub(super) fn work_at_mut(&mut self, ov: ObjectVersion, s: u32) -> Option<&mut ConvWork> {
        // lint:allow(panic-path): a slot from a collect_* listing is inside the slab, which never shrinks
        let slot = self.slots[s as usize].as_mut()?;
        debug_assert_eq!(slot.ov, ov);
        match &mut slot.state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    /// Whether `ov` is settled (AMR or given up).
    pub(super) fn is_settled(&self, ov: ObjectVersion) -> bool {
        match self.index.get(&ov) {
            Some(s) => !matches!(live(&self.slots, s).state, VersionState::Pending(_)),
            None => self.residuals.get(ov).is_some(),
        }
    }

    pub(super) fn amr_at(&self, ov: ObjectVersion) -> Option<SimTime> {
        match self.index.get(&ov) {
            Some(s) => match live(&self.slots, s).state {
                VersionState::Amr(at) => Some(at),
                _ => None,
            },
            None => self.residuals.get(ov).map(|r| r.amr_at),
        }
    }

    /// The compaction residual for `ov`: the fragment-index mask recorded
    /// when the version's entry was released, if it has been compacted.
    pub(super) fn residual(&self, ov: ObjectVersion) -> Option<FragMask> {
        self.residuals.get(ov).map(|r| self.residuals.held(r))
    }

    /// Number of compacted residual records.
    pub(super) fn compacted_count(&self) -> usize {
        self.residuals.count
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

    /// Incremental compaction run on the *first* settle of `ov`:
    /// compacts `ov` itself when a strictly newer settled-AMR version of
    /// its key exists, and every settled-AMR version strictly older than
    /// `ov` — fragments, checksums and the metadata handle are dropped,
    /// the slot and its index entry are freed, and a [`Residual`] is all
    /// that stays.
    ///
    /// Running this on every first settle maintains the invariant that
    /// *every settled version superseded by a newer settled version is
    /// compacted*. Each version is compacted exactly once, and because a
    /// compacted version leaves the index, the walks below only meet a
    /// key's live versions — the newest settled one plus the bounded
    /// window of still-unsettled interleaved ones — so the amortized cost
    /// per settle is O(1) however many versions the key has had.
    pub(super) fn compact_superseded(&mut self, ov: ObjectVersion) {
        let VersionStore {
            slots,
            free,
            index,
            residuals,
            ..
        } = self;
        // `ov` is superseded iff any strictly newer version of its key
        // has settled (newer unsettled versions are the in-flight
        // window; scan past them). A newer residual counts: it settled
        // before it was compacted, and the newest one ends the key's
        // chain. The usual settle is of the key's newest version, which
        // the index alone can tell.
        let superseded = {
            let mut newer_live = index.key_versions_above(ov).peekable();
            newer_live.peek().is_some()
                && (newer_live.any(|(_, s)| matches!(live(slots, s).state, VersionState::Amr(_)))
                    || residuals.newest(ov.key).is_some_and(|ts| ts > ov.ts))
        };
        // Everything strictly older than the just-settled `ov` is
        // superseded too.
        let own = index.get(&ov).filter(|_| superseded).map(|s| (ov, s));
        let victims: Vec<(ObjectVersion, u32, SimTime)> = index
            .key_versions_below(ov)
            .chain(own)
            .filter_map(|(victim, s)| match live(slots, s).state {
                VersionState::Amr(at) => Some((victim, s, at)),
                _ => None,
            })
            .collect();
        for (victim, s, amr_at) in victims {
            let mut held = FragMask::new();
            for &idx in live(slots, s).entry.fragments.keys() {
                held.insert(idx);
            }
            residuals.insert(victim, held, amr_at);
            index.remove(&victim);
            // lint:allow(panic-path): `live` read this very slot two statements up
            slots[s as usize] = None;
            free.push(s);
        }
    }

    pub(super) fn pending_is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Fills `out` with the pending versions in object-version order plus
    /// their slots, reusing `out`'s capacity.
    // lint:hot
    pub(super) fn collect_pending(&self, out: &mut Vec<(ObjectVersion, u32)>) {
        out.clear();
        out.extend(self.pending.iter().map(|&s| (live(&self.slots, s).ov, s)));
    }

    /// Fills `out` with every version that still holds a full entry —
    /// compacted versions have no bytes to scrub, lose or report — plus
    /// their slots, in object-version order.
    // lint:hot
    pub(super) fn collect_live(&self, out: &mut Vec<(ObjectVersion, u32)>) {
        out.clear();
        out.extend(
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| Some((slot.as_ref()?.ov, i as u32))),
        );
        // Slab order is allocation order with reuse; callers walk by
        // version (the scrub cursor, the report's entry order).
        out.sort_unstable_by_key(|&(ov, _)| ov);
    }

    pub(super) fn pending_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.pending.iter().map(|&s| live(&self.slots, s).ov)
    }

    /// Live versions matching `keep` plus the `compacted` ones, in global
    /// object-version order (collected and sorted across shards;
    /// inspection paths only).
    fn sorted_versions_where(
        &self,
        compacted: impl Iterator<Item = ObjectVersion>,
        keep: impl Fn(&VersionSlot) -> bool,
    ) -> std::vec::IntoIter<ObjectVersion> {
        let mut out: Vec<ObjectVersion> = self
            .index
            .shards
            .iter()
            .flat_map(|m| m.iter())
            .filter(|(_, &s)| keep(live(&self.slots, s)))
            .map(|(&ov, _)| ov)
            .chain(compacted)
            .collect();
        out.sort_unstable();
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

    /// Entry for `ov`, inserting a fresh one (which always starts
    /// pending) built by `make` if absent. Returns the entry and whether
    /// it was inserted — or `None` if the version is a compacted
    /// residual, which must never be resurrected into a full entry.
    pub(super) fn entry_or_insert_with(
        &mut self,
        ov: ObjectVersion,
        now: SimTime,
        make: impl FnOnce() -> FragEntry,
    ) -> Option<(&mut FragEntry, bool)> {
        if let Some(s) = self.index.get(&ov) {
            return Some((&mut live_mut(&mut self.slots, s).entry, false));
        }
        // Only a version older than a live one of its key can be a
        // residual, so a key's newest version — the usual insert — skips
        // the residual table.
        if self.index.key_versions_above(ov).next().is_some() && self.residuals.get(ov).is_some() {
            return None;
        }
        let slot = Some(VersionSlot {
            ov,
            entry: make(),
            state: VersionState::Pending(Box::new(ConvWork::new(now))),
        });
        let s = match self.free.pop() {
            Some(s) => {
                // lint:allow(panic-path): the free list holds ids of slots inside the slab
                self.slots[s as usize] = slot;
                s
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(ov, s);
        Self::pending_insert(&self.slots, &mut self.pending, s);
        Some((&mut live_mut(&mut self.slots, s).entry, true))
    }

    /// Settles `ov` as AMR at `at` (overwriting an earlier AMR time),
    /// returning the pending work it displaced, if any.
    pub(super) fn settle_amr(&mut self, ov: ObjectVersion, at: SimTime) -> Option<ConvWork> {
        let Some(s) = self.index.get(&ov) else {
            if let Some(residual) = self.residuals.get_mut(ov) {
                residual.amr_at = at;
            }
            return None;
        };
        Self::pending_remove(&self.slots, &mut self.pending, ov);
        match std::mem::replace(
            &mut live_mut(&mut self.slots, s).state,
            VersionState::Amr(at),
        ) {
            VersionState::Pending(w) => Some(*w),
            _ => None,
        }
    }

    /// Abandons `ov` (give-up age exceeded), returning its pending work.
    pub(super) fn settle_gave_up(&mut self, ov: ObjectVersion) -> Option<ConvWork> {
        let s = self.index.get(&ov)?;
        Self::pending_remove(&self.slots, &mut self.pending, ov);
        match std::mem::replace(
            &mut live_mut(&mut self.slots, s).state,
            VersionState::GaveUp,
        ) {
            VersionState::Pending(w) => Some(*w),
            _ => None,
        }
    }

    /// Re-enters a stored version for convergence (after corruption or
    /// disk loss), clearing any AMR/give-up mark; the returned work is
    /// fresh or the still-pending one.
    pub(super) fn reopen(&mut self, ov: ObjectVersion, now: SimTime) -> &mut ConvWork {
        // Compacted versions hold no bytes to lose, so they never
        // re-enter convergence: the version is in the index.
        // lint:allow(panic-path): callers reopen only versions whose full entry they just edited
        let s = self.index.get(&ov).expect("reopened version is stored");
        if !matches!(live(&self.slots, s).state, VersionState::Pending(_)) {
            live_mut(&mut self.slots, s).state =
                VersionState::Pending(Box::new(ConvWork::new(now)));
            Self::pending_insert(&self.slots, &mut self.pending, s);
        }
        match &mut live_mut(&mut self.slots, s).state {
            VersionState::Pending(w) => w,
            _ => unreachable!("just made pending"),
        }
    }

    /// The version whose in-flight recovery carries `op`, if any.
    pub(super) fn find_recovery(&self, op: OpId) -> Option<ObjectVersion> {
        self.pending.iter().find_map(|&s| {
            let slot = live(&self.slots, s);
            match &slot.state {
                VersionState::Pending(w) if w.recovery.as_ref().is_some_and(|r| r.op == op) => {
                    Some(slot.ov)
                }
                _ => None,
            }
        })
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
