//! The Fragment Server (FS) and the convergence protocol.
//!
//! An FS stores erasure-coded fragments together with the metadata needed
//! to verify redundancy, and runs **convergence** (§3.4): in periodic
//! rounds, it performs a *convergence step* for every object version it
//! has not yet verified to be at maximum redundancy (AMR). A step does the
//! first applicable of:
//!
//! 1. **metadata repair** — if its metadata is incomplete, probe a KLS per
//!    missing data center (in a fixed order, §3.5) with
//!    [`Message::FsDecideLocs`];
//! 2. **fragment recovery** — if an assigned sibling fragment is missing,
//!    retrieve `k` fragments and regenerate it (optionally regenerating
//!    *all* missing sibling fragments on behalf of the siblings — the
//!    sibling-fragment-recovery optimization, §4.2);
//! 3. **verification** — otherwise probe every KLS and sibling FS with
//!    converge messages; if all verify, the version is AMR and is removed
//!    from the convergence store (optionally broadcasting an AMR
//!    indication to the siblings, §4.1).
//!
//! Steps for a version back off exponentially while they keep failing
//! (§3.5) and reset when new information arrives. Round scheduling,
//! indications and sibling recovery are all governed by
//! [`ConvergenceOptions`].
//!
//! Round traffic — a step's probes, the replies owed to a sibling's probes
//! and FS AMR indications — leaves through the [`Outbox`]: one message per
//! object version, the paper's accounting, or with
//! [`ProtocolMode::batch_rounds`] one [`Message::Batch`] per destination
//! and kind per dispatch (DESIGN.md §8.6).
//!
//! What an FS keeps resident follows the versions that still hold
//! fragments, not the puts it has served. AMR is the paper's terminal
//! state, so with [`ProtocolMode::compact_converged`] a version that is
//! settled AMR and superseded by a newer settled-AMR version of its key
//! gives up its fragments, its metadata handle, its store slot and its
//! index entry, and leaves one 24-byte residual in its key's chain — which
//! fragment indices it held and when it settled — from which every later
//! question about it (a re-delivered fragment, a sibling's probe, a
//! repeated AMR indication) is answered as the full entry would have
//! answered it (DESIGN.md §8.7).

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use erasure::{Checksum, Codec, Fragment, FragmentIndex};
use simnet::{Actor, Context, NodeId, SimTime, TimerId};

use crate::convergence::{ConvergenceOptions, RoundSchedule};
use crate::messages::{Message, OpId, EV_DELTAS_RESOLVED, EV_DELTA_UNRESOLVABLE};
use crate::metadata::Metadata;
use crate::protocol::{FragMap, FragMask, ProtocolMode};
use crate::topology::{DataCenterId, Topology};
use crate::types::{Key, ObjectVersion, Timestamp};

/// Timer tags (upper byte selects the kind, low bits carry an op id).
const TAG_ROUND: u64 = 1 << 56;
const TAG_RECOVERY_WAIT: u64 = 2 << 56;
const TAG_RECOVERY_TIMEOUT: u64 = 3 << 56;
const TAG_SCRUB: u64 = 4 << 56;
const TAG_REPAIR_REPORT: u64 = 5 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// Timer tag a harness may schedule on an FS (via
/// [`Simulation::schedule_timer`](simnet::Simulation::schedule_timer)) to
/// wake its convergence loop after mutating state externally — e.g. after
/// [`Fs::destroy_disk`] or [`Fs::corrupt_fragment`].
pub const WAKE_TIMER_TAG: u64 = TAG_ROUND;

/// Stored fragments plus the metadata snapshot for one object version.
#[derive(Debug, Clone)]
pub struct FragEntry {
    /// Best-known metadata, shared by refcount with the messages that
    /// carried it and the other stores that adopted it.
    pub meta: Arc<Metadata>,
    /// The sibling fragments this server holds, by fragment index.
    pub fragments: FragMap<Fragment>,
    /// Content hash recorded when each fragment was durably stored; the
    /// scrubber and the read path verify against it to "detect disk
    /// corruption using hashes" (§3.1).
    pub checksums: FragMap<Checksum>,
}

/// Convergence bookkeeping for one not-yet-AMR object version.
#[derive(Debug)]
struct ConvWork {
    /// When this FS first learned of the version, or re-pended it after
    /// scrub / disk loss. Drives `give_up_age` only: a three-month-old
    /// version re-pended today gets its full retry budget instead of being
    /// abandoned on arrival. `min_age` does *not* read this — it reads the
    /// version's own age (`now − ov.ts`, see `Fs::run_round`), so a
    /// version waits it once, not once more at every FS that adopts it late.
    created: SimTime,
    /// Unsuccessful steps so far (drives exponential backoff).
    attempts: u32,
    /// Next time a step may run.
    next_eligible: SimTime,
    /// KLSs that verified during the current step.
    kls_ok: BTreeSet<NodeId>,
    /// Sibling FSs that verified during the current step.
    fs_ok: BTreeSet<NodeId>,
    /// Whether a verification step is awaiting replies.
    step_open: bool,
    /// In-flight fragment recovery, if any.
    recovery: Option<Recovery>,
}

impl ConvWork {
    fn new(created: SimTime) -> Self {
        ConvWork {
            created,
            attempts: 0,
            next_eligible: created,
            kls_ok: BTreeSet::new(),
            fs_ok: BTreeSet::new(),
            step_open: false,
            recovery: None,
        }
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum RecoveryPhase {
    /// Sibling mode: waiting for need-reports from siblings.
    AwaitingReports,
    /// Fetching fragments.
    Fetching,
}

#[derive(Debug)]
struct Recovery {
    op: OpId,
    phase: RecoveryPhase,
    /// Sibling need-reports: fs → (has, missing).
    reports: BTreeMap<NodeId, (Vec<FragmentIndex>, Vec<FragmentIndex>)>,
    /// Fragments fetched so far.
    collected: BTreeMap<FragmentIndex, Fragment>,
    wait_timer: Option<TimerId>,
    timeout_timer: TimerId,
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
struct VersionStore {
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
    fn new() -> Self {
        VersionStore {
            slots: Vec::new(),
            free: Vec::new(),
            index: ShardIndex::new(),
            pending: Vec::new(),
            residuals: ResidualTable::default(),
        }
    }

    fn entry(&self, ov: ObjectVersion) -> Option<&FragEntry> {
        let s = self.index.get(&ov)?;
        Some(&live(&self.slots, s).entry)
    }

    fn entry_mut(&mut self, ov: ObjectVersion) -> Option<&mut FragEntry> {
        let s = self.index.get(&ov)?;
        Some(&mut live_mut(&mut self.slots, s).entry)
    }

    /// Entry access by the slot a `collect_pending`/`collect_live` listing
    /// named (skips the index walk). A listed slot stays good for the walk
    /// it was listed for: nothing is inserted during a round or a scrub,
    /// so no slot changes owner, and a slot that compaction vacated
    /// mid-walk reads as absent.
    // lint:hot
    fn entry_at(&self, ov: ObjectVersion, s: u32) -> Option<&FragEntry> {
        // lint:allow(panic-path): a slot from a collect_* listing is inside the slab, which never shrinks
        let slot = self.slots[s as usize].as_ref()?;
        debug_assert_eq!(slot.ov, ov);
        Some(&slot.entry)
    }

    /// Mutable variant of [`VersionStore::entry_at`].
    // lint:hot
    fn entry_at_mut(&mut self, ov: ObjectVersion, s: u32) -> Option<&mut FragEntry> {
        // lint:allow(panic-path): a slot from a collect_* listing is inside the slab, which never shrinks
        let slot = self.slots[s as usize].as_mut()?;
        debug_assert_eq!(slot.ov, ov);
        Some(&mut slot.entry)
    }

    /// The convergence work for `ov`, if it is pending.
    fn work(&self, ov: ObjectVersion) -> Option<&ConvWork> {
        match &live(&self.slots, self.index.get(&ov)?).state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    fn work_mut(&mut self, ov: ObjectVersion) -> Option<&mut ConvWork> {
        match &mut live_mut(&mut self.slots, self.index.get(&ov)?).state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    /// Work access by listed slot (see [`VersionStore::entry_at`]).
    // lint:hot
    fn work_at(&self, ov: ObjectVersion, s: u32) -> Option<&ConvWork> {
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
    fn work_at_mut(&mut self, ov: ObjectVersion, s: u32) -> Option<&mut ConvWork> {
        // lint:allow(panic-path): a slot from a collect_* listing is inside the slab, which never shrinks
        let slot = self.slots[s as usize].as_mut()?;
        debug_assert_eq!(slot.ov, ov);
        match &mut slot.state {
            VersionState::Pending(w) => Some(w),
            _ => None,
        }
    }

    /// Whether `ov` is settled (AMR or given up).
    fn is_settled(&self, ov: ObjectVersion) -> bool {
        match self.index.get(&ov) {
            Some(s) => !matches!(live(&self.slots, s).state, VersionState::Pending(_)),
            None => self.residuals.get(ov).is_some(),
        }
    }

    fn amr_at(&self, ov: ObjectVersion) -> Option<SimTime> {
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
    fn residual(&self, ov: ObjectVersion) -> Option<FragMask> {
        self.residuals.get(ov).map(|r| self.residuals.held(r))
    }

    /// Number of compacted residual records.
    fn compacted_count(&self) -> usize {
        self.residuals.count
    }

    /// Slab slots in use: one per version that still holds a full entry.
    fn resident_slots(&self) -> usize {
        self.slots.len() - self.free.len()
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
    fn compact_superseded(&mut self, ov: ObjectVersion) {
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

    fn pending_is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Fills `out` with the pending versions in object-version order plus
    /// their slots, reusing `out`'s capacity.
    // lint:hot
    fn collect_pending(&self, out: &mut Vec<(ObjectVersion, u32)>) {
        out.clear();
        out.extend(self.pending.iter().map(|&s| (live(&self.slots, s).ov, s)));
    }

    /// Fills `out` with every version that still holds a full entry —
    /// compacted versions have no bytes to scrub, lose or report — plus
    /// their slots, in object-version order.
    // lint:hot
    fn collect_live(&self, out: &mut Vec<(ObjectVersion, u32)>) {
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

    fn pending_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
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

    fn amr_versions(&self) -> std::vec::IntoIter<ObjectVersion> {
        self.sorted_versions_where(self.residuals.versions(), |slot| {
            matches!(slot.state, VersionState::Amr(_))
        })
    }

    fn gave_up_versions(&self) -> std::vec::IntoIter<ObjectVersion> {
        self.sorted_versions_where(std::iter::empty(), |slot| {
            matches!(slot.state, VersionState::GaveUp)
        })
    }

    fn known_versions(&self) -> std::vec::IntoIter<ObjectVersion> {
        self.sorted_versions_where(self.residuals.versions(), |_| true)
    }

    /// Versions collapsed to compaction residuals, in object-version
    /// order.
    fn compacted_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.residuals.versions()
    }

    /// Entry for `ov`, inserting a fresh one (which always starts
    /// pending) built by `make` if absent. Returns the entry and whether
    /// it was inserted — or `None` if the version is a compacted
    /// residual, which must never be resurrected into a full entry.
    fn entry_or_insert_with(
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
    fn settle_amr(&mut self, ov: ObjectVersion, at: SimTime) -> Option<ConvWork> {
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
    fn settle_gave_up(&mut self, ov: ObjectVersion) -> Option<ConvWork> {
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
    fn reopen(&mut self, ov: ObjectVersion, now: SimTime) -> &mut ConvWork {
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
    fn find_recovery(&self, op: OpId) -> Option<ObjectVersion> {
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

/// Where an FS's round traffic leaves from: convergence probes, the
/// replies to a sibling's probes, and FS AMR indications.
///
/// Batching ([`ProtocolMode::batch_rounds`]) holds each message until the
/// dispatch that produced it ends and then sends, per destination and kind
/// label, one [`Message::Batch`] — through the ordinary `ctx.send`, so the
/// network blocks, drops, duplicates, delays and traces it as the single
/// message it is. What a step decides and when its version next steps were
/// settled before the message was posted, so a lost batch costs each of
/// its versions exactly what a lost probe costs today: the step stays
/// unanswered and the version retries on its own back-off.
#[derive(Debug)]
struct Outbox {
    batching: bool,
    /// This dispatch's batches so far, in first-emission order: destination,
    /// kind id, and the messages of that kind posted for it. Empty between
    /// dispatches, and always when not batching.
    batches: Vec<(NodeId, usize, Vec<Message>)>,
}

impl Outbox {
    fn new(batching: bool) -> Self {
        Outbox {
            batching,
            batches: Vec::new(),
        }
    }

    /// Sends `msg` to `to`: at once, or — batching — with the rest of what
    /// this dispatch posts of its kind for `to`.
    // lint:hot
    fn post(&mut self, ctx: &mut Context<'_, Message>, to: NodeId, msg: Message) {
        use simnet::Payload;
        if !self.batching {
            ctx.send(to, msg);
            return;
        }
        let kind = msg.kind_id();
        let open = self
            .batches
            .iter_mut()
            .find(|(dest, of_kind, _)| *dest == to && *of_kind == kind);
        match open {
            Some((.., entries)) => entries.push(msg),
            None => self.batches.push((to, kind, vec![msg])),
        }
    }

    /// Ends the dispatch: every batch goes out as one message.
    fn flush(&mut self, ctx: &mut Context<'_, Message>) {
        for (to, _, entries) in self.batches.drain(..) {
            ctx.send(to, Message::Batch(entries));
        }
    }
}

/// A fragment server actor.
pub struct Fs {
    topo: Arc<Topology>,
    my_dc: DataCenterId,
    opts: ConvergenceOptions,
    /// Own node id, captured at `on_start` (actors learn their id from the
    /// context).
    self_id: Option<NodeId>,
    /// Protocol behaviour switches, fixed at construction.
    mode: ProtocolMode,
    /// Round traffic leaves through here (batched or not, per `mode`).
    outbox: Outbox,
    /// Cached `topo.all_klss().count()` for the verification check.
    total_klss: usize,
    /// Every version this FS knows, with its fragments, metadata and
    /// convergence state.
    store: VersionStore,
    round_scheduled: bool,
    next_op: OpId,
    /// Convergence steps executed (for tests and ablations).
    steps_run: u64,
    /// Recoveries completed locally (for tests and ablations).
    recoveries_done: u64,
    /// Corrupted fragments detected (by the scrubber or the read path).
    corruption_detected: u64,
    /// Codecs by `(k, n)`, built once per policy shape: constructing a
    /// codec runs a Gaussian elimination, far too costly per recovery.
    codecs: BTreeMap<(u8, u8), Codec>,
    /// Reusable fragment-list scratch for the recovery path.
    recover_scratch: Vec<Fragment>,
    /// Reusable `(version, slot)` list for `run_round` and `scrub`,
    /// so steady-state rounds do not allocate a version list each tick.
    version_scratch: Vec<(ObjectVersion, u32)>,
    /// This DC's repair actor, set by the cluster builder when the
    /// repair engine is enabled; inventory reports go here.
    repair_target: Option<NodeId>,
    /// First version the next scrub tick scans (`None`: start a fresh
    /// pass). Scrub walks the store in version order, a
    /// [`ConvergenceOptions::scrub_chunk_bytes`] budget at a time.
    scrub_cursor: Option<ObjectVersion>,
}

impl Fs {
    /// Creates the FS for data center `my_dc` with the given convergence
    /// configuration and the default [`ProtocolMode`].
    pub fn new(topo: Arc<Topology>, my_dc: DataCenterId, opts: ConvergenceOptions) -> Self {
        Self::with_mode(topo, my_dc, opts, ProtocolMode::default())
    }

    /// Creates the FS with an explicit [`ProtocolMode`].
    pub fn with_mode(
        topo: Arc<Topology>,
        my_dc: DataCenterId,
        opts: ConvergenceOptions,
        mode: ProtocolMode,
    ) -> Self {
        let total_klss = topo.all_klss().count();
        Fs {
            topo,
            my_dc,
            opts,
            self_id: None,
            mode,
            outbox: Outbox::new(mode.batch_rounds),
            total_klss,
            store: VersionStore::new(),
            round_scheduled: false,
            next_op: 1,
            steps_run: 0,
            recoveries_done: 0,
            corruption_detected: 0,
            codecs: BTreeMap::new(),
            recover_scratch: Vec::new(),
            version_scratch: Vec::new(),
            repair_target: None,
            scrub_cursor: None,
        }
    }

    /// Points this FS's periodic inventory reports at its DC's repair
    /// actor (cluster builder API; reports only flow when
    /// [`ConvergenceOptions`] enables the repair engine).
    pub fn set_repair_target(&mut self, target: NodeId) {
        self.repair_target = Some(target);
    }

    fn codec(&mut self, k: u8, n: u8) -> &Codec {
        self.codecs.entry((k, n)).or_insert_with(|| {
            // lint:allow(panic-path): (k, n) validated when the policy was accepted
            Codec::new(usize::from(k), usize::from(n)).expect("policy validated at put time")
        })
    }

    // ---- state inspection ----

    /// The data center this FS lives in.
    pub fn dc(&self) -> DataCenterId {
        self.my_dc
    }

    /// The stored entry for `ov`, if any.
    pub fn entry(&self, ov: ObjectVersion) -> Option<&FragEntry> {
        self.store.entry(ov)
    }

    /// Whether this FS holds every fragment assigned to it by `ov`'s
    /// metadata and that metadata is complete (the per-FS half of the AMR
    /// condition; the paper's `verify(storefrag[ov])`). A compacted
    /// residual reports `true`: compaction requires the version to have
    /// been settled AMR, which implies it verified (so replies about it
    /// stay byte-identical to the full store's).
    pub fn verified(&self, ov: ObjectVersion) -> bool {
        // A version is live or a residual, never both, and the probes that
        // matter are about live ones: ask the index first.
        match self.store.entry(ov) {
            Some(entry) => Self::entry_verified(entry, self.self_node()),
            None => self.store.residual(ov).is_some(),
        }
    }

    /// [`Fs::verified`] for a version that holds its full entry.
    fn entry_verified(entry: &FragEntry, me: NodeId) -> bool {
        entry.meta.is_complete() && Self::missing_mask(entry, me).is_empty()
    }

    /// Versions still being converged.
    pub fn pending_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.pending_versions()
    }

    /// Versions this FS considers AMR.
    pub fn amr_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.amr_versions()
    }

    /// When this FS settled `ov` as AMR (verified it, or received an AMR
    /// indication), if it has.
    pub fn amr_settled_at(&self, ov: ObjectVersion) -> Option<SimTime> {
        self.store.amr_at(ov)
    }

    /// Every version present in the fragment store.
    pub fn known_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.known_versions()
    }

    /// Versions abandoned after exceeding the give-up age.
    pub fn gave_up_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.gave_up_versions()
    }

    /// Total convergence steps this FS has executed.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Fragment recoveries this FS completed.
    pub fn recoveries_done(&self) -> u64 {
        self.recoveries_done
    }

    /// Corrupted fragments detected so far (scrubber + read path).
    pub fn corruption_detected(&self) -> u64 {
        self.corruption_detected
    }

    /// The compaction residual for `ov` — the fragment indices this FS
    /// held when the superseded, settled-AMR version was collapsed to an
    /// O(1) record — if `ov` has been compacted.
    pub fn compacted_residual(&self, ov: ObjectVersion) -> Option<FragMask> {
        self.store.residual(ov)
    }

    /// Number of versions this FS has compacted to residual records.
    pub fn compacted_count(&self) -> usize {
        self.store.compacted_count()
    }

    /// Version-store slots in use: one per version that still holds a
    /// full entry. Together with [`compacted_count`](Fs::compacted_count)
    /// this accounts for every known version exactly once.
    pub fn resident_slots(&self) -> usize {
        self.store.resident_slots()
    }

    /// Versions this FS has compacted, in object-version order.
    pub fn compacted_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.compacted_versions()
    }

    // ---- fault injection (harness API) ----

    /// Silently corrupts a stored fragment by flipping one payload byte
    /// without touching its recorded checksum — simulating bit rot on
    /// disk. Returns `false` if the fragment is not stored (or empty).
    /// Wake the FS with [`WAKE_TIMER_TAG`] afterwards if you want the
    /// scrubber disabled and detection to happen on the next read
    /// instead.
    pub fn corrupt_fragment(&mut self, ov: ObjectVersion, idx: FragmentIndex) -> bool {
        let Some(entry) = self.store.entry_mut(ov) else {
            return false;
        };
        let Some(frag) = entry.fragments.get_mut(&idx) else {
            return false;
        };
        if frag.is_empty() {
            return false;
        }
        let mut bytes = frag.data().to_vec();
        bytes[0] ^= 0xFF;
        *frag = Fragment::new(idx, bytes);
        true
    }

    /// Destroys one disk: every fragment this server stores on `disk`
    /// (per each version's metadata) is dropped, and the affected
    /// versions re-enter the convergence store so their fragments get
    /// rebuilt (§3.1's "rebuild destroyed disks"). Returns the number of
    /// fragments lost. Wake the FS with [`WAKE_TIMER_TAG`] afterwards.
    pub fn destroy_disk(&mut self, disk: u8, now: SimTime) -> usize {
        let me = match self.self_id {
            Some(id) => id,
            None => return 0, // never ran; stores nothing
        };
        let mut lost = 0;
        // Live versions only: compacted residuals hold no bytes, so a
        // dead disk cannot lose them.
        let mut versions = Vec::new();
        self.store.collect_live(&mut versions);
        for (ov, slot) in versions {
            let doomed: Vec<FragmentIndex> = {
                let Some(entry) = self.store.entry_at(ov, slot) else {
                    continue;
                };
                entry
                    .meta
                    .assignments()
                    .filter(|(idx, loc)| {
                        loc.fs == me && loc.disk == disk && entry.fragments.contains_key(idx)
                    })
                    .map(|(idx, _)| idx)
                    .collect()
            };
            if doomed.is_empty() {
                continue;
            }
            let entry = self.store.entry_at_mut(ov, slot).expect("present");
            for idx in &doomed {
                entry.fragments.remove(idx);
                entry.checksums.remove(idx);
                lost += 1;
            }
            self.re_pend(ov, now);
        }
        lost
    }

    /// Re-enters a version into the convergence store (after corruption
    /// or disk loss), clearing any AMR/give-up status.
    fn re_pend(&mut self, ov: ObjectVersion, now: SimTime) {
        let work = self.store.reopen(ov, now);
        work.attempts = 0;
        work.next_eligible = now;
    }

    /// One scrub tick: verifies stored fragments against their recorded
    /// checksums, at most [`ConvergenceOptions::scrub_chunk_bytes`] of
    /// payload per tick (a persistent cursor resumes the walk on the next
    /// tick, so the cost of one event is proportional to the bytes it
    /// scanned, not to the whole store). Corrupted fragments are dropped
    /// and their versions re-entered for convergence (which regenerates
    /// them from the siblings). Returns the number of corrupted fragments
    /// found this tick.
    // lint:hot
    fn scrub(&mut self, ctx: &mut Context<'_, Message>) -> usize {
        let now = ctx.now();
        let budget = self.opts.scrub_chunk_bytes.max(1);
        let mut scanned = 0usize;
        let mut found = 0;
        let mut versions = std::mem::take(&mut self.version_scratch);
        self.store.collect_live(&mut versions);
        let resume = self.scrub_cursor.take();
        for &(ov, slot) in &versions {
            if resume.is_some_and(|cur| ov < cur) {
                continue;
            }
            if scanned >= budget {
                // Out of budget: resume from this version next tick.
                self.scrub_cursor = Some(ov);
                break;
            }
            // Corrupted fragment indices as a mask: no per-version list
            // allocation on the (usually clean) scrub walk.
            let mut bad = FragMask::new();
            {
                let Some(entry) = self.store.entry_at_mut(ov, slot) else {
                    continue;
                };
                for (&idx, frag) in &entry.fragments {
                    scanned += frag.len();
                    if !entry
                        .checksums
                        .get(&idx)
                        .is_some_and(|sum| sum.verify(frag.data()))
                    {
                        bad.insert(idx);
                    }
                }
                if bad.is_empty() {
                    continue;
                }
                for idx in bad.iter() {
                    entry.fragments.remove(&idx);
                    entry.checksums.remove(&idx);
                    found += 1;
                }
            }
            self.re_pend(ov, now);
        }
        versions.clear();
        self.version_scratch = versions;
        self.corruption_detected += found as u64;
        if found > 0 {
            self.ensure_round(ctx);
        }
        found
    }

    /// Sends this FS's fragment inventory — every known version with its
    /// metadata and held fragment indices — to the DC's repair actor. An
    /// empty store still reports (the actor waits for every FS before
    /// judging redundancy).
    fn send_repair_report(&mut self, ctx: &mut Context<'_, Message>) {
        let Some(target) = self.repair_target else {
            return;
        };
        let mut versions = std::mem::take(&mut self.version_scratch);
        self.store.collect_live(&mut versions);
        let mut entries = Vec::with_capacity(versions.len());
        for &(ov, slot) in &versions {
            let Some(entry) = self.store.entry_at(ov, slot) else {
                continue;
            };
            entries.push((
                ov,
                Arc::clone(&entry.meta),
                entry.fragments.keys().copied().collect(),
            ));
        }
        versions.clear();
        self.version_scratch = versions;
        ctx.send(target, Message::RepairReport { entries });
    }

    // ---- internals ----

    /// This FS's own node id. Valid only while processing an event, so we
    /// thread it through from the context; stored here for inspection
    /// methods we keep a copy the first time an event runs.
    fn self_node(&self) -> NodeId {
        // lint:allow(panic-path): self_id is recorded the first time an event runs
        self.self_id.expect("FS has processed at least one event")
    }

    fn ensure_round(&mut self, ctx: &mut Context<'_, Message>) {
        if self.round_scheduled || self.store.pending_is_empty() {
            return;
        }
        let delay = match self.opts.schedule {
            RoundSchedule::Unsynchronized => {
                let lo = self.opts.round_min.as_micros();
                let hi = self.opts.round_max.as_micros();
                simnet::SimDuration::from_micros(rand::Rng::random_range(ctx.rng(), lo..=hi))
            }
            RoundSchedule::Synchronized => {
                // Fire at the next global multiple of the period.
                let period = self.opts.sync_period.as_micros();
                let now = ctx.now().as_micros();
                let next = (now / period + 1) * period;
                simnet::SimDuration::from_micros(next - now)
            }
        };
        ctx.schedule_timer(delay, TAG_ROUND);
        self.round_scheduled = true;
    }

    /// New information arrived for `ov`: reset its backoff so convergence
    /// reacts promptly, and make sure a round is coming.
    fn note_progress(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        if let Some(work) = self.store.work_mut(ov) {
            work.attempts = 0;
            work.next_eligible = ctx.now();
        }
        self.ensure_round(ctx);
    }

    /// Ensures the store tracks `ov` (pending unless it is already
    /// settled) and merges `meta` in. Returns `true` if the metadata
    /// gained locations.
    // lint:hot
    fn adopt(
        &mut self,
        ctx: &mut Context<'_, Message>,
        ov: ObjectVersion,
        meta: &Arc<Metadata>,
    ) -> bool {
        let now = ctx.now();
        let Some((entry, _inserted)) = self.store.entry_or_insert_with(ov, now, || FragEntry {
            meta: Arc::clone(meta),
            fragments: FragMap::new(),
            checksums: FragMap::new(),
        }) else {
            // Compacted: the version is settled AMR with complete
            // metadata, so a full store's merge would be a no-op and
            // the settled branch below would skip scheduling anyway.
            return false;
        };
        let changed = Metadata::merge_shared(&mut entry.meta, meta);
        if !self.store.is_settled(ov) {
            if changed {
                self.note_progress(ctx, ov);
            } else {
                self.ensure_round(ctx);
            }
        }
        changed
    }

    /// Marks `ov` AMR: drop convergence work, optionally broadcast FS AMR
    /// indications.
    fn finalize_amr(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion, indicate: bool) {
        let newly_settled = self.store.amr_at(ov).is_none();
        if let Some(work) = self.store.settle_amr(ov, ctx.now()) {
            if let Some(rec) = work.recovery {
                self.cancel_recovery_timers(ctx, &rec);
            }
        }
        if indicate && self.opts.fs_amr_indication {
            let me = ctx.self_id();
            let meta = Arc::clone(
                &self
                    .store
                    .entry(ov)
                    // lint:allow(panic-path): settled versions stay stored
                    .expect("settled versions are stored")
                    .meta,
            );
            for fs in meta.siblings() {
                if fs != me {
                    let meta = Arc::clone(&meta);
                    self.outbox
                        .post(ctx, fs, Message::AmrIndication { ov, meta });
                }
            }
        }
        // A newly settled AMR version supersedes every older settled
        // version of the same key: collapse those to residual records.
        // Pure local bookkeeping — no messages, timers, or RNG draws —
        // so replay digests are unchanged. Gated on the first settle
        // (re-indications re-stamp the AMR time but open no new
        // compaction opportunity), which with the incremental walk in
        // [`VersionStore::compact_superseded`] keeps hot-key settles
        // amortized O(1).
        if self.mode.compact_converged && newly_settled {
            self.store.compact_superseded(ov);
        }
    }

    fn cancel_recovery_timers(&self, ctx: &mut Context<'_, Message>, rec: &Recovery) {
        if let Some(t) = rec.wait_timer {
            ctx.cancel_timer(t);
        }
        ctx.cancel_timer(rec.timeout_timer);
    }

    /// Abandons an in-flight recovery (backoff already set by the step
    /// that started it).
    fn abort_recovery(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        if let Some(work) = self.store.work_mut(ov) {
            if let Some(rec) = work.recovery.take() {
                let rec_timers = rec;
                self.cancel_recovery_timers(ctx, &rec_timers);
            }
        }
    }

    /// Runs one convergence round (the paper's `start_round`).
    // lint:hot
    fn run_round(&mut self, ctx: &mut Context<'_, Message>) {
        let now = ctx.now();
        let mut versions = std::mem::take(&mut self.version_scratch);
        self.store.collect_pending(&mut versions);
        for &(ov, slot) in &versions {
            let Some(work) = self.store.work_at(ov, slot) else {
                continue;
            };
            if work.recovery.is_some() || now < work.next_eligible {
                continue;
            }
            // `min_age` is on the version's own age (its stamp is a proxy
            // clock reading), not on how long this FS has known of it.
            let age_us = now.as_micros().saturating_sub(ov.ts.clock_micros());
            if age_us < self.opts.min_age.as_micros() {
                continue;
            }
            if let Some(limit) = self.opts.give_up_age {
                if now.duration_since(work.created) > limit {
                    self.store.settle_gave_up(ov);
                    continue;
                }
            }
            self.step(ctx, ov, slot);
        }
        versions.clear();
        self.version_scratch = versions;
        self.ensure_round(ctx);
    }

    /// One convergence step for one object version.
    // lint:hot
    fn step(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion, slot: u32) {
        self.steps_run += 1;
        let me = ctx.self_id();
        let entry = self
            .store
            .entry_at(ov, slot)
            // lint:allow(panic-path): step runs only over the pending listing
            .expect("pending implies stored");
        let meta = Arc::clone(&entry.meta);
        let missing = Self::missing_mask(entry, me);

        // Charge the backoff up front; any new information resets it.
        let attempt = {
            // lint:allow(panic-path): step already verified the version is pending
            let work = self.store.work_at_mut(ov, slot).expect("checked by caller");
            work.attempts += 1;
            let delay = self.opts.backoff_delay(work.attempts);
            work.next_eligible = ctx.now() + delay;
            work.step_open = false;
            work.attempts as usize
        };

        if !meta.is_complete() {
            // 1. Metadata repair: probe one KLS per missing DC, rotating
            // through the DC's KLSs across attempts (§3.5 fixed order).
            for dc in self.topo.dc_ids() {
                if meta.has_dc(dc) {
                    continue;
                }
                let klss = self.topo.klss_in(dc);
                // lint:allow(panic-path): every DC has at least one KLS (topology invariant)
                let kls = klss[(attempt - 1) % klss.len()];
                ctx.send(
                    kls,
                    Message::FsDecideLocs {
                        ov,
                        meta: Arc::clone(&meta),
                    },
                );
            }
        } else if !missing.is_empty() {
            // 2. Fragment recovery.
            self.start_recovery(ctx, ov);
        } else {
            // 3. Verification: probe all KLSs and sibling FSs.
            {
                // lint:allow(panic-path): step already verified the version is pending
                let work = self.store.work_at_mut(ov, slot).expect("present");
                work.kls_ok.clear();
                work.fs_ok.clear();
                work.step_open = true;
            }
            for kls in self.topo.all_klss() {
                let meta = Arc::clone(&meta);
                self.outbox
                    .post(ctx, kls, Message::ConvergeKls { ov, meta });
            }
            for fs in meta.siblings() {
                if fs != me {
                    self.outbox.post(
                        ctx,
                        fs,
                        Message::ConvergeFs {
                            ov,
                            meta: Arc::clone(&meta),
                            recovery_intent: false,
                        },
                    );
                }
            }
            self.check_amr(ctx, ov);
        }
    }

    /// Fragment indices assigned to `me` that are not in the store.
    // lint:hot
    fn missing_mask(entry: &FragEntry, me: NodeId) -> FragMask {
        let mut mask = FragMask::new();
        for idx in entry.meta.assigned_to(me) {
            if !entry.fragments.contains_key(&idx) {
                mask.insert(idx);
            }
        }
        mask
    }

    fn start_recovery(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        let me = ctx.self_id();
        let op = self.next_op;
        self.next_op += 1;
        // lint:allow(panic-path): recovery starts only for pending (hence stored) versions
        let meta = Arc::clone(&self.store.entry(ov).expect("pending implies stored").meta);
        let timeout_timer =
            ctx.schedule_timer(self.opts.recovery_timeout, TAG_RECOVERY_TIMEOUT | op);

        if self.opts.sibling_recovery {
            // Probe siblings with the recovery-intent flag; their replies
            // report what they need; we fetch after a short accumulation
            // window.
            for fs in meta.siblings() {
                if fs != me {
                    self.outbox.post(
                        ctx,
                        fs,
                        Message::ConvergeFs {
                            ov,
                            meta: Arc::clone(&meta),
                            recovery_intent: true,
                        },
                    );
                }
            }
            let wait_timer = ctx.schedule_timer(self.opts.recovery_wait, TAG_RECOVERY_WAIT | op);
            // lint:allow(panic-path): recovery starts only for pending versions
            let work = self.store.work_mut(ov).expect("present");
            work.recovery = Some(Recovery {
                op,
                phase: RecoveryPhase::AwaitingReports,
                reports: BTreeMap::new(),
                collected: BTreeMap::new(),
                wait_timer: Some(wait_timer),
                timeout_timer,
            });
        } else {
            // Naïve recovery: a get of this object version — request every
            // remotely assigned fragment (§3.4 `recover_fragment`).
            for (idx, loc) in meta.assignments() {
                if loc.fs != me {
                    ctx.send(
                        loc.fs,
                        Message::RetrieveFrag {
                            op,
                            ov,
                            fragment: idx,
                        },
                    );
                }
            }
            // lint:allow(panic-path): recovery starts only for pending versions
            let work = self.store.work_mut(ov).expect("present");
            work.recovery = Some(Recovery {
                op,
                phase: RecoveryPhase::Fetching,
                reports: BTreeMap::new(),
                collected: BTreeMap::new(),
                wait_timer: None,
                timeout_timer,
            });
        }
    }

    /// The recovery-wait window closed: pick fragments to fetch based on
    /// the siblings' reports.
    fn recovery_wait_elapsed(&mut self, ctx: &mut Context<'_, Message>, op: OpId) {
        let Some(ov) = self.store.find_recovery(op) else {
            return;
        };
        let me = ctx.self_id();
        let (local, k) = {
            // lint:allow(panic-path): find_recovery returned this ov, so it is stored
            let entry = self.store.entry(ov).expect("recovering implies stored");
            let local: BTreeSet<FragmentIndex> = entry.fragments.keys().copied().collect();
            (local, usize::from(entry.meta.policy().k))
        };

        // Plan fetches: iterate reports in id order, taking fragments we
        // neither hold nor already planned, until k total are available.
        let mut plan: Vec<(NodeId, FragmentIndex)> = Vec::new();
        let mut planned: BTreeSet<FragmentIndex> = local.clone();
        {
            // lint:allow(panic-path): find_recovery returned this ov, so it is pending
            let work = self.store.work_mut(ov).expect("recovering");
            // lint:allow(panic-path): find_recovery guarantees an in-flight recovery
            let rec = work.recovery.as_mut().expect("recovering");
            rec.phase = RecoveryPhase::Fetching;
            rec.wait_timer = None;
            for (&fs, (have, _)) in &rec.reports {
                for &idx in have {
                    if planned.len() >= k {
                        break;
                    }
                    if !planned.contains(&idx) {
                        planned.insert(idx);
                        plan.push((fs, idx));
                    }
                }
            }
        }
        if planned.len() < k {
            // Not enough fragments reachable right now; retry at a later
            // round (backoff was charged when the step started).
            self.abort_recovery(ctx, ov);
            return;
        }
        debug_assert!(!plan.iter().any(|(fs, _)| *fs == me));
        for (fs, idx) in plan {
            ctx.send(
                fs,
                Message::RetrieveFrag {
                    op,
                    ov,
                    fragment: idx,
                },
            );
        }
        // If we already hold k fragments locally (possible when only our
        // *other* disk's fragment is missing), finish immediately.
        if local.len() >= k {
            self.try_finish_recovery(ctx, ov);
        }
    }

    /// Completes the recovery if enough fragments are on hand: regenerate
    /// our missing fragments (and, in sibling mode, everything the
    /// siblings reported missing) and push the siblings' shares to them.
    fn try_finish_recovery(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        let me = ctx.self_id();
        let (policy, value_len, meta, my_mask, pool, sibling_needs) = {
            // lint:allow(panic-path): recovery in flight implies stored
            let entry = self.store.entry(ov).expect("recovering implies stored");
            // lint:allow(panic-path): recovery in flight implies pending
            let work = self.store.work(ov).expect("recovering");
            // lint:allow(panic-path): callers reach here only with a recovery in flight
            let rec = work.recovery.as_ref().expect("recovery in flight");
            let mut pool = entry.fragments.clone();
            for (idx, frag) in &rec.collected {
                if !pool.contains_key(idx) {
                    pool.insert(*idx, frag.clone());
                }
            }
            let mut sibling_needs: Vec<(NodeId, Vec<FragmentIndex>)> = Vec::new();
            if self.opts.sibling_recovery {
                for (&fs, (_, missing)) in &rec.reports {
                    if !missing.is_empty() {
                        sibling_needs.push((fs, missing.clone()));
                    }
                }
            }
            (
                *entry.meta.policy(),
                entry.meta.value_len(),
                Arc::clone(&entry.meta),
                Self::missing_mask(entry, me),
                pool,
                sibling_needs,
            )
        };
        let k = usize::from(policy.k);
        if pool.len() < k {
            return; // keep waiting for more RetrieveFragReply
        }

        // Regeneration targets: our own missing fragments plus everything
        // the siblings reported missing, deduplicated by the mask.
        let mut target_mask = my_mask;
        for (_, needs) in &sibling_needs {
            for &idx in needs {
                target_mask.insert(idx);
            }
        }
        let targets: Vec<FragmentIndex> = target_mask.iter().collect();

        let sources: Vec<Fragment> = pool.values().cloned().collect();
        let mut recovered = std::mem::take(&mut self.recover_scratch);
        self.codec(policy.k, policy.n)
            .recover_into(&sources, &targets, value_len, &mut recovered)
            // lint:allow(panic-path): pool.len() >= k checked above
            .expect("k fragments suffice");
        let by_idx: BTreeMap<FragmentIndex, Fragment> =
            recovered.drain(..).map(|f| (f.index(), f)).collect();
        self.recover_scratch = recovered;

        // Store our own missing fragments.
        {
            // lint:allow(panic-path): recovering versions stay stored
            let entry = self.store.entry_mut(ov).expect("present");
            for idx in my_mask.iter() {
                // lint:allow(panic-path): recover_into returns a fragment for every requested target
                let frag = by_idx[&idx].clone();
                entry.checksums.insert(idx, Checksum::of(frag.data()));
                entry.fragments.insert(idx, frag);
            }
        }
        // Push the siblings' recovered fragments to them (§4.2).
        for (fs, needs) in sibling_needs {
            for idx in needs {
                ctx.send(
                    fs,
                    Message::SiblingStore {
                        ov,
                        meta: Arc::clone(&meta),
                        // lint:allow(panic-path): recover_into returns a fragment for every requested target
                        fragment: by_idx[&idx].clone(),
                    },
                );
            }
        }

        self.recoveries_done += 1;
        // lint:allow(panic-path): recovering versions stay pending until settled here
        let work = self.store.work_mut(ov).expect("present");
        // lint:allow(panic-path): recovery was in flight until taken here
        let rec = work.recovery.take().expect("recovery in flight");
        self.cancel_recovery_timers(ctx, &rec);
        self.note_progress(ctx, ov);
    }

    /// Records a verification-step reply and finalizes AMR when everyone
    /// verified (the paper's `is_amr`).
    fn check_amr(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        let me = ctx.self_id();
        let Some(work) = self.store.work(ov) else {
            return;
        };
        if !work.step_open {
            return;
        }
        // `kls_ok` only ever holds KLSs that replied verified, so reaching
        // the cluster's KLS count is the seed's superset-of-all-KLSs test
        // without rebuilding that set per reply.
        if work.kls_ok.len() < self.total_klss {
            return;
        }
        // lint:allow(panic-path): pending versions are always stored
        let meta = &self.store.entry(ov).expect("pending implies stored").meta;
        let all_siblings_ok = meta
            .siblings()
            .filter(|&fs| fs != me)
            .all(|fs| work.fs_ok.contains(&fs));
        if all_siblings_ok && self.verified(ov) {
            self.finalize_amr(ctx, ov, true);
        }
    }

    /// Store a fragment (from a proxy put, or a sibling push).
    ///
    /// Windowed delta fragments (§8.8) are eagerly resolved against the
    /// base version's dense same-index fragment before storing — stored
    /// state is always dense, so gets, checksums, recovery and compaction
    /// stay delta-oblivious and single-step (chains never accumulate on
    /// disk). Returns whether the fragment is durably stored; `false`
    /// only for a delta whose base this server no longer holds (e.g.
    /// compacted), in which case the caller withholds the acknowledgment
    /// and the proxy's timeout/retry path re-anchors with a full encode.
    fn store_fragment(
        &mut self,
        ctx: &mut Context<'_, Message>,
        ov: ObjectVersion,
        meta: &Arc<Metadata>,
        fragment: Fragment,
    ) -> bool {
        // Resolve deltas *before* adopting the new version's metadata:
        // adoption supersedes the base, and a compacting store releases a
        // settled superseded base's fragments in the same breath — the
        // window where the delta is still applicable is exactly now.
        let was_delta = fragment.is_delta();
        let fragment = if was_delta {
            let base = meta
                .delta_base()
                .map(|ts| ObjectVersion::new(ov.key, ts))
                .and_then(|base_ov| self.store.entry(base_ov))
                .and_then(|e| e.fragments.get(&fragment.index()))
                .cloned();
            match base.as_ref().and_then(|b| fragment.apply_delta(b)) {
                Some(resolved) => resolved,
                None => {
                    // Base fragment gone (compacted, or never stored
                    // here): unresolvable, so nothing durable to ack.
                    ctx.record_event(EV_DELTA_UNRESOLVABLE, 1);
                    self.adopt(ctx, ov, meta);
                    self.note_progress(ctx, ov);
                    return false;
                }
            }
        } else {
            fragment
        };
        self.adopt(ctx, ov, meta);
        if was_delta {
            ctx.record_event(EV_DELTAS_RESOLVED, 1);
        }
        // Compacted versions accept no bytes; a full store would treat
        // this as a duplicate of a fragment it already holds — in both
        // cases the store is unchanged and note_progress still runs.
        if let Some(entry) = self.store.entry_mut(ov) {
            let idx = fragment.index();
            if !entry.fragments.contains_key(&idx) {
                entry.checksums.insert(idx, Checksum::of(fragment.data()));
                entry.fragments.insert(idx, fragment);
            }
        }
        self.note_progress(ctx, ov);
        true
    }

    /// Handles one FS convergence probe.
    fn on_converge_fs(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        ov: ObjectVersion,
        meta: &Arc<Metadata>,
        recovery_intent: bool,
    ) {
        let me = ctx.self_id();
        self.adopt(ctx, ov, meta);
        // Sibling-recovery contention: both of us are recovering — the FS
        // with the *lower* id backs off (§4.2).
        if recovery_intent && self.opts.sibling_recovery && me < from {
            let ours = self
                .store
                .work(ov)
                .and_then(|w| w.recovery.as_ref())
                .map(|r| r.op);
            if let Some(op) = ours {
                self.recovery_cancelled(ctx, ov, op);
            }
        }
        let (have, missing, verified): (Vec<FragmentIndex>, Vec<FragmentIndex>, bool) =
            match self.store.entry(ov) {
                Some(entry) => {
                    let have = entry.fragments.keys().copied().collect();
                    let missing = if entry.meta.is_complete() {
                        Self::missing_mask(entry, me).iter().collect()
                    } else {
                        Vec::new()
                    };
                    (have, missing, Self::entry_verified(entry, me))
                }
                None => {
                    // Compacted: the residual mask is exactly the fragment
                    // set the full store would report, and a verified AMR
                    // version misses nothing — the reply is byte-identical.
                    // lint:allow(panic-path): adopt stores any non-compacted version
                    let held = self.store.residual(ov).expect("compacted");
                    (held.iter().collect(), Vec::new(), true)
                }
            };
        let recovering = self.store.work(ov).is_some_and(|w| w.recovery.is_some());
        self.outbox.post(
            ctx,
            from,
            Message::ConvergeFsReply {
                ov,
                verified,
                have,
                missing,
                recovering,
            },
        );
    }

    /// Self id captured from the first processed event (actors do not know
    /// their id before that).
    fn remember_self(&mut self, ctx: &Context<'_, Message>) {
        if self.self_id.is_none() {
            self.self_id = Some(ctx.self_id());
        }
    }
}

impl Actor<Message> for Fs {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        self.self_id = Some(ctx.self_id());
        if let Some(interval) = self.opts.scrub_interval {
            ctx.schedule_timer(interval, TAG_SCRUB);
        }
        if let Some(repair) = self.opts.repair.as_ref() {
            ctx.schedule_timer(repair.report_interval, TAG_REPAIR_REPORT);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        self.remember_self(ctx);
        match msg {
            Message::StoreFragment { ov, meta, fragment } => {
                let idx = fragment.index();
                if self.store_fragment(ctx, ov, &meta, fragment) {
                    ctx.send(from, Message::StoreFragmentReply { ov, fragment: idx });
                }
            }

            Message::StoreMetadata { ov, meta } => {
                // Proxy location update for a fragment we already hold
                // (second wave of the put, §5.2).
                self.adopt(ctx, ov, &meta);
                // Compacted versions settled with complete metadata.
                let complete = self.store.entry(ov).is_none_or(|e| e.meta.is_complete());
                ctx.send(from, Message::StoreMetadataReply { ov, complete });
            }

            Message::SiblingStore { ov, meta, fragment } => {
                // Recovered fragment pushed by a sibling; unacknowledged
                // (and always dense — recovery regenerates full rows).
                let _ = self.store_fragment(ctx, ov, &meta, fragment);
            }

            Message::LocsIndication { ov, meta } => {
                self.adopt(ctx, ov, &meta);
            }

            // Round traffic, which a batching peer sends as one message
            // per dispatch and kind: the same handler, entry by entry.
            round @ (Message::AmrIndication { .. }
            | Message::ConvergeFs { .. }
            | Message::ConvergeFsReply { .. }
            | Message::ConvergeKlsReply { .. }) => self.on_round_message(ctx, from, round),
            Message::Batch(entries) => {
                for entry in entries {
                    self.on_round_message(ctx, from, entry);
                }
            }

            Message::DecideLocsReply { ov, dc, locations } => {
                // Reply to our FsDecideLocs probe.
                if let Some(entry) = self.store.entry_mut(ov) {
                    if !entry.meta.has_dc(dc) {
                        Arc::make_mut(&mut entry.meta).add_dc_locations(dc, locations);
                        self.note_progress(ctx, ov);
                    }
                }
            }

            Message::RetrieveFrag { op, ov, fragment } => {
                // Verify before serving: a fragment that fails its hash
                // is corrupt — drop it, answer ⊥, and let convergence
                // regenerate it (§3.1).
                let mut data = None;
                if let Some(entry) = self.store.entry(ov) {
                    if let Some(frag) = entry.fragments.get(&fragment) {
                        let ok = entry
                            .checksums
                            .get(&fragment)
                            .is_some_and(|sum| sum.verify(frag.data()));
                        if ok {
                            data = Some(frag.clone());
                        }
                    }
                }
                if data.is_none()
                    && self
                        .store
                        .entry(ov)
                        .is_some_and(|e| e.fragments.contains_key(&fragment))
                {
                    // Present but corrupt.
                    let now = ctx.now();
                    // lint:allow(panic-path): the entry was checked present just above
                    let entry = self.store.entry_mut(ov).expect("present");
                    entry.fragments.remove(&fragment);
                    entry.checksums.remove(&fragment);
                    self.corruption_detected += 1;
                    self.re_pend(ov, now);
                    self.ensure_round(ctx);
                }
                ctx.send(
                    from,
                    Message::RetrieveFragReply {
                        op,
                        ov,
                        fragment,
                        data,
                    },
                );
            }

            Message::RetrieveFragReply { op, ov, data, .. } => {
                self.on_retrieve_frag_reply(ctx, op, ov, data);
            }

            other => {
                debug_assert!(false, "FS received unexpected {:?}", other);
            }
        }
        self.outbox.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        self.remember_self(ctx);
        let op = tag & !TAG_MASK;
        match tag & TAG_MASK {
            TAG_ROUND => {
                self.round_scheduled = false;
                self.run_round(ctx);
            }
            TAG_RECOVERY_WAIT => self.recovery_wait_elapsed(ctx, op),
            TAG_RECOVERY_TIMEOUT => {
                if let Some(ov) = self.store.find_recovery(op) {
                    self.abort_recovery(ctx, ov);
                    self.ensure_round(ctx);
                }
            }
            TAG_SCRUB => {
                self.scrub(ctx);
                if let Some(interval) = self.opts.scrub_interval {
                    ctx.schedule_timer(interval, TAG_SCRUB);
                }
            }
            TAG_REPAIR_REPORT => {
                self.send_repair_report(ctx);
                if let Some(repair) = self.opts.repair.as_ref() {
                    ctx.schedule_timer(repair.report_interval, TAG_REPAIR_REPORT);
                }
            }
            _ => debug_assert!(false, "unknown FS timer tag {tag:#x}"),
        }
        self.outbox.flush(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Fs {
    /// Handles one message of a convergence round — a sibling's probe or
    /// AMR indication, or a reply to a probe of ours — whether it arrived
    /// alone or as an entry of a [`Message::Batch`].
    fn on_round_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        let me = ctx.self_id();
        match msg {
            Message::AmrIndication { ov, meta } => {
                // Complete our metadata and stop all convergence work
                // (cancelling recovery timers), without re-indicating.
                self.adopt(ctx, ov, &meta);
                self.finalize_amr(ctx, ov, false);
            }

            Message::ConvergeFs {
                ov,
                meta,
                recovery_intent,
            } => {
                self.on_converge_fs(ctx, from, ov, &meta, recovery_intent);
            }

            Message::ConvergeFsReply {
                ov,
                verified,
                have,
                missing,
                recovering,
            } => {
                let Some(work) = self.store.work_mut(ov) else {
                    return;
                };
                // Verification bookkeeping.
                if verified {
                    work.fs_ok.insert(from);
                }
                // Recovery bookkeeping.
                let mut backed_off = None;
                if let Some(rec) = work.recovery.as_mut() {
                    if rec.phase == RecoveryPhase::AwaitingReports {
                        rec.reports.insert(from, (have, missing));
                    }
                    // Contention observed from the reply side: the sender
                    // (higher id) is also recovering — we back off if our
                    // id is lower.
                    if recovering && me < from {
                        backed_off = Some(rec.op);
                    }
                }
                if let Some(op) = backed_off {
                    self.recovery_cancelled(ctx, ov, op);
                    return;
                }
                self.check_amr(ctx, ov);
            }

            Message::ConvergeKlsReply { ov, verified } => {
                if let Some(work) = self.store.work_mut(ov) {
                    if verified {
                        work.kls_ok.insert(from);
                    }
                }
                self.check_amr(ctx, ov);
            }

            other => {
                debug_assert!(false, "FS received unexpected {:?}", other);
            }
        }
    }

    /// A fragment fetched for the recovery `op` of `ov` arrived (or its
    /// holder answered ⊥).
    fn on_retrieve_frag_reply(
        &mut self,
        ctx: &mut Context<'_, Message>,
        op: OpId,
        ov: ObjectVersion,
        data: Option<Fragment>,
    ) {
        let Some(work) = self.store.work_mut(ov) else {
            return;
        };
        let Some(rec) = work.recovery.as_mut() else {
            return;
        };
        if rec.op != op || rec.phase != RecoveryPhase::Fetching {
            return;
        }
        if let Some(frag) = data {
            rec.collected.insert(frag.index(), frag);
        }
        self.try_finish_recovery(ctx, ov);
    }

    /// Cancels the in-flight recovery identified by `op` for `ov`.
    fn recovery_cancelled(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion, op: OpId) {
        if let Some(work) = self.store.work_mut(ov) {
            if let Some(rec) = work.recovery.take() {
                debug_assert_eq!(rec.op, op);
                self.cancel_recovery_timers(ctx, &rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kls::Kls;
    use crate::metadata::Location;
    use crate::policy::Policy;
    use crate::types::{Key, Timestamp};
    use simnet::{SimDuration, Simulation};

    /// Tiny world: 2 DCs x (1 KLS + 1 FS), policy (k=2, n=4), 2 frags
    /// per FS. Node ids: kls0=0, fs0=1, kls1=2, fs1=3, driver=4.
    fn tiny_topo() -> Arc<Topology> {
        Topology::new(vec![
            (vec![NodeId::new(0)], vec![NodeId::new(1)]),
            (vec![NodeId::new(2)], vec![NodeId::new(3)]),
        ])
    }

    fn tiny_policy() -> Policy {
        Policy::new(2, 4, 2, 2)
    }

    fn ov() -> ObjectVersion {
        ObjectVersion::new(Key::from_u64(9), Timestamp::new(SimTime::from_micros(5), 0))
    }

    fn full_meta(value_len: usize) -> Arc<Metadata> {
        let mut meta = Metadata::new(tiny_policy(), DataCenterId::new(0), value_len);
        meta.add_dc_locations(
            DataCenterId::new(0),
            vec![
                Location {
                    fs: NodeId::new(1),
                    disk: 0,
                },
                Location {
                    fs: NodeId::new(1),
                    disk: 1,
                },
            ],
        );
        meta.add_dc_locations(
            DataCenterId::new(1),
            vec![
                Location {
                    fs: NodeId::new(3),
                    disk: 0,
                },
                Location {
                    fs: NodeId::new(3),
                    disk: 1,
                },
            ],
        );
        Arc::new(meta)
    }

    /// A driver that injects a fixed script of messages at start (and
    /// whatever the test scripted since, each time it is woken by a timer)
    /// and records everything it receives.
    struct Driver {
        script: Vec<(NodeId, Message)>,
        inbox: Vec<(NodeId, Message)>,
    }
    impl Driver {
        /// Sender and kind label of everything received so far.
        fn received(&self) -> Vec<(NodeId, &'static str)> {
            let kind = |(from, msg): &(NodeId, Message)| (*from, simnet::Payload::kind(msg));
            self.inbox.iter().map(kind).collect()
        }
    }
    impl Actor<Message> for Driver {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            self.on_timer(ctx, 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
            self.inbox.push((from, msg));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _tag: u64) {
            for (to, msg) in self.script.drain(..) {
                ctx.send(to, msg);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Builds the tiny world with the given convergence options and a
    /// driver script; returns the simulation and the node ids.
    fn tiny_world(
        opts: ConvergenceOptions,
        script: Vec<(NodeId, Message)>,
    ) -> (Simulation<Message>, NodeId, NodeId, NodeId) {
        tiny_world_with_mode(ProtocolMode::default(), opts, script)
    }

    fn tiny_world_with_mode(
        mode: ProtocolMode,
        opts: ConvergenceOptions,
        script: Vec<(NodeId, Message)>,
    ) -> (Simulation<Message>, NodeId, NodeId, NodeId) {
        tiny_world_with_faults(simnet::FaultPlan::none(), mode, opts, script)
    }

    fn tiny_world_with_faults(
        faults: simnet::FaultPlan,
        mode: ProtocolMode,
        opts: ConvergenceOptions,
        script: Vec<(NodeId, Message)>,
    ) -> (Simulation<Message>, NodeId, NodeId, NodeId) {
        let topo = tiny_topo();
        let dc = DataCenterId::new;
        let network = simnet::NetworkConfig::paper_default();
        let mut sim = Simulation::with_network(7, network, faults);
        sim.add_actor(Kls::new(topo.clone(), dc(0)));
        let fs0 = sim.add_actor(Fs::with_mode(topo.clone(), dc(0), opts.clone(), mode));
        sim.add_actor(Kls::new(topo.clone(), dc(1)));
        let fs1 = sim.add_actor(Fs::with_mode(topo.clone(), dc(1), opts, mode));
        let driver = sim.add_actor(Driver {
            script,
            inbox: Vec::new(),
        });
        (sim, fs0, fs1, driver)
    }

    fn frags(value_len: usize) -> Vec<Fragment> {
        let codec = Codec::new(2, 4).unwrap();
        codec.encode(&vec![0xEE; value_len])
    }

    #[test]
    fn store_fragment_is_acknowledged_and_tracked() {
        let meta = full_meta(100);
        let fs_node = NodeId::new(1);
        let (mut sim, fs0, _, driver) = tiny_world(
            ConvergenceOptions::all(),
            vec![(
                fs_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta: meta.clone(),
                    fragment: frags(100)[0].clone(),
                },
            )],
        );
        sim.run_until_time(SimTime::from_micros(200_000));
        let fs: &Fs = sim.actor(fs0);
        assert_eq!(fs.known_versions().count(), 1);
        assert_eq!(fs.pending_versions().count(), 1, "convergence pending");
        assert!(!fs.verified(ov()), "second fragment still missing");
        let d: &Driver = sim.actor(driver);
        assert_eq!(d.received(), vec![(fs_node, "StoreFragmentRep")]);
    }

    #[test]
    fn verified_requires_complete_meta_and_all_fragments() {
        let meta = full_meta(100);
        let f = frags(100);
        let fs_node = NodeId::new(1);
        let (mut sim, fs0, _, _) = tiny_world(
            ConvergenceOptions::all(),
            vec![
                (
                    fs_node,
                    Message::StoreFragment {
                        ov: ov(),
                        meta: meta.clone(),
                        fragment: f[0].clone(),
                    },
                ),
                (
                    fs_node,
                    Message::StoreFragment {
                        ov: ov(),
                        meta: meta.clone(),
                        fragment: f[1].clone(),
                    },
                ),
            ],
        );
        sim.run_until_time(SimTime::from_micros(200_000));
        let fs: &Fs = sim.actor(fs0);
        assert!(fs.verified(ov()), "both assigned fragments present");
        assert_eq!(fs.dc(), DataCenterId::new(0));
    }

    #[test]
    fn amr_indication_stops_convergence_and_completes_meta() {
        // Deliver a fragment with *partial* metadata, then an AMR
        // indication carrying the complete metadata: the FS must drop the
        // version from its convergence store and still answer converge
        // probes positively afterwards.
        let mut partial = Metadata::new(tiny_policy(), DataCenterId::new(0), 100);
        partial.add_dc_locations(
            DataCenterId::new(0),
            vec![
                Location {
                    fs: NodeId::new(1),
                    disk: 0,
                },
                Location {
                    fs: NodeId::new(1),
                    disk: 1,
                },
            ],
        );
        let partial = Arc::new(partial);
        let f = frags(100);
        let fs_node = NodeId::new(1);
        let (mut sim, fs0, _, _) = tiny_world(
            ConvergenceOptions::all(),
            vec![
                (
                    fs_node,
                    Message::StoreFragment {
                        ov: ov(),
                        meta: partial.clone(),
                        fragment: f[0].clone(),
                    },
                ),
                (
                    fs_node,
                    Message::StoreFragment {
                        ov: ov(),
                        meta: partial,
                        fragment: f[1].clone(),
                    },
                ),
                (
                    fs_node,
                    Message::AmrIndication {
                        ov: ov(),
                        meta: full_meta(100),
                    },
                ),
            ],
        );
        sim.run_until_time(SimTime::from_micros(200_000));
        let fs: &Fs = sim.actor(fs0);
        assert_eq!(fs.pending_versions().count(), 0);
        assert_eq!(fs.amr_versions().count(), 1);
        assert!(fs.verified(ov()), "indication completed the metadata");
        assert_eq!(fs.steps_run(), 0, "no convergence work was done");
    }

    #[test]
    fn converge_probe_on_unknown_version_adopts_it() {
        // Fig. 4 lines 17-18: an FS receiving converge for an unknown
        // version adopts the metadata with a ⊥ fragment and schedules
        // convergence work of its own (which will recover the fragment).
        let fs1_node = NodeId::new(3);
        let (mut sim, _, fs1, driver) = tiny_world(
            ConvergenceOptions::all(),
            vec![(
                fs1_node,
                Message::ConvergeFs {
                    ov: ov(),
                    meta: full_meta(100),
                    recovery_intent: false,
                },
            )],
        );
        sim.run_until_time(SimTime::from_micros(100_000));
        let fs: &Fs = sim.actor(fs1);
        assert_eq!(fs.known_versions().count(), 1);
        assert_eq!(fs.pending_versions().count(), 1);
        assert!(!fs.verified(ov()), "no fragments yet");
        let d: &Driver = sim.actor(driver);
        assert_eq!(d.received(), vec![(fs1_node, "FSConvergeRep")]);
    }

    #[test]
    fn late_adopter_waits_min_age_once() {
        let opts = ConvergenceOptions::all();
        let min_age = opts.min_age;
        assert_eq!(min_age, SimDuration::from_secs(300));
        let stamp = SimTime::from_micros(ov().ts.clock_micros());
        let (fs0_node, fs1_node) = (NodeId::new(1), NodeId::new(3));

        // fs1 first hears of a 400-s-old version from a sibling's probe
        // (it was down, say, while the put ran and while the prober waited
        // out `min_age`). The version has paid its wait: fs1 steps it at
        // its next round instead of holding it until 400 s + 300 s.
        let heard = SimTime::ZERO + SimDuration::from_secs(400);
        let (mut sim, _, fs1, driver) = tiny_world(opts.clone(), Vec::new());
        sim.enable_trace();
        // Start the actors (the driver's empty script runs at time zero),
        // then script the probe for 400 s.
        sim.run_until_time(SimTime::from_micros(1));
        sim.actor_mut::<Driver>(driver).script = vec![(
            fs1_node,
            Message::ConvergeFs {
                ov: ov(),
                meta: full_meta(100),
                recovery_intent: false,
            },
        )];
        sim.schedule_timer(driver, heard.duration_since(sim.now()), 0);
        let give_up = heard + SimDuration::from_secs(1_000);
        sim.run_until(|sim| sim.actor::<Fs>(fs1).steps_run() > 0 || sim.now() >= give_up);
        let one_way = SimDuration::from_millis(30);
        assert!(
            sim.now() <= heard + one_way + opts.round_max,
            "stepped at {:?}, a second min_age after hearing of it at {heard:?}",
            sim.now()
        );
        assert_eq!(sim.actor::<Fs>(fs1).steps_run(), 1);
        // The step found both fragments missing and opened a sibling
        // recovery: intent probes are out to fs0.
        let stepped_at = sim.now();
        let trace = sim.trace().expect("tracing");
        let mut probes = trace.events().iter().filter(|e| e.from == fs1);
        assert!(
            probes.any(|e| (e.to, e.kind, e.at) == (fs0_node, "FSConvergeReq", stepped_at)),
            "no recovery-intent probe left fs1 at {stepped_at:?}"
        );
        let work = sim.actor::<Fs>(fs1).store.work(ov()).expect("pending");
        assert!(work.recovery.is_some());

        // The other side of the gate: an FS that hears of the version
        // while it is young — the put's own `StoreFragment`, tens of
        // milliseconds after the stamp — runs no step before stamp + 300 s.
        let put = vec![(
            fs0_node,
            Message::StoreFragment {
                ov: ov(),
                meta: full_meta(100),
                fragment: frags(100)[0].clone(),
            },
        )];
        let (mut sim, fs0, _, _) = tiny_world(opts.clone(), put);
        sim.run_until_time(stamp + min_age);
        let fs: &Fs = sim.actor(fs0);
        assert_eq!(fs.pending_versions().count(), 1);
        assert_eq!(
            fs.steps_run(),
            0,
            "a round stepped a version younger than min_age"
        );
        sim.run_until_time(stamp + min_age + opts.round_max + SimDuration::from_secs(1));
        assert!(sim.actor::<Fs>(fs0).steps_run() >= 1, "old enough now");
    }

    #[test]
    fn full_convergence_from_one_fs_to_amr() {
        // Only FS0 receives fragments + complete metadata; convergence
        // alone must propagate fragments to FS1 and metadata to both
        // KLSs, ending with the version AMR everywhere and no further
        // pending work. This is naïve convergence doing a real repair.
        let meta = full_meta(64);
        let f = frags(64);
        let fs0_node = NodeId::new(1);
        let mut opts = ConvergenceOptions::naive();
        opts.sibling_recovery = true; // exercise the recovery push path
        opts.schedule = RoundSchedule::Unsynchronized;
        let (mut sim, fs0, fs1, _) = tiny_world(
            opts,
            vec![
                (
                    fs0_node,
                    Message::StoreFragment {
                        ov: ov(),
                        meta: meta.clone(),
                        fragment: f[0].clone(),
                    },
                ),
                (
                    fs0_node,
                    Message::StoreFragment {
                        ov: ov(),
                        meta,
                        fragment: f[1].clone(),
                    },
                ),
            ],
        );
        // Give convergence a few rounds.
        sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(1200));
        let a: &Fs = sim.actor(fs0);
        let b: &Fs = sim.actor(fs1);
        assert!(a.verified(ov()));
        assert!(b.verified(ov()), "FS1's fragments were regenerated");
        assert_eq!(a.pending_versions().count(), 0);
        assert_eq!(b.pending_versions().count(), 0);
        assert!(b.recoveries_done() + a.recoveries_done() >= 1);
        let kls0: &Kls = sim.actor(NodeId::new(0));
        let kls1: &Kls = sim.actor(NodeId::new(2));
        assert!(kls0.has_complete_meta(ov()));
        assert!(kls1.has_complete_meta(ov()));
    }

    #[test]
    fn simultaneous_recoveries_resolve_by_server_id() {
        // Both FSs hold complete metadata but each misses one of its two
        // assigned fragments; with synchronized rounds both attempt
        // sibling fragment recovery at the same instant. §4.2's rule —
        // "an FS only backs off if its unique server id is lower than the
        // other sibling FS's unique id" — must leave exactly one of them
        // doing the work, and both end up whole.
        let meta = full_meta(64);
        let f = frags(64);
        let fs0_node = NodeId::new(1); // assigned fragments 0, 1
        let fs1_node = NodeId::new(3); // assigned fragments 2, 3
        let mut opts = ConvergenceOptions::all();
        opts.schedule = RoundSchedule::Synchronized;
        opts.put_amr_indication = false;
        opts.min_age = SimDuration::ZERO;
        let (mut sim, fs0, fs1, _) = tiny_world(
            opts,
            vec![
                (
                    fs0_node,
                    Message::StoreFragment {
                        ov: ov(),
                        meta: meta.clone(),
                        fragment: f[0].clone(),
                    },
                ),
                (
                    fs1_node,
                    Message::StoreFragment {
                        ov: ov(),
                        meta: meta.clone(),
                        fragment: f[2].clone(),
                    },
                ),
            ],
        );
        sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(600));
        let a: &Fs = sim.actor(fs0);
        let b: &Fs = sim.actor(fs1);
        assert!(a.verified(ov()), "fs0 has fragments 0 and 1");
        assert!(b.verified(ov()), "fs1 has fragments 2 and 3");
        // Exactly one FS performed the recovery; the contention rule
        // favors the higher id (fs1).
        assert_eq!(a.recoveries_done(), 0, "lower id backed off");
        assert_eq!(b.recoveries_done(), 1, "higher id recovered for both");
        // And the amortization shows on the wire: the recovered sibling
        // fragment traveled via SiblingStoreReq.
        assert!(sim.metrics().kind("SiblingStoreReq").count >= 1);
    }

    #[test]
    fn compacted_version_keeps_answering_after_its_slot_is_reused() {
        // Three versions of one key on fs0. v1 and v2 settle AMR, which
        // compacts v1; v3 then takes v1's vacated slot. Everything the FS
        // says about v1 afterwards must come from the residual table.
        let fs_node = NodeId::new(1);
        let at = |us| {
            ObjectVersion::new(
                Key::from_u64(9),
                Timestamp::new(SimTime::from_micros(us), 0),
            )
        };
        let (v1, v2, v3) = (at(5), at(10), at(15));
        let meta = full_meta(100);
        let f = frags(100);
        let store = |ov, i: usize| {
            let (meta, fragment) = (meta.clone(), f[i].clone());
            (fs_node, Message::StoreFragment { ov, meta, fragment })
        };
        let indicate = |ov| {
            let meta = meta.clone();
            (fs_node, Message::AmrIndication { ov, meta })
        };
        // Compaction alone, so fs0 answers the scripted singles with singles.
        let compacting = ProtocolMode {
            compact_converged: true,
            ..ProtocolMode::default()
        };
        let (mut sim, fs0, _, driver) =
            tiny_world_with_mode(compacting, ConvergenceOptions::all(), Vec::new());
        // Delivers one batch of messages to fs0 and returns the replies.
        // Well inside the first convergence round (>= 30 s away), so only
        // the scripted messages act on the store.
        let deliver = |sim: &mut Simulation<Message>, script| {
            sim.actor_mut::<Driver>(driver).script = script;
            sim.schedule_timer(driver, SimDuration::ZERO, 0);
            let deadline = sim.now() + SimDuration::from_millis(200);
            sim.run_until_time(deadline);
            std::mem::take(&mut sim.actor_mut::<Driver>(driver).inbox)
        };
        let slab = |sim: &Simulation<Message>| {
            let store = &sim.actor::<Fs>(fs0).store;
            (store.slots.len(), store.free.len())
        };

        deliver(&mut sim, vec![store(v1, 0), store(v1, 1)]);
        deliver(&mut sim, vec![indicate(v1)]);
        let first_settled = sim.actor::<Fs>(fs0).amr_settled_at(v1).expect("v1 is AMR");
        deliver(&mut sim, vec![store(v2, 0), store(v2, 1)]);
        assert_eq!(slab(&sim), (2, 0));
        deliver(&mut sim, vec![indicate(v2)]);
        let mut held = FragMask::new();
        held.insert(0);
        held.insert(1);
        {
            let fs: &Fs = sim.actor(fs0);
            assert_eq!(fs.compacted_residual(v1), Some(held), "v2 superseded v1");
            assert!(fs.entry(v1).is_none());
            assert_eq!((fs.resident_slots(), fs.compacted_count()), (1, 1));
            assert_eq!(slab(&sim), (2, 1), "v1's slot is on the free list");
        }
        deliver(&mut sim, vec![store(v3, 0)]);
        assert_eq!(
            slab(&sim),
            (2, 0),
            "v3 reused v1's slot; the slab did not grow"
        );
        assert_eq!(sim.actor::<Fs>(fs0).resident_slots(), 2);

        // A re-delivered fragment of v1 is acknowledged like a duplicate
        // and resurrects nothing.
        let replies = deliver(&mut sim, vec![store(v1, 0)]);
        assert!(
            matches!(replies[..], [(_, Message::StoreFragmentReply { ov, fragment: 0 })] if ov == v1),
            "{replies:?}"
        );
        {
            let fs: &Fs = sim.actor(fs0);
            assert!(fs.entry(v1).is_none(), "no full entry resurrected");
            assert_eq!(fs.known_versions().collect::<Vec<_>>(), [v1, v2, v3]);
            assert_eq!(fs.pending_versions().collect::<Vec<_>>(), [v3]);
            assert_eq!((fs.resident_slots(), fs.compacted_count()), (2, 1));
            assert_eq!(slab(&sim), (2, 0));
        }

        // A sibling's probe hears what the full store would have said.
        let probe = Message::ConvergeFs {
            ov: v1,
            meta: meta.clone(),
            recovery_intent: false,
        };
        let replies = deliver(&mut sim, vec![(fs_node, probe)]);
        match &replies[..] {
            [(
                _,
                Message::ConvergeFsReply {
                    ov,
                    verified: true,
                    have,
                    missing,
                    recovering: false,
                },
            )] => {
                assert_eq!(*ov, v1);
                assert_eq!(have[..], [0, 1]);
                assert!(missing.is_empty());
            }
            other => panic!("unexpected replies {other:?}"),
        }

        // A repeated indication re-stamps the settle time, as it does for
        // a full entry, and leaves the residual alone.
        deliver(&mut sim, vec![indicate(v1)]);
        let fs: &Fs = sim.actor(fs0);
        let restamped = fs.amr_settled_at(v1).expect("still AMR");
        assert!(
            restamped > first_settled,
            "{restamped:?} vs {first_settled:?}"
        );
        assert_eq!(fs.compacted_residual(v1), Some(held));
        assert!(fs.verified(v1));
        assert_eq!(fs.compacted_versions().collect::<Vec<_>>(), [v1]);
        assert_eq!(fs.amr_versions().collect::<Vec<_>>(), [v1, v2]);
    }

    #[test]
    fn residual_record_is_packed() {
        assert!(std::mem::size_of::<Residual>() <= 24);

        let version = |key: u64, us: u64| {
            ObjectVersion::new(
                Key::from_u64(key),
                Timestamp::new(SimTime::from_micros(us), 0),
            )
        };
        // Distinct for distinct `i`, with bits in every word of the mask:
        // the binary digits of `i + 1`, 28 indices apart.
        let mask_of = |i: usize| {
            let mut mask = FragMask::new();
            for bit in (0..10).filter(|bit| ((i + 1) >> bit) & 1 == 1) {
                mask.insert((bit * 28) as FragmentIndex);
            }
            mask
        };

        // A short chain is exactly as long as what it holds, through the
        // store's own compaction path; a long one reallocates rarely.
        let mut store = VersionStore::new();
        let key = Key::from_u64(7);
        let mut capacities = BTreeSet::new();
        for i in 0..=1_000u64 {
            let ov = version(7, 10 * (i + 1));
            let at = SimTime::from_micros(i);
            let (entry, _) = store
                .entry_or_insert_with(ov, at, || FragEntry {
                    meta: full_meta(8),
                    fragments: FragMap::new(),
                    checksums: FragMap::new(),
                })
                .expect("a new version is never a residual");
            entry.fragments.insert(0, Fragment::new(0, vec![0; 4]));
            store.settle_amr(ov, at);
            store.compact_superseded(ov);
            assert_eq!(store.compacted_count() as u64, i);
            let Some(chain) = store.residuals.chains.get(&key) else {
                assert_eq!(i, 0, "the second settle compacts the first version");
                continue;
            };
            assert_eq!(chain.len() as u64, i);
            if i <= 4 {
                assert_eq!(chain.capacity(), chain.len(), "{i} compactions");
            }
            capacities.insert(chain.capacity());
        }
        assert!(capacities.len() <= 16, "{capacities:?}");
        assert_eq!(store.residuals.masks.len(), 1);
        assert_eq!(store.resident_slots(), 1);

        // N distinct masks are N table entries, each read back bit-exact.
        let mut table = ResidualTable::default();
        for i in 0..300 {
            table.insert(version(i as u64 % 9, i as u64), mask_of(i), SimTime::ZERO);
        }
        assert_eq!(table.masks.len(), 300);
        for i in 0..300 {
            let residual = table
                .get(version(i as u64 % 9, i as u64))
                .expect("inserted");
            assert_eq!(table.held(residual), mask_of(i), "mask {i}");
        }

        // The table grows with the masks in use, not with the residuals.
        let mut table = ResidualTable::default();
        for i in 0..10_000 {
            let ov = version(i as u64 % 100, i as u64 / 100);
            table.insert(ov, mask_of(i % 7), SimTime::from_micros(i as u64));
        }
        assert_eq!((table.count, table.chains.len()), (10_000, 100));
        assert!(table.masks.len() <= 7, "{}", table.masks.len());
        assert_eq!(
            table.versions().collect::<Vec<_>>(),
            (0..100u64)
                .flat_map(|key| (0..100u64).map(move |us| version(key, us)))
                .collect::<Vec<_>>()
        );
        for i in 0..10_000 {
            let residual = table
                .get(version(i as u64 % 100, i as u64 / 100))
                .expect("inserted");
            assert_eq!(table.held(residual), mask_of(i % 7));
            assert_eq!(residual.amr_at, SimTime::from_micros(i as u64));
        }
    }

    #[test]
    #[should_panic(expected = "65536 distinct fragment-index sets")]
    fn residual_mask_ids_run_out_loudly() {
        // A full id space (the entries' values do not matter here).
        let mut table = ResidualTable {
            masks: vec![FragMask::new(); 1 << 16],
            ..ResidualTable::default()
        };
        assert_eq!(
            table.intern(FragMask::new()),
            0,
            "a known mask still interns"
        );
        let mut fresh = FragMask::new();
        fresh.insert(1);
        table.intern(fresh);
    }

    /// Batched rounds are a network, not an identity: a round that steps
    /// `M` versions puts one message per destination on the wire, and the
    /// network loses it as one.
    #[test]
    fn a_batched_round_is_one_message_per_destination_lost_as_one() {
        use crate::messages::{HEADER_BYTES, OV_BYTES};
        use simnet::trace::Disposition::{Delivered, DroppedFault};
        use simnet::Payload;

        const M: usize = 4;
        let (kls0, fs0_node, kls1, fs1_node) = (
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
        );
        let meta = full_meta(64);
        let f = frags(64);
        let versions: Vec<ObjectVersion> = (0..M as u64)
            .map(|i| {
                ObjectVersion::new(
                    Key::from_u64(9 + i),
                    Timestamp::new(SimTime::from_micros(5 + i), 0),
                )
            })
            .collect();
        // Every version fully stored on both servers, so the first round
        // (naive convergence: synchronized, at 60 s) verifies all of them.
        let script = || -> Vec<(NodeId, Message)> {
            let store = |to, ov, i: usize| {
                let (meta, fragment) = (meta.clone(), f[i].clone());
                (to, Message::StoreFragment { ov, meta, fragment })
            };
            let both = |&ov| {
                [
                    store(fs0_node, ov, 0),
                    store(fs0_node, ov, 1),
                    store(fs1_node, ov, 2),
                    store(fs1_node, ov, 3),
                ]
            };
            versions.iter().flat_map(both).collect()
        };
        let round = |n: u64| SimTime::ZERO + SimDuration::from_secs(60 * n);
        // fs0 cannot reach kls1 for the instant its first round sends.
        let cut = || {
            let mut faults = simnet::FaultPlan::none();
            faults.add_link_outage(fs0_node, kls1, round(1), SimDuration::from_millis(1));
            faults
        };
        let opts = ConvergenceOptions::naive;
        let sends = |sim: &Simulation<Message>, kind| sim.metrics().kind(kind).count;

        // One message per version: the cut costs M probes.
        let (mut sim, ..) =
            tiny_world_with_faults(cut(), ProtocolMode::default(), opts(), script());
        sim.run_until_time(round(2) + SimDuration::from_secs(1));
        assert_eq!(sim.metrics().dropped(), M as u64);
        assert_eq!(sends(&sim, "KLSConvergeReq"), 6 * M as u64);

        let batching = ProtocolMode {
            batch_rounds: true,
            ..ProtocolMode::default()
        };
        let (mut sim, fs0, fs1, _) = tiny_world_with_faults(cut(), batching, opts(), script());
        sim.enable_trace();
        sim.run_until_time(round(1) + SimDuration::from_secs(1));

        // What fs0's round put on the wire: one probe per KLS and one for
        // its sibling, each M entries under one header.
        let bodies = |single: &dyn Fn(ObjectVersion) -> Message| -> usize {
            let body = |&ov| single(ov).wire_size() - HEADER_BYTES;
            versions.iter().map(body).sum()
        };
        let kls_probe = HEADER_BYTES
            + bodies(&|ov| {
                let meta = meta.clone();
                Message::ConvergeKls { ov, meta }
            });
        let fs_probe = HEADER_BYTES
            + bodies(&|ov| Message::ConvergeFs {
                ov,
                meta: meta.clone(),
                recovery_intent: false,
            });
        let sent_by_fs0_at = |sim: &Simulation<Message>, at| -> Vec<_> {
            let trace = sim.trace().expect("tracing");
            let probes = trace
                .events()
                .iter()
                .filter(|e| e.from == fs0 && e.at == at);
            probes
                .map(|e| (e.to, e.kind, e.bytes, e.disposition))
                .collect()
        };
        assert_eq!(
            sent_by_fs0_at(&sim, round(1)),
            [
                (kls0, "KLSConvergeReq", kls_probe, Delivered),
                (kls1, "KLSConvergeReq", kls_probe, DroppedFault),
                (fs1_node, "FSConvergeReq", fs_probe, Delivered),
            ]
        );
        assert_eq!(sim.metrics().dropped(), 1, "one message lost, not {M}");
        // The answers come back the same way: one reply per probe message.
        let trace = sim.trace().expect("tracing");
        let replies: Vec<_> = trace.events().iter().filter(|e| e.to == fs0).collect();
        let kls_replies: Vec<_> = replies.iter().filter(|e| e.from == kls0).collect();
        assert_eq!(kls_replies.len(), 1);
        assert_eq!(kls_replies[0].kind, "KLSConvergeRep");
        assert_eq!(kls_replies[0].bytes, HEADER_BYTES + M * (OV_BYTES + 1));
        let fs_reply_kinds: Vec<_> = replies
            .iter()
            .filter(|e| e.from == fs1_node)
            .map(|e| e.kind)
            .collect();
        assert_eq!(fs_reply_kinds, ["FSConvergeReq", "FSConvergeRep"]);

        // Exactly the M versions of the lost message lack kls1's answer,
        // each with its own step open and its own back-off charged; fs1,
        // which lost nothing, is done.
        {
            let fs: &Fs = sim.actor(fs0);
            assert_eq!(fs.pending_versions().collect::<Vec<_>>(), versions);
            for &ov in &versions {
                let work = fs.store.work(ov).expect("pending");
                assert!(work.step_open);
                assert_eq!(work.kls_ok.iter().collect::<Vec<_>>(), [&kls0]);
                assert_eq!(work.fs_ok.iter().collect::<Vec<_>>(), [&fs1_node]);
                assert_eq!(work.attempts, 1);
                assert_eq!(work.next_eligible, round(1) + fs.opts.backoff_delay(1));
            }
            assert_eq!(sim.actor::<Fs>(fs1).amr_versions().count(), M);
        }

        // The next round they are due in retries them, again as one
        // message per destination, and this time everything verifies.
        sim.run_until_time(round(2) + SimDuration::from_secs(1));
        assert_eq!(
            sent_by_fs0_at(&sim, round(2)),
            [
                (kls0, "KLSConvergeReq", kls_probe, Delivered),
                (kls1, "KLSConvergeReq", kls_probe, Delivered),
                (fs1_node, "FSConvergeReq", fs_probe, Delivered),
            ]
        );
        assert_eq!(
            sim.actor::<Fs>(fs0).amr_versions().collect::<Vec<_>>(),
            versions
        );
        assert_eq!(
            sends(&sim, "KLSConvergeReq"),
            6,
            "against {} unbatched",
            6 * M
        );
        assert_eq!(sends(&sim, "KLSConvergeRep"), 5);
    }

    #[test]
    fn retrieve_unknown_fragment_answers_bottom() {
        let fs_node = NodeId::new(1);
        let (mut sim, _, _, driver) = tiny_world(
            ConvergenceOptions::all(),
            vec![(
                fs_node,
                Message::RetrieveFrag {
                    op: 1,
                    ov: ov(),
                    fragment: 0,
                },
            )],
        );
        sim.run_until_time(SimTime::from_micros(100_000));
        let d: &Driver = sim.actor(driver);
        assert_eq!(d.received(), vec![(fs_node, "RetrieveFragRep")]);
    }

    // ---- the version store against a map-based model ----

    /// Timestamps per key in the model test: enough for six compacted
    /// versions of a key beside a live one.
    const MODEL_TIMESTAMPS: usize = 8;

    /// The versions the model test draws from: 3 keys x 8 timestamps.
    const MODEL_VERSIONS: usize = 3 * MODEL_TIMESTAMPS;

    /// The fragment indices the model test stores: every word of a
    /// [`FragMask`] and both of its ends.
    const MODEL_FRAGMENTS: [FragmentIndex; 6] = [0, 1, 2, 3, 64, 255];

    fn model_version(i: usize) -> ObjectVersion {
        let (key, ts) = (i / MODEL_TIMESTAMPS, i % MODEL_TIMESTAMPS);
        ObjectVersion::new(
            Key::from_u64(1 + key as u64),
            Timestamp::new(SimTime::from_micros(10 * (1 + ts) as u64), 0),
        )
    }

    /// What every case starts with, on the first key: the residual-chain
    /// shapes a random sequence reaches too rarely to rely on. Versions
    /// settle out of timestamp order, so two residuals land mid-chain —
    /// one holding `{64, 255}`, the same count as its neighbours'
    /// `{0, 1}` — six compactions take the chain past its exact-fit
    /// length, and a repeated settle re-stamps a mid-chain record.
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
        // re-stamp of 1 and 2; then [.. 6].
        ops.extend([0, 3, 4, 1, 2, 5, 6, 1, 2, 7].map(|version| (SETTLE, version, 0)));
        ops
    }

    /// What the model keeps per known version: the fragment indices held,
    /// and whether compaction has reduced the version to that set.
    #[derive(Default)]
    struct ModelEntry {
        held: BTreeSet<FragmentIndex>,
        compacted: bool,
    }

    /// The version store as four ordered collections — the obvious
    /// representation, from which [`VersionStore`]'s slab, sharded index,
    /// pending list, free list and residual table must be
    /// indistinguishable.
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

        /// `entry_or_insert_with`: `None` for a compacted version, else
        /// whether the version was new.
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
        /// the key exists — keeps only its held indices and settle time.
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
    fn check_against_model(
        store: &mut VersionStore,
        model: &ModelStore,
        now: SimTime,
    ) -> proptest::test_runner::TestCaseResult {
        use proptest::prelude::*;

        let held = |e: &FragEntry| e.fragments.keys().copied().collect::<BTreeSet<_>>();
        for ov in (0..MODEL_VERSIONS).map(model_version) {
            let m = model.entries.get(&ov);
            let full = m.filter(|e| !e.compacted).map(|e| e.held.clone());
            prop_assert_eq!(store.entry(ov).map(held), full, "entry of {:?}", ov);
            prop_assert_eq!(store.work(ov).is_some(), model.pending.contains(&ov));
            prop_assert_eq!(
                store.is_settled(ov),
                model.amr.contains_key(&ov) || model.gave_up.contains(&ov),
                "is_settled({:?})",
                ov
            );
            prop_assert_eq!(store.amr_at(ov), model.amr.get(&ov).copied());
            let residual = m.filter(|e| e.compacted).map(|e| {
                let mut mask = FragMask::new();
                for &idx in &e.held {
                    mask.insert(idx);
                }
                mask
            });
            prop_assert_eq!(store.residual(ov), residual, "residual of {:?}", ov);
            if residual.is_some() {
                let again = store.entry_or_insert_with(ov, now, || -> FragEntry {
                    unreachable!("a compacted version is never rebuilt")
                });
                prop_assert!(again.is_none(), "{:?} was resurrected", ov);
            }
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
            listed.iter().map(|&(ov, _)| ov).collect::<Vec<_>>(),
            pending.clone()
        );
        for &(ov, s) in &listed {
            prop_assert!(store.work_at(ov, s).is_some() && store.entry_at(ov, s).is_some());
        }
        store.collect_live(&mut listed);
        prop_assert_eq!(listed.iter().map(|&(ov, _)| ov).collect::<Vec<_>>(), live);
        for &(ov, s) in &listed {
            prop_assert_eq!(store.entry_at(ov, s).map(held), store.entry(ov).map(held));
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
    /// fragment index)` triples — comparing after every step. Operations
    /// keep to what `Fs` does: it settles only versions it has adopted,
    /// gives up only on pending ones, and reopens only versions whose
    /// full entry it holds.
    fn run_against_model(
        ops: &[(u8, usize, FragmentIndex)],
        compact: bool,
    ) -> proptest::test_runner::TestCaseResult {
        use proptest::prelude::*;

        let mut store = VersionStore::new();
        let mut model = ModelStore::default();
        let blank = || FragEntry {
            meta: full_meta(8),
            fragments: FragMap::new(),
            checksums: FragMap::new(),
        };
        for (step, &(kind, version, idx)) in ops.iter().enumerate() {
            let now = SimTime::from_micros(1 + step as u64);
            let ov = model_version(version);
            match kind {
                0 | 1 => {
                    let got = store
                        .entry_or_insert_with(ov, now, blank)
                        .map(|(_, new)| new);
                    prop_assert_eq!(got, model.insert(ov), "insert {:?}", ov);
                }
                2 => {
                    let entry = store.entry_mut(ov);
                    prop_assert_eq!(entry.is_some(), model.is_live(ov));
                    if let Some(entry) = entry {
                        entry
                            .fragments
                            .insert(idx, Fragment::new(idx, vec![idx; 4]));
                        model.entries.entry(ov).or_default().held.insert(idx);
                    }
                }
                3..=5 if model.entries.contains_key(&ov) => {
                    let first = store.amr_at(ov).is_none();
                    prop_assert_eq!(first, !model.amr.contains_key(&ov));
                    let displaced = store.settle_amr(ov, now).is_some();
                    prop_assert_eq!(displaced, model.settle_amr(ov, now), "settle {:?}", ov);
                    if compact && first {
                        store.compact_superseded(ov);
                        model.compact_superseded(ov);
                    }
                }
                6 if model.pending.contains(&ov) => {
                    let displaced = store.settle_gave_up(ov).is_some();
                    prop_assert_eq!(displaced, model.settle_gave_up(ov));
                }
                7 if model.is_live(ov) => {
                    store.reopen(ov, now);
                    model.reopen(ov);
                }
                _ => {}
            }
            check_against_model(&mut store, &model, now)?;
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The slab store answers exactly as the map-based model does,
        /// with compaction off and on, through interleavings a cluster
        /// run rarely produces: give-up and reopen between settles,
        /// settles in any version order, slot reuse after compaction,
        /// and (by [`model_prelude`]) long, mixed-mask residual chains
        /// filled out of order.
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
            run_against_model(&ops, true)?;
        }
    }
}
