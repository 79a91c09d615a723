//! Object-version metadata: policy plus fragment locations.

use std::fmt;
use std::sync::Arc;

use erasure::FragmentIndex;
use simnet::NodeId;

use crate::policy::Policy;
use crate::topology::DataCenterId;

/// Bits of a [`Location`] word below its node index: the disk.
const DISK_BITS: u32 = 8;

/// The first node index a [`Location`] cannot name: 2²⁴ − 1. The node
/// index fills the word's high 24 bits, and index 2²⁴ − 1 with disk 255
/// would be the all-ones word, the undecided sentinel.
pub const FS_LIMIT: u32 = (1 << (32 - DISK_BITS)) - 1;

/// A fragment location: a fragment server plus a disk on that server
/// (§3.5: "a location actually identifies both an FS and a disk on that FS
/// so that multiple sibling fragments may be collocated on the same FS").
///
/// One word: the FS's node index in the high 24 bits, the disk in the low
/// 8. The index sits above the disk, so the derived `Ord` is the
/// lexicographic order of `(fs, disk)`. [`Location::new`] checks the
/// index, and `Cluster::build_with_faults` refuses a cluster whose FS ids
/// would not fit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location(u32);

impl Location {
    /// The location of disk `disk` on fragment server `fs`.
    ///
    /// # Panics
    ///
    /// If `fs`'s node index is [`FS_LIMIT`] (2²⁴ − 1) or more.
    pub fn new(fs: NodeId, disk: u8) -> Self {
        let index = fs.index();
        assert!(
            index < FS_LIMIT as usize,
            "node index {index} does not fit a location (limit 2^24 - 1 = {FS_LIMIT})"
        );
        Location((index as u32) << DISK_BITS | u32::from(disk))
    }

    /// The fragment server.
    pub const fn fs(self) -> NodeId {
        NodeId::new(self.0 >> DISK_BITS)
    }

    /// Disk index on that server.
    pub const fn disk(self) -> u8 {
        self.0 as u8
    }
}

impl fmt::Debug for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Location")
            .field("fs", &self.fs())
            .field("disk", &self.disk())
            .finish()
    }
}

/// What an undecided slot of [`Metadata`]'s location table holds, so two
/// records that know the same data centers compare (and print) equal.
const UNDECIDED: Location = Location(u32::MAX);

/// The metadata a KLS stores per object version and a proxy assembles
/// during a put: the durability policy and the decided fragment locations.
///
/// Locations are decided **per data center** (a whole DC's worth at a
/// time, by the first KLS of that DC to answer) and are immutable once
/// decided — merging is a per-DC first-writer-wins join, which is
/// commutative, associative and idempotent because every KLS in a DC
/// computes the same deterministic placement for a given object version
/// (see [`crate::kls`]). The fragment index of a location is derived from
/// its DC's slot and its position within the DC's list, so all servers
/// agree on which fragment lives where.
///
/// The record is flat: one table of `n` locations indexed by fragment
/// index (`slot × frags_per_dc + position`) plus a bitmask of the slots
/// decided so far, so a copy is one allocation and every per-DC question
/// is a bit test or a sub-slice.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Metadata {
    policy: Policy,
    home_dc: DataCenterId,
    value_len: u32,
    /// Bit `s` is set once DC slot `s` has decided locations.
    decided: u64,
    /// Location of fragment `i` at `locs[i]`; [`UNDECIDED`] in the slots
    /// `decided` does not cover.
    locs: Box<[Location]>,
}

impl Metadata {
    /// Creates metadata with no locations decided yet.
    ///
    /// # Panics
    ///
    /// Panics if the policy spans more than 64 data centers, or if
    /// `home_dc` is not one of them.
    pub fn new(policy: Policy, home_dc: DataCenterId, value_len: usize) -> Self {
        assert!(
            policy.data_centers() <= 64,
            "policies spanning more than 64 data centers are out of scope"
        );
        assert!(
            home_dc.index() < usize::from(policy.data_centers()),
            "the home data center must be one the policy spans"
        );
        Metadata {
            policy,
            home_dc,
            value_len: u32::try_from(value_len).expect("values larger than 4 GiB are out of scope"),
            decided: 0,
            locs: vec![UNDECIDED; usize::from(policy.n)].into_boxed_slice(),
        }
    }

    /// The durability policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The home data center (slot 0; holds the data fragments).
    pub fn home_dc(&self) -> DataCenterId {
        self.home_dc
    }

    /// Original value length in bytes (needed to size fragments for
    /// decode and recovery).
    pub fn value_len(&self) -> usize {
        self.value_len as usize
    }

    /// The slot of `dc` under this record's home DC, if the policy spans
    /// that many data centers.
    fn slot_of(&self, dc: DataCenterId) -> Option<u8> {
        let slot = dc.slot(self.home_dc);
        (slot < self.policy.data_centers()).then_some(slot)
    }

    /// The table range holding slot `slot`'s locations.
    fn slot_range(&self, slot: u8) -> std::ops::Range<usize> {
        let per_dc = usize::from(self.policy.frags_per_dc);
        usize::from(slot) * per_dc..(usize::from(slot) + 1) * per_dc
    }

    /// The slots whose bit is set in `mask`, ascending.
    fn slots_in(&self, mask: u64) -> impl Iterator<Item = u8> {
        (0..self.policy.data_centers()).filter(move |slot| mask & (1 << slot) != 0)
    }

    /// The decided `(data center, slot)` pairs in **data-center-id**
    /// order — the order every walk below keeps, because senders iterate
    /// them and each send draws from the simulation's RNG.
    fn decided_slots(&self) -> impl Iterator<Item = (DataCenterId, u8)> + '_ {
        (0..self.policy.data_centers()).filter_map(move |i| {
            let dc = DataCenterId::new(i);
            let slot = dc.slot(self.home_dc);
            (self.decided & (1 << slot) != 0).then_some((dc, slot))
        })
    }

    /// Adds the decided locations for one data center. Returns `true` if
    /// this DC had no locations yet (first writer wins; a second,
    /// identical decision is a no-op and a conflicting one is ignored).
    ///
    /// # Panics
    ///
    /// Panics if the list length differs from the policy's per-DC count,
    /// or if `dc` lies outside the data centers the policy spans.
    pub fn add_dc_locations(&mut self, dc: DataCenterId, locations: Vec<Location>) -> bool {
        assert_eq!(
            locations.len(),
            self.policy.frags_per_dc as usize,
            "a DC decision must cover the full per-DC fragment count"
        );
        let slot = self
            .slot_of(dc)
            .expect("a DC decision must be for a data center the policy spans");
        if self.decided & (1 << slot) != 0 {
            return false;
        }
        let range = self.slot_range(slot);
        self.locs[range].copy_from_slice(&locations);
        self.decided |= 1 << slot;
        true
    }

    /// Merges locations from another metadata for the same object version.
    /// Returns `true` if anything was learned.
    pub fn merge(&mut self, other: &Metadata) -> bool {
        debug_assert_eq!(
            (self.policy, self.home_dc),
            (other.policy, other.home_dc),
            "merging metadata of different object versions"
        );
        let learn = other.decided & !self.decided;
        let mut changed = learn != 0;
        for slot in self.slots_in(learn) {
            let range = self.slot_range(slot);
            self.locs[range.clone()].copy_from_slice(&other.locs[range]);
        }
        self.decided |= learn;
        // Repair a placeholder value length (defensive: all senders carry
        // real metadata, but a server that first learned of a version
        // through a bare location decision would otherwise poison fragment
        // sizing for recovery).
        if self.value_len == 0 && other.value_len != 0 {
            self.value_len = other.value_len;
            changed = true;
        }
        changed
    }

    /// Whether [`merge`](Self::merge) with `other` would learn anything —
    /// the same per-DC first-writer-wins test, without mutating. Lets the
    /// shared-metadata path skip the copy-on-write a no-op
    /// [`merge_shared`](Self::merge_shared) would otherwise force.
    pub fn would_learn_from(&self, other: &Metadata) -> bool {
        other.decided & !self.decided != 0 || (self.value_len == 0 && other.value_len != 0)
    }

    /// Merges `src` into the shared handle `dst`. Returns `true` if `dst`
    /// changed; the result equals `dst.merge(src)` on owned metadata.
    ///
    /// Nothing is copied unless the two snapshots are genuinely divergent
    /// (each knows a data center the other lacks). The `Arc::ptr_eq` fast
    /// path skips even the field comparisons when both handles are the
    /// same snapshot (the common case once a version settles); a `src`
    /// that knows everything `dst` does is *adopted* — `dst` becomes
    /// another handle on `src`'s allocation — which is exact because a
    /// DC's decision is a pure function of the object version
    /// ([`Kls::which_locs`](crate::kls::Kls::which_locs)), so the data
    /// centers both sides know carry identical locations. Every server a
    /// put reaches therefore ends up holding the one record the proxy
    /// built last.
    // lint:hot
    pub fn merge_shared(dst: &mut Arc<Metadata>, src: &Arc<Metadata>) -> bool {
        if Arc::ptr_eq(dst, src) || !dst.would_learn_from(src) {
            return false;
        }
        if !src.would_learn_from(dst) {
            debug_assert!(
                dst.agrees_with(src),
                "snapshots of one object version disagree on a shared decision"
            );
            *dst = Arc::clone(src);
            return true;
        }
        Arc::make_mut(dst).merge(src)
    }

    /// Whether the two records carry the same value wherever both have
    /// one (what determinism of the per-DC decisions guarantees).
    fn agrees_with(&self, other: &Metadata) -> bool {
        self.slots_in(self.decided & other.decided)
            .all(|s| self.locs[self.slot_range(s)] == other.locs[self.slot_range(s)])
            && (self.value_len == 0 || other.value_len == 0 || self.value_len == other.value_len)
    }

    /// Whether the proxy/FS knows locations for `dc` already (the paper's
    /// `useful_locs` test: locations are useful iff they are the first for
    /// their data center).
    pub fn has_dc(&self, dc: DataCenterId) -> bool {
        self.slot_of(dc)
            .is_some_and(|slot| self.decided & (1 << slot) != 0)
    }

    /// The decided locations for `dc`, if any, in fragment order.
    pub fn dc_locations(&self, dc: DataCenterId) -> Option<&[Location]> {
        let slot = self.slot_of(dc)?;
        (self.decided & (1 << slot) != 0).then(|| &self.locs[self.slot_range(slot)])
    }

    /// Data centers with decided locations.
    pub fn decided_dcs(&self) -> impl Iterator<Item = DataCenterId> + '_ {
        self.decided_slots().map(|(dc, _)| dc)
    }

    /// `verify(meta)` from the paper: the metadata is complete when every
    /// data center required by the policy has decided locations.
    pub fn is_complete(&self) -> bool {
        self.decided.count_ones() == u32::from(self.policy.data_centers())
    }

    /// Iterates over `(fragment index, location)` for every decided
    /// location, data center by data center in DC-id order. Fragment
    /// indices follow the DC slot layout: the home DC covers indices
    /// `0..frags_per_dc` (data fragments first), the next slot the
    /// following block, and so on.
    pub fn assignments(&self) -> impl Iterator<Item = (FragmentIndex, Location)> + '_ {
        self.decided_slots().flat_map(move |(_, slot)| {
            let range = self.slot_range(slot);
            let base = range.start;
            self.locs[range]
                .iter()
                .enumerate()
                .map(move |(i, &loc)| ((base + i) as FragmentIndex, loc))
        })
    }

    /// The data center hosting fragment index `idx` under this layout.
    pub fn dc_of_fragment(&self, idx: FragmentIndex) -> DataCenterId {
        let slot = idx / self.policy.frags_per_dc;
        DataCenterId::from_slot(slot, self.home_dc)
    }

    /// The fragment indices assigned to fragment server `fs`.
    pub fn fragments_of(&self, fs: NodeId) -> Vec<FragmentIndex> {
        self.assigned_to(fs).collect()
    }

    /// Iterates the fragment indices assigned to fragment server `fs`
    /// without allocating (the hot-path form of
    /// [`fragments_of`](Self::fragments_of)).
    pub fn assigned_to(&self, fs: NodeId) -> impl Iterator<Item = FragmentIndex> + '_ {
        self.assignments()
            .filter(move |(_, loc)| loc.fs() == fs)
            .map(|(idx, _)| idx)
    }

    /// The distinct sibling fragment servers, in id order.
    pub fn sibling_fss(&self) -> Vec<NodeId> {
        self.siblings().collect()
    }

    /// The distinct sibling fragment servers in id order, without
    /// allocating (the hot-path form of
    /// [`sibling_fss`](Self::sibling_fss)): a policy has at most 255
    /// fragments, so the servers fit a stack array.
    // lint:hot
    pub fn siblings(&self) -> Siblings {
        self.distinct_fss(None)
    }

    /// The [`siblings`](Self::siblings) hosting a fragment in some data
    /// center other than `dc`: whose stored snapshot goes stale when `dc`
    /// decides.
    // lint:hot
    pub fn siblings_outside(&self, dc: DataCenterId) -> Siblings {
        self.distinct_fss(Some(dc))
    }

    // lint:hot
    fn distinct_fss(&self, skip: Option<DataCenterId>) -> Siblings {
        let mut out = Siblings {
            ids: [NodeId::new(0); Siblings::CAPACITY],
            next: 0,
            len: 0,
        };
        let hosts = self
            .decided_slots()
            .filter(|&(dc, _)| Some(dc) != skip)
            .flat_map(|(_, slot)| &self.locs[self.slot_range(slot)]);
        for (id, loc) in out.ids.iter_mut().zip(hosts) {
            *id = loc.fs();
            out.len += 1;
        }
        let ids = &mut out.ids[..out.len];
        ids.sort_unstable();
        // Dedup in place: `kept` distinct ids so far, all below `ids[i]`.
        let mut kept = 0;
        for i in 0..ids.len() {
            if kept == 0 || ids[kept - 1] != ids[i] {
                ids[kept] = ids[i];
                kept += 1;
            }
        }
        out.len = kept;
        out
    }

    /// Total decided locations (equals `n` when complete).
    pub fn location_count(&self) -> usize {
        self.decided.count_ones() as usize * usize::from(self.policy.frags_per_dc)
    }

    /// Modeled wire size of this metadata when embedded in a message.
    pub fn wire_size(&self) -> usize {
        // policy(5) + home dc(1) + value_len(4) + per location (node 4 +
        // disk 1 + dc tag amortized 1).
        10 + 6 * self.location_count()
    }
}

/// The distinct sibling fragment servers of one [`Metadata`], ascending;
/// see [`Metadata::siblings`].
pub struct Siblings {
    ids: [NodeId; Siblings::CAPACITY],
    next: usize,
    len: usize,
}

impl Siblings {
    /// `Policy::n` is a `u8`.
    const CAPACITY: usize = u8::MAX as usize;
}

impl Iterator for Siblings {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.ids[..self.len].get(self.next).copied()?;
        self.next += 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(i: u8) -> DataCenterId {
        DataCenterId::new(i)
    }

    fn fs(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Six locations over three FSs, two fragments each.
    fn six_locs(first_fs: u32) -> Vec<Location> {
        (0..6)
            .map(|i| Location::new(fs(first_fs + i / 2), (i % 2) as u8))
            .collect()
    }

    fn meta_with_both_dcs() -> Metadata {
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 100 * 1024);
        assert!(m.add_dc_locations(dc(0), six_locs(10)));
        assert!(m.add_dc_locations(dc(1), six_locs(20)));
        m
    }

    #[test]
    fn completeness_tracks_decided_dcs() {
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 1);
        assert!(!m.is_complete());
        m.add_dc_locations(dc(0), six_locs(10));
        assert!(!m.is_complete());
        assert!(m.has_dc(dc(0)));
        assert!(!m.has_dc(dc(1)));
        m.add_dc_locations(dc(1), six_locs(20));
        assert!(m.is_complete());
        assert_eq!(m.location_count(), 12);
    }

    #[test]
    fn first_writer_wins_per_dc() {
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 1);
        assert!(m.add_dc_locations(dc(0), six_locs(10)));
        assert!(!m.add_dc_locations(dc(0), six_locs(50)), "second ignored");
        assert_eq!(m.dc_locations(dc(0)).unwrap()[0].fs(), fs(10));
    }

    #[test]
    fn merge_is_idempotent_and_learns_missing_dcs() {
        let full = meta_with_both_dcs();
        let mut partial = Metadata::new(Policy::paper_default(), dc(0), 100 * 1024);
        partial.add_dc_locations(dc(0), six_locs(10));
        assert!(partial.merge(&full), "learns DC1");
        assert!(partial.is_complete());
        assert!(!partial.merge(&full), "second merge is a no-op");
        assert_eq!(partial, full);
    }

    #[test]
    fn merge_is_commutative_on_disjoint_dcs() {
        let mut a = Metadata::new(Policy::paper_default(), dc(0), 7);
        a.add_dc_locations(dc(0), six_locs(10));
        let mut b = Metadata::new(Policy::paper_default(), dc(0), 7);
        b.add_dc_locations(dc(1), six_locs(20));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn fragment_assignment_layout() {
        let m = meta_with_both_dcs();
        let assigns: Vec<_> = m.assignments().collect();
        assert_eq!(assigns.len(), 12);
        // Home DC (dc0) covers fragments 0..6; dc1 covers 6..12.
        assert_eq!(assigns[0], (0, Location::new(fs(10), 0)));
        assert_eq!(assigns[5].0, 5);
        assert_eq!(assigns[6], (6, Location::new(fs(20), 0)));
        assert_eq!(assigns[11].0, 11);
    }

    #[test]
    fn home_dc_slot_flips_when_home_is_dc1() {
        let mut m = Metadata::new(Policy::paper_default(), dc(1), 1);
        m.add_dc_locations(dc(0), six_locs(10));
        m.add_dc_locations(dc(1), six_locs(20));
        // dc1 is home -> slot 0 -> fragments 0..6 live on fs 20..22.
        assert_eq!(m.fragments_of(fs(20)), vec![0, 1]);
        assert_eq!(m.fragments_of(fs(10)), vec![6, 7]);
    }

    #[test]
    fn fragments_of_and_siblings() {
        let m = meta_with_both_dcs();
        assert_eq!(m.fragments_of(fs(11)), vec![2, 3]);
        assert_eq!(m.fragments_of(fs(99)), Vec::<u8>::new());
        assert_eq!(
            m.sibling_fss(),
            vec![fs(10), fs(11), fs(12), fs(20), fs(21), fs(22)]
        );
    }

    #[test]
    fn dc_of_fragment_follows_slot_layout() {
        let m = meta_with_both_dcs();
        for i in 0..6u8 {
            assert_eq!(m.dc_of_fragment(i), dc(0));
            assert_eq!(m.dc_of_fragment(6 + i), dc(1));
        }
        // With dc1 as home the mapping flips.
        let mut flipped = Metadata::new(Policy::paper_default(), dc(1), 1);
        flipped.add_dc_locations(dc(0), six_locs(10));
        flipped.add_dc_locations(dc(1), six_locs(20));
        assert_eq!(flipped.dc_of_fragment(0), dc(1));
        assert_eq!(flipped.dc_of_fragment(6), dc(0));
    }

    #[test]
    fn value_len_roundtrip() {
        let m = meta_with_both_dcs();
        assert_eq!(m.value_len(), 100 * 1024);
        assert_eq!(m.policy().k, 4);
        assert_eq!(m.home_dc(), dc(0));
    }

    #[test]
    fn merge_shared_adopts_a_superset_snapshot() {
        let full = Arc::new(meta_with_both_dcs());
        let mut partial_owned = Metadata::new(Policy::paper_default(), dc(0), 100 * 1024);
        partial_owned.add_dc_locations(dc(0), six_locs(10));
        let mut dst = Arc::new(partial_owned);
        let observer = Arc::clone(&dst);

        assert!(dst.would_learn_from(&full));
        assert!(Metadata::merge_shared(&mut dst, &full), "learns DC1");
        assert!(Arc::ptr_eq(&dst, &full), "adopted, not copied");
        assert!(!observer.is_complete(), "the aliased handle is untouched");

        assert!(!Metadata::merge_shared(&mut dst, &full), "ptr_eq fast path");
        let mut stale = Arc::clone(&observer);
        assert!(Metadata::merge_shared(&mut stale, &dst));
        let mut settled = Arc::clone(&full);
        assert!(
            !Metadata::merge_shared(&mut settled, &observer),
            "an older snapshot teaches nothing"
        );
        assert!(Arc::ptr_eq(&settled, &full), "no-op never re-points");
    }

    #[test]
    fn merge_shared_copies_only_divergent_snapshots() {
        let mut a = Metadata::new(Policy::paper_default(), dc(0), 7);
        a.add_dc_locations(dc(0), six_locs(10));
        let mut b = Metadata::new(Policy::paper_default(), dc(0), 7);
        b.add_dc_locations(dc(1), six_locs(20));
        let (a, b) = (Arc::new(a), Arc::new(b));
        let mut dst = Arc::clone(&a);
        assert!(Metadata::merge_shared(&mut dst, &b));
        assert!(!Arc::ptr_eq(&dst, &a) && !Arc::ptr_eq(&dst, &b));
        assert!(dst.is_complete());
        assert!(!a.is_complete() && !b.is_complete(), "sources untouched");
        let mut owned = (*a).clone();
        owned.merge(&b);
        assert_eq!(*dst, owned);
    }

    #[test]
    fn undecided_slots_compare_and_iterate_as_absent() {
        // Decide DC1 only, with DC1 as home and as non-home: equality,
        // assignments and the sibling walk must see exactly that DC.
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 1);
        m.add_dc_locations(dc(1), six_locs(20));
        assert_eq!(m.location_count(), 6);
        assert_eq!(m.decided_dcs().collect::<Vec<_>>(), vec![dc(1)]);
        assert_eq!(m.dc_locations(dc(0)), None);
        assert_eq!(m.dc_locations(dc(7)), None, "outside the policy");
        assert!(!m.has_dc(dc(7)));
        let idx: Vec<_> = m.assignments().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![6, 7, 8, 9, 10, 11]);
        assert_eq!(m.sibling_fss(), vec![fs(20), fs(21), fs(22)]);
        let mut again = Metadata::new(Policy::paper_default(), dc(0), 1);
        again.add_dc_locations(dc(1), six_locs(20));
        assert_eq!(m, again);
        again.add_dc_locations(dc(0), six_locs(10));
        assert_ne!(m, again);
    }

    #[test]
    fn walks_keep_data_center_id_order_not_slot_order() {
        // Three DCs, home DC2: slots are dc2, dc0, dc1, but assignments
        // and decided_dcs walk dc0, dc1, dc2 — the order senders (and so
        // the RNG) have always seen.
        let p = Policy::new(2, 6, 3, 2);
        let mut m = Metadata::new(p, dc(2), 1);
        let two = |first| vec![Location::new(fs(first), 0), Location::new(fs(first), 1)];
        for (d, first) in [(2, 30), (0, 10), (1, 20)] {
            assert!(m.add_dc_locations(dc(d), two(first)));
        }
        assert_eq!(
            m.decided_dcs().collect::<Vec<_>>(),
            vec![dc(0), dc(1), dc(2)]
        );
        let idx: Vec<_> = m.assignments().map(|(i, l)| (i, l.fs())).collect();
        assert_eq!(
            idx,
            vec![
                (2, fs(10)),
                (3, fs(10)),
                (4, fs(20)),
                (5, fs(20)),
                (0, fs(30)),
                (1, fs(30))
            ]
        );
        assert_eq!(m.siblings().collect::<Vec<_>>(), m.sibling_fss());
        assert_eq!(m.sibling_fss(), vec![fs(10), fs(20), fs(30)]);
    }

    #[test]
    fn assigned_to_matches_fragments_of() {
        let m = meta_with_both_dcs();
        assert_eq!(
            m.assigned_to(fs(11)).collect::<Vec<_>>(),
            m.fragments_of(fs(11))
        );
        assert_eq!(m.assigned_to(fs(99)).count(), 0);
    }

    #[test]
    fn wire_size_grows_with_locations() {
        let empty = Metadata::new(Policy::paper_default(), dc(0), 1);
        let full = meta_with_both_dcs();
        assert!(full.wire_size() > empty.wire_size());
        assert_eq!(full.wire_size(), 10 + 6 * 12);
    }

    /// A location is one word, so a `(4, 16)` version's table is 64 B: a
    /// field that grows what every stored version costs fails here.
    #[test]
    fn location_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Location>(), 4);
        let m = Metadata::new(Policy::new(4, 16, 4, 1), dc(0), 1);
        assert_eq!(std::mem::size_of_val(&*m.locs), 64);
    }

    #[test]
    fn location_debug_names_both_fields() {
        let loc = Location::new(fs(10), 3);
        assert_eq!(format!("{loc:?}"), "Location { fs: n10, disk: 3 }");
        let last = Location::new(fs(FS_LIMIT - 1), u8::MAX);
        assert_eq!((last.fs(), last.disk()), (fs(FS_LIMIT - 1), u8::MAX));
        assert_ne!(last, UNDECIDED);
    }

    #[test]
    #[should_panic(expected = "node index 16777215 does not fit a location (limit 2^24 - 1")]
    fn node_index_2_pow_24_minus_1_is_refused() {
        Location::new(fs(FS_LIMIT), 0);
    }

    #[test]
    #[should_panic(expected = "full per-DC fragment count")]
    fn short_dc_decision_panics() {
        let mut m = Metadata::new(Policy::paper_default(), dc(0), 1);
        m.add_dc_locations(dc(0), vec![Location::new(fs(1), 0)]);
    }
}
