//! Protocol behaviour switches and dense helpers.
//!
//! There is one protocol implementation. [`ProtocolMode`] carries the one
//! switch that changes what it *does* (off by default, which is the
//! paper-faithful protocol the recorded sweep digests pin):
//!
//! * **`batch_rounds`** — a fragment server sends the convergence probes,
//!   probe replies and AMR indications one dispatch produces as one
//!   [`Message::Batch`](crate::messages::Message::Batch) per destination
//!   and kind — sent, lost and answered as a unit — instead of one message
//!   per object version, and re-asks only the siblings that went silent
//!   instead of repeating a verification step (DESIGN.md §8.6).
//!
//! Converged-version compaction is not a mode: AMR is a version's terminal
//! state, so every fragment server releases a version that is settled AMR
//! and superseded by a newer settled-AMR version of its key down to an
//! O(1) residual record (DESIGN.md §8.7).
//!
//! A mode is a constructor argument:
//! [`ClusterConfig::protocol`](crate::cluster::ClusterConfig) hands it to
//! every actor the cluster builds, and nothing process-wide selects one.
//!
//! [`FragMask`] and [`FragMap`] are the dense fragment-index set and the
//! small sorted fragment map the actors keep per version; [`Donors`] is
//! the donor fragments one retrieval gathers (a proxy's get attempt, an
//! FS's recovery, a repair job); [`CodecCache`] is the codec each actor
//! that encodes, decodes or recovers keeps per policy shape.

use std::collections::BTreeMap;

use erasure::{Codec, Fragment, FragmentIndex};

/// The protocol behaviour an actor runs with, fixed at construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProtocolMode {
    /// Send a dispatch's round traffic — `ConvergeKls` and `ConvergeFs`
    /// probes, the `ConvergeFsReply`s it owes and FS-originated
    /// `AmrIndication`s — as one multi-entry message per destination and
    /// kind: one header, one fault check, one loss draw, one latency draw.
    /// A verification step whose last answers lack only siblings silent
    /// for longer than `round_min` re-asks those siblings alone, with no
    /// KLS probe; it settles nothing from the kept answers. Which versions
    /// step, and when, is untouched, with one exception: a re-ask answered
    /// verified runs the full step at once. Off by default because
    /// the paper's figures count one message per version (and fewer sends
    /// shift every later RNG draw, so the pinned default-mode digests would
    /// move); scale runs opt in.
    pub batch_rounds: bool,
}

impl ProtocolMode {
    /// The scale tier: batched rounds on.
    pub const fn scale() -> Self {
        ProtocolMode { batch_rounds: true }
    }
}

/// A dense set of fragment indices (`n <= 256`), replacing the
/// `Vec<FragmentIndex>` / `BTreeSet` walks on the protocol hot path:
/// insert, membership and cardinality are single-word bit operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FragMask {
    bits: [u64; 4],
}

impl FragMask {
    /// The empty set.
    pub const fn new() -> Self {
        FragMask { bits: [0; 4] }
    }

    /// Inserts `idx`; returns `true` if it was not present before.
    // lint:hot
    pub fn insert(&mut self, idx: FragmentIndex) -> bool {
        let (w, b) = (usize::from(idx) / 64, usize::from(idx) % 64);
        let fresh = self.bits[w] & (1 << b) == 0;
        self.bits[w] |= 1 << b;
        fresh
    }

    /// Removes `idx`; returns `true` if it was present.
    pub fn remove(&mut self, idx: FragmentIndex) -> bool {
        let (w, b) = (usize::from(idx) / 64, usize::from(idx) % 64);
        let present = self.bits[w] & (1 << b) != 0;
        self.bits[w] &= !(1 << b);
        present
    }

    /// Whether `idx` is in the set.
    // lint:hot
    pub fn contains(&self, idx: FragmentIndex) -> bool {
        let (w, b) = (usize::from(idx) / 64, usize::from(idx) % 64);
        self.bits[w] & (1 << b) != 0
    }

    /// Number of indices in the set.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.bits = [0; 4];
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates the indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = FragmentIndex> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some((w * 64 + b as usize) as FragmentIndex)
            })
        })
    }
}

impl FromIterator<FragmentIndex> for FragMask {
    fn from_iter<I: IntoIterator<Item = FragmentIndex>>(indices: I) -> Self {
        let mut mask = FragMask::new();
        for idx in indices {
            mask.insert(idx);
        }
        mask
    }
}

/// The donor fragments one retrieval gathers: a proxy's get attempt, an
/// FS's recovery (a recovery is a get of the version, §3.4) or a repair
/// job. The channel duplicates messages (§3.1), so a fragment index counts
/// once however often its reply arrives.
#[derive(Debug, Default)]
pub struct Donors {
    /// Indices asked.
    asked: FragMask,
    /// Indices answered, with a fragment or ⊥.
    answered: FragMask,
    /// Fragments received: distinct, by ascending index.
    received: Vec<Fragment>,
}

impl Donors {
    /// Records that fragment `idx` was asked for.
    pub fn ask(&mut self, idx: FragmentIndex) {
        self.asked.insert(idx);
    }

    /// Records the reply for `idx`: its fragment, or `None` for ⊥. Returns
    /// whether the reply is new; a repeated reply, or one for an index
    /// never asked, changes nothing.
    pub fn answer(&mut self, idx: FragmentIndex, data: Option<Fragment>) -> bool {
        if !self.asked.contains(idx) || !self.answered.insert(idx) {
            return false;
        }
        if let Some(frag) = data {
            debug_assert_eq!(frag.index(), idx, "a reply carries the fragment asked");
            let at = self.received.partition_point(|f| f.index() < idx);
            self.received.insert(at, frag);
        }
        true
    }

    /// Requests asked and not yet answered.
    pub fn outstanding(&self) -> usize {
        self.asked.count() - self.answered.count()
    }

    /// The fragments received, distinct and by ascending index: the slice
    /// the codec decodes or recovers from.
    pub fn received(&self) -> &[Fragment] {
        &self.received
    }
}

/// Codecs by `(k, n)`, each built on first use: constructing a codec runs
/// a Gaussian elimination, far too costly per put, read or recovery. The
/// proxy, the FS and the repair actor each keep one.
#[derive(Default)]
pub struct CodecCache(BTreeMap<(u8, u8), Codec>);

impl CodecCache {
    /// The `(k, n)` codec, built if this is its first use.
    pub fn get(&mut self, k: u8, n: u8) -> &Codec {
        self.0.entry((k, n)).or_insert_with(|| {
            // lint:allow(panic-path): a proxy validates each put's policy before it encodes, and every FS and repair actor reads (k, n) from that put's metadata
            Codec::new(usize::from(k), usize::from(n)).expect("policy validated at put time")
        })
    }
}

/// The fragments one server holds for one object version (an FS's stored
/// fragments with their checksums), by fragment index: a sorted vector
/// sized to its contents. A server is assigned at most
/// `max_frags_per_fs` — one or two — fragments of a
/// version, so a B-tree node per entry would be almost entirely empty
/// slots; this costs nothing while empty and one exact-fit allocation
/// after. The methods are the `BTreeMap` subset the stores use.
#[derive(Clone, Default)]
pub struct FragMap<V> {
    /// Sorted by fragment index, indices distinct.
    entries: Vec<(FragmentIndex, V)>,
}

impl<V> FragMap<V> {
    /// The empty map (no allocation).
    pub const fn new() -> Self {
        FragMap {
            entries: Vec::new(),
        }
    }

    // lint:hot
    fn position(&self, idx: &FragmentIndex) -> Result<usize, usize> {
        self.entries.binary_search_by_key(idx, |&(i, _)| i)
    }

    /// Number of fragments held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value stored for `idx`, if any.
    // lint:hot
    pub fn get(&self, idx: &FragmentIndex) -> Option<&V> {
        let at = self.position(idx).ok()?;
        self.entries.get(at).map(|(_, v)| v)
    }

    /// Mutable access to the value stored for `idx`, if any.
    pub fn get_mut(&mut self, idx: &FragmentIndex) -> Option<&mut V> {
        let at = self.position(idx).ok()?;
        self.entries.get_mut(at).map(|(_, v)| v)
    }

    /// Whether `idx` is held.
    // lint:hot
    pub fn contains_key(&self, idx: &FragmentIndex) -> bool {
        self.position(idx).is_ok()
    }

    /// Stores `value` for `idx`, returning the value it replaces.
    pub fn insert(&mut self, idx: FragmentIndex, value: V) -> Option<V> {
        match self.position(&idx) {
            Ok(at) => self
                .entries
                .get_mut(at)
                .map(|(_, v)| std::mem::replace(v, value)),
            Err(at) => {
                // Grow by exactly one: `Vec`'s doubling would start a
                // one-fragment entry at four slots.
                self.entries.reserve_exact(1);
                self.entries.insert(at, (idx, value));
                None
            }
        }
    }

    /// Removes and returns the value stored for `idx`, if any.
    pub fn remove(&mut self, idx: &FragmentIndex) -> Option<V> {
        let at = self.position(idx).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// The held fragment indices, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &FragmentIndex> + '_ {
        self.iter().map(|(i, _)| i)
    }

    /// The held values, by ascending fragment index.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// `(index, value)` pairs, by ascending fragment index.
    pub fn iter(&self) -> FragMapIter<'_, V> {
        FragMapIter(self.entries.iter())
    }
}

/// Iterator over a [`FragMap`]'s `(index, value)` pairs.
pub struct FragMapIter<'a, V>(std::slice::Iter<'a, (FragmentIndex, V)>);

impl<'a, V> Iterator for FragMapIter<'a, V> {
    type Item = (&'a FragmentIndex, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(i, v)| (i, v))
    }
}

impl<'a, V> IntoIterator for &'a FragMap<V> {
    type Item = (&'a FragmentIndex, &'a V);
    type IntoIter = FragMapIter<'a, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for FragMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_constructors_and_default() {
        let default = ProtocolMode::default();
        assert!(!default.batch_rounds);
        assert!(ProtocolMode::scale().batch_rounds);
    }

    #[test]
    fn frag_map_is_a_sorted_exact_fit_map() {
        let mut m: FragMap<&str> = FragMap::new();
        assert!(m.is_empty());
        assert_eq!(m.entries.capacity(), 0, "empty costs nothing");
        assert_eq!(m.insert(9, "nine"), None);
        assert_eq!(m.entries.capacity(), 1, "one fragment, one slot");
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.insert(200, "two hundred"), None);
        assert_eq!(m.len(), 3);

        // Sorted iteration, whatever the insertion order; `keys` yields
        // references like the `BTreeMap` it replaces.
        let keys: Vec<&FragmentIndex> = m.keys().collect();
        assert_eq!(keys, vec![&2, &9, &200]);
        assert_eq!(
            m.values().copied().collect::<Vec<_>>(),
            vec!["two", "nine", "two hundred"]
        );
        let mut pairs = Vec::new();
        for (&idx, &v) in &m {
            pairs.push((idx, v));
        }
        assert_eq!(pairs, vec![(2, "two"), (9, "nine"), (200, "two hundred")]);

        // A duplicate insert replaces in place and reports the old value.
        assert_eq!(m.insert(9, "NINE"), Some("nine"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&9), Some(&"NINE"));
        assert_eq!(m.get(&3), None);
        assert!(m.contains_key(&200) && !m.contains_key(&0));
        if let Some(v) = m.get_mut(&2) {
            *v = "TWO";
        }
        assert_eq!(m.get(&2), Some(&"TWO"));

        assert_eq!(m.remove(&9), Some("NINE"));
        assert_eq!(m.remove(&9), None);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![2, 200]);
        assert_eq!(format!("{m:?}"), r#"{2: "TWO", 200: "two hundred"}"#);
        assert_eq!(format!("{:?}", m.clone()), format!("{m:?}"));
    }

    #[test]
    fn frag_mask_set_operations() {
        let mut m = FragMask::new();
        assert!(m.is_empty());
        assert!(m.insert(0));
        assert!(m.insert(63));
        assert!(m.insert(64));
        assert!(m.insert(255));
        assert!(!m.insert(63), "double insert reports not-fresh");
        assert_eq!(m.count(), 4);
        assert!(m.contains(64));
        assert!(!m.contains(1));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 63, 64, 255]);
        assert!(m.remove(63));
        assert!(!m.remove(63));
        assert_eq!(m.count(), 3);
        let collected: FragMask = [255, 0, 64, 0].into_iter().collect();
        assert_eq!(collected, m, "collecting repeats an index once");
        m.clear();
        assert!(m.is_empty());
    }

    fn frag(idx: FragmentIndex) -> Fragment {
        Fragment::new(idx, vec![idx; 4])
    }

    #[test]
    fn donors_count_a_repeated_answer_once() {
        let mut d = Donors::default();
        d.ask(3);
        d.ask(5);
        assert!(d.answer(3, Some(frag(3))));
        assert!(!d.answer(3, Some(frag(3))), "a duplicate is not new");
        assert!(!d.answer(3, None), "nor is a later ⊥ for the same index");
        assert_eq!(d.received().len(), 1);
        assert_eq!(d.outstanding(), 1);
    }

    #[test]
    fn donors_count_a_bottom_as_answered_but_not_received() {
        let mut d = Donors::default();
        d.ask(2);
        d.ask(7);
        assert!(d.answer(7, None));
        assert_eq!(d.outstanding(), 1);
        assert!(d.received().is_empty());
        assert!(
            !d.answer(9, Some(frag(9))),
            "an index never asked is ignored"
        );
        assert_eq!(d.outstanding(), 1);
    }

    #[test]
    fn donors_track_outstanding_requests() {
        let mut d = Donors::default();
        assert_eq!(d.outstanding(), 0);
        for idx in [0, 4, 8, 200] {
            d.ask(idx);
        }
        d.ask(4);
        assert_eq!(d.outstanding(), 4, "asking twice is one request");
        d.answer(8, Some(frag(8)));
        d.answer(0, None);
        assert_eq!(d.outstanding(), 2);
        d.answer(4, Some(frag(4)));
        d.answer(200, Some(frag(200)));
        assert_eq!(d.outstanding(), 0);
    }

    #[test]
    fn donors_hand_out_fragments_in_index_order() {
        let mut d = Donors::default();
        for idx in [9, 1, 12, 4] {
            d.ask(idx);
        }
        for idx in [12, 4, 9, 1] {
            d.answer(idx, Some(frag(idx)));
        }
        let order: Vec<FragmentIndex> = d.received().iter().map(Fragment::index).collect();
        assert_eq!(order, vec![1, 4, 9, 12]);
        assert_eq!(d.received()[2].data().as_ref(), &[9u8; 4][..]);
    }
}
