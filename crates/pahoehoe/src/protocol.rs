//! Protocol behaviour switches and dense helpers.
//!
//! There is one protocol implementation. [`ProtocolMode`] carries the two
//! switches that change what it *does* (all off by default, which is the
//! paper-faithful protocol the recorded sweep digests pin):
//!
//! * **`compact_converged`** — a fragment server releases a version that is
//!   settled AMR and superseded by a newer settled-AMR version of its key
//!   down to an O(1) residual record (DESIGN.md §8.7);
//! * **`batch_rounds`** — a fragment server sends the convergence probes,
//!   probe replies and AMR indications one dispatch produces as one
//!   [`Message::Batch`](crate::messages::Message::Batch) per destination
//!   and kind — sent, lost and answered as a unit — instead of one message
//!   per object version (DESIGN.md §8.6).
//!
//! A mode is a constructor argument:
//! [`ClusterConfig::protocol`](crate::cluster::ClusterConfig) hands it to
//! every actor the cluster builds, and nothing process-wide selects one.
//!
//! [`FragMask`] and [`FragMap`] are the dense fragment-index set and the
//! small sorted fragment map the actors keep per version.

use erasure::FragmentIndex;

/// The protocol behaviour an actor runs with, fixed at construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProtocolMode {
    /// Release the state of durably converged, superseded versions down
    /// to an O(1) residual record: once a version is settled AMR locally
    /// *and* a strictly newer version of the same key is also settled AMR
    /// locally, its fragment bytes, checksums and metadata handle are
    /// dropped. Off by default so the paper-faithful sweeps keep full
    /// per-version state (and the durable-monotone invariant, which
    /// compaction deliberately relaxes for superseded versions, stays
    /// exact); scale runs opt in.
    pub compact_converged: bool,
    /// Send a dispatch's round traffic — `ConvergeKls` and `ConvergeFs`
    /// probes, the `ConvergeFsReply`s it owes and FS-originated
    /// `AmrIndication`s — as one multi-entry message per destination and
    /// kind: one header, one fault check, one loss draw, one latency draw.
    /// Which versions step, and when, is untouched. Off by default because
    /// the paper's figures count one message per version (and fewer sends
    /// shift every later RNG draw, so the pinned default-mode digests would
    /// move); scale runs opt in.
    pub batch_rounds: bool,
}

impl ProtocolMode {
    /// The scale tier: converged-version compaction and batched rounds on.
    pub const fn scale() -> Self {
        ProtocolMode {
            compact_converged: true,
            batch_rounds: true,
        }
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

/// The fragments (or checksums) one server holds for one object version,
/// by fragment index: a sorted vector sized to its contents. A server is
/// assigned at most `max_frags_per_fs` — one or two — fragments of a
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
        assert!(!default.compact_converged && !default.batch_rounds);
        let scale = ProtocolMode::scale();
        assert!(scale.compact_converged && scale.batch_rounds);
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
        m.clear();
        assert!(m.is_empty());
    }
}
