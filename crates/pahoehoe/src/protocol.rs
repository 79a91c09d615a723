//! Protocol hot-path mode switches and dense helpers.
//!
//! The layers below (codec, checksum, event queue) each have one
//! implementation; the protocol layer still carries switches that select
//! between a pre-optimization reference and the optimized path, so
//! differential tests and the explorer's `--protocol` axis can compare
//! them:
//!
//! * **Shared metadata** — with `share_metadata` on (the default), actors
//!   pass [`Metadata`] around as refcounted [`Arc`]s: a send is a refcount
//!   bump. The reference mode deep-copies the metadata on every share,
//!   reproducing the seed's clone-per-send cost. Behavior is identical in
//!   both modes; `wire_size()` models serialized bytes, not in-memory
//!   layout, so the accounting never changes.
//! * **Batched rounds** — with `batch_rounds` on, a fragment server
//!   coalesces the convergence traffic one `run_round` emits to the same
//!   destination into a single multi-entry message (one shared
//!   `HEADER_BYTES`, per-entry bodies). The paper's rounds are
//!   *unsynchronized* — per-node and uncoordinated (§4.1) — so nothing in
//!   the protocol depends on entries arriving as separate messages.
//!   Batching is implemented as coalesced *accounting*: each entry still
//!   traverses the simulated channel individually, in the exact order the
//!   unbatched protocol sends it, drawing the same RNG — so event order,
//!   actor state and final AMR outcomes are bit-identical with batching on
//!   or off, and only the message/byte metrics change. Off by default so
//!   the paper-faithful experiment figures keep their per-message curves.
//!
//! Modes are captured per actor at construction (see
//! [`ClusterConfig::protocol`](crate::cluster::ClusterConfig)); the
//! process-wide setters here only choose the default for subsequently
//! built actors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use erasure::FragmentIndex;

use crate::metadata::Metadata;

/// Process-wide default for `share_metadata = false`; see
/// [`set_reference_protocol_mode`].
static REFERENCE_PROTOCOL_MODE: AtomicBool = AtomicBool::new(false);

/// Process-wide default for `batch_rounds = true`; see
/// [`set_batched_rounds`].
static BATCH_ROUNDS: AtomicBool = AtomicBool::new(false);

/// Process-wide default for `shard_store = false`; see
/// [`set_flat_store`].
static FLAT_STORE: AtomicBool = AtomicBool::new(false);

/// Process-wide default for `compact_converged = true`; see
/// [`set_compaction`].
static COMPACT_CONVERGED: AtomicBool = AtomicBool::new(false);

/// Process-wide default for `delta = true`; see [`set_delta_coding`].
static DELTA_CODING: AtomicBool = AtomicBool::new(false);

/// Switches every *subsequently constructed* protocol actor to the
/// pre-optimization metadata handling: a deep [`Metadata`] copy on every
/// share, exactly the seed's clone-per-send cost. Exists so the explorer's
/// `--protocol reference` sweep can run the pre-optimization path in every
/// scenario. Not for production use.
pub fn set_reference_protocol_mode(enabled: bool) {
    REFERENCE_PROTOCOL_MODE.store(enabled, Ordering::Relaxed);
}

/// Whether [`set_reference_protocol_mode`] is on.
pub fn reference_protocol_mode() -> bool {
    REFERENCE_PROTOCOL_MODE.load(Ordering::Relaxed)
}

/// Enables coalesced convergence-round accounting for every
/// *subsequently constructed* fragment server (see the module docs for
/// why this cannot change protocol behavior). Off by default.
pub fn set_batched_rounds(enabled: bool) {
    BATCH_ROUNDS.store(enabled, Ordering::Relaxed);
}

/// Whether [`set_batched_rounds`] is on.
pub fn batched_rounds() -> bool {
    BATCH_ROUNDS.load(Ordering::Relaxed)
}

/// Switches every *subsequently constructed* fragment server back to the
/// flat (unsharded) per-FS version index, the pre-scale-tier layout kept
/// as the differential oracle for the sharded store. Off by default.
pub fn set_flat_store(enabled: bool) {
    FLAT_STORE.store(enabled, Ordering::Relaxed);
}

/// Whether [`set_flat_store`] is on.
pub fn flat_store() -> bool {
    FLAT_STORE.load(Ordering::Relaxed)
}

/// Enables converged-version compaction for every *subsequently
/// constructed* fragment server: once a version is settled AMR locally
/// *and* a strictly newer version of the same key is also settled AMR
/// locally, the version's fragment bytes, checksums and metadata handle
/// are released, leaving an O(1) residual record. Off by default so the
/// paper-faithful sweeps keep full per-version state (and the
/// durable-monotone invariant, which compaction deliberately relaxes for
/// superseded versions, stays exact).
pub fn set_compaction(enabled: bool) {
    COMPACT_CONVERGED.store(enabled, Ordering::Relaxed);
}

/// Whether [`set_compaction`] is on.
pub fn compaction() -> bool {
    COMPACT_CONVERGED.load(Ordering::Relaxed)
}

/// Enables XOR-delta stripe coding for every *subsequently constructed*
/// proxy and fragment server: when a proxy still holds the previous
/// version's value for a key (its bounded stripe cache), the overwrite is
/// encoded as windowed delta fragments — by GF(2⁸) linearity,
/// `encode(a) XOR encode(b) = encode(a XOR b)` — and each FS resolves the
/// delta against its stored base fragment at store time, so stored state
/// stays dense. Off by default: the paper-faithful sweeps and the
/// recorded digests use full encodes; delta runs opt in (explorer
/// `--delta`, the delta bench).
pub fn set_delta_coding(enabled: bool) {
    DELTA_CODING.store(enabled, Ordering::Relaxed);
}

/// Whether [`set_delta_coding`] is on.
pub fn delta_coding() -> bool {
    DELTA_CODING.load(Ordering::Relaxed)
}

/// The protocol-layer optimization switches an actor runs with, captured
/// once at construction so parallel tests can pin a mode per cluster
/// without racing on the process-wide defaults.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProtocolMode {
    /// Share metadata by refcount (`true`, the default) or deep-copy it on
    /// every share (the seed's behavior, for reference benchmarks).
    pub share_metadata: bool,
    /// Coalesce each convergence round's per-destination traffic into
    /// multi-entry messages (accounting only; see module docs).
    pub batch_rounds: bool,
    /// Key-shard the per-FS version index (`true`, the default): lookups
    /// hash the key into a fixed power-of-two shard array so a per-key
    /// operation touches one small map. `false` keeps the flat map as the
    /// differential oracle.
    pub shard_store: bool,
    /// Release the state of durably converged, superseded versions down
    /// to an O(1) residual record (see [`set_compaction`]). Off by
    /// default; scale runs opt in.
    pub compact_converged: bool,
    /// Encode overwrites of cached keys as XOR-delta stripes resolved at
    /// the FS store path (see [`set_delta_coding`]). Off by default so
    /// the pinned sweep digests keep their full-encode byte accounting.
    pub delta: bool,
}

impl ProtocolMode {
    /// The optimized default: shared metadata, sharded store, unbatched
    /// accounting (the paper-faithful per-message figures), no
    /// compaction.
    pub const fn optimized() -> Self {
        ProtocolMode {
            share_metadata: true,
            batch_rounds: false,
            shard_store: true,
            compact_converged: false,
            delta: false,
        }
    }

    /// The pre-optimization reference: deep-copied metadata, flat
    /// unsharded store, unbatched, no compaction.
    pub const fn reference() -> Self {
        ProtocolMode {
            share_metadata: false,
            batch_rounds: false,
            shard_store: false,
            compact_converged: false,
            delta: false,
        }
    }

    /// Shared metadata plus coalesced round accounting.
    pub const fn batched() -> Self {
        ProtocolMode {
            share_metadata: true,
            batch_rounds: true,
            shard_store: true,
            compact_converged: false,
            delta: false,
        }
    }

    /// The scale tier: every optimization on, including converged-version
    /// compaction (which the default sweeps leave off; see
    /// [`set_compaction`]).
    pub const fn scale() -> Self {
        ProtocolMode {
            share_metadata: true,
            batch_rounds: false,
            shard_store: true,
            compact_converged: true,
            delta: false,
        }
    }

    /// The optimized defaults plus XOR-delta stripe coding for hot-key
    /// overwrites (what explorer `--delta` pins per cluster).
    pub const fn delta() -> Self {
        ProtocolMode {
            share_metadata: true,
            batch_rounds: false,
            shard_store: true,
            compact_converged: false,
            delta: true,
        }
    }

    /// The mode selected by the process-wide switches right now (what a
    /// newly built actor adopts unless told otherwise).
    pub fn current() -> Self {
        ProtocolMode {
            share_metadata: !reference_protocol_mode(),
            batch_rounds: batched_rounds(),
            shard_store: !flat_store(),
            compact_converged: compaction(),
            delta: delta_coding(),
        }
    }

    /// Produces the metadata handle to embed in an outgoing message: a
    /// refcount bump when sharing, a deep copy in reference mode (the
    /// seed cloned metadata into every send).
    // lint:hot
    pub fn share(&self, meta: &Arc<Metadata>) -> Arc<Metadata> {
        if self.share_metadata {
            Arc::clone(meta)
        } else {
            Arc::new((**meta).clone())
        }
    }
}

impl Default for ProtocolMode {
    fn default() -> Self {
        ProtocolMode::optimized()
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
    use crate::policy::Policy;
    use crate::topology::DataCenterId;

    #[test]
    fn mode_constructors_and_default() {
        assert_eq!(ProtocolMode::default(), ProtocolMode::optimized());
        assert!(ProtocolMode::optimized().share_metadata);
        assert!(!ProtocolMode::optimized().batch_rounds);
        assert!(ProtocolMode::optimized().shard_store);
        assert!(!ProtocolMode::optimized().compact_converged);
        assert!(!ProtocolMode::reference().share_metadata);
        assert!(!ProtocolMode::reference().shard_store);
        assert!(ProtocolMode::batched().batch_rounds);
        assert!(ProtocolMode::scale().compact_converged);
        assert!(ProtocolMode::scale().shard_store);
        assert!(!ProtocolMode::optimized().delta);
        assert!(!ProtocolMode::reference().delta);
        assert!(!ProtocolMode::scale().delta);
        assert!(ProtocolMode::delta().delta);
        assert!(ProtocolMode::delta().share_metadata);
        assert!(!ProtocolMode::delta().compact_converged);
    }

    // The process-wide `set_flat_store` / `set_compaction` switches are
    // exercised in `tests/store_switches.rs`, a dedicated integration
    // binary, so toggling them can never race another test's
    // `ProtocolMode::current()` capture.

    #[test]
    fn share_bumps_or_copies() {
        let meta = Arc::new(Metadata::new(
            Policy::paper_default(),
            DataCenterId::new(0),
            100,
        ));
        let shared = ProtocolMode::optimized().share(&meta);
        assert!(Arc::ptr_eq(&meta, &shared), "optimized mode shares");
        let copied = ProtocolMode::reference().share(&meta);
        assert!(!Arc::ptr_eq(&meta, &copied), "reference mode deep-copies");
        assert_eq!(*meta, *copied, "the copy is equal");
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
