//! Per-key chains: the one layout for state kept per object version.
//!
//! Object versions order by `(key, timestamp)`, and the stores that keep a
//! record per version — a KLS's metadata (its timestamp store, §3.2), an
//! FS's live versions and its compaction residuals (DESIGN.md §8.7) — are
//! read a key at a time. [`Chains`] keeps such records as a hash-addressed
//! table `Key → chain` ([`KeyTable`]), each chain holding that key's
//! records sorted by timestamp. A lookup is one probe of a table with an
//! entry per *key*, then the key's own chain. A walk across keys
//! ([`Chains::iter`], [`Chains::iter_from`]) sorts the keys it visits, so
//! it lists the records in [`ObjectVersion`] order whatever the table's
//! layout.
//!
//! A chain is sized to what it holds. A lone record sits inline in the
//! table's value, with no allocation: most keys of a wide key space are
//! written once. A chain of up to [`EXACT_FIT_CHAIN`] records is allocated
//! exact-fit; longer chains belong to hot keys and grow amortised. Versions
//! mostly arrive in timestamp order, so lookups and inserts compare with
//! the chain's end before searching it.

use std::cmp::Ordering;

use crate::table::{Entry, KeyTable};
use crate::types::{Key, ObjectVersion, Timestamp};

/// A record that knows the timestamp of the version it belongs to; the key
/// is its chain's.
pub(crate) trait Stamped {
    /// The version's timestamp.
    fn ts(&self) -> Timestamp;
}

/// Chains of up to this many records are allocated exact-fit: a key
/// written two to four times would otherwise pay for the four records
/// `Vec`'s first allocation reserves. Longer chains grow by [`growth`].
pub(crate) const EXACT_FIT_CHAIN: usize = 4;

/// The records a full chain of `len` grows by: one up to
/// [`EXACT_FIT_CHAIN`], then a quarter of `len` plus one. Growing by a
/// quarter instead of `Vec`'s doubling keeps a long chain's unused tail
/// within about a fifth of its capacity, at the cost of a reallocation
/// every `len / 4` inserts instead of every `len`: still amortised
/// constant copying per insert, but four times the final size freed on
/// the way, which fragments the heap when many long chains grow together
/// (DESIGN.md §8.7, `mid-hot`).
fn growth(len: usize) -> usize {
    if len < EXACT_FIT_CHAIN {
        1
    } else {
        len / 4 + 1
    }
}

/// One key's records, sorted by timestamp, timestamps distinct. `Many`
/// always holds two or more: a removal that leaves one turns the chain
/// back into `One`.
#[derive(Debug)]
pub(crate) enum Chain<R> {
    /// A lone record, held inline.
    One(R),
    /// Two or more records.
    Many(Vec<R>),
}

impl<R: Stamped> Chain<R> {
    /// The records, oldest first.
    pub(crate) fn as_slice(&self) -> &[R] {
        match self {
            Chain::One(record) => std::slice::from_ref(record),
            Chain::Many(records) => records,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [R] {
        match self {
            Chain::One(record) => std::slice::from_mut(record),
            Chain::Many(records) => records,
        }
    }

    /// Where the record stamped `ts` is (`Ok`) or would go (`Err`). The
    /// usual question is about a version at or past the chain's end, which
    /// one comparison answers.
    // lint:hot
    fn search(&self, ts: Timestamp) -> Result<usize, usize> {
        let records = self.as_slice();
        let end = records.len();
        match records.last().map(|last| last.ts().cmp(&ts)) {
            Some(Ordering::Greater) => records.binary_search_by(|r| r.ts().cmp(&ts)),
            Some(Ordering::Equal) => Ok(end - 1),
            Some(Ordering::Less) | None => Err(end),
        }
    }

    /// Inserts `record` at position `at`, where `search` said it goes.
    fn insert(&mut self, at: usize, record: R) {
        let mut records = match std::mem::replace(self, Chain::Many(Vec::new())) {
            Chain::One(first) => {
                let mut records = Vec::with_capacity(2);
                records.push(first);
                records
            }
            Chain::Many(records) => records,
        };
        if records.len() == records.capacity() {
            records.reserve_exact(growth(records.len()));
        }
        records.insert(at, record);
        *self = Chain::Many(records);
    }

    /// Removes the record at `at`, where `search` found it, from a chain
    /// of two or more.
    fn remove(&mut self, at: usize) -> Option<R> {
        let Chain::Many(records) = self else {
            return None;
        };
        let removed = (at < records.len()).then(|| records.remove(at));
        if let [_] = records.as_slice() {
            if let Some(last) = records.pop() {
                *self = Chain::One(last);
            }
        }
        removed
    }

    /// The record at `at`.
    fn record_mut(&mut self, at: usize) -> &mut R {
        // lint:allow(panic-path): callers pass a position `search` found or `insert` just filled
        &mut self.as_mut_slice()[at]
    }

    /// Records the chain has room for without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        match self {
            Chain::One(_) => 1,
            Chain::Many(records) => records.capacity(),
        }
    }
}

/// Per-version records as per-key chains, walked in [`ObjectVersion`]
/// order.
#[derive(Debug)]
pub(crate) struct Chains<R> {
    chains: KeyTable<Chain<R>>,
    /// Records over all chains.
    len: usize,
}

impl<R> Default for Chains<R> {
    fn default() -> Self {
        Chains {
            chains: KeyTable::default(),
            len: 0,
        }
    }
}

impl<R: Stamped> Chains<R> {
    /// The record of `ov`, if any.
    // lint:hot
    pub(crate) fn get(&self, ov: ObjectVersion) -> Option<&R> {
        let chain = self.chains.get(ov.key)?;
        chain.as_slice().get(chain.search(ov.ts).ok()?)
    }

    /// Mutable variant of [`Chains::get`].
    pub(crate) fn get_mut(&mut self, ov: ObjectVersion) -> Option<&mut R> {
        let chain = self.chains.get_mut(ov.key)?;
        let at = chain.search(ov.ts).ok()?;
        chain.as_mut_slice().get_mut(at)
    }

    /// The record of `ov`, inserted from `make` if `ov` has none; and
    /// whether it was inserted.
    // lint:hot
    pub(crate) fn get_or_insert_with(
        &mut self,
        ov: ObjectVersion,
        make: impl FnOnce() -> R,
    ) -> (bool, &mut R) {
        let (inserted, chain, at) = match self.chains.entry(ov.key) {
            Entry::Vacant(vacant) => (true, vacant.insert(Chain::One(make())), 0),
            Entry::Occupied(chain) => match chain.search(ov.ts) {
                Ok(at) => (false, chain, at),
                Err(at) => {
                    chain.insert(at, make());
                    (true, chain, at)
                }
            },
        };
        self.len += usize::from(inserted);
        (inserted, chain.record_mut(at))
    }

    /// Removes the record of `ov`, returning it; a key left with no
    /// records leaves the table.
    pub(crate) fn remove(&mut self, ov: ObjectVersion) -> Option<R> {
        let chain = self.chains.get_mut(ov.key)?;
        let at = chain.search(ov.ts).ok()?;
        let removed = match chain {
            Chain::One(_) => match self.chains.remove(ov.key)? {
                Chain::One(record) => record,
                Chain::Many(_) => return None,
            },
            Chain::Many(_) => chain.remove(at)?,
        };
        self.len -= 1;
        Some(removed)
    }

    /// `key`'s records, oldest first (empty if it has none).
    // lint:hot
    pub(crate) fn chain(&self, key: Key) -> &[R] {
        self.chains.get(key).map_or(&[], Chain::as_slice)
    }

    /// Every record with its key, in object-version order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Key, &R)> + '_ {
        self.iter_from(None)
    }

    /// The records of `from` and every later version, with their keys, in
    /// object-version order (all of them for `None`). The keys are sorted
    /// here (see [`KeyTable::sorted_from`]); a key's own records are its
    /// sorted chain.
    pub(crate) fn iter_from(
        &self,
        from: Option<ObjectVersion>,
    ) -> impl Iterator<Item = (Key, &R)> + '_ {
        let first = from.map_or(Key::from_u64(0), |ov| ov.key);
        self.chains
            .sorted_from(first)
            .into_iter()
            .flat_map(move |(key, chain)| {
                let records = chain.as_slice();
                let skip = match from {
                    Some(ov) if ov.key == key => records.partition_point(|r| r.ts() < ov.ts),
                    _ => 0,
                };
                records.iter().skip(skip).map(move |r| (key, r))
            })
    }

    /// Records over all chains.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Keys with at least one record.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> usize {
        self.chains.len()
    }

    /// `key`'s chain itself, for tests that watch its allocation.
    #[cfg(test)]
    pub(crate) fn raw(&self, key: Key) -> Option<&Chain<R>> {
        self.chains.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    /// A 16-byte record, the size of both users' records: a timestamp
    /// word and one word more.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Rec {
        ts: Timestamp,
        tag: u64,
    }

    impl Stamped for Rec {
        fn ts(&self) -> Timestamp {
            self.ts
        }
    }

    fn ts(us: u64) -> Timestamp {
        Timestamp::new(SimTime::from_micros(us), 0)
    }

    fn ov(key: u64, us: u64) -> ObjectVersion {
        ObjectVersion::new(Key::from_u64(key), ts(us))
    }

    #[test]
    fn a_lone_record_is_inline_and_the_slot_is_three_words() {
        assert_eq!(std::mem::size_of::<Rec>(), 16);
        assert!(std::mem::size_of::<Chain<Rec>>() <= 24);
        let mut chains: Chains<Rec> = Chains::default();
        let (inserted, rec) = chains.get_or_insert_with(ov(1, 5), || Rec { ts: ts(5), tag: 1 });
        assert!(inserted && rec.tag == 1);
        assert!(matches!(chains.raw(Key::from_u64(1)), Some(Chain::One(_))));
    }

    #[test]
    fn chains_grow_exact_fit_then_amortised() {
        let mut chains: Chains<Rec> = Chains::default();
        let key = Key::from_u64(3);
        let mut capacities = Vec::new();
        for i in 0..1_000u64 {
            let (inserted, _) = chains.get_or_insert_with(ov(3, i), || Rec { ts: ts(i), tag: i });
            assert!(inserted);
            let chain = chains.raw(key).expect("inserted");
            let (len, capacity) = (chain.as_slice().len(), chain.capacity());
            assert_eq!(len as u64, i + 1);
            if len <= EXACT_FIT_CHAIN {
                assert_eq!(capacity, len, "{len} records");
            } else {
                assert!(capacity <= len + len / 4 + 1, "{len} records in {capacity}");
            }
            if capacities.last() != Some(&capacity) {
                capacities.push(capacity);
            }
        }
        // 1, 2, 3, 4, then each full chain grows by `len / 4 + 1`: 6, 8,
        // 11, …, 887, 1 109.
        assert!(capacities.len() <= 27, "{capacities:?}");
        assert_eq!((chains.len(), chains.keys()), (1_000, 1));
    }

    #[test]
    fn out_of_order_inserts_land_sorted_and_repeats_find_the_record() {
        let mut chains: Chains<Rec> = Chains::default();
        let order = [50, 10, 40, 20, 30, 60, 5];
        for (n, &us) in order.iter().enumerate() {
            for key in [2, 1] {
                let (inserted, rec) = chains.get_or_insert_with(ov(key, us), || Rec {
                    ts: ts(us),
                    tag: us,
                });
                assert!(inserted);
                assert_eq!(rec.ts, ts(us));
            }
            assert_eq!(chains.len(), 2 * (n + 1));
        }
        let sorted = [5, 10, 20, 30, 40, 50, 60];
        let stamps = |key| {
            chains
                .chain(Key::from_u64(key))
                .iter()
                .map(|r| r.ts)
                .collect::<Vec<_>>()
        };
        assert_eq!(stamps(1), sorted.map(ts));
        assert!(chains.chain(Key::from_u64(9)).is_empty());
        let listed: Vec<ObjectVersion> = chains
            .iter()
            .map(|(k, r)| ObjectVersion::new(k, r.ts))
            .collect();
        let want: Vec<ObjectVersion> = [1, 2]
            .into_iter()
            .flat_map(|key| sorted.map(move |us| ov(key, us)))
            .collect();
        assert_eq!(listed, want);

        // A repeat finds the stored record and does not call `make`.
        for us in sorted {
            let (inserted, rec) = chains.get_or_insert_with(ov(1, us), || unreachable!());
            assert!(!inserted);
            rec.tag += 1000;
            assert_eq!(chains.get(ov(1, us)).map(|r| r.tag), Some(us + 1000));
            assert_eq!(chains.get(ov(2, us)).map(|r| r.tag), Some(us));
        }
        for missing in [ov(1, 0), ov(1, 15), ov(1, 61), ov(3, 10)] {
            assert!(chains.get(missing).is_none());
        }
        if let Some(rec) = chains.get_mut(ov(2, 60)) {
            rec.tag = 7;
        }
        assert_eq!(chains.get(ov(2, 60)).map(|r| r.tag), Some(7));
        assert!(chains.get_mut(ov(2, 61)).is_none());
        assert_eq!(chains.len(), 14);
    }
}
