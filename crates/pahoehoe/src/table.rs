//! A hash-addressed table keyed by [`Key`]: the outer map of every
//! per-key store (the [`Chains`](crate::chain::Chains) of a KLS's metadata
//! and of an FS's live versions and residuals).
//!
//! Every message an FS or a KLS handles names one key, so the table
//! answers a lookup with one probe of a flat array instead of a walk down
//! an ordered tree. It offers insert ([`KeyTable::entry`]), get, get_mut
//! and remove, and one walk, [`KeyTable::sorted_from`], which sorts the
//! keys it visits.
//!
//! # Determinism
//!
//! Keys are hashed with a fixed mix ([`mix64`]), never a per-process
//! seed, so the layout is a function of the inserts and removes made. And
//! no caller can see that layout: the table has no walk in table order,
//! and its one walk sorts. Every output is therefore the same as an
//! ordered map's, which is why the table needs no
//! `lint:allow(hash-collections)` — that rule guards against iteration
//! order randomised per process, and this table shows no iteration order.
//!
//! # Layout
//!
//! Entries sit dense in one vector, in no order a caller may rely on. An
//! open-addressing array of `u32` words (linear probing, at most 7/8 full)
//! names them: a word is 0 when empty, otherwise its low bits hold the
//! entry's index plus one and the bits above them — those the index does
//! not need at the current size — hold the same bits of the key's hash,
//! so a probe that passes another key's word mostly rejects it without
//! reading the entry. At 7/8 load the words cost about 4.6 B per key, 9 B
//! just after a doubling. The table never shrinks.

use crate::types::Key;
use crate::workload::mix64;

/// The word of an empty probe position.
const EMPTY: u32 = 0;

/// The fewest words a table that holds anything has.
const MIN_WORDS: usize = 8;

/// A map from [`Key`] to `V`, hash-addressed, with no walk in table
/// order.
#[derive(Debug)]
pub(crate) struct KeyTable<V> {
    /// The entries, dense, in an order no caller sees.
    entries: Vec<(Key, V)>,
    /// The probe array: empty, or a power of two long, and never more
    /// than 7/8 full, so every probe sequence meets an empty word.
    words: Vec<u32>,
}

impl<V> Default for KeyTable<V> {
    fn default() -> Self {
        KeyTable {
            entries: Vec::new(),
            words: Vec::new(),
        }
    }
}

fn hash(key: Key) -> u64 {
    mix64(key.as_u64())
}

/// The bits of `mask` (`words.len() - 1`) as a word: a word's entry index
/// plus one.
fn index_bits(mask: usize) -> u32 {
    mask as u32
}

/// The tag of hash `h` in a table of mask `mask`: the high half of the
/// hash above the index bits. The home position takes the low bits, so
/// the two are independent.
fn tag(h: u64, mask: usize) -> u32 {
    (h >> 32) as u32 & !index_bits(mask)
}

/// The first empty position of hash `h`'s probe sequence in `words`
/// (a power of two long, with an empty word).
fn vacancy(words: &[u32], h: u64) -> usize {
    let mask = words.len() - 1;
    let mut at = h as usize & mask;
    while words.get(at).is_some_and(|&w| w != EMPTY) {
        at = (at + 1) & mask;
    }
    at
}

/// What [`KeyTable::entry`] found.
pub(crate) enum Entry<'a, V> {
    /// The key's value.
    Occupied(&'a mut V),
    /// The key is absent; inserting it costs no second search.
    Vacant(VacantEntry<'a, V>),
}

/// An absent key and where it goes.
pub(crate) struct VacantEntry<'a, V> {
    table: &'a mut KeyTable<V>,
    key: Key,
    hash: u64,
    /// The empty word the search ended at, if the table has room.
    at: Option<usize>,
}

impl<'a, V> VacantEntry<'a, V> {
    /// Inserts `value` under the entry's key.
    pub(crate) fn insert(self, value: V) -> &'a mut V {
        let VacantEntry {
            table,
            key,
            hash,
            at,
        } = self;
        let at = match at {
            Some(at) => at,
            None => {
                table.grow();
                vacancy(&table.words, hash)
            }
        };
        let i = table.entries.len();
        let mask = table.mask();
        table.words[at] = tag(hash, mask) | (i as u32 + 1);
        table.entries.push((key, value));
        &mut table.entries[i].1
    }
}

impl<V> KeyTable<V> {
    /// Entries in the table.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn mask(&self) -> usize {
        self.words.len().wrapping_sub(1)
    }

    /// Whether one more entry keeps the words at most 7/8 full.
    fn has_room(&self) -> bool {
        (self.entries.len() + 1) * 8 <= self.words.len() * 7
    }

    /// The entry index a nonempty word names.
    fn entry_of(&self, word: u32) -> usize {
        (word & index_bits(self.mask())) as usize - 1
    }

    /// Where `key` (of hash `h`) is: `Ok` its word's position, or `Err`
    /// the empty position its probe sequence ended at. The table must
    /// have words.
    // lint:hot
    fn search(&self, key: Key, h: u64) -> Result<usize, usize> {
        let mask = self.mask();
        let want = tag(h, mask);
        let mut at = h as usize & mask;
        loop {
            let word = self.words[at];
            if word == EMPTY {
                return Err(at);
            }
            if word & !index_bits(mask) == want
                && self.entries.get(self.entry_of(word)).map(|e| e.0) == Some(key)
            {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// The entry index of `key`, if present.
    // lint:hot
    fn find(&self, key: Key) -> Option<usize> {
        if self.words.is_empty() {
            return None;
        }
        let at = self.search(key, hash(key)).ok()?;
        Some(self.entry_of(self.words[at]))
    }

    /// Doubles the words (to [`MIN_WORDS`] from none) and re-places every
    /// entry; the entries get room for the new 7/8 exactly.
    fn grow(&mut self) {
        let len = (self.words.len() * 2).max(MIN_WORDS);
        assert!(len <= 1 << 32, "a key table holds at most 7 × 2^29 keys");
        let mut words = vec![EMPTY; len];
        for (i, &(key, _)) in self.entries.iter().enumerate() {
            let h = hash(key);
            let at = vacancy(&words, h);
            words[at] = tag(h, len - 1) | (i as u32 + 1);
        }
        self.words = words;
        self.entries.reserve_exact(len / 8 * 7 - self.entries.len());
    }

    /// `key`'s value, if present.
    // lint:hot
    pub(crate) fn get(&self, key: Key) -> Option<&V> {
        let i = self.find(key)?;
        self.entries.get(i).map(|e| &e.1)
    }

    /// Mutable variant of [`KeyTable::get`].
    // lint:hot
    pub(crate) fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        let i = self.find(key)?;
        self.entries.get_mut(i).map(|e| &mut e.1)
    }

    /// `key`'s value, or where to insert one: one search either way.
    // lint:hot
    pub(crate) fn entry(&mut self, key: Key) -> Entry<'_, V> {
        let h = hash(key);
        let at = if self.words.is_empty() {
            None
        } else {
            match self.search(key, h) {
                Ok(at) => {
                    let i = self.entry_of(self.words[at]);
                    return Entry::Occupied(&mut self.entries[i].1);
                }
                Err(at) => Some(at).filter(|_| self.has_room()),
            }
        };
        Entry::Vacant(VacantEntry {
            table: self,
            key,
            hash: h,
            at,
        })
    }

    /// Removes `key`, returning its value. The last entry moves into the
    /// hole, and the words behind the removed one shift back so that no
    /// probe sequence is cut (no tombstones).
    pub(crate) fn remove(&mut self, key: Key) -> Option<V> {
        if self.words.is_empty() {
            return None;
        }
        let at = self.search(key, hash(key)).ok()?;
        let i = self.entry_of(self.words[at]);
        self.unlink(at);
        let last = self.entries.len() - 1;
        if i != last {
            let moved = self.entries[last].0;
            if let Ok(w) = self.search(moved, hash(moved)) {
                let mask = index_bits(self.mask());
                self.words[w] = (self.words[w] & !mask) | (i as u32 + 1);
            }
        }
        Some(self.entries.swap_remove(i).1)
    }

    /// Empties the word at `hole`, moving back each later word of its
    /// cluster whose home is at or before the hole (backward-shift
    /// deletion).
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut at = (hole + 1) & mask;
        loop {
            let word = self.words[at];
            if word == EMPTY {
                break;
            }
            let home = hash(self.entries[self.entry_of(word)].0) as usize & mask;
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.words[hole] = word;
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.words[hole] = EMPTY;
    }

    /// The entries whose key is `from` or above, in key order. This is
    /// the table's only walk, and it sorts what it visits, so no caller
    /// depends on where the hash put a key. It costs a sort of the keys
    /// it returns: walks are for listings, scrub and repair reports, not
    /// per-message work.
    pub(crate) fn sorted_from(&self, from: Key) -> Vec<(Key, &V)> {
        let mut out: Vec<(Key, &V)> = self
            .entries
            .iter()
            .filter(|e| e.0 >= from)
            .map(|(key, value)| (*key, value))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Words in the probe array, for tests that watch growth.
    #[cfg(test)]
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One operation of the oracle test.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Get(u64),
        Bump(u64),
        Remove(u64),
        Walk(u64),
    }

    /// Keys `1..=n` as a numbered workload names them, or mixed as a
    /// streamed one does (`mix64(seed ^ rank) | 1`): `numbered` picks.
    fn key_of(numbered: bool, rank: u64) -> Key {
        if numbered {
            Key::from_u64(rank)
        } else {
            Key::from_u64(mix64(7 ^ rank) | 1)
        }
    }

    /// Operation sequences over ranks `1..=ranks`: inserts four in ten,
    /// gets and removes two each, a bump and a walk one each.
    fn ops(ranks: u64) -> impl Strategy<Value = Vec<Op>> {
        let op = (0u8..10, 0..=ranks + 1, any::<u32>()).prop_map(move |(kind, rank, v)| {
            let rank = rank.clamp(1, ranks);
            match kind {
                0..=3 => Op::Insert(rank, v),
                4 | 5 => Op::Get(rank),
                6 => Op::Bump(rank),
                7 | 8 => Op::Remove(rank),
                _ => Op::Walk(u64::from(v) % (ranks + 2)),
            }
        });
        proptest::collection::vec(op, 1..1_200)
    }

    /// Runs `ops` on a table and on a `BTreeMap`, requiring the same
    /// answer to every operation and the same sorted walk after each.
    fn against_oracle(numbered: bool, ops: &[Op]) -> Result<usize, TestCaseError> {
        let mut table: KeyTable<u32> = KeyTable::default();
        let mut oracle: BTreeMap<Key, u32> = BTreeMap::new();
        let mut growths = 0;
        for op in ops {
            let words = table.words();
            match *op {
                Op::Insert(rank, v) => {
                    let key = key_of(numbered, rank);
                    let was = match table.entry(key) {
                        Entry::Occupied(value) => Some(std::mem::replace(value, v)),
                        Entry::Vacant(vacant) => {
                            prop_assert_eq!(*vacant.insert(v), v);
                            None
                        }
                    };
                    prop_assert_eq!(was, oracle.insert(key, v), "insert {:?}", key);
                }
                Op::Get(rank) => {
                    let key = key_of(numbered, rank);
                    prop_assert_eq!(table.get(key), oracle.get(&key), "get {:?}", key);
                }
                Op::Bump(rank) => {
                    let key = key_of(numbered, rank);
                    if let Some(v) = table.get_mut(key) {
                        *v = v.wrapping_add(1);
                    }
                    if let Some(v) = oracle.get_mut(&key) {
                        *v = v.wrapping_add(1);
                    }
                }
                Op::Remove(rank) => {
                    let key = key_of(numbered, rank);
                    prop_assert_eq!(table.remove(key), oracle.remove(&key), "remove {:?}", key);
                }
                Op::Walk(rank) => {
                    let from = key_of(numbered, rank);
                    let want: Vec<(Key, &u32)> =
                        oracle.range(from..).map(|(&k, v)| (k, v)).collect();
                    prop_assert_eq!(table.sorted_from(from), want);
                }
            }
            growths += usize::from(table.words() != words);
            prop_assert_eq!(table.len(), oracle.len());
            prop_assert!(table.len() * 8 <= table.words() * 7);
        }
        let all: Vec<(Key, &u32)> = oracle.iter().map(|(&k, v)| (k, v)).collect();
        prop_assert_eq!(table.sorted_from(Key::from_u64(0)), all);
        for (&key, v) in &oracle {
            prop_assert_eq!(table.get(key), Some(v));
        }
        Ok(growths)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The table answers insert, get, get_mut, remove and the sorted
        /// walk exactly as an ordered map does, for numbered and mixed
        /// keys, through several doublings and removals that shift
        /// clusters back.
        #[test]
        fn table_matches_an_ordered_map(numbered in any::<bool>(), ops in ops(300)) {
            let growths = against_oracle(numbered, &ops)?;
            prop_assert!(ops.len() < 200 || growths >= 3, "{} growths", growths);
        }
    }

    /// Many keys whose hashes share their low bits still land, and
    /// removing every other one keeps the rest reachable.
    #[test]
    fn crowded_homes_stay_reachable() {
        let mut table: KeyTable<u64> = KeyTable::default();
        let keys: Vec<Key> = (0..20_000u64)
            .map(Key::from_u64)
            .filter(|&k| hash(k) & 0xf == 3)
            .collect();
        assert!(keys.len() > 1_000);
        for (i, &key) in keys.iter().enumerate() {
            if let Entry::Vacant(vacant) = table.entry(key) {
                vacant.insert(i as u64);
            }
        }
        for (i, &key) in keys.iter().enumerate().step_by(2) {
            assert_eq!(table.remove(key), Some(i as u64));
        }
        for (i, &key) in keys.iter().enumerate() {
            let want = (i % 2 == 1).then_some(i as u64);
            assert_eq!(table.get(key).copied(), want, "{key:?}");
        }
        assert_eq!(table.len(), keys.len() / 2);
    }
}
