//! Property-based tests for Pahoehoe's core data structures.

use pahoehoe::metadata::{Location, Metadata};
use pahoehoe::policy::Policy;
use pahoehoe::topology::DataCenterId;
use pahoehoe::types::{Key, ObjectVersion, Timestamp};
use proptest::prelude::*;
use simnet::{NodeId, SimTime};
use std::sync::Arc;

/// Strategy: a valid per-DC location list for the default policy (6
/// locations over 3 FSs x 2 disks, FS ids derived from a base).
fn dc_locations(base: u32) -> Vec<Location> {
    (0..6u8)
        .map(|i| Location {
            fs: NodeId::new(base + u32::from(i % 3)),
            disk: i / 3,
        })
        .collect()
}

/// Strategy: partial metadata — a subset of the two DCs decided.
fn partial_meta(mask: u8) -> Metadata {
    let mut m = Metadata::new(Policy::paper_default(), DataCenterId::new(0), 1234);
    if mask & 1 != 0 {
        m.add_dc_locations(DataCenterId::new(0), dc_locations(10));
    }
    if mask & 2 != 0 {
        m.add_dc_locations(DataCenterId::new(1), dc_locations(20));
    }
    m
}

/// One snapshot of a 4-DC `(4, 16)` version as some server might hold or
/// send it: the DCs in `dcs` decided (home DC2, so slots and DC ids
/// differ), optionally a placeholder value length. Every snapshot of the
/// version agrees wherever it has a value.
fn snapshot(dcs: u8, flags: u8) -> Metadata {
    let value_len = if flags & 1 != 0 { 0 } else { 4321 };
    let mut m = Metadata::new(Policy::new(4, 16, 4, 1), DataCenterId::new(2), value_len);
    for dc in (0..4u8).filter(|dc| dcs & (1 << dc) != 0) {
        let locs = (0..4)
            .map(|i| Location {
                fs: NodeId::new(10 * u32::from(dc) + i),
                disk: 0,
            })
            .collect();
        m.add_dc_locations(DataCenterId::new(dc), locs);
    }
    m
}

proptest! {
    /// `merge_shared` on handles is `merge` on owned records — same
    /// result, same `changed` — however the decision waves are ordered
    /// or duplicated, and it adopts `src`'s allocation (instead of
    /// copying) whenever `src` knows everything `dst` does.
    #[test]
    fn merge_shared_matches_owned_merge_and_adopts_supersets(
        first in (0u8..16, 0u8..2),
        waves in proptest::collection::vec((0u8..16, 0u8..2), 1..12),
    ) {
        let mut owned = snapshot(first.0, first.1);
        let mut handle = Arc::new(owned.clone());
        for (dcs, flags) in waves {
            let src = Arc::new(snapshot(dcs, flags));
            // A second handle on `dst`, as the other servers hold one.
            let before = Arc::clone(&handle);
            let before_value = owned.clone();
            let src_covers_dst = !src.would_learn_from(&before);

            let changed = Metadata::merge_shared(&mut handle, &src);
            prop_assert_eq!(changed, owned.merge(&src));
            prop_assert_eq!(&*handle, &owned);
            prop_assert_eq!(changed, !Arc::ptr_eq(&handle, &before));
            if src_covers_dst {
                prop_assert_eq!(&*handle, &*src);
                prop_assert_eq!(changed, Arc::ptr_eq(&handle, &src));
            }
            prop_assert_eq!(&*before, &before_value, "the aliased handle is untouched");
        }
    }

    /// Metadata merging is a join: commutative, associative, idempotent.
    /// (First-writer-wins per DC is conflict-free here because every
    /// server derives identical per-DC decisions.)
    #[test]
    fn metadata_merge_is_a_semilattice(a in 0u8..4, b in 0u8..4, c in 0u8..4) {
        let (ma, mb, mc) = (partial_meta(a), partial_meta(b), partial_meta(c));

        // Commutative.
        let mut ab = ma.clone();
        ab.merge(&mb);
        let mut ba = mb.clone();
        ba.merge(&ma);
        prop_assert_eq!(&ab, &ba);

        // Associative.
        let mut ab_c = ab.clone();
        ab_c.merge(&mc);
        let mut bc = mb.clone();
        bc.merge(&mc);
        let mut a_bc = ma.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Idempotent.
        let mut aa = ma.clone();
        prop_assert!(!aa.merge(&ma) || a == 0, "self-merge learns nothing");
        prop_assert_eq!(&aa, &ma);
    }

    /// Fragment assignments partition the code word: each decided DC
    /// covers its slot's contiguous index range exactly once.
    #[test]
    fn assignments_partition_the_code_word(mask in 1u8..4) {
        let m = partial_meta(mask);
        let mut indices: Vec<u8> =
            m.assignments().map(|(idx, _)| idx).collect();
        indices.sort_unstable();
        indices.dedup();
        prop_assert_eq!(indices.len(), m.location_count(), "no duplicates");
        for (idx, loc) in m.assignments() {
            // Index maps back to the DC hosting it.
            let dc = m.dc_of_fragment(idx);
            prop_assert!(
                m.dc_locations(dc).expect("decided").contains(&loc)
            );
        }
    }

    /// Timestamp ordering is total and consistent with (clock, proxy).
    #[test]
    fn timestamp_order_is_lexicographic(
        c1 in 0u64..1000, p1 in 0u32..8,
        c2 in 0u64..1000, p2 in 0u32..8,
    ) {
        let t1 = Timestamp::new(SimTime::from_micros(c1), p1);
        let t2 = Timestamp::new(SimTime::from_micros(c2), p2);
        let expected = (c1, p1).cmp(&(c2, p2));
        prop_assert_eq!(t1.cmp(&t2), expected);
        prop_assert_eq!(t1 == t2, c1 == c2 && p1 == p2);
    }

    /// Key fingerprints never collide across distinct small names (a
    /// sanity bound, not a cryptographic claim).
    #[test]
    fn key_fingerprints_distinguish_names(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assume!(a != b);
        prop_assert_ne!(
            Key::from_name(a.as_bytes()),
            Key::from_name(b.as_bytes())
        );
    }

    /// `fragments_of` and `sibling_fss` agree with `assignments`.
    #[test]
    fn per_fs_views_are_consistent(mask in 0u8..4) {
        let m = partial_meta(mask);
        let siblings = m.sibling_fss();
        let mut total = 0;
        for fs in &siblings {
            let frags = m.fragments_of(*fs);
            prop_assert!(!frags.is_empty(), "siblings host fragments");
            total += frags.len();
        }
        prop_assert_eq!(total, m.location_count());
        // Non-siblings host nothing.
        prop_assert!(m.fragments_of(NodeId::new(999)).is_empty());
    }

    /// Object versions inherit ordering from (key, timestamp).
    #[test]
    fn object_version_ordering(k1 in 0u64..4, c1 in 0u64..4, k2 in 0u64..4, c2 in 0u64..4) {
        let a = ObjectVersion::new(
            Key::from_u64(k1),
            Timestamp::new(SimTime::from_micros(c1), 0),
        );
        let b = ObjectVersion::new(
            Key::from_u64(k2),
            Timestamp::new(SimTime::from_micros(c2), 0),
        );
        if k1 == k2 {
            prop_assert_eq!(a.ts < b.ts, c1 < c2);
            prop_assert_eq!(a < b, c1 < c2);
        }
    }
}
