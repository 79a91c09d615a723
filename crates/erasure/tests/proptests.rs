//! Property-based tests for the erasure codec and its field arithmetic.

use erasure::{gf, Codec, Fragment};
use proptest::prelude::*;

proptest! {
    // ---- field axioms ----

    #[test]
    fn gf_addition_is_commutative_associative(a: u8, b: u8, c: u8) {
        prop_assert_eq!(gf::add(a, b), gf::add(b, a));
        prop_assert_eq!(gf::add(gf::add(a, b), c), gf::add(a, gf::add(b, c)));
        prop_assert_eq!(gf::add(a, 0), a);
        prop_assert_eq!(gf::add(a, a), 0, "every element is its own negative");
    }

    #[test]
    fn gf_multiplication_is_commutative_associative(a: u8, b: u8, c: u8) {
        prop_assert_eq!(gf::mul(a, b), gf::mul(b, a));
        prop_assert_eq!(gf::mul(gf::mul(a, b), c), gf::mul(a, gf::mul(b, c)));
        prop_assert_eq!(gf::mul(a, 1), a);
        prop_assert_eq!(gf::mul(a, 0), 0);
    }

    #[test]
    fn gf_distributivity(a: u8, b: u8, c: u8) {
        prop_assert_eq!(
            gf::mul(a, gf::add(b, c)),
            gf::add(gf::mul(a, b), gf::mul(a, c))
        );
    }

    #[test]
    fn gf_division_inverts_multiplication(a: u8, b in 1u8..=255) {
        prop_assert_eq!(gf::div(gf::mul(a, b), b), a);
        prop_assert_eq!(gf::mul(gf::div(a, b), b), a);
    }

    // ---- codec properties ----

    #[test]
    fn decode_inverts_encode_for_any_k_subset(
        value in proptest::collection::vec(any::<u8>(), 0..4096),
        (k, n) in (1usize..=6).prop_flat_map(|k| (Just(k), k..=12)),
        seed: u64,
    ) {
        let codec = Codec::new(k, n).unwrap();
        let frags = codec.encode(&value);
        prop_assert_eq!(frags.len(), n);

        // Choose a pseudo-random k-subset from the seed.
        let mut indices: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            indices.swap(i, j);
        }
        let subset: Vec<Fragment> =
            indices[..k].iter().map(|&i| frags[i].clone()).collect();

        let decoded = codec.decode(&subset, value.len()).unwrap();
        prop_assert_eq!(decoded, value);
    }

    #[test]
    fn recovered_fragments_match_originals(
        value in proptest::collection::vec(any::<u8>(), 1..2048),
        missing_mask in 0u16..(1 << 12),
    ) {
        let codec = Codec::new(4, 12).unwrap();
        let frags = codec.encode(&value);

        let missing: Vec<u8> =
            (0..12).filter(|i| missing_mask & (1 << i) != 0).collect();
        let survivors: Vec<Fragment> = (0..12u8)
            .filter(|i| !missing.contains(i))
            .map(|i| frags[i as usize].clone())
            .collect();
        // Need at least k survivors for recovery to be possible.
        prop_assume!(survivors.len() >= 4);

        let recovered =
            codec.recover(&survivors, &missing, value.len()).unwrap();
        for r in &recovered {
            prop_assert_eq!(r, &frags[r.index() as usize]);
        }
    }

    // ---- table-driven arithmetic vs the log/exp reference ----

    #[test]
    fn table_mul_matches_logexp_reference(a: u8, b: u8) {
        prop_assert_eq!(gf::mul(a, b), gf::mul_logexp(a, b));
        prop_assert_eq!(gf::mul_row(a)[b as usize], gf::mul_logexp(a, b));
    }

    #[test]
    fn table_mul_acc_matches_logexp_reference(
        src in proptest::collection::vec(any::<u8>(), 0..512),
        init in proptest::collection::vec(any::<u8>(), 0..512),
        scalar: u8,
    ) {
        // Trim to a common length so the slices line up.
        let len = src.len().min(init.len());
        let src = &src[..len];
        let mut fast = init[..len].to_vec();
        let mut slow = init[..len].to_vec();
        gf::mul_acc(&mut fast, src, scalar);
        gf::mul_acc_ref(&mut slow, src, scalar);
        prop_assert_eq!(fast, slow);
    }

    // ---- inversion cache transparency ----

    #[test]
    fn warm_cache_decode_matches_cold_decode(
        value in proptest::collection::vec(any::<u8>(), 0..2048),
        subset_seed: u64,
        rounds in 1usize..4,
    ) {
        let warm = Codec::new(4, 12).unwrap();
        let frags = warm.encode(&value);

        let mut state = subset_seed | 1;
        for _ in 0..rounds {
            // A pseudo-random k-subset per round; repeats across rounds
            // exercise cache hits.
            let mut indices: Vec<usize> = (0..12).collect();
            for i in (1..12).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                indices.swap(i, j);
            }
            let subset: Vec<Fragment> =
                indices[..4].iter().map(|&i| frags[i].clone()).collect();

            // A fresh codec per decode never hits its cache.
            let cold = Codec::new(4, 12).unwrap();
            prop_assert_eq!(
                warm.decode(&subset, value.len()).unwrap(),
                cold.decode(&subset, value.len()).unwrap()
            );
        }
    }

    #[test]
    fn warm_cache_recover_matches_cold_recover(
        value in proptest::collection::vec(any::<u8>(), 1..2048),
        missing_mask in 0u16..(1 << 12),
    ) {
        let warm = Codec::new(4, 12).unwrap();
        let frags = warm.encode(&value);
        let missing: Vec<u8> =
            (0..12).filter(|i| missing_mask & (1 << i) != 0).collect();
        let survivors: Vec<Fragment> = (0..12u8)
            .filter(|i| !missing.contains(i))
            .map(|i| frags[i as usize].clone())
            .collect();
        prop_assume!(survivors.len() >= 4);

        // Recover twice on the warm codec (second pass is all cache hits)
        // and once on a cold codec; all three must agree byte-for-byte.
        let first = warm.recover(&survivors, &missing, value.len()).unwrap();
        let second = warm.recover(&survivors, &missing, value.len()).unwrap();
        let cold = Codec::new(4, 12).unwrap()
            .recover(&survivors, &missing, value.len()).unwrap();
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &cold);
    }

    // ---- `_into` variants agree with the allocating APIs ----

    #[test]
    fn into_variants_match_allocating_apis(
        value in proptest::collection::vec(any::<u8>(), 0..2048),
        reuse in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let codec = Codec::new(4, 12).unwrap();
        let frags = codec.encode(&value);

        let mut frag_scratch = Vec::new();
        codec.encode_into(&value, &mut frag_scratch);
        prop_assert_eq!(&frag_scratch, &frags);

        // Dirty, arbitrarily sized scratch must not leak into the output.
        let mut out = reuse;
        codec.decode_into(&frags[4..8], value.len(), &mut out).unwrap();
        prop_assert_eq!(&out, &value);
    }

    #[test]
    fn fragment_sizes_are_uniform_and_minimal(
        len in 0usize..100_000,
        k in 1usize..=8,
    ) {
        let codec = Codec::new(k, k + 4).unwrap();
        let value = vec![0xA5u8; len];
        let frags = codec.encode(&value);
        let flen = codec.fragment_len(len);
        prop_assert!(frags.iter().all(|f| f.len() == flen));
        // Minimality: k fragments hold at least the value, less than value+k.
        prop_assert!(k * flen >= len);
        prop_assert!(k * flen < len + k);
    }
}
