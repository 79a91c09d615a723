// Fixture: a keyed cache lookup and a column scan declared hot, with the
// allocating regressions the lint must catch.

struct CachedStripe {
    value: Vec<u8>,
    fragments: Vec<Vec<u8>>,
}

struct StripeCache {
    entries: Vec<(u64, CachedStripe)>,
}

impl StripeCache {
    // lint:hot
    fn lookup_regressed(&self, key: u64) -> Option<Vec<u8>> {
        // Regression: returning an owned copy of the cached value
        // allocates on every put, delta or not.
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, s)| s.value.to_vec())
    }

    // lint:hot
    fn lookup_clean(&self, key: u64) -> Option<&CachedStripe> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, s)| s)
    }

    // lint:hot
    fn delta_window_regressed(&self, key: u64, new: &[u8]) -> usize {
        // Regression: staging the dirty-window diff in a fresh buffer
        // turns the in-place column scan into a per-put allocation.
        let mut dirty = Vec::new();
        if let Some((_, s)) = self.entries.iter().find(|(k, _)| *k == key) {
            for (i, (a, b)) in s.value.iter().zip(new).enumerate() {
                if a != b {
                    dirty.push(i);
                }
            }
        }
        dirty.len()
    }

    // lint:hot
    fn delta_window_clean(&self, key: u64, new: &[u8]) -> usize {
        match self.entries.iter().find(|(k, _)| *k == key) {
            Some((_, s)) => s.value.iter().zip(new).filter(|(a, b)| a != b).count(),
            None => 0,
        }
    }
}
