// Fixture: the simulation core's declared hot paths — the event queue's
// pop (a heap of keys over an event pool) and the per-send metrics
// update — with the allocating regressions the lint must catch if they
// ever creep back in.

struct EventQueue {
    pool: Vec<Vec<u64>>,
    top: usize,
}

impl EventQueue {
    // lint:hot
    fn pop_regressed(&mut self) -> Option<u64> {
        // Regression: taking the event by copying its pool entry out
        // allocates on every dispatch.
        let taken = self.pool[self.top].to_vec();
        self.pool[self.top].clear();
        taken.first().copied()
    }

    // lint:hot
    fn pop_clean(&mut self) -> Option<u64> {
        let entry = &mut self.pool[self.top];
        entry.pop()
    }
}

struct Metrics {
    counts: Vec<u64>,
}

impl Metrics {
    // lint:hot
    fn record_send_regressed(&mut self, kind_id: usize, label: &[u8]) {
        // Regression: building a per-call key buffer turns the O(1)
        // array bump back into an allocating map-style update.
        let mut key = Vec::new();
        key.extend_from_slice(label);
        self.counts[kind_id % key.len().max(1)] += 1;
    }

    // lint:hot
    fn record_send_clean(&mut self, kind_id: usize) {
        self.counts[kind_id] += 1;
    }
}
