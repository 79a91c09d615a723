//! Per-message-kind traffic accounting.
//!
//! The paper's evaluation criteria (§5.1): "the message bytes sent and the
//! number of messages sent to reach AMR, including all activity from the
//! proxy's put and all convergence activity". Messages are counted at
//! **send** time — a dropped message was still sent and still cost network
//! capacity, which is what the lossy-network experiment measures.
//!
//! Counters are dense arrays indexed by the payload's compile-time kind
//! registry ([`Payload::KINDS`]): `record_send` is
//! a branch-free array index instead of the `BTreeMap` lookup it
//! replaced. Reports still render in sorted label order via [`iter`]
//! (which also skips never-sent kinds, so aggregated tables list only
//! traffic that exists).
//!
//! [`iter`]: Metrics::iter

use crate::payload::Payload;

/// Count and byte totals for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Number of messages of this kind sent.
    pub count: u64,
    /// Total modeled wire bytes of this kind sent.
    pub bytes: u64,
}

/// In-flight losses for one message kind, split by cause so convergence
/// cost tables can attribute lost bytes to injected faults vs. the
/// channel's random loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Messages dropped by an injected fault (outage, partition).
    pub fault_count: u64,
    /// Wire bytes of fault-dropped messages.
    pub fault_bytes: u64,
    /// Messages dropped by the channel's random loss rate.
    pub random_count: u64,
    /// Wire bytes of randomly dropped messages.
    pub random_bytes: u64,
}

impl DropStats {
    /// Dropped messages of this kind, both causes.
    pub fn count(&self) -> u64 {
        self.fault_count + self.random_count
    }

    /// Dropped wire bytes of this kind, both causes.
    pub fn bytes(&self) -> u64 {
        self.fault_bytes + self.random_bytes
    }
}

/// Traffic totals broken down by message kind.
///
/// Backed by dense arrays laid out by a payload type's kind registry;
/// recording is O(1) array indexing, reporting sorts labels on demand.
#[derive(Clone, Default)]
pub struct Metrics {
    registry: &'static [&'static str],
    sends: Vec<KindStats>,
    drops: Vec<DropStats>,
    duplicated: u64,
    event_registry: &'static [&'static str],
    events: Vec<u64>,
}

impl std::fmt::Debug for Metrics {
    /// Replay digests are `format!("{:?}")` of this struct, so it prints
    /// exactly these four fields: the event counters stay out of digests.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("registry", &self.registry)
            .field("sends", &self.sends)
            .field("drops", &self.drops)
            .field("duplicated", &self.duplicated)
            .finish()
    }
}

impl Metrics {
    /// Creates empty metrics with an empty kind registry. Recording into
    /// it panics; it exists as a neutral element for [`merge`](Self::merge)
    /// and as the `Default`.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Creates metrics laid out for `registry` (one slot per kind), with
    /// no event counters.
    pub fn with_registry(registry: &'static [&'static str]) -> Self {
        Metrics::with_registries(registry, &[])
    }

    /// Creates metrics laid out for `registry` (one slot per kind) and
    /// `event_registry` (one slot per protocol event counter).
    pub fn with_registries(
        registry: &'static [&'static str],
        event_registry: &'static [&'static str],
    ) -> Self {
        Metrics {
            registry,
            sends: vec![KindStats::default(); registry.len()],
            drops: vec![DropStats::default(); registry.len()],
            duplicated: 0,
            event_registry,
            events: vec![0; event_registry.len()],
        }
    }

    /// Creates metrics laid out for message type `M`'s kind and event
    /// registries.
    pub fn for_payload<M: Payload>() -> Self {
        Metrics::with_registries(M::KINDS, M::EVENTS)
    }

    /// The kind registry this metrics object is laid out for.
    pub fn registry(&self) -> &'static [&'static str] {
        self.registry
    }

    /// Records that one message of kind `kind_id` with `bytes` wire bytes
    /// was sent.
    ///
    /// # Panics
    ///
    /// Panics if `kind_id` is out of range for the registry.
    // lint:hot
    pub fn record_send(&mut self, kind_id: usize, bytes: usize) {
        let e = &mut self.sends[kind_id];
        e.count += 1;
        e.bytes += bytes as u64;
    }

    /// Records that a sent message of kind `kind_id` was dropped in
    /// flight — by an injected fault if `fault`, by random channel loss
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `kind_id` is out of range for the registry.
    // lint:hot
    pub fn record_drop(&mut self, kind_id: usize, bytes: usize, fault: bool) {
        let e = &mut self.drops[kind_id];
        if fault {
            e.fault_count += 1;
            e.fault_bytes += bytes as u64;
        } else {
            e.random_count += 1;
            e.random_bytes += bytes as u64;
        }
    }

    /// Records that a delivered message was duplicated by the channel.
    pub fn record_duplicate(&mut self) {
        self.duplicated += 1;
    }

    /// Adds `amount` to the protocol event counter `event_id` (an index
    /// into the payload's event registry). Events count protocol-level
    /// happenings, not messages: they never contribute to
    /// [`total_count`](Self::total_count)/[`total_bytes`](Self::total_bytes)
    /// or to replay digests.
    ///
    /// # Panics
    ///
    /// Panics if `event_id` is out of range for the event registry.
    // lint:hot
    pub fn record_event(&mut self, event_id: usize, amount: u64) {
        self.events[event_id] += amount;
    }

    /// The event-counter registry this metrics object is laid out for.
    pub fn event_registry(&self) -> &'static [&'static str] {
        self.event_registry
    }

    /// The value of event counter `event` (zero if never recorded or
    /// unregistered).
    pub fn event(&self, event: &str) -> u64 {
        self.event_registry
            .iter()
            .position(|&e| e == event)
            .map(|i| self.events[i])
            .unwrap_or(0)
    }

    /// Iterates over `(event, total)` of every event counter with a
    /// nonzero total, in lexicographic event order.
    pub fn iter_events(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut seen: Vec<(&'static str, u64)> = self
            .event_registry
            .iter()
            .zip(&self.events)
            .filter(|(_, &v)| v > 0)
            .map(|(&e, &v)| (e, v))
            .collect();
        seen.sort_unstable_by_key(|&(e, _)| e);
        seen.into_iter()
    }

    fn index_of(&self, kind: &str) -> Option<usize> {
        self.registry.iter().position(|&k| k == kind)
    }

    /// Send stats for a single kind (zero if never seen or unregistered).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.index_of(kind)
            .map(|i| self.sends[i])
            .unwrap_or_default()
    }

    /// Drop stats for a single kind (zero if never seen or unregistered).
    pub fn drops_for(&self, kind: &str) -> DropStats {
        self.index_of(kind)
            .map(|i| self.drops[i])
            .unwrap_or_default()
    }

    /// Iterates over `(kind, stats)` of every kind with at least one send,
    /// in lexicographic kind order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        let mut seen: Vec<(&'static str, KindStats)> = self
            .registry
            .iter()
            .zip(&self.sends)
            .filter(|(_, s)| s.count > 0)
            .map(|(&k, &s)| (k, s))
            .collect();
        seen.sort_unstable_by_key(|&(k, _)| k);
        seen.into_iter()
    }

    /// Iterates over `(kind, drops)` of every kind with at least one drop,
    /// in lexicographic kind order.
    pub fn iter_drops(&self) -> impl Iterator<Item = (&'static str, DropStats)> + '_ {
        let mut seen: Vec<(&'static str, DropStats)> = self
            .registry
            .iter()
            .zip(&self.drops)
            .filter(|(_, d)| d.count() > 0)
            .map(|(&k, &d)| (k, d))
            .collect();
        seen.sort_unstable_by_key(|&(k, _)| k);
        seen.into_iter()
    }

    /// Total messages sent across all kinds.
    pub fn total_count(&self) -> u64 {
        self.sends.iter().map(|s| s.count).sum()
    }

    /// Total bytes sent across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.sends.iter().map(|s| s.bytes).sum()
    }

    /// Number of sent messages that were dropped in flight (both causes).
    pub fn dropped(&self) -> u64 {
        self.drops.iter().map(DropStats::count).sum()
    }

    /// Number of messages the channel duplicated.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Merges another metrics object into this one (used when aggregating
    /// trials). An empty-registry accumulator adopts the other's layout.
    ///
    /// # Panics
    ///
    /// Panics if both sides carry different (non-empty) registries: their
    /// dense arrays would not be commensurable.
    pub fn merge(&mut self, other: &Metrics) {
        if self.registry.is_empty() {
            self.registry = other.registry;
            self.sends = vec![KindStats::default(); other.registry.len()];
            self.drops = vec![DropStats::default(); other.registry.len()];
        }
        if self.event_registry.is_empty() {
            self.event_registry = other.event_registry;
            self.events = vec![0; other.event_registry.len()];
        }
        assert_eq!(
            self.registry, other.registry,
            "cannot merge metrics from different kind registries"
        );
        assert_eq!(
            self.event_registry, other.event_registry,
            "cannot merge metrics from different event registries"
        );
        for (a, b) in self.sends.iter_mut().zip(&other.sends) {
            a.count += b.count;
            a.bytes += b.bytes;
        }
        for (a, b) in self.drops.iter_mut().zip(&other.drops) {
            a.fault_count += b.fault_count;
            a.fault_bytes += b.fault_bytes;
            a.random_count += b.random_count;
            a.random_bytes += b.random_bytes;
        }
        self.duplicated += other.duplicated;
        for (a, b) in self.events.iter_mut().zip(&other.events) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: &[&str] = &["Zed", "Alpha", "Mid"];

    #[test]
    fn record_and_query() {
        let mut m = Metrics::with_registry(KINDS);
        m.record_send(1, 10);
        m.record_send(1, 20);
        m.record_send(2, 5);
        assert_eq!(
            m.kind("Alpha"),
            KindStats {
                count: 2,
                bytes: 30
            }
        );
        assert_eq!(m.kind("Mid"), KindStats { count: 1, bytes: 5 });
        assert_eq!(m.kind("Zed"), KindStats::default());
        assert_eq!(m.kind("NoSuchKind"), KindStats::default());
        assert_eq!(m.total_count(), 3);
        assert_eq!(m.total_bytes(), 35);
    }

    #[test]
    fn drops_tracked_separately_from_sends_and_split_by_cause() {
        let mut m = Metrics::with_registry(KINDS);
        m.record_send(0, 10);
        m.record_drop(0, 10, false);
        m.record_send(0, 7);
        m.record_drop(0, 7, true);
        assert_eq!(m.total_count(), 2, "dropped messages still count as sent");
        assert_eq!(m.dropped(), 2);
        let d = m.drops_for("Zed");
        assert_eq!(
            d,
            DropStats {
                fault_count: 1,
                fault_bytes: 7,
                random_count: 1,
                random_bytes: 10,
            }
        );
        assert_eq!(d.count(), 2);
        assert_eq!(d.bytes(), 17);
        assert_eq!(m.drops_for("Alpha"), DropStats::default());
    }

    #[test]
    fn iteration_is_sorted_and_skips_unsent_kinds() {
        let mut m = Metrics::with_registry(KINDS);
        m.record_send(0, 1);
        m.record_send(1, 1);
        let kinds: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, ["Alpha", "Zed"], "sorted; never-sent Mid omitted");
        m.record_drop(2, 4, true);
        let dropped: Vec<&str> = m.iter_drops().map(|(k, _)| k).collect();
        assert_eq!(dropped, ["Mid"]);
    }

    #[test]
    fn merge_accumulates_and_adopts_registry() {
        let mut a = Metrics::new();
        let mut b = Metrics::with_registry(KINDS);
        b.record_send(0, 1);
        b.record_drop(0, 1, false);
        b.record_duplicate();
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.kind("Zed"), KindStats { count: 2, bytes: 2 });
        assert_eq!(a.dropped(), 2);
        assert_eq!(a.duplicated(), 2);
        assert_eq!(a.registry(), KINDS);
    }

    const EVENTS: &[&str] = &["zeta_event", "alpha_event"];

    #[test]
    fn events_accumulate_and_stay_out_of_traffic_totals() {
        let mut m = Metrics::with_registries(KINDS, EVENTS);
        m.record_event(0, 3);
        m.record_event(0, 2);
        m.record_event(1, 40);
        assert_eq!(m.event("zeta_event"), 5);
        assert_eq!(m.event("alpha_event"), 40);
        assert_eq!(m.event("no_such_event"), 0);
        assert_eq!(m.total_count(), 0, "events are not messages");
        assert_eq!(m.total_bytes(), 0);
        let listed: Vec<_> = m.iter_events().collect();
        assert_eq!(listed, [("alpha_event", 40), ("zeta_event", 5)]);
        let dbg = format!("{m:?}");
        assert!(
            !dbg.contains("event"),
            "events are excluded from replay digests: {dbg}"
        );

        let mut acc = Metrics::new();
        acc.merge(&m);
        acc.merge(&m);
        assert_eq!(acc.event("zeta_event"), 10);
        assert_eq!(acc.event_registry(), EVENTS);
    }

    #[test]
    #[should_panic(expected = "different kind registries")]
    fn merge_rejects_mismatched_registries() {
        let mut a = Metrics::with_registry(&["A"]);
        let b = Metrics::with_registry(&["B"]);
        a.merge(&b);
    }
}
