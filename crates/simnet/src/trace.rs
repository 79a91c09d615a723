//! Optional event tracing.
//!
//! When enabled on a [`Simulation`](crate::Simulation), every message
//! send is recorded as a [`TraceEvent`] — what was sent, by whom, to
//! whom, when, how big, and whether the loss model delivered or dropped
//! it. Traces make protocol debugging tractable ("which converge probe
//! woke that FS up?") and enable offline analyses that aggregate counters
//! cannot answer, like per-link traffic matrices.
//!
//! Tracing is off by default: big experiments send millions of messages
//! and the paper's metrics only need the counters.

use crate::node::NodeId;
use crate::time::SimTime;

/// What happened to a sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Scheduled for delivery.
    Delivered,
    /// Dropped by the random-loss model.
    DroppedRandom,
    /// Dropped by a scheduled fault (node or link outage).
    DroppedFault,
}

/// One recorded message send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the message was sent.
    pub at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message kind label (as reported to the metrics).
    pub kind: &'static str,
    /// Modeled wire size.
    pub bytes: usize,
    /// Delivery outcome.
    pub disposition: Disposition,
}

/// An in-memory trace of message sends.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Records one send.
    pub fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All recorded events in send order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Total bytes sent between two (unordered) endpoints — e.g. to
    /// measure cross-WAN traffic between two data-center node groups.
    pub fn bytes_between(&self, a: &[NodeId], b: &[NodeId]) -> u64 {
        self.events
            .iter()
            .filter(|e| {
                (a.contains(&e.from) && b.contains(&e.to))
                    || (b.contains(&e.from) && a.contains(&e.to))
            })
            .map(|e| e.bytes as u64)
            .sum()
    }

    /// Renders the trace as one line per event (for dumping to a file).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{} {} -> {} {} {}B {:?}\n",
                e.at, e.from, e.to, e.kind, e.bytes, e.disposition
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, from: u32, to: u32, kind: &'static str, bytes: usize) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(at_us),
            from: NodeId::new(from),
            to: NodeId::new(to),
            kind,
            bytes,
            disposition: Disposition::Delivered,
        }
    }

    #[test]
    fn record_and_query() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.record(ev(1, 0, 1, "A", 10));
        t.record(ev(2, 1, 0, "B", 20));
        t.record(ev(3, 0, 2, "A", 30));
        assert_eq!(t.len(), 3);
        assert_eq!(t.of_kind("A").count(), 2);
    }

    #[test]
    fn bytes_between_groups_is_symmetric() {
        let mut t = Trace::new();
        t.record(ev(1, 0, 2, "A", 100));
        t.record(ev(2, 2, 0, "B", 50));
        t.record(ev(3, 0, 1, "C", 999)); // intra-group: excluded
        let g1 = [NodeId::new(0), NodeId::new(1)];
        let g2 = [NodeId::new(2)];
        assert_eq!(t.bytes_between(&g1, &g2), 150);
        assert_eq!(t.bytes_between(&g2, &g1), 150);
    }

    #[test]
    fn render_is_line_per_event() {
        let mut t = Trace::new();
        t.record(ev(1_000_000, 0, 1, "Ping", 64));
        let s = t.render();
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("Ping"), "{s}");
        assert!(s.contains("64B"), "{s}");
    }
}
