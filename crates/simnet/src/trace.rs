//! What one message send looks like to an observer.
//!
//! Every send is shown to each installed [`Observer`](crate::Observer) as a
//! [`TraceEvent`]: what was sent, by whom, to whom, when, how big, and
//! whether the loss model delivered or dropped it. An observer keeps what
//! it needs — a count, the first few sends, or (`Vec<TraceEvent>`) all of
//! them — which makes protocol debugging tractable ("which converge probe
//! woke that FS up?") and answers what aggregate counters cannot, like
//! per-link traffic.
//!
//! Nothing is recorded unless an observer is installed: big experiments
//! send millions of messages and the paper's metrics only need the
//! counters.

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

/// One message send, as an observer sees it.
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

/// One line: time, endpoints, kind, wire size and disposition.
impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} -> {} {} {}B {:?}",
            self.at, self.from, self.to, self.kind, self.bytes, self.disposition
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_send_displays_as_one_dump_line() {
        let e = TraceEvent {
            at: SimTime::from_micros(1_500),
            from: NodeId::new(3),
            to: NodeId::new(7),
            kind: "StoreFragmentReq",
            bytes: 2048,
            disposition: Disposition::DroppedRandom,
        };
        assert_eq!(
            e.to_string(),
            format!(
                "{} {} -> {} StoreFragmentReq 2048B DroppedRandom",
                e.at, e.from, e.to
            )
        );
    }
}
