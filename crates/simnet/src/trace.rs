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
