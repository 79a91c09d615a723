//! The engine's event queue: a binary heap of `(time, seq)` keys.
//!
//! The simulator's hot loop is "pop the earliest event, dispatch it":
//! every message delivery pays one queue insert and one removal.
//!
//! # Ordering contract
//!
//! Events execute in `(time, seq)` order, where `seq` is a global
//! monotone insertion counter. `seq` is unique, so `(time, seq)` is a
//! total order and the pop sequence is fully determined by the pushes —
//! which is what makes replay digests stable.
//!
//! # Layout
//!
//! The heap holds 24-byte `(time, seq, pool index)` keys; the events
//! themselves sit in one pool (`Vec`, LIFO free list) and never move
//! while queued, so a sift moves keys instead of whole events. Timer
//! cancellation is a generation bump in the [`TimerSlab`]; stale timer
//! events are discarded when they surface at the top, costing nothing
//! while buried.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::node::NodeId;
use crate::time::SimTime;

/// Handle to a scheduled timer, usable to cancel it before it fires.
///
/// Packs a slab slot and a generation stamp; cancelling bumps the
/// generation so the queued firing event becomes stale in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

impl TimerId {
    fn new(slot: u32, generation: u32) -> Self {
        TimerId((u64::from(slot) << 32) | u64::from(generation))
    }

    fn slot(self) -> usize {
        (self.0 >> 32) as usize
    }

    fn generation(self) -> u32 {
        self.0 as u32
    }
}

/// Allocation-free timer liveness tracking.
///
/// Each scheduled timer occupies a slab slot holding the slot's current
/// generation; firing or cancelling retires the slot by bumping the
/// generation and pushing it on a free list. A [`TimerId`] is live iff
/// its stamped generation still matches its slot — so cancel is two
/// array writes, and a cancelled timer's queued event is recognized as
/// stale the moment it surfaces, with no per-timer hash-set bookkeeping.
///
/// Slot reuse order (LIFO free list) is a pure function of the event
/// sequence, so allocated ids — and everything derived from them — replay
/// deterministically.
#[derive(Debug, Default)]
pub(crate) struct TimerSlab {
    generations: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl TimerSlab {
    pub(crate) fn new() -> Self {
        TimerSlab::default()
    }

    /// Allocates a live timer id.
    pub(crate) fn allocate(&mut self) -> TimerId {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => TimerId::new(slot, self.generations[slot as usize]),
            None => {
                let slot = self.generations.len() as u32;
                self.generations.push(0);
                TimerId::new(slot, 0)
            }
        }
    }

    /// Whether `id` has neither fired nor been cancelled.
    pub(crate) fn is_live(&self, id: TimerId) -> bool {
        self.generations
            .get(id.slot())
            .is_some_and(|&g| g == id.generation())
    }

    /// Retires `id` (fire or cancel). Returns `false` — and changes
    /// nothing — if it was already retired.
    pub(crate) fn retire(&mut self, id: TimerId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.generations[id.slot()] = self.generations[id.slot()].wrapping_add(1);
        self.free.push(id.slot() as u32);
        self.live -= 1;
        true
    }

    /// Number of live (scheduled, unfired, uncancelled) timers.
    pub(crate) fn live_count(&self) -> usize {
        self.live
    }
}

pub(crate) enum EventKind<M> {
    Deliver { from: NodeId, msg: M },
    Timer { id: TimerId, tag: u64 },
}

pub(crate) struct QueuedEvent<M> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) to: NodeId,
    pub(crate) kind: EventKind<M>,
}

/// Min-heap of `(time, seq, pool index)` keys over a recycled event pool.
pub(crate) struct EventQueue<M> {
    /// `Reverse` turns the standard max-heap into a min-heap.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Event storage, indexed by a key's pool index; `None` marks a free
    /// slot.
    pool: Vec<Option<QueuedEvent<M>>>,
    /// Free pool indices, reused last-freed first.
    free: Vec<u32>,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pool: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Queued events, including not-yet-discarded stale timer events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    // lint:hot
    pub(crate) fn push(&mut self, ev: QueuedEvent<M>) {
        let (at, seq) = (ev.at, ev.seq);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.pool[idx as usize] = Some(ev);
                idx
            }
            None => {
                self.pool.push(Some(ev));
                (self.pool.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at, seq, idx)));
    }

    /// Takes the event out of pool slot `idx` and frees the slot.
    fn release(&mut self, idx: u32) -> QueuedEvent<M> {
        self.free.push(idx);
        self.pool[idx as usize]
            .take()
            .expect("queued key has an event")
    }

    /// `(time, seq)` of the next live event, discarding any stale timer
    /// events that surface. `None` means no live events remain.
    // lint:hot
    pub(crate) fn peek_next(&mut self, timers: &TimerSlab) -> Option<(SimTime, u64)> {
        loop {
            let &Reverse((at, seq, idx)) = self.heap.peek()?;
            let ev = self.pool[idx as usize]
                .as_ref()
                .expect("queued key has an event");
            match ev.kind {
                EventKind::Timer { id, .. } if !timers.is_live(id) => {
                    self.heap.pop();
                    self.release(idx);
                }
                _ => return Some((at, seq)),
            }
        }
    }

    /// Removes and returns the next live event.
    // lint:hot
    pub(crate) fn pop(&mut self, timers: &TimerSlab) -> Option<QueuedEvent<M>> {
        self.peek_next(timers)?;
        let Reverse((_, _, idx)) = self.heap.pop()?;
        Some(self.release(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, seq: u64) -> QueuedEvent<()> {
        QueuedEvent {
            at: SimTime::from_micros(at_us),
            seq,
            to: NodeId::new(0),
            kind: EventKind::Deliver {
                from: NodeId::new(0),
                msg: (),
            },
        }
    }

    fn drain(q: &mut EventQueue<()>, timers: &TimerSlab) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop(timers) {
            out.push((e.at.as_micros(), e.seq));
        }
        out
    }

    #[test]
    fn queue_pops_in_time_seq_order() {
        let timers = TimerSlab::new();
        let mut q = EventQueue::new();
        // Near-term, far-future and same-time ties, all interleaved.
        for (at, seq) in [(30_000, 0), (10, 1), (500_000_000, 2), (10, 3), (65_536, 4)] {
            q.push(ev(at, seq));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop(&timers).map(|e| e.seq), Some(1));
        // The popped event's pool slot takes the next push, and the event
        // in it still pops in (time, seq) order: behind an older seq at
        // the same time, ahead of an older seq at a later time.
        let pool_len = q.pool.len();
        q.push(ev(10, 5));
        q.push(ev(30_000, 6));
        assert_eq!(q.pool.len(), pool_len + 1, "the freed slot was reused");
        assert_eq!(
            drain(&mut q, &timers),
            [
                (10, 3),
                (10, 5),
                (30_000, 0),
                (30_000, 6),
                (65_536, 4),
                (500_000_000, 2)
            ]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stale_timers_are_discarded_not_returned() {
        let mut timers = TimerSlab::new();
        let mut q: EventQueue<()> = EventQueue::new();
        let near = timers.allocate();
        let far = timers.allocate();
        q.push(QueuedEvent {
            at: SimTime::from_micros(5),
            seq: 0,
            to: NodeId::new(0),
            kind: EventKind::Timer { id: near, tag: 1 },
        });
        q.push(QueuedEvent {
            at: SimTime::from_micros(1_000_000),
            seq: 1,
            to: NodeId::new(0),
            kind: EventKind::Timer { id: far, tag: 2 },
        });
        timers.retire(near);
        timers.retire(far);
        assert_eq!(q.peek_next(&timers), None, "both stale events discarded");
        assert_eq!(q.len(), 0);
        assert_eq!(timers.live_count(), 0);
    }

    #[test]
    fn slab_reuses_slots_with_fresh_generations() {
        let mut slab = TimerSlab::new();
        let a = slab.allocate();
        assert!(slab.is_live(a));
        assert!(slab.retire(a));
        assert!(!slab.is_live(a));
        assert!(!slab.retire(a), "double retire is a no-op");
        let b = slab.allocate();
        assert_eq!(a.slot(), b.slot(), "slot is recycled");
        assert_ne!(a, b, "generation distinguishes reuse");
        assert!(!slab.is_live(a));
        assert!(slab.is_live(b));
        assert_eq!(slab.live_count(), 1);
    }
}
