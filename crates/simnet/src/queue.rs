//! The engine's event queue: message deliveries and timer firings, each
//! kept in its own binary heap of packed `(time, seq)` keys.
//!
//! The simulator's hot loop is "pop the earliest event, dispatch it":
//! every message delivery pays one queue insert and one removal.
//!
//! # Ordering contract
//!
//! Events execute in `(time, seq)` order, where `seq` is one monotone
//! insertion counter shared by deliveries and timers. `seq` is unique, so
//! `(time, seq)` is a total order and the pop sequence is fully determined
//! by the pushes — which is what makes replay digests stable. A delivery
//! and a timer due at the same microsecond run in the order they were
//! scheduled.
//!
//! # Layout
//!
//! Deliveries and timer firings sit in two heaps, and a pop takes the
//! earlier of the two tops. Most timers are set and then cancelled (a
//! proxy's put timeout, a client's op timeout), and a cancelled timer
//! stays queued until it surfaces, so in one shared heap every pop sifted
//! past several stale timers per message in flight. Apart, the delivery
//! heap holds only the messages in flight.
//!
//! A key is one `u128`: the time in the high 64 bits, then the 40-bit
//! `seq`, then the 24-bit index of the event in its heap's pool (`Vec`,
//! LIFO free list), where the event sits unmoved while queued. `seq` is
//! unique, so the index bits never decide an order. Timer cancellation is
//! a generation bump in the `TimerSlab`; a stale firing is discarded when
//! it would be the next event, costing nothing while buried.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::node::NodeId;
use crate::time::SimTime;

/// Handle to a scheduled timer, usable to cancel it before it fires.
///
/// Packs a slab slot and a generation stamp; cancelling bumps the
/// generation so the queued firing event becomes stale in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Bits of a key that hold `seq`, below the time's 64.
const SEQ_BITS: u32 = 40;
/// Bits of a key that hold the pool index, below `seq`.
const INDEX_BITS: u32 = 24;

/// Packs an event's queue key; keys compare as `(at, seq)`.
///
/// # Panics
///
/// Panics if `seq` reaches 2⁴⁰ or `idx` 2²⁴: a wrapped field would
/// reorder events or address the wrong one.
fn pack(at: SimTime, seq: u64, idx: u32) -> u128 {
    assert!(
        seq < 1 << SEQ_BITS,
        "event seq {seq} does not fit the queue key's {SEQ_BITS} bits"
    );
    assert!(
        idx < 1 << INDEX_BITS,
        "pool index {idx} does not fit the queue key's {INDEX_BITS} bits"
    );
    (u128::from(at.as_micros()) << 64) | u128::from((seq << INDEX_BITS) | u64::from(idx))
}

fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

fn key_index(key: u128) -> usize {
    (key as u32 & ((1 << INDEX_BITS) - 1)) as usize
}

/// Queued events of one kind, each at a fixed index while queued.
struct Pool<T> {
    /// `None` marks a free slot.
    slots: Vec<Option<T>>,
    /// Free indices, reused last-freed first.
    free: Vec<u32>,
}

impl<T> Pool<T> {
    fn new() -> Self {
        Pool {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(item);
                idx
            }
            None => {
                self.slots.push(Some(item));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn get(&self, idx: usize) -> &T {
        self.slots[idx].as_ref().expect("queued key has an event")
    }

    /// Takes the event out of slot `idx` and frees the slot.
    fn take(&mut self, idx: usize) -> T {
        self.free.push(idx as u32);
        self.slots[idx].take().expect("queued key has an event")
    }
}

/// A message in flight.
struct Delivery<M> {
    to: NodeId,
    from: NodeId,
    msg: M,
}

/// A scheduled timer firing.
struct Firing {
    to: NodeId,
    id: TimerId,
    tag: u64,
}

pub(crate) enum EventKind<M> {
    Deliver { from: NodeId, msg: M },
    Timer { id: TimerId, tag: u64 },
}

/// An event taken off the queue.
pub(crate) struct Event<M> {
    pub(crate) at: SimTime,
    pub(crate) to: NodeId,
    pub(crate) kind: EventKind<M>,
}

/// What [`EventQueue::pop_before`] found.
pub(crate) enum Next<M> {
    /// The earliest live event, due before the deadline.
    Due(Event<M>),
    /// Live events remain, none due before the deadline.
    NotBefore,
    /// No live event remains.
    Drained,
}

/// Two min-heaps of packed keys, deliveries and timer firings, over one
/// pool each.
pub(crate) struct EventQueue<M> {
    /// The `seq` of the next push, of either kind.
    seq: u64,
    /// `Reverse` turns the standard max-heap into a min-heap.
    delivery_keys: BinaryHeap<Reverse<u128>>,
    deliveries: Pool<Delivery<M>>,
    timer_keys: BinaryHeap<Reverse<u128>>,
    firings: Pool<Firing>,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue {
            seq: 0,
            delivery_keys: BinaryHeap::new(),
            deliveries: Pool::new(),
            timer_keys: BinaryHeap::new(),
            firings: Pool::new(),
        }
    }

    /// Queued events, including not-yet-discarded stale timer events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.delivery_keys.len() + self.timer_keys.len()
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Queues the delivery of `msg` from `from` to `to` at `at`.
    // lint:hot
    pub(crate) fn push_delivery(&mut self, at: SimTime, to: NodeId, from: NodeId, msg: M) {
        let seq = self.next_seq();
        let idx = self.deliveries.insert(Delivery { to, from, msg });
        self.delivery_keys.push(Reverse(pack(at, seq, idx)));
    }

    /// Queues the firing of timer `id` on `to` at `at`.
    pub(crate) fn push_timer(&mut self, at: SimTime, to: NodeId, id: TimerId, tag: u64) {
        let seq = self.next_seq();
        let idx = self.firings.insert(Firing { to, id, tag });
        self.timer_keys.push(Reverse(pack(at, seq, idx)));
    }

    /// Removes and returns the next live event if it is due before
    /// `deadline`: the engine's one call per event. Stale timer firings
    /// that would come first are discarded on the way.
    // lint:hot
    pub(crate) fn pop_before(&mut self, deadline: SimTime, live: &TimerSlab) -> Next<M> {
        loop {
            let delivery = self.delivery_keys.peek().map(|&Reverse(key)| key);
            let timer = self.timer_keys.peek().map(|&Reverse(key)| key);
            let (key, is_timer) = match (delivery, timer) {
                (Some(d), Some(t)) if t < d => (t, true),
                (Some(d), _) => (d, false),
                (None, Some(t)) => (t, true),
                (None, None) => return Next::Drained,
            };
            let idx = key_index(key);
            if is_timer && !live.is_live(self.firings.get(idx).id) {
                self.timer_keys.pop();
                self.firings.take(idx);
                continue;
            }
            let at = key_time(key);
            if at >= deadline {
                return Next::NotBefore;
            }
            let (to, kind) = if is_timer {
                self.timer_keys.pop();
                let Firing { to, id, tag } = self.firings.take(idx);
                (to, EventKind::Timer { id, tag })
            } else {
                self.delivery_keys.pop();
                let Delivery { to, from, msg } = self.deliveries.take(idx);
                (to, EventKind::Deliver { from, msg })
            };
            return Next::Due(Event { at, to, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::time::SimDuration;

    /// Pops every event due before `deadline`, as `(time µs, message)`.
    fn drain(q: &mut EventQueue<u64>, live: &TimerSlab) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Next::Due(ev) = q.pop_before(SimTime::MAX, live) {
            let EventKind::Deliver { msg, .. } = ev.kind else {
                panic!("only deliveries were queued");
            };
            out.push((ev.at.as_micros(), msg));
        }
        out
    }

    fn deliver(q: &mut EventQueue<u64>, at_us: u64, msg: u64) {
        q.push_delivery(
            SimTime::from_micros(at_us),
            NodeId::new(0),
            NodeId::new(1),
            msg,
        );
    }

    #[test]
    fn queue_pops_in_time_seq_order() {
        let live = TimerSlab::new();
        let mut q = EventQueue::new();
        // Near-term, far-future and same-time ties, all interleaved; each
        // message is its push's seq.
        for (at, seq) in [(30_000, 0), (10, 1), (500_000_000, 2), (10, 3), (65_536, 4)] {
            deliver(&mut q, at, seq);
        }
        assert_eq!(q.len(), 5);
        let Next::Due(first) = q.pop_before(SimTime::MAX, &live) else {
            panic!("five events queued");
        };
        assert!(matches!(first.kind, EventKind::Deliver { msg: 1, .. }));
        // The popped event's pool slot takes the next push, and the event
        // in it still pops in (time, seq) order: behind an older seq at
        // the same time, ahead of an older seq at a later time.
        let pool_len = q.deliveries.slots.len();
        deliver(&mut q, 10, 5);
        deliver(&mut q, 30_000, 6);
        assert_eq!(
            q.deliveries.slots.len(),
            pool_len + 1,
            "the freed slot was reused"
        );
        assert_eq!(
            drain(&mut q, &live),
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
        let mut live = TimerSlab::new();
        let mut q: EventQueue<u64> = EventQueue::new();
        let near = live.allocate();
        let far = live.allocate();
        q.push_timer(SimTime::from_micros(5), NodeId::new(0), near, 1);
        q.push_timer(SimTime::from_micros(1_000_000), NodeId::new(0), far, 2);
        live.retire(near);
        live.retire(far);
        assert!(
            matches!(q.pop_before(SimTime::MAX, &live), Next::Drained),
            "both stale events discarded"
        );
        assert_eq!(q.len(), 0);
        assert_eq!(live.live_count(), 0);
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

    #[test]
    fn keys_order_by_time_then_seq_up_to_the_field_limits() {
        let top_seq = (1 << SEQ_BITS) - 1;
        let top_idx = (1 << INDEX_BITS) - 1;
        let key = pack(SimTime::MAX, top_seq, top_idx);
        assert_eq!(key, u128::MAX, "every field at its largest fills the key");
        assert_eq!(key_time(key), SimTime::MAX);
        assert_eq!(key_index(key), top_idx as usize);
        let zero = pack(SimTime::ZERO, 0, 0);
        assert_eq!((key_time(zero), key_index(zero)), (SimTime::ZERO, 0));
        // The index never outranks seq, and seq never outranks time.
        let t = SimTime::from_micros(7);
        assert!(pack(t, 0, top_idx) < pack(t, 1, 0));
        assert!(pack(t, top_seq, top_idx) < pack(SimTime::from_micros(8), 0, 0));
        assert_eq!(
            key_index(pack(t, top_seq, 5)),
            5,
            "seq leaves the index alone"
        );
        assert_eq!(key_time(pack(t, top_seq, top_idx)), t, "nor the time");
    }

    #[test]
    #[should_panic(expected = "does not fit the queue key's 40 bits")]
    fn a_seq_past_40_bits_panics() {
        pack(SimTime::ZERO, 1 << SEQ_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit the queue key's 24 bits")]
    fn a_pool_index_past_24_bits_panics() {
        pack(SimTime::ZERO, 0, 1 << INDEX_BITS);
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A delivery `delay` µs after the last pop's time.
        Deliver(u64),
        /// A timer `delay` µs after the last pop's time.
        Schedule(u64),
        /// Cancels the earliest live timer.
        CancelTop,
        /// Cancels the live timer at this rank (modulo their count).
        CancelBuried(usize),
        /// Cancels, again, a timer that already fired.
        CancelFired(usize),
        /// One pop with its deadline this many µs after the last pop's time.
        Pop(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Delays of 0–3 µs make deliveries and timers collide.
        (0u8..16, any::<u64>()).prop_map(|(pick, x)| match pick {
            0..=3 => Op::Deliver(x % 4),
            4..=7 => Op::Schedule(x % 4),
            8 => Op::CancelTop,
            9 => Op::CancelBuried(x as usize),
            10 => Op::CancelFired(x as usize),
            _ if x % 5 == 0 => Op::Pop(u64::MAX),
            _ => Op::Pop(x % 4),
        })
    }

    /// What the model expects a pop to return.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Item {
        Deliver(u64),
        Timer(TimerId, u64),
    }

    /// The queue's model: every live event by `(time, seq)`.
    type Model = BTreeMap<(SimTime, u64), (NodeId, Item)>;

    proptest! {
        /// The queue pops exactly what a `BTreeMap` keyed by `(time, seq)`
        /// holds, cancelled timers removed, whatever the interleaving.
        #[test]
        fn pops_match_a_sorted_map_model(ops in proptest::collection::vec(op(), 0..200)) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut live = TimerSlab::new();
            let mut model: Model = BTreeMap::new();
            let mut fired: Vec<TimerId> = Vec::new();
            let (mut now, mut seq) = (SimTime::ZERO, 0u64);
            let timers = |model: &Model| -> Vec<(SimTime, u64)> {
                model
                    .iter()
                    .filter(|(_, (_, item))| matches!(item, Item::Timer(..)))
                    .map(|(&key, _)| key)
                    .collect()
            };
            let cancel = |model: &mut Model, live: &mut TimerSlab, key| {
                if let Some((_, Item::Timer(id, _))) = model.remove(&key) {
                    assert!(live.retire(id), "a queued timer is live");
                }
            };
            // Enough unbounded pops at the end to drain every push.
            for op in ops.into_iter().chain(std::iter::repeat_n(Op::Pop(u64::MAX), 200)) {
                match op {
                    Op::Deliver(delay) | Op::Schedule(delay) => {
                        let at = now + SimDuration::from_micros(delay);
                        let to = NodeId::new(seq as u32 % 3);
                        let item = if let Op::Deliver(_) = op {
                            q.push_delivery(at, to, NodeId::new(9), seq);
                            Item::Deliver(seq)
                        } else {
                            let id = live.allocate();
                            q.push_timer(at, to, id, seq);
                            Item::Timer(id, seq)
                        };
                        model.insert((at, seq), (to, item));
                        seq += 1;
                    }
                    Op::CancelTop => {
                        if let Some(&key) = timers(&model).first() {
                            cancel(&mut model, &mut live, key);
                        }
                    }
                    Op::CancelBuried(rank) => {
                        let keys = timers(&model);
                        if !keys.is_empty() {
                            cancel(&mut model, &mut live, keys[rank % keys.len()]);
                        }
                    }
                    Op::CancelFired(i) => {
                        if !fired.is_empty() {
                            prop_assert!(!live.retire(fired[i % fired.len()]), "already retired");
                        }
                    }
                    Op::Pop(window) => {
                        let deadline = now.saturating_add(SimDuration::from_micros(window));
                        let expected = model.first_key_value().map(|(&key, &ev)| (key, ev));
                        match (q.pop_before(deadline, &live), expected) {
                            (Next::Drained, None) => {}
                            (Next::NotBefore, Some(((at, _), _))) => prop_assert!(at >= deadline),
                            (Next::Due(ev), Some(((at, key_seq), (to, item)))) => {
                                prop_assert!(at < deadline);
                                let got = match ev.kind {
                                    EventKind::Deliver { msg, .. } => Item::Deliver(msg),
                                    EventKind::Timer { id, tag } => Item::Timer(id, tag),
                                };
                                prop_assert_eq!((ev.at, ev.to, got), (at, to, item));
                                model.remove(&(at, key_seq));
                                if let Item::Timer(id, _) = item {
                                    // The engine retires a timer as it fires.
                                    prop_assert!(live.retire(id));
                                    fired.push(id);
                                }
                                now = at;
                            }
                            (next, expected) => prop_assert!(
                                false,
                                "queue says {}, model expects {:?}",
                                match next {
                                    Next::Due(_) => "due",
                                    Next::NotBefore => "not before",
                                    Next::Drained => "drained",
                                },
                                expected
                            ),
                        }
                    }
                }
            }
            prop_assert!(model.is_empty());
            prop_assert_eq!(q.len(), 0);
            prop_assert_eq!(live.live_count(), 0);
        }
    }
}
