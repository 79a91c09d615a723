//! The engine's event queue: a hierarchical timing wheel.
//!
//! The simulator's hot loop is "pop the earliest event, dispatch it":
//! every message delivery pays one queue insert and one removal, so the
//! queue is pure per-event overhead. The paper's network model samples
//! every latency uniformly from 10–30 ms, which makes the schedule
//! extremely near-term and dense — exactly the shape a timing wheel
//! serves in O(1) while a binary heap pays `O(log n)` sifts plus cache
//! misses on every operation.
//!
//! # Ordering contract
//!
//! Events execute in `(time, seq)` order, where `seq` is a global
//! monotone insertion counter. The wheel preserves that order **exactly**
//! — it is what makes replay digests stable — and the proptest in this
//! module's tests holds it to a plain `BinaryHeap` of the same events,
//! step by step, through pushes, peeks, pops and timer cancellations.
//!
//! # Wheel layout
//!
//! The wheel has 65 536 slots of 1 µs each (span 65.536 ms), covering the
//! whole 10–30 ms latency band; events further out (convergence timers,
//! fault windows) sit in an overflow heap and are promoted into slots as
//! virtual time approaches them. Because the live window `[cursor,
//! cursor + span)` is exactly one span long, two different in-window
//! times can never map to the same slot — so every event in one slot
//! shares the same timestamp, and FIFO order within a slot *is* `seq`
//! order. The one exception is promotion: an overflow event can share a
//! timestamp with an event pushed directly into the slot earlier, so
//! promotion inserts by `seq` (a short sorted walk; slots are tiny)
//! instead of appending. Timer cancellation is a generation bump in the
//! [`TimerSlab`]; stale timer events are discarded when they surface,
//! costing nothing while buried.
//!
//! # Memory layout
//!
//! Events live in one reusable pool (`Vec`, LIFO free list), and each
//! slot is just a `(head, tail)` pair of pool indices chaining an
//! intrusive list. The pool's working set is the number of in-flight
//! events — a few cache lines for typical simulations — so pushes and
//! pops touch one cold line (the slot pair) instead of a per-slot
//! `VecDeque` allocation each. The slot scan reads the two-level
//! occupancy bitmap only: the 128-byte summary pinpoints the next
//! non-empty 64-slot word directly, and `locate_next` memoizes its
//! result so the engine's peek-then-pop pair costs a single scan.

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

impl<M> QueuedEvent<M> {
    fn stale_timer(&self, timers: &TimerSlab) -> bool {
        matches!(&self.kind, EventKind::Timer { id, .. } if !timers.is_live(*id))
    }
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

const SLOT_BITS: u32 = 16;
const NUM_SLOTS: usize = 1 << SLOT_BITS;
/// One slot per microsecond: the window is 65.536 ms long, comfortably
/// past the paper's 30 ms maximum link latency.
const SPAN_MICROS: u64 = NUM_SLOTS as u64;
const SLOT_MASK: u64 = SPAN_MICROS - 1;
const WORDS: usize = NUM_SLOTS / 64;
const GROUPS: usize = WORDS / 64;

/// Where the next live event sits, as computed by a peek.
#[derive(Clone, Copy)]
enum Loc {
    Slot(usize),
    Overflow,
}

/// Sentinel pool index: "no entry".
const NIL: u32 = u32::MAX;

/// Intrusive-list node in the event pool.
struct PoolEntry<M> {
    ev: Option<QueuedEvent<M>>,
    next: u32,
}

/// Head and tail pool indices of one slot's event chain.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// The near-term slotted wheel plus overflow heap.
pub(crate) struct TimingWheel<M> {
    /// Per-slot intrusive-list heads/tails into `pool`.
    slots: Box<[Slot]>,
    /// Event storage, recycled through a LIFO free list so the working
    /// set stays as small (and as cache-hot) as the in-flight event count.
    pool: Vec<PoolEntry<M>>,
    free: u32,
    /// One bit per slot; a set bit means the slot's chain is non-empty.
    occupied: Box<[u64; WORDS]>,
    /// One bit per word of `occupied`, so the next-occupied scan reads at
    /// most 16 summary words before touching a single slot word.
    summary: [u64; GROUPS],
    overflow: BinaryHeap<QueuedEvent<M>>,
    /// Latest observed virtual time; every queued event is at `>= cursor`
    /// and every slotted event is within `[cursor, cursor + span)`.
    cursor: SimTime,
    slot_events: usize,
    /// Memoized result of the last [`TimingWheel::locate_next`]. The
    /// engine peeks then immediately pops, and the memo makes the second
    /// scan free. Invalidated by a pop, by a push that orders earlier,
    /// and by timer cancellation (see [`TimingWheel::invalidate_peek`]).
    cached: Option<(Loc, SimTime, u64)>,
}

impl<M> TimingWheel<M> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            slots: vec![EMPTY_SLOT; NUM_SLOTS].into_boxed_slice(),
            pool: Vec::new(),
            free: NIL,
            occupied: Box::new([0u64; WORDS]),
            summary: [0u64; GROUPS],
            overflow: BinaryHeap::new(),
            cursor: SimTime::ZERO,
            slot_events: 0,
            cached: None,
        }
    }

    /// Queued events, including not-yet-discarded stale timer events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slot_events + self.overflow.len()
    }

    fn mark(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        self.summary[slot >> 12] |= 1u64 << ((slot >> 6) & 63);
    }

    fn unmark(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupied[w] &= !(1u64 << (slot & 63));
        if self.occupied[w] == 0 {
            self.summary[slot >> 12] &= !(1u64 << (w & 63));
        }
    }

    fn alloc(&mut self, ev: QueuedEvent<M>) -> u32 {
        if self.free == NIL {
            let idx = self.pool.len() as u32;
            self.pool.push(PoolEntry {
                ev: Some(ev),
                next: NIL,
            });
            idx
        } else {
            let idx = self.free;
            let entry = &mut self.pool[idx as usize];
            self.free = entry.next;
            entry.ev = Some(ev);
            entry.next = NIL;
            idx
        }
    }

    fn release(&mut self, idx: u32) -> QueuedEvent<M> {
        let entry = &mut self.pool[idx as usize];
        let ev = entry.ev.take().expect("live pool entry");
        entry.next = self.free;
        self.free = idx;
        ev
    }

    fn seq_of(&self, idx: u32) -> u64 {
        self.pool[idx as usize].ev.as_ref().expect("live entry").seq
    }

    /// Files an in-window event into its slot, preserving `seq` order.
    ///
    /// Direct pushes carry a fresh (maximal) `seq`, so the fast path is a
    /// plain append; only promotion out of the overflow heap — which can
    /// revive an older `seq` at a timestamp the slot already holds — pays
    /// the sorted walk.
    // lint:hot
    fn slot_insert(&mut self, ev: QueuedEvent<M>) {
        let slot = (ev.at.as_micros() & SLOT_MASK) as usize;
        let seq = ev.seq;
        let idx = self.alloc(ev);
        self.mark(slot);
        self.slot_events += 1;
        let Slot { head, tail } = self.slots[slot];
        if head == NIL {
            self.slots[slot] = Slot {
                head: idx,
                tail: idx,
            };
        } else if self.seq_of(tail) < seq {
            self.pool[tail as usize].next = idx;
            self.slots[slot].tail = idx;
        } else {
            // Promotion revived an older seq: walk to its sorted position
            // (never past the tail, which compared greater above).
            let mut prev = NIL;
            let mut cur = head;
            while self.seq_of(cur) < seq {
                prev = cur;
                cur = self.pool[cur as usize].next;
            }
            self.pool[idx as usize].next = cur;
            if prev == NIL {
                self.slots[slot].head = idx;
            } else {
                self.pool[prev as usize].next = idx;
            }
        }
    }

    /// Unlinks and returns the slot's front event.
    fn pop_front(&mut self, slot: usize) -> QueuedEvent<M> {
        let head = self.slots[slot].head;
        debug_assert_ne!(head, NIL, "pop_front on empty slot");
        let next = self.pool[head as usize].next;
        self.slots[slot].head = next;
        if next == NIL {
            self.slots[slot].tail = NIL;
            self.unmark(slot);
        }
        self.slot_events -= 1;
        self.release(head)
    }

    // lint:hot
    pub(crate) fn push(&mut self, ev: QueuedEvent<M>) {
        debug_assert!(ev.at >= self.cursor, "event scheduled in the past");
        if let Some((_, at, seq)) = self.cached {
            if (ev.at, ev.seq) < (at, seq) {
                self.cached = None;
            }
        }
        if ev.at.as_micros().wrapping_sub(self.cursor.as_micros()) < SPAN_MICROS {
            self.slot_insert(ev);
        } else {
            self.overflow.push(ev);
        }
    }

    /// Moves overflow events whose time has come into the window.
    fn promote_due(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if top.at.as_micros().wrapping_sub(self.cursor.as_micros()) >= SPAN_MICROS {
                break;
            }
            let ev = self.overflow.pop().expect("peeked entry exists");
            self.slot_insert(ev);
        }
    }

    /// Index of the first occupied slot at or after the cursor, scanning
    /// the ring in time order via the two-level occupancy bitmap. Only
    /// bitmap words are read: the summary locates the next non-empty
    /// 64-slot word directly, so the scan is a handful of `u64` tests no
    /// matter how sparse the window is.
    fn next_occupied_slot(&self) -> Option<usize> {
        if self.slot_events == 0 {
            return None;
        }
        let start = (self.cursor.as_micros() & SLOT_MASK) as usize;
        let w0 = start >> 6;
        let head = self.occupied[w0] & (!0u64 << (start & 63));
        if head != 0 {
            return Some((w0 << 6) + head.trailing_zeros() as usize);
        }
        let first_in = |w: usize| (w << 6) + self.occupied[w].trailing_zeros() as usize;
        let g0 = w0 >> 6;
        // Words strictly after w0 within its summary group.
        let above = self.summary[g0] & ((!0u64 << (w0 & 63)) << 1);
        if above != 0 {
            return Some(first_in((g0 << 6) + above.trailing_zeros() as usize));
        }
        // Remaining groups in ring order.
        for i in 1..GROUPS {
            let g = (g0 + i) & (GROUPS - 1);
            if self.summary[g] != 0 {
                return Some(first_in(
                    (g << 6) + self.summary[g].trailing_zeros() as usize,
                ));
            }
        }
        // Wrapped: words strictly before w0 in its group, then the cursor
        // word's own low bits (next window lap).
        let below = self.summary[g0] & !(!0u64 << (w0 & 63));
        if below != 0 {
            return Some(first_in((g0 << 6) + below.trailing_zeros() as usize));
        }
        let tail = self.occupied[w0] & !(!0u64 << (start & 63));
        debug_assert_ne!(tail, 0, "slot_events > 0 but no occupied slot");
        Some((w0 << 6) + tail.trailing_zeros() as usize)
    }

    /// Locates the next live event, discarding stale timer events that
    /// surface at the front. Returns its position, time and seq.
    // lint:hot
    fn locate_next(&mut self, timers: &TimerSlab) -> Option<(Loc, SimTime, u64)> {
        if let Some(hit) = self.cached {
            return Some(hit);
        }
        self.promote_due();
        let found = loop {
            if let Some(slot) = self.next_occupied_slot() {
                let head = self.slots[slot].head as usize;
                let front = self.pool[head].ev.as_ref().expect("occupied slot");
                let (at, seq) = (front.at, front.seq);
                if front.stale_timer(timers) {
                    self.pop_front(slot);
                    continue;
                }
                break (Loc::Slot(slot), at, seq);
            }
            // Slots empty: the overflow minimum (if any) is globally next.
            let top = self.overflow.peek()?;
            if top.stale_timer(timers) {
                self.overflow.pop();
                continue;
            }
            break (Loc::Overflow, top.at, top.seq);
        };
        self.cached = Some(found);
        Some(found)
    }

    /// Drops the memoized peek. Must be called when a timer is cancelled
    /// outside of event dispatch: the memo may point at the newly stale
    /// firing event, and a subsequent peek must not report its time as
    /// the next live event.
    pub(crate) fn invalidate_peek(&mut self) {
        self.cached = None;
    }

    /// `(time, seq)` of the next live event, discarding any stale timer
    /// events that surface. `None` means no live events remain.
    // lint:hot
    pub(crate) fn peek_next(&mut self, timers: &TimerSlab) -> Option<(SimTime, u64)> {
        self.locate_next(timers).map(|(_, at, seq)| (at, seq))
    }

    /// Removes and returns the next live event.
    // lint:hot
    pub(crate) fn pop(&mut self, timers: &TimerSlab) -> Option<QueuedEvent<M>> {
        loop {
            let (loc, at, seq) = self.locate_next(timers)?;
            self.cached = None;
            self.cursor = at;
            let ev = match loc {
                Loc::Slot(slot) => self.pop_front(slot),
                Loc::Overflow => self.overflow.pop().expect("located event"),
            };
            debug_assert_eq!(ev.seq, seq, "memoized peek out of sync");
            // A cancellation may have landed between the memoized peek
            // and this pop; discard and locate afresh.
            if ev.stale_timer(timers) {
                continue;
            }
            return Some(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::time::SimDuration;

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

    fn drain(q: &mut TimingWheel<()>, timers: &TimerSlab) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop(timers) {
            out.push((e.at.as_micros(), e.seq));
        }
        out
    }

    #[test]
    fn wheel_pops_in_time_seq_order() {
        let timers = TimerSlab::new();
        let mut q = TimingWheel::new();
        // In-window, overflow, same-time ties — all interleaved.
        for (at, seq) in [(30_000, 0), (10, 1), (500_000, 2), (10, 3), (65_536, 4)] {
            q.push(ev(at, seq));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q, &timers),
            [(10, 1), (10, 3), (30_000, 0), (65_536, 4), (500_000, 2)]
        );
    }

    #[test]
    fn promotion_preserves_seq_order_on_shared_timestamps() {
        let timers = TimerSlab::new();
        let mut q = TimingWheel::new();
        // seq 0 goes to overflow (beyond the 65.536 ms window), then after
        // popping an early event the window advances and a younger seq is
        // pushed directly into the very same slot & timestamp. The promoted
        // event must still pop first.
        q.push(ev(200_000, 0));
        q.push(ev(150_000, 1));
        let first = q.pop(&timers).unwrap();
        assert_eq!(first.seq, 1);
        q.push(ev(200_000, 2));
        assert_eq!(drain(&mut q, &timers), [(200_000, 0), (200_000, 2)]);
    }

    #[test]
    fn wheel_wraps_across_window_laps() {
        let timers = TimerSlab::new();
        let mut q = TimingWheel::new();
        let mut expect = Vec::new();
        // March virtual time through many window laps.
        for lap in 0..10u64 {
            let at = lap * 40_000 + 7;
            q.push(ev(at, lap));
            expect.push((at, lap));
            let got = q.pop(&timers).unwrap();
            assert_eq!((got.at.as_micros(), got.seq), expect[lap as usize]);
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stale_timers_are_discarded_not_returned() {
        let mut timers = TimerSlab::new();
        let mut q: TimingWheel<()> = TimingWheel::new();
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

    /// One step of a queue schedule, applied to the wheel and to the
    /// `BinaryHeap` oracle alike.
    #[derive(Clone, Debug)]
    enum Op {
        /// Push a delivery `delay_us` after the last popped event's time.
        Deliver { delay_us: u64 },
        /// Push a timer firing likewise, remembering its id.
        Timer { delay_us: u64 },
        /// Peek without popping, leaving the wheel's memo behind.
        Peek,
        /// Peek, then pop — the engine's loop.
        Pop,
        /// Retire the `idx % queued`-th timer still sitting in the queue,
        /// then `invalidate_peek` — the engine's cancel path.
        Cancel { idx: usize },
    }

    /// What one queue reported for one op: `peek_next` and the popped
    /// `(time, seq)` where the op asked for them, and `len` afterwards.
    type Step = (Option<(SimTime, u64)>, Option<(SimTime, u64)>, usize);

    /// The oracle's `peek_next`: the heap top, after discarding stale
    /// timer events that surfaced there (the same rule the wheel applies).
    fn heap_peek(
        heap: &mut BinaryHeap<QueuedEvent<()>>,
        timers: &TimerSlab,
    ) -> Option<(SimTime, u64)> {
        while heap.peek().is_some_and(|ev| ev.stale_timer(timers)) {
            heap.pop();
        }
        heap.peek().map(|ev| (ev.at, ev.seq))
    }

    /// Drives a wheel and a `BinaryHeap` of the same events through `ops`
    /// (then pops until both are empty) and returns each queue's log. The
    /// oracle's pops drive virtual time and timer retirement, as the
    /// engine's would. The schedule runs twice, with sequence numbers
    /// starting at 0 and near `u64::MAX`: ordering must not depend on
    /// small sequence numbers.
    fn run_both(ops: &[Op]) -> (Vec<Step>, Vec<Step>) {
        let (mut wheel_log, mut heap_log) = (Vec::new(), Vec::new());
        for seq_base in [0, u64::MAX - (1 << 20)] {
            run_both_from(ops, seq_base, &mut wheel_log, &mut heap_log);
        }
        (wheel_log, heap_log)
    }

    fn run_both_from(
        ops: &[Op],
        seq_base: u64,
        wheel_log: &mut Vec<Step>,
        heap_log: &mut Vec<Step>,
    ) {
        let mut timers = TimerSlab::new();
        let mut wheel = TimingWheel::new();
        let mut heap = BinaryHeap::new();
        let mut queued: Vec<TimerId> = Vec::new();
        let (mut now, mut seq) = (SimTime::ZERO, seq_base);
        let mut script = ops.iter();
        loop {
            let op = match script.next() {
                Some(op) => op,
                None if !heap.is_empty() => &Op::Pop,
                None => break,
            };
            let (mut w, mut h): (Step, Step) = Default::default();
            match *op {
                Op::Deliver { delay_us } | Op::Timer { delay_us } => {
                    let id = matches!(op, Op::Timer { .. }).then(|| timers.allocate());
                    queued.extend(id);
                    let ev = || QueuedEvent {
                        at: now + SimDuration::from_micros(delay_us),
                        seq,
                        to: NodeId::new(0),
                        kind: match id {
                            Some(id) => EventKind::Timer { id, tag: 0 },
                            None => EventKind::Deliver {
                                from: NodeId::new(0),
                                msg: (),
                            },
                        },
                    };
                    wheel.push(ev());
                    heap.push(ev());
                    seq += 1;
                }
                Op::Peek | Op::Pop => {
                    w.0 = wheel.peek_next(&timers);
                    h.0 = heap_peek(&mut heap, &timers);
                    if matches!(op, Op::Pop) {
                        w.1 = wheel.pop(&timers).map(|ev| (ev.at, ev.seq));
                        // `heap_peek` left a live event on top, or nothing.
                        if let Some(ev) = heap.pop() {
                            h.1 = Some((ev.at, ev.seq));
                            now = ev.at;
                            if let EventKind::Timer { id, .. } = ev.kind {
                                timers.retire(id);
                                queued.retain(|q| *q != id);
                            }
                        }
                    }
                }
                Op::Cancel { idx } => {
                    if !queued.is_empty() {
                        timers.retire(queued.remove(idx % queued.len()));
                        wheel.invalidate_peek();
                    }
                }
            }
            w.2 = wheel.len();
            h.2 = heap.len();
            wheel_log.push(w);
            heap_log.push(h);
        }
    }

    #[test]
    fn reference_heap_matches_wheel_on_a_mixed_schedule() {
        // Six offsets per round straddling the window edge (65 535 in,
        // 70 000 and 131 072 out), 50 rounds 20 ms apart, all pushed up
        // front and then drained.
        let ops: Vec<Op> = (0..50u64)
            .flat_map(|round| {
                [3u64, 70_000, 12_345, 0, 65_535, 131_072].map(|offset| Op::Deliver {
                    delay_us: round * 20_000 + offset,
                })
            })
            .collect();
        let (wheel, heap) = run_both(&ops);
        assert_eq!(wheel, heap);
    }

    #[test]
    fn long_timers_cross_the_wheel_window_identically() {
        // Every timer exceeds the 65.536 ms slot window, forcing each one
        // through overflow promotion, between near-term deliveries and
        // cancellations of timers still buried in the overflow heap.
        let ops: Vec<Op> = (0..20u64)
            .flat_map(|i| {
                let op = match i % 3 {
                    0 => Op::Timer {
                        delay_us: (70 + 13 * i) * 1000,
                    },
                    1 => Op::Deliver {
                        delay_us: (10 + i) * 1000,
                    },
                    _ => Op::Cancel { idx: i as usize },
                };
                [op, Op::Pop]
            })
            .collect();
        let (wheel, heap) = run_both(&ops);
        assert_eq!(wheel, heap);
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Whole-millisecond delays make same-timestamp ties common, and
        // 0–200 ms straddles the 65.536 ms window: short delays land in
        // slots, long ones go through the overflow heap and are promoted.
        (0u8..6, 0u64..200, 0usize..8).prop_map(|(tag, delay_ms, idx)| {
            let delay_us = delay_ms * 1000;
            match tag {
                0 => Op::Deliver { delay_us },
                1 => Op::Timer { delay_us },
                2 => Op::Peek,
                3 | 4 => Op::Pop,
                _ => Op::Cancel { idx },
            }
        })
    }

    proptest! {
        #[test]
        fn wheel_matches_a_binary_heap_step_by_step(
            ops in proptest::collection::vec(op_strategy(), 0..120),
        ) {
            let (wheel, heap) = run_both(&ops);
            prop_assert_eq!(wheel, heap);
        }
    }
}
