//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of actors, a virtual clock, a seeded RNG and
//! a priority queue of pending events (message deliveries and timer
//! firings). Events execute in `(time, sequence)` order, so two runs with
//! the same seed and the same actor set are bit-for-bit identical.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::Actor;
use crate::metrics::Metrics;
use crate::network::{FaultPlan, NetworkConfig};
use crate::node::NodeId;
use crate::payload::Payload;
use crate::queue::{EventKind, EventQueue, Next, TimerSlab};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Disposition, TraceEvent};

pub use crate::queue::TimerId;

/// Why a `run_*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent,
    /// The caller's predicate returned `true`.
    PredicateSatisfied,
    /// The virtual-time deadline was reached.
    DeadlineReached,
}

struct Inner<M> {
    now: SimTime,
    queue: EventQueue<M>,
    /// Generation-stamped liveness for every scheduled timer; cancelling
    /// bumps a generation so the queued firing event goes stale in place.
    timers: TimerSlab,
    rng: StdRng,
    network: NetworkConfig,
    faults: FaultPlan,
    metrics: Metrics,
    observers: Vec<Box<dyn Observer<M>>>,
}

impl<M: Payload> Inner<M> {
    fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.timers.allocate();
        self.queue.push_timer(self.now + delay, node, id, tag);
        id
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let kind_id = msg.kind_id();
        let bytes = msg.wire_size();
        // Count at send time: dropped messages were still sent (§5.1).
        self.metrics.record_send(kind_id, bytes);
        let disposition = if self.faults.blocks(from, to, self.now) {
            self.metrics.record_drop(kind_id, bytes, true);
            Disposition::DroppedFault
        } else if self.network.drop_rate > 0.0 && self.rng.random::<f64>() < self.network.drop_rate
        {
            self.metrics.record_drop(kind_id, bytes, false);
            Disposition::DroppedRandom
        } else {
            Disposition::Delivered
        };
        if !self.observers.is_empty() {
            let event = TraceEvent {
                at: self.now,
                from,
                to,
                kind: msg.kind(),
                bytes,
                disposition,
            };
            for observer in &mut self.observers {
                observer.on_send(&event, &msg);
            }
        }
        if disposition != Disposition::Delivered {
            return;
        }
        // Bounded duplication (§3.1's channel model): a delivered message
        // may arrive twice, with independent latencies. The payload is
        // moved into the final delivery; only a fault-injected duplicate
        // clones it. RNG call order (one latency sample per copy, in copy
        // order) is identical either way, so traces replay byte-identically.
        if self.network.duplicate_rate > 0.0
            && self.rng.random::<f64>() < self.network.duplicate_rate
        {
            self.metrics.record_duplicate();
            let latency = self.network.sample_link_latency(from, to, &mut self.rng);
            self.queue
                .push_delivery(self.now + latency, to, from, msg.clone());
        }
        let latency = self.network.sample_link_latency(from, to, &mut self.rng);
        self.queue.push_delivery(self.now + latency, to, from, msg);
    }
}

/// The execution environment handed to an actor while it processes an
/// event. All actor effects — sending, timers, randomness — go through
/// here, keeping the run deterministic.
pub struct Context<'a, M: Payload> {
    self_id: NodeId,
    inner: &'a mut Inner<M>,
}

impl<M: Payload> Context<'_, M> {
    /// The id of the actor processing the current event.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Sends `msg` to `to`. Delivery (if the message survives the loss
    /// model) happens after a sampled network latency. Messages to self are
    /// legal and traverse the network like any other.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.inner.send(self.self_id, to, msg);
    }

    /// Adds `amount` to protocol event counter `event_id` (an index into
    /// the payload's [`EVENTS`](Payload::EVENTS) registry). Events track
    /// protocol-level happenings — cache hits, fallbacks, bytes saved —
    /// outside the per-kind message tables.
    pub fn record_event(&mut self, event_id: usize, amount: u64) {
        self.inner.metrics.record_event(event_id, amount);
    }

    /// Schedules a timer to fire on this actor after `delay`, carrying
    /// `tag` back to [`Actor::on_timer`].
    pub fn schedule_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.inner.schedule_timer(self.self_id, delay, tag)
    }

    /// Cancels a previously scheduled timer. Cancelling a timer that
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.inner.timers.retire(id);
    }

    /// The simulation's seeded random number generator.
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.inner.rng
    }
}

/// One event the engine is about to dispatch, as an observer sees it.
#[derive(Debug)]
pub enum Event<'a, M> {
    /// `msg`, sent by `from`, is delivered.
    Deliver {
        /// The sender.
        from: NodeId,
        /// The message, still owned by the engine.
        msg: &'a M,
    },
    /// The live timer `id` fires, carrying `tag`. A cancelled timer is
    /// never dispatched, so it is never shown.
    Timer {
        /// The id [`Context::schedule_timer`] returned for it.
        id: TimerId,
        /// The tag it was scheduled with.
        tag: u64,
    },
}

/// Watches a run: every event before it is dispatched, every message send
/// with its message, and the whole simulation after every processed event,
/// with the node that event ran on. Every call does nothing by default.
/// Install one with [`Simulation::observe`].
pub trait Observer<M: Payload> {
    /// Called once per dispatched event, before the actor at `node` handles
    /// it: the sends it makes and its [`after_event`](Self::after_event)
    /// follow.
    fn before_event(&mut self, node: NodeId, event: &Event<'_, M>) {
        let _ = (node, event);
    }

    /// Called once per [`Context::send`] of `msg`, after the loss and fault
    /// models decided the message's [`Disposition`] (dropped sends
    /// included).
    fn on_send(&mut self, event: &TraceEvent, msg: &M) {
        let _ = (event, msg);
    }

    /// Called after **every** processed event (message delivery or timer
    /// firing), once the acting actor's handler has returned, so every
    /// accessor of `sim` sees a consistent state. `node` is the actor the
    /// event was addressed to: the only one whose state the event could
    /// change.
    fn after_event(&mut self, sim: &Simulation<M>, node: NodeId) {
        let _ = (sim, node);
    }
}

/// A shared observer: the caller keeps a clone and reads it after the run.
/// Keep every borrow of it scoped: the simulation borrows it mutably on
/// each send and event.
impl<M: Payload, O: Observer<M>> Observer<M> for Rc<RefCell<O>> {
    fn before_event(&mut self, node: NodeId, event: &Event<'_, M>) {
        self.borrow_mut().before_event(node, event);
    }

    fn on_send(&mut self, event: &TraceEvent, msg: &M) {
        self.borrow_mut().on_send(event, msg);
    }

    fn after_event(&mut self, sim: &Simulation<M>, node: NodeId) {
        self.borrow_mut().after_event(sim, node);
    }
}

/// An unbounded record of every send, in send order.
impl<M: Payload> Observer<M> for Vec<TraceEvent> {
    fn on_send(&mut self, event: &TraceEvent, _msg: &M) {
        self.push(event.clone());
    }
}

/// A deterministic discrete-event simulation over actors exchanging
/// messages of type `M`.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulation<M: Payload> {
    actors: Vec<Box<dyn Actor<M>>>,
    inner: Inner<M>,
    started: bool,
    events_processed: u64,
}

impl<M: Payload> Simulation<M> {
    /// Creates a simulation with the paper-default network model
    /// (uniform 10–30 ms latency, no loss) and no scheduled faults.
    pub fn new(seed: u64) -> Self {
        Simulation::with_network(seed, NetworkConfig::paper_default(), FaultPlan::none())
    }

    /// Creates a simulation with an explicit network model and fault plan.
    pub fn with_network(seed: u64, network: NetworkConfig, faults: FaultPlan) -> Self {
        Simulation {
            actors: Vec::new(),
            inner: Inner {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                timers: TimerSlab::new(),
                rng: StdRng::seed_from_u64(seed),
                network,
                faults,
                metrics: Metrics::for_payload::<M>(),
                observers: Vec::new(),
            },
            started: false,
            events_processed: 0,
        }
    }

    /// Appends `observer` to the ones watching this run. Each sees every
    /// event and every send from now on, in installation order — the seam
    /// for invariant checkers and message traces. With none installed, a
    /// send pays one branch and an event two.
    pub fn observe(&mut self, observer: impl Observer<M> + 'static) {
        self.inner.observers.push(Box::new(observer));
    }

    /// Adds an actor and returns its node id. Ids are dense indices in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started running.
    pub fn add_actor<A: Actor<M> + 'static>(&mut self, actor: A) -> NodeId {
        assert!(!self.started, "cannot add actors after the run started");
        let id = NodeId::new(self.actors.len() as u32);
        self.actors.push(Box::new(actor));
        id
    }

    /// Number of actors in the simulation.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Schedules a timer on `node` from outside the simulation (e.g. to
    /// kick off a client workload).
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        self.inner.schedule_timer(node, delay, tag)
    }

    /// Cancels a pending timer from outside the simulation. Cancelled
    /// timers never fire and are skipped by the queue without counting as
    /// events. Cancelling an already-fired or already-cancelled timer is
    /// a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.inner.timers.retire(id);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Traffic metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The fault plan (immutable once running).
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of timers currently scheduled and neither fired nor
    /// cancelled. Cancelled and fired timers leave no bookkeeping behind,
    /// so at quiescence this is zero.
    pub fn pending_timers(&self) -> usize {
        self.inner.timers.live_count()
    }

    /// Borrows the actor at `id`, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the actor is not a `T`.
    pub fn actor<T: Any>(&self, id: NodeId) -> &T {
        self.try_actor(id).expect("actor type mismatch")
    }

    /// Borrows the actor at `id` if it is a `T`.
    pub fn try_actor<T: Any>(&self, id: NodeId) -> Option<&T> {
        self.actors
            .get(id.index())
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Mutably borrows the actor at `id`, downcast to its concrete type.
    /// Intended for harnesses injecting work between run calls (e.g.
    /// appending to a scripted client); pair it with
    /// [`schedule_timer`](Self::schedule_timer) to wake the actor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the actor is not a `T`.
    pub fn actor_mut<T: Any>(&mut self, id: NodeId) -> &mut T {
        self.actors
            .get_mut(id.index())
            .and_then(|a| a.as_any_mut().downcast_mut::<T>())
            .expect("actor type mismatch")
    }

    /// Runs until no events remain.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.run_impl(SimTime::MAX, |_| false)
    }

    /// Runs until `pred` holds or the queue drains.
    ///
    /// `pred` is evaluated once before the run starts and then exactly
    /// once per **dispatched** event (message delivery or timer firing).
    /// Queue housekeeping that dispatches nothing — discarding cancelled
    /// timers — never re-evaluates it.
    pub fn run_until(&mut self, pred: impl FnMut(&Simulation<M>) -> bool) -> RunOutcome {
        self.run_impl(SimTime::MAX, pred)
    }

    /// Runs until virtual time reaches `deadline` or the queue drains.
    /// Events scheduled exactly at the deadline do not execute.
    pub fn run_until_time(&mut self, deadline: SimTime) -> RunOutcome {
        self.run_impl(deadline, |_| false)
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for (i, actor) in self.actors.iter_mut().enumerate() {
            let mut ctx = Context {
                self_id: NodeId::new(i as u32),
                inner: &mut self.inner,
            };
            actor.on_start(&mut ctx);
        }
    }

    fn run_impl(
        &mut self,
        deadline: SimTime,
        mut pred: impl FnMut(&Simulation<M>) -> bool,
    ) -> RunOutcome {
        self.start_if_needed();
        if pred(self) {
            return RunOutcome::PredicateSatisfied;
        }
        loop {
            // One call per event: the queue discards cancelled timers
            // itself, so housekeeping neither counts as an event nor
            // re-evaluates the caller's predicate.
            let ev = match self.inner.queue.pop_before(deadline, &self.inner.timers) {
                Next::Due(ev) => ev,
                Next::Drained if deadline == SimTime::MAX => return RunOutcome::Quiescent,
                // With an explicit deadline, an idle simulation still
                // advances its clock to the deadline, so callers can move
                // virtual time forward past scheduled fault windows. A
                // deadline already in the past leaves the clock alone:
                // virtual time is monotone.
                Next::Drained | Next::NotBefore => {
                    self.inner.now = self.inner.now.max(deadline);
                    return RunOutcome::DeadlineReached;
                }
            };
            debug_assert!(ev.at >= self.inner.now, "time went backwards");
            self.inner.now = ev.at;
            self.events_processed += 1;

            if !self.inner.observers.is_empty() {
                let event = match &ev.kind {
                    EventKind::Deliver { from, msg } => Event::Deliver { from: *from, msg },
                    &EventKind::Timer { id, tag } => Event::Timer { id, tag },
                };
                for observer in &mut self.inner.observers {
                    observer.before_event(ev.to, &event);
                }
            }

            // lint:allow(panic-path): NodeIds are minted by add_actor, so the slot exists
            let actor = &mut self.actors[ev.to.index()];
            let mut ctx = Context {
                self_id: ev.to,
                inner: &mut self.inner,
            };
            match ev.kind {
                EventKind::Deliver { from, msg } => actor.on_message(&mut ctx, from, msg),
                EventKind::Timer { id, tag } => {
                    ctx.inner.timers.retire(id);
                    actor.on_timer(&mut ctx, tag);
                }
            }

            // An observer borrows the whole simulation, so the list leaves
            // `inner` for the duration of the calls.
            if !self.inner.observers.is_empty() {
                let mut observers = std::mem::take(&mut self.inner.observers);
                for observer in &mut observers {
                    observer.after_event(self, ev.to);
                }
                self.inner.observers = observers;
            }

            if pred(self) {
                return RunOutcome::PredicateSatisfied;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl Payload for Msg {
        const KINDS: &'static [&'static str] = &["Ping", "Pong"];
        fn kind_id(&self) -> usize {
            match self {
                Msg::Ping(_) => 0,
                Msg::Pong(_) => 1,
            }
        }
        fn wire_size(&self) -> usize {
            match self {
                Msg::Ping(_) => 100,
                Msg::Pong(_) => 50,
            }
        }
    }

    /// Sends `rounds` pings to a peer, counting pongs.
    struct Pinger {
        peer: NodeId,
        rounds: u32,
        pongs: u32,
        last_pong_at: SimTime,
    }

    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            for i in 0..self.rounds {
                ctx.send(self.peer, Msg::Ping(i));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Pong(_) = msg {
                self.pongs += 1;
                self.last_pong_at = ctx.now();
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _tag: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Replies Pong to every Ping.
    struct Ponger;
    impl Actor<Msg> for Ponger {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(i) = msg {
                ctx.send(from, Msg::Pong(i));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _tag: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ping_pong_sim(seed: u64, rounds: u32) -> (Simulation<Msg>, NodeId) {
        let mut sim = Simulation::new(seed);
        let ponger = sim.add_actor(Ponger);
        let pinger = sim.add_actor(Pinger {
            peer: ponger,
            rounds,
            pongs: 0,
            last_pong_at: SimTime::ZERO,
        });
        (sim, pinger)
    }

    #[test]
    fn request_reply_roundtrip() {
        let mut sim = Simulation::new(7);
        let ponger = sim.add_actor(Ponger);
        let pinger = sim.add_actor(Pinger {
            peer: ponger,
            rounds: 10,
            pongs: 0,
            last_pong_at: SimTime::ZERO,
        });
        assert_eq!(sim.run_until_quiescent(), RunOutcome::Quiescent);
        let p: &Pinger = sim.actor(pinger);
        assert_eq!(p.pongs, 10);
        // 10 pings + 10 pongs.
        assert_eq!(sim.metrics().total_count(), 20);
        assert_eq!(sim.metrics().kind("Ping").bytes, 1000);
        assert_eq!(sim.metrics().kind("Pong").bytes, 500);
        // Each round trip takes 20..60ms; all in flight concurrently.
        assert!(p.last_pong_at >= SimTime::from_micros(20_000));
        assert!(p.last_pong_at <= SimTime::from_micros(60_000));
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let run = |seed| {
            let (mut sim, pinger) = ping_pong_sim(seed, 50);
            sim.run_until_quiescent();
            let p: &Pinger = sim.actor(pinger);
            (p.last_pong_at, sim.metrics().total_count())
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123).0, run(456).0, "different seeds differ");
    }

    #[test]
    fn drop_rate_one_loses_everything() {
        let mut sim =
            Simulation::with_network(1, NetworkConfig::with_drop_rate(1.0), FaultPlan::none());
        let ponger = sim.add_actor(Ponger);
        let pinger = sim.add_actor(Pinger {
            peer: ponger,
            rounds: 5,
            pongs: 0,
            last_pong_at: SimTime::ZERO,
        });
        sim.run_until_quiescent();
        let p: &Pinger = sim.actor(pinger);
        assert_eq!(p.pongs, 0);
        assert_eq!(sim.metrics().total_count(), 5, "sends still counted");
        assert_eq!(sim.metrics().dropped(), 5);
    }

    #[test]
    fn node_outage_blocks_messages_then_heals() {
        struct LateSender {
            peer: NodeId,
        }
        impl Actor<Msg> for LateSender {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(self.peer, Msg::Ping(0)); // during outage: dropped
                ctx.schedule_timer(SimDuration::from_secs(120), 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: u64) {
                ctx.send(self.peer, Msg::Ping(1)); // after outage: delivered
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Counter {
            seen: Vec<u32>,
        }
        impl Actor<Msg> for Counter {
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
                if let Msg::Ping(i) = msg {
                    self.seen.push(i);
                }
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _tag: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let counter_id = NodeId::new(0);
        let mut faults = FaultPlan::none();
        faults.add_node_outage(counter_id, SimTime::ZERO, SimDuration::from_secs(60));
        let mut sim = Simulation::with_network(9, NetworkConfig::paper_default(), faults);
        let c = sim.add_actor(Counter { seen: Vec::new() });
        assert_eq!(c, counter_id);
        sim.add_actor(LateSender { peer: c });
        sim.run_until_quiescent();
        let counter: &Counter = sim.actor(c);
        assert_eq!(counter.seen, vec![1], "only the post-outage ping lands");
    }

    #[test]
    fn duplicate_rate_one_delivers_everything_twice() {
        let mut sim = Simulation::with_network(
            4,
            NetworkConfig {
                duplicate_rate: 1.0,
                ..NetworkConfig::paper_default()
            },
            FaultPlan::none(),
        );
        let ponger = sim.add_actor(Ponger);
        let pinger = sim.add_actor(Pinger {
            peer: ponger,
            rounds: 5,
            pongs: 0,
            last_pong_at: SimTime::ZERO,
        });
        sim.run_until_quiescent();
        let p: &Pinger = sim.actor(pinger);
        // 5 pings delivered twice -> 10 pongs sent, each delivered twice.
        assert_eq!(p.pongs, 20);
        // Sends counted once per protocol send: 5 pings + 10 pongs.
        assert_eq!(sim.metrics().total_count(), 15);
        assert_eq!(sim.metrics().duplicated(), 15);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct TimerBox {
            fired: Vec<u64>,
            to_cancel: Option<TimerId>,
        }
        impl Actor<Msg> for TimerBox {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.schedule_timer(SimDuration::from_millis(30), 3);
                ctx.schedule_timer(SimDuration::from_millis(10), 1);
                self.to_cancel = Some(ctx.schedule_timer(SimDuration::from_millis(20), 2));
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
                self.fired.push(tag);
                if tag == 1 {
                    let id = self.to_cancel.take().expect("set in on_start");
                    ctx.cancel_timer(id);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(5);
        let id = sim.add_actor(TimerBox {
            fired: Vec::new(),
            to_cancel: None,
        });
        sim.run_until_quiescent();
        let b: &TimerBox = sim.actor(id);
        assert_eq!(b.fired, vec![1, 3], "tag 2 cancelled, order preserved");
    }

    #[test]
    fn cancelled_and_fired_timers_leave_no_bookkeeping() {
        struct Canceller {
            kept: Option<TimerId>,
        }
        impl Actor<Msg> for Canceller {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                // One timer fires; one is cancelled before firing; and the
                // fired one is cancelled again afterwards (a no-op).
                self.kept = Some(ctx.schedule_timer(SimDuration::from_millis(1), 1));
                let doomed = ctx.schedule_timer(SimDuration::from_millis(2), 2);
                ctx.cancel_timer(doomed);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
                assert_eq!(tag, 1, "cancelled timer must not fire");
                let id = self.kept.expect("set in on_start");
                ctx.cancel_timer(id); // already fired: must not leak
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(11);
        sim.add_actor(Canceller { kept: None });
        assert_eq!(sim.run_until_quiescent(), RunOutcome::Quiescent);
        assert_eq!(sim.pending_timers(), 0, "no timer bookkeeping survives");
    }

    /// Records every timer firing; on tag 0 it first cancels `victim`
    /// through its context.
    struct TimerLog {
        fired: Vec<(u64, SimTime)>,
        victim: Option<TimerId>,
    }
    impl Actor<Msg> for TimerLog {
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
            self.fired.push((tag, ctx.now()));
            if let (0, Some(id)) = (tag, self.victim.take()) {
                ctx.cancel_timer(id);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_timer_cancelled_between_runs_never_fires() {
        // A run that stops at its deadline leaves timer A at the front of
        // the queue. Once A is cancelled, the next run must neither fire it
        // nor take its time for the next live event's and dispatch
        // whatever follows it, deadline or not. The same holds when A is
        // cancelled from inside a dispatch.
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        for from_inside in [false, true] {
            let mut sim: Simulation<Msg> = Simulation::new(1);
            let node = sim.add_actor(TimerLog {
                fired: Vec::new(),
                victim: None,
            });
            let a = sim.schedule_timer(node, SimDuration::from_millis(5), 1);
            sim.schedule_timer(node, SimDuration::from_millis(50), 2);
            if from_inside {
                // A timer ahead of A cancels it through its `Context`.
                sim.schedule_timer(node, SimDuration::from_millis(2), 0);
                sim.actor_mut::<TimerLog>(node).victim = Some(a);
            }
            assert_eq!(sim.run_until_time(at(1)), RunOutcome::DeadlineReached);
            if !from_inside {
                sim.cancel_timer(a);
            }
            assert_eq!(sim.run_until_time(at(20)), RunOutcome::DeadlineReached);
            assert_eq!(sim.now(), at(20), "inside={from_inside}");
            let early: &[(u64, SimTime)] = if from_inside { &[(0, at(2))] } else { &[] };
            assert_eq!(sim.actor::<TimerLog>(node).fired, early);
            assert_eq!(sim.events_processed(), early.len() as u64);

            assert_eq!(sim.run_until_quiescent(), RunOutcome::Quiescent);
            let fired = &sim.actor::<TimerLog>(node).fired;
            assert_eq!(fired.last(), Some(&(2, at(50))), "B fires on time");
            assert!(fired.iter().all(|&(tag, _)| tag != 1), "A never fires");
            assert_eq!(sim.pending_timers(), 0);
        }
    }

    /// The paper's network with every link's latency fixed at `ms`.
    fn fixed_latency(ms: u64) -> NetworkConfig {
        NetworkConfig {
            latency_min: SimDuration::from_millis(ms),
            latency_max: SimDuration::from_millis(ms),
            ..NetworkConfig::paper_default()
        }
    }

    #[test]
    fn a_timer_and_a_delivery_due_together_run_in_scheduling_order() {
        /// Sets a 10 ms timer and sends itself a message that arrives at
        /// the same microsecond, in the order `timer_first` says, and logs
        /// what ran when.
        struct Tie {
            timer_first: bool,
            ran: Vec<(&'static str, SimTime)>,
        }
        impl Actor<Msg> for Tie {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let me = ctx.self_id();
                if self.timer_first {
                    ctx.schedule_timer(SimDuration::from_millis(10), 0);
                    ctx.send(me, Msg::Ping(0));
                } else {
                    ctx.send(me, Msg::Ping(0));
                    ctx.schedule_timer(SimDuration::from_millis(10), 0);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {
                self.ran.push(("message", ctx.now()));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: u64) {
                self.ran.push(("timer", ctx.now()));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let due = SimTime::ZERO + SimDuration::from_millis(10);
        for timer_first in [true, false] {
            let mut sim = Simulation::with_network(1, fixed_latency(10), FaultPlan::none());
            let id = sim.add_actor(Tie {
                timer_first,
                ran: Vec::new(),
            });
            assert_eq!(sim.run_until_quiescent(), RunOutcome::Quiescent);
            let order = if timer_first {
                [("timer", due), ("message", due)]
            } else {
                [("message", due), ("timer", due)]
            };
            assert_eq!(sim.actor::<Tie>(id).ran, order, "timer_first={timer_first}");
        }
    }

    #[test]
    fn predicate_runs_once_per_dispatched_event() {
        // `run_until` evaluates its predicate once up front and once per
        // *dispatched* event — never for queue housekeeping such as
        // skipping cancelled timers.
        let mut sim = Simulation::with_network(7, fixed_latency(10), FaultPlan::none());
        let ponger = sim.add_actor(Ponger);
        sim.add_actor(Pinger {
            peer: ponger,
            rounds: 2,
            pongs: 0,
            last_pong_at: SimTime::ZERO,
        });
        let log = sim.add_actor(TimerLog {
            fired: Vec::new(),
            victim: None,
        });
        // Five timers, three cancelled while still queued, and a sixth,
        // cancelled, due at the microsecond both pings arrive (10 ms) and
        // ahead of them in scheduling order: the cancelled ones are
        // skipped inside the queue and must not be visible to the
        // predicate.
        let mut ids: Vec<TimerId> = (0..5)
            .map(|i| sim.schedule_timer(log, SimDuration::from_millis(2 + i), 10 + i))
            .collect();
        ids.push(sim.schedule_timer(log, SimDuration::from_millis(10), 20));
        for id in [ids[0], ids[2], ids[4], ids[5]] {
            sim.cancel_timer(id);
        }
        let calls = std::cell::Cell::new(0u64);
        sim.run_until(|_| {
            calls.set(calls.get() + 1);
            false
        });
        assert_eq!(sim.events_processed(), 6, "2 pings, 2 pongs, 2 timers");
        assert_eq!(
            calls.get(),
            1 + sim.events_processed(),
            "one call up front plus one per dispatch"
        );
        let ms = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        assert_eq!(
            sim.actor::<TimerLog>(log).fired,
            [(11, ms(3)), (13, ms(5))],
            "no cancelled timer fires"
        );
    }

    #[test]
    fn every_observer_sees_every_event_and_every_send() {
        /// Counts what it is shown and checks it is called after each event.
        struct Watch {
            pinger: NodeId,
            sends: u64,
            not_delivered: u64,
            events: u64,
            pongs: u32,
        }
        impl Observer<Msg> for Watch {
            fn on_send(&mut self, event: &TraceEvent, _msg: &Msg) {
                self.sends += 1;
                if event.disposition != Disposition::Delivered {
                    self.not_delivered += 1;
                }
            }
            fn after_event(&mut self, sim: &Simulation<Msg>, node: NodeId) {
                self.events += 1;
                assert_eq!(sim.events_processed(), self.events, "runs after each event");
                let pongs = sim.actor::<Pinger>(self.pinger).pongs;
                if node != self.pinger {
                    assert_eq!(pongs, self.pongs, "only the event's node changes");
                }
                self.pongs = pongs;
            }
        }

        let mut sim =
            Simulation::with_network(7, NetworkConfig::with_drop_rate(0.3), FaultPlan::none());
        let ponger = sim.add_actor(Ponger);
        let pinger = sim.add_actor(Pinger {
            peer: ponger,
            rounds: 40,
            pongs: 0,
            last_pong_at: SimTime::ZERO,
        });
        let watch = || {
            Rc::new(RefCell::new(Watch {
                pinger,
                sends: 0,
                not_delivered: 0,
                events: 0,
                pongs: 0,
            }))
        };
        let (first, second) = (watch(), watch());
        sim.observe(Rc::clone(&first));
        sim.observe(Rc::clone(&second));
        sim.run_until_quiescent();
        let m = sim.metrics();
        assert!(m.dropped() > 0, "the loss model dropped something");
        for watch in [first, second] {
            let w = watch.borrow();
            assert_eq!(w.sends, m.total_count());
            assert_eq!(w.not_delivered, m.dropped());
            assert_eq!(w.events, sim.events_processed());
            assert_eq!(
                w.pongs,
                sim.actor::<Pinger>(pinger).pongs,
                "sees actor state"
            );
        }
    }

    /// What an observer or an actor logged, in the order it happened.
    #[derive(Clone, Debug, PartialEq)]
    enum Entry {
        /// At the first node, a message from the second.
        Delivered(NodeId, NodeId, Msg),
        /// At the node, the timer with this id and tag.
        Fired(NodeId, TimerId, u64),
        /// A message from the first node to the second.
        Sent(NodeId, NodeId, Msg),
        /// The end of an event at the node.
        After(NodeId),
    }

    /// Pings its peer at start and on each live timer, answers each ping,
    /// and logs what it handles and sends to a log it shares with its peer.
    /// It schedules six timers at start and cancels every odd-tagged one.
    struct Echo {
        peer: NodeId,
        log: Rc<RefCell<Vec<Entry>>>,
        timers: Vec<TimerId>,
    }

    impl Echo {
        fn send(&mut self, ctx: &mut Context<'_, Msg>, msg: Msg) {
            let entry = Entry::Sent(ctx.self_id(), self.peer, msg.clone());
            self.log.borrow_mut().push(entry);
            ctx.send(self.peer, msg);
        }
    }

    impl Actor<Msg> for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.send(ctx, Msg::Ping(0));
            for tag in 0..6 {
                let id = ctx.schedule_timer(SimDuration::from_millis(5 * tag), tag);
                if tag % 2 == 1 {
                    ctx.cancel_timer(id);
                }
                self.timers.push(id);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            let entry = Entry::Delivered(ctx.self_id(), from, msg.clone());
            self.log.borrow_mut().push(entry);
            if let Msg::Ping(i) = msg {
                self.send(ctx, Msg::Pong(i));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
            let entry = Entry::Fired(ctx.self_id(), self.timers[tag as usize], tag);
            self.log.borrow_mut().push(entry);
            self.send(ctx, Msg::Ping(100 + tag as u32));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Logs every call it gets.
    struct Watch(Vec<Entry>);

    impl Observer<Msg> for Watch {
        fn before_event(&mut self, node: NodeId, event: &Event<'_, Msg>) {
            self.0.push(match *event {
                Event::Deliver { from, msg } => Entry::Delivered(node, from, msg.clone()),
                Event::Timer { id, tag } => Entry::Fired(node, id, tag),
            });
        }
        fn on_send(&mut self, event: &TraceEvent, msg: &Msg) {
            assert_eq!(event.kind, Msg::KINDS[msg.kind_id()]);
            self.0.push(Entry::Sent(event.from, event.to, msg.clone()));
        }
        fn after_event(&mut self, _sim: &Simulation<Msg>, node: NodeId) {
            self.0.push(Entry::After(node));
        }
    }

    #[test]
    fn before_event_shows_each_dispatch_with_its_message_or_timer_first() {
        let network = NetworkConfig {
            drop_rate: 0.2,
            duplicate_rate: 0.2,
            ..NetworkConfig::paper_default()
        };
        let mut sim = Simulation::with_network(3, network, FaultPlan::none());
        let log = Rc::new(RefCell::new(Vec::new()));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for peer in [b, a] {
            sim.add_actor(Echo {
                peer,
                log: Rc::clone(&log),
                timers: Vec::new(),
            });
        }
        let watch = Rc::new(RefCell::new(Watch(Vec::new())));
        sim.observe(Rc::clone(&watch));
        sim.run_until_quiescent();
        let (m, seen) = (sim.metrics(), &watch.borrow().0);
        assert!(
            m.dropped() > 0 && m.duplicated() > 0,
            "loss and duplication both ran"
        );

        // Every dispatch exactly once and in order, each with its message
        // or timer id; every send with the message sent, after its event.
        let calls: Vec<Entry> = seen
            .iter()
            .filter(|e| !matches!(e, Entry::After(_)))
            .cloned()
            .collect();
        assert_eq!(calls, *log.borrow());
        let dispatched = seen.iter().filter(|e| !matches!(e, Entry::Sent(..)));
        assert_eq!(dispatched.count() as u64, 2 * sim.events_processed());

        // Each event's sends and then its `after_event` come before the
        // next event; the sends before the first event are `on_start`'s.
        let mut open = None;
        for entry in seen {
            match *entry {
                Entry::Delivered(node, ..) | Entry::Fired(node, ..) => {
                    assert_eq!(open.replace(node), None, "{entry:?}");
                }
                Entry::Sent(from, ..) => assert!(open.is_none_or(|n| n == from)),
                Entry::After(node) => assert_eq!(open.take(), Some(node)),
            }
        }
        assert_eq!(open, None);

        // The three cancelled timers of each node never show.
        for node in [a, b] {
            let timers = &sim.actor::<Echo>(node).timers;
            let fired: Vec<TimerId> = seen
                .iter()
                .filter_map(|e| match *e {
                    Entry::Fired(n, id, _) if n == node => Some(id),
                    _ => None,
                })
                .collect();
            assert_eq!(fired, [timers[0], timers[2], timers[4]]);
        }
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let mut sim = Simulation::new(3);
        let ponger = sim.add_actor(Ponger);
        let pinger = sim.add_actor(Pinger {
            peer: ponger,
            rounds: 100,
            pongs: 0,
            last_pong_at: SimTime::ZERO,
        });
        let outcome = sim.run_until(|s| s.actor::<Pinger>(pinger).pongs >= 5);
        assert_eq!(outcome, RunOutcome::PredicateSatisfied);
        assert!(sim.actor::<Pinger>(pinger).pongs >= 5);
        assert!(sim.actor::<Pinger>(pinger).pongs < 100);
    }

    #[test]
    fn run_until_time_stops_at_deadline() {
        let mut sim = Simulation::new(3);
        let ponger = sim.add_actor(Ponger);
        sim.add_actor(Pinger {
            peer: ponger,
            rounds: 10,
            pongs: 0,
            last_pong_at: SimTime::ZERO,
        });
        let deadline = SimTime::from_micros(15_000);
        let outcome = sim.run_until_time(deadline);
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(sim.now(), deadline);
    }

    #[test]
    fn try_actor_type_checks() {
        let mut sim: Simulation<Msg> = Simulation::new(0);
        let id = sim.add_actor(Ponger);
        assert!(sim.try_actor::<Ponger>(id).is_some());
        assert!(sim.try_actor::<Pinger>(id).is_none());
        assert!(sim.try_actor::<Ponger>(NodeId::new(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "after the run started")]
    fn adding_actor_after_start_panics() {
        let mut sim: Simulation<Msg> = Simulation::new(0);
        sim.add_actor(Ponger);
        sim.run_until_quiescent();
        sim.add_actor(Ponger);
    }
}
