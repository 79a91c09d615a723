//! Property-based tests for the discrete-event engine.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use simnet::{
    Actor, Context, Disposition, FaultPlan, NetworkConfig, NodeId, Payload, SimDuration, SimTime,
    Simulation, TraceEvent,
};

#[derive(Clone, Debug)]
struct Token(#[allow(dead_code)] u32);

impl Payload for Token {
    const KINDS: &'static [&'static str] = &["Token"];
    fn kind_id(&self) -> usize {
        0
    }
    fn wire_size(&self) -> usize {
        16
    }
}

/// Forwards each token to a fixed next hop a bounded number of times and
/// records receipt times.
struct Hop {
    next: NodeId,
    remaining: u32,
    received_at: Vec<SimTime>,
}

impl Actor<Token> for Hop {
    fn on_message(&mut self, ctx: &mut Context<'_, Token>, _from: NodeId, msg: Token) {
        self.received_at.push(ctx.now());
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.next, msg);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Token>, _tag: u64) {
        ctx.send(self.next, Token(0));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn ring(seed: u64, nodes: u32, hops: u32, drop: f64) -> Simulation<Token> {
    let mut sim = Simulation::with_network(
        seed,
        NetworkConfig {
            drop_rate: drop,
            ..NetworkConfig::paper_default()
        },
        FaultPlan::none(),
    );
    for i in 0..nodes {
        sim.add_actor(Hop {
            next: NodeId::new((i + 1) % nodes),
            remaining: hops,
            received_at: Vec::new(),
        });
    }
    sim.schedule_timer(NodeId::new(0), SimDuration::from_millis(1), 0);
    sim
}

/// Records every send of `sim` from now on.
fn traced(sim: &mut Simulation<Token>) -> Rc<RefCell<Vec<TraceEvent>>> {
    let trace = Rc::new(RefCell::new(Vec::new()));
    sim.observe(Rc::clone(&trace));
    trace
}

proptest! {
    #[test]
    fn time_never_goes_backwards(
        seed: u64,
        nodes in 2u32..8,
        hops in 0u32..50,
    ) {
        let mut sim = ring(seed, nodes, hops, 0.0);
        sim.run_until_quiescent();
        for i in 0..nodes {
            let hop: &Hop = sim.actor(NodeId::new(i));
            for w in hop.received_at.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn deliveries_respect_latency_bounds(
        seed: u64,
        nodes in 2u32..6,
    ) {
        let mut sim = ring(seed, nodes, 20, 0.0);
        sim.run_until_quiescent();
        // Collect receipt times across all hops in order; consecutive
        // deliveries are one link apart: 10..=30ms.
        let mut all: Vec<SimTime> = Vec::new();
        for i in 0..nodes {
            let hop: &Hop = sim.actor(NodeId::new(i));
            all.extend(&hop.received_at);
        }
        all.sort();
        for w in all.windows(2) {
            let gap = w[1].duration_since(w[0]).as_micros();
            prop_assert!((10_000..=30_000).contains(&gap), "gap {gap}us");
        }
    }

    #[test]
    fn same_seed_same_trace(seed: u64, drop in 0.0f64..0.5) {
        let run = |seed| {
            let mut sim = ring(seed, 4, 30, drop);
            let trace = traced(&mut sim);
            sim.run_until_quiescent();
            (
                trace.take(),
                sim.metrics().total_count(),
                sim.metrics().dropped(),
            )
        };
        let (t1, c1, d1) = run(seed);
        let (t2, c2, d2) = run(seed);
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn metrics_and_trace_agree(seed: u64, drop in 0.0f64..0.9) {
        let mut sim = ring(seed, 3, 40, drop);
        let trace = traced(&mut sim);
        sim.run_until_quiescent();
        let trace = trace.borrow();
        prop_assert_eq!(
            trace.len() as u64,
            sim.metrics().total_count(),
            "every send traced"
        );
        let dropped = trace
            .iter()
            .filter(|e| e.disposition != Disposition::Delivered)
            .count() as u64;
        prop_assert_eq!(dropped, sim.metrics().dropped());
        let bytes: u64 =
            trace.iter().map(|e| e.bytes as u64).sum();
        prop_assert_eq!(bytes, sim.metrics().total_bytes());
    }

    #[test]
    fn event_count_is_bounded_by_sends(
        seed: u64,
        nodes in 2u32..6,
        hops in 0u32..30,
    ) {
        let mut sim = ring(seed, nodes, hops, 0.0);
        sim.run_until_quiescent();
        // One timer + one delivery per surviving send.
        prop_assert!(
            sim.events_processed() <= 1 + sim.metrics().total_count()
        );
    }
}
