#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Deterministic discrete-event network simulator.
//!
//! This crate is the evaluation testbed for the Pahoehoe reproduction. The
//! DSN 2010 paper evaluates the Pahoehoe protocols "by running the Pahoehoe
//! implementation in a simulated network environment" with a simple
//! performance model — each message has a latency chosen uniformly at
//! random between 10 and 30 ms — plus injected failures (node outages,
//! partitions, random message loss). `simnet` reproduces exactly that model:
//!
//! * a virtual clock ([`SimTime`]) and a seeded event queue, so every run is
//!   a pure function of its seed;
//! * an [`Actor`] trait implemented by protocol state machines (proxies,
//!   key-lookup servers, fragment servers, clients);
//! * a [`NetworkConfig`] (latency distribution, system-wide drop rate) and a
//!   [`FaultPlan`] (node outages, link outages, partitions);
//! * per-message-kind [`Metrics`] — message **count** and message **bytes**
//!   sent, the two quantities every figure in the paper reports.
//!
//! # Examples
//!
//! ```
//! use simnet::{Actor, Context, NodeId, Payload, Simulation, SimDuration};
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Payload for Ping {
//!     const KINDS: &'static [&'static str] = &["Ping"];
//!     fn kind_id(&self) -> usize { 0 }
//!     fn wire_size(&self) -> usize { 64 }
//! }
//!
//! struct Node { got: u32 }
//! impl Actor<Ping> for Node {
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {
//!         self.got += 1;
//!     }
//!     fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, _tag: u64) {
//!         let peer = NodeId::new(1 - ctx.self_id().index() as u32);
//!         ctx.send(peer, Ping);
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let a = sim.add_actor(Node { got: 0 });
//! let _b = sim.add_actor(Node { got: 0 });
//! sim.schedule_timer(a, SimDuration::from_millis(5), 0);
//! sim.run_until_quiescent();
//! assert_eq!(sim.metrics().total_count(), 1);
//! ```

pub mod actor;
pub mod engine;
pub mod metrics;
pub mod network;
pub mod node;
pub mod payload;
pub mod queue;
pub mod sweep;
pub mod time;
pub mod trace;

pub use actor::Actor;
pub use engine::{Context, Observer, RunOutcome, Simulation, TimerId};
pub use metrics::{DropStats, KindStats, Metrics};
pub use network::{FaultPlan, LatencyOverride, NetworkConfig};
pub use node::NodeId;
pub use payload::Payload;
pub use time::{SimDuration, SimTime};
pub use trace::{Disposition, TraceEvent};
