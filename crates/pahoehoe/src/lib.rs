#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Pahoehoe: an eventually consistent, erasure-coded key-blob archive.
//!
//! This crate reproduces the system described in *"Efficient eventual
//! consistency in Pahoehoe, an erasure-coded key-blob archive"* (DSN 2010).
//! Pahoehoe is a key-value store for binary large objects that stays
//! available during network partitions by providing **eventual
//! consistency**, and achieves durability at low cost by storing each
//! object version as `n = k + m` **erasure-coded fragments** instead of
//! replicas.
//!
//! # Architecture
//!
//! * **Clients** issue `put(key, value, policy)` and `get(key)` through a
//!   [`Proxy`](proxy::Proxy) in their data center.
//! * **Key Lookup Servers** ([`Kls`](kls::Kls)) map a key to its object
//!   versions: `(timestamp, policy, locations)` tuples.
//! * **Fragment Servers** ([`Fs`](fs::Fs)) store fragments plus the
//!   metadata needed to run **convergence** — the decentralized protocol
//!   that drives every durable object version to *at maximum redundancy*
//!   (AMR): complete metadata on every KLS and every sibling fragment on
//!   every sibling FS. Once a version is AMR, a subsequent get will never
//!   return an earlier version; that is Pahoehoe's consistency guarantee.
//!
//! All actors are deterministic state machines over
//! [`simnet`]'s discrete-event simulator, which is how the paper
//! itself evaluates the protocols.
//!
//! # Quick start
//!
//! ```
//! use pahoehoe::cluster::{Cluster, ClusterConfig};
//!
//! // Paper-default cluster: 2 data centers x (2 KLS + 3 FS), (4,12) code.
//! let mut cluster = Cluster::build(ClusterConfig::paper_default(), 42);
//! cluster.put(b"photo-1", vec![7u8; 4096]);
//! let report = cluster.run_to_convergence();
//! assert_eq!(report.amr_versions, 1);
//! assert_eq!(cluster.get(b"photo-1"), Some(vec![7u8; 4096]));
//! ```

pub mod analysis;
mod chain;
pub mod client;
pub mod cluster;
pub mod convergence;
pub mod fs;
pub mod kls;
pub mod messages;
pub mod metadata;
pub mod policy;
pub mod protocol;
pub mod proxy;
pub mod repair;
mod table;
pub mod topology;
pub mod types;
pub mod workload;

pub use convergence::ConvergenceOptions;
pub use messages::Message;
pub use metadata::{Location, Metadata};
pub use policy::Policy;
pub use protocol::ProtocolMode;
pub use repair::{RepairActor, RepairOptions};
pub use types::{Key, ObjectVersion, Timestamp};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for in-crate actor tests: a scripted driver actor
    //! that injects messages at start and records everything it receives.

    use std::any::Any;

    use simnet::{Actor, Context, NodeId};

    use crate::messages::Message;

    /// Injects `script` at start; records `(from, message)` pairs.
    pub struct Driver {
        /// Messages to send at start.
        pub script: Vec<(NodeId, Message)>,
        /// Everything received, in order.
        pub received: Vec<(NodeId, Message)>,
    }

    impl Driver {
        /// Creates a driver with the given send script.
        pub fn new(script: Vec<(NodeId, Message)>) -> Self {
            Driver {
                script,
                received: Vec::new(),
            }
        }
    }

    impl Actor<Message> for Driver {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            for (to, msg) in self.script.drain(..) {
                ctx.send(to, msg);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
            self.received.push((from, msg));
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Message>, _tag: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
}
