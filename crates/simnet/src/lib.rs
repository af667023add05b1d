//! # simnet — deterministic discrete-event network simulation substrate
//!
//! The paper's infrastructure was deployed on a real district network.
//! This crate provides the substitute substrate: a deterministic
//! discrete-event simulator in which every component of the framework
//! (master node, proxies, brokers, devices, end-user clients) runs as a
//! [`Node`] exchanging [`Packet`]s over [`LinkModel`]-governed links.
//!
//! Determinism: given the same seed and the same sequence of API calls,
//! a simulation replays identically. All randomness flows from
//! [`rng::DeterministicRng`]; event ordering is total (time, then a
//! monotonically increasing sequence number).
//!
//! There is one runner, [`Simulator`]. Built from a [`SimConfig`] it is
//! a single event engine, as in the example below; built from a
//! [`ParallelConfig`] it is several (shards) on worker threads,
//! synchronized at lookahead barriers so that the thread count never
//! changes a result. Nodes, fault plans ([`chaos`]) and deployments see
//! the same type either way.
//!
//! ## Example
//!
//! ```
//! use simnet::{Simulator, SimConfig, Node, Context, Packet, SimDuration};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
//!         ctx.send(pkt.src, pkt.port, pkt.payload);
//!     }
//! }
//!
//! struct Pinger { got: bool, peer: simnet::NodeId }
//! impl Node for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(self.peer, simnet::Port::new(7), b"ping".to_vec());
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
//!         assert_eq!(pkt.payload, b"ping");
//!         self.got = true;
//!     }
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! let echo = sim.add_node("echo", Echo);
//! let pinger = sim.add_node("pinger", Pinger { got: false, peer: echo });
//! sim.run_for(SimDuration::from_secs(1));
//! assert!(sim.node_ref::<Pinger>(pinger).unwrap().got);
//! ```

mod context;
mod event;
mod link;
mod node;
mod parallel;
mod sim;

pub mod batch;
pub mod chaos;
pub mod overload;
pub mod rng;
pub mod rpc;
pub mod time;

pub use context::Context;
pub use link::{LinkModel, LinkModelBuilder};
pub use node::{Node, NodeId, Packet, Port, TimerTag};
// `ParallelSimulator` is re-exported for `benchmark/`, its only caller.
pub use parallel::{ParallelConfig, ParallelSimulator, ParallelStats, Simulator};
pub use sim::{NetMetrics, NodeMetrics, SimConfig};
pub use time::{SimDuration, SimTime};
// Re-export the telemetry bundle so downstream crates can name it
// without a separate dependency edge.
pub use telemetry::{self, Telemetry};
