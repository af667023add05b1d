//! # dimmer-pubsub — event-driven publish/subscribe middleware
//!
//! The paper's Device-proxies "publish the information in the middleware
//! network by exploiting a publish/subscribe approach, which is a main
//! feature of the SEEMPubS middleware". This crate is that middleware,
//! rebuilt over the simulated network:
//!
//! * hierarchical [`Topic`]s with `+` (one level) and `#` (subtree)
//!   wildcard [`TopicFilter`]s;
//! * a [`BrokerNode`] with a subscription trie, retained messages and
//!   QoS 0/1 delivery (QoS 1 = broker-acked publish + retried delivery);
//! * a [`PubSubClient`] helper that any [`simnet::Node`] embeds.
//!
//! ## Example (topic matching)
//!
//! ```
//! use pubsub::{Topic, TopicFilter};
//! # fn main() -> Result<(), pubsub::PubSubError> {
//! let topic = Topic::new("district/d1/building/b7/temperature")?;
//! assert!(TopicFilter::new("district/d1/#")?.matches(&topic));
//! assert!(TopicFilter::new("district/+/building/+/temperature")?.matches(&topic));
//! assert!(!TopicFilter::new("district/d2/#")?.matches(&topic));
//! # Ok(())
//! # }
//! ```

mod broker;
mod client;
mod error;
pub mod federation;
mod topic;
mod wire;

pub use broker::{BrokerNode, BrokerStats};
pub use client::{PubSubClient, PubSubEvent};
pub use error::PubSubError;
pub use federation::{BridgeStats, FederationConfig, ShardMap};
pub use topic::{
    MeasurementTopic, RollupTopic, SubscriptionTrie, Topic, TopicFilter, TopicFilterRef, TopicRef,
};
pub use wire::{
    BridgeFrame, BridgeFrameRef, Packet as WirePacket, PacketRef as WirePacketRef, QoS, PUBSUB_PORT,
};
