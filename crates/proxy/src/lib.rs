//! # dimmer-proxy — Device-proxies and Database-proxies
//!
//! "Each data source is therefore accompanied with its specific proxy,
//! which registers itself on a single master node." This crate implements
//! both proxy families plus the Web-Service layer they share:
//!
//! * [`webservice`] — the request/response layer (methods, paths, query
//!   strings, status codes) carried over the simulated network, with the
//!   client choosing JSON or XML per request;
//! * [`device_proxy`] — the paper's Fig. 1(b): a three-layer node with a
//!   protocol-specific *dedicated layer* ([`adapters`]), a local
//!   time-series database, and a Web-Service + publish/subscribe top
//!   layer; supports remote actuation;
//! * [`database_proxy`] — wraps one legacy database (BIM / SIM / GIS /
//!   measurement archive) behind translation endpoints;
//! * [`devices`] — the simulated field devices as network nodes (uplink
//!   emitters and polled field servers);
//! * [`registry`] — one row per protocol family: how its device pairs
//!   with its adapter, whether and on which port it is polled, what a
//!   scenario installs and its share of a typical district;
//! * [`registration`] — the register/deregister/heartbeat bodies proxies
//!   exchange with the master node, and the [`registration::MasterSession`]
//!   every proxy keeps with it.

pub mod adapters;
pub mod database_proxy;
pub mod device_proxy;
pub mod devices;
pub mod registration;
pub mod registry;
pub mod webservice;

use dimmer_core::Uri;
use simnet::{NodeId, Port};

/// Builds the `sim://n{index}{path}` URI addressing a node's Web
/// Service. The simulated network plays the role of DNS: the URI host
/// names the node.
///
/// # Panics
///
/// Panics if `path` does not satisfy the URI grammar (paths are
/// compile-time constants in practice).
pub fn node_uri(node: NodeId, path: &str) -> Uri {
    Uri::new("sim", format!("n{}", node.index()), None, path)
        .expect("node uris are grammatical by construction")
}

/// Resolves a `sim://n{index}/…` URI back to the node it addresses.
pub fn uri_node(uri: &Uri) -> Option<NodeId> {
    let index: usize = uri.host().strip_prefix('n')?.parse().ok()?;
    Some(NodeId::from_index(index))
}

/// Port of every Web-Service endpoint (proxies, master).
pub const WS_PORT: Port = Port(80);
/// Port devices push uplink frames to on their Device-proxy.
pub const DEVICE_UPLINK_PORT: Port = Port(7200);
/// Port Device-proxies push actuation frames to on their device.
pub(crate) const DEVICE_DOWNLINK_PORT: Port = Port(7201);

#[cfg(test)]
mod testkit;
