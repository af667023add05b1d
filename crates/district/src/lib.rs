//! # dimmer-district — the framework facade
//!
//! Ties every subsystem together into the runnable infrastructure of the
//! paper's Fig. 1(a):
//!
//! * [`scenario`] — deterministic synthetic district generation
//!   (buildings + BIM dumps, networks + SIM dumps, GIS features,
//!   measurement archives, devices with protocol mixes);
//! * [`deploy`] — instantiates a scenario on a [`simnet::Simulator`]:
//!   master node, middleware broker, every proxy, every device;
//! * the readers, on one redirect engine (resolve at the master, fetch
//!   from the proxies it names, integrate): [`client`] integrates an
//!   area into one [`client::AreaSnapshot`]; [`relay`] is a master that
//!   fetches and aggregates itself (ablation for experiment E5);
//!   [`profile`] reads pre-computed rollups ([`profile::ProfileSnapshot`]);
//!   [`live`] resolves once, then subscribes instead of polling;
//! * [`baseline`] — the centralized comparison architecture (one server
//!   ingesting every raw frame and serving every query itself);
//! * [`report`] — plain-text tables for the experiment binaries.
//!
//! ## Quickstart
//!
//! ```
//! use district::scenario::ScenarioConfig;
//! use district::deploy::Deployment;
//! use district::client::ClientNode;
//! use simnet::{Simulator, SimConfig, SimDuration};
//!
//! let scenario = ScenarioConfig::small().build();
//! let mut sim = Simulator::new(SimConfig::default());
//! let deployment = Deployment::build(&mut sim, &scenario);
//! // Let proxies register and devices report for ten minutes.
//! sim.run_for(SimDuration::from_secs(600));
//!
//! // Query the whole first district.
//! let district = scenario.districts[0].district.clone();
//! let bbox = scenario.districts[0].bbox();
//! let client = ClientNode::spawn(&mut sim, &deployment, district, bbox);
//! sim.run_for(SimDuration::from_secs(60));
//!
//! let snapshot = sim.node_ref::<ClientNode>(client).unwrap().latest_snapshot().unwrap();
//! assert!(!snapshot.entities.is_empty());
//! assert!(!snapshot.measurements.is_empty());
//! ```

pub mod baseline;
pub mod client;
pub mod deploy;
pub mod live;
pub mod profile;
pub mod relay;
pub mod report;
pub mod scenario;

/// Unix millis of 2015-03-09T00:00:00Z — the default epoch the
/// simulations map their virtual time onto (the week of DATE 2015).
pub const DEFAULT_EPOCH_MILLIS: i64 = 1_425_859_200_000;
