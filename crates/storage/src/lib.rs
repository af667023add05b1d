//! # dimmer-storage — storage substrates for the infrastructure
//!
//! The paper's infrastructure sits on a zoo of stores:
//!
//! * every Device-proxy keeps a **local database** of samples (its middle
//!   layer) — [`tskv::TimeSeriesStore`];
//! * BIM exports behave like **relational dumps** — [`table::Table`];
//! * and the legacy databases each arrive in a **different on-disk
//!   encoding** the Database-proxies must translate — [`legacy`] (CSV,
//!   fixed-width records, INI).
//!
//! Everything runs in-memory and deterministically, but the time-series
//! store models durability: points append to a write-ahead log before
//! they are acknowledged, cold data seals into Gorilla-compressed
//! immutable segments with materialized rollups, and a node crash (which
//! wipes the volatile head) recovers by restoring the last snapshot and
//! replaying the WAL tail — see [`tskv`] and `DESIGN.md` §15.
//!
//! ## Example
//!
//! ```
//! use storage::tskv::{TimeSeriesStore, Aggregate};
//!
//! let mut store = TimeSeriesStore::new();
//! for minute in 0..60i64 {
//!     store.insert("dev1:temperature", minute * 60_000, 20.0 + (minute % 10) as f64);
//! }
//! let points = store.range("dev1:temperature", 0, 3_600_000);
//! assert_eq!(points.len(), 60);
//! let hourly = store.downsample("dev1:temperature", 0, 3_600_000, 3_600_000, Aggregate::Mean);
//! assert_eq!(hourly.len(), 1);
//! ```

pub mod legacy;
pub mod table;
pub mod tskv;

mod error;

pub use error::StorageError;
