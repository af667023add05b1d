//! # dimmer-streams — windowed rollups for district profiling
//!
//! The paper claims the framework "profiles consumption from district
//! down to single building"; this crate is the streaming tier that
//! materializes those profiles instead of recomputing them per query:
//!
//! - [`window`] — event-time windowed operators: tumbling windows,
//!   monotonic watermarks with a bounded lateness horizon, bounded
//!   per-key state with shed accounting;
//! - `rollup` — the [`rollup::Rollup`] record shared by middleware
//!   publications, Web-Service responses and clients;
//! - [`aggregator`] — the [`aggregator::AggregatorNode`]: one per
//!   district, subscribing to measurement topics, rolling device →
//!   building → district up count-weighted (mean-of-means is exact),
//!   publishing retained rollups and serving `/rollups` redirects.

pub mod aggregator;
pub(crate) mod rollup;
pub mod window;

pub use aggregator::{AggregatorConfig, AggregatorNode, AggregatorStats};
pub use rollup::Rollup;
pub use window::{
    Accumulator, ClosedWindow, Observed, WindowSpec, WindowStats, WindowedAggregator,
};
