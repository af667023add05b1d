//! # dimmer-core — the common data model
//!
//! The paper's central problem is heterogeneity: BIM, SIM, GIS and
//! measurement databases plus four device protocols, each with its own
//! representation. Every proxy translates its source into *one* shared
//! model, serialized in an open standard format (JSON or XML). This crate
//! is that shared model:
//!
//! * typed identifiers for districts, buildings, networks, devices and
//!   proxies ([`id`]);
//! * [`Uri`]s, the addressing currency the master node hands out;
//! * physical `units` and [`quantity`] kinds;
//! * [`Measurement`]s and batches thereof;
//! * civil [`Timestamp`]s;
//! * the dynamic [`Value`] tree plus [`json`] and [`xml`] codecs and the
//!   format-agnostic [`codec`] entry points.
//!
//! ## Example: translating to the common format
//!
//! ```
//! use dimmer_core::{Measurement, QuantityKind, Unit, Timestamp, DeviceId};
//! use dimmer_core::codec::{self, DataFormat};
//!
//! # fn main() -> Result<(), dimmer_core::CoreError> {
//! let m = Measurement::new(
//!     DeviceId::new("urn:dev:0042")?,
//!     QuantityKind::Temperature,
//!     21.5,
//!     Unit::Celsius,
//!     Timestamp::from_unix_millis(1_420_070_400_000),
//! );
//! let json = codec::encode_measurement(&m, DataFormat::Json);
//! let back = codec::decode_measurement(&json, DataFormat::Json)?;
//! assert_eq!(m, back);
//! # Ok(())
//! # }
//! ```

pub mod codec;
pub mod id;
pub mod json;
pub(crate) mod measure;
pub mod quantity;
pub(crate) mod timestamp;
pub(crate) mod units;
pub mod uri;
pub mod value;
pub mod xml;

mod error;

pub use error::CoreError;
pub use id::{BuildingId, DeviceId, DistrictId, EntityKind, NetworkId, ProxyId};
pub use measure::{Measurement, MeasurementBatch};
pub use quantity::QuantityKind;
pub use timestamp::Timestamp;
pub use units::Unit;
pub use uri::Uri;
pub use value::Value;
