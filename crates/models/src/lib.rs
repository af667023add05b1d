//! # dimmer-models — building, network and consumption models
//!
//! The district's *information models*, as exported to per-source
//! databases:
//!
//! * [`bim`] — Building Information Models: storeys, spaces, envelope
//!   elements and equipment, with export to/import from the relational
//!   tables a BIM Database-proxy fronts;
//! * [`simmodel`] — System Information Models: distribution-network
//!   graphs (electrical feeders, district-heating loops) with export
//!   to/import from fixed-width legacy records;
//! * [`profiles`] — deterministic synthetic energy-consumption profiles
//!   that drive the simulated devices (substituting the paper's real
//!   district sensor data).
//!
//! ## Example
//!
//! ```
//! use models::bim::BuildingModel;
//! use dimmer_core::BuildingId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bim = BuildingModel::sample(&BuildingId::new("b1")?, 3, 4);
//! assert!(bim.total_floor_area_m2() > 0.0);
//! let tables = bim.to_tables();
//! let back = BuildingModel::from_tables(&tables)?;
//! assert_eq!(back, bim);
//! # Ok(())
//! # }
//! ```

pub mod bim;
pub mod profiles;
pub mod simmodel;
