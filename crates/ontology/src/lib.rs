//! # dimmer-ontology — the district ontology
//!
//! "Relationships between buildings, energy distribution networks and
//! devices are stored in the master node of the infrastructure, using an
//! ontology. The ontology depicts the structure of one or more
//! districts, each one structured as a tree."
//!
//! This crate is that ontology:
//!
//! * [`DistrictTree`] — one district: the root node with global
//!   properties (name, GIS proxy URIs), intermediate building/network
//!   nodes (BIM/SIM proxy URIs, cached GIS locations), device leaves
//!   (protocol, quantity, Device-proxy URI);
//! * [`Ontology`] — the forest of district trees with the queries the
//!   master node answers: by area, by entity kind, by quantity.
//!
//! ## Example
//!
//! ```
//! use ontology::{Ontology, EntityNode, DeviceLeaf};
//! use dimmer_core::{DistrictId, BuildingId, DeviceId, QuantityKind, Uri};
//! use gis::geo::{BoundingBox, GeoPoint};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut onto = Ontology::new();
//! let d = DistrictId::new("d1")?;
//! onto.add_district(d.clone(), "Campus North")?;
//! onto.add_building(
//!     &d,
//!     EntityNode::building(BuildingId::new("b1")?, Uri::parse("sim://n3/bim")?)
//!         .with_location(GeoPoint::new(45.07, 7.68)),
//! )?;
//! onto.add_device(&d, "b1", DeviceLeaf::new(
//!     DeviceId::new("dev1")?,
//!     "zigbee",
//!     QuantityKind::Temperature,
//!     Uri::parse("sim://n9/data")?,
//! ))?;
//! let hit = onto.resolve_area(&d, &BoundingBox::new(
//!     GeoPoint::new(45.0, 7.6), GeoPoint::new(45.1, 7.7)))?;
//! assert_eq!(hit.entities.len(), 1);
//! assert_eq!(hit.devices.len(), 1);
//! # Ok(())
//! # }
//! ```

mod forest;
mod node;

pub use forest::{AreaMatch, AreaResolution, Ontology, OntologyError};
pub use node::{DeviceLeaf, DistrictTree, EntityNode};
