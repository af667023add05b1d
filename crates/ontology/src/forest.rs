//! The ontology forest and the master node's queries.

use std::collections::BTreeMap;
use std::fmt;

use dimmer_core::{CoreError, DistrictId, EntityKind, QuantityKind, Uri, Value};
use gis::geo::BoundingBox;

use crate::node::{DeviceLeaf, DistrictTree, EntityNode};

/// Errors raised by ontology operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OntologyError {
    /// The district already exists.
    DuplicateDistrict(DistrictId),
    /// The district does not exist.
    UnknownDistrict(DistrictId),
    /// The entity id is already taken within the district.
    DuplicateEntity {
        /// The district involved.
        district: DistrictId,
        /// The duplicated entity id.
        entity: String,
    },
    /// The entity does not exist within the district.
    UnknownEntity {
        /// The district involved.
        district: DistrictId,
        /// The missing entity id.
        entity: String,
    },
    /// A value could not be decoded into ontology structure.
    Decode(CoreError),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntologyError::DuplicateDistrict(d) => write!(f, "district {d} already exists"),
            OntologyError::UnknownDistrict(d) => write!(f, "unknown district {d}"),
            OntologyError::DuplicateEntity { district, entity } => {
                write!(f, "entity {entity:?} already exists in district {district}")
            }
            OntologyError::UnknownEntity { district, entity } => {
                write!(f, "unknown entity {entity:?} in district {district}")
            }
            OntologyError::Decode(e) => write!(f, "cannot decode ontology value: {e}"),
        }
    }
}

impl std::error::Error for OntologyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OntologyError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for OntologyError {
    fn from(e: CoreError) -> Self {
        OntologyError::Decode(e)
    }
}

/// What the master node returns for an area query: the URIs the client
/// must dereference, "accompanied with additional information".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AreaResolution {
    /// GIS Database-proxies of the district (for geometry retrieval).
    pub(crate) gis_proxies: Vec<Uri>,
    /// Measurement-database proxies of the district.
    pub(crate) measurement_proxies: Vec<Uri>,
    /// The matched intermediate entities (buildings/networks) —
    /// independent copies carrying their Database-proxy URI.
    pub entities: Vec<EntityNode>,
    /// Every device leaf under the matched entities.
    pub devices: Vec<DeviceLeaf>,
}

impl AreaResolution {
    /// Translates to the common data format (the master's response body).
    pub fn to_value(&self) -> Value {
        Value::object([
            (
                "gis_proxies",
                Value::Array(
                    self.gis_proxies
                        .iter()
                        .map(|u| Value::from(u.to_string()))
                        .collect(),
                ),
            ),
            (
                "measurement_proxies",
                Value::Array(
                    self.measurement_proxies
                        .iter()
                        .map(|u| Value::from(u.to_string()))
                        .collect(),
                ),
            ),
            (
                "entities",
                Value::Array(self.entities.iter().map(EntityNode::to_value).collect()),
            ),
            (
                "devices",
                Value::Array(self.devices.iter().map(DeviceLeaf::to_value).collect()),
            ),
        ])
    }

    /// Decodes a value produced by [`AreaResolution::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        const T: &str = "area resolution";
        let uris = |key: &str| -> Result<Vec<Uri>, CoreError> {
            v.require_array(T, key)?
                .iter()
                .map(|u| {
                    u.as_str()
                        .ok_or_else(|| CoreError::Shape {
                            target: T,
                            reason: format!("{key} entries must be strings"),
                        })
                        .and_then(Uri::parse)
                })
                .collect()
        };
        Ok(AreaResolution {
            gis_proxies: uris("gis_proxies")?,
            measurement_proxies: uris("measurement_proxies")?,
            entities: v
                .require_array(T, "entities")?
                .iter()
                .map(EntityNode::from_value)
                .collect::<Result<Vec<_>, _>>()?,
            devices: v
                .require_array(T, "devices")?
                .iter()
                .map(DeviceLeaf::from_value)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// The forest of district trees held by the master node.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ontology {
    districts: BTreeMap<DistrictId, DistrictTree>,
}

impl Ontology {
    /// Creates an empty ontology.
    pub fn new() -> Self {
        Ontology::default()
    }

    /// Number of districts.
    pub fn district_count(&self) -> usize {
        self.districts.len()
    }

    /// Total number of entities across districts.
    pub fn entity_count(&self) -> usize {
        self.districts.values().map(|d| d.entities().len()).sum()
    }

    /// Total number of device leaves across districts.
    pub fn device_count(&self) -> usize {
        self.districts
            .values()
            .map(DistrictTree::device_count)
            .sum()
    }

    /// Adds an empty district.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::DuplicateDistrict`] if it exists.
    pub fn add_district(
        &mut self,
        district: DistrictId,
        name: impl Into<String>,
    ) -> Result<(), OntologyError> {
        if self.districts.contains_key(&district) {
            return Err(OntologyError::DuplicateDistrict(district));
        }
        self.districts
            .insert(district.clone(), DistrictTree::new(district, name));
        Ok(())
    }

    /// Inserts a complete district tree (e.g. decoded from a snapshot).
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::DuplicateDistrict`] if it exists.
    pub(crate) fn add_tree(&mut self, tree: DistrictTree) -> Result<(), OntologyError> {
        if self.districts.contains_key(tree.district()) {
            return Err(OntologyError::DuplicateDistrict(tree.district().clone()));
        }
        self.districts.insert(tree.district().clone(), tree);
        Ok(())
    }

    /// The district ids, sorted.
    pub fn districts(&self) -> impl Iterator<Item = &DistrictId> {
        self.districts.keys()
    }

    /// A district tree.
    pub fn district(&self, id: &DistrictId) -> Option<&DistrictTree> {
        self.districts.get(id)
    }

    /// Mutable access to a district tree.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::UnknownDistrict`] if absent.
    pub fn district_mut(&mut self, id: &DistrictId) -> Result<&mut DistrictTree, OntologyError> {
        self.districts
            .get_mut(id)
            .ok_or_else(|| OntologyError::UnknownDistrict(id.clone()))
    }

    /// Adds a building or network node under a district.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError`] when the district is unknown or the
    /// entity id duplicated.
    pub fn add_entity(
        &mut self,
        district: &DistrictId,
        entity: EntityNode,
    ) -> Result<(), OntologyError> {
        let tree = self.district_mut(district)?;
        if tree.entity(entity.id()).is_some() {
            return Err(OntologyError::DuplicateEntity {
                district: district.clone(),
                entity: entity.id().to_owned(),
            });
        }
        tree.entities_mut().push(entity);
        Ok(())
    }

    /// Convenience alias of [`Ontology::add_entity`] for buildings.
    ///
    /// # Errors
    ///
    /// See [`Ontology::add_entity`].
    pub fn add_building(
        &mut self,
        district: &DistrictId,
        building: EntityNode,
    ) -> Result<(), OntologyError> {
        self.add_entity(district, building)
    }

    /// Adds a device leaf under an entity.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError`] when the district or entity is unknown.
    pub fn add_device(
        &mut self,
        district: &DistrictId,
        entity_id: &str,
        device: DeviceLeaf,
    ) -> Result<(), OntologyError> {
        let tree = self.district_mut(district)?;
        let entity = tree
            .entities_mut()
            .iter_mut()
            .find(|e| e.id() == entity_id)
            .ok_or_else(|| OntologyError::UnknownEntity {
                district: district.clone(),
                entity: entity_id.to_owned(),
            })?;
        entity.devices_mut().push(device);
        Ok(())
    }

    /// Removes a device leaf; returns it if present.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::UnknownDistrict`] when the district is
    /// unknown.
    pub fn remove_device(
        &mut self,
        district: &DistrictId,
        device_id: &str,
    ) -> Result<Option<DeviceLeaf>, OntologyError> {
        let tree = self.district_mut(district)?;
        for entity in tree.entities_mut() {
            if let Some(i) = entity
                .devices()
                .iter()
                .position(|d| d.device().as_str() == device_id)
            {
                return Ok(Some(entity.devices_mut().remove(i)));
            }
        }
        Ok(None)
    }

    /// Removes an entity node (and its device leaves); returns it if
    /// present.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::UnknownDistrict`] when the district is
    /// unknown.
    pub fn remove_entity(
        &mut self,
        district: &DistrictId,
        entity_id: &str,
    ) -> Result<Option<EntityNode>, OntologyError> {
        let tree = self.district_mut(district)?;
        let pos = tree.entities().iter().position(|e| e.id() == entity_id);
        Ok(pos.map(|i| tree.entities_mut().remove(i)))
    }

    /// The paper's core query: resolve an area of a district to the
    /// proxies serving it. Entities without a cached location are never
    /// matched by area (they are reachable via entity queries instead).
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::UnknownDistrict`] when the district is
    /// unknown.
    pub fn resolve_area(
        &self,
        district: &DistrictId,
        bbox: &BoundingBox,
    ) -> Result<AreaResolution, OntologyError> {
        let tree = self
            .district(district)
            .ok_or_else(|| OntologyError::UnknownDistrict(district.clone()))?;
        let mut resolution = AreaResolution {
            gis_proxies: tree.gis_proxies().to_vec(),
            measurement_proxies: tree.measurement_proxies().to_vec(),
            ..AreaResolution::default()
        };
        for entity in tree.entities() {
            let inside = entity
                .location()
                .map(|loc| bbox.contains(&loc))
                .unwrap_or(false);
            if inside {
                resolution.devices.extend(entity.devices().iter().cloned());
                resolution.entities.push(entity.clone());
            }
        }
        Ok(resolution)
    }

    /// All entities of `kind` in a district.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::UnknownDistrict`] when the district is
    /// unknown.
    pub fn entities_of_kind(
        &self,
        district: &DistrictId,
        kind: EntityKind,
    ) -> Result<Vec<&EntityNode>, OntologyError> {
        let tree = self
            .district(district)
            .ok_or_else(|| OntologyError::UnknownDistrict(district.clone()))?;
        Ok(tree
            .entities()
            .iter()
            .filter(|e| e.kind() == kind)
            .collect())
    }

    /// All device leaves reporting `quantity` in a district, with their
    /// owning entity id.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::UnknownDistrict`] when the district is
    /// unknown.
    pub fn devices_by_quantity(
        &self,
        district: &DistrictId,
        quantity: QuantityKind,
    ) -> Result<Vec<(&str, &DeviceLeaf)>, OntologyError> {
        let tree = self
            .district(district)
            .ok_or_else(|| OntologyError::UnknownDistrict(district.clone()))?;
        Ok(tree
            .entities()
            .iter()
            .flat_map(|e| {
                e.devices()
                    .iter()
                    .filter(|d| d.quantity() == quantity)
                    .map(move |d| (e.id(), d))
            })
            .collect())
    }

    /// All device leaves speaking `protocol` in a district, with their
    /// owning entity id — the interoperability inventory ("which EnOcean
    /// devices does this district run?").
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::UnknownDistrict`] when the district is
    /// unknown.
    pub fn devices_by_protocol(
        &self,
        district: &DistrictId,
        protocol: &str,
    ) -> Result<Vec<(&str, &DeviceLeaf)>, OntologyError> {
        let tree = self
            .district(district)
            .ok_or_else(|| OntologyError::UnknownDistrict(district.clone()))?;
        Ok(tree
            .entities()
            .iter()
            .flat_map(|e| {
                e.devices()
                    .iter()
                    .filter(move |d| d.protocol() == protocol)
                    .map(move |d| (e.id(), d))
            })
            .collect())
    }

    /// Finds the device leaf with `device_id` anywhere in the forest.
    pub fn find_device(&self, device_id: &str) -> Option<(&DistrictId, &str, &DeviceLeaf)> {
        for (did, tree) in &self.districts {
            for entity in tree.entities() {
                for device in entity.devices() {
                    if device.device().as_str() == device_id {
                        return Some((did, entity.id(), device));
                    }
                }
            }
        }
        None
    }

    /// Snapshots the whole forest to the common data format.
    pub fn to_value(&self) -> Value {
        Value::object([(
            "districts",
            Value::Array(
                self.districts
                    .values()
                    .map(DistrictTree::to_value)
                    .collect(),
            ),
        )])
    }

    /// Restores a forest from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::Decode`] on the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, OntologyError> {
        let mut onto = Ontology::new();
        for tree in v
            .require_array("ontology", "districts")
            .map_err(OntologyError::from)?
        {
            onto.add_tree(DistrictTree::from_value(tree)?)?;
        }
        Ok(onto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_core::{BuildingId, DeviceId, NetworkId};
    use gis::geo::GeoPoint;

    fn uri(s: &str) -> Uri {
        Uri::parse(s).unwrap()
    }

    fn did(s: &str) -> DistrictId {
        DistrictId::new(s).unwrap()
    }

    fn sample() -> Ontology {
        let mut onto = Ontology::new();
        let d = did("d1");
        onto.add_district(d.clone(), "Campus").unwrap();
        onto.district_mut(&d)
            .unwrap()
            .add_gis_proxy(uri("sim://n2/gis"));
        for (i, lat) in [45.05, 45.07, 45.55].iter().enumerate() {
            onto.add_building(
                &d,
                EntityNode::building(
                    BuildingId::new(format!("b{i}")).unwrap(),
                    uri(&format!("sim://n{}/bim", 10 + i)),
                )
                .with_location(GeoPoint::new(*lat, 7.68)),
            )
            .unwrap();
        }
        onto.add_entity(
            &d,
            EntityNode::network(NetworkId::new("dh1").unwrap(), uri("sim://n20/simmodel"))
                .with_location(GeoPoint::new(45.06, 7.68)),
        )
        .unwrap();
        onto.add_device(
            &d,
            "b0",
            DeviceLeaf::new(
                DeviceId::new("dev-t0").unwrap(),
                "zigbee",
                QuantityKind::Temperature,
                uri("sim://n30/data"),
            ),
        )
        .unwrap();
        onto.add_device(
            &d,
            "b1",
            DeviceLeaf::new(
                DeviceId::new("dev-p1").unwrap(),
                "enocean",
                QuantityKind::ActivePower,
                uri("sim://n31/data"),
            ),
        )
        .unwrap();
        onto
    }

    #[test]
    fn counts() {
        let onto = sample();
        assert_eq!(onto.district_count(), 1);
        assert_eq!(onto.entity_count(), 4);
        assert_eq!(onto.device_count(), 2);
    }

    #[test]
    fn duplicate_and_unknown_errors() {
        let mut onto = sample();
        let d = did("d1");
        assert!(matches!(
            onto.add_district(d.clone(), "again"),
            Err(OntologyError::DuplicateDistrict(_))
        ));
        assert!(matches!(
            onto.add_building(
                &d,
                EntityNode::building(BuildingId::new("b0").unwrap(), uri("sim://x/y"))
            ),
            Err(OntologyError::DuplicateEntity { .. })
        ));
        assert!(matches!(
            onto.add_device(
                &did("ghost"),
                "b0",
                DeviceLeaf::new(
                    DeviceId::new("d").unwrap(),
                    "zigbee",
                    QuantityKind::Co2,
                    uri("sim://x/y")
                )
            ),
            Err(OntologyError::UnknownDistrict(_))
        ));
        assert!(matches!(
            onto.add_device(
                &d,
                "ghost",
                DeviceLeaf::new(
                    DeviceId::new("d").unwrap(),
                    "zigbee",
                    QuantityKind::Co2,
                    uri("sim://x/y")
                )
            ),
            Err(OntologyError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn area_resolution_filters_by_location() {
        let onto = sample();
        let bbox = BoundingBox::new(GeoPoint::new(45.0, 7.6), GeoPoint::new(45.1, 7.7));
        let hit = onto.resolve_area(&did("d1"), &bbox).unwrap();
        // b0, b1 and dh1 are inside; b2 (45.55) is outside.
        assert_eq!(hit.entities.len(), 3);
        assert_eq!(hit.devices.len(), 2);
        assert_eq!(hit.gis_proxies.len(), 1);
        assert!(hit.entities.iter().all(|e| e.id() != "b2"));
        assert!(onto.resolve_area(&did("nope"), &bbox).is_err());
    }

    #[test]
    fn area_resolution_value_round_trip() {
        let onto = sample();
        let bbox = BoundingBox::new(GeoPoint::new(45.0, 7.6), GeoPoint::new(45.1, 7.7));
        let hit = onto.resolve_area(&did("d1"), &bbox).unwrap();
        let back = AreaResolution::from_value(&hit.to_value()).unwrap();
        assert_eq!(back, hit);
    }

    #[test]
    fn kind_and_quantity_queries() {
        let onto = sample();
        let d = did("d1");
        assert_eq!(
            onto.entities_of_kind(&d, EntityKind::Building)
                .unwrap()
                .len(),
            3
        );
        assert_eq!(
            onto.entities_of_kind(&d, EntityKind::Network)
                .unwrap()
                .len(),
            1
        );
        let temps = onto
            .devices_by_quantity(&d, QuantityKind::Temperature)
            .unwrap();
        assert_eq!(temps.len(), 1);
        assert_eq!(temps[0].0, "b0");
        assert!(onto
            .devices_by_quantity(&d, QuantityKind::Co2)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn protocol_queries() {
        let onto = sample();
        let d = did("d1");
        let zigbee = onto.devices_by_protocol(&d, "zigbee").unwrap();
        assert_eq!(zigbee.len(), 1);
        assert_eq!(zigbee[0].0, "b0");
        assert_eq!(onto.devices_by_protocol(&d, "enocean").unwrap().len(), 1);
        assert!(onto.devices_by_protocol(&d, "lonworks").unwrap().is_empty());
        assert!(onto.devices_by_protocol(&did("ghost"), "zigbee").is_err());
    }

    #[test]
    fn find_and_remove_device() {
        let mut onto = sample();
        let (district, entity, leaf) = onto.find_device("dev-p1").unwrap();
        assert_eq!(district.as_str(), "d1");
        assert_eq!(entity, "b1");
        assert_eq!(leaf.protocol(), "enocean");
        assert!(onto.find_device("ghost").is_none());

        let removed = onto.remove_device(&did("d1"), "dev-p1").unwrap();
        assert!(removed.is_some());
        assert_eq!(onto.device_count(), 1);
        assert!(onto.remove_device(&did("d1"), "dev-p1").unwrap().is_none());
    }

    #[test]
    fn snapshot_round_trip() {
        let onto = sample();
        let back = Ontology::from_value(&onto.to_value()).unwrap();
        assert_eq!(back, onto);
    }

    #[test]
    fn entities_without_location_excluded_from_area() {
        let mut onto = Ontology::new();
        let d = did("d2");
        onto.add_district(d.clone(), "No geo").unwrap();
        onto.add_building(
            &d,
            EntityNode::building(BuildingId::new("b").unwrap(), uri("sim://n1/bim")),
        )
        .unwrap();
        let bbox = BoundingBox::new(GeoPoint::new(-90.0, -180.0), GeoPoint::new(90.0, 180.0));
        let hit = onto.resolve_area(&d, &bbox).unwrap();
        assert!(hit.entities.is_empty());
        assert_eq!(
            onto.entities_of_kind(&d, EntityKind::Building)
                .unwrap()
                .len(),
            1,
            "still reachable by kind"
        );
    }
}
