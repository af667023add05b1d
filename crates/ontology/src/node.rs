//! The node types of a district tree.

use dimmer_core::{
    BuildingId, CoreError, DeviceId, DistrictId, EntityKind, NetworkId, QuantityKind, Uri, Value,
};
use gis::geo::GeoPoint;

/// An intermediate node: a building or an energy-distribution network.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityNode {
    kind: EntityKind,
    id: String,
    /// The Web-Service URI of the BIM (buildings) or SIM (networks)
    /// Database-proxy serving this entity's model.
    db_proxy: Uri,
    /// The GIS feature id mapping this entity into the GIS databases.
    gis_feature: Option<String>,
    /// Location cached from the GIS at registration time, so area
    /// resolution does not need a GIS round trip per query.
    location: Option<GeoPoint>,
    /// Free-form additional properties.
    properties: Value,
    /// Device leaves under this entity.
    devices: Vec<DeviceLeaf>,
}

impl EntityNode {
    /// Creates a building node served by `bim_proxy`.
    pub fn building(id: BuildingId, bim_proxy: Uri) -> Self {
        EntityNode {
            kind: EntityKind::Building,
            id: id.into_inner(),
            db_proxy: bim_proxy,
            gis_feature: None,
            location: None,
            properties: Value::Null,
            devices: Vec::new(),
        }
    }

    /// Creates a network node served by `sim_proxy`.
    pub fn network(id: NetworkId, sim_proxy: Uri) -> Self {
        EntityNode {
            kind: EntityKind::Network,
            id: id.into_inner(),
            db_proxy: sim_proxy,
            gis_feature: None,
            location: None,
            properties: Value::Null,
            devices: Vec::new(),
        }
    }

    /// Sets the GIS feature mapping.
    pub fn with_gis_feature(mut self, feature_id: impl Into<String>) -> Self {
        self.gis_feature = Some(feature_id.into());
        self
    }

    /// Sets the cached location.
    pub fn with_location(mut self, location: GeoPoint) -> Self {
        self.location = Some(location);
        self
    }

    /// Sets additional properties (an object value).
    pub fn with_properties(mut self, properties: Value) -> Self {
        self.properties = properties;
        self
    }

    /// Building or network.
    pub fn kind(&self) -> EntityKind {
        self.kind
    }

    /// The entity id (building or network id).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The Database-proxy URI.
    pub fn db_proxy(&self) -> &Uri {
        &self.db_proxy
    }

    /// The GIS feature mapping, if set.
    pub fn gis_feature(&self) -> Option<&str> {
        self.gis_feature.as_deref()
    }

    /// The cached location, if set.
    pub fn location(&self) -> Option<GeoPoint> {
        self.location
    }

    /// Additional properties.
    pub fn properties(&self) -> &Value {
        &self.properties
    }

    /// The device leaves.
    pub fn devices(&self) -> &[DeviceLeaf] {
        &self.devices
    }

    pub(crate) fn devices_mut(&mut self) -> &mut Vec<DeviceLeaf> {
        &mut self.devices
    }

    /// Translates to the common data format.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("kind", Value::from(self.kind.as_str())),
            ("id", Value::from(self.id.as_str())),
            ("db_proxy", Value::from(self.db_proxy.to_string())),
            (
                "gis_feature",
                self.gis_feature.as_deref().map_or(Value::Null, Value::from),
            ),
            (
                "location",
                self.location.map_or(Value::Null, |l| l.to_value()),
            ),
            ("properties", self.properties.clone()),
            (
                "devices",
                Value::Array(self.devices.iter().map(DeviceLeaf::to_value).collect()),
            ),
        ])
    }

    /// Decodes a value produced by [`EntityNode::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        const T: &str = "entity node";
        let kind = EntityKind::parse(v.require_str(T, "kind")?)?;
        if !matches!(kind, EntityKind::Building | EntityKind::Network) {
            return Err(CoreError::Shape {
                target: T,
                reason: "entity must be a building or a network".into(),
            });
        }
        let devices = v
            .require_array(T, "devices")?
            .iter()
            .map(DeviceLeaf::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EntityNode {
            kind,
            id: v.require_str(T, "id")?.to_owned(),
            db_proxy: Uri::parse(v.require_str(T, "db_proxy")?)?,
            gis_feature: match v.get("gis_feature") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            },
            location: match v.get("location") {
                Some(Value::Null) | None => None,
                Some(loc) => Some(GeoPoint::from_value(loc)?),
            },
            properties: v.get("properties").cloned().unwrap_or(Value::Null),
            devices,
        })
    }
}

/// A device leaf: one sensor or actuator behind a Device-proxy.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLeaf {
    device: DeviceId,
    /// The protocol family name ("zigbee", "enocean", …).
    protocol: String,
    quantity: QuantityKind,
    /// The Web-Service URI of the Device-proxy serving this device.
    proxy: Uri,
    location: Option<GeoPoint>,
}

impl DeviceLeaf {
    /// Creates a device leaf.
    pub fn new(
        device: DeviceId,
        protocol: impl Into<String>,
        quantity: QuantityKind,
        proxy: Uri,
    ) -> Self {
        DeviceLeaf {
            device,
            protocol: protocol.into(),
            quantity,
            proxy,
            location: None,
        }
    }

    /// Sets the device location.
    pub fn with_location(mut self, location: GeoPoint) -> Self {
        self.location = Some(location);
        self
    }

    /// The device id.
    pub fn device(&self) -> &DeviceId {
        &self.device
    }

    /// The protocol family name.
    pub fn protocol(&self) -> &str {
        &self.protocol
    }

    /// The reported quantity.
    pub fn quantity(&self) -> QuantityKind {
        self.quantity
    }

    /// The Device-proxy URI.
    pub fn proxy(&self) -> &Uri {
        &self.proxy
    }

    /// Translates to the common data format.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("device", Value::from(self.device.as_str())),
            ("protocol", Value::from(self.protocol.as_str())),
            ("quantity", Value::from(self.quantity.as_str())),
            ("proxy", Value::from(self.proxy.to_string())),
            (
                "location",
                self.location.map_or(Value::Null, |l| l.to_value()),
            ),
        ])
    }

    /// Decodes a value produced by [`DeviceLeaf::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        const T: &str = "device leaf";
        Ok(DeviceLeaf {
            device: DeviceId::new(v.require_str(T, "device")?)?,
            protocol: v.require_str(T, "protocol")?.to_owned(),
            quantity: QuantityKind::parse(v.require_str(T, "quantity")?)?,
            proxy: Uri::parse(v.require_str(T, "proxy")?)?,
            location: match v.get("location") {
                Some(Value::Null) | None => None,
                Some(loc) => Some(GeoPoint::from_value(loc)?),
            },
        })
    }
}

/// One district: the tree root plus its intermediate nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct DistrictTree {
    district: DistrictId,
    name: String,
    /// GIS Database-proxy Web Services of this district.
    gis_proxies: Vec<Uri>,
    /// Measurement-database proxy Web Services of this district.
    measurement_proxies: Vec<Uri>,
    /// Aggregator Web Services serving windowed rollups.
    aggregator_proxies: Vec<Uri>,
    /// Label of the broker shard owning this district's topics (absent
    /// on single-broker deployments).
    broker: Option<String>,
    properties: Value,
    entities: Vec<EntityNode>,
}

impl DistrictTree {
    /// Creates an empty district tree.
    pub(crate) fn new(district: DistrictId, name: impl Into<String>) -> Self {
        DistrictTree {
            district,
            name: name.into(),
            gis_proxies: Vec::new(),
            measurement_proxies: Vec::new(),
            aggregator_proxies: Vec::new(),
            broker: None,
            properties: Value::Null,
            entities: Vec::new(),
        }
    }

    /// The district id.
    pub fn district(&self) -> &DistrictId {
        &self.district
    }

    /// The district name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The GIS Database-proxy URIs.
    pub(crate) fn gis_proxies(&self) -> &[Uri] {
        &self.gis_proxies
    }

    /// The measurement-database proxy URIs.
    pub(crate) fn measurement_proxies(&self) -> &[Uri] {
        &self.measurement_proxies
    }

    /// The aggregator URIs serving windowed rollups.
    pub fn aggregator_proxies(&self) -> &[Uri] {
        &self.aggregator_proxies
    }

    /// The intermediate nodes.
    pub fn entities(&self) -> &[EntityNode] {
        &self.entities
    }

    /// Registers a GIS Database-proxy.
    pub fn add_gis_proxy(&mut self, uri: Uri) {
        self.gis_proxies.push(uri);
    }

    /// Registers a measurement-database proxy.
    pub fn add_measurement_proxy(&mut self, uri: Uri) {
        self.measurement_proxies.push(uri);
    }

    /// Registers an aggregator; re-registrations after a crash are
    /// idempotent.
    pub fn add_aggregator_proxy(&mut self, uri: Uri) {
        if !self.aggregator_proxies.contains(&uri) {
            self.aggregator_proxies.push(uri);
        }
    }

    /// The label of the broker shard owning this district's topics
    /// (`None` on single-broker deployments).
    pub fn broker(&self) -> Option<&str> {
        self.broker.as_deref()
    }

    /// Records the owning broker shard.
    pub fn set_broker(&mut self, broker: impl Into<String>) {
        self.broker = Some(broker.into());
    }

    pub(crate) fn entities_mut(&mut self) -> &mut Vec<EntityNode> {
        &mut self.entities
    }

    /// Finds an entity by id.
    pub fn entity(&self, id: &str) -> Option<&EntityNode> {
        self.entities.iter().find(|e| e.id() == id)
    }

    /// Number of device leaves across all entities.
    pub fn device_count(&self) -> usize {
        self.entities.iter().map(|e| e.devices().len()).sum()
    }

    /// Translates the whole tree to the common data format.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("district", Value::from(self.district.as_str())),
            ("name", Value::from(self.name.as_str())),
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
                "aggregator_proxies",
                Value::Array(
                    self.aggregator_proxies
                        .iter()
                        .map(|u| Value::from(u.to_string()))
                        .collect(),
                ),
            ),
            (
                "broker",
                self.broker
                    .as_deref()
                    .map_or(Value::Null, |b| Value::from(b.to_owned())),
            ),
            ("properties", self.properties.clone()),
            (
                "entities",
                Value::Array(self.entities.iter().map(EntityNode::to_value).collect()),
            ),
        ])
    }

    /// Decodes a value produced by [`DistrictTree::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on the wrong shape.
    pub(crate) fn from_value(v: &Value) -> Result<Self, CoreError> {
        const T: &str = "district tree";
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
        Ok(DistrictTree {
            district: DistrictId::new(v.require_str(T, "district")?)?,
            name: v.require_str(T, "name")?.to_owned(),
            gis_proxies: uris("gis_proxies")?,
            measurement_proxies: uris("measurement_proxies")?,
            // Absent in values written before aggregators existed.
            aggregator_proxies: match v.get("aggregator_proxies") {
                Some(_) => uris("aggregator_proxies")?,
                None => Vec::new(),
            },
            // Absent in values written before broker federation existed.
            broker: v.get("broker").and_then(Value::as_str).map(str::to_owned),
            properties: v.get("properties").cloned().unwrap_or(Value::Null),
            entities: v
                .require_array(T, "entities")?
                .iter()
                .map(EntityNode::from_value)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uri(s: &str) -> Uri {
        Uri::parse(s).unwrap()
    }

    fn sample_tree() -> DistrictTree {
        let mut tree = DistrictTree::new(DistrictId::new("d1").unwrap(), "Campus");
        tree.add_gis_proxy(uri("sim://n2/gis"));
        tree.add_measurement_proxy(uri("sim://n4/measurements"));
        tree.add_aggregator_proxy(uri("sim://n6/rollups"));
        tree.add_aggregator_proxy(uri("sim://n6/rollups")); // idempotent
        tree.set_broker("b1");
        tree.properties = Value::object([("city", Value::from("Turin"))]);
        let mut building =
            EntityNode::building(BuildingId::new("b1").unwrap(), uri("sim://n3/bim"))
                .with_gis_feature("feat-b1")
                .with_location(GeoPoint::new(45.07, 7.68));
        building.devices_mut().push(
            DeviceLeaf::new(
                DeviceId::new("dev1").unwrap(),
                "zigbee",
                QuantityKind::Temperature,
                uri("sim://n9/data"),
            )
            .with_location(GeoPoint::new(45.0701, 7.6801)),
        );
        tree.entities_mut().push(building);
        tree.entities_mut().push(EntityNode::network(
            NetworkId::new("dh1").unwrap(),
            uri("sim://n5/simmodel"),
        ));
        tree
    }

    #[test]
    fn tree_value_round_trip() {
        let tree = sample_tree();
        let back = DistrictTree::from_value(&tree.to_value()).unwrap();
        assert_eq!(back, tree);
        assert_eq!(back.broker(), Some("b1"));
    }

    #[test]
    fn tree_from_value_tolerates_missing_broker() {
        // Values written before broker federation existed carry no
        // `broker` key; they must still decode.
        let v = match sample_tree().to_value() {
            Value::Object(map) => {
                Value::object(map.into_iter().filter(|(k, _)| k.as_str() != "broker"))
            }
            other => other,
        };
        let back = DistrictTree::from_value(&v).unwrap();
        assert_eq!(back.broker(), None);
    }

    #[test]
    fn accessors() {
        let tree = sample_tree();
        assert_eq!(tree.name(), "Campus");
        assert_eq!(tree.gis_proxies().len(), 1);
        assert_eq!(tree.measurement_proxies().len(), 1);
        assert_eq!(tree.aggregator_proxies().len(), 1, "duplicate collapsed");
        assert_eq!(tree.entities().len(), 2);
        assert_eq!(tree.device_count(), 1);
        let b = tree.entity("b1").unwrap();
        assert_eq!(b.kind(), EntityKind::Building);
        assert_eq!(b.gis_feature(), Some("feat-b1"));
        assert!(b.location().is_some());
        assert_eq!(b.devices()[0].protocol(), "zigbee");
        assert!(tree.entity("ghost").is_none());
    }

    #[test]
    fn entity_from_value_rejects_bad_kind() {
        let mut v = sample_tree().entities()[0].to_value();
        v.insert("kind", Value::from("district"));
        assert!(EntityNode::from_value(&v).is_err());
        v.insert("kind", Value::from("spaceship"));
        assert!(EntityNode::from_value(&v).is_err());
    }

    #[test]
    fn device_leaf_round_trip_without_location() {
        let leaf = DeviceLeaf::new(
            DeviceId::new("d").unwrap(),
            "enocean",
            QuantityKind::Co2,
            uri("sim://n1/data"),
        );
        let back = DeviceLeaf::from_value(&leaf.to_value()).unwrap();
        assert_eq!(back, leaf);
        assert!(back.location.is_none());
    }
}
