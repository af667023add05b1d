//! GIS features and the georeferenced feature database.
//!
//! A feature is a geometry (point or building-footprint polygon) plus a
//! property document. The [`GisDatabase`] indexes features' reference
//! points in a quadtree and answers the bounding-box queries the GIS
//! Database-proxy serves.

use std::collections::BTreeMap;

use dimmer_core::{CoreError, Value};
use storage::StorageError;

use crate::geo::{BoundingBox, GeoPoint, Polygon};
use crate::quadtree::QuadTree;

/// A feature geometry.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// A point of interest (sensor pole, cabinet, …).
    Point(GeoPoint),
    /// A footprint polygon (building, plant, …).
    Polygon(Polygon),
}

impl Geometry {
    /// The representative point used for spatial indexing: the point
    /// itself or the polygon centroid.
    pub fn reference_point(&self) -> GeoPoint {
        match self {
            Geometry::Point(p) => *p,
            Geometry::Polygon(poly) => poly.centroid(),
        }
    }

    /// Translates to the common data format.
    pub(crate) fn to_value(&self) -> Value {
        match self {
            Geometry::Point(p) => Value::object([
                ("type", Value::from("point")),
                ("coordinates", p.to_value()),
            ]),
            Geometry::Polygon(poly) => Value::object([
                ("type", Value::from("polygon")),
                (
                    "coordinates",
                    Value::Array(poly.vertices().iter().map(GeoPoint::to_value).collect()),
                ),
            ]),
        }
    }

    /// Decodes a value produced by [`Geometry::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] on the wrong shape.
    pub(crate) fn from_value(v: &Value) -> Result<Self, CoreError> {
        match v.require_str("geometry", "type")? {
            "point" => Ok(Geometry::Point(GeoPoint::from_value(
                v.require("geometry", "coordinates")?,
            )?)),
            "polygon" => {
                let coords = v.require_array("geometry", "coordinates")?;
                if coords.len() < 3 {
                    return Err(CoreError::Shape {
                        target: "geometry",
                        reason: "polygon needs at least 3 vertices".into(),
                    });
                }
                let vertices = coords
                    .iter()
                    .map(GeoPoint::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Geometry::Polygon(Polygon::new(vertices)))
            }
            other => Err(CoreError::Shape {
                target: "geometry",
                reason: format!("unknown geometry type {other:?}"),
            }),
        }
    }
}

/// A georeferenced feature: id + geometry + properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    id: String,
    geometry: Geometry,
    properties: Value,
}

impl Feature {
    /// Creates a feature. `properties` should be an object (or `Null`).
    pub fn new(id: impl Into<String>, geometry: Geometry, properties: Value) -> Self {
        Feature {
            id: id.into(),
            geometry,
            properties,
        }
    }

    /// The feature id.
    pub(crate) fn id(&self) -> &str {
        &self.id
    }

    /// The geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Translates to the common data format.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("id", Value::from(self.id.as_str())),
            ("geometry", self.geometry.to_value()),
            ("properties", self.properties.clone()),
        ])
    }

    /// Decodes a value produced by [`Feature::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] on the wrong shape.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        Ok(Feature {
            id: v.require_str("feature", "id")?.to_owned(),
            geometry: Geometry::from_value(v.require("feature", "geometry")?)?,
            properties: v.get("properties").cloned().unwrap_or(Value::Null),
        })
    }
}

/// The georeferenced database behind the GIS Database-proxy.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct GisDatabase {
    features: BTreeMap<String, Feature>,
    index: QuadTree<String>,
}

/// World bounds for the spatial index; districts cover a tiny fraction,
/// the tree adapts by splitting only where features are.
fn world() -> BoundingBox {
    BoundingBox::new(GeoPoint::new(-90.0, -180.0), GeoPoint::new(90.0, 180.0))
}

impl GisDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        GisDatabase {
            features: BTreeMap::new(),
            index: QuadTree::new(world()),
        }
    }

    /// Inserts a feature.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::DuplicateId`] if the id is taken.
    pub fn insert(&mut self, feature: Feature) -> Result<(), StorageError> {
        if self.features.contains_key(feature.id()) {
            return Err(StorageError::DuplicateId {
                id: feature.id().to_owned(),
            });
        }
        let id = feature.id().to_owned();
        self.index
            .insert(feature.geometry().reference_point(), id.clone());
        self.features.insert(id, feature);
        Ok(())
    }

    /// Fetches a feature by id.
    pub fn get(&self, id: &str) -> Option<&Feature> {
        self.features.get(id)
    }

    /// All features whose reference point falls inside `bbox`.
    pub fn query_bbox(&self, bbox: &BoundingBox) -> Vec<&Feature> {
        self.index
            .query(bbox)
            .into_iter()
            .filter_map(|(_, id)| self.get(id))
            .collect()
    }

    /// Translates the whole database to a feature-collection value, the
    /// features in id order.
    pub fn to_value(&self) -> Value {
        Value::object([(
            "features",
            Value::Array(self.features.values().map(Feature::to_value).collect()),
        )])
    }
}

impl Default for GisDatabase {
    fn default() -> Self {
        GisDatabase::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn building(id: &str, lat: f64, lon: f64) -> Feature {
        Feature::new(
            id,
            Geometry::Polygon(Polygon::new(vec![
                GeoPoint::new(lat, lon),
                GeoPoint::new(lat, lon + 0.001),
                GeoPoint::new(lat + 0.001, lon + 0.001),
                GeoPoint::new(lat + 0.001, lon),
            ])),
            Value::object([("kind", Value::from("building"))]),
        )
    }

    #[test]
    fn geometry_value_round_trip() {
        let p = Geometry::Point(GeoPoint::new(45.07, 7.68));
        assert_eq!(Geometry::from_value(&p.to_value()).unwrap(), p);
        let poly = building("x", 45.0, 7.6).geometry().clone();
        assert_eq!(Geometry::from_value(&poly.to_value()).unwrap(), poly);
        assert!(Geometry::from_value(&Value::object([("type", Value::from("circle"))])).is_err());
    }

    #[test]
    fn feature_value_round_trip() {
        let f = building("b1", 45.05, 7.65);
        assert_eq!(Feature::from_value(&f.to_value()).unwrap(), f);
    }

    #[test]
    fn insert_get_query() {
        let mut db = GisDatabase::new();
        db.insert(building("b1", 45.05, 7.65)).unwrap();
        db.insert(building("b2", 45.06, 7.66)).unwrap();
        db.insert(building("far", 52.5, 13.4)).unwrap();
        assert_eq!(db.features.len(), 3);
        assert_eq!(db.get("b1").unwrap().id(), "b1");
        assert!(db.get("ghost").is_none());

        let turin = BoundingBox::new(GeoPoint::new(45.0, 7.6), GeoPoint::new(45.1, 7.7));
        let mut ids: Vec<String> = db
            .query_bbox(&turin)
            .into_iter()
            .map(|f| f.id().to_owned())
            .collect();
        ids.sort();
        assert_eq!(ids, vec!["b1", "b2"]);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut db = GisDatabase::new();
        db.insert(building("b1", 45.0, 7.6)).unwrap();
        assert!(db.insert(building("b1", 45.0, 7.6)).is_err());
        assert_eq!(db.features.len(), 1);
    }

    #[test]
    fn polygon_indexed_by_centroid() {
        let mut db = GisDatabase::new();
        db.insert(building("b1", 45.05, 7.65)).unwrap();
        // Query box around the centroid but excluding the SW vertex.
        let q = BoundingBox::new(
            GeoPoint::new(45.0504, 7.6504),
            GeoPoint::new(45.0506, 7.6506),
        );
        assert_eq!(db.query_bbox(&q).len(), 1);
    }

    #[test]
    fn to_value_is_feature_collection() {
        let mut db = GisDatabase::new();
        db.insert(Feature::new(
            "pole-2",
            Geometry::Point(GeoPoint::new(45.5, 7.5)),
            Value::Null,
        ))
        .unwrap();
        db.insert(building("b1", 45.0, 7.6)).unwrap();
        let point = |lat: f64, lon: f64| {
            Value::object([("lat", Value::from(lat)), ("lon", Value::from(lon))])
        };
        let b1 = Value::object([
            ("id", Value::from("b1")),
            (
                "geometry",
                Value::object([
                    ("type", Value::from("polygon")),
                    (
                        "coordinates",
                        Value::array([
                            point(45.0, 7.6),
                            point(45.0, 7.6 + 0.001),
                            point(45.0 + 0.001, 7.6 + 0.001),
                            point(45.0 + 0.001, 7.6),
                        ]),
                    ),
                ]),
            ),
            (
                "properties",
                Value::object([("kind", Value::from("building"))]),
            ),
        ]);
        let pole = Value::object([
            ("id", Value::from("pole-2")),
            (
                "geometry",
                Value::object([
                    ("type", Value::from("point")),
                    ("coordinates", point(45.5, 7.5)),
                ]),
            ),
            ("properties", Value::Null),
        ]);
        // Id order, whatever the insertion order.
        assert_eq!(
            db.to_value(),
            Value::object([("features", Value::array([b1, pole]))])
        );
    }
}
