//! Geographic primitives on the WGS-84 ellipsoid (spherical
//! approximation).

use std::fmt;

use dimmer_core::{CoreError, Value};

/// Mean Earth radius in metres (IUGG).
pub(crate) const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A WGS-84 coordinate.
///
/// ```
/// use gis::geo::GeoPoint;
/// let turin = GeoPoint::new(45.0703, 7.6869);
/// let milan = GeoPoint::new(45.4642, 9.1900);
/// let d = turin.distance_m(&milan);
/// assert!((d - 125_000.0).abs() < 5_000.0, "Turin-Milan is ~125 km, got {d}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Latitude in degrees, south negative.
    pub lat: f64,
    /// Longitude in degrees, west negative.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point.
    ///
    /// # Panics
    ///
    /// Panics if latitude is outside ±90° or longitude outside ±180°.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!((-90.0..=90.0).contains(&lat), "latitude out of range");
        assert!((-180.0..=180.0).contains(&lon), "longitude out of range");
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to `other` in metres (haversine).
    pub fn distance_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Translates to the common data format `{lat, lon}`.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("lat", Value::from(self.lat)),
            ("lon", Value::from(self.lon)),
        ])
    }

    /// Decodes a value produced by [`GeoPoint::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] when members are missing or out of
    /// range.
    pub fn from_value(v: &Value) -> Result<Self, CoreError> {
        let lat = v.require_f64("geo point", "lat")?;
        let lon = v.require_f64("geo point", "lon")?;
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
            return Err(CoreError::Shape {
                target: "geo point",
                reason: "coordinate out of range".into(),
            });
        }
        Ok(GeoPoint { lat, lon })
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

/// An axis-aligned bounding box in coordinate space.
///
/// Boxes do not wrap the antimeridian — districts are city-scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    min: GeoPoint,
    max: GeoPoint,
}

impl BoundingBox {
    /// Creates a box from two corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` exceeds `max` on either axis.
    pub fn new(min: GeoPoint, max: GeoPoint) -> Self {
        assert!(
            min.lat <= max.lat && min.lon <= max.lon,
            "bounding box corners are inverted"
        );
        BoundingBox { min, max }
    }

    /// The smallest box containing all `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn around<'a, I: IntoIterator<Item = &'a GeoPoint>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut min = *first;
        let mut max = *first;
        for p in iter {
            min.lat = min.lat.min(p.lat);
            min.lon = min.lon.min(p.lon);
            max.lat = max.lat.max(p.lat);
            max.lon = max.lon.max(p.lon);
        }
        Some(BoundingBox { min, max })
    }

    /// The south-west corner.
    pub fn min(&self) -> GeoPoint {
        self.min
    }

    /// The north-east corner.
    pub fn max(&self) -> GeoPoint {
        self.max
    }

    /// The box centre.
    pub fn center(&self) -> GeoPoint {
        GeoPoint {
            lat: (self.min.lat + self.max.lat) / 2.0,
            lon: (self.min.lon + self.max.lon) / 2.0,
        }
    }

    /// Whether `p` lies inside (inclusive of edges).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        (self.min.lat..=self.max.lat).contains(&p.lat)
            && (self.min.lon..=self.max.lon).contains(&p.lon)
    }

    /// Whether two boxes overlap (edge contact counts).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min.lat <= other.max.lat
            && other.min.lat <= self.max.lat
            && self.min.lon <= other.max.lon
            && other.min.lon <= self.max.lon
    }

    /// Grows the box by `margin_deg` degrees on every side (clamped to
    /// valid coordinates).
    pub fn expanded(&self, margin_deg: f64) -> BoundingBox {
        BoundingBox {
            min: GeoPoint {
                lat: (self.min.lat - margin_deg).max(-90.0),
                lon: (self.min.lon - margin_deg).max(-180.0),
            },
            max: GeoPoint {
                lat: (self.max.lat + margin_deg).min(90.0),
                lon: (self.max.lon + margin_deg).min(180.0),
            },
        }
    }

    /// Encodes as the `"minLat,minLon,maxLat,maxLon"` string used in
    /// query parameters.
    pub fn to_query(&self) -> String {
        format!(
            "{},{},{},{}",
            self.min.lat, self.min.lon, self.max.lat, self.max.lon
        )
    }

    /// Parses the query-parameter form produced by
    /// [`BoundingBox::to_query`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] on malformed input.
    pub fn parse_query(s: &str) -> Result<Self, CoreError> {
        let parts: Vec<&str> = s.split(',').collect();
        let err = |reason: &str| CoreError::Shape {
            target: "bounding box",
            reason: reason.to_owned(),
        };
        if parts.len() != 4 {
            return Err(err("expected four comma-separated numbers"));
        }
        let mut nums = [0.0f64; 4];
        for (i, p) in parts.iter().enumerate() {
            nums[i] = p.parse().map_err(|_| err("invalid number"))?;
        }
        let [min_lat, min_lon, max_lat, max_lon] = nums;
        if min_lat > max_lat || min_lon > max_lon {
            return Err(err("corners inverted"));
        }
        if !(-90.0..=90.0).contains(&min_lat)
            || !(-90.0..=90.0).contains(&max_lat)
            || !(-180.0..=180.0).contains(&min_lon)
            || !(-180.0..=180.0).contains(&max_lon)
        {
            return Err(err("coordinate out of range"));
        }
        Ok(BoundingBox {
            min: GeoPoint {
                lat: min_lat,
                lon: min_lon,
            },
            max: GeoPoint {
                lat: max_lat,
                lon: max_lon,
            },
        })
    }
}

/// A simple (non-self-intersecting) polygon: an open ring of vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<GeoPoint>,
}

impl Polygon {
    /// Creates a polygon from at least three vertices (do not repeat the
    /// first vertex at the end).
    ///
    /// # Panics
    ///
    /// Panics with fewer than three vertices.
    pub fn new(vertices: Vec<GeoPoint>) -> Self {
        assert!(vertices.len() >= 3, "a polygon needs at least 3 vertices");
        Polygon { vertices }
    }

    /// The vertex ring.
    pub(crate) fn vertices(&self) -> &[GeoPoint] {
        &self.vertices
    }

    /// The bounding box of the ring.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::around(self.vertices.iter()).expect("at least 3 vertices")
    }

    /// The planar centroid of the vertex ring (adequate at city scale).
    pub fn centroid(&self) -> GeoPoint {
        let n = self.vertices.len() as f64;
        GeoPoint {
            lat: self.vertices.iter().map(|p| p.lat).sum::<f64>() / n,
            lon: self.vertices.iter().map(|p| p.lon).sum::<f64>() / n,
        }
    }

    /// Whether `p` lies inside the polygon (ray casting; boundary points
    /// are implementation-defined as is conventional).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let (vi, vj) = (&self.vertices[i], &self.vertices[j]);
            if (vi.lat > p.lat) != (vj.lat > p.lat) {
                let intersect_lon =
                    vj.lon + (p.lat - vj.lat) / (vi.lat - vj.lat) * (vi.lon - vj.lon);
                if p.lon < intersect_lon {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Approximate enclosed area in square metres (shoelace on a local
    /// equirectangular projection around the centroid).
    pub fn area_m2(&self) -> f64 {
        let c = self.centroid();
        let scale_lat = EARTH_RADIUS_M.to_radians(); // metres per degree lat
        let scale_lon = scale_lat * c.lat.to_radians().cos();
        let xy: Vec<(f64, f64)> = self
            .vertices
            .iter()
            .map(|p| ((p.lon - c.lon) * scale_lon, (p.lat - c.lat) * scale_lat))
            .collect();
        let mut sum = 0.0;
        for i in 0..xy.len() {
            let (x1, y1) = xy[i];
            let (x2, y2) = xy[(i + 1) % xy.len()];
            sum += x1 * y2 - x2 * y1;
        }
        (sum / 2.0).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::new(vec![
            GeoPoint::new(45.00, 7.60),
            GeoPoint::new(45.00, 7.70),
            GeoPoint::new(45.10, 7.70),
            GeoPoint::new(45.10, 7.60),
        ])
    }

    #[test]
    fn haversine_known_distances() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 1.0);
        // One degree of longitude at the equator ≈ 111.19 km.
        assert!((a.distance_m(&b) - 111_195.0).abs() < 100.0);
        assert_eq!(a.distance_m(&a), 0.0);
        // Symmetry.
        assert_eq!(a.distance_m(&b), b.distance_m(&a));
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn latitude_validated() {
        GeoPoint::new(91.0, 0.0);
    }

    #[test]
    fn point_value_round_trip() {
        let p = GeoPoint::new(45.0703, 7.6869);
        assert_eq!(GeoPoint::from_value(&p.to_value()).unwrap(), p);
        assert!(GeoPoint::from_value(&Value::object([
            ("lat", Value::from(99.0)),
            ("lon", Value::from(0.0))
        ]))
        .is_err());
        assert!(GeoPoint::from_value(&Value::Null).is_err());
    }

    #[test]
    fn bbox_contains_and_intersects() {
        let b = BoundingBox::new(GeoPoint::new(45.0, 7.6), GeoPoint::new(45.1, 7.7));
        assert!(b.contains(&GeoPoint::new(45.05, 7.65)));
        assert!(
            b.contains(&b.min()) && b.contains(&b.max()),
            "edges inclusive"
        );
        assert!(!b.contains(&GeoPoint::new(44.99, 7.65)));
        let c = BoundingBox::new(GeoPoint::new(45.05, 7.65), GeoPoint::new(45.2, 7.8));
        assert!(b.intersects(&c) && c.intersects(&b));
        let d = BoundingBox::new(GeoPoint::new(46.0, 8.0), GeoPoint::new(46.1, 8.1));
        assert!(!b.intersects(&d));
    }

    #[test]
    fn bbox_around_points() {
        let points = [
            GeoPoint::new(45.05, 7.62),
            GeoPoint::new(45.01, 7.69),
            GeoPoint::new(45.09, 7.61),
        ];
        let b = BoundingBox::around(points.iter()).unwrap();
        assert_eq!(b.min().lat, 45.01);
        assert_eq!(b.max().lon, 7.69);
        assert!(BoundingBox::around([].iter()).is_none());
    }

    #[test]
    fn bbox_query_round_trip() {
        let b = BoundingBox::new(GeoPoint::new(45.0, 7.6), GeoPoint::new(45.1, 7.7));
        let q = b.to_query();
        assert_eq!(BoundingBox::parse_query(&q).unwrap(), b);
        for bad in ["", "1,2,3", "a,b,c,d", "2,2,1,1", "91,0,92,0"] {
            assert!(BoundingBox::parse_query(bad).is_err(), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_bbox_rejected() {
        BoundingBox::new(GeoPoint::new(45.1, 7.6), GeoPoint::new(45.0, 7.7));
    }

    #[test]
    fn bbox_expand_clamps() {
        let b = BoundingBox::new(GeoPoint::new(89.5, 179.5), GeoPoint::new(90.0, 180.0));
        let e = b.expanded(1.0);
        assert_eq!(e.max().lat, 90.0);
        assert_eq!(e.max().lon, 180.0);
        assert_eq!(e.min().lat, 88.5);
    }

    #[test]
    fn polygon_contains() {
        let p = square();
        assert!(p.contains(&GeoPoint::new(45.05, 7.65)));
        assert!(!p.contains(&GeoPoint::new(45.15, 7.65)));
        assert!(!p.contains(&GeoPoint::new(45.05, 7.75)));
    }

    #[test]
    fn concave_polygon_contains() {
        // A "C" shape.
        let c = Polygon::new(vec![
            GeoPoint::new(0.0, 0.0),
            GeoPoint::new(0.0, 3.0),
            GeoPoint::new(3.0, 3.0),
            GeoPoint::new(3.0, 0.0),
            GeoPoint::new(2.0, 0.0),
            GeoPoint::new(2.0, 2.0),
            GeoPoint::new(1.0, 2.0),
            GeoPoint::new(1.0, 0.0),
        ]);
        assert!(c.contains(&GeoPoint::new(2.5, 1.0)), "inside the C arm");
        assert!(!c.contains(&GeoPoint::new(1.5, 1.0)), "inside the notch");
    }

    #[test]
    fn polygon_centroid_and_bbox() {
        let p = square();
        let c = p.centroid();
        assert!((c.lat - 45.05).abs() < 1e-9);
        assert!((c.lon - 7.65).abs() < 1e-9);
        let b = p.bbox();
        assert_eq!(b.min().lat, 45.0);
        assert_eq!(b.max().lon, 7.7);
    }

    #[test]
    fn polygon_area_plausible() {
        // ~0.1 deg x 0.1 deg near 45N: 11.1 km x 7.9 km ≈ 87.5 km².
        let a = square().area_m2();
        assert!((a - 87.5e6).abs() < 2.5e6, "area {a}");
    }

    #[test]
    #[should_panic(expected = "3 vertices")]
    fn degenerate_polygon_rejected() {
        Polygon::new(vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(1.0, 1.0)]);
    }
}
