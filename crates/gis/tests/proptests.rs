//! Randomized tests on geometry and the quadtree, driven by
//! `simnet::rng::DeterministicRng` (reproducible, no external
//! property-testing dependency).

use gis::feature::{Feature, Geometry, GisDatabase};
use gis::geo::{BoundingBox, GeoPoint, Polygon};
use gis::quadtree::QuadTree;
use simnet::rng::DeterministicRng;

const CASES: usize = 256;

fn rand_point(rng: &mut DeterministicRng) -> GeoPoint {
    GeoPoint::new(
        rng.next_f64_range(-89.0, 89.0),
        rng.next_f64_range(-179.0, 179.0),
    )
}

fn rand_bbox(rng: &mut DeterministicRng) -> BoundingBox {
    let min = rand_point(rng);
    let dlat = rng.next_f64_range(0.0, 2.0);
    let dlon = rng.next_f64_range(0.0, 2.0);
    BoundingBox::new(
        min,
        GeoPoint::new((min.lat + dlat).min(90.0), (min.lon + dlon).min(180.0)),
    )
}

#[test]
fn distance_is_a_metric() {
    let mut rng = DeterministicRng::seed_from(0x615_0001);
    for _ in 0..CASES {
        let a = rand_point(&mut rng);
        let b = rand_point(&mut rng);
        let d_ab = a.distance_m(&b);
        let d_ba = b.distance_m(&a);
        assert!((d_ab - d_ba).abs() < 1e-6, "symmetry");
        assert!(d_ab >= 0.0);
        assert!(a.distance_m(&a) < 1e-9, "identity");
        // Upper bound: half the Earth's circumference.
        assert!(d_ab <= 20_100_000.0, "{d_ab}");
    }
}

#[test]
fn bbox_contains_center_and_corners() {
    let mut rng = DeterministicRng::seed_from(0x615_0002);
    for _ in 0..CASES {
        let bbox = rand_bbox(&mut rng);
        assert!(bbox.contains(&bbox.center()));
        assert!(bbox.contains(&bbox.min()));
        assert!(bbox.contains(&bbox.max()));
        assert!(bbox.intersects(&bbox));
    }
}

#[test]
fn bbox_query_string_round_trips() {
    let mut rng = DeterministicRng::seed_from(0x615_0003);
    for _ in 0..CASES {
        let bbox = rand_bbox(&mut rng);
        let parsed = BoundingBox::parse_query(&bbox.to_query()).expect("round trip");
        assert!((parsed.min().lat - bbox.min().lat).abs() < 1e-12);
        assert!((parsed.max().lon - bbox.max().lon).abs() < 1e-12);
    }
}

#[test]
fn quadtree_query_equals_linear_scan() {
    let mut rng = DeterministicRng::seed_from(0x615_0004);
    for _ in 0..CASES / 4 {
        let points: Vec<GeoPoint> = (0..rng.next_bounded(200))
            .map(|_| rand_point(&mut rng))
            .collect();
        let query = rand_bbox(&mut rng);
        let world = BoundingBox::new(GeoPoint::new(-90.0, -180.0), GeoPoint::new(90.0, 180.0));
        let mut tree = QuadTree::new(world);
        for (i, p) in points.iter().enumerate() {
            tree.insert(*p, i);
        }
        let mut from_tree: Vec<usize> = tree.query(&query).into_iter().map(|(_, &i)| i).collect();
        let mut linear: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| query.contains(p))
            .map(|(i, _)| i)
            .collect();
        from_tree.sort_unstable();
        linear.sort_unstable();
        assert_eq!(from_tree, linear);
    }
}

#[test]
fn polygon_centroid_inside_bbox() {
    let mut rng = DeterministicRng::seed_from(0x615_0005);
    for _ in 0..CASES {
        let vertices: Vec<GeoPoint> = (0..rng.next_range(3, 11))
            .map(|_| rand_point(&mut rng))
            .collect();
        let polygon = Polygon::new(vertices);
        let bbox = polygon.bbox();
        assert!(bbox.contains(&polygon.centroid()));
        assert!(polygon.area_m2() >= 0.0);
    }
}

#[test]
fn convex_quad_contains_its_centroid() {
    let mut rng = DeterministicRng::seed_from(0x615_0006);
    for _ in 0..CASES {
        let center = rand_point(&mut rng);
        let dlat = rng.next_f64_range(1e-4, 0.01);
        let dlon = rng.next_f64_range(1e-4, 0.01);
        let polygon = Polygon::new(vec![
            GeoPoint::new(center.lat - dlat, center.lon - dlon),
            GeoPoint::new(center.lat - dlat, center.lon + dlon),
            GeoPoint::new(center.lat + dlat, center.lon + dlon),
            GeoPoint::new(center.lat + dlat, center.lon - dlon),
        ]);
        assert!(polygon.contains(&center));
        // Far outside point is excluded.
        assert!(!polygon.contains(&GeoPoint::new((center.lat + 1.0).min(90.0), center.lon)));
    }
}

#[test]
fn feature_value_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x615_0007);
    let id_chars = b"abcxyz019-";
    for _ in 0..CASES {
        let p = rand_point(&mut rng);
        let id: String = (0..rng.next_range(1, 12))
            .map(|_| id_chars[rng.next_bounded(id_chars.len() as u64) as usize] as char)
            .collect();
        let feature = Feature::new(
            id,
            Geometry::Point(p),
            dimmer_core::Value::object([("k", dimmer_core::Value::from(1))]),
        );
        assert_eq!(
            Feature::from_value(&feature.to_value()).expect("round trip"),
            feature
        );
    }
}

#[test]
fn gis_db_bbox_query_consistent() {
    let mut rng = DeterministicRng::seed_from(0x615_0008);
    for _ in 0..CASES / 4 {
        let points: Vec<GeoPoint> = (0..rng.next_range(1, 39))
            .map(|_| rand_point(&mut rng))
            .collect();
        let query = rand_bbox(&mut rng);
        let mut db = GisDatabase::new();
        for (i, p) in points.iter().enumerate() {
            db.insert(Feature::new(
                format!("f{i}"),
                Geometry::Point(*p),
                dimmer_core::Value::Null,
            ))
            .expect("unique ids");
        }
        let hits = db.query_bbox(&query);
        let expected = points.iter().filter(|p| query.contains(p)).count();
        assert_eq!(hits.len(), expected);
        for f in &hits {
            assert!(query.contains(&f.geometry().reference_point()));
        }
    }
}
