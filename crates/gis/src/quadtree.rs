//! A point quadtree over geographic coordinates.
//!
//! The GIS database uses it to answer "which buildings fall inside this
//! area?" without scanning every feature — the query pattern behind the
//! master node's area resolution. Leaves split at a capacity threshold;
//! items on split boundaries stay unambiguous because each child claims a
//! half-open range.

use crate::geo::{BoundingBox, GeoPoint};

const LEAF_CAPACITY: usize = 16;
const MAX_DEPTH: usize = 24;

/// A quadtree mapping [`GeoPoint`]s to values.
///
/// ```
/// use gis::quadtree::QuadTree;
/// use gis::geo::{GeoPoint, BoundingBox};
///
/// let bounds = BoundingBox::new(GeoPoint::new(45.0, 7.6), GeoPoint::new(45.1, 7.7));
/// let mut tree = QuadTree::new(bounds);
/// tree.insert(GeoPoint::new(45.05, 7.65), "building-1");
/// let hits = tree.query(&BoundingBox::new(
///     GeoPoint::new(45.04, 7.64), GeoPoint::new(45.06, 7.66)));
/// assert_eq!(hits.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct QuadTree<T> {
    bounds: BoundingBox,
    root: Node<T>,
}

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Vec<(GeoPoint, T)>),
    Branch(Box<[Node<T>; 4]>),
}

impl<T> QuadTree<T> {
    /// Creates an empty tree covering `bounds`.
    pub fn new(bounds: BoundingBox) -> Self {
        QuadTree {
            bounds,
            root: Node::Leaf(Vec::new()),
        }
    }

    /// Inserts an item at `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point` lies outside the tree bounds — callers build the
    /// tree from the district bounding box, so an outside point is a bug.
    pub fn insert(&mut self, point: GeoPoint, item: T) {
        assert!(
            self.bounds.contains(&point),
            "point {point} outside quadtree bounds"
        );
        insert_into(&mut self.root, self.bounds, point, item, 0);
    }

    /// Collects every item whose point falls inside `query` (inclusive).
    pub fn query(&self, query: &BoundingBox) -> Vec<(&GeoPoint, &T)> {
        let mut out = Vec::new();
        query_node(&self.root, self.bounds, query, &mut out);
        out
    }
}

fn quadrant_bounds(bounds: BoundingBox, q: usize) -> BoundingBox {
    let c = bounds.center();
    let (min, max) = (bounds.min(), bounds.max());
    match q {
        0 => BoundingBox::new(min, c),
        1 => BoundingBox::new(
            GeoPoint {
                lat: min.lat,
                lon: c.lon,
            },
            GeoPoint {
                lat: c.lat,
                lon: max.lon,
            },
        ),
        2 => BoundingBox::new(
            GeoPoint {
                lat: c.lat,
                lon: min.lon,
            },
            GeoPoint {
                lat: max.lat,
                lon: c.lon,
            },
        ),
        _ => BoundingBox::new(c, max),
    }
}

fn quadrant_of(bounds: BoundingBox, p: GeoPoint) -> usize {
    let c = bounds.center();
    let east = p.lon >= c.lon;
    let north = p.lat >= c.lat;
    usize::from(east) + 2 * usize::from(north)
}

fn insert_into<T>(node: &mut Node<T>, bounds: BoundingBox, point: GeoPoint, item: T, depth: usize) {
    match node {
        Node::Leaf(items) => {
            if items.len() < LEAF_CAPACITY || depth >= MAX_DEPTH {
                items.push((point, item));
                return;
            }
            // Split: redistribute, then insert.
            let old = std::mem::take(items);
            let mut children: Box<[Node<T>; 4]> = Box::new([
                Node::Leaf(Vec::new()),
                Node::Leaf(Vec::new()),
                Node::Leaf(Vec::new()),
                Node::Leaf(Vec::new()),
            ]);
            for (p, t) in old {
                let q = quadrant_of(bounds, p);
                insert_into(
                    &mut children[q],
                    quadrant_bounds(bounds, q),
                    p,
                    t,
                    depth + 1,
                );
            }
            *node = Node::Branch(children);
            insert_into(node, bounds, point, item, depth);
        }
        Node::Branch(children) => {
            let q = quadrant_of(bounds, point);
            insert_into(
                &mut children[q],
                quadrant_bounds(bounds, q),
                point,
                item,
                depth + 1,
            );
        }
    }
}

fn query_node<'a, T>(
    node: &'a Node<T>,
    bounds: BoundingBox,
    query: &BoundingBox,
    out: &mut Vec<(&'a GeoPoint, &'a T)>,
) {
    if !bounds.intersects(query) {
        return;
    }
    match node {
        Node::Leaf(items) => {
            for (p, t) in items {
                if query.contains(p) {
                    out.push((p, t));
                }
            }
        }
        Node::Branch(children) => {
            for (q, child) in children.iter().enumerate() {
                query_node(child, quadrant_bounds(bounds, q), query, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> BoundingBox {
        BoundingBox::new(GeoPoint::new(0.0, 0.0), GeoPoint::new(10.0, 10.0))
    }

    /// n*n points on a grid strictly inside the bounds, id = position.
    fn grid(n: u32) -> Vec<GeoPoint> {
        (0..n * n)
            .map(|id| {
                let (i, j) = (id / n, id % n);
                let lat = 10.0 * (f64::from(i) + 0.5) / f64::from(n);
                let lon = 10.0 * (f64::from(j) + 0.5) / f64::from(n);
                GeoPoint::new(lat, lon)
            })
            .collect()
    }

    fn grid_tree(n: u32) -> QuadTree<u32> {
        let mut tree = QuadTree::new(bounds());
        for (id, p) in (0..).zip(grid(n)) {
            tree.insert(p, id);
        }
        tree
    }

    #[test]
    fn query_matches_linear_scan() {
        let tree = grid_tree(20); // 400 points, forces splits
        let q = BoundingBox::new(GeoPoint::new(2.0, 3.0), GeoPoint::new(5.5, 7.25));
        let mut from_tree: Vec<u32> = tree.query(&q).iter().map(|(_, &id)| id).collect();
        let from_scan: Vec<u32> = (0..)
            .zip(grid(20))
            .filter(|(_, p)| q.contains(p))
            .map(|(id, _)| id)
            .collect();
        from_tree.sort_unstable();
        assert!(!from_tree.is_empty());
        assert_eq!(from_tree, from_scan);
    }

    #[test]
    fn whole_bounds_query_returns_everything() {
        let tree = grid_tree(10);
        assert_eq!(tree.query(&bounds()).len(), 100);
    }

    #[test]
    fn empty_region_query_is_empty() {
        let tree = grid_tree(10);
        let q = BoundingBox::new(GeoPoint::new(0.0, 0.0), GeoPoint::new(0.01, 0.01));
        assert!(tree.query(&q).is_empty());
    }

    #[test]
    fn duplicate_points_all_stored() {
        let mut tree = QuadTree::new(bounds());
        let p = GeoPoint::new(5.0, 5.0);
        for i in 0..50 {
            tree.insert(p, i);
        }
        let q = BoundingBox::new(GeoPoint::new(4.9, 4.9), GeoPoint::new(5.1, 5.1));
        assert_eq!(tree.query(&q).len(), 50, "depth cap keeps identical points");
    }

    #[test]
    fn boundary_points_on_split_lines_found() {
        let mut tree = QuadTree::new(bounds());
        // Center point lies exactly on both split lines after a split.
        for i in 0..(LEAF_CAPACITY as u32 + 1) {
            tree.insert(GeoPoint::new(5.0, 5.0), i);
        }
        tree.insert(GeoPoint::new(2.0, 2.0), 99);
        let q = BoundingBox::new(GeoPoint::new(5.0, 5.0), GeoPoint::new(5.0, 5.0));
        assert_eq!(tree.query(&q).len(), LEAF_CAPACITY + 1);
    }

    #[test]
    #[should_panic(expected = "outside quadtree bounds")]
    fn outside_insert_panics() {
        let mut tree = QuadTree::new(bounds());
        tree.insert(GeoPoint::new(20.0, 5.0), 0);
    }
}
