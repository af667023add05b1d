//! System Information Models — energy-distribution networks.
//!
//! A [`NetworkModel`] is the graph of one distribution network: an
//! electrical feeder or a district-heating loop. Nodes are plants,
//! substations, junctions and consumers; edges carry length and a loss
//! coefficient. The model exports to the fixed-width legacy records a
//! SIM database keeps (two record types: `N` node lines and `E` edge
//! lines), which the SIM Database-proxy parses and translates.

use std::collections::{BTreeMap, HashMap, VecDeque};

use dimmer_core::{NetworkId, Value};
use storage::legacy::fixedwidth::{FieldSpec, RecordLayout};
use storage::StorageError;

/// The commodity a network distributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkKind {
    /// Medium/low-voltage electrical feeder.
    Electrical,
    /// District-heating loop.
    DistrictHeating,
}

impl NetworkKind {
    /// The lowercase name used in the common data format.
    pub fn as_str(self) -> &'static str {
        match self {
            NetworkKind::Electrical => "electrical",
            NetworkKind::DistrictHeating => "district_heating",
        }
    }

    /// The two-letter code used in legacy records.
    pub(crate) fn code(self) -> &'static str {
        match self {
            NetworkKind::Electrical => "EL",
            NetworkKind::DistrictHeating => "DH",
        }
    }

    /// Parses either the name or the legacy code.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "electrical" | "EL" => Some(NetworkKind::Electrical),
            "district_heating" | "DH" => Some(NetworkKind::DistrictHeating),
            _ => None,
        }
    }
}

/// The role of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum NodeKind {
    /// Generation/injection point (power plant, heat plant).
    Plant,
    /// Transformation point (substation, heat exchanger).
    Substation,
    /// Passive branch point.
    Junction,
    /// A consumer (typically a building service connection).
    Consumer,
}

impl NodeKind {
    /// The three-letter code used in legacy records.
    pub(crate) fn code(self) -> &'static str {
        match self {
            NodeKind::Plant => "PLT",
            NodeKind::Substation => "SUB",
            NodeKind::Junction => "JCT",
            NodeKind::Consumer => "CON",
        }
    }

    /// Parses a code produced by [`NodeKind::code`].
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "PLT" => Some(NodeKind::Plant),
            "SUB" => Some(NodeKind::Substation),
            "JCT" => Some(NodeKind::Junction),
            "CON" => Some(NodeKind::Consumer),
            _ => None,
        }
    }
}

/// A node of the network graph.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NetNode {
    /// Unique id within the network (≤ 12 ASCII chars for the legacy
    /// export).
    pub id: String,
    /// The node role.
    pub kind: NodeKind,
    /// Rated power at this node in kW (generation for plants, demand for
    /// consumers, capacity for substations).
    pub(crate) rated_kw: f64,
    /// The building this consumer connects to, if any.
    pub building: Option<String>,
}

/// An edge of the network graph (directed plant → consumers for loss
/// computation, but connectivity treats it as undirected).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NetEdge {
    /// Source node id.
    pub(crate) from: String,
    /// Target node id.
    pub(crate) to: String,
    /// Length in metres.
    pub(crate) length_m: f64,
    /// Fractional loss per kilometre (0.002 = 0.2 %/km).
    pub(crate) loss_per_km: f64,
}

/// One distribution network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    network: NetworkId,
    kind: NetworkKind,
    nodes: Vec<NetNode>,
    edges: Vec<NetEdge>,
}

impl NetworkModel {
    /// Creates an empty network.
    pub(crate) fn new(network: NetworkId, kind: NetworkKind) -> Self {
        NetworkModel {
            network,
            kind,
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// A deterministic sample network: one plant, `substations`
    /// substations in a line, each feeding `consumers_each` consumers.
    pub fn sample(
        network: &NetworkId,
        kind: NetworkKind,
        substations: usize,
        consumers_each: usize,
    ) -> Self {
        let mut m = NetworkModel::new(network.clone(), kind);
        m.add_node(NetNode {
            id: "PLT0".into(),
            kind: NodeKind::Plant,
            rated_kw: 5_000.0,
            building: None,
        });
        let mut prev = "PLT0".to_owned();
        let mut consumer = 0;
        for s in 0..substations {
            let sub = format!("SUB{s}");
            m.add_node(NetNode {
                id: sub.clone(),
                kind: NodeKind::Substation,
                rated_kw: 1_000.0,
                building: None,
            });
            m.add_edge(NetEdge {
                from: prev.clone(),
                to: sub.clone(),
                length_m: 400.0,
                loss_per_km: 0.004,
            });
            for _ in 0..consumers_each {
                let con = format!("CON{consumer}");
                m.add_node(NetNode {
                    id: con.clone(),
                    kind: NodeKind::Consumer,
                    rated_kw: 40.0,
                    building: Some(format!("b{consumer}")),
                });
                m.add_edge(NetEdge {
                    from: sub.clone(),
                    to: con,
                    length_m: 120.0,
                    loss_per_km: 0.006,
                });
                consumer += 1;
            }
            prev = sub;
        }
        m
    }

    /// The network id.
    pub fn network(&self) -> &NetworkId {
        &self.network
    }

    /// The commodity kind.
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// Adds a node.
    pub(crate) fn add_node(&mut self, node: NetNode) {
        self.nodes.push(node);
    }

    /// Adds an edge.
    pub(crate) fn add_edge(&mut self, edge: NetEdge) {
        self.edges.push(edge);
    }

    /// Ids of nodes unreachable from any plant (undirected reachability).
    /// An empty result means the network is fully connected to supply.
    pub fn unreachable_from_supply(&self) -> Vec<&str> {
        let mut adjacency: HashMap<&str, Vec<&str>> = HashMap::new();
        for e in &self.edges {
            adjacency.entry(&e.from).or_default().push(&e.to);
            adjacency.entry(&e.to).or_default().push(&e.from);
        }
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        let mut queue: VecDeque<&str> = self
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Plant)
            .map(|n| n.id.as_str())
            .collect();
        for &p in &queue {
            seen.insert(p);
        }
        while let Some(n) = queue.pop_front() {
            for &next in adjacency.get(n).into_iter().flatten() {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        self.nodes
            .iter()
            .map(|n| n.id.as_str())
            .filter(|id| !seen.contains(id))
            .collect()
    }

    /// Fraction of injected energy that survives to each consumer:
    /// `consumer id → delivery efficiency` along the best (lowest-loss)
    /// path from any plant. Unreachable consumers are absent.
    pub fn delivery_efficiency(&self) -> BTreeMap<String, f64> {
        // Dijkstra on -log(1 - loss) additive weights.
        let mut adjacency: HashMap<&str, Vec<(&str, f64)>> = HashMap::new();
        for e in &self.edges {
            let loss = (e.loss_per_km * e.length_m / 1000.0).min(0.999_999);
            let w = -(1.0 - loss).ln();
            adjacency.entry(&e.from).or_default().push((&e.to, w));
            adjacency.entry(&e.to).or_default().push((&e.from, w));
        }
        let mut dist: HashMap<&str, f64> = HashMap::new();
        let mut heap = std::collections::BinaryHeap::new();
        for n in self.nodes.iter().filter(|n| n.kind == NodeKind::Plant) {
            dist.insert(&n.id, 0.0);
            heap.push((std::cmp::Reverse(ordered(0.0)), n.id.as_str()));
        }
        while let Some((std::cmp::Reverse(d), node)) = heap.pop() {
            let d = d.0;
            if dist.get(node).copied().unwrap_or(f64::INFINITY) < d {
                continue;
            }
            for &(next, w) in adjacency.get(node).into_iter().flatten() {
                let nd = d + w;
                if nd < dist.get(next).copied().unwrap_or(f64::INFINITY) {
                    dist.insert(next, nd);
                    heap.push((std::cmp::Reverse(ordered(nd)), next));
                }
            }
        }
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Consumer)
            .filter_map(|n| dist.get(n.id.as_str()).map(|d| (n.id.clone(), (-d).exp())))
            .collect()
    }

    /// Total rated consumer demand in kW.
    pub fn total_demand_kw(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Consumer)
            .map(|n| n.rated_kw)
            .sum()
    }

    /// The fixed-width layout of legacy SIM records.
    pub(crate) fn record_layout() -> RecordLayout {
        RecordLayout::new(vec![
            FieldSpec::new("rec", 1),  // N or E
            FieldSpec::new("net", 12), // network id
            FieldSpec::new("kind", 2), // EL / DH
            FieldSpec::new("a", 12),   // node id / edge from
            FieldSpec::new("b", 12),   // node kind code / edge to
            FieldSpec::new("x", 12),   // rated kW / length m
            FieldSpec::new("y", 12),   // building / loss per km
        ])
    }

    /// Exports to the legacy fixed-width document.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError`] if an id exceeds the record widths.
    pub fn to_legacy(&self) -> Result<String, StorageError> {
        let layout = NetworkModel::record_layout();
        let mut records: Vec<Vec<String>> = Vec::new();
        for n in &self.nodes {
            records.push(vec![
                "N".into(),
                self.network.as_str().to_owned(),
                self.kind.code().to_owned(),
                n.id.clone(),
                n.kind.code().to_owned(),
                format!("{:.3}", n.rated_kw),
                n.building.clone().unwrap_or_default(),
            ]);
        }
        for e in &self.edges {
            records.push(vec![
                "E".into(),
                self.network.as_str().to_owned(),
                self.kind.code().to_owned(),
                e.from.clone(),
                e.to.clone(),
                format!("{:.3}", e.length_m),
                format!("{:.6}", e.loss_per_km),
            ]);
        }
        layout.encode_document(&records)
    }

    /// Parses a legacy document produced by [`NetworkModel::to_legacy`].
    ///
    /// # Errors
    ///
    /// Returns an error on malformed records or inconsistent metadata.
    pub fn from_legacy(text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let layout = NetworkModel::record_layout();
        let records = layout.parse_document(text)?;
        let mut model: Option<NetworkModel> = None;
        for rec in records {
            let [recty, net, kind, a, b, x, y] =
                <[String; 7]>::try_from(rec).map_err(|_| StorageError::ParseLegacy {
                    format: "sim",
                    line: 0,
                    reason: "wrong field count".into(),
                })?;
            let kind = NetworkKind::parse(&kind).ok_or_else(|| StorageError::ParseLegacy {
                format: "sim",
                line: 0,
                reason: format!("unknown network kind {kind:?}"),
            })?;
            let m = match &mut model {
                Some(m) => m,
                None => {
                    model = Some(NetworkModel::new(NetworkId::new(net.clone())?, kind));
                    model.as_mut().expect("just set")
                }
            };
            match recty.as_str() {
                "N" => {
                    let node_kind =
                        NodeKind::parse(&b).ok_or_else(|| StorageError::ParseLegacy {
                            format: "sim",
                            line: 0,
                            reason: format!("unknown node kind {b:?}"),
                        })?;
                    m.add_node(NetNode {
                        id: a,
                        kind: node_kind,
                        rated_kw: x.parse()?,
                        building: if y.is_empty() { None } else { Some(y) },
                    });
                }
                "E" => {
                    m.add_edge(NetEdge {
                        from: a,
                        to: b,
                        length_m: x.parse()?,
                        loss_per_km: y.parse()?,
                    });
                }
                other => {
                    return Err(Box::new(StorageError::ParseLegacy {
                        format: "sim",
                        line: 0,
                        reason: format!("unknown record type {other:?}"),
                    }))
                }
            }
        }
        model.ok_or_else(|| {
            Box::new(StorageError::ParseLegacy {
                format: "sim",
                line: 0,
                reason: "empty document".into(),
            }) as Box<dyn std::error::Error>
        })
    }

    /// Translates the model into the common data format (what the SIM
    /// Database-proxy serves).
    pub fn to_value(&self) -> Value {
        Value::object([
            ("network", Value::from(self.network.as_str())),
            ("kind", Value::from(self.kind.as_str())),
            (
                "nodes",
                Value::Array(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Value::object([
                                ("id", Value::from(n.id.as_str())),
                                ("kind", Value::from(n.kind.code())),
                                ("rated_kw", Value::from(n.rated_kw)),
                                (
                                    "building",
                                    n.building.as_deref().map_or(Value::Null, Value::from),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "edges",
                Value::Array(
                    self.edges
                        .iter()
                        .map(|e| {
                            Value::object([
                                ("from", Value::from(e.from.as_str())),
                                ("to", Value::from(e.to.as_str())),
                                ("length_m", Value::from(e.length_m)),
                                ("loss_per_km", Value::from(e.loss_per_km)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("total_demand_kw", Value::from(self.total_demand_kw())),
        ])
    }
}

/// f64 wrapper with total order for the Dijkstra heap (no NaN enters).
fn ordered(f: f64) -> OrderedF64 {
    OrderedF64(f)
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("no NaN in heap")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(s: &str) -> NetworkId {
        NetworkId::new(s).unwrap()
    }

    #[test]
    fn sample_shape() {
        let m = NetworkModel::sample(&nid("dh1"), NetworkKind::DistrictHeating, 3, 4);
        assert_eq!(m.nodes.len(), 1 + 3 + 12);
        assert_eq!(m.edges.len(), 3 + 12);
        assert_eq!(m.total_demand_kw(), 480.0);
        assert!(m.unreachable_from_supply().is_empty());
    }

    #[test]
    fn unreachable_detection() {
        let mut m = NetworkModel::new(nid("el1"), NetworkKind::Electrical);
        m.add_node(NetNode {
            id: "PLT0".into(),
            kind: NodeKind::Plant,
            rated_kw: 100.0,
            building: None,
        });
        m.add_node(NetNode {
            id: "CON0".into(),
            kind: NodeKind::Consumer,
            rated_kw: 10.0,
            building: None,
        });
        m.add_node(NetNode {
            id: "ISLAND".into(),
            kind: NodeKind::Consumer,
            rated_kw: 10.0,
            building: None,
        });
        m.add_edge(NetEdge {
            from: "PLT0".into(),
            to: "CON0".into(),
            length_m: 100.0,
            loss_per_km: 0.01,
        });
        assert_eq!(m.unreachable_from_supply(), vec!["ISLAND"]);
        // And the island consumer has no efficiency entry.
        assert!(!m.delivery_efficiency().contains_key("ISLAND"));
        assert!(m.delivery_efficiency().contains_key("CON0"));
    }

    #[test]
    fn efficiency_decreases_with_distance() {
        let m = NetworkModel::sample(&nid("dh1"), NetworkKind::DistrictHeating, 3, 1);
        let eff = m.delivery_efficiency();
        // CON0 hangs off SUB0 (1 hop), CON2 off SUB2 (3 hops).
        assert!(eff["CON0"] > eff["CON2"], "{eff:?}");
        for e in eff.values() {
            assert!((0.0..=1.0).contains(e));
        }
    }

    #[test]
    fn efficiency_takes_best_path() {
        let mut m = NetworkModel::new(nid("el1"), NetworkKind::Electrical);
        for (id, kind) in [
            ("PLT0", NodeKind::Plant),
            ("J1", NodeKind::Junction),
            ("CON0", NodeKind::Consumer),
        ] {
            m.add_node(NetNode {
                id: id.into(),
                kind,
                rated_kw: 10.0,
                building: None,
            });
        }
        // Lossy direct edge vs nearly lossless two-hop path.
        m.add_edge(NetEdge {
            from: "PLT0".into(),
            to: "CON0".into(),
            length_m: 1000.0,
            loss_per_km: 0.5,
        });
        m.add_edge(NetEdge {
            from: "PLT0".into(),
            to: "J1".into(),
            length_m: 1000.0,
            loss_per_km: 0.001,
        });
        m.add_edge(NetEdge {
            from: "J1".into(),
            to: "CON0".into(),
            length_m: 1000.0,
            loss_per_km: 0.001,
        });
        let eff = m.delivery_efficiency();
        assert!((eff["CON0"] - 0.998_001).abs() < 1e-6, "{eff:?}");
    }

    #[test]
    fn legacy_round_trip() {
        let m = NetworkModel::sample(&nid("dh-west-1"), NetworkKind::DistrictHeating, 2, 2);
        let text = m.to_legacy().unwrap();
        let back = NetworkModel::from_legacy(&text).unwrap();
        assert_eq!(back.network(), m.network());
        assert_eq!(back.kind(), m.kind());
        assert_eq!(back.nodes.len(), m.nodes.len());
        assert_eq!(back.edges.len(), m.edges.len());
        // Floats travel through %.3f / %.6f formatting.
        assert!((back.nodes[0].rated_kw - m.nodes[0].rated_kw).abs() < 1e-3);
        assert!((back.edges[0].loss_per_km - m.edges[0].loss_per_km).abs() < 1e-6);
    }

    #[test]
    fn legacy_rejects_garbage() {
        assert!(NetworkModel::from_legacy("").is_err());
        assert!(NetworkModel::from_legacy("not a record\n").is_err());
        let layout = NetworkModel::record_layout();
        let bad = layout
            .encode_record(&["X", "net", "EL", "a", "b", "1", "2"])
            .unwrap();
        assert!(NetworkModel::from_legacy(&format!("{bad}\n")).is_err());
    }

    #[test]
    fn to_value_shape() {
        let m = NetworkModel::sample(&nid("el1"), NetworkKind::Electrical, 1, 2);
        let v = m.to_value();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("electrical"));
        assert_eq!(v.require_array("sim", "nodes").unwrap().len(), 4);
        assert_eq!(v.get("total_demand_kw").and_then(Value::as_f64), Some(80.0));
    }

    #[test]
    fn kind_codes_round_trip() {
        for k in [NetworkKind::Electrical, NetworkKind::DistrictHeating] {
            assert_eq!(NetworkKind::parse(k.code()), Some(k));
            assert_eq!(NetworkKind::parse(k.as_str()), Some(k));
        }
        for k in [
            NodeKind::Plant,
            NodeKind::Substation,
            NodeKind::Junction,
            NodeKind::Consumer,
        ] {
            assert_eq!(NodeKind::parse(k.code()), Some(k));
        }
    }
}
