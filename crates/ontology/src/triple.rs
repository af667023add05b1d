//! An RDF-style triple view of the ontology.
//!
//! Semantic-web tooling consumes ontologies as `(subject, predicate,
//! object)` triples. [`export`] flattens a forest into triples under a
//! small fixed vocabulary; [`TriplePattern`] supports wildcard queries
//! over the result, giving the framework a SPARQL-flavoured access path
//! without a full RDF stack.

use dimmer_core::Value;

use crate::{DistrictTree, Ontology};

/// One `(subject, predicate, object)` statement.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// The subject IRI-like identifier, e.g. `district:d1`.
    pub(crate) subject: String,
    /// The predicate, e.g. `rdf:type` or `dimmer:hasDevice`.
    pub(crate) predicate: String,
    /// The object: another identifier or a literal.
    pub(crate) object: String,
}

impl Triple {
    fn new(s: impl Into<String>, p: impl Into<String>, o: impl Into<String>) -> Self {
        Triple {
            subject: s.into(),
            predicate: p.into(),
            object: o.into(),
        }
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// A query pattern; `None` positions match anything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriplePattern {
    /// Required subject, or any.
    pub(crate) subject: Option<String>,
    /// Required predicate, or any.
    pub(crate) predicate: Option<String>,
    /// Required object, or any.
    pub(crate) object: Option<String>,
}

impl TriplePattern {
    /// The match-everything pattern.
    pub fn any() -> Self {
        TriplePattern::default()
    }

    /// Restricts the predicate.
    pub fn with_predicate(mut self, p: impl Into<String>) -> Self {
        self.predicate = Some(p.into());
        self
    }

    /// Restricts the object.
    pub fn with_object(mut self, o: impl Into<String>) -> Self {
        self.object = Some(o.into());
        self
    }

    /// Whether `triple` matches.
    pub(crate) fn matches(&self, triple: &Triple) -> bool {
        self.subject.as_deref().is_none_or(|s| s == triple.subject)
            && self
                .predicate
                .as_deref()
                .is_none_or(|p| p == triple.predicate)
            && self.object.as_deref().is_none_or(|o| o == triple.object)
    }
}

fn property_triples(subject: &str, properties: &Value, out: &mut Vec<Triple>) {
    if let Some(map) = properties.as_object() {
        for (key, value) in map {
            let literal = match value {
                Value::Str(s) => format!("{s:?}"),
                other => other.to_string(),
            };
            out.push(Triple::new(subject, format!("dimmer:{key}"), literal));
        }
    }
}

fn district_triples(tree: &DistrictTree, out: &mut Vec<Triple>) {
    let d = format!("district:{}", tree.district());
    out.push(Triple::new(&d, "rdf:type", "dimmer:District"));
    out.push(Triple::new(&d, "dimmer:name", format!("{:?}", tree.name())));
    for uri in tree.gis_proxies() {
        out.push(Triple::new(&d, "dimmer:gisProxy", format!("<{uri}>")));
    }
    for uri in tree.measurement_proxies() {
        out.push(Triple::new(
            &d,
            "dimmer:measurementProxy",
            format!("<{uri}>"),
        ));
    }
    property_triples(&d, tree.properties(), out);
    for entity in tree.entities() {
        let e = format!("{}:{}", entity.kind(), entity.id());
        out.push(Triple::new(&d, "dimmer:contains", &e));
        out.push(Triple::new(
            &e,
            "rdf:type",
            match entity.kind() {
                dimmer_core::EntityKind::Network => "dimmer:Network",
                _ => "dimmer:Building",
            },
        ));
        out.push(Triple::new(
            &e,
            "dimmer:dbProxy",
            format!("<{}>", entity.db_proxy()),
        ));
        if let Some(feat) = entity.gis_feature() {
            out.push(Triple::new(&e, "dimmer:gisFeature", format!("{feat:?}")));
        }
        property_triples(&e, entity.properties(), out);
        for device in entity.devices() {
            let dev = format!("device:{}", device.device());
            out.push(Triple::new(&e, "dimmer:hasDevice", &dev));
            out.push(Triple::new(&dev, "rdf:type", "dimmer:Device"));
            out.push(Triple::new(
                &dev,
                "dimmer:protocol",
                format!("{:?}", device.protocol()),
            ));
            out.push(Triple::new(
                &dev,
                "dimmer:quantity",
                format!("{:?}", device.quantity().as_str()),
            ));
            out.push(Triple::new(
                &dev,
                "dimmer:proxy",
                format!("<{}>", device.proxy()),
            ));
        }
    }
}

/// Flattens the forest into triples.
pub fn export(ontology: &Ontology) -> Vec<Triple> {
    let mut out = Vec::new();
    for district in ontology.districts() {
        if let Some(tree) = ontology.district(district) {
            district_triples(tree, &mut out);
        }
    }
    out
}

/// Filters `triples` by `pattern`.
pub fn query<'a>(triples: &'a [Triple], pattern: &TriplePattern) -> Vec<&'a Triple> {
    triples.iter().filter(|t| pattern.matches(t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceLeaf, EntityNode};
    use dimmer_core::{BuildingId, DeviceId, DistrictId, QuantityKind, Uri};

    fn sample() -> Ontology {
        let mut onto = Ontology::new();
        let d = DistrictId::new("d1").unwrap();
        onto.add_district(d.clone(), "Campus").unwrap();
        onto.district_mut(&d)
            .unwrap()
            .add_gis_proxy(Uri::parse("sim://n2/gis").unwrap());
        onto.add_building(
            &d,
            EntityNode::building(
                BuildingId::new("b1").unwrap(),
                Uri::parse("sim://n3/bim").unwrap(),
            )
            .with_properties(Value::object([("floors", Value::from(4))])),
        )
        .unwrap();
        onto.add_device(
            &d,
            "b1",
            DeviceLeaf::new(
                DeviceId::new("dev1").unwrap(),
                "zigbee",
                QuantityKind::Temperature,
                Uri::parse("sim://n9/data").unwrap(),
            ),
        )
        .unwrap();
        onto
    }

    #[test]
    fn export_produces_expected_statements() {
        let triples = export(&sample());
        let has = |s: &str, p: &str, o: &str| {
            triples
                .iter()
                .any(|t| t.subject == s && t.predicate == p && t.object == o)
        };
        assert!(has("district:d1", "rdf:type", "dimmer:District"));
        assert!(has("district:d1", "dimmer:contains", "building:b1"));
        assert!(has("building:b1", "rdf:type", "dimmer:Building"));
        assert!(has("building:b1", "dimmer:dbProxy", "<sim://n3/bim>"));
        assert!(has("building:b1", "dimmer:floors", "4"));
        assert!(has("building:b1", "dimmer:hasDevice", "device:dev1"));
        assert!(has("device:dev1", "dimmer:quantity", "\"temperature\""));
    }

    #[test]
    fn pattern_queries() {
        let triples = export(&sample());
        let devices = query(
            &triples,
            &TriplePattern::any()
                .with_predicate("rdf:type")
                .with_object("dimmer:Device"),
        );
        assert_eq!(devices.len(), 1);
        assert_eq!(devices[0].subject, "device:dev1");

        let about = |subject: &str| TriplePattern {
            subject: Some(subject.to_owned()),
            ..TriplePattern::any()
        };
        let all_about_b1 = query(&triples, &about("building:b1"));
        assert!(all_about_b1.len() >= 4);

        let none = query(&triples, &about("building:ghost"));
        assert!(none.is_empty());

        assert_eq!(query(&triples, &TriplePattern::any()).len(), triples.len());
    }

    #[test]
    fn triple_display_is_turtle_like() {
        let t = Triple::new("a", "b", "c");
        assert_eq!(t.to_string(), "a b c .");
    }
}
