//! Building Information Models.
//!
//! A [`BuildingModel`] is the structured content of one building's BIM
//! export: storeys containing spaces, the thermal envelope, and energy
//! equipment. Exports land in three relational tables (`spaces`,
//! `envelope`, `equipment`) — the representation the per-building BIM
//! database keeps and its Database-proxy translates.

use dimmer_core::{BuildingId, CoreError, Value};
use storage::table::{Cell, Column, ColumnType, Table};
use storage::StorageError;

/// The use of a space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum SpaceUse {
    /// Offices.
    Office,
    /// Residential units.
    Residential,
    /// Teaching / lecture space.
    Educational,
    /// Corridors, stairwells, plant rooms.
    Service,
}

impl SpaceUse {
    /// The lowercase name used in exports.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SpaceUse::Office => "office",
            SpaceUse::Residential => "residential",
            SpaceUse::Educational => "educational",
            SpaceUse::Service => "service",
        }
    }

    /// Parses a name produced by [`SpaceUse::as_str`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSymbol`] otherwise.
    pub(crate) fn parse(s: &str) -> Result<Self, CoreError> {
        [
            SpaceUse::Office,
            SpaceUse::Residential,
            SpaceUse::Educational,
            SpaceUse::Service,
        ]
        .into_iter()
        .find(|u| u.as_str() == s)
        .ok_or_else(|| CoreError::UnknownSymbol {
            vocabulary: "space use",
            symbol: s.to_owned(),
        })
    }
}

/// A room or zone on a storey.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Space {
    /// Unique id within the building.
    pub id: String,
    /// Human-readable name.
    pub name: String,
    /// Floor area in square metres.
    pub(crate) area_m2: f64,
    /// The space use.
    pub(crate) use_kind: SpaceUse,
}

/// One storey with its spaces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Storey {
    /// Level number (0 = ground).
    pub(crate) level: i32,
    /// The spaces on this storey.
    pub spaces: Vec<Space>,
}

/// The kind of an envelope element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum EnvelopeKind {
    /// Exterior wall.
    Wall,
    /// Window / glazing.
    Window,
    /// Roof.
    Roof,
    /// Ground floor slab.
    Floor,
}

impl EnvelopeKind {
    /// The lowercase name used in exports.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            EnvelopeKind::Wall => "wall",
            EnvelopeKind::Window => "window",
            EnvelopeKind::Roof => "roof",
            EnvelopeKind::Floor => "floor",
        }
    }

    /// Parses a name produced by [`EnvelopeKind::as_str`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSymbol`] otherwise.
    pub(crate) fn parse(s: &str) -> Result<Self, CoreError> {
        [
            EnvelopeKind::Wall,
            EnvelopeKind::Window,
            EnvelopeKind::Roof,
            EnvelopeKind::Floor,
        ]
        .into_iter()
        .find(|k| k.as_str() == s)
        .ok_or_else(|| CoreError::UnknownSymbol {
            vocabulary: "envelope kind",
            symbol: s.to_owned(),
        })
    }
}

/// A thermal envelope element.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EnvelopeElement {
    /// The element kind.
    pub kind: EnvelopeKind,
    /// Surface area in square metres.
    pub(crate) area_m2: f64,
    /// Thermal transmittance in W/(m²·K).
    pub(crate) u_value: f64,
}

/// A piece of energy equipment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Equipment {
    /// Unique id within the building.
    pub id: String,
    /// Free-form kind ("boiler", "heat_pump", "lighting", …).
    pub kind: String,
    /// Rated electrical/thermal power in watts.
    pub(crate) rated_w: f64,
    /// The space it serves, if any.
    pub(crate) space_id: Option<String>,
}

/// One building's information model.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildingModel {
    building: BuildingId,
    name: String,
    storeys: Vec<Storey>,
    envelope: Vec<EnvelopeElement>,
    equipment: Vec<Equipment>,
}

impl BuildingModel {
    /// Creates an empty model for `building`.
    pub(crate) fn new(building: BuildingId, name: impl Into<String>) -> Self {
        BuildingModel {
            building,
            name: name.into(),
            storeys: Vec::new(),
            envelope: Vec::new(),
            equipment: Vec::new(),
        }
    }

    /// A deterministic sample building: `storeys` levels with
    /// `spaces_per_storey` offices each, a matching envelope and basic
    /// equipment. Used by scenario generation and tests.
    pub fn sample(building: &BuildingId, storeys: usize, spaces_per_storey: usize) -> Self {
        let mut model = BuildingModel::new(building.clone(), format!("Building {building}"));
        for level in 0..storeys {
            let spaces = (0..spaces_per_storey)
                .map(|s| Space {
                    id: format!("{building}-s{level}-r{s}"),
                    name: format!("Room {level}.{s}"),
                    area_m2: 18.0 + 4.0 * (s % 3) as f64,
                    use_kind: if s == 0 {
                        SpaceUse::Service
                    } else {
                        SpaceUse::Office
                    },
                })
                .collect();
            model.add_storey(Storey {
                level: level as i32,
                spaces,
            });
        }
        let footprint = 30.0 * spaces_per_storey as f64;
        model.add_envelope(EnvelopeElement {
            kind: EnvelopeKind::Wall,
            area_m2: 120.0 * storeys as f64,
            u_value: 0.8,
        });
        model.add_envelope(EnvelopeElement {
            kind: EnvelopeKind::Window,
            area_m2: 30.0 * storeys as f64,
            u_value: 2.2,
        });
        model.add_envelope(EnvelopeElement {
            kind: EnvelopeKind::Roof,
            area_m2: footprint,
            u_value: 0.5,
        });
        model.add_envelope(EnvelopeElement {
            kind: EnvelopeKind::Floor,
            area_m2: footprint,
            u_value: 0.6,
        });
        model.add_equipment(Equipment {
            id: format!("{building}-boiler"),
            kind: "boiler".into(),
            rated_w: 24_000.0,
            space_id: None,
        });
        model.add_equipment(Equipment {
            id: format!("{building}-lighting"),
            kind: "lighting".into(),
            rated_w: 60.0 * (storeys * spaces_per_storey) as f64,
            space_id: None,
        });
        model
    }

    /// The building id.
    pub fn building(&self) -> &BuildingId {
        &self.building
    }

    /// Adds a storey.
    pub(crate) fn add_storey(&mut self, storey: Storey) {
        self.storeys.push(storey);
    }

    /// Adds an envelope element.
    pub(crate) fn add_envelope(&mut self, element: EnvelopeElement) {
        self.envelope.push(element);
    }

    /// Adds equipment.
    pub(crate) fn add_equipment(&mut self, equipment: Equipment) {
        self.equipment.push(equipment);
    }

    /// Total floor area over all spaces, in square metres.
    pub fn total_floor_area_m2(&self) -> f64 {
        self.storeys
            .iter()
            .flat_map(|s| &s.spaces)
            .map(|s| s.area_m2)
            .sum()
    }

    /// Envelope heat-loss coefficient Σ U·A in W/K — the quantity
    /// district heat-demand simulation needs from the BIM.
    pub fn heat_loss_w_per_k(&self) -> f64 {
        self.envelope.iter().map(|e| e.u_value * e.area_m2).sum()
    }

    /// Exports to the three relational tables of a BIM database dump.
    pub fn to_tables(&self) -> BimTables {
        let mut spaces = Table::new(
            "spaces",
            vec![
                Column::new("building", ColumnType::Text),
                Column::new("building_name", ColumnType::Text),
                Column::new("level", ColumnType::Int),
                Column::new("id", ColumnType::Text),
                Column::new("name", ColumnType::Text),
                Column::new("area_m2", ColumnType::Float),
                Column::new("use", ColumnType::Text),
            ],
        );
        for storey in &self.storeys {
            for space in &storey.spaces {
                spaces
                    .insert(vec![
                        self.building.as_str().into(),
                        self.name.as_str().into(),
                        i64::from(storey.level).into(),
                        space.id.as_str().into(),
                        space.name.as_str().into(),
                        space.area_m2.into(),
                        space.use_kind.as_str().into(),
                    ])
                    .expect("schema is static");
            }
        }
        let mut envelope = Table::new(
            "envelope",
            vec![
                Column::new("building", ColumnType::Text),
                Column::new("kind", ColumnType::Text),
                Column::new("area_m2", ColumnType::Float),
                Column::new("u_value", ColumnType::Float),
            ],
        );
        for e in &self.envelope {
            envelope
                .insert(vec![
                    self.building.as_str().into(),
                    e.kind.as_str().into(),
                    e.area_m2.into(),
                    e.u_value.into(),
                ])
                .expect("schema is static");
        }
        let mut equipment = Table::new(
            "equipment",
            vec![
                Column::new("building", ColumnType::Text),
                Column::new("id", ColumnType::Text),
                Column::new("kind", ColumnType::Text),
                Column::new("rated_w", ColumnType::Float),
                Column::new("space_id", ColumnType::Text),
            ],
        );
        for eq in &self.equipment {
            equipment
                .insert(vec![
                    self.building.as_str().into(),
                    eq.id.as_str().into(),
                    eq.kind.as_str().into(),
                    eq.rated_w.into(),
                    eq.space_id.as_deref().map_or(Cell::Null, Cell::from),
                ])
                .expect("schema is static");
        }
        BimTables {
            spaces,
            envelope,
            equipment,
        }
    }

    /// Re-imports a model from a BIM database dump. Storeys whose level
    /// never occurs in `spaces` are (necessarily) not reconstructed;
    /// empty storeys do not survive the export.
    ///
    /// # Errors
    ///
    /// Returns an error when the tables do not have the expected columns
    /// or the rows carry invalid values.
    pub fn from_tables(tables: &BimTables) -> Result<Self, Box<dyn std::error::Error>> {
        let spaces = &tables.spaces;
        let mut building: Option<(BuildingId, String)> = None;
        let mut storeys: std::collections::BTreeMap<i32, Vec<Space>> =
            std::collections::BTreeMap::new();
        let b_col = spaces.column_index("building")?;
        let bn_col = spaces.column_index("building_name")?;
        let level_col = spaces.column_index("level")?;
        let id_col = spaces.column_index("id")?;
        let name_col = spaces.column_index("name")?;
        let area_col = spaces.column_index("area_m2")?;
        let use_col = spaces.column_index("use")?;
        let text = |c: &Cell| -> Result<String, StorageError> {
            match c {
                Cell::Text(s) => Ok(s.clone()),
                other => Err(StorageError::SchemaMismatch {
                    table: "spaces".into(),
                    reason: format!("expected text, got {other}"),
                }),
            }
        };
        for row in spaces.scan() {
            let bid = BuildingId::new(text(&row[b_col])?)?;
            let bname = text(&row[bn_col])?;
            if building.is_none() {
                building = Some((bid, bname));
            }
            let level = match row[level_col] {
                Cell::Int(l) => l as i32,
                _ => 0,
            };
            let area = match row[area_col] {
                Cell::Float(a) => a,
                Cell::Int(a) => a as f64,
                _ => 0.0,
            };
            storeys.entry(level).or_default().push(Space {
                id: text(&row[id_col])?,
                name: text(&row[name_col])?,
                area_m2: area,
                use_kind: SpaceUse::parse(&text(&row[use_col])?)?,
            });
        }
        let (building, name) = building.ok_or_else(|| {
            Box::new(StorageError::SchemaMismatch {
                table: "spaces".into(),
                reason: "no rows to reconstruct the building from".into(),
            })
        })?;
        let mut model = BuildingModel::new(building, name);
        for (level, spaces) in storeys {
            model.add_storey(Storey { level, spaces });
        }
        let env = &tables.envelope;
        let kind_col = env.column_index("kind")?;
        let earea_col = env.column_index("area_m2")?;
        let u_col = env.column_index("u_value")?;
        for row in env.scan() {
            model.add_envelope(EnvelopeElement {
                kind: EnvelopeKind::parse(&text(&row[kind_col])?)?,
                area_m2: match row[earea_col] {
                    Cell::Float(a) => a,
                    _ => 0.0,
                },
                u_value: match row[u_col] {
                    Cell::Float(u) => u,
                    _ => 0.0,
                },
            });
        }
        let eq = &tables.equipment;
        let eid_col = eq.column_index("id")?;
        let ekind_col = eq.column_index("kind")?;
        let w_col = eq.column_index("rated_w")?;
        let space_col = eq.column_index("space_id")?;
        for row in eq.scan() {
            model.add_equipment(Equipment {
                id: text(&row[eid_col])?,
                kind: text(&row[ekind_col])?,
                rated_w: match row[w_col] {
                    Cell::Float(w) => w,
                    _ => 0.0,
                },
                space_id: match &row[space_col] {
                    Cell::Text(s) => Some(s.clone()),
                    _ => None,
                },
            });
        }
        Ok(model)
    }

    /// Translates the model into the common data format (what the BIM
    /// Database-proxy serves).
    pub fn to_value(&self) -> Value {
        Value::object([
            ("building", Value::from(self.building.as_str())),
            ("name", Value::from(self.name.as_str())),
            (
                "storeys",
                Value::Array(
                    self.storeys
                        .iter()
                        .map(|s| {
                            Value::object([
                                ("level", Value::from(i64::from(s.level))),
                                (
                                    "spaces",
                                    Value::Array(
                                        s.spaces
                                            .iter()
                                            .map(|sp| {
                                                Value::object([
                                                    ("id", Value::from(sp.id.as_str())),
                                                    ("name", Value::from(sp.name.as_str())),
                                                    ("area_m2", Value::from(sp.area_m2)),
                                                    ("use", Value::from(sp.use_kind.as_str())),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "envelope",
                Value::Array(
                    self.envelope
                        .iter()
                        .map(|e| {
                            Value::object([
                                ("kind", Value::from(e.kind.as_str())),
                                ("area_m2", Value::from(e.area_m2)),
                                ("u_value", Value::from(e.u_value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "equipment",
                Value::Array(
                    self.equipment
                        .iter()
                        .map(|e| {
                            Value::object([
                                ("id", Value::from(e.id.as_str())),
                                ("kind", Value::from(e.kind.as_str())),
                                ("rated_w", Value::from(e.rated_w)),
                                (
                                    "space_id",
                                    e.space_id.as_deref().map_or(Value::Null, Value::from),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("heat_loss_w_per_k", Value::from(self.heat_loss_w_per_k())),
            ("floor_area_m2", Value::from(self.total_floor_area_m2())),
        ])
    }
}

/// The three tables of a BIM database dump.
#[derive(Debug, Clone, PartialEq)]
pub struct BimTables {
    /// One row per space.
    pub spaces: Table,
    /// One row per envelope element.
    pub envelope: Table,
    /// One row per equipment item.
    pub equipment: Table,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid(s: &str) -> BuildingId {
        BuildingId::new(s).unwrap()
    }

    #[test]
    fn sample_has_expected_shape() {
        let m = BuildingModel::sample(&bid("b1"), 3, 4);
        assert_eq!(m.storeys.len(), 3);
        assert_eq!(m.storeys.iter().map(|s| s.spaces.len()).sum::<usize>(), 12);
        assert_eq!(m.envelope.len(), 4);
        assert_eq!(m.equipment.len(), 2);
        assert!(m.total_floor_area_m2() > 0.0);
        assert!(m.heat_loss_w_per_k() > 0.0);
        assert!(m.equipment.iter().map(|e| e.rated_w).sum::<f64>() > 24_000.0);
    }

    #[test]
    fn tables_round_trip() {
        let m = BuildingModel::sample(&bid("campus-a"), 2, 3);
        let tables = m.to_tables();
        assert_eq!(tables.spaces.scan().count(), 6);
        let back = BuildingModel::from_tables(&tables).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn equipment_without_space_round_trips_as_null() {
        let m = BuildingModel::sample(&bid("b1"), 1, 1);
        let tables = m.to_tables();
        let row = tables.equipment.scan().next().unwrap();
        assert!(matches!(row[4], Cell::Null));
        let back = BuildingModel::from_tables(&tables).unwrap();
        assert_eq!(back.equipment[0].space_id, None);
    }

    #[test]
    fn from_tables_rejects_empty_dump() {
        let empty = BuildingModel::new(bid("x"), "X").to_tables();
        assert!(BuildingModel::from_tables(&empty).is_err());
    }

    #[test]
    fn heat_loss_is_sum_of_ua() {
        let mut m = BuildingModel::new(bid("b"), "B");
        m.add_envelope(EnvelopeElement {
            kind: EnvelopeKind::Wall,
            area_m2: 100.0,
            u_value: 0.5,
        });
        m.add_envelope(EnvelopeElement {
            kind: EnvelopeKind::Window,
            area_m2: 10.0,
            u_value: 2.0,
        });
        assert_eq!(m.heat_loss_w_per_k(), 70.0);
    }

    #[test]
    fn to_value_carries_derived_quantities() {
        let m = BuildingModel::sample(&bid("b1"), 2, 2);
        let v = m.to_value();
        assert_eq!(v.get("building").and_then(Value::as_str), Some("b1"));
        assert!(v.get("heat_loss_w_per_k").and_then(Value::as_f64).unwrap() > 0.0);
        assert_eq!(v.require_array("bim", "storeys").unwrap().len(), 2);
    }

    #[test]
    fn enum_names_round_trip() {
        for u in [
            SpaceUse::Office,
            SpaceUse::Residential,
            SpaceUse::Educational,
            SpaceUse::Service,
        ] {
            assert_eq!(SpaceUse::parse(u.as_str()).unwrap(), u);
        }
        for k in [
            EnvelopeKind::Wall,
            EnvelopeKind::Window,
            EnvelopeKind::Roof,
            EnvelopeKind::Floor,
        ] {
            assert_eq!(EnvelopeKind::parse(k.as_str()).unwrap(), k);
        }
        assert!(SpaceUse::parse("garage").is_err());
        assert!(EnvelopeKind::parse("door").is_err());
    }
}
