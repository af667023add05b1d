//! E6 — ontology resolution scaling.
//!
//! Claim tested: the master's per-query work (ontology resolution) stays
//! cheap as districts grow, which is what makes the redirect design
//! viable. Measures area resolution and quantity lookups over ontologies
//! from 10² to 10⁵ devices.

use bench_support::report::{fmt_f64, Table};
use bench_support::time_it;
use dimmer_core::{BuildingId, DeviceId, DistrictId, QuantityKind, Uri};
use gis::geo::{BoundingBox, GeoPoint};
use ontology::{DeviceLeaf, EntityNode, Ontology};

fn build_ontology(buildings: usize, devices_per_building: usize) -> (Ontology, DistrictId) {
    let district = DistrictId::new("bench").expect("valid");
    let mut onto = Ontology::new();
    onto.add_district(district.clone(), "Bench").expect("fresh");
    let grid = (buildings as f64).sqrt().ceil() as usize;
    for b in 0..buildings {
        let lat = 45.0 + 0.001 * (b / grid) as f64;
        let lon = 7.6 + 0.001 * (b % grid) as f64;
        let entity = EntityNode::building(
            BuildingId::new(format!("b{b}")).expect("valid"),
            Uri::parse(&format!("sim://n{b}/model")).expect("valid"),
        )
        .with_location(GeoPoint::new(lat, lon));
        onto.add_building(&district, entity).expect("unique");
        for v in 0..devices_per_building {
            let quantity = match v % 3 {
                0 => QuantityKind::Temperature,
                1 => QuantityKind::ActivePower,
                _ => QuantityKind::ElectricalEnergy,
            };
            onto.add_device(
                &district,
                &format!("b{b}"),
                DeviceLeaf::new(
                    DeviceId::new(format!("b{b}-d{v}")).expect("valid"),
                    "zigbee",
                    quantity,
                    Uri::parse(&format!(
                        "sim://n{}/data",
                        buildings + b * devices_per_building + v
                    ))
                    .expect("valid"),
                ),
            )
            .expect("entity exists");
        }
    }
    (onto, district)
}

fn main() {
    let mut table = Table::new(
        "E6: ontology query cost vs size",
        [
            "buildings",
            "devices",
            "area_small_us",
            "area_full_us",
            "by_quantity_us",
            "snapshot_kb",
        ],
    );
    for &(buildings, devices_per_building) in
        &[(10usize, 10usize), (100, 10), (1000, 10), (1000, 100)]
    {
        let (onto, district) = build_ontology(buildings, devices_per_building);
        let small_box = BoundingBox::new(GeoPoint::new(45.0, 7.6), GeoPoint::new(45.002, 7.602));
        let full_box = BoundingBox::new(GeoPoint::new(44.9, 7.5), GeoPoint::new(45.2, 7.8));
        let iters = if buildings >= 1000 { 200 } else { 2000 };
        let (_, small_ns) = time_it(iters, || {
            onto.resolve_area(&district, &small_box)
                .expect("district exists")
                .entities
                .len()
        });
        let (_, full_ns) = time_it(iters, || {
            onto.resolve_area(&district, &full_box)
                .expect("district exists")
                .devices
                .len()
        });
        let (_, quantity_ns) = time_it(iters, || {
            onto.devices_by_quantity(&district, QuantityKind::Temperature)
                .expect("district exists")
                .len()
        });
        let snapshot = dimmer_core::json::to_string(&onto.to_value());
        table.row([
            buildings.to_string(),
            onto.device_count().to_string(),
            fmt_f64(small_ns / 1e3, 1),
            fmt_f64(full_ns / 1e3, 1),
            fmt_f64(quantity_ns / 1e3, 1),
            (snapshot.len() / 1024).to_string(),
        ]);
    }
    table.print_with_series();
}
