//! District-heating analysis: integrating SIM, BIM and live data.
//!
//! The second motivating workload: "tracing energy consumption at
//! different levels of detail is crucial to increase distribution
//! networks efficiency". This example joins three heterogeneous sources
//! through their proxies — the SIM network model (delivery efficiency
//! per consumer), the BIM building models (envelope heat loss) and the
//! live thermal measurements — into one per-building efficiency report
//! no single source could produce.
//!
//! Run with `cargo run --example district_heating`.

use dimmer::core::{QuantityKind, Value};
use dimmer::district::client::ClientNode;
use dimmer::district::deploy::Deployment;
use dimmer::district::report::{fmt_f64, Table};
use dimmer::district::scenario::ScenarioConfig;
use dimmer::proxy::webservice::{WsClient, WsClientEvent, WsRequest, WsResponse};
use dimmer::simnet::{Context, Node, Packet, SimConfig, SimDuration, Simulator, TimerTag};

/// Probes one proxy endpoint.
struct Probe {
    client: WsClient,
    target: dimmer::simnet::NodeId,
    request: WsRequest,
    response: Option<WsResponse>,
}

impl Node for Probe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let request = self.request.clone();
        self.client.request(ctx, self.target, &request);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(WsClientEvent::Response { response, .. }) = self.client.accept(&pkt) {
            self.response = Some(response);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

fn main() {
    let scenario = ScenarioConfig::small().with_buildings(8).build();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(900));

    // Source 1: the SIM Database-proxy's efficiency view.
    let sim_proxy = deployment.districts[0].sim_proxies[0];
    let probe = sim.add_node(
        "sim-probe",
        Probe {
            client: WsClient::new(1000),
            target: sim_proxy,
            request: WsRequest::get("/query").with_query("view", "efficiency"),
            response: None,
        },
    );
    sim.run_for(SimDuration::from_secs(10));
    let efficiency = sim
        .node_ref::<Probe>(probe)
        .expect("probe")
        .response
        .clone()
        .expect("SIM proxy answered");
    assert!(efficiency.is_ok());
    println!(
        "SIM proxy: delivery efficiency for {} consumers",
        efficiency.body.as_object().map_or(0, |m| m.len())
    );

    // Source 2 + 3: BIM models and live thermal data via an area query.
    let district = scenario.districts[0].district.clone();
    let bbox = scenario.districts[0].bbox();
    let client = ClientNode::spawn(&mut sim, &deployment, district, bbox);
    sim.run_for(SimDuration::from_secs(30));
    let snapshot = sim
        .node_ref::<ClientNode>(client)
        .expect("client")
        .latest_snapshot()
        .expect("query done")
        .clone();

    // Join: per building, the BIM heat loss + live thermal/temperature
    // series + the network's delivery efficiency at its consumer.
    let consumers: Vec<(&str, f64)> = efficiency
        .body
        .as_object()
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_f64().map(|e| (k.as_str(), e)))
                .collect()
        })
        .unwrap_or_default();

    let mut table = Table::new(
        "District heating: per-building integration",
        [
            "building",
            "heat_loss_w_per_k",
            "floor_m2",
            "thermal_samples",
            "mean_temp_c",
        ],
    );
    for entity in &snapshot.resolution.entities {
        let Some(model) = snapshot.entities.get(entity.id()) else {
            continue;
        };
        let Some(heat_loss) = model.get("heat_loss_w_per_k").and_then(Value::as_f64) else {
            continue; // networks have no envelope
        };
        let floor = model
            .get("floor_area_m2")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let device_ids: Vec<&str> = snapshot
            .resolution
            .devices
            .iter()
            .filter(|d| d.device().as_str().starts_with(entity.id()))
            .map(|d| d.device().as_str())
            .collect();
        let temps: Vec<f64> = snapshot
            .measurements
            .iter()
            .filter(|m| {
                m.quantity() == QuantityKind::Temperature
                    && device_ids.contains(&m.device().as_str())
            })
            .map(|m| m.value())
            .collect();
        let thermal = snapshot
            .measurements
            .iter()
            .filter(|m| {
                m.quantity() == QuantityKind::ThermalEnergy
                    && device_ids.contains(&m.device().as_str())
            })
            .count();
        let mean_temp = if temps.is_empty() {
            f64::NAN
        } else {
            temps.iter().sum::<f64>() / temps.len() as f64
        };
        table.row([
            entity.id().to_owned(),
            fmt_f64(heat_loss, 1),
            fmt_f64(floor, 0),
            thermal.to_string(),
            if mean_temp.is_nan() {
                "-".to_owned()
            } else {
                fmt_f64(mean_temp, 2)
            },
        ]);
    }
    println!("{table}");

    let mut eff_table = Table::new(
        "Network delivery efficiency (from the SIM proxy)",
        ["consumer", "efficiency"],
    );
    for (consumer, e) in &consumers {
        eff_table.row([(*consumer).to_owned(), fmt_f64(*e, 6)]);
    }
    println!("{eff_table}");

    assert!(!table.is_empty());
    assert!(!consumers.is_empty());
    println!("ok");
}
