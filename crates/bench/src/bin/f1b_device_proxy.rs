//! F1b — the paper's Fig. 1(b): one frame through the Device-proxy's
//! three layers, traced.

use dimmer_core::{DeviceId, DistrictId, ProxyId, QuantityKind};
use master::MasterNode;
use models::profiles::EnergyProfile;
use protocols::device::{EnoceanSensor, UplinkDevice};
use protocols::enocean::{Eep, Erp1Telegram};
use proxy::adapters::{DeviceAdapter, EnoceanAdapter};
use proxy::device_proxy::{DeviceProxyConfig, DeviceProxyNode};
use proxy::devices::UplinkDeviceNode;
use pubsub::{BrokerNode, QoS};
use simnet::{SimConfig, SimDuration, Simulator};

fn main() {
    println!("Fig. 1(b) — the Device-proxy, layer by layer\n");

    // The device: an EnOcean A5-04-01 (temperature + humidity).
    let sender_id = 0x0180_92AB;
    let mut bench_device = EnoceanSensor::new(sender_id, Eep::A50401);
    let frame = bench_device.emit(21.5);
    println!(
        "device emits ESP3 packet     : {} bytes, sync={:#04x}",
        frame.len(),
        frame[0]
    );
    let telegram = Erp1Telegram::from_esp3(&frame).expect("valid packet");
    println!(
        "  ERP1 telegram                : rorg={:#04x} sender={:#010x} data={:02x?}",
        telegram.rorg.byte(),
        telegram.sender_id,
        telegram.data
    );

    // Layer 1 — dedicated layer: protocol-specific decode + translation.
    let mut adapter = EnoceanAdapter::new(sender_id, Eep::A50401);
    let samples = adapter.decode_uplink(&frame).expect("valid frame");
    println!(
        "layer 1 (dedicated)          : {} samples decoded:",
        samples.len()
    );
    for (q, v) in &samples {
        println!("  {q} = {v:.2} {}", q.canonical_unit());
    }

    // Now the same flow live on the network, to show layers 2 and 3.
    let mut sim = Simulator::new(SimConfig::default());
    let district = DistrictId::new("d0").expect("valid");
    let master = sim.add_node(
        "master",
        MasterNode::new([(district.clone(), "Demo".into())]),
    );
    let broker = sim.add_node("broker", BrokerNode::new());
    let proxy = sim.add_node(
        "device-proxy",
        DeviceProxyNode::new(
            DeviceProxyConfig {
                proxy: ProxyId::new("p1").expect("valid"),
                district,
                entity_id: "b0".into(),
                device: DeviceId::new("th-1").expect("valid"),
                primary_quantity: QuantityKind::Temperature,
                master,
                broker,
                poll_interval: None,
                retention: None,
                location: None,
                epoch_offset_millis: district::DEFAULT_EPOCH_MILLIS,
                publish_qos: QoS::AtLeastOnce,
            },
            Box::new(EnoceanAdapter::new(sender_id, Eep::A50401)),
        ),
    );
    let device = sim.add_node(
        "sensor",
        UplinkDeviceNode::new(
            Box::new(EnoceanSensor::new(sender_id, Eep::A50401)),
            EnergyProfile::for_quantity(QuantityKind::Temperature, 3),
            proxy,
            SimDuration::from_secs(60),
            district::DEFAULT_EPOCH_MILLIS,
        ),
    );
    sim.node_mut::<DeviceProxyNode>(proxy)
        .expect("proxy")
        .set_device_node(device);
    sim.run_for(SimDuration::from_secs(600));

    let p = sim.node_ref::<DeviceProxyNode>(proxy).expect("proxy");
    println!(
        "\nlayer 2 (local database)     : series {:?}",
        p.store().series_names().collect::<Vec<_>>()
    );
    for name in p.store().series_names() {
        let (t, v) = p.store().latest(name).expect("non-empty series");
        println!(
            "  {name:<12} {} points, latest = {v:.2} @ unix {t}",
            p.store().series_len(name)
        );
    }

    println!("\nlayer 3 (web service + pub/sub):");
    println!("  registered on master       : {}", p.is_registered());
    println!("  ws requests served         : {}", p.stats().ws_requests);
    println!("  samples published          : {}", p.stats().published);
    let broker_stats = sim.node_ref::<BrokerNode>(broker).expect("broker").stats();
    println!(
        "  broker saw                 : {} publications, {} retained topics",
        broker_stats.published, broker_stats.retained
    );
    assert!(p.is_registered());
    assert!(p.stats().samples_ingested >= 18, "two series, ten frames");
    assert_eq!(p.stats().decode_errors, 0);
}
