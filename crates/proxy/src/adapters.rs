//! The Device-proxy's *dedicated layer*: one adapter per protocol.
//!
//! An adapter owns the protocol-specific knowledge — it decodes uplink
//! frames (or poll responses) into `(quantity, value)` pairs in canonical
//! units, and encodes actuation commands back into protocol frames. The
//! Device-proxy above it is completely protocol-agnostic, which is
//! exactly the abstraction the paper's Fig. 1(b) bottom layer provides.

use dimmer_core::QuantityKind;
use protocols::device::{Ieee802154Sensor, ZigbeeSensor};
use protocols::enocean::{Eep, EepReading, Erp1Telegram};
use protocols::ieee802154::{Address, MacFrame, PanId};
use protocols::opcua::{AttributeId, Message, NodeId as UaNodeId, ReadValueId, Variant};
use protocols::zigbee::{self, ClusterId, ZclAttribute, ZclValue, ZigbeeFrame};
use protocols::{ProtocolError, ProtocolKind};

/// A decoded sample: the quantity and its value in the canonical unit.
pub(crate) type Sample = (QuantityKind, f64);

/// The dedicated (protocol-specific) layer of a Device-proxy.
pub trait DeviceAdapter: std::fmt::Debug + Send + 'static {
    /// The protocol family this adapter speaks.
    fn protocol(&self) -> ProtocolKind;

    /// Decodes an uplink frame pushed by the device.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] for frames that are not valid uplinks
    /// from this adapter's device.
    fn decode_uplink(&mut self, bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError>;

    /// Encodes an actuation command carrying `value` (interpretation is
    /// protocol-specific: switch state, setpoint, …). `None` when the
    /// device is not actuatable.
    fn encode_actuation(&mut self, value: f64) -> Option<Vec<u8>>;

    /// For polled protocols: the next poll request. Push protocols
    /// return `None` (the default). The port it goes to is the family's
    /// (see [`crate::registry`]).
    fn poll_request(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Decodes a poll response (only called for polled protocols).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on malformed responses.
    fn decode_poll(&mut self, bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError> {
        let _ = bytes;
        Ok(Vec::new())
    }
}

/// Adapter for raw IEEE 802.15.4 sensors.
#[derive(Debug)]
pub struct Ieee802154Adapter {
    pan: PanId,
    device_address: u16,
    downlink_sequence: u8,
}

impl Ieee802154Adapter {
    /// Creates an adapter for the device at `device_address` in `pan`.
    pub fn new(pan: PanId, device_address: u16) -> Self {
        Ieee802154Adapter {
            pan,
            device_address,
            downlink_sequence: 0,
        }
    }
}

impl DeviceAdapter for Ieee802154Adapter {
    fn protocol(&self) -> ProtocolKind {
        ProtocolKind::Ieee802154
    }

    fn decode_uplink(&mut self, bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError> {
        let frame = MacFrame::decode(bytes)?;
        if frame.src != Address::Short(self.device_address) {
            return Err(ProtocolError::Malformed {
                reason: "frame from a different device",
            });
        }
        let (quantity, value) = Ieee802154Sensor::parse_payload(frame.payload)?;
        Ok(vec![(quantity, value)])
    }

    fn encode_actuation(&mut self, value: f64) -> Option<Vec<u8>> {
        // Downlink: the same raw payload format, switch-state quantity.
        let payload = Ieee802154Sensor::encode_payload(QuantityKind::SwitchState, value);
        let frame = MacFrame::data(
            self.pan,
            Address::Short(self.device_address),
            Address::Short(0x0000),
            self.downlink_sequence,
            &payload,
        );
        self.downlink_sequence = self.downlink_sequence.wrapping_add(1);
        Some(frame.encode())
    }
}

/// Adapter for ZigBee sensors (ZCL attribute reports).
#[derive(Debug)]
pub struct ZigbeeAdapter {
    nwk_address: u16,
    downlink_sequence: u8,
}

impl ZigbeeAdapter {
    /// Creates an adapter for the device with NWK address `nwk_address`.
    pub fn new(nwk_address: u16) -> Self {
        ZigbeeAdapter {
            nwk_address,
            downlink_sequence: 0,
        }
    }

    /// Maps a report's cluster + attribute to the quantity it carries.
    fn quantity_of(cluster: ClusterId, attribute: u16) -> Option<QuantityKind> {
        match (cluster, attribute) {
            (ClusterId::TEMPERATURE_MEASUREMENT, 0x0000) => Some(QuantityKind::Temperature),
            (ClusterId::RELATIVE_HUMIDITY, 0x0000) => Some(QuantityKind::Humidity),
            (ClusterId::ELECTRICAL_MEASUREMENT, 0x050B) => Some(QuantityKind::ActivePower),
            (ClusterId::SIMPLE_METERING, 0x0000) => Some(QuantityKind::ElectricalEnergy),
            (ClusterId::ON_OFF, 0x0000) => Some(QuantityKind::SwitchState),
            _ => None,
        }
    }
}

impl DeviceAdapter for ZigbeeAdapter {
    fn protocol(&self) -> ProtocolKind {
        ProtocolKind::Zigbee
    }

    fn decode_uplink(&mut self, bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError> {
        let frame = ZigbeeFrame::decode(bytes)?;
        if frame.nwk_src != self.nwk_address {
            return Err(ProtocolError::Malformed {
                reason: "frame from a different device",
            });
        }
        Ok(frame
            .attributes()
            .filter_map(|attr| {
                ZigbeeAdapter::quantity_of(frame.cluster, attr.id)
                    .map(|q| (q, ZigbeeSensor::scale_from_wire(q, attr.value)))
            })
            .collect())
    }

    fn encode_actuation(&mut self, value: f64) -> Option<Vec<u8>> {
        // An On/Off "report" in the downlink direction models the ZCL
        // On/Off command for the simulated stack.
        let on_off = [ZclAttribute::new(0x0000, ZclValue::Bool(value != 0.0))];
        let frame = zigbee::report_builder(0x0000, ClusterId::ON_OFF)
            .sequence(self.downlink_sequence)
            .attributes(&on_off)
            .build();
        self.downlink_sequence = self.downlink_sequence.wrapping_add(1);
        Some(frame.encode())
    }
}

/// Adapter for EnOcean sensors (ESP3-wrapped ERP1 telegrams).
#[derive(Debug)]
pub struct EnoceanAdapter {
    sender_id: u32,
    eep: Eep,
}

impl EnoceanAdapter {
    /// Creates an adapter for the device with radio id `sender_id`
    /// speaking `eep`.
    pub fn new(sender_id: u32, eep: Eep) -> Self {
        EnoceanAdapter { sender_id, eep }
    }
}

impl DeviceAdapter for EnoceanAdapter {
    fn protocol(&self) -> ProtocolKind {
        ProtocolKind::EnOcean
    }

    fn decode_uplink(&mut self, bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError> {
        let telegram = Erp1Telegram::from_esp3(bytes)?;
        if telegram.sender_id != self.sender_id {
            return Err(ProtocolError::Malformed {
                reason: "telegram from a different device",
            });
        }
        Ok(match self.eep.decode_reading(&telegram)? {
            EepReading::Temperature { celsius } => {
                vec![(QuantityKind::Temperature, celsius)]
            }
            EepReading::TemperatureHumidity { celsius, humidity } => vec![
                (QuantityKind::Temperature, celsius),
                (QuantityKind::Humidity, humidity),
            ],
            EepReading::MeterReading { kilowatt_hours, .. } => {
                vec![(QuantityKind::ElectricalEnergy, kilowatt_hours)]
            }
            EepReading::Contact { closed } => {
                vec![(QuantityKind::SwitchState, f64::from(u8::from(closed)))]
            }
            EepReading::Rocker { pressed, .. } => {
                vec![(QuantityKind::SwitchState, f64::from(u8::from(pressed)))]
            }
        })
    }

    fn encode_actuation(&mut self, value: f64) -> Option<Vec<u8>> {
        // Only the switch profiles are actuatable (virtual rocker press).
        match self.eep {
            Eep::F60201 | Eep::D50001 => Some(
                Eep::F60201
                    .encode_reading(
                        &EepReading::Rocker {
                            pressed: value != 0.0,
                            button: 0,
                        },
                        self.sender_id,
                        &mut [0; 4],
                    )
                    .to_esp3(),
            ),
            _ => None,
        }
    }
}

/// Adapter for OPC UA field servers — a *polled* protocol bridging wired
/// legacy automation into the infrastructure. Read-only: the field
/// server exposes no writable node, so it is not actuatable.
#[derive(Debug)]
pub struct OpcUaAdapter {
    value_node: UaNodeId<'static>,
    quantity: QuantityKind,
}

impl OpcUaAdapter {
    /// Creates an adapter polling `value_node` for `quantity`.
    pub fn new(value_node: UaNodeId<'static>, quantity: QuantityKind) -> Self {
        OpcUaAdapter {
            value_node,
            quantity,
        }
    }
}

impl DeviceAdapter for OpcUaAdapter {
    fn protocol(&self) -> ProtocolKind {
        ProtocolKind::OpcUa
    }

    fn decode_uplink(&mut self, _bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError> {
        // OPC UA servers never push in this subset.
        Err(ProtocolError::Malformed {
            reason: "opcua is a polled protocol",
        })
    }

    fn encode_actuation(&mut self, _value: f64) -> Option<Vec<u8>> {
        None
    }

    fn poll_request(&mut self) -> Option<Vec<u8>> {
        let read = [ReadValueId {
            node_id: self.value_node.view(),
            attribute: AttributeId::Value,
        }];
        Some(
            Message::ReadRequest {
                nodes: (&read).into(),
            }
            .encode(),
        )
    }

    fn decode_poll(&mut self, bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError> {
        let Message::ReadResponse { results } = Message::decode(bytes)? else {
            return Err(ProtocolError::Malformed {
                reason: "expected a read response",
            });
        };
        Ok(results
            .iter()
            .filter(|dv| dv.status.is_good())
            .filter_map(|dv| dv.value.as_ref().and_then(Variant::as_f64))
            .map(|v| (self.quantity, v))
            .collect())
    }
}

/// Adapter for CoAP sensors — the second polled family, covering the
/// 6LoWPAN/CoAP motes the paper's §III anticipates.
#[derive(Debug)]
pub struct CoapAdapter {
    quantity: QuantityKind,
    next_message_id: u16,
}

impl CoapAdapter {
    /// Creates an adapter polling a [`protocols::device::CoapFieldServer`]
    /// for `quantity`.
    pub fn new(quantity: QuantityKind) -> Self {
        CoapAdapter {
            quantity,
            next_message_id: 1,
        }
    }
}

impl DeviceAdapter for CoapAdapter {
    fn protocol(&self) -> ProtocolKind {
        ProtocolKind::Coap
    }

    fn decode_uplink(&mut self, _bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError> {
        Err(ProtocolError::Malformed {
            reason: "coap sensors are polled in this deployment",
        })
    }

    fn encode_actuation(&mut self, value: f64) -> Option<Vec<u8>> {
        use protocols::coap::CoapMessage;
        let id = self.next_message_id;
        self.next_message_id = self.next_message_id.wrapping_add(1);
        // The body is formatted straight into the frame.
        let token = id.to_be_bytes();
        let request = CoapMessage::post_json(id, &token, "actuate", &[]);
        Some(request.encode_formatted(format_args!("{{\"value\":{value}}}")))
    }

    fn poll_request(&mut self) -> Option<Vec<u8>> {
        use protocols::coap::CoapMessage;
        let id = self.next_message_id;
        self.next_message_id = self.next_message_id.wrapping_add(1);
        Some(CoapMessage::get(id, &id.to_be_bytes(), "sensor").encode())
    }

    fn decode_poll(&mut self, bytes: &[u8]) -> Result<Vec<Sample>, ProtocolError> {
        use protocols::coap::CoapMessage;
        let msg = CoapMessage::decode(bytes)?;
        if !msg.code.is_success() {
            return Err(ProtocolError::Malformed {
                reason: "coap poll answered with an error code",
            });
        }
        let value = protocols::coap::json_value(msg.payload).ok_or(ProtocolError::Malformed {
            reason: "coap payload is not a sensor reading",
        })?;
        Ok(vec![(self.quantity, value)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocols::device::{
        EnoceanSensor, OpcUaFieldServer, UplinkDevice, ZigbeeSensor as ZbSensor,
    };

    #[test]
    fn ieee802154_uplink_and_filtering() {
        let mut dev = Ieee802154Sensor::new(PanId(7), 0x0042, QuantityKind::Temperature);
        let mut adapter = Ieee802154Adapter::new(PanId(7), 0x0042);
        let samples = adapter.decode_uplink(&dev.emit(21.5)).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].0, QuantityKind::Temperature);
        assert!((samples[0].1 - 21.5).abs() < 1e-6);

        // A frame from another device is rejected.
        let mut other = Ieee802154Sensor::new(PanId(7), 0x0099, QuantityKind::Temperature);
        assert!(adapter.decode_uplink(&other.emit(1.0)).is_err());
    }

    #[test]
    fn ieee802154_actuation_decodes_on_device_side() {
        let mut adapter = Ieee802154Adapter::new(PanId(7), 0x0042);
        let bytes = adapter.encode_actuation(1.0).unwrap();
        let frame = MacFrame::decode(&bytes).unwrap();
        assert_eq!(frame.dest, Address::Short(0x0042));
        let (q, v) = Ieee802154Sensor::parse_payload(frame.payload).unwrap();
        assert_eq!(q, QuantityKind::SwitchState);
        assert_eq!(v, 1.0);
    }

    #[test]
    fn zigbee_uplink_scaling() {
        let mut dev = ZbSensor::new(0x4F21, QuantityKind::Temperature);
        let mut adapter = ZigbeeAdapter::new(0x4F21);
        let samples = adapter.decode_uplink(&dev.emit(21.57)).unwrap();
        assert_eq!(samples, vec![(QuantityKind::Temperature, 21.57)]);

        let mut meter = ZbSensor::new(0x4F21, QuantityKind::ElectricalEnergy);
        let samples = adapter.decode_uplink(&meter.emit(1234.56)).unwrap();
        assert_eq!(samples[0].0, QuantityKind::ElectricalEnergy);
        assert!((samples[0].1 - 1234.56).abs() < 0.011);
    }

    #[test]
    fn zigbee_wrong_source_rejected() {
        let mut dev = ZbSensor::new(0x1111, QuantityKind::Temperature);
        let mut adapter = ZigbeeAdapter::new(0x2222);
        assert!(adapter.decode_uplink(&dev.emit(20.0)).is_err());
    }

    #[test]
    fn zigbee_actuation_is_onoff() {
        let mut adapter = ZigbeeAdapter::new(0x4F21);
        let bytes = adapter.encode_actuation(1.0).unwrap();
        let frame = ZigbeeFrame::decode(&bytes).unwrap();
        assert_eq!(frame.cluster, ClusterId::ON_OFF);
        let on = frame.attributes().next().unwrap();
        assert_eq!(on.value, ZclValue::Bool(true));
    }

    #[test]
    fn enocean_multi_sample_uplink() {
        let mut dev = EnoceanSensor::new(0xABCD, Eep::A50401);
        let mut adapter = EnoceanAdapter::new(0xABCD, Eep::A50401);
        let samples = adapter.decode_uplink(&dev.emit(22.0)).unwrap();
        assert_eq!(samples.len(), 2, "A5-04-01 reports temperature + humidity");
        assert_eq!(samples[0].0, QuantityKind::Temperature);
        assert_eq!(samples[1].0, QuantityKind::Humidity);
    }

    #[test]
    fn enocean_actuation_only_for_switches() {
        let mut meter = EnoceanAdapter::new(1, Eep::A51201);
        assert!(meter.encode_actuation(1.0).is_none());
        let mut rocker = EnoceanAdapter::new(1, Eep::F60201);
        assert!(rocker.encode_actuation(1.0).is_some());
    }

    #[test]
    fn opcua_poll_cycle() {
        let mut server = OpcUaFieldServer::new(QuantityKind::ThermalEnergy);
        server.update(777.0, 123);
        let mut adapter =
            OpcUaAdapter::new(server.value_node().clone(), QuantityKind::ThermalEnergy);
        let poll = adapter.poll_request().unwrap();
        let response = server.handle_bytes(&poll).unwrap();
        let samples = adapter.decode_poll(&response).unwrap();
        assert_eq!(samples, vec![(QuantityKind::ThermalEnergy, 777.0)]);
        // Uplink path must refuse.
        assert!(adapter.decode_uplink(&response).is_err());
    }

    #[test]
    fn coap_poll_cycle() {
        use protocols::device::CoapFieldServer;
        let mut server = CoapFieldServer::new(QuantityKind::Co2);
        server.update(417.0, 5_000);
        let mut adapter = CoapAdapter::new(QuantityKind::Co2);
        let poll = adapter.poll_request().unwrap();
        let response = server.handle_bytes(&poll).unwrap();
        assert_eq!(
            adapter.decode_poll(&response).unwrap(),
            vec![(QuantityKind::Co2, 417.0)]
        );
        assert!(adapter.decode_uplink(&response).is_err());

        // Actuation lands on the device.
        let actuation = adapter.encode_actuation(1.0).unwrap();
        let resp = server.handle_bytes(&actuation).unwrap();
        let msg = protocols::coap::CoapMessage::decode(&resp).unwrap();
        assert!(msg.code.is_success());
        assert_eq!(server.actuations, vec![1.0]);
    }

    /// Actuation frames, byte for byte, over values whose `{value}`
    /// formatting differs in length and form.
    #[test]
    fn coap_actuation_frames_match_their_pinned_bytes() {
        let mut adapter = CoapAdapter::new(QuantityKind::SwitchState);
        let frames: Vec<String> = [1.0, 0.0, -2.5, 0.1 + 0.2, 1e21, -0.0]
            .into_iter()
            .map(|v| {
                let frame = adapter.encode_actuation(v).unwrap();
                frame.iter().map(|b| format!("{b:02x}")).collect()
            })
            .collect();
        // A confirmable POST (0x02) with id and token `i`, Uri-Path
        // "actuate", Content-Format JSON (50), then the body.
        let pinned: Vec<String> = [
            r#"{"value":1}"#,
            r#"{"value":0}"#,
            r#"{"value":-2.5}"#,
            r#"{"value":0.30000000000000004}"#,
            r#"{"value":1000000000000000000000}"#,
            r#"{"value":-0}"#,
        ]
        .iter()
        .zip(1u16..)
        .map(|(body, i)| {
            let body: String = body.bytes().map(|b| format!("{b:02x}")).collect();
            format!("4202{i:04x}{i:04x}b7616374756174651132ff{body}")
        })
        .collect();
        assert_eq!(frames, pinned);
    }

    #[test]
    fn coap_error_responses_rejected() {
        use protocols::device::CoapFieldServer;
        let mut server = CoapFieldServer::new(QuantityKind::Co2);
        let mut adapter = CoapAdapter::new(QuantityKind::Co2);
        // Poll a missing resource by hand.
        let bad = protocols::coap::CoapMessage::get(1, &[], "ghost").encode();
        let response = server.handle_bytes(&bad).unwrap();
        assert!(adapter.decode_poll(&response).is_err());
    }
}
