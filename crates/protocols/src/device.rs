//! Simulated field devices.
//!
//! Stand-ins for the physical hardware of the paper's test sites: each
//! device turns a physical reading into the **exact bytes** its protocol
//! would put on the air, so the Device-proxy's dedicated layer exercises
//! the real decode path. Uplink devices ([`UplinkDevice`]) push frames;
//! field servers ([`FieldServer`]: OPC UA, CoAP) are polled.

use dimmer_core::QuantityKind;

use crate::enocean::{Eep, EepReading};
use crate::ieee802154::{Address, MacFrame, PanId};
use crate::opcua::{AddressSpace, Message, NodeId, Variant};
use crate::zigbee::{self, ClusterId, ZclAttribute, ZclValue};
use crate::{ProtocolError, ProtocolKind};

/// Marker byte opening the raw-802.15.4 application payload.
const RAW_SENSOR_MARKER: u8 = 0xA0;

/// A device that spontaneously pushes uplink frames (802.15.4, ZigBee,
/// EnOcean). The caller decides *when* to emit; the device decides *what
/// bytes* that emission is. `Send` because devices live inside simulated
/// nodes, which a sharded parallel run executes on worker threads.
pub trait UplinkDevice: Send {
    /// The protocol family of the emitted frames.
    fn protocol(&self) -> ProtocolKind;

    /// The quantity this device reports.
    fn quantity(&self) -> QuantityKind;

    /// Produces the wire bytes reporting `value` (in the quantity's
    /// canonical unit).
    fn emit(&mut self, value: f64) -> Vec<u8>;
}

/// A device that is polled: it holds a live reading and answers encoded
/// requests (OPC UA, CoAP). `Send` for the same reason as
/// [`UplinkDevice`].
pub trait FieldServer: Send {
    /// The quantity served.
    fn quantity(&self) -> QuantityKind;

    /// Updates the live reading (the "field" side changing).
    fn update(&mut self, value: f64, unix_millis: i64);

    /// Handles an encoded request, returning the encoded response.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the request bytes do not decode.
    fn handle_bytes(&mut self, request: &[u8]) -> Result<Vec<u8>, ProtocolError>;
}

/// Quantity codes used in the raw 802.15.4 application payload.
fn quantity_code(q: QuantityKind) -> u8 {
    match q {
        QuantityKind::Temperature => 1,
        QuantityKind::ActivePower => 2,
        QuantityKind::ElectricalEnergy => 3,
        QuantityKind::ThermalEnergy => 4,
        QuantityKind::Voltage => 5,
        QuantityKind::Current => 6,
        QuantityKind::FlowRate => 7,
        QuantityKind::Illuminance => 8,
        QuantityKind::Humidity => 9,
        QuantityKind::Co2 => 10,
        QuantityKind::Occupancy => 11,
        QuantityKind::SwitchState => 12,
        // `QuantityKind` is non-exhaustive; new kinds get no raw code
        // until one is assigned here.
        _ => 0,
    }
}

/// Reverses the raw quantity code used in 802.15.4 sensor payloads.
///
/// # Errors
///
/// Returns [`ProtocolError::Unsupported`] for unknown codes.
pub(crate) fn quantity_from_code(code: u8) -> Result<QuantityKind, ProtocolError> {
    QuantityKind::all()
        .iter()
        .copied()
        .find(|&q| quantity_code(q) == code)
        .ok_or(ProtocolError::Unsupported {
            context: "raw sensor quantity code",
            value: u64::from(code),
        })
}

/// A raw IEEE 802.15.4 sensor: MAC data frames whose payload is
/// `[marker, quantity, f32-LE value]`.
#[derive(Debug, Clone)]
pub struct Ieee802154Sensor {
    pan: PanId,
    short_address: u16,
    coordinator: u16,
    quantity: QuantityKind,
    sequence: u8,
}

impl Ieee802154Sensor {
    /// Creates a sensor on `pan` with MAC short address `short_address`,
    /// reporting to coordinator `0x0000`.
    pub fn new(pan: PanId, short_address: u16, quantity: QuantityKind) -> Self {
        Ieee802154Sensor {
            pan,
            short_address,
            coordinator: 0x0000,
            quantity,
            sequence: 0,
        }
    }

    /// Parses the application payload of a frame this sensor type emits.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the payload is not a raw sensor
    /// report.
    pub fn parse_payload(payload: &[u8]) -> Result<(QuantityKind, f64), ProtocolError> {
        if payload.len() != 6 {
            return Err(ProtocolError::Malformed {
                reason: "raw sensor payload must be 6 bytes",
            });
        }
        if payload[0] != RAW_SENSOR_MARKER {
            return Err(ProtocolError::BadSync { found: payload[0] });
        }
        let quantity = quantity_from_code(payload[1])?;
        let value = f32::from_le_bytes(payload[2..6].try_into().expect("length checked"));
        Ok((quantity, f64::from(value)))
    }

    /// The application payload reporting `value` as `quantity`, the
    /// inverse of [`Ieee802154Sensor::parse_payload`]. Downlink
    /// actuations use the same format.
    pub fn encode_payload(quantity: QuantityKind, value: f64) -> Vec<u8> {
        let mut payload = Vec::with_capacity(6);
        payload.push(RAW_SENSOR_MARKER);
        payload.push(quantity_code(quantity));
        payload.extend_from_slice(&(value as f32).to_le_bytes());
        payload
    }
}

impl UplinkDevice for Ieee802154Sensor {
    fn protocol(&self) -> ProtocolKind {
        ProtocolKind::Ieee802154
    }

    fn quantity(&self) -> QuantityKind {
        self.quantity
    }

    fn emit(&mut self, value: f64) -> Vec<u8> {
        let frame = MacFrame::data(
            self.pan,
            Address::Short(self.coordinator),
            Address::Short(self.short_address),
            self.sequence,
            Ieee802154Sensor::encode_payload(self.quantity, value),
        );
        self.sequence = self.sequence.wrapping_add(1);
        frame.encode()
    }
}

/// A ZigBee sensor reporting through the ZCL cluster matching its
/// quantity.
#[derive(Debug, Clone)]
pub struct ZigbeeSensor {
    nwk_address: u16,
    quantity: QuantityKind,
    sequence: u8,
}

impl ZigbeeSensor {
    /// Creates a sensor with NWK short address `nwk_address`.
    ///
    /// # Panics
    ///
    /// Panics if no ZCL cluster maps to `quantity` (see
    /// `ZigbeeSensor::cluster_for`).
    pub fn new(nwk_address: u16, quantity: QuantityKind) -> Self {
        assert!(
            ZigbeeSensor::cluster_for(quantity).is_some(),
            "no zigbee cluster for {quantity}"
        );
        ZigbeeSensor {
            nwk_address,
            quantity,
            sequence: 0,
        }
    }

    /// The cluster and attribute that report `quantity`, if supported.
    pub(crate) fn cluster_for(quantity: QuantityKind) -> Option<(ClusterId, u16)> {
        match quantity {
            QuantityKind::Temperature => Some((ClusterId::TEMPERATURE_MEASUREMENT, 0x0000)),
            QuantityKind::Humidity => Some((ClusterId::RELATIVE_HUMIDITY, 0x0000)),
            QuantityKind::ActivePower => Some((ClusterId::ELECTRICAL_MEASUREMENT, 0x050B)),
            QuantityKind::ElectricalEnergy => Some((ClusterId::SIMPLE_METERING, 0x0000)),
            QuantityKind::SwitchState | QuantityKind::Occupancy => {
                Some((ClusterId::ON_OFF, 0x0000))
            }
            _ => None,
        }
    }

    /// Converts a canonical-unit value into the cluster's wire scaling.
    pub(crate) fn scale_to_wire(quantity: QuantityKind, value: f64) -> ZclValue {
        match quantity {
            // centidegrees Celsius
            QuantityKind::Temperature => ZclValue::I16((value * 100.0) as i16),
            // centipercent
            QuantityKind::Humidity => ZclValue::U16((value * 100.0) as u16),
            // watts
            QuantityKind::ActivePower => ZclValue::I16(value as i16),
            // metering: 0.01 kWh ticks
            QuantityKind::ElectricalEnergy => ZclValue::U48((value * 100.0).max(0.0) as u64),
            _ => ZclValue::Bool(value != 0.0),
        }
    }

    /// Converts a wire value back to the canonical unit.
    pub fn scale_from_wire(quantity: QuantityKind, value: ZclValue) -> f64 {
        match quantity {
            QuantityKind::Temperature => value.as_f64() / 100.0,
            QuantityKind::Humidity => value.as_f64() / 100.0,
            QuantityKind::ElectricalEnergy => value.as_f64() / 100.0,
            _ => value.as_f64(),
        }
    }
}

impl UplinkDevice for ZigbeeSensor {
    fn protocol(&self) -> ProtocolKind {
        ProtocolKind::Zigbee
    }

    fn quantity(&self) -> QuantityKind {
        self.quantity
    }

    fn emit(&mut self, value: f64) -> Vec<u8> {
        let (cluster, attr_id) =
            ZigbeeSensor::cluster_for(self.quantity).expect("checked in constructor");
        let frame = zigbee::report_builder(self.nwk_address, cluster)
            .sequence(self.sequence)
            .attribute(ZclAttribute::new(
                attr_id,
                ZigbeeSensor::scale_to_wire(self.quantity, value),
            ))
            .build();
        self.sequence = self.sequence.wrapping_add(1);
        frame.encode()
    }
}

/// An EnOcean sensor emitting ESP3-wrapped ERP1 telegrams.
#[derive(Debug, Clone)]
pub struct EnoceanSensor {
    sender_id: u32,
    eep: Eep,
}

impl EnoceanSensor {
    /// Creates a sensor with unique radio id `sender_id` speaking `eep`.
    pub fn new(sender_id: u32, eep: Eep) -> Self {
        EnoceanSensor { sender_id, eep }
    }

    fn reading_for(&self, value: f64) -> EepReading {
        match self.eep {
            Eep::A50205 => EepReading::Temperature { celsius: value },
            Eep::A50401 => EepReading::TemperatureHumidity {
                celsius: value,
                humidity: 50.0,
            },
            Eep::A51201 => EepReading::MeterReading {
                kilowatt_hours: value,
                channel: 0,
            },
            Eep::D50001 => EepReading::Contact {
                closed: value != 0.0,
            },
            Eep::F60201 => EepReading::Rocker {
                pressed: value != 0.0,
                button: 0,
            },
        }
    }
}

impl UplinkDevice for EnoceanSensor {
    fn protocol(&self) -> ProtocolKind {
        ProtocolKind::EnOcean
    }

    fn quantity(&self) -> QuantityKind {
        self.eep.quantity()
    }

    fn emit(&mut self, value: f64) -> Vec<u8> {
        self.eep
            .encode_reading(&self.reading_for(value), self.sender_id)
            .to_esp3()
    }
}

/// A simulated OPC UA field server (e.g. a heating-plant PLC gateway).
///
/// Unlike the uplink devices it is *polled*: the proxy sends encoded
/// [`Message`] requests to [`OpcUaFieldServer::handle_bytes`].
#[derive(Debug)]
pub struct OpcUaFieldServer {
    space: AddressSpace,
    value_node: NodeId,
    quantity: QuantityKind,
}

impl OpcUaFieldServer {
    /// Creates a server exposing one variable for `quantity` under a
    /// plant object, readable at the returned [`OpcUaFieldServer::value_node`].
    pub fn new(quantity: QuantityKind) -> Self {
        let mut space = AddressSpace::new();
        let root = NodeId::numeric(1, 1);
        let value_node = OpcUaFieldServer::value_node_for(quantity);
        space.add_object(root.clone(), "Plant", None);
        space.add_variable(value_node.clone(), quantity.as_str(), Some(&root), false);
        OpcUaFieldServer {
            space,
            value_node,
            quantity,
        }
    }

    /// The node id holding the live value.
    pub fn value_node(&self) -> &NodeId {
        &self.value_node
    }

    /// The node id a server for `quantity` holds its live value at, so
    /// a poller can be built without building the server.
    pub fn value_node_for(quantity: QuantityKind) -> NodeId {
        NodeId::string(1, format!("plant.{quantity}"))
    }

    /// Updates the live value (the "field" side changing).
    pub fn update(&mut self, value: f64, timestamp_millis: i64) {
        self.space
            .set_value(&self.value_node, Variant::Double(value), timestamp_millis)
            .expect("value node exists");
    }

    /// Handles an encoded service request, returning the encoded response.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the request bytes do not decode.
    pub fn handle_bytes(&mut self, request: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        let msg = Message::decode(request)?;
        Ok(self.space.handle(&msg).encode())
    }
}

impl FieldServer for OpcUaFieldServer {
    fn quantity(&self) -> QuantityKind {
        self.quantity
    }

    fn update(&mut self, value: f64, unix_millis: i64) {
        OpcUaFieldServer::update(self, value, unix_millis);
    }

    fn handle_bytes(&mut self, request: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        OpcUaFieldServer::handle_bytes(self, request)
    }
}

/// A constrained CoAP sensor node (e.g. a 6LoWPAN mote) exposing:
///
/// * `GET sensor` → `2.05 Content` with a JSON body
///   `{"value": .., "unix_millis": ..}`;
/// * `POST actuate` with `{"value": ..}` → `2.04 Changed`.
///
/// Like [`OpcUaFieldServer`] it is *polled* by its proxy.
#[derive(Debug)]
pub struct CoapFieldServer {
    quantity: QuantityKind,
    value: f64,
    unix_millis: i64,
    /// Actuation values received via POST, most recent last.
    pub actuations: Vec<f64>,
}

impl CoapFieldServer {
    /// Creates a server for `quantity` with no reading yet.
    pub fn new(quantity: QuantityKind) -> Self {
        CoapFieldServer {
            quantity,
            value: 0.0,
            unix_millis: 0,
            actuations: Vec::new(),
        }
    }

    /// Updates the live reading.
    pub fn update(&mut self, value: f64, unix_millis: i64) {
        self.value = value;
        self.unix_millis = unix_millis;
    }

    /// Handles an encoded CoAP request, returning the encoded response.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] when the request bytes do not decode.
    pub fn handle_bytes(&mut self, request: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        use crate::coap::{content_format, CoapCode, CoapMessage};
        let msg = CoapMessage::decode(request)?;
        let response = match (msg.code, msg.path().as_str()) {
            (CoapCode::GET, "sensor") => {
                let body = format!(
                    "{{\"value\":{},\"unix_millis\":{}}}",
                    self.value, self.unix_millis
                );
                msg.respond(
                    CoapCode::CONTENT,
                    Some(content_format::JSON),
                    body.into_bytes(),
                )
            }
            (CoapCode::POST, "actuate") => {
                let value = std::str::from_utf8(&msg.payload)
                    .ok()
                    .and_then(|text| dimmer_core::json::from_str(text).ok())
                    .and_then(|v| v.get("value").and_then(dimmer_core::Value::as_f64));
                match value {
                    Some(v) => {
                        self.actuations.push(v);
                        msg.respond(CoapCode::CHANGED, None, Vec::new())
                    }
                    None => msg.respond(CoapCode::METHOD_NOT_ALLOWED, None, Vec::new()),
                }
            }
            (CoapCode::GET, _) => msg.respond(CoapCode::NOT_FOUND, None, Vec::new()),
            _ => msg.respond(CoapCode::METHOD_NOT_ALLOWED, None, Vec::new()),
        };
        Ok(response.encode())
    }
}

impl FieldServer for CoapFieldServer {
    fn quantity(&self) -> QuantityKind {
        self.quantity
    }

    fn update(&mut self, value: f64, unix_millis: i64) {
        CoapFieldServer::update(self, value, unix_millis);
    }

    fn handle_bytes(&mut self, request: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        CoapFieldServer::handle_bytes(self, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcua::{AttributeId, ReadValueId};

    #[test]
    fn raw_sensor_emits_valid_mac_frames() {
        let mut dev = Ieee802154Sensor::new(PanId(0x1234), 0x0042, QuantityKind::Temperature);
        let bytes = dev.emit(21.5);
        let frame = MacFrame::decode(&bytes).unwrap();
        let (q, v) = Ieee802154Sensor::parse_payload(&frame.payload).unwrap();
        assert_eq!(q, QuantityKind::Temperature);
        assert!((v - 21.5).abs() < 1e-6);
        // Sequence increments.
        let second = MacFrame::decode(&dev.emit(22.0)).unwrap();
        assert_eq!(second.sequence, frame.sequence.wrapping_add(1));
    }

    #[test]
    fn raw_payload_rejects_garbage() {
        assert!(Ieee802154Sensor::parse_payload(&[]).is_err());
        assert!(Ieee802154Sensor::parse_payload(&[0xA0, 1, 0, 0]).is_err());
        assert!(Ieee802154Sensor::parse_payload(&[0x00, 1, 0, 0, 0, 0]).is_err());
        assert!(Ieee802154Sensor::parse_payload(&[0xA0, 99, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn quantity_codes_round_trip() {
        for &q in QuantityKind::all() {
            assert_eq!(quantity_from_code(quantity_code(q)).unwrap(), q);
        }
    }

    #[test]
    fn zigbee_sensor_scales_per_cluster() {
        let mut dev = ZigbeeSensor::new(0x77, QuantityKind::Temperature);
        let frame = zigbee::ZigbeeFrame::decode(&dev.emit(21.57)).unwrap();
        assert_eq!(frame.cluster, ClusterId::TEMPERATURE_MEASUREMENT);
        assert_eq!(frame.attributes[0].value, ZclValue::I16(2157));
        assert_eq!(
            ZigbeeSensor::scale_from_wire(QuantityKind::Temperature, frame.attributes[0].value),
            21.57
        );
    }

    #[test]
    fn zigbee_energy_uses_metering_u48() {
        let mut dev = ZigbeeSensor::new(0x78, QuantityKind::ElectricalEnergy);
        let frame = zigbee::ZigbeeFrame::decode(&dev.emit(12_345.67)).unwrap();
        assert_eq!(frame.cluster, ClusterId::SIMPLE_METERING);
        match frame.attributes[0].value {
            ZclValue::U48(v) => assert_eq!(v, 1_234_567),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "no zigbee cluster")]
    fn zigbee_unsupported_quantity_panics() {
        ZigbeeSensor::new(1, QuantityKind::Co2);
    }

    #[test]
    fn enocean_sensor_emits_decodable_esp3() {
        let mut dev = EnoceanSensor::new(0x0180_92AB, Eep::A50205);
        let packet = dev.emit(18.0);
        let telegram = crate::enocean::Erp1Telegram::from_esp3(&packet).unwrap();
        assert_eq!(telegram.sender_id, 0x0180_92AB);
        match Eep::A50205.decode_reading(&telegram).unwrap() {
            EepReading::Temperature { celsius } => assert!((celsius - 18.0).abs() < 0.1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn enocean_quantities_match_profiles() {
        assert_eq!(
            EnoceanSensor::new(1, Eep::A51201).quantity(),
            QuantityKind::ElectricalEnergy
        );
        assert_eq!(
            EnoceanSensor::new(1, Eep::D50001).quantity(),
            QuantityKind::SwitchState
        );
    }

    #[test]
    fn opcua_server_answers_polls() {
        let mut server = OpcUaFieldServer::new(QuantityKind::ThermalEnergy);
        server.update(4321.0, 5_000);
        let request = Message::ReadRequest {
            nodes: vec![ReadValueId {
                node_id: server.value_node().clone(),
                attribute: AttributeId::Value,
            }],
        }
        .encode();
        let response = server.handle_bytes(&request).unwrap();
        let Message::ReadResponse { results } = Message::decode(&response).unwrap() else {
            panic!("wrong response");
        };
        assert_eq!(results[0].value, Some(Variant::Double(4321.0)));
        assert_eq!(results[0].source_timestamp, Some(5_000));
    }

    #[test]
    fn coap_server_serves_and_actuates() {
        use crate::coap::{CoapCode, CoapMessage};
        let mut server = CoapFieldServer::new(QuantityKind::Co2);
        server.update(417.0, 9_000);
        let get = CoapMessage::get(1, vec![7], "sensor");
        let resp = CoapMessage::decode(&server.handle_bytes(&get.encode()).unwrap()).unwrap();
        assert_eq!(resp.code, CoapCode::CONTENT);
        assert_eq!(resp.token, vec![7]);
        let body =
            dimmer_core::json::from_str(std::str::from_utf8(&resp.payload).unwrap()).unwrap();
        assert_eq!(
            body.get("value").and_then(dimmer_core::Value::as_f64),
            Some(417.0)
        );

        let post = CoapMessage::post_json(2, vec![8], "actuate", b"{\"value\":1.0}".to_vec());
        let resp = CoapMessage::decode(&server.handle_bytes(&post.encode()).unwrap()).unwrap();
        assert_eq!(resp.code, CoapCode::CHANGED);
        assert_eq!(server.actuations, vec![1.0]);

        let missing = CoapMessage::get(3, vec![], "ghost");
        let resp = CoapMessage::decode(&server.handle_bytes(&missing.encode()).unwrap()).unwrap();
        assert_eq!(resp.code, CoapCode::NOT_FOUND);
        assert!(server.handle_bytes(&[0xFF, 0x00]).is_err());
    }

    #[test]
    fn opcua_server_rejects_garbage() {
        let mut server = OpcUaFieldServer::new(QuantityKind::Temperature);
        assert!(server.handle_bytes(&[0xFF, 0x00]).is_err());
    }
}
