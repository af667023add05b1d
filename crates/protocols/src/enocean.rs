//! EnOcean ESP3 packets and ERP1 radio telegrams.
//!
//! EnOcean devices are energy-harvesting (batteryless) radio sensors.
//! A gateway receives **ERP1** radio telegrams wrapped in **ESP3** serial
//! packets. This module implements:
//!
//! * the ESP3 framing (sync 0x55, header with CRC-8, data + optional data
//!   with CRC-8 — polynomial 0x07);
//! * ERP1 telegrams for the three classic RORGs: RPS (0xF6, rocker
//!   switches), 1BS (0xD5, contacts) and 4BS (0xA5, four data bytes);
//! * EnOcean Equipment Profiles (EEP) used in district monitoring:
//!   A5-02-05 (temperature 0–40 °C), A5-04-01 (temperature + humidity),
//!   A5-12-01 (automated meter reading), D5-00-01 (single input contact)
//!   and F6-02-01 (rocker switch).

use dimmer_core::bytes::Cursor;
use dimmer_core::QuantityKind;

use crate::ProtocolError;

/// CRC-8 with polynomial 0x07 (init 0), as used by ESP3.
pub(crate) fn crc8(bytes: &[u8]) -> u8 {
    let mut crc: u8 = 0;
    for &b in bytes {
        crc ^= b;
        for _ in 0..8 {
            if crc & 0x80 != 0 {
                crc = (crc << 1) ^ 0x07;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

/// The radio-telegram organization (RORG) byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rorg {
    /// Repeated switch communication (rocker switches), 1 data byte.
    Rps,
    /// 1-byte communication (contacts), 1 data byte.
    OneBs,
    /// 4-byte communication (most sensors), 4 data bytes.
    FourBs,
}

impl Rorg {
    /// The RORG discriminator byte.
    pub fn byte(self) -> u8 {
        match self {
            Rorg::Rps => 0xF6,
            Rorg::OneBs => 0xD5,
            Rorg::FourBs => 0xA5,
        }
    }

    /// Number of user-data bytes for this RORG.
    pub(crate) fn data_len(self) -> usize {
        match self {
            Rorg::Rps | Rorg::OneBs => 1,
            Rorg::FourBs => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        match b {
            0xF6 => Ok(Rorg::Rps),
            0xD5 => Ok(Rorg::OneBs),
            0xA5 => Ok(Rorg::FourBs),
            other => Err(ProtocolError::Unsupported {
                context: "enocean rorg",
                value: u64::from(other),
            }),
        }
    }
}

/// An ERP1 radio telegram. Its user data is borrowed: from the sender's
/// bytes when it is built, from the received packet when it is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Erp1Telegram<'a> {
    /// The telegram organization.
    pub rorg: Rorg,
    /// User data; length must equal `rorg.data_len()`.
    pub data: &'a [u8],
    /// The 32-bit unique sender id.
    pub sender_id: u32,
    /// The status byte (repeater count, integrity bits).
    pub status: u8,
}

/// ESP3 optional data: subTelNum=3, destination broadcast, dBm=0xFF,
/// security level 0 — the fixed shape gateways emit.
const OPTIONAL: [u8; 7] = [0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00];

impl<'a> Erp1Telegram<'a> {
    /// Creates a telegram, validating the data length.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rorg.data_len()` — telegram builders are
    /// internal producers, so a mismatch is a programming error.
    pub fn new(rorg: Rorg, data: &'a [u8], sender_id: u32, status: u8) -> Self {
        assert_eq!(
            data.len(),
            rorg.data_len(),
            "ERP1 data length must match the RORG"
        );
        Erp1Telegram {
            rorg,
            data,
            sender_id,
            status,
        }
    }

    /// The length of the telegram body (RORG + data + sender + status).
    fn wire_len(&self) -> usize {
        1 + self.data.len() + 4 + 1
    }

    /// Appends the telegram body (RORG + data + sender + status) to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.rorg.byte());
        out.extend_from_slice(self.data);
        out.extend_from_slice(&self.sender_id.to_be_bytes());
        out.push(self.status);
    }

    /// Decodes a telegram body; the data borrows `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncation or an unknown RORG.
    fn decode(bytes: &'a [u8]) -> Result<Self, ProtocolError> {
        const CTX: &str = "erp1 telegram";
        let mut r = Cursor::new(bytes, CTX);
        let rorg = Rorg::from_byte(r.u8()?)?;
        let data = r.take(rorg.data_len())?;
        let sender_id = r.u32_be()?;
        let status = r.u8()?;
        r.finish(ProtocolError::Malformed {
            reason: "trailing bytes after erp1 telegram",
        })?;
        Ok(Erp1Telegram {
            rorg,
            data,
            sender_id,
            status,
        })
    }

    /// Wraps the telegram in an ESP3 packet (type 1, RADIO_ERP1), in an
    /// exact-size buffer.
    pub fn to_esp3(&self) -> Vec<u8> {
        let data_len = self.wire_len();
        let mut out = Vec::with_capacity(6 + data_len + OPTIONAL.len() + 1);
        out.push(0x55);
        let header = [
            (data_len >> 8) as u8,
            data_len as u8,
            OPTIONAL.len() as u8,
            0x01, // packet type RADIO_ERP1
        ];
        out.extend_from_slice(&header);
        out.push(crc8(&header));
        self.encode_into(&mut out);
        out.extend_from_slice(&OPTIONAL);
        // The data CRC covers data and optional data, already at the
        // tail of `out` after the 6-byte sync, header and header CRC.
        out.push(crc8(&out[6..]));
        out
    }

    /// Extracts the telegram from an ESP3 packet, verifying both CRCs;
    /// the telegram's data borrows `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on a bad sync byte, CRC mismatch,
    /// truncation, or a non-ERP1 packet type.
    pub fn from_esp3(bytes: &'a [u8]) -> Result<Self, ProtocolError> {
        const CTX: &str = "esp3 packet";
        let mut r = Cursor::new(bytes, CTX);
        let sync = r.u8()?;
        if sync != 0x55 {
            return Err(ProtocolError::BadSync { found: sync });
        }
        let header = r.take(4)?;
        let header_crc = r.u8()?;
        let expected = crc8(header);
        if header_crc != expected {
            return Err(ProtocolError::BadChecksum {
                context: "esp3 header",
                expected: u32::from(expected),
                found: u32::from(header_crc),
            });
        }
        let mut h = Cursor::new(header, CTX);
        let data_len = usize::from(h.u16_be()?);
        let opt_len = usize::from(h.u8()?);
        let packet_type = h.u8()?;
        if packet_type != 0x01 {
            return Err(ProtocolError::Unsupported {
                context: "esp3 packet type",
                value: u64::from(packet_type),
            });
        }
        let payload = r.take(data_len + opt_len)?;
        let found = r.u8()?;
        let expected = crc8(payload);
        if found != expected {
            return Err(ProtocolError::BadChecksum {
                context: "esp3 data",
                expected: u32::from(expected),
                found: u32::from(found),
            });
        }
        Erp1Telegram::decode(Cursor::new(payload, CTX).take(data_len)?)
    }
}

/// Decoded sensor readings per EnOcean Equipment Profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EepReading {
    /// A5-02-05: temperature 0–40 °C.
    Temperature {
        /// Degrees Celsius.
        celsius: f64,
    },
    /// A5-04-01: temperature 0–40 °C and relative humidity 0–100 %.
    TemperatureHumidity {
        /// Degrees Celsius.
        celsius: f64,
        /// Percent relative humidity.
        humidity: f64,
    },
    /// A5-12-01: automated meter reading, cumulative value in kWh.
    MeterReading {
        /// Kilowatt-hours after applying the divisor.
        kilowatt_hours: f64,
        /// The meter channel (tariff) 0–15.
        channel: u8,
    },
    /// D5-00-01: single input contact.
    Contact {
        /// True when the contact is closed.
        closed: bool,
    },
    /// F6-02-01: rocker switch action.
    Rocker {
        /// True when a button is pressed (energy-bow pressed).
        pressed: bool,
        /// The rocker button code 0–3.
        button: u8,
    },
}

/// The EnOcean Equipment Profiles the framework understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Eep {
    /// A5-02-05: temperature sensor 0–40 °C.
    A50205,
    /// A5-04-01: temperature + humidity sensor.
    A50401,
    /// A5-12-01: automated meter reading (electricity).
    A51201,
    /// D5-00-01: single input contact.
    D50001,
    /// F6-02-01: two-rocker switch.
    F60201,
}

impl Eep {
    /// The RORG this profile rides on.
    pub(crate) fn rorg(self) -> Rorg {
        match self {
            Eep::A50205 | Eep::A50401 | Eep::A51201 => Rorg::FourBs,
            Eep::D50001 => Rorg::OneBs,
            Eep::F60201 => Rorg::Rps,
        }
    }

    /// The quantity a device speaking this profile reports (A5-04-01
    /// adds humidity beside its temperature).
    pub fn quantity(self) -> QuantityKind {
        match self {
            Eep::A50205 | Eep::A50401 => QuantityKind::Temperature,
            Eep::A51201 => QuantityKind::ElectricalEnergy,
            Eep::D50001 | Eep::F60201 => QuantityKind::SwitchState,
        }
    }

    /// The profile name in `RR-FF-TT` notation.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Eep::A50205 => "A5-02-05",
            Eep::A50401 => "A5-04-01",
            Eep::A51201 => "A5-12-01",
            Eep::D50001 => "D5-00-01",
            Eep::F60201 => "F6-02-01",
        }
    }

    /// Encodes a reading into a telegram from `sender_id`, whose user
    /// data is written into `data` (the first `rorg().data_len()` bytes).
    ///
    /// # Panics
    ///
    /// Panics if `reading` does not match the profile, or a field is out
    /// of the profile's range (e.g. temperature outside 0–40 °C is
    /// clamped, but a mismatched variant is a programming error).
    pub fn encode_reading<'a>(
        self,
        reading: &EepReading,
        sender_id: u32,
        data: &'a mut [u8; 4],
    ) -> Erp1Telegram<'a> {
        let status = match (self, reading) {
            (Eep::A50205, EepReading::Temperature { celsius }) => {
                // DB1 holds 255..0 over 0..40 degC (inverted scale).
                let t = celsius.clamp(0.0, 40.0);
                let raw = (255.0 - t / 40.0 * 255.0).round() as u8;
                // DB0 bit3 = 1 marks a data telegram (not teach-in).
                *data = [0, 0, raw, 0x08];
                0
            }
            (Eep::A50401, EepReading::TemperatureHumidity { celsius, humidity }) => {
                let h = humidity.clamp(0.0, 100.0);
                let t = celsius.clamp(0.0, 40.0);
                let hraw = (h / 100.0 * 250.0).round() as u8;
                let traw = (t / 40.0 * 250.0).round() as u8;
                // DB0 bit3 data telegram, bit1 temperature available.
                *data = [0, hraw, traw, 0x0A];
                0
            }
            (
                Eep::A51201,
                EepReading::MeterReading {
                    kilowatt_hours,
                    channel,
                },
            ) => {
                assert!(*channel < 16, "meter channel out of range");
                // 24-bit counter, divisor fixed at 10 (0.1 kWh units).
                let counter = ((kilowatt_hours * 10.0).round().clamp(0.0, 16_777_215.0)) as u32;
                let db0 = 0x08 // data telegram (LRN bit set)
                    | 0x01 // divisor 10 (DIV field DB0.0-1 = 01)
                    | ((channel & 0x0F) << 4);
                *data = [
                    (counter >> 16) as u8,
                    (counter >> 8) as u8,
                    counter as u8,
                    db0,
                ];
                0
            }
            (Eep::D50001, EepReading::Contact { closed }) => {
                // Bit3 = learn (1 = data), bit0 = contact.
                data[0] = 0x08 | u8::from(*closed);
                0
            }
            (Eep::F60201, EepReading::Rocker { pressed, button }) => {
                assert!(*button < 4, "rocker button out of range");
                data[0] = if *pressed {
                    (button << 5) | 0x10 // energy bow pressed
                } else {
                    0x00
                };
                // Status 0x30: T21 + NU flags for RPS data telegrams.
                0x30
            }
            (profile, reading) => {
                panic!(
                    "reading {reading:?} does not match profile {}",
                    profile.name()
                )
            }
        };
        let rorg = self.rorg();
        let data: &'a [u8; 4] = data;
        Erp1Telegram::new(rorg, &data[..rorg.data_len()], sender_id, status)
    }

    /// Decodes a telegram according to this profile.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Malformed`] if the telegram's RORG does
    /// not match the profile or marks a teach-in telegram.
    pub fn decode_reading(self, telegram: &Erp1Telegram) -> Result<EepReading, ProtocolError> {
        if telegram.rorg != self.rorg() {
            return Err(ProtocolError::Malformed {
                reason: "telegram rorg does not match the profile",
            });
        }
        match self {
            Eep::A50205 => {
                let db0 = telegram.data[3];
                if db0 & 0x08 == 0 {
                    return Err(ProtocolError::Malformed {
                        reason: "teach-in telegram",
                    });
                }
                let raw = telegram.data[2];
                Ok(EepReading::Temperature {
                    celsius: (255.0 - f64::from(raw)) / 255.0 * 40.0,
                })
            }
            Eep::A50401 => {
                let db0 = telegram.data[3];
                if db0 & 0x08 == 0 {
                    return Err(ProtocolError::Malformed {
                        reason: "teach-in telegram",
                    });
                }
                Ok(EepReading::TemperatureHumidity {
                    celsius: f64::from(telegram.data[2]) / 250.0 * 40.0,
                    humidity: f64::from(telegram.data[1]) / 250.0 * 100.0,
                })
            }
            Eep::A51201 => {
                let db0 = telegram.data[3];
                if db0 & 0x08 == 0 {
                    return Err(ProtocolError::Malformed {
                        reason: "teach-in telegram",
                    });
                }
                let counter = (u32::from(telegram.data[0]) << 16)
                    | (u32::from(telegram.data[1]) << 8)
                    | u32::from(telegram.data[2]);
                let divisor = match db0 & 0b11 {
                    0 => 1.0,
                    1 => 10.0,
                    2 => 100.0,
                    _ => 1000.0,
                };
                Ok(EepReading::MeterReading {
                    kilowatt_hours: f64::from(counter) / divisor,
                    channel: db0 >> 4,
                })
            }
            Eep::D50001 => {
                let byte = telegram.data[0];
                if byte & 0x08 == 0 {
                    return Err(ProtocolError::Malformed {
                        reason: "teach-in telegram",
                    });
                }
                Ok(EepReading::Contact {
                    closed: byte & 0x01 != 0,
                })
            }
            Eep::F60201 => {
                let byte = telegram.data[0];
                let pressed = byte & 0x10 != 0;
                Ok(EepReading::Rocker {
                    pressed,
                    button: (byte >> 5) & 0b11,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc8_known_vectors() {
        // CRC-8 (poly 0x07, init 0) of "123456789" is 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0x00);
    }

    #[test]
    fn erp1_round_trip_all_rorgs() {
        for (rorg, data) in [
            (Rorg::Rps, &[0x30][..]),
            (Rorg::OneBs, &[0x09]),
            (Rorg::FourBs, &[1, 2, 3, 8]),
        ] {
            let t = Erp1Telegram::new(rorg, data, 0x0180_92AB, 0x30);
            let mut body = Vec::new();
            t.encode_into(&mut body);
            assert_eq!(body.len(), t.wire_len());
            assert_eq!(Erp1Telegram::decode(&body).unwrap(), t);
        }
    }

    #[test]
    fn esp3_round_trip() {
        let t = Erp1Telegram::new(Rorg::FourBs, &[0, 0, 128, 8], 0x0180_92AB, 0);
        let packet = t.to_esp3();
        assert_eq!(packet[0], 0x55);
        assert_eq!(packet.capacity(), packet.len(), "sized up front");
        assert_eq!(Erp1Telegram::from_esp3(&packet).unwrap(), t);
    }

    #[test]
    fn esp3_detects_corruption() {
        let t = Erp1Telegram::new(Rorg::OneBs, &[0x09], 42, 0);
        let good = t.to_esp3();

        let mut bad_sync = good.clone();
        bad_sync[0] = 0x54;
        assert!(matches!(
            Erp1Telegram::from_esp3(&bad_sync),
            Err(ProtocolError::BadSync { .. })
        ));

        let mut bad_header = good.clone();
        bad_header[2] ^= 0x01;
        assert!(matches!(
            Erp1Telegram::from_esp3(&bad_header),
            Err(ProtocolError::BadChecksum { .. })
        ));

        let mut bad_data = good.clone();
        bad_data[7] ^= 0x01;
        assert!(matches!(
            Erp1Telegram::from_esp3(&bad_data),
            Err(ProtocolError::BadChecksum { .. })
        ));

        for cut in [0, 3, 8] {
            assert!(Erp1Telegram::from_esp3(&good[..cut]).is_err());
        }
    }

    #[test]
    fn temperature_profile_round_trip() {
        for t in [0.0, 10.5, 21.3, 39.9, 40.0] {
            let mut data = [0; 4];
            let tel =
                Eep::A50205.encode_reading(&EepReading::Temperature { celsius: t }, 1, &mut data);
            match Eep::A50205.decode_reading(&tel).unwrap() {
                EepReading::Temperature { celsius } => {
                    // 8-bit quantization over 40 degC: ±0.08 degC.
                    assert!((celsius - t).abs() < 0.08, "{t} -> {celsius}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn temperature_out_of_range_clamped() {
        let mut data = [0; 4];
        let tel =
            Eep::A50205.encode_reading(&EepReading::Temperature { celsius: 99.0 }, 1, &mut data);
        match Eep::A50205.decode_reading(&tel).unwrap() {
            EepReading::Temperature { celsius } => assert!((celsius - 40.0).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn temperature_humidity_round_trip() {
        let mut data = [0; 4];
        let tel = Eep::A50401.encode_reading(
            &EepReading::TemperatureHumidity {
                celsius: 22.0,
                humidity: 55.0,
            },
            7,
            &mut data,
        );
        match Eep::A50401.decode_reading(&tel).unwrap() {
            EepReading::TemperatureHumidity { celsius, humidity } => {
                assert!((celsius - 22.0).abs() < 0.1);
                assert!((humidity - 55.0).abs() < 0.3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn meter_reading_round_trip() {
        let mut data = [0; 4];
        let tel = Eep::A51201.encode_reading(
            &EepReading::MeterReading {
                kilowatt_hours: 12_345.6,
                channel: 2,
            },
            9,
            &mut data,
        );
        match Eep::A51201.decode_reading(&tel).unwrap() {
            EepReading::MeterReading {
                kilowatt_hours,
                channel,
            } => {
                assert!((kilowatt_hours - 12_345.6).abs() < 0.051);
                assert_eq!(channel, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn contact_round_trip() {
        for closed in [true, false] {
            let mut data = [0; 4];
            let tel = Eep::D50001.encode_reading(&EepReading::Contact { closed }, 3, &mut data);
            assert_eq!(
                Eep::D50001.decode_reading(&tel).unwrap(),
                EepReading::Contact { closed }
            );
        }
    }

    #[test]
    fn rocker_round_trip() {
        for button in 0..4 {
            let mut data = [0; 4];
            let tel = Eep::F60201.encode_reading(
                &EepReading::Rocker {
                    pressed: true,
                    button,
                },
                3,
                &mut data,
            );
            assert_eq!(
                Eep::F60201.decode_reading(&tel).unwrap(),
                EepReading::Rocker {
                    pressed: true,
                    button
                }
            );
        }
        let mut data = [0; 4];
        let tel = Eep::F60201.encode_reading(
            &EepReading::Rocker {
                pressed: false,
                button: 0,
            },
            3,
            &mut data,
        );
        assert_eq!(
            Eep::F60201.decode_reading(&tel).unwrap(),
            EepReading::Rocker {
                pressed: false,
                button: 0
            }
        );
    }

    #[test]
    fn teach_in_telegram_rejected() {
        // DB0 bit3 = 0 marks teach-in for 4BS profiles.
        let tel = Erp1Telegram::new(Rorg::FourBs, &[0, 0, 100, 0x00], 1, 0);
        assert!(matches!(
            Eep::A50205.decode_reading(&tel),
            Err(ProtocolError::Malformed { .. })
        ));
    }

    #[test]
    fn profile_rorg_mismatch_rejected() {
        let tel = Erp1Telegram::new(Rorg::OneBs, &[0x09], 1, 0);
        assert!(Eep::A50205.decode_reading(&tel).is_err());
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn wrong_data_length_panics() {
        Erp1Telegram::new(Rorg::FourBs, &[1, 2], 1, 0);
    }

    #[test]
    fn profile_names() {
        assert_eq!(Eep::A51201.name(), "A5-12-01");
        assert_eq!(Eep::A51201.rorg(), Rorg::FourBs);
        assert_eq!(Eep::F60201.rorg(), Rorg::Rps);
    }
}
