//! Typed identifiers for district entities.
//!
//! Every entity in the ontology — district, building, distribution
//! network, device, proxy — is addressed by a string identifier with a
//! common grammar: non-empty, at most 128 bytes, drawn from
//! `[A-Za-z0-9._:-]`. The newtypes prevent a building id from being used
//! where a device id is expected ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

use crate::CoreError;

pub(crate) fn validate(kind: &'static str, s: &str) -> Result<(), CoreError> {
    if s.is_empty() {
        return Err(CoreError::InvalidId {
            kind,
            input: s.to_owned(),
            reason: "empty",
        });
    }
    if s.len() > 128 {
        return Err(CoreError::InvalidId {
            kind,
            input: s.to_owned(),
            reason: "longer than 128 bytes",
        });
    }
    if let Some(bad) = s
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':' | '-')))
    {
        let _ = bad;
        return Err(CoreError::InvalidId {
            kind,
            input: s.to_owned(),
            reason: "contains a character outside [A-Za-z0-9._:-]",
        });
    }
    Ok(())
}

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident, $kind:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(String);

        impl $name {
            /// Creates the identifier, validating the grammar.
            ///
            /// # Errors
            ///
            /// Returns [`CoreError::InvalidId`] if the string is empty,
            /// longer than 128 bytes, or contains a character outside
            /// `[A-Za-z0-9._:-]`.
            pub fn new(s: impl Into<String>) -> Result<Self, CoreError> {
                let s = s.into();
                validate($kind, &s)?;
                Ok($name(s))
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// Consumes the identifier, returning the inner string.
            pub fn into_inner(self) -> String {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl std::str::FromStr for $name {
            type Err = CoreError;
            fn from_str(s: &str) -> Result<Self, CoreError> {
                $name::new(s)
            }
        }
    };
}

string_id!(
    /// Identifies one city district.
    DistrictId,
    "district"
);
string_id!(
    /// Identifies one building within a district.
    BuildingId,
    "building"
);
string_id!(
    /// Identifies one energy-distribution network (electricity feeder,
    /// district-heating loop, …).
    NetworkId,
    "network"
);
string_id!(
    /// Identifies one sensing or actuating device.
    DeviceId,
    "device"
);
string_id!(
    /// Identifies one proxy instance registered on the master node.
    ProxyId,
    "proxy"
);

/// The kind of entity an ontology node describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EntityKind {
    /// A district tree root.
    District,
    /// A building intermediate node.
    Building,
    /// An energy-distribution-network intermediate node.
    Network,
    /// A device leaf.
    Device,
}

impl EntityKind {
    /// The canonical lowercase name used in the common data format.
    pub fn as_str(self) -> &'static str {
        match self {
            EntityKind::District => "district",
            EntityKind::Building => "building",
            EntityKind::Network => "network",
            EntityKind::Device => "device",
        }
    }

    /// Parses the canonical name produced by [`EntityKind::as_str`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownSymbol`] for anything else.
    pub fn parse(s: &str) -> Result<Self, CoreError> {
        match s {
            "district" => Ok(EntityKind::District),
            "building" => Ok(EntityKind::Building),
            "network" => Ok(EntityKind::Network),
            "device" => Ok(EntityKind::Device),
            other => Err(CoreError::UnknownSymbol {
                vocabulary: "entity kind",
                symbol: other.to_owned(),
            }),
        }
    }
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_reasonable_ids() {
        for ok in ["b1", "urn:dev:0042", "campus.north_wing-2", "A:B:c.9"] {
            assert!(BuildingId::new(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_bad_ids() {
        assert!(DeviceId::new("").is_err());
        assert!(DeviceId::new("has space").is_err());
        assert!(DeviceId::new("slash/id").is_err());
        assert!(DeviceId::new("é").is_err());
        assert!(DeviceId::new("x".repeat(129)).is_err());
        assert!(DeviceId::new("x".repeat(128)).is_ok());
    }

    #[test]
    fn ids_round_trip_through_str() {
        let id: DistrictId = "turin-north".parse().unwrap();
        assert_eq!(id.as_str(), "turin-north");
        assert_eq!(id.to_string(), "turin-north");
        assert_eq!(id.clone().into_inner(), "turin-north");
        assert_eq!(id.as_ref(), "turin-north");
    }

    #[test]
    fn distinct_types_do_not_compare() {
        // Compile-time property: BuildingId and DeviceId are different
        // types; this test just documents the intent.
        let b = BuildingId::new("x").unwrap();
        let d = DeviceId::new("x").unwrap();
        assert_eq!(b.as_str(), d.as_str());
    }

    #[test]
    fn entity_kind_round_trip() {
        for kind in [
            EntityKind::District,
            EntityKind::Building,
            EntityKind::Network,
            EntityKind::Device,
        ] {
            assert_eq!(EntityKind::parse(kind.as_str()).unwrap(), kind);
        }
        assert!(EntityKind::parse("sensorz").is_err());
    }

    #[test]
    fn error_mentions_kind() {
        let err = NetworkId::new("bad id").unwrap_err();
        assert!(err.to_string().contains("network"));
    }
}
