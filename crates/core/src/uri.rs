//! URIs — the addressing currency of the infrastructure.
//!
//! The master node answers area queries with the URIs of the relevant
//! proxies' Web Services; clients then dereference those URIs directly.
//! This module implements the small URI subset the framework needs:
//! `scheme://host[:port]/path[?key=value&…]`.

use std::collections::BTreeMap;
use std::fmt;

use crate::value::Text;
use crate::CoreError;

/// A parsed service URI. Its scheme, host and path are [`Text`]s, so a
/// URI without a query whose parts are each at most 22 bytes is built
/// without allocating.
///
/// ```
/// use dimmer_core::Uri;
/// # fn main() -> Result<(), dimmer_core::CoreError> {
/// let uri = Uri::parse("ws://proxy-7.district.example:8080/data?from=0&to=100")?;
/// assert_eq!(uri.host(), "proxy-7.district.example");
/// assert_eq!(uri, Uri::new("ws", "proxy-7.district.example", Some(8080), "data")?
///     .with_query("from", "0")
///     .with_query("to", "100"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uri {
    scheme: Text,
    host: Text,
    port: Option<u16>,
    path: Text,
    query: BTreeMap<String, String>,
}

impl Uri {
    /// Builds a URI from parts.
    ///
    /// `path` is normalized to start with `/`; an empty path becomes `/`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidUri`] if scheme or host are empty or
    /// contain separator characters.
    pub fn new(
        scheme: impl AsRef<str>,
        host: impl AsRef<str>,
        port: Option<u16>,
        path: impl AsRef<str>,
    ) -> Result<Self, CoreError> {
        let (scheme, host, path) = (scheme.as_ref(), host.as_ref(), path.as_ref());
        let check = |part: &str, what: &'static str| -> Result<(), CoreError> {
            if part.is_empty() {
                return Err(CoreError::InvalidUri {
                    input: part.to_owned(),
                    reason: match what {
                        "scheme" => "empty scheme",
                        _ => "empty host",
                    },
                });
            }
            if part.contains([':', '/', '?', '&', '=', '#', ' ']) {
                return Err(CoreError::InvalidUri {
                    input: part.to_owned(),
                    reason: "separator character in scheme or host",
                });
            }
            Ok(())
        };
        check(scheme, "scheme")?;
        check(host, "host")?;
        let path = if path.starts_with('/') {
            Text::from(path)
        } else {
            Text::concat("/", path)
        };
        if path.contains(['?', '#', ' ']) {
            return Err(CoreError::InvalidUri {
                input: path.into(),
                reason: "path must not contain '?', '#' or spaces",
            });
        }
        Ok(Uri {
            scheme: scheme.into(),
            host: host.into(),
            port,
            path,
            query: BTreeMap::new(),
        })
    }

    /// Parses a URI of the form `scheme://host[:port]/path[?k=v&…]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidUri`] describing the first violation.
    pub fn parse(input: &str) -> Result<Self, CoreError> {
        let err = |reason: &'static str| CoreError::InvalidUri {
            input: input.to_owned(),
            reason,
        };
        let (scheme, rest) = input
            .split_once("://")
            .ok_or_else(|| err("missing '://'"))?;
        let (authority, path_query) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| err("invalid port"))?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        let (path, query_str) = match path_query.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (path_query, None),
        };
        let mut uri = Uri::new(scheme, host, port, path)?;
        if let Some(q) = query_str {
            for pair in q.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| err("query pair missing '='"))?;
                if k.is_empty() {
                    return Err(err("empty query key"));
                }
                uri.query.insert(k.to_owned(), v.to_owned());
            }
        }
        Ok(uri)
    }

    /// The host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Returns a copy with query parameter `key` set to `value`.
    pub fn with_query(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.query.insert(key.into(), value.into());
        self
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        for (i, (k, v)) in self.query.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { '?' } else { '&' })?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Uri {
    type Err = CoreError;
    fn from_str(s: &str) -> Result<Self, CoreError> {
        Uri::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_uri() {
        let u = Uri::parse("http://master:9000/ontology/area?bbox=1,2,3,4&fmt=json").unwrap();
        assert_eq!(u.scheme.as_str(), "http");
        assert_eq!(u.host(), "master");
        assert_eq!(u.port, Some(9000));
        assert_eq!(u.path.as_str(), "/ontology/area");
        assert_eq!(u.query["bbox"], "1,2,3,4");
        assert_eq!(u.query["fmt"], "json");
        assert_eq!(u.query.get("missing"), None);
    }

    #[test]
    fn parse_minimal_uri() {
        let u = Uri::parse("ws://node7").unwrap();
        assert_eq!(u.path.as_str(), "/");
        assert_eq!(u.port, None);
        assert!(u.query.is_empty());
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "ws://node7/",
            "http://master:9000/ontology/area?bbox=1,2,3,4&fmt=json",
            "sim://n42:7/data",
        ] {
            let u = Uri::parse(s).unwrap();
            assert_eq!(Uri::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "no-scheme",
            "://host/",
            "http://",
            "http://host:70000/",
            "http://host:abc/",
            "http://host/p?novalue",
            "http://host/p?=v",
            "http://ho st/p",
        ] {
            assert!(Uri::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn with_query_and_path() {
        let u = Uri::parse("sim://n1/data").unwrap();
        let v = u.clone().with_query("from", "10");
        assert_eq!(v.query["from"], "10");
        assert_eq!(v.path.as_str(), "/data", "path survives query change");
    }

    #[test]
    fn new_normalizes_path() {
        let u = Uri::new("sim", "n1", None, "data").unwrap();
        assert_eq!(u.path.as_str(), "/data");
        let v = Uri::new("sim", "n1", None, "").unwrap();
        assert_eq!(v.path.as_str(), "/");
    }

    #[test]
    fn query_order_is_deterministic() {
        let u = Uri::parse("s://h/p?z=1&a=2").unwrap();
        assert_eq!(u.to_string(), "s://h/p?a=2&z=1");
    }
}
