//! Object identifiers.
//!
//! Dotted-decimal OIDs with the lexicographic ordering SNMP's
//! `get-next` traversal depends on.

use std::fmt;
use std::str::FromStr;

use naplet_core::codec::{Decode, Encode};

use naplet_core::error::NapletError;

/// An SNMP object identifier, e.g. `1.3.6.1.2.1.1.3.0`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Encode, Decode, Default)]
pub struct Oid(Vec<u32>);

impl Oid {
    /// Build from components.
    pub fn new(parts: impl Into<Vec<u32>>) -> Oid {
        Oid(parts.into())
    }

    /// The components.
    pub fn parts(&self) -> &[u32] {
        &self.0
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty OID (the root).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `self` extended by one arc.
    pub fn child(&self, arc: u32) -> Oid {
        let mut v = self.0.clone();
        v.push(arc);
        Oid(v)
    }

    /// `self` extended by several arcs.
    pub fn extend(&self, arcs: &[u32]) -> Oid {
        let mut v = self.0.clone();
        v.extend_from_slice(arcs);
        Oid(v)
    }

    /// Is `self` a (non-strict) prefix of `other`? Subtree membership
    /// test for walks.
    pub fn is_prefix_of(&self, other: &Oid) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }

    /// Scalar instance: `self` + `.0` (the SNMP convention the paper's
    /// `retrieve()` uses: `setObjectID(param + ".0")`).
    pub fn instance(&self) -> Oid {
        self.child(0)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in &self.0 {
            if !first {
                write!(f, ".")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for Oid {
    type Err = NapletError;
    fn from_str(s: &str) -> Result<Oid, NapletError> {
        if s.is_empty() {
            return Ok(Oid::default());
        }
        let parts = s
            .split('.')
            .map(|p| {
                p.parse::<u32>()
                    .map_err(|_| NapletError::Parse(format!("bad OID component `{p}` in `{s}`")))
            })
            .collect::<Result<Vec<u32>, _>>()?;
        Ok(Oid(parts))
    }
}

impl From<&[u32]> for Oid {
    fn from(v: &[u32]) -> Oid {
        Oid(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        for s in ["1.3.6.1.2.1.1.3.0", "1", "0.0"] {
            let oid: Oid = s.parse().unwrap();
            assert_eq!(oid.to_string(), s);
        }
        assert!("1.x.3".parse::<Oid>().is_err());
        assert_eq!("".parse::<Oid>().unwrap(), Oid::default());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a: Oid = "1.3.6.1.2.1.1".parse().unwrap();
        let b: Oid = "1.3.6.1.2.1.1.1.0".parse().unwrap();
        let c: Oid = "1.3.6.1.2.1.2".parse().unwrap();
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }

    #[test]
    fn prefix_and_children() {
        let sys: Oid = "1.3.6.1.2.1.1".parse().unwrap();
        let uptime = sys.extend(&[3, 0]);
        assert!(sys.is_prefix_of(&uptime));
        assert!(sys.is_prefix_of(&sys));
        assert!(!uptime.is_prefix_of(&sys));
        assert_eq!(sys.child(3).instance(), uptime);
        assert_eq!(uptime.len(), 9);
    }
}
