//! SNMP protocol data units (the subset MAN uses: get, get-next, set,
//! and the walk convenience the centralized baseline issues as a
//! sequence of get-nexts).

use naplet_core::codec::{Decode, Encode};

use naplet_core::value::Value;

use crate::oid::Oid;

/// Request operations.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub enum SnmpOp {
    /// Get the named instances.
    Get(Vec<Oid>),
    /// Get the lexicographically next instance after the OID.
    GetNext(Oid),
    /// Set an instance (requires the write community).
    Set(Oid, Value),
    /// Server-side subtree walk (modelled as the agent answering a
    /// whole get-next sweep in one exchange; the *centralized* baseline
    /// instead issues one `GetNext` per variable to reproduce the
    /// paper's "fine-grained get and set" micro-management).
    Walk(Oid),
}

/// A request PDU.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct SnmpRequest {
    /// Community string (authentication).
    pub community: String,
    /// Operation.
    pub op: SnmpOp,
}

/// Error status in a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Encode, Decode)]
pub enum SnmpError {
    /// Success.
    NoError,
    /// Unknown OID.
    NoSuchName,
    /// Bad community string.
    BadCommunity,
    /// Set refused (read-only instance or community).
    ReadOnly,
    /// End of MIB reached on get-next.
    EndOfMib,
}

/// A response PDU.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct SnmpResponse {
    /// Status.
    pub error: SnmpError,
    /// Variable bindings.
    pub bindings: Vec<(Oid, Value)>,
}

impl SnmpResponse {
    /// Successful response with bindings.
    pub fn ok(bindings: Vec<(Oid, Value)>) -> SnmpResponse {
        SnmpResponse {
            error: SnmpError::NoError,
            bindings,
        }
    }

    /// Error response.
    pub fn err(error: SnmpError) -> SnmpResponse {
        SnmpResponse {
            error,
            bindings: Vec::new(),
        }
    }

    /// True on success.
    pub fn is_ok(&self) -> bool {
        self.error == SnmpError::NoError
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_codec() {
        let req = SnmpRequest {
            community: "public".into(),
            op: SnmpOp::Get(vec!["1.3.6.1.2.1.1.5.0".parse().unwrap()]),
        };
        let bytes = naplet_core::codec::to_bytes(&req).unwrap();
        let back: SnmpRequest = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, req);

        let resp = SnmpResponse::ok(vec![("1.1".parse().unwrap(), Value::Int(3))]);
        assert!(resp.is_ok());
        assert!(!SnmpResponse::err(SnmpError::BadCommunity).is_ok());
    }
}
