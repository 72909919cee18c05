//! Error types shared across the Naplet framework.
//!
//! The paper's Java implementation surfaces failures as exceptions
//! (`NapletCommunicationException` and friends). We model the same
//! taxonomy as a single [`NapletError`] enum so every crate in the
//! workspace can speak one error language at the API boundary.

use std::fmt;

use crate::codec::{Decode, Encode};

/// Framework-wide error type.
///
/// Variants mirror the failure classes the paper names: security
/// (launch/landing denial), navigation (itinerary exceptions),
/// communication (post-office failures), resource control
/// (monitor/manager enforcement) and generic protocol violations.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub enum NapletError {
    /// A malformed identifier, URN, or other parse failure.
    Parse(String),
    /// Security policy denied an operation (paper §5.1).
    SecurityDenied {
        /// The permission that was requested.
        permission: String,
        /// Who requested it (textual naplet id or principal).
        subject: String,
    },
    /// The navigator could not complete a launch or landing (paper §2.2).
    Navigation(String),
    /// Itinerary is invalid or exhausted (paper §3).
    Itinerary(String),
    /// Post-office messaging failure (paper §4.2),
    /// the analogue of `NapletCommunicationException`.
    Communication(String),
    /// A naplet or host could not be located (paper §4.1).
    NotFound(String),
    /// Resource manager / monitor enforcement (paper §5.2–5.3):
    /// out of gas, memory budget exceeded, bandwidth exhausted.
    ResourceExhausted {
        /// Which budget was exhausted ("cpu", "memory", "bandwidth").
        resource: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A service channel operation failed (paper §5.3).
    Service(String),
    /// Attempted to mutate an immutable attribute (naplet id, codebase).
    Immutable(String),
    /// Access-mode violation on `NapletState` (paper §2.1).
    StateAccess(String),
    /// The VM trapped while executing mobile code.
    VmTrap(String),
    /// Serialization / wire-format failure.
    Codec(String),
    /// The operation timed out.
    Timeout(String),
    /// Anything else.
    Internal(String),
}

impl NapletError {
    /// Short machine-readable kind tag, used in logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            NapletError::Parse(_) => "parse",
            NapletError::SecurityDenied { .. } => "security",
            NapletError::Navigation(_) => "navigation",
            NapletError::Itinerary(_) => "itinerary",
            NapletError::Communication(_) => "communication",
            NapletError::NotFound(_) => "not-found",
            NapletError::ResourceExhausted { .. } => "resource",
            NapletError::Service(_) => "service",
            NapletError::Immutable(_) => "immutable",
            NapletError::StateAccess(_) => "state-access",
            NapletError::VmTrap(_) => "vm-trap",
            NapletError::Codec(_) => "codec",
            NapletError::Timeout(_) => "timeout",
            NapletError::Internal(_) => "internal",
        }
    }

    /// True when retrying the same operation later could succeed
    /// (transient failures: communication, timeout, not-found).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            NapletError::Communication(_) | NapletError::Timeout(_) | NapletError::NotFound(_)
        )
    }
}

impl fmt::Display for NapletError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NapletError::Parse(m) => write!(f, "parse error: {m}"),
            NapletError::SecurityDenied {
                permission,
                subject,
            } => {
                write!(
                    f,
                    "security: permission `{permission}` denied for {subject}"
                )
            }
            NapletError::Navigation(m) => write!(f, "navigation error: {m}"),
            NapletError::Itinerary(m) => write!(f, "itinerary error: {m}"),
            NapletError::Communication(m) => write!(f, "communication error: {m}"),
            NapletError::NotFound(m) => write!(f, "not found: {m}"),
            NapletError::ResourceExhausted { resource, detail } => {
                write!(f, "resource `{resource}` exhausted: {detail}")
            }
            NapletError::Service(m) => write!(f, "service error: {m}"),
            NapletError::Immutable(m) => write!(f, "immutable attribute: {m}"),
            NapletError::StateAccess(m) => write!(f, "state access violation: {m}"),
            NapletError::VmTrap(m) => write!(f, "vm trap: {m}"),
            NapletError::Codec(m) => write!(f, "codec error: {m}"),
            NapletError::Timeout(m) => write!(f, "timeout: {m}"),
            NapletError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for NapletError {}

/// Convenience alias used across all Naplet crates.
pub type Result<T> = std::result::Result<T, NapletError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_detail() {
        let e = NapletError::SecurityDenied {
            permission: "LAUNCH".into(),
            subject: "czxu@ece:0:0".into(),
        };
        let s = e.to_string();
        assert!(s.contains("LAUNCH"));
        assert!(s.contains("czxu@ece"));
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(NapletError::Parse("x".into()).kind(), "parse");
        assert_eq!(
            NapletError::ResourceExhausted {
                resource: "cpu".into(),
                detail: String::new()
            }
            .kind(),
            "resource"
        );
        assert_eq!(NapletError::VmTrap("div".into()).kind(), "vm-trap");
    }

    #[test]
    fn transience_classification() {
        assert!(NapletError::Communication("lost".into()).is_transient());
        assert!(NapletError::Timeout("t".into()).is_transient());
        assert!(!NapletError::Immutable("id".into()).is_transient());
        assert!(!NapletError::SecurityDenied {
            permission: "p".into(),
            subject: "s".into()
        }
        .is_transient());
    }

    #[test]
    fn serde_round_trip() {
        let e = NapletError::ResourceExhausted {
            resource: "memory".into(),
            detail: "budget 4096 exceeded".into(),
        };
        let bytes = crate::codec::to_bytes(&e).unwrap();
        let back: NapletError = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, e);
    }
}
