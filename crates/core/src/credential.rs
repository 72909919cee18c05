//! Naplet credentials (paper §2.1, §5).
//!
//! The paper certifies a naplet's immutable attributes (identifier and
//! codebase URL) with the creator's digital signature; servers use the
//! credential to pick naplet-specific security policies. The offline
//! dependency set has no cryptography, so Naplet-RS signs with a keyed
//! MAC built on a 128-bit FNV-style mixing function. This gives the
//! framework property the paper needs — *tamper evidence* of immutable
//! attributes under a shared secret — but it is **not** cryptographically
//! strong and must not be used outside simulations (see DESIGN.md §2).

use crate::codec::{Decode, Encode};

use crate::error::{NapletError, Result};
use crate::id::NapletId;

/// A signing key shared between a principal and the servers that
/// verify its naplets. In the paper this is the creator's key pair; in
/// this simulation it is a symmetric secret distributed out of band.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct SigningKey {
    /// Name of the principal holding this key.
    pub principal: String,
    secret: [u8; 16],
}

impl SigningKey {
    /// Derive a key for `principal` from raw secret material.
    pub fn new(principal: &str, secret_material: &[u8]) -> SigningKey {
        let mut secret = [0u8; 16];
        let (a, b) = mac128(secret_material, principal.as_bytes());
        secret[..8].copy_from_slice(&a.to_le_bytes());
        secret[8..].copy_from_slice(&b.to_le_bytes());
        SigningKey {
            principal: principal.to_string(),
            secret,
        }
    }

    fn sign_bytes(&self, data: &[u8]) -> [u8; 16] {
        let (a, b) = mac128(&self.secret, data);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        out
    }
}

/// 128-bit keyed mixing function (two FNV-1a-like lanes with distinct
/// offsets, keyed by absorbing the key before and after the message —
/// a sandwich MAC over a non-cryptographic hash).
fn mac128(key: &[u8], msg: &[u8]) -> (u64, u64) {
    const PRIME_A: u64 = 0x0000_0100_0000_01B3;
    const PRIME_B: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x84222325_cbf29ce4;
    let absorb = |bytes: &[u8], a: &mut u64, b: &mut u64| {
        for &byte in bytes {
            *a = (*a ^ u64::from(byte)).wrapping_mul(PRIME_A);
            *b = (*b).rotate_left(13) ^ u64::from(byte).wrapping_mul(PRIME_B);
            *b = b.wrapping_add(*a);
        }
    };
    absorb(key, &mut a, &mut b);
    absorb(msg, &mut a, &mut b);
    absorb(key, &mut a, &mut b);
    // final avalanche
    a ^= a >> 33;
    a = a.wrapping_mul(PRIME_B);
    a ^= a >> 29;
    b ^= b >> 31;
    b = b.wrapping_mul(PRIME_A);
    b ^= b >> 27;
    (a, b)
}

/// The credential carried by every naplet: its immutable attributes
/// plus attribute claims and the creator's signature over all of them.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct Credential {
    /// Principal that signed this credential (the naplet creator).
    pub principal: String,
    /// The immutable naplet identifier being certified.
    pub naplet_id: NapletId,
    /// The immutable codebase locator being certified.
    pub codebase: String,
    /// Free-form attribute claims ("role=net-mgmt", "trust=campus")
    /// that security policies match on (paper §5.1). Sorted for
    /// deterministic signing.
    pub attributes: Vec<(String, String)>,
    signature: [u8; 16],
}

impl Credential {
    /// Sign the immutable attributes of a naplet.
    pub fn issue(
        key: &SigningKey,
        naplet_id: NapletId,
        codebase: &str,
        mut attributes: Vec<(String, String)>,
    ) -> Credential {
        attributes.sort();
        attributes.dedup();
        let payload = Self::payload(&key.principal, &naplet_id, codebase, &attributes);
        Credential {
            principal: key.principal.clone(),
            naplet_id,
            codebase: codebase.to_string(),
            attributes,
            signature: key.sign_bytes(&payload),
        }
    }

    /// Verify this credential against the principal's key. Fails when
    /// any certified field was altered after issuance.
    pub fn verify(&self, key: &SigningKey) -> Result<()> {
        if key.principal != self.principal {
            return Err(NapletError::SecurityDenied {
                permission: "VERIFY".into(),
                subject: format!(
                    "key for `{}` cannot verify `{}`",
                    key.principal, self.principal
                ),
            });
        }
        let payload = Self::payload(
            &self.principal,
            &self.naplet_id,
            &self.codebase,
            &self.attributes,
        );
        if key.sign_bytes(&payload) == self.signature {
            Ok(())
        } else {
            Err(NapletError::SecurityDenied {
                permission: "VERIFY".into(),
                subject: format!("credential for {} failed verification", self.naplet_id),
            })
        }
    }

    /// Value of an attribute claim, if present.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn payload(
        principal: &str,
        id: &NapletId,
        codebase: &str,
        attributes: &[(String, String)],
    ) -> Vec<u8> {
        let mut p = Vec::with_capacity(128);
        for part in [principal, &id.to_string(), codebase] {
            p.extend_from_slice(&(part.len() as u64).to_le_bytes());
            p.extend_from_slice(part.as_bytes());
        }
        for (k, v) in attributes {
            p.extend_from_slice(&(k.len() as u64).to_le_bytes());
            p.extend_from_slice(k.as_bytes());
            p.extend_from_slice(&(v.len() as u64).to_le_bytes());
            p.extend_from_slice(v.as_bytes());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Millis;

    fn key() -> SigningKey {
        SigningKey::new("czxu", b"campus-secret")
    }

    fn id() -> NapletId {
        NapletId::new("czxu", "ece.eng.wayne.edu", Millis(42)).unwrap()
    }

    #[test]
    fn issue_and_verify() {
        let cred = Credential::issue(
            &key(),
            id(),
            "naplet://codebase/netmgmt.jar",
            vec![("role".into(), "net-mgmt".into())],
        );
        cred.verify(&key()).unwrap();
        assert_eq!(cred.attribute("role"), Some("net-mgmt"));
        assert_eq!(cred.attribute("missing"), None);
    }

    #[test]
    fn tampered_id_detected() {
        let mut cred = Credential::issue(&key(), id(), "cb", vec![]);
        cred.naplet_id = id().clone_child(1);
        assert!(cred.verify(&key()).is_err());
    }

    #[test]
    fn tampered_codebase_detected() {
        let mut cred = Credential::issue(&key(), id(), "cb", vec![]);
        cred.codebase = "evil".into();
        assert!(cred.verify(&key()).is_err());
    }

    #[test]
    fn tampered_attribute_detected() {
        let mut cred = Credential::issue(&key(), id(), "cb", vec![("trust".into(), "low".into())]);
        cred.attributes[0].1 = "high".into();
        assert!(cred.verify(&key()).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let cred = Credential::issue(&key(), id(), "cb", vec![]);
        let other = SigningKey::new("czxu", b"other-secret");
        assert!(cred.verify(&other).is_err());
        let other_principal = SigningKey::new("mallory", b"campus-secret");
        assert!(cred.verify(&other_principal).is_err());
    }

    #[test]
    fn attribute_order_does_not_matter() {
        let a = Credential::issue(
            &key(),
            id(),
            "cb",
            vec![("a".into(), "1".into()), ("b".into(), "2".into())],
        );
        let b = Credential::issue(
            &key(),
            id(),
            "cb",
            vec![("b".into(), "2".into()), ("a".into(), "1".into())],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip_preserves_validity() {
        let cred = Credential::issue(&key(), id(), "cb", vec![("x".into(), "y".into())]);
        let bytes = crate::codec::to_bytes(&cred).unwrap();
        let back: Credential = crate::codec::from_bytes(&bytes).unwrap();
        back.verify(&key()).unwrap();
    }

    #[test]
    fn mac_differs_across_keys_and_messages() {
        let k1 = SigningKey::new("p", b"k1");
        let k2 = SigningKey::new("p", b"k2");
        assert_ne!(k1.sign_bytes(b"m"), k2.sign_bytes(b"m"));
        assert_ne!(k1.sign_bytes(b"m1"), k1.sign_bytes(b"m2"));
    }
}
