//! NapletSecurityManager (paper §5.1).
//!
//! "A security policy is an access-control matrix that says what
//! system resources can be accessed, in what fashion, and under what
//! circumstances. Specifically, it maps a set of characteristic
//! features of naplets to a set of access permissions granted to the
//! naplets. System administrators can configure the security policy
//! according to the service requirements."
//!
//! [`Policy`] is that matrix: an ordered rule list matched against a
//! naplet's credential (principal and attribute claims); the first
//! matching rule's grant set applies, with a configurable default. The
//! Navigator consults it for LAUNCH/LANDING, the monitor for CLONE,
//! the ResourceManager for privileged service access.

use std::collections::BTreeSet;

use naplet_core::codec::{Decode, Encode};

use naplet_core::credential::{Credential, SigningKey};
use naplet_core::error::{NapletError, Result};

/// Permissions a policy can grant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Encode, Decode)]
pub enum Permission {
    /// Dispatch a naplet from this server.
    Launch,
    /// Accept a naplet onto this server.
    Landing,
    /// Spawn clones on this server (Par itineraries).
    Clone,
    /// Send inter-naplet messages through this server's Messenger.
    Messaging,
    /// Call the named open service ("*" = any open service).
    OpenService(String),
    /// Obtain a service channel to the named privileged service.
    PrivilegedService(String),
}

/// Which naplets a rule applies to.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct Matcher {
    /// Match naplets signed by this principal (None = any).
    pub principal: Option<String>,
    /// Attribute claims that must all be present with these values.
    pub attributes: Vec<(String, String)>,
}

impl Matcher {
    /// Match any credential.
    pub fn any() -> Matcher {
        Matcher {
            principal: None,
            attributes: vec![],
        }
    }

    /// Match a specific principal.
    pub fn principal(name: &str) -> Matcher {
        Matcher {
            principal: Some(name.to_string()),
            attributes: vec![],
        }
    }

    /// Require an attribute claim.
    pub fn with_attribute(mut self, key: &str, value: &str) -> Matcher {
        self.attributes.push((key.to_string(), value.to_string()));
        self
    }

    fn matches(&self, cred: &Credential) -> bool {
        if let Some(p) = &self.principal {
            if p != &cred.principal {
                return false;
            }
        }
        self.attributes
            .iter()
            .all(|(k, v)| cred.attribute(k) == Some(v.as_str()))
    }
}

/// One access-control rule: matcher → grant set.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct Rule {
    /// Which naplets this rule covers.
    pub matcher: Matcher,
    /// Permissions granted when it matches.
    pub grants: BTreeSet<Permission>,
}

/// The access-control matrix.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct Policy {
    rules: Vec<Rule>,
    /// Granted when no rule matches.
    default_grants: BTreeSet<Permission>,
}

impl Policy {
    /// A policy that grants nothing by default.
    pub fn deny_all() -> Policy {
        Policy {
            rules: vec![],
            default_grants: BTreeSet::new(),
        }
    }

    /// A permissive policy granting every framework permission and all
    /// services — the paper's first release behaviour ("no special
    /// security managers … many security features left open").
    pub fn allow_all() -> Policy {
        let mut grants = BTreeSet::new();
        grants.insert(Permission::Launch);
        grants.insert(Permission::Landing);
        grants.insert(Permission::Clone);
        grants.insert(Permission::Messaging);
        grants.insert(Permission::OpenService("*".into()));
        grants.insert(Permission::PrivilegedService("*".into()));
        Policy {
            rules: vec![],
            default_grants: grants,
        }
    }

    /// Append a rule (first match wins).
    pub fn add_rule(&mut self, matcher: Matcher, grants: impl IntoIterator<Item = Permission>) {
        self.rules.push(Rule {
            matcher,
            grants: grants.into_iter().collect(),
        });
    }

    /// Grants applicable to a credential.
    fn grants_for(&self, cred: &Credential) -> &BTreeSet<Permission> {
        self.rules
            .iter()
            .find(|r| r.matcher.matches(cred))
            .map(|r| &r.grants)
            .unwrap_or(&self.default_grants)
    }

    /// Is the permission granted to this credential?
    pub fn permits(&self, cred: &Credential, perm: &Permission) -> bool {
        let grants = self.grants_for(cred);
        if grants.contains(perm) {
            return true;
        }
        // service wildcards
        match perm {
            Permission::OpenService(_) => grants.contains(&Permission::OpenService("*".into())),
            Permission::PrivilegedService(_) => {
                grants.contains(&Permission::PrivilegedService("*".into()))
            }
            _ => false,
        }
    }
}

/// The server-side security manager: verifies credentials against
/// known principals' keys and evaluates the policy.
#[derive(Debug, Clone)]
pub struct SecurityManager {
    policy: Policy,
    /// Keys of principals this server trusts; credentials from unknown
    /// principals fail verification when `require_known_principal`.
    trusted_keys: Vec<SigningKey>,
    /// When false, unknown principals skip signature verification
    /// (open-campus mode, the paper's first release).
    require_known_principal: bool,
}

impl SecurityManager {
    /// Manager with a policy and trusted principal keys.
    pub fn new(
        policy: Policy,
        trusted_keys: Vec<SigningKey>,
        require_known_principal: bool,
    ) -> SecurityManager {
        SecurityManager {
            policy,
            trusted_keys,
            require_known_principal,
        }
    }

    /// Open manager: allow-all policy, no verification.
    pub fn open() -> SecurityManager {
        SecurityManager::new(Policy::allow_all(), vec![], false)
    }

    /// Replace the policy (dynamic reconfiguration).
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
    }

    /// The active policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Verify a credential's signature (when the principal is known or
    /// verification is mandatory).
    pub fn verify(&self, cred: &Credential) -> Result<()> {
        match self
            .trusted_keys
            .iter()
            .find(|k| k.principal == cred.principal)
        {
            Some(key) => cred.verify(key),
            None if self.require_known_principal => Err(NapletError::SecurityDenied {
                permission: "VERIFY".into(),
                subject: format!("unknown principal `{}`", cred.principal),
            }),
            None => Ok(()),
        }
    }

    /// Verify an arriving naplet: credential signature (when the
    /// principal is known) plus the family-coverage check binding the
    /// credential to this naplet's id and codebase.
    pub fn verify_naplet(&self, naplet: &naplet_core::naplet::Naplet) -> Result<()> {
        match self
            .trusted_keys
            .iter()
            .find(|k| k.principal == naplet.credential().principal)
        {
            Some(key) => naplet.verify(key),
            None if self.require_known_principal => Err(NapletError::SecurityDenied {
                permission: "VERIFY".into(),
                subject: format!("unknown principal `{}`", naplet.credential().principal),
            }),
            None => Ok(()),
        }
    }

    /// Check a permission, returning a denial error when refused.
    pub fn check(&self, cred: &Credential, perm: Permission) -> Result<()> {
        if self.policy.permits(cred, &perm) {
            Ok(())
        } else {
            Err(NapletError::SecurityDenied {
                permission: format!("{perm:?}"),
                subject: cred.naplet_id.to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naplet_core::clock::Millis;
    use naplet_core::id::NapletId;

    fn key(p: &str) -> SigningKey {
        SigningKey::new(p, b"secret")
    }

    fn cred(principal: &str, attrs: Vec<(&str, &str)>) -> Credential {
        let id = NapletId::new(principal, "home", Millis(1)).unwrap();
        Credential::issue(
            &key(principal),
            id,
            "cb",
            attrs
                .into_iter()
                .map(|(a, b)| (a.into(), b.into()))
                .collect(),
        )
    }

    #[test]
    fn allow_all_permits_everything() {
        let p = Policy::allow_all();
        let c = cred("anyone", vec![]);
        assert!(p.permits(&c, &Permission::Launch));
        assert!(p.permits(&c, &Permission::OpenService("math".into())));
        assert!(p.permits(&c, &Permission::PrivilegedService("snmp".into())));
    }

    #[test]
    fn deny_all_refuses() {
        let p = Policy::deny_all();
        let c = cred("anyone", vec![]);
        assert!(!p.permits(&c, &Permission::Landing));
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut p = Policy::deny_all();
        p.add_rule(
            Matcher::principal("czxu"),
            [Permission::Launch, Permission::Landing],
        );
        p.add_rule(Matcher::any(), [Permission::Landing]);
        let czxu = cred("czxu", vec![]);
        let other = cred("guest", vec![]);
        assert!(p.permits(&czxu, &Permission::Launch));
        assert!(p.permits(&other, &Permission::Landing));
        assert!(!p.permits(&other, &Permission::Launch));
    }

    #[test]
    fn attribute_matching() {
        let mut p = Policy::deny_all();
        p.add_rule(
            Matcher::any().with_attribute("role", "net-mgmt"),
            [Permission::PrivilegedService(
                "serviceImpl.NetManagement".into(),
            )],
        );
        let mgmt = cred("czxu", vec![("role", "net-mgmt")]);
        let shopper = cred("czxu", vec![("role", "shopping")]);
        let svc = Permission::PrivilegedService("serviceImpl.NetManagement".into());
        assert!(p.permits(&mgmt, &svc));
        assert!(!p.permits(&shopper, &svc));
    }

    #[test]
    fn service_wildcards() {
        let mut p = Policy::deny_all();
        p.add_rule(Matcher::any(), [Permission::OpenService("*".into())]);
        let c = cred("x", vec![]);
        assert!(p.permits(&c, &Permission::OpenService("anything".into())));
        assert!(!p.permits(&c, &Permission::PrivilegedService("anything".into())));
    }

    #[test]
    fn manager_check_produces_denial_errors() {
        let mgr = SecurityManager::new(Policy::deny_all(), vec![], false);
        let c = cred("x", vec![]);
        let err = mgr.check(&c, Permission::Launch).unwrap_err();
        assert_eq!(err.kind(), "security");
    }

    #[test]
    fn verification_against_trusted_keys() {
        let mgr = SecurityManager::new(Policy::allow_all(), vec![key("czxu")], true);
        let good = cred("czxu", vec![]);
        mgr.verify(&good).unwrap();

        // forged: signed with the wrong secret
        let id = NapletId::new("czxu", "home", Millis(1)).unwrap();
        let forged = Credential::issue(
            &SigningKey::new("czxu", b"not-the-secret"),
            id,
            "cb",
            vec![],
        );
        assert!(mgr.verify(&forged).is_err());

        // unknown principal refused when verification mandatory
        let unknown = cred("mallory", vec![]);
        assert!(mgr.verify(&unknown).is_err());

        // but tolerated in open mode
        let open = SecurityManager::new(Policy::allow_all(), vec![key("czxu")], false);
        open.verify(&unknown).unwrap();
    }
}
