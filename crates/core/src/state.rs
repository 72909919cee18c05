//! Application-specific agent state with protection modes (paper §2.1).
//!
//! `NapletState` is the serializable container a naplet carries between
//! servers. Every entry lives in one of three protection modes:
//!
//! * **private** — accessible to the naplet only (e.g. a shopping
//!   agent's gathered price list);
//! * **public** — accessible to any naplet server on the itinerary;
//! * **protected** — accessible to an explicit set of servers (e.g. so
//!   a server can update a returning naplet with new information).
//!
//! The naplet itself always has full access to its own state; the modes
//! govern what a *server* may read or write through the server-side
//! view. Access checks are enforced by [`ServerStateView`], which is the
//! only state handle a `NapletServer` ever receives.

use std::collections::BTreeMap;

use crate::codec::{Decode, Encode};

use crate::error::{NapletError, Result};
use crate::value::Value;

/// Protection mode of one state entry.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub enum Access {
    /// Accessible to the owning naplet only.
    Private,
    /// Accessible to any server on the itinerary.
    Public,
    /// Accessible only to the named servers.
    Protected(Vec<String>),
}

impl Access {
    /// May the server named `host` access an entry with this mode?
    fn server_allowed(&self, host: &str) -> bool {
        match self {
            Access::Private => false,
            Access::Public => true,
            Access::Protected(hosts) => hosts.iter().any(|h| h == host),
        }
    }
}

/// One protected entry.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
struct Entry {
    value: Value,
    access: Access,
}

/// The serializable, mode-protected state container of a naplet.
#[derive(Debug, Clone, PartialEq, Encode, Decode, Default)]
pub struct NapletState {
    entries: BTreeMap<String, Entry>,
}

impl NapletState {
    /// Empty state container.
    pub fn new() -> NapletState {
        NapletState::default()
    }

    /// Set an entry with an explicit protection mode (naplet-side:
    /// always allowed). Replacing an entry also replaces its mode.
    pub fn set_with_access(&mut self, key: &str, value: impl Into<Value>, access: Access) {
        self.entries.insert(
            key.to_string(),
            Entry {
                value: value.into(),
                access,
            },
        );
    }

    /// Set a private entry (the common case for gathered data).
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        self.set_with_access(key, value, Access::Private);
    }

    /// Set a public entry.
    pub fn set_public(&mut self, key: &str, value: impl Into<Value>) {
        self.set_with_access(key, value, Access::Public);
    }

    /// Set an entry readable/writable by the given servers only.
    pub fn set_protected<S: Into<String>>(
        &mut self,
        key: &str,
        value: impl Into<Value>,
        servers: impl IntoIterator<Item = S>,
    ) {
        self.set_with_access(
            key,
            value,
            Access::Protected(servers.into_iter().map(Into::into).collect()),
        );
    }

    /// Naplet-side read (always allowed). Returns `Nil` when missing.
    pub fn get(&self, key: &str) -> Value {
        self.entries
            .get(key)
            .map(|e| e.value.clone())
            .unwrap_or(Value::Nil)
    }

    /// Naplet-side in-place update of an existing entry, preserving its
    /// protection mode. Errors when the entry does not exist.
    pub fn update(&mut self, key: &str, f: impl FnOnce(&mut Value)) -> Result<()> {
        match self.entries.get_mut(key) {
            Some(entry) => {
                f(&mut entry.value);
                Ok(())
            }
            None => Err(NapletError::StateAccess(format!("no state entry `{key}`"))),
        }
    }

    /// The protection mode of an entry, if present.
    pub fn access_of(&self, key: &str) -> Option<&Access> {
        self.entries.get(key).map(|e| &e.access)
    }

    /// Remove an entry (naplet-side).
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.entries.remove(key).map(|e| e.value)
    }

    /// All keys, in deterministic order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate deep memory footprint in bytes, used by the
    /// NapletMonitor memory budget (paper §5.2).
    pub fn deep_size(&self) -> u64 {
        self.entries
            .iter()
            .map(|(k, e)| k.len() as u64 + e.value.deep_size() + 8)
            .sum()
    }

    /// Obtain the mode-enforcing view a server named `host` gets.
    pub fn server_view(&mut self, host: &str) -> ServerStateView<'_> {
        ServerStateView {
            state: self,
            host: host.to_string(),
        }
    }
}

/// The only handle a `NapletServer` receives onto a naplet's state:
/// every read and write is checked against the entry's protection mode.
pub struct ServerStateView<'a> {
    state: &'a mut NapletState,
    host: String,
}

impl ServerStateView<'_> {
    /// Server-side read; fails on private entries and on protected
    /// entries that do not list this server.
    pub fn get(&self, key: &str) -> Result<Value> {
        match self.state.entries.get(key) {
            None => Err(NapletError::StateAccess(format!("no state entry `{key}`"))),
            Some(e) if e.access.server_allowed(&self.host) => Ok(e.value.clone()),
            Some(_) => Err(NapletError::StateAccess(format!(
                "server `{}` may not read entry `{key}`",
                self.host
            ))),
        }
    }

    /// Server-side write to an *existing* entry, subject to its mode.
    /// Servers can update (e.g. refresh a returning naplet's protected
    /// data, paper §2.1) but cannot create or re-mode entries.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> Result<()> {
        match self.state.entries.get_mut(key) {
            None => Err(NapletError::StateAccess(format!(
                "server `{}` may not create entry `{key}`",
                self.host
            ))),
            Some(e) if e.access.server_allowed(&self.host) => {
                e.value = value.into();
                Ok(())
            }
            Some(_) => Err(NapletError::StateAccess(format!(
                "server `{}` may not write entry `{key}`",
                self.host
            ))),
        }
    }

    /// Keys this server is allowed to read.
    pub fn visible_keys(&self) -> Vec<String> {
        self.state
            .entries
            .iter()
            .filter(|(_, e)| e.access.server_allowed(&self.host))
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NapletState {
        let mut s = NapletState::new();
        s.set("prices", Value::list([Value::Int(10), Value::Int(20)]));
        s.set_public("query", "cpu-load");
        s.set_protected("cache", Value::Int(7), ["ece", "cs"]);
        s
    }

    #[test]
    fn naplet_has_full_access() {
        let mut s = sample();
        assert_eq!(s.get("query"), Value::from("cpu-load"));
        assert_eq!(s.get("prices").as_list().unwrap().len(), 2);
        assert_eq!(s.get("cache"), Value::Int(7));
        assert_eq!(s.get("missing"), Value::Nil);
        s.update("cache", |v| *v = Value::Int(8)).unwrap();
        assert_eq!(s.get("cache"), Value::Int(8));
        assert!(s.update("missing", |_| ()).is_err());
    }

    #[test]
    fn private_hidden_from_servers() {
        let mut s = sample();
        let view = s.server_view("anyhost");
        assert!(view.get("prices").is_err());
        assert_eq!(view.get("query").unwrap(), Value::from("cpu-load"));
    }

    #[test]
    fn protected_limited_to_listed_servers() {
        let mut s = sample();
        assert!(s.server_view("ece").get("cache").is_ok());
        assert!(s.server_view("cs").get("cache").is_ok());
        assert!(s.server_view("other").get("cache").is_err());
    }

    #[test]
    fn server_writes_respect_modes() {
        let mut s = sample();
        // server may update a protected entry it is listed for
        s.server_view("ece").set("cache", Value::Int(99)).unwrap();
        assert_eq!(s.get("cache"), Value::Int(99));
        // but not private ones, and it cannot create entries
        assert!(s.server_view("ece").set("prices", Value::Nil).is_err());
        assert!(s.server_view("ece").set("new-entry", Value::Nil).is_err());
        // public entries are writable by anyone
        s.server_view("stranger").set("query", "mem-load").unwrap();
        assert_eq!(s.get("query"), Value::from("mem-load"));
    }

    #[test]
    fn visible_keys_filtered_per_server() {
        let mut s = sample();
        let mut keys = s.server_view("ece").visible_keys();
        keys.sort();
        assert_eq!(keys, ["cache", "query"]);
        assert_eq!(s.server_view("other").visible_keys(), ["query"]);
    }

    #[test]
    fn replace_changes_mode() {
        let mut s = sample();
        s.set("query", "now-private"); // re-set as private
        assert!(s.server_view("x").get("query").is_err());
        assert_eq!(s.access_of("query"), Some(&Access::Private));
    }

    #[test]
    fn remove_and_len() {
        let mut s = sample();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.remove("query"), Some(Value::from("cpu-load")));
        assert_eq!(s.remove("query"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn deep_size_tracks_content() {
        let empty = NapletState::new();
        let s = sample();
        assert_eq!(empty.deep_size(), 0);
        assert!(s.deep_size() > 0);
        let mut bigger = s.clone();
        bigger.set("blob", Value::Bytes(vec![0; 1024]));
        assert!(bigger.deep_size() > s.deep_size() + 1024);
    }

    #[test]
    fn state_travels_whole_through_codec() {
        // Private entries are hidden from servers *via the API*, but the
        // container serializes completely — the naplet carries them.
        let s = sample();
        let bytes = crate::codec::to_bytes(&s).unwrap();
        let back: NapletState = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.get("prices").as_list().unwrap().len(), 2);
    }
}
