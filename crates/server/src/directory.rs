//! NapletDirectory (paper §2.2, §4.1).
//!
//! The optional centralized directory tracks naplet locations through
//! ARRIVAL/DEPARTURE event registration. The invariant the paper
//! derives from postponing execution until the arrival registration is
//! acknowledged: "if the latest registration about a naplet in the
//! directory is a departure from a server, the naplet must be in
//! transmission out of the server. If its latest registration is an
//! arrival at a server, the naplet can be either running in or leaving
//! the server."
//!
//! The same structure also backs the *distributed* variant where each
//! home NapletManager keeps directory entries for its own naplets.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;

/// A registered movement event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirEvent {
    /// The naplet landed at the host.
    Arrival,
    /// The naplet was dispatched out of the host.
    Departure,
}

/// Latest known record for one naplet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Host of the latest event.
    pub host: String,
    /// Arrival or departure.
    pub event: DirEvent,
    /// Registration time (directory clock).
    pub at: Millis,
}

/// The location registry.
#[derive(Debug, Default, Clone)]
pub struct NapletDirectory {
    entries: HashMap<NapletId, DirEntry>,
    /// Registrations processed (diagnostics / control-traffic checks).
    pub registrations: u64,
}

impl NapletDirectory {
    /// Empty directory.
    pub fn new() -> NapletDirectory {
        NapletDirectory::default()
    }

    /// Register an event. Stale events (older than the current entry)
    /// are ignored so out-of-order control traffic cannot rewind the
    /// directory; ties are resolved in favour of the newer registration
    /// order (arrival after departure at the same instant).
    pub fn register(&mut self, id: &NapletId, host: &str, event: DirEvent, at: Millis) {
        self.registrations += 1;
        match self.entries.get(id) {
            Some(e) if e.at > at => {} // stale
            _ => {
                self.entries.insert(
                    id.clone(),
                    DirEntry {
                        host: host.to_string(),
                        event,
                        at,
                    },
                );
            }
        }
    }

    /// Latest record for a naplet.
    pub fn lookup(&self, id: &NapletId) -> Option<&DirEntry> {
        self.entries.get(id)
    }

    /// Remove a naplet (destroyed).
    pub fn remove(&mut self, id: &NapletId) -> Option<DirEntry> {
        self.entries.remove(id)
    }

    /// All records by reference, sorted by naplet id — the deterministic
    /// snapshot image the replicated directory journals and ships to
    /// rejoining replicas. One walk and one vector: ids compare by their
    /// fields, and an image encodes from the borrowed records exactly as
    /// from owned ones.
    pub fn sorted(&self) -> Vec<(&NapletId, &DirEntry)> {
        let mut out: Vec<(&NapletId, &DirEntry)> = self.entries.iter().collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// [`Self::sorted`], owned.
    pub fn entries(&self) -> Vec<(NapletId, DirEntry)> {
        let sorted = self.sorted().into_iter();
        sorted.map(|(id, e)| (id.clone(), e.clone())).collect()
    }

    /// Replace the whole map with a snapshot image (replica catch-up).
    /// The registrations counter is left alone: it counts operations
    /// this replica processed, not entries it holds.
    pub fn install(&mut self, entries: Vec<(NapletId, DirEntry)>) {
        self.entries = entries.into_iter().collect();
    }

    /// Number of tracked naplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(n: u64) -> NapletId {
        NapletId::new("u", "home", Millis(n)).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let mut d = NapletDirectory::new();
        assert!(d.lookup(&nid(1)).is_none());
        d.register(&nid(1), "s1", DirEvent::Arrival, Millis(10));
        let e = d.lookup(&nid(1)).unwrap();
        assert_eq!(e.host, "s1");
        assert_eq!(e.event, DirEvent::Arrival);
        assert_eq!(d.len(), 1);
        assert_eq!(d.registrations, 1);
    }

    #[test]
    fn newer_events_overwrite() {
        let mut d = NapletDirectory::new();
        d.register(&nid(1), "s1", DirEvent::Arrival, Millis(10));
        d.register(&nid(1), "s1", DirEvent::Departure, Millis(20));
        d.register(&nid(1), "s2", DirEvent::Arrival, Millis(30));
        let e = d.lookup(&nid(1)).unwrap();
        assert_eq!(e.host, "s2");
        assert_eq!(e.event, DirEvent::Arrival);
    }

    #[test]
    fn stale_events_ignored() {
        let mut d = NapletDirectory::new();
        d.register(&nid(1), "s2", DirEvent::Arrival, Millis(30));
        d.register(&nid(1), "s1", DirEvent::Departure, Millis(10)); // late
        assert_eq!(d.lookup(&nid(1)).unwrap().host, "s2");
        assert_eq!(d.registrations, 2);
    }

    #[test]
    fn same_instant_prefers_latest_registration() {
        let mut d = NapletDirectory::new();
        d.register(&nid(1), "s1", DirEvent::Departure, Millis(10));
        d.register(&nid(1), "s2", DirEvent::Arrival, Millis(10));
        assert_eq!(d.lookup(&nid(1)).unwrap().event, DirEvent::Arrival);
    }

    #[test]
    fn remove() {
        let mut d = NapletDirectory::new();
        d.register(&nid(1), "s1", DirEvent::Arrival, Millis(1));
        assert!(d.remove(&nid(1)).is_some());
        assert!(d.remove(&nid(1)).is_none());
        assert!(d.is_empty());
    }
}
