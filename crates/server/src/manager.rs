//! NapletManager (paper §2.2, §4.1).
//!
//! The manager gives local users an interface to launch, monitor and
//! control naplets; it keeps the naplet table of its locally launched
//! naplets and a footprint of every naplet that visited.
//!
//! Footprints are also the tracing substrate of the directory-less
//! location mode, which the Locator and Messenger follow when chasing a
//! moving naplet. A chase reads only where the naplet went last, so a
//! footprint is that host and nothing else.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use naplet_core::codec::{Decode, Encode};

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;

/// Lifecycle status tracked in the home naplet table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Encode, Decode)]
pub enum NapletStatus {
    /// Dispatched from this server; not yet reported anywhere.
    Launched,
    /// Known to be running at `last_known`.
    Running,
    /// Journey completed (destroyed normally).
    Completed,
    /// Destroyed abnormally (terminated, budget kill, lost).
    Destroyed,
    /// Stranded: the reliable-transfer layer exhausted its retries
    /// toward a required destination and no itinerary fallback existed;
    /// the naplet is held at its last server awaiting owner action.
    Parked,
    /// Presumed lost: the home-side lease expired with no sign of life
    /// and no re-dispatch was possible (policy forbade it or the
    /// budget was exhausted). Terminal.
    Lost,
}

/// One row of the home naplet table.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct TableEntry {
    /// The naplet.
    pub id: NapletId,
    /// Current lifecycle status.
    pub status: NapletStatus,
    /// Most recent server this naplet was known at.
    pub last_known: String,
    /// Time of the last update.
    pub updated: Millis,
}

/// `name` as one allocation shared by every table entry of `names`
/// that holds it: host names repeat across entries, peers are few.
pub(crate) fn shared_name(names: &mut HashSet<Arc<str>>, name: &str) -> Arc<str> {
    if let Some(shared) = names.get(name) {
        return Arc::clone(shared);
    }
    let shared = Arc::<str>::from(name);
    names.insert(Arc::clone(&shared));
    shared
}

/// The per-server naplet manager.
#[derive(Debug, Default)]
pub struct NapletManager {
    table: HashMap<NapletId, TableEntry>,
    /// Per naplet seen here, the host its last visit left for (None
    /// while it is resident).
    footprints: HashMap<NapletId, Option<Arc<str>>>,
    /// The host names footprints share, one per peer.
    hosts: HashSet<Arc<str>>,
}

impl NapletManager {
    /// Empty manager.
    pub fn new() -> NapletManager {
        NapletManager::default()
    }

    // ----------------- home naplet table -----------------

    /// Record a local launch into the naplet table.
    pub fn record_launch(&mut self, id: NapletId, first_stop: &str, now: Millis) {
        self.table.insert(
            id.clone(),
            TableEntry {
                id,
                status: NapletStatus::Launched,
                last_known: first_stop.to_string(),
                updated: now,
            },
        );
    }

    /// Update the table when the home learns about a naplet's state
    /// (directory events, reports). Unknown ids are ignored — the home
    /// only tracks naplets it launched.
    pub fn update_status(&mut self, id: &NapletId, status: NapletStatus, at: &str, now: Millis) {
        if let Some(e) = self.table.get_mut(id) {
            e.status = status;
            e.last_known = at.to_string();
            e.updated = now;
        }
    }

    /// A movement registration reached the home: the naplet runs at
    /// `host` or is heading there. Each stop talks to the home on its
    /// own connection, so a registration can be overtaken by the
    /// journey's final notice; it therefore never reopens a `Completed`
    /// or `Destroyed` row.
    pub fn note_movement(&mut self, id: &NapletId, host: &str, now: Millis) {
        let Some(e) = self.table.get_mut(id) else {
            return;
        };
        if !matches!(e.status, NapletStatus::Completed | NapletStatus::Destroyed) {
            e.status = NapletStatus::Running;
            e.last_known = host.to_string();
            e.updated = now;
        }
    }

    /// Look up a locally launched naplet.
    pub fn table_entry(&self, id: &NapletId) -> Option<&TableEntry> {
        self.table.get(id)
    }

    /// All locally launched naplets (sorted by id for determinism).
    pub fn launched(&self) -> Vec<&TableEntry> {
        let mut v: Vec<&TableEntry> = self.table.values().collect();
        v.sort_by(|a, b| a.id.cmp(&b.id));
        v
    }

    // ----------------- footprints (tracing) -----------------

    /// Record an arrival: the naplet is resident here, replacing the
    /// previous visit's footprint.
    pub fn record_arrival(&mut self, id: &NapletId) {
        self.footprints.insert(id.clone(), None);
    }

    /// Record the departure of the current visit towards `to`.
    /// Returns false when there is no open footprint (protocol bug).
    pub fn record_departure(&mut self, id: &NapletId, to: &str) -> bool {
        match self.footprints.get_mut(id) {
            Some(left @ None) => {
                *left = Some(shared_name(&mut self.hosts, to));
                true
            }
            _ => false,
        }
    }

    /// The naplet's whereabouts according to local footprints:
    /// * `Some(None)` — it is resident here now;
    /// * `Some(Some(host))` — it departed towards `host`;
    /// * `None` — never seen here.
    pub fn trace(&self, id: &NapletId) -> Option<Option<&str>> {
        self.footprints.get(id).map(Option::as_deref)
    }

    /// Naplets with a footprint here.
    pub fn footprint_count(&self) -> usize {
        self.footprints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(n: u64) -> NapletId {
        NapletId::new("u", "home", Millis(n)).unwrap()
    }

    #[test]
    fn table_lifecycle() {
        let mut m = NapletManager::new();
        m.record_launch(nid(1), "s1", Millis(10));
        assert_eq!(
            m.table_entry(&nid(1)).unwrap().status,
            NapletStatus::Launched
        );
        m.update_status(&nid(1), NapletStatus::Running, "s1", Millis(20));
        let e = m.table_entry(&nid(1)).unwrap();
        assert_eq!(e.status, NapletStatus::Running);
        assert_eq!(e.last_known, "s1");
        // unknown ids ignored
        m.update_status(&nid(9), NapletStatus::Running, "x", Millis(0));
        assert!(m.table_entry(&nid(9)).is_none());
        assert_eq!(m.launched().len(), 1);
    }

    #[test]
    fn footprints_trace_movement() {
        let mut m = NapletManager::new();
        let id = nid(1);
        assert_eq!(m.trace(&id), None);
        m.record_arrival(&id);
        assert_eq!(m.trace(&id), Some(None)); // resident
        assert!(m.record_departure(&id, "s2"));
        assert_eq!(m.trace(&id), Some(Some("s2"))); // forwarded

        // a revisit replaces it: only the last visit is kept
        m.record_arrival(&id);
        assert_eq!(m.trace(&id), Some(None));
        assert!(m.record_departure(&id, "s5"));
        assert_eq!(m.trace(&id), Some(Some("s5")));
    }

    #[test]
    fn departure_without_arrival_rejected() {
        let mut m = NapletManager::new();
        assert!(!m.record_departure(&nid(1), "s1"));
        m.record_arrival(&nid(1));
        assert!(m.record_departure(&nid(1), "s1"));
        // double departure rejected
        assert!(!m.record_departure(&nid(1), "s2"));
        assert_eq!(m.trace(&nid(1)), Some(Some("s1")));
    }

    #[test]
    fn footprint_count_spans_naplets() {
        let mut m = NapletManager::new();
        m.record_arrival(&nid(1));
        m.record_arrival(&nid(2));
        m.record_arrival(&nid(1));
        assert_eq!(m.footprint_count(), 2, "one, the last, per naplet");
    }
}
