//! NapletManager (paper §2.2, §4.1).
//!
//! The manager gives local users an interface to launch, monitor and
//! control naplets; it "maintains the information about its locally
//! launched naplets in a naplet table. Footprints of all past and
//! current alien naplets are also recorded for management purposes."
//!
//! Footprints are also the tracing substrate of the directory-less
//! location mode: "the NapletManager maintains the source and
//! destination information about each naplet visit", which the Locator
//! and Messenger follow when chasing a moving naplet.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;

use crate::directory::DirEvent;

/// Lifecycle status tracked in the home naplet table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NapletStatus {
    /// Dispatched from this server; not yet reported anywhere.
    Launched,
    /// Known to be running at `last_known`.
    Running,
    /// Departed `last_known`; in transit.
    InTransit,
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// One visit footprint at this server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Footprint {
    /// Server the naplet arrived from (None for a local launch).
    pub from: Option<String>,
    /// Arrival time.
    pub arrived: Millis,
    /// Server the naplet departed to (None while resident or if it
    /// ended here).
    pub to: Option<String>,
    /// Departure time.
    pub departed: Option<Millis>,
}

/// The per-server naplet manager.
#[derive(Debug, Default)]
pub struct NapletManager {
    table: HashMap<NapletId, TableEntry>,
    footprints: HashMap<NapletId, Vec<Footprint>>,
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
    /// `host` after an arrival and is in transit from it after a
    /// departure. Each stop talks to the home on its own connection, so
    /// a registration can be overtaken by the journey's final notice;
    /// it therefore never reopens a `Completed` or `Destroyed` row.
    pub fn note_movement(&mut self, id: &NapletId, event: DirEvent, host: &str, now: Millis) {
        let Some(e) = self.table.get_mut(id) else {
            return;
        };
        if !matches!(e.status, NapletStatus::Completed | NapletStatus::Destroyed) {
            e.status = match event {
                DirEvent::Arrival => NapletStatus::Running,
                DirEvent::Departure => NapletStatus::InTransit,
            };
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

    /// Record an arrival footprint.
    pub fn record_arrival(&mut self, id: &NapletId, from: Option<&str>, now: Millis) {
        self.footprints
            .entry(id.clone())
            .or_default()
            .push(Footprint {
                from: from.map(str::to_string),
                arrived: now,
                to: None,
                departed: None,
            });
    }

    /// Record the departure of the current visit towards `to`.
    /// Returns false when there is no open footprint (protocol bug).
    pub fn record_departure(&mut self, id: &NapletId, to: &str, now: Millis) -> bool {
        match self.footprints.get_mut(id).and_then(|v| v.last_mut()) {
            Some(fp) if fp.departed.is_none() => {
                fp.to = Some(to.to_string());
                fp.departed = Some(now);
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
        let fp = self.footprints.get(id)?.last()?;
        Some(match (&fp.departed, &fp.to) {
            (Some(_), Some(to)) => Some(to.as_str()),
            _ => None,
        })
    }

    /// Full footprint history for a naplet (diagnostics/audit).
    pub fn footprints(&self, id: &NapletId) -> &[Footprint] {
        self.footprints.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total footprints recorded (all naplets).
    pub fn footprint_count(&self) -> usize {
        self.footprints.values().map(Vec::len).sum()
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
        m.record_arrival(&id, Some("s0"), Millis(5));
        assert_eq!(m.trace(&id), Some(None)); // resident
        assert!(m.record_departure(&id, "s2", Millis(9)));
        assert_eq!(m.trace(&id), Some(Some("s2"))); // forwarded
                                                    // revisit later
        m.record_arrival(&id, Some("s5"), Millis(30));
        assert_eq!(m.trace(&id), Some(None));
        assert_eq!(m.footprints(&id).len(), 2);
        assert_eq!(m.footprints(&id)[0].from.as_deref(), Some("s0"));
        assert_eq!(m.footprints(&id)[0].to.as_deref(), Some("s2"));
    }

    #[test]
    fn departure_without_arrival_rejected() {
        let mut m = NapletManager::new();
        assert!(!m.record_departure(&nid(1), "s1", Millis(0)));
        m.record_arrival(&nid(1), None, Millis(1));
        assert!(m.record_departure(&nid(1), "s1", Millis(2)));
        // double departure rejected
        assert!(!m.record_departure(&nid(1), "s2", Millis(3)));
    }

    #[test]
    fn footprint_count_spans_naplets() {
        let mut m = NapletManager::new();
        m.record_arrival(&nid(1), None, Millis(1));
        m.record_arrival(&nid(2), None, Millis(1));
        m.record_arrival(&nid(1), Some("x"), Millis(2));
        assert_eq!(m.footprint_count(), 3);
    }
}
