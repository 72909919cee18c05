//! Traffic accounting — the measurement backbone of every experiment.
//!
//! The fabric meters every transfer by [`TrafficClass`]: agent
//! migrations, code (lazy class loading), inter-agent messages,
//! control-plane traffic (transfer acks, directory registrations)
//! and SNMP client/server requests (the centralized
//! baseline). EXPERIMENTS.md reports these counters; the §6 claim —
//! centralized SNMP micro-management "tends to generate heavy traffic"
//! — is tested directly against them.

use std::collections::BTreeMap;
use std::sync::Arc;

use naplet_core::codec::{Decode, Encode};
use parking_lot::Mutex;

/// What kind of payload crossed the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Encode, Decode)]
pub enum TrafficClass {
    /// A serialized naplet in flight (migration).
    Migration,
    /// Lazy code loading (first visit of a codebase to a host).
    Code,
    /// Inter-naplet user/system messages (post office).
    Message,
    /// Control plane: transfer acknowledgements, directory registration,
    /// location queries, confirmations.
    Control,
    /// Conventional client/server management traffic (SNMP baseline).
    Snmp,
    /// Anything else.
    Other,
}

impl TrafficClass {
    /// All classes, for exhaustive reporting.
    pub fn all() -> &'static [TrafficClass] {
        &[
            TrafficClass::Migration,
            TrafficClass::Code,
            TrafficClass::Message,
            TrafficClass::Control,
            TrafficClass::Snmp,
            TrafficClass::Other,
        ]
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficClass::Migration => "migration",
            TrafficClass::Code => "code",
            TrafficClass::Message => "message",
            TrafficClass::Control => "control",
            TrafficClass::Snmp => "snmp",
            TrafficClass::Other => "other",
        }
    }
}

/// Counters for one class or link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Encode, Decode)]
pub struct Counter {
    /// Number of transfers.
    pub messages: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Sum of modelled one-way delays (ms) — total latency paid.
    pub latency_ms: u64,
}

impl Counter {
    fn add(&mut self, bytes: u64, latency_ms: u64) {
        self.messages += 1;
        self.bytes += bytes;
        self.latency_ms += latency_ms;
    }
}

#[derive(Debug, Default)]
struct Inner {
    by_class: BTreeMap<TrafficClass, Counter>,
    /// Per-directed-link counters as rows keyed by sender, then
    /// receiver, so the per-frame lookup borrows both names.
    by_link: BTreeMap<String, BTreeMap<String, Counter>>,
    dropped: u64,
    retransmits: u64,
    crashes: u64,
    recoveries: u64,
}

/// Shared, thread-safe traffic statistics.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    inner: Arc<Mutex<Inner>>,
}

/// An immutable snapshot of the counters.
#[derive(Debug, Clone, Default, PartialEq, Encode, Decode)]
pub struct StatsSnapshot {
    /// Per-class totals.
    pub by_class: BTreeMap<TrafficClass, Counter>,
    /// Per-directed-link totals.
    pub by_link: BTreeMap<(String, String), Counter>,
    /// Transfers dropped by loss/partition injection.
    pub dropped: u64,
    /// Transfers that were retransmissions (attempt ≥ 2) of an earlier
    /// send — the visible cost of the reliable-transfer layer.
    pub retransmits: u64,
    /// Process crashes injected into the space (crash-and-restart
    /// schedules; each wipes one server's volatile state).
    pub crashes: u64,
    /// Recovery replays completed: a crashed server restarted and
    /// rehydrated its journal.
    pub recoveries: u64,
}

impl StatsSnapshot {
    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.by_class.values().map(|c| c.bytes).sum()
    }

    /// Total transfers across all classes.
    pub fn total_messages(&self) -> u64 {
        self.by_class.values().map(|c| c.messages).sum()
    }

    /// Bytes for one class.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.by_class.get(&class).map(|c| c.bytes).unwrap_or(0)
    }

    /// Transfer count for one class.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.by_class.get(&class).map(|c| c.messages).unwrap_or(0)
    }

    /// Difference `self - earlier`, over per-class and per-link
    /// counters alike.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut out = self.clone();
        for (class, c) in &mut out.by_class {
            if let Some(e) = earlier.by_class.get(class) {
                c.messages -= e.messages.min(c.messages);
                c.bytes -= e.bytes.min(c.bytes);
                c.latency_ms -= e.latency_ms.min(c.latency_ms);
            }
        }
        for (link, c) in &mut out.by_link {
            if let Some(e) = earlier.by_link.get(link) {
                c.messages -= e.messages.min(c.messages);
                c.bytes -= e.bytes.min(c.bytes);
                c.latency_ms -= e.latency_ms.min(c.latency_ms);
            }
        }
        out.dropped -= earlier.dropped.min(out.dropped);
        out.retransmits -= earlier.retransmits.min(out.retransmits);
        out.crashes -= earlier.crashes.min(out.crashes);
        out.recoveries -= earlier.recoveries.min(out.recoveries);
        out
    }
}

impl NetStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Record one transfer.
    pub fn record(&self, from: &str, to: &str, class: TrafficClass, bytes: u64, latency_ms: u64) {
        let mut inner = self.inner.lock();
        inner
            .by_class
            .entry(class)
            .or_default()
            .add(bytes, latency_ms);
        // only a link's first transfer allocates its names
        let known = inner.by_link.get_mut(from).and_then(|row| row.get_mut(to));
        if let Some(link) = known {
            link.add(bytes, latency_ms);
        } else {
            let row = inner.by_link.entry(from.to_string()).or_default();
            row.entry(to.to_string())
                .or_default()
                .add(bytes, latency_ms);
        }
    }

    /// Record a dropped transfer (loss / partition).
    pub fn record_drop(&self) {
        self.inner.lock().dropped += 1;
    }

    /// Record a retransmission (a send whose attempt number is ≥ 2).
    pub fn record_retransmit(&self) {
        self.inner.lock().retransmits += 1;
    }

    /// Record an injected process crash.
    pub fn record_crash(&self) {
        self.inner.lock().crashes += 1;
    }

    /// Record a completed crash-recovery replay.
    pub fn record_recovery(&self) {
        self.inner.lock().recoveries += 1;
    }

    /// Take a snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let inner = self.inner.lock();
        StatsSnapshot {
            by_class: inner.by_class.clone(),
            by_link: inner
                .by_link
                .iter()
                .flat_map(|(from, row)| {
                    row.iter()
                        .map(move |(to, link)| ((from.clone(), to.clone()), *link))
                })
                .collect(),
            dropped: inner.dropped,
            retransmits: inner.retransmits,
            crashes: inner.crashes,
            recoveries: inner.recoveries,
        }
    }

    /// Reset everything to zero.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        *inner = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = NetStats::new();
        s.record("a", "b", TrafficClass::Migration, 100, 5);
        s.record("a", "b", TrafficClass::Migration, 50, 3);
        s.record("b", "a", TrafficClass::Message, 10, 1);
        let snap = s.snapshot();
        assert_eq!(snap.bytes(TrafficClass::Migration), 150);
        assert_eq!(snap.messages(TrafficClass::Migration), 2);
        assert_eq!(snap.bytes(TrafficClass::Message), 10);
        assert_eq!(snap.total_bytes(), 160);
        assert_eq!(snap.total_messages(), 3);
        assert_eq!(
            snap.by_link
                .get(&("a".to_string(), "b".to_string()))
                .unwrap()
                .bytes,
            150
        );
        assert_eq!(
            snap.by_class
                .get(&TrafficClass::Migration)
                .unwrap()
                .latency_ms,
            8
        );
    }

    #[test]
    fn drops_counted() {
        let s = NetStats::new();
        s.record_drop();
        s.record_drop();
        assert_eq!(s.snapshot().dropped, 2);
    }

    #[test]
    fn reset_zeroes() {
        let s = NetStats::new();
        s.record("a", "b", TrafficClass::Snmp, 7, 1);
        s.reset();
        assert_eq!(s.snapshot().total_bytes(), 0);
        assert_eq!(s.snapshot().dropped, 0);
    }

    #[test]
    fn since_subtracts() {
        let s = NetStats::new();
        s.record("a", "b", TrafficClass::Snmp, 100, 2);
        let t0 = s.snapshot();
        s.record("a", "b", TrafficClass::Snmp, 40, 1);
        s.record_drop();
        let delta = s.snapshot().since(&t0);
        assert_eq!(delta.bytes(TrafficClass::Snmp), 40);
        assert_eq!(delta.messages(TrafficClass::Snmp), 1);
        assert_eq!(delta.dropped, 1);
    }

    #[test]
    fn since_subtracts_per_link_counters() {
        let s = NetStats::new();
        s.record("a", "b", TrafficClass::Control, 100, 2);
        s.record("b", "a", TrafficClass::Control, 30, 1);
        let t0 = s.snapshot();
        s.record("a", "b", TrafficClass::Control, 40, 1);
        let delta = s.snapshot().since(&t0);
        let ab = delta
            .by_link
            .get(&("a".to_string(), "b".to_string()))
            .unwrap();
        assert_eq!(ab.messages, 1, "a→b delta must not include the baseline");
        assert_eq!(ab.bytes, 40);
        assert_eq!(ab.latency_ms, 1);
        let ba = delta
            .by_link
            .get(&("b".to_string(), "a".to_string()))
            .unwrap();
        assert_eq!(*ba, Counter::default(), "quiet links delta to zero");
    }

    #[test]
    fn retransmits_counted_and_subtracted() {
        let s = NetStats::new();
        s.record_retransmit();
        let t0 = s.snapshot();
        assert_eq!(t0.retransmits, 1);
        s.record_retransmit();
        s.record_retransmit();
        assert_eq!(s.snapshot().since(&t0).retransmits, 2);
    }

    #[test]
    fn crashes_and_recoveries_counted_and_subtracted() {
        let s = NetStats::new();
        s.record_crash();
        s.record_recovery();
        let t0 = s.snapshot();
        assert_eq!(t0.crashes, 1);
        assert_eq!(t0.recoveries, 1);
        s.record_crash();
        s.record_crash();
        s.record_recovery();
        let delta = s.snapshot().since(&t0);
        assert_eq!(delta.crashes, 2);
        assert_eq!(delta.recoveries, 1);
    }

    #[test]
    fn snapshot_is_shared_across_clones() {
        let s = NetStats::new();
        let s2 = s.clone();
        s2.record("x", "y", TrafficClass::Control, 1, 0);
        assert_eq!(s.snapshot().messages(TrafficClass::Control), 1);
    }

    #[test]
    fn class_labels_unique() {
        let mut labels: Vec<&str> = TrafficClass::all().iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), TrafficClass::all().len());
    }
}
