//! Navigation logs (paper §2.1).
//!
//! The `NavigationLog` records the arrival and departure time of the
//! naplet at each server it visits, giving the owner "detailed travel
//! information for post-analysis". Beyond raw records this module
//! provides the post-analysis itself: dwell times, transit times, and
//! per-host aggregation — the numbers several experiments report.

use crate::codec::{Decode, Encode};

use crate::clock::Millis;

/// One visit record. `departed` is `None` while the naplet is still
/// resident (or was terminated on site).
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct VisitRecord {
    /// Host visited.
    pub host: String,
    /// Arrival instant.
    pub arrived: Millis,
    /// Departure instant, if the naplet has left.
    pub departed: Option<Millis>,
}

impl VisitRecord {
    /// Time spent on the host, if the visit has completed.
    pub fn dwell(&self) -> Option<u64> {
        self.departed.map(|d| d.since(self.arrived))
    }
}

/// One permanently failed migration: the reliable-transfer layer
/// exhausted its retries trying to reach `host`.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub struct FailureRecord {
    /// Destination the naplet could not reach.
    pub host: String,
    /// When the navigator gave up.
    pub at: Millis,
    /// Send attempts made before giving up.
    pub attempts: u32,
    /// Short human-readable cause ("transfer unacknowledged", ...).
    pub reason: String,
}

/// The travel log a naplet carries.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode, Default)]
pub struct NavigationLog {
    records: Vec<VisitRecord>,
    failures: Vec<FailureRecord>,
}

impl NavigationLog {
    /// Empty log.
    pub fn new() -> NavigationLog {
        NavigationLog::default()
    }

    /// Record arrival at `host`.
    pub fn record_arrival(&mut self, host: impl Into<String>, at: Millis) {
        self.records.push(VisitRecord {
            host: host.into(),
            arrived: at,
            departed: None,
        });
    }

    /// Record departure from the current (latest) host. Returns `false`
    /// when there is no open visit to close — a protocol bug the caller
    /// should surface.
    pub fn record_departure(&mut self, at: Millis) -> bool {
        match self.records.last_mut() {
            Some(rec) if rec.departed.is_none() => {
                rec.departed = Some(at);
                true
            }
            _ => false,
        }
    }

    /// Record that a migration towards `host` permanently failed after
    /// `attempts` sends. Hosts recorded here are treated as unreachable
    /// by subsequent itinerary guard evaluation, which is how `Alt`
    /// patterns fall back to their next branch.
    pub fn record_failure(
        &mut self,
        host: impl Into<String>,
        at: Millis,
        attempts: u32,
        reason: impl Into<String>,
    ) {
        self.failures.push(FailureRecord {
            host: host.into(),
            at,
            attempts,
            reason: reason.into(),
        });
    }

    /// All permanent migration failures, in the order they occurred.
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// Distinct hosts with at least one recorded migration failure.
    pub fn failed_hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = self.failures.iter().map(|f| f.host.clone()).collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }

    /// All records in visit order.
    pub fn records(&self) -> &[VisitRecord] {
        &self.records
    }

    /// The visit currently in progress, if any.
    pub fn current_visit(&self) -> Option<&VisitRecord> {
        self.records.last().filter(|r| r.departed.is_none())
    }

    /// Number of hops (arrivals) so far.
    pub fn hops(&self) -> usize {
        self.records.len()
    }

    /// The **visit epoch**: the number of arrivals recorded so far.
    ///
    /// The epoch is the exactly-once ratchet of crash recovery. A
    /// durable snapshot taken *after* a visit's effects were applied
    /// stores `applied_epoch == visit_epoch()`; a snapshot taken at
    /// admission stores `visit_epoch() - 1`. Recovery replays a
    /// rehydrated naplet's visit only when its journaled
    /// `applied_epoch` is behind the log — a visit whose effects
    /// already escaped (messages posted, reports sent) is resumed at
    /// its end instead of being run a second time.
    pub fn visit_epoch(&self) -> u64 {
        self.records.len() as u64
    }

    /// Hosts in visit order (with repetitions, as travelled).
    pub fn route(&self) -> Vec<&str> {
        self.records.iter().map(|r| r.host.as_str()).collect()
    }

    // ---------- post-analysis (paper: "for post-analysis") ----------

    /// Total time spent executing on hosts (sum of completed dwells).
    pub fn total_dwell(&self) -> u64 {
        self.records.iter().filter_map(VisitRecord::dwell).sum()
    }

    /// Total time spent in transit: gaps between a departure and the
    /// next arrival.
    pub fn total_transit(&self) -> u64 {
        self.records
            .windows(2)
            .filter_map(|w| w[0].departed.map(|d| w[1].arrived.since(d)))
            .sum()
    }

    /// End-to-end journey time from first arrival to last known event.
    pub fn journey_time(&self) -> u64 {
        let Some(first) = self.records.first() else {
            return 0;
        };
        let last = self
            .records
            .last()
            .map(|r| r.departed.unwrap_or(r.arrived))
            .unwrap_or(first.arrived);
        last.since(first.arrived)
    }

    /// Dwell time aggregated per host (host, total-dwell), sorted by
    /// host name for deterministic reporting.
    pub fn dwell_by_host(&self) -> Vec<(String, u64)> {
        let mut agg: std::collections::BTreeMap<String, u64> = Default::default();
        for r in &self.records {
            if let Some(d) = r.dwell() {
                *agg.entry(r.host.clone()).or_default() += d;
            }
        }
        agg.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> NavigationLog {
        let mut l = NavigationLog::new();
        l.record_arrival("s1", Millis(100));
        l.record_departure(Millis(150));
        l.record_arrival("s2", Millis(170));
        l.record_departure(Millis(200));
        l.record_arrival("s1", Millis(230));
        l
    }

    #[test]
    fn dwell_and_transit() {
        let l = log();
        assert_eq!(l.total_dwell(), 50 + 30);
        assert_eq!(l.total_transit(), 20 + 30);
        assert_eq!(l.journey_time(), 130);
        assert_eq!(l.hops(), 3);
    }

    #[test]
    fn open_visit_tracked() {
        let mut l = log();
        assert_eq!(l.current_visit().unwrap().host, "s1");
        assert!(l.record_departure(Millis(300)));
        assert!(l.current_visit().is_none());
        // double departure is a protocol error
        assert!(!l.record_departure(Millis(301)));
    }

    #[test]
    fn departure_without_arrival_rejected() {
        let mut l = NavigationLog::new();
        assert!(!l.record_departure(Millis(1)));
    }

    #[test]
    fn route_preserves_repetition() {
        assert_eq!(log().route(), ["s1", "s2", "s1"]);
    }

    #[test]
    fn visit_epoch_counts_arrivals_only() {
        let mut l = NavigationLog::new();
        assert_eq!(l.visit_epoch(), 0);
        l.record_arrival("s1", Millis(1));
        assert_eq!(l.visit_epoch(), 1);
        // departures do not advance the epoch
        l.record_departure(Millis(2));
        assert_eq!(l.visit_epoch(), 1);
        // revisits are distinct epochs: replay suppression must key on
        // the arrival count, not on distinct host names
        l.record_arrival("s1", Millis(3));
        assert_eq!(l.visit_epoch(), 2);
    }

    #[test]
    fn per_host_aggregation() {
        let mut l = log();
        l.record_departure(Millis(260));
        assert_eq!(
            l.dwell_by_host(),
            vec![("s1".to_string(), 50 + 30), ("s2".to_string(), 30)]
        );
    }

    #[test]
    fn empty_log_is_sane() {
        let l = NavigationLog::new();
        assert_eq!(l.journey_time(), 0);
        assert_eq!(l.total_dwell(), 0);
        assert_eq!(l.total_transit(), 0);
        assert!(l.current_visit().is_none());
    }

    #[test]
    fn codec_round_trip() {
        let mut l = log();
        l.record_failure("s9", Millis(240), 6, "no landing reply");
        let bytes = crate::codec::to_bytes(&l).unwrap();
        let back: NavigationLog = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn failures_recorded_and_deduped() {
        let mut l = NavigationLog::new();
        assert!(l.failed_hosts().is_empty());
        l.record_failure("s3", Millis(10), 6, "no landing reply");
        l.record_failure("s3", Millis(90), 6, "transfer unacknowledged");
        l.record_failure("s1", Millis(120), 3, "no landing reply");
        assert_eq!(l.failures().len(), 3);
        assert_eq!(l.failures()[0].attempts, 6);
        assert_eq!(l.failed_hosts(), vec!["s1".to_string(), "s3".to_string()]);
    }
}
