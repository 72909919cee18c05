//! Health probe report: the per-server half of the ops plane.
//!
//! A [`StatusReport`] is a deterministic aggregation of state the
//! server already keeps — the NapletMonitor's run table and resource
//! accounting, the post office's queues, the write-ahead journal's
//! un-retired lag, the lease table, and the Locator's cache counters.
//! Assembly is a read-only walk over those tables (no new locks, no
//! hot-path bookkeeping), so a probe costs what a diagnostics dump
//! costs and two probes of identical servers encode byte-identically
//! (every list is sorted before it leaves the server).
//!
//! Reports travel as the [`crate::events::OpsPage::Status`] page of an
//! `OpsReply` frame, the privileged ops protocol any server or the
//! centralized manager can speak over the same fabric the agents use.

use serde::{Deserialize, Serialize};

use naplet_core::clock::Millis;

/// One resident naplet as the health probe sees it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidentStatus {
    /// The naplet's id (rendered).
    pub id: String,
    /// Navigation-log visit epoch of the visit in progress.
    pub visit_epoch: u64,
    /// How long the agent has dwelt here so far, ms.
    pub dwell_ms: u64,
    /// Messages waiting in its mailbox.
    pub mailbox: u64,
    /// Cumulative visits across its journey (monitor accounting).
    pub visits: u64,
    /// Cumulative CPU gas consumed.
    pub gas: u64,
    /// Cumulative message bytes posted.
    pub msg_bytes: u64,
    /// Peak serialized state size observed.
    pub peak_state_bytes: u64,
}

/// Replicated-directory consensus status of one replica (present only
/// on hosts that are members of the directory replica set).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplStatus {
    /// Current role: `follower`, `candidate` or `leader`.
    pub role: String,
    /// Current consensus term.
    pub term: u64,
    /// Highest log index known committed here.
    pub commit: u64,
    /// Highest log index appended here.
    pub last_index: u64,
    /// Who this replica believes leads the current term, if known.
    pub leader: Option<String>,
    /// Naplets in the committed replicated directory.
    pub entries: u64,
}

/// Point-in-time health report of one naplet server.
///
/// Every collection field is sorted, so the codec encoding of a
/// report is a pure function of server state — byte-identical across
/// identical seeded runs, which the status-plane determinism tests
/// and the CI golden check rely on.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Reporting host.
    pub host: String,
    /// Server time the report was assembled.
    pub at: Millis,
    /// Resident naplets, sorted by id.
    pub residents: Vec<ResidentStatus>,
    /// Agents parked here awaiting manual recovery.
    pub parked: u64,
    /// Total messages queued across resident mailboxes.
    pub mailbox_depth: u64,
    /// Early-arrival messages waiting in the special mailbox.
    pub special_mailbox_depth: u64,
    /// Un-retired write-ahead journal entries (naplet records).
    pub journal_entries: u64,
    /// Bytes held by those entries.
    pub journal_bytes: u64,
    /// Live home-side leases.
    pub leases_held: u64,
    /// Leases that expired without a sign of life.
    pub leases_expired: u64,
    /// Orphans re-dispatched from their creation record.
    pub leases_redispatched: u64,
    /// Agents given up as lost.
    pub leases_lost: u64,
    /// Location-cache entries.
    pub locator_entries: u64,
    /// Location-cache hits served.
    pub locator_hits: u64,
    /// Location-cache misses.
    pub locator_misses: u64,
    /// Hits that later proved stale (forwarded/bounced).
    pub locator_stale_hits: u64,
    /// Entries evicted to stay within capacity.
    pub locator_evictions: u64,
    /// Age of the oldest surviving cache hint, ms.
    pub locator_oldest_age_ms: u64,
    /// Outbound migrations awaiting their ack (retry-queue depth).
    pub pending_transfers: u64,
    /// Posted messages awaiting delivery confirmation.
    pub outstanding_posts: u64,
    /// Consensus status when this host replicates the directory.
    pub repl: Option<ReplStatus>,
}

impl StatusReport {
    /// One-line operator summary (`naplet-ops status --sim` table row body).
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{}: {} resident, {} parked, mailbox {}+{}, journal {} ({} B), \
             leases {}/{} exp, locator {} ({} stale), {} in-flight",
            self.host,
            self.residents.len(),
            self.parked,
            self.mailbox_depth,
            self.special_mailbox_depth,
            self.journal_entries,
            self.journal_bytes,
            self.leases_held,
            self.leases_expired,
            self.locator_entries,
            self.locator_stale_hits,
            self.pending_transfers,
        );
        if let Some(r) = &self.repl {
            line.push_str(&format!(
                ", dir {} t{} c{}/{}",
                r.role, r.term, r.commit, r.last_index
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusReport {
        StatusReport {
            host: "s1".into(),
            at: Millis(42),
            residents: vec![ResidentStatus {
                id: "naplet://czxu@home/1".into(),
                visit_epoch: 3,
                dwell_ms: 5,
                mailbox: 1,
                visits: 3,
                gas: 120,
                msg_bytes: 64,
                peak_state_bytes: 512,
            }],
            parked: 0,
            mailbox_depth: 1,
            special_mailbox_depth: 0,
            journal_entries: 1,
            journal_bytes: 300,
            leases_held: 0,
            leases_expired: 0,
            leases_redispatched: 0,
            leases_lost: 0,
            locator_entries: 2,
            locator_hits: 5,
            locator_misses: 1,
            locator_stale_hits: 1,
            locator_evictions: 0,
            locator_oldest_age_ms: 17,
            pending_transfers: 0,
            outstanding_posts: 0,
            repl: Some(ReplStatus {
                role: "leader".into(),
                term: 3,
                commit: 9,
                last_index: 9,
                leader: Some("s1".into()),
                entries: 4,
            }),
        }
    }

    #[test]
    fn report_codec_round_trips_byte_stably() {
        let report = sample();
        let a = naplet_core::codec::to_bytes(&report).unwrap();
        let b = naplet_core::codec::to_bytes(&report).unwrap();
        assert_eq!(a, b, "encoding must be a pure function of the report");
        let back: StatusReport = naplet_core::codec::from_bytes(&a).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn summary_names_the_host_and_counts() {
        let s = sample().summary();
        assert!(s.starts_with("s1: 1 resident"), "{s}");
        assert!(s.contains("journal 1 (300 B)"), "{s}");
        assert!(s.contains("1 stale"), "{s}");
        assert!(s.contains("dir leader t3 c9/9"), "{s}");
    }
}
