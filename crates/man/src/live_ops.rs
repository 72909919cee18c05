//! Live ops plane over real sockets: poll a running `napletd` cluster.
//!
//! [`crate::centralized::CentralizedManager::status_poll`] drives the
//! wire-level ops protocol inside the deterministic sim; this is the
//! same protocol pointed at real daemons. A [`ClusterStatusPoller`] is
//! a station node from the cluster's bootstrap file (an entry no daemon
//! was started for — conventionally `ctl` or `mon`): a [`Node`] bound
//! to the station's listen address that sends privileged `OpsRequest`s
//! to named peers over TCP and sleeps on its inbox until the replies
//! have landed or the deadline passes. One station reads all three
//! kinds: status reports, flight-recorder segments (for
//! [`naplet_obs::merge_cluster_trace`] to join into one cluster-wide
//! Chrome trace) and metrics histories.
//!
//! A daemon that is down, or whose security policy refuses
//! `PrivilegedService("status")`, simply contributes nothing — the
//! poller returns what it heard, sorted by host, and the caller
//! compares against the set it asked for.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use naplet_core::clock::Millis;
use naplet_core::credential::{Credential, SigningKey};
use naplet_core::error::Result;
use naplet_core::NapletId;
use naplet_net::tcp::TcpTransport;
use naplet_obs::{FlatSegment, MetricsHistoryPage, ObsSink};
use naplet_server::bootstrap::BootstrapConfig;
use naplet_server::events::{OpsPage, OpsRead, Wire};
use naplet_server::status::StatusReport;
use naplet_server::{LocationMode, Node, ServerConfig};

/// An ops station attached to a live cluster.
pub struct ClusterStatusPoller {
    node: Node<TcpTransport>,
    /// What every request presents to the peer's policy matrix.
    credential: Credential,
    next_token: u64,
}

impl ClusterStatusPoller {
    /// Bind the `station` node's listen address from `config` and get
    /// ready to poll its peers. The station must be a `[[node]]` entry
    /// no daemon occupies.
    pub fn connect(config: &BootstrapConfig, station: &str) -> Result<ClusterStatusPoller> {
        let net = TcpTransport::start(config.tcp_config(station)?)?;
        let key = SigningKey::new("ops", b"status-station");
        let id = NapletId::new(&key.principal, station, Millis(1))?;
        Ok(ClusterStatusPoller {
            node: Node::new(
                Arc::new(net),
                ServerConfig::open(station, LocationMode::ForwardingTrace),
                ObsSink::default(),
                Instant::now(),
            ),
            credential: Credential::issue(&key, id, "ops-plane", vec![]),
            next_token: 0,
        })
    }

    /// Ask `target` for `read` under a fresh token; returns the token.
    fn ask(&mut self, target: &str, read: OpsRead) -> u64 {
        self.next_token += 1;
        let wire = Wire::OpsRequest {
            token: self.next_token,
            reply_to: self.node.server.host().to_string(),
            credential: self.credential.clone(),
            read,
        };
        self.node.send(target, wire);
        self.next_token
    }

    /// Sleep on the station's inbox until every token in `waiting` has
    /// its reply or `deadline` passes. Returns the pages that came, in
    /// arrival order; refusals and late replies to earlier requests
    /// are dropped.
    fn collect(&mut self, mut waiting: BTreeSet<u64>, deadline: Instant) -> Vec<OpsPage> {
        let mut pages = Vec::new();
        loop {
            self.node.pump();
            for (token, page) in self.node.server.ops_replies.drain(..) {
                if waiting.remove(&token) {
                    pages.extend(page);
                }
            }
            let done = waiting.is_empty() || Instant::now() >= deadline;
            if done || !self.node.wait(Some(deadline)) {
                return pages;
            }
        }
    }

    /// Poll `targets` and wait up to `timeout` for their reports.
    /// Returns whatever arrived in time, sorted by host — absent hosts
    /// are the caller's signal that a node is down or refusing.
    pub fn poll(&mut self, targets: &[String], timeout: Duration) -> Result<Vec<StatusReport>> {
        let asked = targets.iter().map(|t| self.ask(t, OpsRead::Status));
        let waiting = asked.collect();
        let pages = self.collect(waiting, Instant::now() + timeout);
        Ok(sorted_reports(pages))
    }

    /// Page a ring out of every target: ask with `read(from_seq, max)`
    /// from sequence 0 until a page comes back short, joining the pages
    /// of one host into one. Returns one merged page per answering
    /// host, sorted by host. A daemon that is down, refuses the
    /// privileged read, or never enabled the ring contributes nothing.
    fn page_out(
        &mut self,
        targets: &[String],
        timeout: Duration,
        max: u32,
        read: fn(u64, u32) -> OpsRead,
    ) -> Vec<OpsPage> {
        let deadline = Instant::now() + timeout;
        let mut targets = targets.to_vec();
        targets.sort(); // a page's host is the target that answered
        let mut rings = Vec::new();
        for target in &targets {
            // one host at a time keeps token bookkeeping trivial and
            // ring fetches are an offline/ops activity, not a hot path
            let mut merged = None;
            let mut from_seq = 0;
            loop {
                let token = self.ask(target, read(from_seq, max));
                // refused, ring off, or timed out: keep what we have
                // (possibly nothing) and move on
                let Some(page) = self.collect([token].into(), deadline).pop() else {
                    break;
                };
                let (next_seq, got) = join(&mut merged, page);
                from_seq = next_seq;
                if got < max as usize {
                    break;
                }
            }
            rings.extend(merged);
        }
        rings
    }

    /// Fetch every target's flight-recorder ring, one [`FlatSegment`]
    /// per answering host (sorted by host), ready for
    /// [`naplet_obs::merge_cluster_trace`].
    pub fn fetch_traces(
        &mut self,
        targets: &[String],
        timeout: Duration,
    ) -> Result<Vec<FlatSegment>> {
        let read = |from_seq, max| OpsRead::Trace { from_seq, max };
        let rings = self.page_out(targets, timeout, 512, read).into_iter();
        Ok(rings
            .filter_map(|ring| match ring {
                OpsPage::Trace(segment) => Some(FlatSegment::from_segment(&segment)),
                _ => None,
            })
            .collect())
    }

    /// Fetch every target's metrics-history ring, one merged
    /// [`MetricsHistoryPage`] per answering host (sorted by host).
    pub fn fetch_metrics_history(
        &mut self,
        targets: &[String],
        timeout: Duration,
    ) -> Result<Vec<MetricsHistoryPage>> {
        let read = |from_seq, max| OpsRead::MetricsHistory { from_seq, max };
        let rings = self.page_out(targets, timeout, 64, read).into_iter();
        Ok(rings
            .filter_map(|ring| match ring {
                OpsPage::MetricsHistory(page) => Some(page),
                _ => None,
            })
            .collect())
    }

    /// Render fetched metrics histories as per-host rate tables: the
    /// last `rows` interval deltas, newest last, one line per sample
    /// with a few load-bearing counters pulled out. Drives
    /// `figures cluster-watch`.
    pub fn render_rate_table(pages: &[MetricsHistoryPage], rows: usize) -> String {
        let mut out = String::new();
        for page in pages {
            out.push_str(&format!(
                "{} ({} samples, {} dropped)\n",
                page.host, page.total, page.dropped
            ));
            out.push_str(
                "  at_ms       wire.sent  wire.drop  handoffs  retrans  probes  ops.reads\n",
            );
            let start = page.samples.len().saturating_sub(rows);
            for sample in &page.samples[start..] {
                let c = |name: &str| sample.delta.counters.get(name).copied().unwrap_or(0);
                out.push_str(&format!(
                    "  {:<10}  {:>9}  {:>9}  {:>8}  {:>7}  {:>6}  {:>9}\n",
                    sample.at,
                    c("wire.sent"),
                    c("wire.dropped"),
                    c("handoff.commits"),
                    c("handoff.retransmits"),
                    c("status.probes"),
                    c("trace.reads") + c("history.reads"),
                ));
            }
        }
        out
    }

    /// Field-level diff between two polls of the same cluster: one
    /// line per host that changed, naming each field as `old -> new`,
    /// plus `lost`/`appeared` lines for hosts present in only one
    /// poll. Drives `figures cluster-status --watch`.
    pub fn diff_reports(prev: &[StatusReport], next: &[StatusReport]) -> Vec<String> {
        let by_host =
            |reports: &[StatusReport]| -> std::collections::BTreeMap<String, StatusReport> {
                reports
                    .iter()
                    .map(|r| (r.host.clone(), r.clone()))
                    .collect()
            };
        let prev = by_host(prev);
        let next = by_host(next);
        let mut lines = Vec::new();
        for (host, old) in &prev {
            let Some(new) = next.get(host) else {
                lines.push(format!("{host}: lost (answered last poll, silent now)"));
                continue;
            };
            let mut changes = Vec::new();
            let mut field = |name: &str, a: u64, b: u64| {
                if a != b {
                    changes.push(format!("{name} {a} -> {b}"));
                }
            };
            field(
                "residents",
                old.residents.len() as u64,
                new.residents.len() as u64,
            );
            field("parked", old.parked, new.parked);
            field(
                "mailbox",
                old.mailbox_depth + old.special_mailbox_depth,
                new.mailbox_depth + new.special_mailbox_depth,
            );
            field("journal_entries", old.journal_entries, new.journal_entries);
            field("journal_bytes", old.journal_bytes, new.journal_bytes);
            field("leases_held", old.leases_held, new.leases_held);
            field("leases_expired", old.leases_expired, new.leases_expired);
            field(
                "leases_redispatched",
                old.leases_redispatched,
                new.leases_redispatched,
            );
            field("leases_lost", old.leases_lost, new.leases_lost);
            field(
                "locator_stale_hits",
                old.locator_stale_hits,
                new.locator_stale_hits,
            );
            field(
                "pending_transfers",
                old.pending_transfers,
                new.pending_transfers,
            );
            field(
                "outstanding_posts",
                old.outstanding_posts,
                new.outstanding_posts,
            );
            match (&old.repl, &new.repl) {
                (Some(a), Some(b)) => {
                    if a.role != b.role {
                        changes.push(format!("dir role {} -> {}", a.role, b.role));
                    }
                    if a.term != b.term {
                        changes.push(format!("dir term {} -> {}", a.term, b.term));
                    }
                    if a.commit != b.commit {
                        changes.push(format!("dir commit {} -> {}", a.commit, b.commit));
                    }
                    if a.last_index != b.last_index {
                        changes.push(format!("dir log {} -> {}", a.last_index, b.last_index));
                    }
                    if a.leader != b.leader {
                        changes.push(format!(
                            "dir leader {} -> {}",
                            a.leader.as_deref().unwrap_or("?"),
                            b.leader.as_deref().unwrap_or("?")
                        ));
                    }
                    if a.entries != b.entries {
                        changes.push(format!("dir entries {} -> {}", a.entries, b.entries));
                    }
                }
                (None, Some(_)) => changes.push("dir replica came up".into()),
                (Some(_), None) => changes.push("dir replica gone".into()),
                (None, None) => {}
            }
            if !changes.is_empty() {
                lines.push(format!("{host}: {}", changes.join(", ")));
            }
        }
        for host in next.keys() {
            if !prev.contains_key(host) {
                lines.push(format!("{host}: appeared (silent last poll)"));
            }
        }
        lines
    }

    /// Render reports as a fixed-width health table, the live
    /// counterpart of the `figures status` sim view.
    pub fn render_table(reports: &[StatusReport]) -> String {
        let mut out = String::new();
        out.push_str(
            "host        residents  parked  mailbox  journal(entries/bytes)  leases(held/exp/redisp/lost)\n",
        );
        for r in reports {
            out.push_str(&format!(
                "{:<11} {:>9}  {:>6}  {:>7}  {:>11}/{:<10}  {}/{}/{}/{}\n",
                r.host,
                r.residents.len(),
                r.parked,
                r.mailbox_depth + r.special_mailbox_depth,
                r.journal_entries,
                r.journal_bytes,
                r.leases_held,
                r.leases_expired,
                r.leases_redispatched,
                r.leases_lost,
            ));
        }
        out
    }
}

/// The status reports among `pages`, sorted by host (so the same
/// cluster polled twice encodes byte-identically).
pub(crate) fn sorted_reports(pages: impl IntoIterator<Item = OpsPage>) -> Vec<StatusReport> {
    let reports = pages.into_iter().filter_map(|page| match page {
        OpsPage::Status(report) => Some(report),
        _ => None,
    });
    let mut reports: Vec<StatusReport> = reports.collect();
    reports.sort_by(|a, b| a.host.cmp(&b.host));
    reports
}

/// Append `page` to what `merged` holds of the same ring. Returns the
/// sequence the next page starts at and how many entries this one held.
fn join(merged: &mut Option<OpsPage>, page: OpsPage) -> (u64, usize) {
    let (start_seq, got) = match &page {
        OpsPage::Trace(p) => (p.start_seq, p.events.len()),
        OpsPage::MetricsHistory(p) => (p.start_seq, p.samples.len()),
        OpsPage::Status(_) => (0, 0),
    };
    match (merged.as_mut(), page) {
        (Some(OpsPage::Trace(m)), OpsPage::Trace(p)) => {
            (m.next_seq, m.dropped, m.total) = (p.next_seq, p.dropped, p.total);
            m.events.extend(p.events);
        }
        (Some(OpsPage::MetricsHistory(m)), OpsPage::MetricsHistory(p)) => {
            (m.next_seq, m.dropped, m.total) = (p.next_seq, p.dropped, p.total);
            m.samples.extend(p.samples);
        }
        (_, page) => *merged = Some(page),
    }
    (start_seq + got as u64, got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use naplet_server::Daemon;
    use std::net::TcpListener;

    fn free_addrs(n: usize) -> Vec<String> {
        // reserved until the Vec drops, just before the daemons bind
        let held: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        held.iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect()
    }

    fn blank_report(host: &str) -> StatusReport {
        StatusReport {
            host: host.into(),
            ..StatusReport::default()
        }
    }

    #[test]
    fn diff_names_changed_fields_and_missing_hosts() {
        use naplet_server::ReplStatus;
        let mut a1 = blank_report("alpha");
        a1.journal_entries = 3;
        a1.repl = Some(ReplStatus {
            role: "follower".into(),
            term: 2,
            commit: 4,
            last_index: 4,
            leader: Some("beta".into()),
            entries: 1,
        });
        let b1 = blank_report("beta");
        let mut a2 = a1.clone();
        a2.journal_entries = 5;
        a2.parked = 1;
        a2.repl = Some(ReplStatus {
            role: "leader".into(),
            term: 3,
            commit: 9,
            last_index: 9,
            leader: Some("alpha".into()),
            entries: 1,
        });
        // beta answered poll 1 but not poll 2; gamma is new
        let g2 = blank_report("gamma");

        let diffs = ClusterStatusPoller::diff_reports(&[a1, b1], &[a2, g2]);
        let text = diffs.join("\n");
        assert!(text.contains("alpha: "), "{text}");
        assert!(text.contains("journal_entries 3 -> 5"), "{text}");
        assert!(text.contains("parked 0 -> 1"), "{text}");
        assert!(text.contains("dir role follower -> leader"), "{text}");
        assert!(text.contains("dir term 2 -> 3"), "{text}");
        assert!(text.contains("dir leader beta -> alpha"), "{text}");
        assert!(text.contains("beta: lost"), "{text}");
        assert!(text.contains("gamma: appeared"), "{text}");
        // unchanged fields stay silent
        assert!(!text.contains("leases_held"), "{text}");
    }

    #[test]
    fn diff_of_identical_polls_is_empty() {
        let a = blank_report("alpha");
        let diffs =
            ClusterStatusPoller::diff_reports(std::slice::from_ref(&a), std::slice::from_ref(&a));
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn poller_fetches_flight_recorder_segments_from_live_daemons() {
        let addrs = free_addrs(3);
        let config = BootstrapConfig::parse(&format!(
            "[[node]]\nname = \"alpha\"\nlisten = \"{}\"\n\
             [[node]]\nname = \"beta\"\nlisten = \"{}\"\n\
             [[node]]\nname = \"mon\"\nlisten = \"{}\"\n",
            addrs[0], addrs[1], addrs[2]
        ))
        .unwrap();
        let alpha = Daemon::start(&config, "alpha").unwrap();
        let beta = Daemon::start(&config, "beta").unwrap();

        let mut poller = ClusterStatusPoller::connect(&config, "mon").unwrap();
        let targets = vec!["alpha".to_string(), "beta".to_string()];
        // a status poll first, so each daemon's recorder has at least
        // its wire.recv/wire.send pair for the status exchange
        let reports = poller.poll(&targets, Duration::from_secs(10)).unwrap();
        assert_eq!(reports.len(), 2);

        let segments = poller
            .fetch_traces(&targets, Duration::from_secs(10))
            .unwrap();
        let hosts: Vec<&str> = segments.iter().map(|s| s.host.as_str()).collect();
        assert_eq!(hosts, vec!["alpha", "beta"], "both daemons must answer");
        for seg in &segments {
            assert!(
                seg.events.iter().any(|e| e.name == "wire.recv"),
                "{}'s segment must show the status request arriving: {:?}",
                seg.host,
                seg.events.iter().map(|e| &e.name).collect::<Vec<_>>()
            );
            assert!(
                seg.epoch_unix_ms > 0,
                "daemon recorders anchor to UNIX time"
            );
        }

        // the fetched segments merge into one valid Chrome trace with
        // no causality violations (status traffic carries no journey
        // context, so nothing can be flagged)
        let merged = naplet_obs::merge_cluster_trace(&segments, 5_000);
        naplet_obs::validate_chrome_trace(&merged.json).unwrap();
        assert!(merged.violations.is_empty(), "{:?}", merged.violations);
        assert!(merged.event_count > 0);

        for daemon in [alpha, beta] {
            daemon.shutdown().unwrap();
        }
    }

    #[test]
    fn poller_fetches_metrics_history_from_live_daemons() {
        let addrs = free_addrs(2);
        let config = BootstrapConfig::parse(&format!(
            "[[node]]\nname = \"alpha\"\nlisten = \"{}\"\n\
             [[node]]\nname = \"mon\"\nlisten = \"{}\"\n",
            addrs[0], addrs[1]
        ))
        .unwrap();
        let alpha = Daemon::start(&config, "alpha").unwrap();

        let mut poller = ClusterStatusPoller::connect(&config, "mon").unwrap();
        let targets = vec!["alpha".to_string()];
        // a status poll first so the daemon has wire traffic to sample,
        // then read the history until a sweep tick (50 ms apart) has
        // put a sample covering it in the ring; every read is a round
        // trip that blocks on the station's inbox, so this neither
        // spins nor sleeps
        let reports = poller.poll(&targets, Duration::from_secs(10)).unwrap();
        assert_eq!(reports.len(), 1);
        let probes_in = |pages: &[MetricsHistoryPage]| -> u64 {
            pages
                .iter()
                .flat_map(|p| &p.samples)
                .filter_map(|s| s.delta.counters.get("status.probes"))
                .sum()
        };
        let deadline = Instant::now() + Duration::from_secs(15);
        let pages = loop {
            let pages = poller
                .fetch_metrics_history(&targets, Duration::from_secs(10))
                .unwrap();
            if probes_in(&pages) > 0 || Instant::now() > deadline {
                break pages;
            }
        };
        assert_eq!(pages.len(), 1, "alpha must answer the history read");
        let page = &pages[0];
        assert_eq!(page.host, "alpha");
        assert!(
            page.epoch_unix_ms > 0,
            "daemon histories anchor to UNIX time"
        );
        assert!(!page.samples.is_empty(), "sweep thread must have sampled");
        assert!(
            probes_in(&pages) > 0,
            "the status poll must appear in some delta"
        );

        let table = ClusterStatusPoller::render_rate_table(&pages, 10);
        assert!(table.contains("alpha"), "{table}");
        assert!(table.contains("wire.sent"), "{table}");

        alpha.shutdown().unwrap();
    }

    #[test]
    fn poller_collects_reports_from_live_daemons() {
        let addrs = free_addrs(3);
        let config = BootstrapConfig::parse(&format!(
            "[[node]]\nname = \"alpha\"\nlisten = \"{}\"\n\
             [[node]]\nname = \"beta\"\nlisten = \"{}\"\n\
             [[node]]\nname = \"mon\"\nlisten = \"{}\"\n",
            addrs[0], addrs[1], addrs[2]
        ))
        .unwrap();
        let alpha = Daemon::start(&config, "alpha").unwrap();
        let beta = Daemon::start(&config, "beta").unwrap();

        let mut poller = ClusterStatusPoller::connect(&config, "mon").unwrap();
        let targets = vec!["alpha".to_string(), "beta".to_string()];
        let reports = poller.poll(&targets, Duration::from_secs(10)).unwrap();
        let hosts: Vec<&str> = reports.iter().map(|r| r.host.as_str()).collect();
        assert_eq!(hosts, vec!["alpha", "beta"], "both daemons must answer");

        let table = ClusterStatusPoller::render_table(&reports);
        assert!(table.contains("alpha") && table.contains("beta"));

        // an unknown target contributes nothing — the send is a
        // counted drop, not an error, and the poll times out clean
        let none = poller
            .poll(&["ghost".to_string()], Duration::from_millis(200))
            .unwrap();
        assert!(none.is_empty(), "no daemon named ghost can answer");

        for daemon in [alpha, beta] {
            daemon.shutdown().unwrap();
        }
    }
}
