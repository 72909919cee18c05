//! Journey stall watchdog: the live half of the ops plane.
//!
//! The trace taxonomy narrates journeys *after* the fact; the
//! watchdog watches the same event stream *as it happens* and raises
//! typed alerts while a stranded agent can still be recovered. It is
//! fed by [`crate::ObsSink::emit`] — every progress-class event
//! (transfer, landing decision, registration, visit end)
//! refreshes the journey's `last_progress` mark; a configurable
//! deadline without progress raises exactly one
//! [`TraceKind::StalledJourney`] (or [`TraceKind::OrphanSuspected`]
//! when the last event was departure-side, i.e. the agent may be lost
//! between hosts). New progress re-arms the journey for another
//! alert.
//!
//! Retransmissions and handoff failures deliberately do **not** count
//! as progress: they are symptoms of non-progress, and counting them
//! would let a host stuck behind a dead link reset its own deadline
//! forever.
//!
//! The watchdog keeps its own ordered alert list, independent of the
//! tracer, so alerts are queryable even when tracing is off. Alert
//! order is deterministic under the sim driver: checks run at
//! scheduled virtual times and journeys iterate in id order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use naplet_core::clock::Millis;

use crate::trace::{TraceEvent, TraceKind};

/// Watchdog tuning. All thresholds are in the driving runtime's time
/// base: virtual ms under `SimRuntime`, wall-clock ms under
/// `LiveRuntime`.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// A journey with no progress event for this long is stalled.
    pub deadline_ms: u64,
    /// How often the driver should run [`Watchdog::check`].
    pub tick_ms: u64,
    /// Mailbox depth (ordinary + special) at which a server sweep
    /// raises [`TraceKind::MailboxBacklog`].
    pub mailbox_threshold: u64,
    /// Un-retired journal entries at which a server sweep raises
    /// [`TraceKind::JournalLagHigh`].
    pub journal_threshold: u64,
    /// Ask the driver to fire the home server's lease check early
    /// when a journey stalls, instead of waiting out the full lease.
    pub early_redispatch: bool,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            deadline_ms: 60_000,
            tick_ms: 50,
            mailbox_threshold: 64,
            journal_threshold: 64,
            early_redispatch: false,
        }
    }
}

/// One newly stalled journey, as [`Watchdog::check`] reports it to
/// the driving runtime (which may trigger recovery and forwards the
/// embedded event to the tracer).
#[derive(Debug, Clone, PartialEq)]
pub struct StallAlert {
    /// The stalled journey's naplet id (rendered).
    pub naplet: String,
    /// The journey's home host (first host it was observed at).
    pub home: String,
    /// Last host a progress event was observed at.
    pub last_host: String,
    /// Was the last progress event departure-side (agent possibly
    /// lost between hosts)?
    pub orphan: bool,
    /// The alert as a trace event, ready for the tracer/exporters.
    pub event: TraceEvent,
}

#[derive(Debug, Clone)]
struct JourneyProgress {
    home: String,
    last_host: String,
    last_at: Millis,
    /// Last progress event was departure-side (transfer in flight).
    departing: bool,
    /// Alerted for the current stall; progress re-arms.
    alerted: bool,
}

#[derive(Default)]
struct WatchdogState {
    config: WatchdogConfig,
    journeys: BTreeMap<String, JourneyProgress>,
    /// Every alert raised, in raise order (deterministic under sim).
    alerts: Vec<TraceEvent>,
    /// Server-level alerts already raised, deduped per (host, kind
    /// name) so recurring sweeps alert once per condition.
    server_alerted: BTreeMap<(String, &'static str), ()>,
}

/// Clone-shared journey watchdog. Disabled by default: when off,
/// [`crate::ObsSink::emit`] never consults it and instrumented paths
/// pay one atomic load.
#[derive(Clone, Default)]
pub struct Watchdog {
    enabled: Arc<AtomicBool>,
    state: Arc<Mutex<WatchdogState>>,
}

impl Watchdog {
    /// A fresh, disabled watchdog.
    pub fn new() -> Watchdog {
        Watchdog::default()
    }

    /// Is the watchdog observing?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Arm the watchdog with `config` (idempotent; replaces tuning).
    pub fn enable(&self, config: WatchdogConfig) {
        self.state.lock().config = config;
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Current tuning.
    pub fn config(&self) -> WatchdogConfig {
        self.state.lock().config.clone()
    }

    /// Feed one observed event through the progress tracker. Called
    /// by [`crate::ObsSink::emit`] when enabled; host-level events
    /// (no naplet id) and non-progress kinds are ignored.
    pub fn observe(&self, at: Millis, host: &str, naplet: Option<&str>, kind: &TraceKind) {
        let Some(id) = naplet else { return };
        let (progress, departing) = match kind {
            TraceKind::TransferSent { .. } => (true, true),
            TraceKind::LandingDecision { .. }
            | TraceKind::TransferReceived { .. }
            | TraceKind::HandoffCommit { .. }
            | TraceKind::RegisterGated { .. }
            | TraceKind::RegisterAcked { .. }
            | TraceKind::VisitEnd { .. }
            | TraceKind::RecoveryReplayed { .. } => (true, false),
            TraceKind::JourneyDone { .. } | TraceKind::Parked { .. } => {
                self.state.lock().journeys.remove(id);
                return;
            }
            TraceKind::LeaseExpired { redispatched } => {
                if *redispatched {
                    (true, false)
                } else {
                    // declared lost: nothing left to watch
                    self.state.lock().journeys.remove(id);
                    return;
                }
            }
            // retransmits / failures are symptoms of non-progress
            _ => return,
        };
        debug_assert!(progress);
        let mut state = self.state.lock();
        let entry = state
            .journeys
            .entry(id.to_string())
            .or_insert_with(|| JourneyProgress {
                home: host.to_string(),
                last_host: host.to_string(),
                last_at: at,
                departing,
                alerted: false,
            });
        entry.last_host = host.to_string();
        entry.last_at = at;
        entry.departing = departing;
        entry.alerted = false; // progress re-arms the alert
    }

    /// Deadline sweep: raise one alert per newly stalled journey and
    /// return them for the driver to act on (early re-dispatch,
    /// tracer forwarding). Journeys iterate in id order, so the alert
    /// list is deterministic under a deterministic driver.
    pub fn check(&self, now: Millis) -> Vec<StallAlert> {
        let mut state = self.state.lock();
        let deadline = state.config.deadline_ms;
        let mut raised = Vec::new();
        for (id, j) in state.journeys.iter_mut() {
            let idle = now.since(j.last_at);
            if j.alerted || idle <= deadline {
                continue;
            }
            j.alerted = true;
            let kind = if j.departing {
                TraceKind::OrphanSuspected {
                    last_host: j.last_host.clone(),
                    idle_ms: idle,
                }
            } else {
                TraceKind::StalledJourney {
                    last_host: j.last_host.clone(),
                    idle_ms: idle,
                    deadline_ms: deadline,
                }
            };
            raised.push(StallAlert {
                naplet: id.clone(),
                home: j.home.clone(),
                last_host: j.last_host.clone(),
                orphan: j.departing,
                event: TraceEvent {
                    at: now,
                    host: j.last_host.clone(),
                    naplet: Some(id.clone()),
                    ctx: None,
                    kind,
                },
            });
        }
        state.alerts.extend(raised.iter().map(|a| a.event.clone()));
        raised
    }

    /// Raise a server-level alert (mailbox backlog, journal lag) from
    /// a status sweep. Dedupes per (host, kind): a condition alerts
    /// once, however many sweeps re-observe it. Returns the recorded
    /// event when newly raised.
    pub fn raise_server_alert(
        &self,
        at: Millis,
        host: &str,
        kind: TraceKind,
    ) -> Option<TraceEvent> {
        debug_assert!(kind.is_alert());
        let mut state = self.state.lock();
        let key = (host.to_string(), kind.name());
        if state.server_alerted.contains_key(&key) {
            return None;
        }
        state.server_alerted.insert(key, ());
        let event = TraceEvent {
            at,
            host: host.to_string(),
            naplet: None,
            ctx: None,
            kind,
        };
        state.alerts.push(event.clone());
        Some(event)
    }

    /// Does any tracked journey still await its first alert? Drivers
    /// keep the deadline tick scheduled exactly while this holds, so
    /// a quiescence-driven sim still drains.
    pub fn wants_tick(&self) -> bool {
        self.state.lock().journeys.values().any(|j| !j.alerted)
    }

    /// Number of journeys currently tracked.
    pub fn tracked(&self) -> usize {
        self.state.lock().journeys.len()
    }

    /// Every alert raised so far, in raise order.
    pub fn alerts(&self) -> Vec<TraceEvent> {
        self.state.lock().alerts.clone()
    }

    /// Drop all tracked state and alerts (tuning survives).
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.journeys.clear();
        state.alerts.clear();
        state.server_alerted.clear();
    }
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Watchdog")
            .field("enabled", &self.enabled())
            .field("journeys", &state.journeys.len())
            .field("alerts", &state.alerts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wd(deadline_ms: u64) -> Watchdog {
        let w = Watchdog::new();
        w.enable(WatchdogConfig {
            deadline_ms,
            ..WatchdogConfig::default()
        });
        w
    }

    fn visit_end(at: u64) -> TraceKind {
        TraceKind::VisitEnd {
            started: Millis(at),
            epoch: 1,
            gas: 0,
            msg_bytes: 0,
        }
    }

    #[test]
    fn progress_within_the_deadline_never_alerts() {
        let w = wd(100);
        for t in (0..500).step_by(50) {
            w.observe(Millis(t), "s1", Some("n1"), &visit_end(t));
            assert!(w.check(Millis(t + 60)).is_empty());
        }
        assert!(w.alerts().is_empty());
    }

    #[test]
    fn a_silent_journey_alerts_exactly_once_until_rearmed() {
        let w = wd(100);
        w.observe(Millis(10), "s1", Some("n1"), &visit_end(10));
        let first = w.check(Millis(200));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].last_host, "s1");
        assert!(!first[0].orphan);
        assert!(matches!(
            first[0].event.kind,
            TraceKind::StalledJourney { .. }
        ));
        // no re-alert while still stalled
        assert!(w.check(Millis(400)).is_empty());
        // progress re-arms; a second stall alerts again
        w.observe(Millis(500), "s2", Some("n1"), &visit_end(500));
        assert!(w.check(Millis(550)).is_empty());
        let second = w.check(Millis(700));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].last_host, "s2");
        assert_eq!(w.alerts().len(), 2);
    }

    #[test]
    fn departure_side_stalls_suspect_an_orphan() {
        let w = wd(100);
        w.observe(
            Millis(5),
            "s0",
            Some("n1"),
            &TraceKind::TransferSent {
                dest: "s1".into(),
                transfer_id: 1,
            },
        );
        let alerts = w.check(Millis(200));
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].orphan);
        assert!(matches!(
            alerts[0].event.kind,
            TraceKind::OrphanSuspected { .. }
        ));
    }

    #[test]
    fn retransmits_do_not_reset_the_deadline() {
        let w = wd(100);
        w.observe(
            Millis(5),
            "s0",
            Some("n1"),
            &TraceKind::TransferSent {
                dest: "s1".into(),
                transfer_id: 1,
            },
        );
        // the origin keeps retrying a dead link: symptoms, not progress
        for t in [60u64, 120, 180] {
            w.observe(
                Millis(t),
                "s0",
                Some("n1"),
                &TraceKind::Retransmit {
                    dest: "s1".into(),
                    transfer_id: 1,
                    attempt: 2,
                    phase: "transfer".into(),
                },
            );
        }
        assert_eq!(w.check(Millis(200)).len(), 1, "stall must still surface");
    }

    #[test]
    fn done_and_parked_journeys_leave_the_tracker() {
        let w = wd(100);
        w.observe(Millis(1), "s1", Some("n1"), &visit_end(1));
        w.observe(Millis(2), "s1", Some("n2"), &visit_end(2));
        w.observe(
            Millis(3),
            "s1",
            Some("n1"),
            &TraceKind::JourneyDone {
                status: "completed".into(),
            },
        );
        w.observe(
            Millis(4),
            "s1",
            Some("n2"),
            &TraceKind::Parked {
                dest: "s2".into(),
                attempts: 3,
            },
        );
        assert_eq!(w.tracked(), 0);
        assert!(w.check(Millis(1_000)).is_empty());
        assert!(!w.wants_tick());
    }

    #[test]
    fn home_is_the_first_observed_host() {
        let w = wd(100);
        w.observe(
            Millis(1),
            "home",
            Some("n1"),
            &TraceKind::TransferSent {
                dest: "s1".into(),
                transfer_id: 1,
            },
        );
        w.observe(Millis(5), "s1", Some("n1"), &visit_end(5));
        let alerts = w.check(Millis(200));
        assert_eq!(alerts[0].home, "home");
        assert_eq!(alerts[0].last_host, "s1");
    }

    #[test]
    fn server_alerts_dedupe_per_host_and_kind() {
        let w = wd(100);
        let kind = TraceKind::MailboxBacklog {
            depth: 40,
            threshold: 32,
        };
        assert!(w
            .raise_server_alert(Millis(1), "s1", kind.clone())
            .is_some());
        assert!(w
            .raise_server_alert(Millis(2), "s1", kind.clone())
            .is_none());
        assert!(w.raise_server_alert(Millis(3), "s2", kind).is_some());
        assert_eq!(w.alerts().len(), 2);
    }

    #[test]
    fn wants_tick_tracks_unalerted_journeys_only() {
        let w = wd(100);
        assert!(!w.wants_tick());
        w.observe(Millis(1), "s1", Some("n1"), &visit_end(1));
        assert!(w.wants_tick());
        let _ = w.check(Millis(500));
        assert!(!w.wants_tick(), "alerted journeys stop demanding ticks");
        w.observe(Millis(600), "s2", Some("n1"), &visit_end(600));
        assert!(w.wants_tick(), "progress re-arms the tick demand");
    }
}
