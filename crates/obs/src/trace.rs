//! The typed trace-event stream.
//!
//! Every temporally interesting action in a naplet space — handoff
//! phases, retransmissions, journal writes, crashes, recovery replays
//! — is recorded as one [`TraceEvent`]. Causal correlation comes from
//! the event's `naplet` field (the agent id is the trace id of its
//! journey) and from the protocol keys carried by the kinds
//! (`transfer_id` pairs a `TransferReceived` at the destination with
//! the `HandoffCommit` at the origin).
//!
//! Recording is deterministic by construction: the discrete-event
//! driver processes events in a total order, servers emit synchronously
//! from their handlers, and nothing here reads a wall clock. Two
//! identical `SimRuntime` runs therefore produce identical event
//! vectors — and byte-identical exports.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use naplet_core::clock::Millis;
use naplet_core::tracectx::TraceCtx;

/// What happened (the event taxonomy). Span-like kinds carry the
/// instant the span opened; everything else is instantaneous.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Driver put a wire value on a link.
    WireSend {
        /// Destination host.
        to: String,
        /// Wire-variant label.
        label: String,
        /// Traffic-class label.
        class: String,
        /// Frame bytes (payload + framing).
        bytes: u64,
        /// 1-based send attempt.
        attempt: u32,
    },
    /// Driver delivered a wire value to a host.
    WireRecv {
        /// Sending host.
        from: String,
        /// Wire-variant label.
        label: String,
    },
    /// Driver dropped a frame (loss, outage, dead NIC).
    WireDrop {
        /// Intended destination.
        to: String,
        /// Wire-variant label.
        label: String,
    },
    /// Process crash injected at this host (volatile state wiped).
    Crash,
    /// Destination navigator decided the LANDING of a Transfer.
    LandingDecision {
        /// Sending host.
        origin: String,
        /// Admitted?
        granted: bool,
        /// Denial reason (empty on grant).
        reason: String,
    },
    /// The agent transfer left the origin, opening a handoff.
    TransferSent {
        /// Destination host.
        dest: String,
        /// Transfer id.
        transfer_id: u64,
    },
    /// A Transfer frame reached the destination.
    TransferReceived {
        /// Origin host.
        origin: String,
        /// Transfer id.
        transfer_id: u64,
        /// Already admitted (retransmission re-acked, not re-admitted)?
        duplicate: bool,
    },
    /// The TransferAck committed the handoff at the origin. Span:
    /// covers the whole acknowledged handoff from its first Transfer.
    HandoffCommit {
        /// Destination host.
        dest: String,
        /// Transfer id.
        transfer_id: u64,
        /// When the handoff opened (first Transfer sent).
        started: Millis,
        /// Attempts the current phase took.
        attempts: u32,
    },
    /// An acknowledgement timer expired with retries left: the Transfer
    /// was re-sent. `attempt` is the new (≥ 2) attempt.
    Retransmit {
        /// Destination host.
        dest: String,
        /// Transfer id.
        transfer_id: u64,
        /// New 1-based attempt number (always ≥ 2).
        attempt: u32,
        /// Which phase retried (`transfer`).
        phase: String,
    },
    /// Retry budget exhausted; the itinerary rewinds and re-decides.
    HandoffFailed {
        /// Unreachable destination.
        dest: String,
        /// Transfer id.
        transfer_id: u64,
        /// Attempts performed.
        attempts: u32,
        /// Failure reason.
        reason: String,
    },
    /// No fallback for a failed migration: the agent parked here.
    Parked {
        /// The unreachable destination.
        dest: String,
        /// Attempts performed.
        attempts: u32,
    },
    /// Arrival registered; execution gated until the directory acks.
    RegisterGated {
        /// Directory holder being waited on.
        holder: String,
    },
    /// The registration gate opened (DirAck, or forced after the retry
    /// budget). Span: covers the wait since arrival.
    RegisterAcked {
        /// When the gate closed (arrival admitted).
        started: Millis,
        /// Gate forced open after unacked retries?
        forced: bool,
    },
    /// A visit ended (departure recorded). Span: covers the dwell.
    VisitEnd {
        /// Arrival instant at this host.
        started: Millis,
        /// Navigation-log visit epoch of the finished visit.
        epoch: u64,
        /// CPU gas the visit consumed.
        gas: u64,
        /// Message bytes the visit posted.
        msg_bytes: u64,
    },
    /// The journey ended at this server.
    JourneyDone {
        /// Terminal status label.
        status: String,
    },
    /// The post office forwarded a chasing message one hop.
    ForwardHop {
        /// Next hop.
        to: String,
        /// Message sequence number.
        seq: u64,
        /// Forwarding hops performed so far.
        hops: u32,
    },
    /// A post-office redelivery timer re-routed an unconfirmed message.
    PostRedeliver {
        /// Message sequence number.
        seq: u64,
        /// New 1-based attempt number (always ≥ 2).
        attempt: u32,
    },
    /// A snapshot was appended to the write-ahead journal.
    JournalAppend {
        /// Journal phase label (`in-flight`, `resident`, `parked`).
        phase: String,
        /// Journal records after the append.
        records: u64,
    },
    /// A journal record was retired (handoff committed / journey done).
    JournalRetire {
        /// Journal records after the retire.
        records: u64,
    },
    /// Recovery replayed one journaled naplet.
    RecoveryReplayed {
        /// What the journal showed (`parked`, `resident-applied`,
        /// `resident-rerun`, `in-flight`).
        phase: String,
    },
    /// Recovery replay finished at a restarted server.
    RecoveryDone {
        /// Naplets rehydrated from the journal.
        rehydrated: u64,
        /// Visit replays suppressed by the epoch ratchet.
        suppressed: u64,
        /// In-flight handoffs re-driven.
        resumed: u64,
    },
    /// A home-side lease expired without a sign of life.
    LeaseExpired {
        /// Was the orphan re-dispatched from its creation record?
        redispatched: bool,
    },
    /// Watchdog alert: a journey emitted no progress event within its
    /// deadline. The host field of the event is the journey's
    /// last-known location.
    StalledJourney {
        /// Last host a progress event was observed at.
        last_host: String,
        /// Time since the last progress event, ms.
        idle_ms: u64,
        /// The configured progress deadline, ms.
        deadline_ms: u64,
    },
    /// Watchdog alert: a journey stalled while its last progress event
    /// was departure-side (transfer in flight), so
    /// the agent may be orphaned between hosts.
    OrphanSuspected {
        /// Host the agent was last seen departing from.
        last_host: String,
        /// Time since the last progress event, ms.
        idle_ms: u64,
    },
    /// Watchdog alert: a server's mailbox depth crossed the
    /// configured backlog threshold.
    MailboxBacklog {
        /// Observed mailbox depth (ordinary + special).
        depth: u64,
        /// The configured threshold.
        threshold: u64,
    },
    /// Watchdog alert: a server's write-ahead journal held too many
    /// un-retired entries at sweep time.
    JournalLagHigh {
        /// Un-retired journal entries.
        entries: u64,
        /// Bytes held by those entries.
        bytes: u64,
        /// The configured entry threshold.
        threshold: u64,
    },
    /// A directory replica started an election campaign.
    ReplElection {
        /// The campaign term.
        term: u64,
    },
    /// A directory replica learned (or became) the leader of a term.
    ReplLeader {
        /// The term.
        term: u64,
        /// The leader's host name.
        leader: String,
    },
    /// A replicated directory operation committed (majority ack).
    ReplCommit {
        /// The committed log index.
        index: u64,
        /// Short label of the operation (`register`, `remove`, `noop`).
        op: String,
    },
    /// A rejoining replica installed a full state snapshot.
    ReplSnapshot {
        /// Last log index the snapshot covers.
        index: u64,
    },
}

impl TraceKind {
    /// Stable display name (Chrome trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::WireSend { .. } => "wire.send",
            TraceKind::WireRecv { .. } => "wire.recv",
            TraceKind::WireDrop { .. } => "wire.drop",
            TraceKind::Crash => "crash",
            TraceKind::LandingDecision { .. } => "landing.decision",
            TraceKind::TransferSent { .. } => "transfer.sent",
            TraceKind::TransferReceived { .. } => "transfer.recv",
            TraceKind::HandoffCommit { .. } => "handoff.commit",
            TraceKind::Retransmit { .. } => "handoff.retransmit",
            TraceKind::HandoffFailed { .. } => "handoff.failed",
            TraceKind::Parked { .. } => "handoff.parked",
            TraceKind::RegisterGated { .. } => "register.gated",
            TraceKind::RegisterAcked { .. } => "register.acked",
            TraceKind::VisitEnd { .. } => "visit",
            TraceKind::JourneyDone { .. } => "journey.done",
            TraceKind::ForwardHop { .. } => "post.forward",
            TraceKind::PostRedeliver { .. } => "post.redeliver",
            TraceKind::JournalAppend { .. } => "journal.append",
            TraceKind::JournalRetire { .. } => "journal.retire",
            TraceKind::RecoveryReplayed { .. } => "recovery.replay",
            TraceKind::RecoveryDone { .. } => "recovery.done",
            TraceKind::LeaseExpired { .. } => "lease.expired",
            TraceKind::StalledJourney { .. } => "alert.stalled",
            TraceKind::OrphanSuspected { .. } => "alert.orphan",
            TraceKind::MailboxBacklog { .. } => "alert.mailbox",
            TraceKind::JournalLagHigh { .. } => "alert.journal",
            TraceKind::ReplElection { .. } => "repl.election",
            TraceKind::ReplLeader { .. } => "repl.leader",
            TraceKind::ReplCommit { .. } => "repl.commit",
            TraceKind::ReplSnapshot { .. } => "repl.snapshot",
        }
    }

    /// Is this kind a watchdog alert? Alerts are operational signals
    /// (something needs attention *now*), distinct from the journey
    /// narration the rest of the taxonomy records.
    pub fn is_alert(&self) -> bool {
        matches!(
            self,
            TraceKind::StalledJourney { .. }
                | TraceKind::OrphanSuspected { .. }
                | TraceKind::MailboxBacklog { .. }
                | TraceKind::JournalLagHigh { .. }
        )
    }

    /// For span-like kinds, the instant the span opened. Exporters
    /// render these as complete (`"X"`) events with a duration.
    pub fn span_start(&self) -> Option<Millis> {
        match self {
            TraceKind::HandoffCommit { started, .. }
            | TraceKind::RegisterAcked { started, .. }
            | TraceKind::VisitEnd { started, .. } => Some(*started),
            _ => None,
        }
    }

    /// Flat `(key, value)` argument view for exporters; keys are stable
    /// and values pre-rendered so export needs no per-kind logic.
    pub fn args(&self) -> Vec<(&'static str, ArgValue)> {
        use ArgValue::{Bool, Int, Str};
        match self {
            TraceKind::WireSend {
                to,
                label,
                class,
                bytes,
                attempt,
            } => vec![
                ("to", Str(to.clone())),
                ("label", Str(label.clone())),
                ("class", Str(class.clone())),
                ("bytes", Int(*bytes)),
                ("attempt", Int(u64::from(*attempt))),
            ],
            TraceKind::WireRecv { from, label } => {
                vec![("from", Str(from.clone())), ("label", Str(label.clone()))]
            }
            TraceKind::WireDrop { to, label } => {
                vec![("to", Str(to.clone())), ("label", Str(label.clone()))]
            }
            TraceKind::Crash => Vec::new(),
            TraceKind::LandingDecision {
                origin,
                granted,
                reason,
            } => vec![
                ("origin", Str(origin.clone())),
                ("granted", Bool(*granted)),
                ("reason", Str(reason.clone())),
            ],
            TraceKind::TransferSent { dest, transfer_id } => vec![
                ("dest", Str(dest.clone())),
                ("transfer_id", Int(*transfer_id)),
            ],
            TraceKind::TransferReceived {
                origin,
                transfer_id,
                duplicate,
            } => vec![
                ("origin", Str(origin.clone())),
                ("transfer_id", Int(*transfer_id)),
                ("duplicate", Bool(*duplicate)),
            ],
            TraceKind::HandoffCommit {
                dest,
                transfer_id,
                attempts,
                ..
            } => vec![
                ("dest", Str(dest.clone())),
                ("transfer_id", Int(*transfer_id)),
                ("attempts", Int(u64::from(*attempts))),
            ],
            TraceKind::Retransmit {
                dest,
                transfer_id,
                attempt,
                phase,
            } => vec![
                ("dest", Str(dest.clone())),
                ("transfer_id", Int(*transfer_id)),
                ("attempt", Int(u64::from(*attempt))),
                ("phase", Str(phase.clone())),
            ],
            TraceKind::HandoffFailed {
                dest,
                transfer_id,
                attempts,
                reason,
            } => vec![
                ("dest", Str(dest.clone())),
                ("transfer_id", Int(*transfer_id)),
                ("attempts", Int(u64::from(*attempts))),
                ("reason", Str(reason.clone())),
            ],
            TraceKind::Parked { dest, attempts } => vec![
                ("dest", Str(dest.clone())),
                ("attempts", Int(u64::from(*attempts))),
            ],
            TraceKind::RegisterGated { holder } => vec![("holder", Str(holder.clone()))],
            TraceKind::RegisterAcked { forced, .. } => vec![("forced", Bool(*forced))],
            TraceKind::VisitEnd {
                epoch,
                gas,
                msg_bytes,
                ..
            } => vec![
                ("epoch", Int(*epoch)),
                ("gas", Int(*gas)),
                ("msg_bytes", Int(*msg_bytes)),
            ],
            TraceKind::JourneyDone { status } => vec![("status", Str(status.clone()))],
            TraceKind::ForwardHop { to, seq, hops } => vec![
                ("to", Str(to.clone())),
                ("seq", Int(*seq)),
                ("hops", Int(u64::from(*hops))),
            ],
            TraceKind::PostRedeliver { seq, attempt } => {
                vec![("seq", Int(*seq)), ("attempt", Int(u64::from(*attempt)))]
            }
            TraceKind::JournalAppend { phase, records } => {
                vec![("phase", Str(phase.clone())), ("records", Int(*records))]
            }
            TraceKind::JournalRetire { records } => vec![("records", Int(*records))],
            TraceKind::RecoveryReplayed { phase } => vec![("phase", Str(phase.clone()))],
            TraceKind::RecoveryDone {
                rehydrated,
                suppressed,
                resumed,
            } => vec![
                ("rehydrated", Int(*rehydrated)),
                ("suppressed", Int(*suppressed)),
                ("resumed", Int(*resumed)),
            ],
            TraceKind::LeaseExpired { redispatched } => {
                vec![("redispatched", Bool(*redispatched))]
            }
            TraceKind::StalledJourney {
                last_host,
                idle_ms,
                deadline_ms,
            } => vec![
                ("last_host", Str(last_host.clone())),
                ("idle_ms", Int(*idle_ms)),
                ("deadline_ms", Int(*deadline_ms)),
            ],
            TraceKind::OrphanSuspected { last_host, idle_ms } => vec![
                ("last_host", Str(last_host.clone())),
                ("idle_ms", Int(*idle_ms)),
            ],
            TraceKind::MailboxBacklog { depth, threshold } => {
                vec![("depth", Int(*depth)), ("threshold", Int(*threshold))]
            }
            TraceKind::JournalLagHigh {
                entries,
                bytes,
                threshold,
            } => vec![
                ("entries", Int(*entries)),
                ("bytes", Int(*bytes)),
                ("threshold", Int(*threshold)),
            ],
            TraceKind::ReplElection { term } => vec![("term", Int(*term))],
            TraceKind::ReplLeader { term, leader } => {
                vec![("term", Int(*term)), ("leader", Str(leader.clone()))]
            }
            TraceKind::ReplCommit { index, op } => {
                vec![("index", Int(*index)), ("op", Str(op.clone()))]
            }
            TraceKind::ReplSnapshot { index } => vec![("index", Int(*index))],
        }
    }
}

/// A pre-rendered argument value for exporters.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// String argument.
    Str(String),
    /// Unsigned integer argument.
    Int(u64),
    /// Boolean argument.
    Bool(bool),
}

/// One recorded observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time of the event (for spans: the closing instant).
    pub at: Millis,
    /// Host the event happened at.
    pub host: String,
    /// The agent the event concerns (its id string doubles as the
    /// journey's trace id); `None` for host-level events.
    pub naplet: Option<String>,
    /// Wire-propagated causal context, present on wire-level events of
    /// a context-carrying journey. `(journey, seq, sending host)`
    /// pairs a `wire.recv` at one node with the `wire.send` at another
    /// when traces from different daemons are merged.
    pub ctx: Option<TraceCtx>,
    /// What happened.
    pub kind: TraceKind,
}

#[derive(Default)]
struct TracerInner {
    enabled: AtomicBool,
    events: Mutex<Vec<TraceEvent>>,
}

/// Clone-shared recorder of [`TraceEvent`]s. Disabled by default:
/// when off, [`Tracer::emit`] never evaluates the event constructor,
/// so production/bench paths pay one atomic load per call site.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Record one event; `make` runs only when recording is on.
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if self.enabled() {
            self.inner.events.lock().push(make());
        }
    }

    /// Record an already-built event (no-op while disabled). Callers
    /// that share one constructed event between consumers (tracer +
    /// flight recorder) use this instead of [`Tracer::emit`].
    pub fn push(&self, event: TraceEvent) {
        if self.enabled() {
            self.inner.events.lock().push(event);
        }
    }

    /// Copy of every recorded event, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every recorded event.
    pub fn clear(&self) {
        self.inner.events.lock().clear();
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("events", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Millis(at),
            host: "h".into(),
            naplet: None,
            ctx: None,
            kind,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_construction() {
        let t = Tracer::new();
        let mut built = false;
        t.emit(|| {
            built = true;
            ev(1, TraceKind::Crash)
        });
        assert!(!built, "constructor must not run while disabled");
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_tracer_records_in_order_and_shares_across_clones() {
        let t = Tracer::new();
        t.set_enabled(true);
        let t2 = t.clone();
        t.emit(|| ev(1, TraceKind::Crash));
        t2.emit(|| {
            ev(
                2,
                TraceKind::JourneyDone {
                    status: "completed".into(),
                },
            )
        });
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, Millis(1));
        assert_eq!(events[1].at, Millis(2));
        t.clear();
        assert!(t2.is_empty());
    }

    #[test]
    fn span_kinds_expose_their_start() {
        let k = TraceKind::VisitEnd {
            started: Millis(7),
            epoch: 1,
            gas: 10,
            msg_bytes: 0,
        };
        assert_eq!(k.span_start(), Some(Millis(7)));
        assert_eq!(TraceKind::Crash.span_start(), None);
    }

    #[test]
    fn names_are_unique() {
        let kinds = [
            TraceKind::Crash,
            TraceKind::JourneyDone { status: "x".into() },
            TraceKind::JournalRetire { records: 0 },
            TraceKind::LeaseExpired {
                redispatched: false,
            },
            TraceKind::StalledJourney {
                last_host: "h".into(),
                idle_ms: 1,
                deadline_ms: 1,
            },
            TraceKind::OrphanSuspected {
                last_host: "h".into(),
                idle_ms: 1,
            },
            TraceKind::MailboxBacklog {
                depth: 1,
                threshold: 1,
            },
            TraceKind::JournalLagHigh {
                entries: 1,
                bytes: 1,
                threshold: 1,
            },
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn alert_kinds_are_instant_and_flagged() {
        let alerts = [
            TraceKind::StalledJourney {
                last_host: "s1".into(),
                idle_ms: 250,
                deadline_ms: 200,
            },
            TraceKind::OrphanSuspected {
                last_host: "s1".into(),
                idle_ms: 250,
            },
            TraceKind::MailboxBacklog {
                depth: 40,
                threshold: 32,
            },
            TraceKind::JournalLagHigh {
                entries: 70,
                bytes: 9_000,
                threshold: 64,
            },
        ];
        for kind in alerts {
            assert!(kind.is_alert(), "{} must be an alert", kind.name());
            assert!(kind.span_start().is_none(), "alerts are instants");
            assert!(kind.name().starts_with("alert."));
        }
        assert!(!TraceKind::Crash.is_alert());
    }

    #[test]
    fn event_codec_round_trip() {
        let mut e = ev(
            9,
            TraceKind::HandoffCommit {
                dest: "s1".into(),
                transfer_id: 3,
                started: Millis(2),
                attempts: 2,
            },
        );
        e.ctx = Some(TraceCtx {
            journey: "naplet://u@h/1".into(),
            origin: "h".into(),
            hop: 2,
            seq: 11,
        });
        let bytes = naplet_core::codec::to_bytes(&e).unwrap();
        let back: TraceEvent = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, e);
    }
}
