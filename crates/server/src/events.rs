//! Wire protocol and server I/O types.
//!
//! Servers are written as deterministic event handlers:
//! `handle(now, Input) -> Vec<Output>`. One driver step
//! ([`crate::node::Host`]) turns `Output`s into wires on a link and
//! armed timers, in virtual time and on the wall clock alike. Inside a
//! server, every component emits into one [`Outbox`] — the only place,
//! outside that step, that an `Output` is built. Everything that
//! crosses a link is a [`Wire`] value, codec-encoded into a
//! `naplet_net::Frame` (or, in the sim, metered at that size), so byte
//! counts are exact.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_core::itinerary::ActionSpec;
use naplet_core::message::{Mailbox, Message};
use naplet_core::naplet::SharedNaplet;
use naplet_core::value::Value;
use naplet_net::TrafficClass;
use naplet_obs::{ObsSink, TraceKind};

use crate::directory::DirEvent;
use crate::manager::NapletStatus;

/// A naplet in flight plus the post-action of the visit it is heading
/// into (the `T` of `<S;T>` decided at the previous host).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferEnvelope {
    /// The agent, held as a [`SharedNaplet`]: the origin's journal
    /// records, its retained retransmission copy, the frame on the wire
    /// and the destination's admission record are all copies of the one
    /// image encoded when the migration began — encoding the envelope
    /// splices it, decoding one keeps the frame's span as the new
    /// handle's image. The format on the wire is identical to a plain
    /// `Naplet`.
    pub naplet: SharedNaplet,
    /// Post-action for the upcoming visit.
    pub action: Option<ActionSpec>,
    /// Origin-scoped transfer id correlating `Transfer` with its
    /// `TransferAck`; the receiver deduplicates on
    /// `(origin, transfer_id)` so retransmissions never duplicate a
    /// running naplet. `0` marks a same-host continuation that never
    /// crosses the wire (no acknowledgement protocol).
    pub transfer_id: u64,
    /// 1-based send attempt; attempts ≥ 2 are retransmissions (metered
    /// in `NetStats::retransmits`).
    pub attempt: u32,
}

/// Everything that crosses the wire between naplet servers.
///
/// `Transfer` dwarfs the control variants by design — it carries the
/// whole agent. Wires are transient (encoded immediately), so the
/// size skew is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Wire {
    /// The agent transfer itself (traffic class `Migration`), and the
    /// request to land: the destination decides its LANDING on it
    /// (paper §2.2) and answers with a [`Wire::TransferAck`].
    Transfer(TransferEnvelope),
    /// Register a movement event with a directory holder (central
    /// directory host, or the naplet's home manager).
    DirRegister {
        /// Moving naplet.
        id: NapletId,
        /// Host the event happened at.
        host: String,
        /// Arrival or departure.
        event: DirEvent,
        /// When set, the registrar requests an acknowledgement sent to
        /// this host — arrivals postpone execution until acked (§4.1).
        ack_to: Option<String>,
        /// 1-based send attempt; acked registrations are retransmitted
        /// on timeout like the rest of the reliable-transfer protocol.
        attempt: u32,
    },
    /// Directory acknowledgement of an arrival registration.
    DirAck {
        /// The naplet whose arrival is now registered.
        id: NapletId,
    },
    /// Remove a naplet from the directory (journey ended).
    DirRemove {
        /// The finished naplet.
        id: NapletId,
    },
    /// Location query (Messenger → directory holder).
    DirQuery {
        /// Correlation token.
        token: u64,
        /// Naplet being located.
        id: NapletId,
        /// Where to send the reply.
        reply_to: String,
    },
    /// Location reply.
    DirReply {
        /// Echoed token.
        token: u64,
        /// The naplet.
        id: NapletId,
        /// Latest known (host, event, registered-at), or None when
        /// unknown. The timestamp lets a home server judge recency —
        /// lease probes after a directory failover renew instead of
        /// re-dispatching when the last registration is fresh.
        entry: Option<(String, DirEvent, Millis)>,
    },
    /// Post-office delivery attempt: the message heading to the server
    /// believed to host the target (§4.2).
    Post {
        /// The routed message.
        msg: Message,
        /// Server where the message was originally posted (receives
        /// the confirmation).
        origin_host: String,
    },
    /// Delivery confirmation back to the origin messenger.
    PostConfirm {
        /// Message identity: original sender…
        sender: naplet_core::message::Sender,
        /// …and sequence number.
        seq: u64,
        /// The naplet the message reached.
        target: NapletId,
        /// Server that delivered it (refreshes location caches,
        /// paper §4.1: caches are "updated … by remote residing
        /// naplet servers in systems with message forwarding").
        delivered_at: String,
    },
    /// A naplet reporting to its owner's listener at home.
    Report {
        /// Reporting naplet.
        id: NapletId,
        /// Report body.
        body: Value,
    },
    /// Home notification of a life-cycle end.
    Notify {
        /// The naplet.
        id: NapletId,
        /// Completed or Destroyed.
        status: NapletStatus,
        /// Host where it ended.
        host: String,
        /// Human-readable detail (error text for abnormal ends).
        detail: String,
    },
    /// Application-level client/server request (e.g. the centralized
    /// SNMP baseline). Dispatched to the server's registered app
    /// handler; metered as `Snmp`/`Other` traffic.
    AppRequest {
        /// Correlation token.
        token: u64,
        /// Reply destination.
        reply_to: String,
        /// Handler dispatch tag.
        tag: String,
        /// Opaque request body.
        body: Vec<u8>,
    },
    /// Application-level reply.
    AppReply {
        /// Echoed token.
        token: u64,
        /// Echoed tag.
        tag: String,
        /// Opaque reply body.
        body: Vec<u8>,
    },
    /// Receiver → origin: the verdict on the `Transfer` with this
    /// `transfer_id` — admitted, or refused — the same for every
    /// attempt. It ends the handoff: on receipt the origin releases its
    /// retained copy of an admitted agent, or takes a refused one back.
    TransferAck {
        /// Echoed origin-scoped transfer id.
        transfer_id: u64,
        /// The transferred naplet (diagnostics).
        id: NapletId,
        /// Why the landing was refused; `None` when admitted.
        refused: Option<String>,
    },
    /// Privileged ops-plane read of a server's internals. Every kind of
    /// read passes the receiving server's one gate,
    /// `Permission::PrivilegedService("status")` — an unauthorized
    /// credential is refused with an empty reply.
    OpsRequest {
        /// Correlation token (echoed in the reply).
        token: u64,
        /// Where to send the reply.
        reply_to: String,
        /// The reader's credential, checked against the policy matrix.
        credential: naplet_core::credential::Credential,
        /// What to read.
        read: OpsRead,
    },
    /// The answer to an [`Wire::OpsRequest`]. `page` is `None` when the
    /// read was refused by the security policy.
    OpsReply {
        /// Echoed token.
        token: u64,
        /// What was read, or `None` on refusal.
        page: Option<OpsPage>,
    },
    /// Consensus traffic between directory replicas
    /// ([`crate::repl`]): elections, log replication, snapshots.
    Repl {
        /// The consensus message.
        msg: crate::repl::ReplMsg,
    },
    /// A [`Wire::Transfer`] of an agent leaving with mail it has not
    /// read: admitted together, the agent reads it at the destination's
    /// visit; refused, the mail stays with the origin. Last, so no
    /// other variant's tag moved when it came.
    TransferWithMail(TransferEnvelope, Mailbox),
}

/// What an [`Wire::OpsRequest`] reads. The two rings page: ask from
/// absolute sequence `from_seq` for at most `max` entries, then again
/// from where the page ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpsRead {
    /// The server's [`crate::status::StatusReport`].
    Status,
    /// A page of its flight recorder ([`naplet_obs::TraceSegment`]).
    Trace {
        /// First absolute event sequence wanted.
        from_seq: u64,
        /// Page-size ceiling.
        max: u32,
    },
    /// A page of its metrics history
    /// ([`naplet_obs::MetricsHistoryPage`]).
    MetricsHistory {
        /// First absolute sample sequence wanted.
        from_seq: u64,
        /// Page-size ceiling.
        max: u32,
    },
}

/// What an [`Wire::OpsReply`] carries, one variant per [`OpsRead`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpsPage {
    /// The probed server's report.
    Status(crate::status::StatusReport),
    /// One page of the recorder.
    Trace(naplet_obs::TraceSegment),
    /// One page of the history ring.
    MetricsHistory(naplet_obs::MetricsHistoryPage),
}

impl Wire {
    /// Traffic class used when this wire value crosses a link.
    pub fn traffic_class(&self) -> TrafficClass {
        match self {
            Wire::Transfer(_) | Wire::TransferWithMail(..) => TrafficClass::Migration,
            Wire::Post { .. } | Wire::Report { .. } => TrafficClass::Message,
            Wire::AppRequest { .. } | Wire::AppReply { .. } => TrafficClass::Snmp,
            _ => TrafficClass::Control,
        }
    }

    /// The 1-based send attempt carried by retryable wires; wires
    /// outside the reliable-transfer protocol report 1. Drivers meter a
    /// retransmission whenever this is ≥ 2.
    pub fn retry_attempt(&self) -> u32 {
        match self {
            Wire::Transfer(env) | Wire::TransferWithMail(env, _) => env.attempt,
            Wire::DirRegister { attempt, .. } => *attempt,
            _ => 1,
        }
    }

    /// Whether sending this wire opens a new hop of its journey: only
    /// a first-attempt `Transfer` does — retransmissions keep the hop
    /// they were minted with, so hops count migrations, not
    /// transmissions. Every driver feeds this to
    /// `CtxTable::on_send`.
    pub fn opens_hop(&self) -> bool {
        matches!(self, Wire::Transfer(env) | Wire::TransferWithMail(env, _) if env.attempt == 1)
    }

    /// Stable short label for traces and logs.
    pub fn label(&self) -> &'static str {
        &self.handler_key()["handler_us.".len()..]
    }

    /// Name of the wall-clock histogram of this wire's handler,
    /// `handler_us.<label>` — static, so profiling every event formats
    /// and allocates nothing.
    pub fn handler_key(&self) -> &'static str {
        match self {
            Wire::Transfer(_) | Wire::TransferWithMail(..) => "handler_us.Transfer",
            Wire::TransferAck { .. } => "handler_us.TransferAck",
            Wire::DirRegister { .. } => "handler_us.DirRegister",
            Wire::DirAck { .. } => "handler_us.DirAck",
            Wire::DirRemove { .. } => "handler_us.DirRemove",
            Wire::DirQuery { .. } => "handler_us.DirQuery",
            Wire::DirReply { .. } => "handler_us.DirReply",
            Wire::Post { .. } => "handler_us.Post",
            Wire::PostConfirm { .. } => "handler_us.PostConfirm",
            Wire::Report { .. } => "handler_us.Report",
            Wire::Notify { .. } => "handler_us.Notify",
            Wire::AppRequest { .. } => "handler_us.AppRequest",
            Wire::AppReply { .. } => "handler_us.AppReply",
            Wire::OpsRequest { .. } => "handler_us.OpsRequest",
            Wire::OpsReply { .. } => "handler_us.OpsReply",
            Wire::Repl { .. } => "handler_us.Repl",
        }
    }

    /// The naplet this wire value concerns, when it concerns exactly
    /// one — drivers use it to attribute wire trace events to the
    /// right journey.
    pub fn subject(&self) -> Option<&NapletId> {
        match self {
            Wire::Transfer(env) | Wire::TransferWithMail(env, _) => Some(env.naplet.id()),
            Wire::TransferAck { id, .. }
            | Wire::DirRegister { id, .. }
            | Wire::DirAck { id }
            | Wire::DirRemove { id }
            | Wire::DirQuery { id, .. }
            | Wire::DirReply { id, .. }
            | Wire::Report { id, .. }
            | Wire::Notify { id, .. } => Some(id),
            Wire::PostConfirm { target, .. } => Some(target),
            Wire::Post { .. }
            | Wire::AppRequest { .. }
            | Wire::AppReply { .. }
            | Wire::OpsRequest { .. }
            | Wire::OpsReply { .. }
            | Wire::Repl { .. } => None,
        }
    }
}

/// Local (same-host) events a server schedules for itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LocalEvent {
    /// The modelled dwell of a visit has elapsed: advance the
    /// itinerary and depart (or finish).
    VisitDone {
        /// The naplet whose visit completed.
        id: NapletId,
    },
    /// Code fetch for a cold codebase completed; start execution.
    CodeReady {
        /// The naplet waiting on its code.
        id: NapletId,
    },
    /// A reliable-handoff acknowledgement timer came due: if the
    /// transfer is still outstanding at this attempt, retransmit (or
    /// give up after `RetryPolicy::max_retries`).
    TransferTimeout {
        /// The outstanding transfer.
        transfer_id: u64,
        /// Attempt the timer was armed for; a mismatch means the timer
        /// is stale (a newer attempt superseded it).
        attempt: u32,
    },
    /// An arrival-registration acknowledgement timer came due: if the
    /// naplet is still waiting in `AwaitingArrivalAck`, re-send the
    /// `DirRegister` — and after `RetryPolicy::max_retries`, stop
    /// gating and execute anyway (the directory may be stale; the
    /// forwarding chase recovers from that, a stranded agent does not).
    RegisterTimeout {
        /// The naplet whose arrival registration is unacknowledged.
        id: NapletId,
        /// Attempt the timer was armed for.
        attempt: u32,
    },
    /// A home-side lease timer came due: if the lease for `id` was not
    /// renewed within the policy window, the agent is orphaned —
    /// re-dispatch it from its creation record or mark it `Lost`.
    LeaseCheck {
        /// The dispatched naplet whose lease is being checked.
        id: NapletId,
    },
    /// A post-office redelivery timer came due: if the message
    /// identified by `(sender, seq)` has no delivery confirmation yet,
    /// re-route it (invalidating stale location hints first).
    PostTimeout {
        /// The message's original sender…
        sender: naplet_core::message::Sender,
        /// …and sequence number.
        seq: u64,
        /// Attempt the timer was armed for.
        attempt: u32,
    },
    /// The consensus timer of a directory replica came due: drive
    /// elections/heartbeats ([`crate::repl::ReplicaCore::tick`]). The
    /// tick re-arms itself only while the core asks for it — an idle
    /// replicated directory schedules nothing, so simulated runs still
    /// reach quiescence.
    ReplTick,
}

impl LocalEvent {
    /// Stable short label for traces and logs.
    pub fn label(&self) -> &'static str {
        &self.handler_key()["handler_us.".len()..]
    }

    /// Name of the wall-clock histogram of this event's handler, as
    /// [`Wire::handler_key`].
    pub fn handler_key(&self) -> &'static str {
        match self {
            LocalEvent::VisitDone { .. } => "handler_us.VisitDone",
            LocalEvent::CodeReady { .. } => "handler_us.CodeReady",
            LocalEvent::TransferTimeout { .. } => "handler_us.TransferTimeout",
            LocalEvent::RegisterTimeout { .. } => "handler_us.RegisterTimeout",
            LocalEvent::LeaseCheck { .. } => "handler_us.LeaseCheck",
            LocalEvent::PostTimeout { .. } => "handler_us.PostTimeout",
            LocalEvent::ReplTick => "handler_us.ReplTick",
        }
    }
}

/// One input to a server's handler.
#[allow(clippy::large_enum_variant)] // Wire carries whole agents
#[derive(Debug)]
pub enum Input {
    /// A wire value delivered from `from`.
    Wire {
        /// Sending host.
        from: String,
        /// The payload.
        wire: Wire,
    },
    /// A scheduled local event came due.
    Local(LocalEvent),
}

/// One effect a server asks its driver to perform.
#[allow(clippy::large_enum_variant)] // Wire carries whole agents
#[derive(Debug)]
pub enum Output {
    /// Send a wire value to another host (metered by class).
    Send {
        /// Destination host.
        to: String,
        /// Payload.
        wire: Wire,
    },
    /// Schedule a local event after a delay.
    Schedule {
        /// Delay in modelled ms.
        delay_ms: u64,
        /// The event.
        event: LocalEvent,
    },
    /// Fetch code for a cold codebase from `from` (the driver meters a
    /// `Code`-class transfer of `bytes` and delivers
    /// [`LocalEvent::CodeReady`] after the modelled delay).
    FetchCode {
        /// Codebase origin (the naplet's home).
        from: String,
        /// JAR size.
        bytes: u64,
        /// Waiting naplet.
        id: NapletId,
    },
}

/// Timestamped, human-readable server log entry (observability; tests
/// assert against these).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Server time when logged.
    pub at: Millis,
    /// Message text.
    pub line: String,
}

/// Bounded ring of [`LogEntry`]s: when the configured capacity is
/// reached, the oldest line is evicted and counted — the same
/// retention philosophy that bounds the dedup table and the
/// messenger's confirmation maps. It is the ring the flight recorder
/// uses, so "complete record or counted truncation" has exactly one
/// implementation in the workspace.
pub type EventLog = naplet_obs::Ring<LogEntry>;

/// Ring capacity of a server's event log; the oldest lines are evicted
/// (and counted) beyond this.
const LOG_CAPACITY: usize = 4096;

/// Everything one call into a server emits, in the order it happens:
/// frames and timers for the driver, log lines, metrics and trace
/// events, stamped with the clock reading and the host the call runs
/// at. The server owns one and hands it `&mut` to every component
/// transition it runs, so a component sends its own frames with their
/// timers and records its own observations; the server's entry points
/// set the clock and [`take`](Outbox::take) the frames. Components are
/// tested with an outbox and no server.
#[derive(Debug)]
pub struct Outbox {
    now: Millis,
    host: String,
    out: Vec<Output>,
    obs: ObsSink,
    log: EventLog,
}

impl Outbox {
    /// An empty outbox for `host`, recording into a private sink.
    pub fn new(host: &str) -> Outbox {
        Outbox {
            now: Millis(0),
            host: host.to_string(),
            out: Vec::new(),
            obs: ObsSink::default(),
            log: EventLog::with_capacity(LOG_CAPACITY),
        }
    }

    /// Set the clock: what follows happens at `now`.
    pub fn at(&mut self, now: Millis) {
        self.now = now;
    }

    /// The clock reading of the call.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// The host the call runs at.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The frames, timers and fetches emitted so far, for the driver.
    pub fn take(&mut self) -> Vec<Output> {
        std::mem::take(&mut self.out)
    }

    /// Send `wire` to `to`.
    pub fn send(&mut self, to: String, wire: Wire) {
        self.out.push(Output::Send { to, wire });
    }

    /// Arm a timer: `event` comes due `delay_ms` from now.
    pub fn after(&mut self, delay_ms: u64, event: LocalEvent) {
        self.out.push(Output::Schedule { delay_ms, event });
    }

    /// Fetch `bytes` of code for `id` from `from`.
    pub fn fetch_code(&mut self, from: String, bytes: u64, id: NapletId) {
        self.out.push(Output::FetchCode { from, bytes, id });
    }

    /// Append a line to the event log.
    pub fn log(&mut self, line: String) {
        self.log.push(LogEntry { at: self.now, line });
    }

    /// Add `by` to counter `name`.
    pub fn count(&self, name: &str, by: u64) {
        self.obs.metrics.incr(name, by);
    }

    /// Record `value` into histogram `name` (bucketed by `bounds`).
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        self.obs.metrics.observe(name, bounds, value);
    }

    /// Raise the high-water gauge `name` to `value`.
    pub fn gauge(&self, name: &str, value: u64) {
        self.obs.metrics.gauge_max(name, value);
    }

    /// A wall-clock reading to time a stretch of work by, taken only
    /// while profiling is on (live daemons): the simulation's
    /// deterministic exports never see one.
    pub fn stopwatch(&self) -> Option<Instant> {
        self.obs.profiling_enabled().then(Instant::now)
    }

    /// Record the microseconds since `started`, if a reading was taken,
    /// into histogram `name`.
    pub fn lap(&self, name: &str, started: Option<Instant>) {
        if let Some(started) = started {
            let us = started.elapsed().as_micros() as u64;
            self.observe(name, naplet_obs::HANDLER_BOUNDS_US, us);
        }
    }

    /// Record a trace event about `naplet`; `kind` runs only when some
    /// consumer wants the event.
    pub fn trace(&self, naplet: Option<&NapletId>, kind: impl FnOnce() -> TraceKind) {
        self.obs.emit(self.now, &self.host, naplet, kind);
    }

    /// The observation sink the metrics and trace events go to.
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// Record into `obs` from now on.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// The event log.
    pub fn lines(&self) -> &EventLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh agent bound for `s0`.
    fn sample_naplet() -> SharedNaplet {
        use naplet_core::itinerary::{Itinerary, Pattern};
        use naplet_core::naplet::{AgentKind, Naplet};
        let it = Itinerary::new(Pattern::singleton("s0")).unwrap();
        let key = naplet_core::credential::SigningKey::new("czxu", b"secret");
        let kind = AgentKind::Native;
        let naplet = Naplet::create(&key, "czxu", "home", Millis(1), "probe", kind, it, vec![]);
        naplet.unwrap().into()
    }

    #[test]
    fn traffic_classes() {
        let id = NapletId::new("u", "h", Millis(0)).unwrap();
        assert_eq!(
            Wire::DirAck { id: id.clone() }.traffic_class(),
            TrafficClass::Control
        );
        assert_eq!(
            Wire::Report {
                id: id.clone(),
                body: Value::Nil
            }
            .traffic_class(),
            TrafficClass::Message
        );
        assert_eq!(
            Wire::AppRequest {
                token: 0,
                reply_to: "m".into(),
                tag: "snmp".into(),
                body: vec![]
            }
            .traffic_class(),
            TrafficClass::Snmp
        );
    }

    #[test]
    fn wire_codec_round_trip() {
        let id = NapletId::new("u", "h", Millis(0)).unwrap();
        let w = Wire::DirQuery {
            token: 9,
            id,
            reply_to: "here".into(),
        };
        let bytes = naplet_core::codec::to_bytes(&w).unwrap();
        let back: Wire = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, w);
    }

    /// A `Transfer` frame is byte for byte what it was when the
    /// envelope's handle re-walked the agent — variant index, the
    /// naplet's own encoding, then the envelope's fields — whether the
    /// handle holds its image (the splice) or not (the walk), and the
    /// sim's size-only metering agrees.
    #[test]
    fn transfer_frames_are_unchanged_by_the_splice() {
        use naplet_core::codec;
        use naplet_core::credential::SigningKey;
        use naplet_core::itinerary::{Itinerary, Pattern};
        use naplet_core::naplet::{AgentKind, Naplet};

        let agent = |kind: AgentKind, ballast: usize| {
            let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None)).unwrap();
            let key = SigningKey::new("czxu", b"secret");
            let mut naplet =
                Naplet::create(&key, "czxu", "home", Millis(1), "probe", kind, it, vec![]).unwrap();
            // high bytes: a byte's value must not change what it costs
            naplet.state.set("ballast", vec![0xffu8; ballast]);
            naplet
        };
        for naplet in [
            agent(AgentKind::Native, 0),
            agent(AgentKind::Vm(vec![0x00, 0x7f, 0x80, 0xff]), 0),
            agent(AgentKind::Native, 64 * 1024),
        ] {
            let action = Some(ActionSpec::ReportHome);
            let mut expected = vec![0]; // `Wire::Transfer`
            expected.extend(naplet.to_wire().unwrap());
            expected.extend(codec::to_bytes(&(&action, 9u64, 3u32)).unwrap());

            let wire = Wire::Transfer(TransferEnvelope {
                naplet: naplet.into(),
                action,
                transfer_id: 9,
                attempt: 3,
            });
            for fill in [false, true] {
                if let (true, Wire::Transfer(envelope)) = (fill, &wire) {
                    envelope.naplet.wire_bytes().unwrap();
                }
                assert_eq!(codec::to_bytes(&wire).unwrap(), expected, "fill={fill}");
                assert_eq!(codec::encoded_size(&wire).unwrap(), expected.len() as u64);
            }
            // the receiving handle holds the frame's own span
            let Wire::Transfer(got) = codec::from_bytes::<Wire>(&expected).unwrap() else {
                panic!("a Transfer decodes as a Transfer");
            };
            let image = got.naplet.wire_bytes().unwrap();
            assert_eq!(image.as_slice(), &expected[1..1 + image.len()]);
            assert_eq!(image.as_slice(), &got.naplet.get().to_wire().unwrap()[..]);
        }
    }

    #[test]
    fn transfer_ack_round_trips_and_is_control_class() {
        let id = NapletId::new("u", "h", Millis(0)).unwrap();
        for refused in [None, Some("server full (1)".to_string())] {
            let w = Wire::TransferAck {
                transfer_id: 17,
                id: id.clone(),
                refused,
            };
            assert_eq!(w.traffic_class(), TrafficClass::Control);
            assert_eq!(w.retry_attempt(), 1);
            let bytes = naplet_core::codec::to_bytes(&w).unwrap();
            let back: Wire = naplet_core::codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, w);
        }
    }

    #[test]
    fn wire_labels_and_subjects() {
        let id = NapletId::new("u", "h", Millis(0)).unwrap();
        let ack = Wire::TransferAck {
            transfer_id: 1,
            id: id.clone(),
            refused: None,
        };
        assert_eq!(ack.label(), "TransferAck");
        assert_eq!(ack.handler_key(), "handler_us.TransferAck");
        assert_eq!(ack.subject(), Some(&id));
        let confirm = Wire::OpsReply {
            token: 1,
            page: None,
        };
        assert_eq!(confirm.subject(), None);
        assert_eq!(LocalEvent::ReplTick.label(), "ReplTick");
        assert_eq!(LocalEvent::ReplTick.handler_key(), "handler_us.ReplTick");
    }

    /// One case per read kind: the request and a refusal round-trip as
    /// Control-class frames outside the retry protocol, and so does
    /// each kind's page.
    #[test]
    fn ops_frames_are_control_class_and_round_trip() {
        let round_trip = |wire: Wire, label: &str| {
            assert_eq!(wire.traffic_class(), TrafficClass::Control);
            assert_eq!(wire.retry_attempt(), 1);
            assert_eq!(wire.label(), label);
            assert_eq!(wire.subject(), None);
            let bytes = naplet_core::codec::to_bytes(&wire).unwrap();
            let back: Wire = naplet_core::codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, wire);
        };
        let key = naplet_core::credential::SigningKey::new("ops", b"secret");
        let id = NapletId::new("ops", "man", Millis(0)).unwrap();
        let credential = naplet_core::credential::Credential::issue(&key, id, "status", vec![]);
        let history = naplet_obs::MetricsHistoryPage {
            host: "n1".into(),
            next_seq: 2,
            total: 2,
            samples: vec![naplet_obs::MetricsSample {
                at: 100,
                delta: naplet_obs::MetricsSnapshot::default(),
            }],
            ..naplet_obs::MetricsHistoryPage::default()
        };
        let cases = [
            (
                OpsRead::Status,
                OpsPage::Status(crate::status::StatusReport::default()),
            ),
            (
                OpsRead::Trace {
                    from_seq: 4,
                    max: 512,
                },
                OpsPage::Trace(naplet_obs::TraceSegment::default()),
            ),
            (
                OpsRead::MetricsHistory {
                    from_seq: 4,
                    max: 64,
                },
                OpsPage::MetricsHistory(history),
            ),
        ];
        for (token, (read, page)) in cases.into_iter().enumerate() {
            let token = token as u64;
            let request = Wire::OpsRequest {
                token,
                reply_to: "man".into(),
                credential: credential.clone(),
                read,
            };
            round_trip(request, "OpsRequest");
            let page = Some(page);
            round_trip(Wire::OpsReply { token, page }, "OpsReply");
            round_trip(Wire::OpsReply { token, page: None }, "OpsReply");
        }
    }

    /// The exact codec bytes of an `OpsReply` carrying each kind of ring
    /// page: a remote reader of a mixed-build cluster decodes a trace
    /// segment and a metrics-history page only while these hold.
    #[test]
    fn ops_reply_ring_pages_keep_their_codec_bytes() {
        use naplet_core::tracectx::TraceCtx;
        use naplet_obs::{
            MetricsHistoryPage, MetricsSample, MetricsSnapshot, TraceEvent, TraceSegment,
        };
        let hex = |page: OpsPage| -> String {
            let wire = Wire::OpsReply {
                token: 7,
                page: Some(page),
            };
            let bytes = naplet_core::codec::to_bytes(&wire).unwrap();
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        };
        let events = vec![
            TraceEvent {
                at: Millis(9),
                host: "home".into(),
                naplet: Some("naplet://czxu@home/1".into()),
                ctx: None,
                kind: TraceKind::HandoffCommit {
                    dest: "s0".into(),
                    transfer_id: 1,
                    started: Millis(3),
                    attempts: 2,
                },
            },
            TraceEvent {
                at: Millis(12),
                host: "home".into(),
                naplet: None,
                ctx: Some(TraceCtx {
                    journey: "naplet://czxu@home/1".into(),
                    origin: "home".into(),
                    hop: 1,
                    seq: 4,
                }),
                kind: TraceKind::TransferReceived {
                    origin: "s0".into(),
                    transfer_id: 1,
                    duplicate: false,
                },
            },
        ];
        let segment = TraceSegment {
            host: "home".into(),
            start_seq: 5,
            next_seq: 7,
            total: 7,
            dropped: 5,
            epoch_unix_ms: 1_700_000_000_000,
            events,
        };
        let delta = |sent: u64, depth: u64| MetricsSnapshot {
            counters: [("wire.sent".to_string(), sent)].into(),
            gauges: [("mailbox_depth".to_string(), depth)].into(),
            ..MetricsSnapshot::default()
        };
        let history = MetricsHistoryPage {
            host: "n1".into(),
            start_seq: 0,
            next_seq: 2,
            total: 2,
            dropped: 0,
            epoch_unix_ms: 1_700_000_000_000,
            samples: vec![
                MetricsSample {
                    at: 100,
                    delta: delta(5, 1),
                },
                MetricsSample {
                    at: 200,
                    delta: delta(2, 3),
                },
            ],
        };
        assert_eq!(
            hex(OpsPage::Trace(segment)),
            concat!(
                "0e07010104686f6d650507070580d095ffbc3102",
                "0904686f6d6501146e61706c65743a2f2f637a787540686f6d652f3100",
                "070273300103020c04686f6d650001146e61706c65743a2f2f637a7875",
                "40686f6d652f3104686f6d650104060273300100",
            )
        );
        assert_eq!(
            hex(OpsPage::MetricsHistory(history)),
            concat!(
                "0e070102026e310002020080d095ffbc3102",
                "640109776972652e73656e7405010d6d61696c626f785f6465707468",
                "0100c8010109776972652e73656e7402010d6d61696c626f785f6465",
                "7074680300",
            )
        );
    }

    /// The variant indices of an ack, a directory frame, an ops reply
    /// and a Transfer with mail, pinned: peers of different builds
    /// decode each other's frames only while they hold.
    #[test]
    fn the_wire_variant_indices_are_pinned() {
        let id = NapletId::new("u", "h", Millis(0)).unwrap();
        let tag = |wire: &Wire| naplet_core::codec::to_bytes(wire).unwrap()[0];
        let ack = Wire::TransferAck {
            transfer_id: 1,
            id: id.clone(),
            refused: None,
        };
        assert_eq!(tag(&ack), 12);
        assert_eq!(tag(&Wire::DirAck { id }), 2);
        let reply = Wire::OpsReply {
            token: 1,
            page: None,
        };
        assert_eq!(tag(&reply), 14);
        let (naplet, action, transfer_id, attempt) = (sample_naplet(), None, 1, 1);
        let envelope = TransferEnvelope {
            naplet,
            action,
            transfer_id,
            attempt,
        };
        assert_eq!(tag(&Wire::TransferWithMail(envelope, Mailbox::new())), 16);
    }

    /// A Transfer with mail is a Transfer to every plane that looks at
    /// frames — class, label, subject, hop, attempt — and round-trips
    /// with its mail.
    #[test]
    fn a_transfer_with_mail_is_a_transfer_to_the_frame_planes() {
        let naplet = sample_naplet();
        let id = naplet.id().clone();
        let mut mail = Mailbox::new();
        let owner = naplet_core::message::Sender::Owner("h".into());
        mail.deposit(Message::user(
            1,
            owner,
            id.clone(),
            Millis(0),
            Value::Int(7),
        ));
        for attempt in [1, 2] {
            let envelope = TransferEnvelope {
                naplet: naplet.clone(),
                action: None,
                transfer_id: 3,
                attempt,
            };
            let plain = Wire::Transfer(envelope.clone());
            let with_mail = Wire::TransferWithMail(envelope, mail.clone());
            assert_eq!(with_mail.traffic_class(), plain.traffic_class());
            assert_eq!(with_mail.handler_key(), plain.handler_key());
            assert_eq!(with_mail.subject(), Some(&id));
            assert_eq!(with_mail.opens_hop(), plain.opens_hop());
            assert_eq!(with_mail.retry_attempt(), attempt);
            let bytes = naplet_core::codec::to_bytes(&with_mail).unwrap();
            let back: Wire = naplet_core::codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, with_mail);
        }
    }

    #[test]
    fn retry_attempt_visible_on_retryable_wires() {
        let id = NapletId::new("u", "h", Millis(0)).unwrap();
        let w = Wire::DirRegister {
            id,
            host: "a".into(),
            event: DirEvent::Arrival,
            ack_to: Some("a".into()),
            attempt: 3,
        };
        assert_eq!(w.retry_attempt(), 3);
    }
}
