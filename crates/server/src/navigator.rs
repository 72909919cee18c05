//! The Navigator: the acknowledged handoff as one state machine
//! (paper §2.2). DESIGN.md §4.4 has the state diagram, the decisions
//! this module owns and the test that holds each invariant.
//!
//! One module owns every table the handoff needs: outbound custody by
//! transfer id, the landings this host granted and still expects, the
//! `(origin, transfer id)` pairs it already admitted, and the agents
//! parked here. Its transitions are handed the [`Outbox`] and the
//! journal: each sends its own frames with their timers, journals the
//! handoff where it stands, and records its own log lines, metrics and
//! trace events. What comes back is only what the server continues
//! with — an agent to admit, the mail to hand on at departure, the
//! agent after a refusal or a failure.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::error::Result;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{ActionSpec, Cursor};
use naplet_core::message::Mailbox;
use naplet_core::naplet::{Naplet, SharedNaplet};
use naplet_obs::{TraceKind, COUNT_BOUNDS, LATENCY_BOUNDS_MS};

use crate::events::{LocalEvent, Outbox, TransferEnvelope, Wire};
use crate::journal::{Journal, JournalPhase};
use crate::retry::RetryPolicy;
use crate::status::StatusReport;

/// How long a granted landing keeps mail for its naplet waiting here.
const EXPECTED_ARRIVAL_TTL_MS: u64 = 60_000;

/// What the origin holds of an agent it is handing off: the phase of
/// the handoff and the form of custody are one fact.
enum Custody {
    /// `LandingRequest` sent: the live agent waits for the permit with
    /// the mail it has not read; a refusal takes both back untouched.
    AwaitingPermit {
        agent: SharedNaplet,
        mailbox: Mailbox,
    },
    /// `Transfer` sent: the live handle rode in the frame (so the
    /// destination admits it by move, not by clone); until the ack the
    /// origin keeps its image, decoded back to resend or to fail.
    AwaitingAck { image: Arc<Vec<u8>> },
}

impl Custody {
    /// Give the agent up — into the first `Transfer` frame, or back
    /// into sole custody — with the mail that waited beside it.
    fn release(self) -> (SharedNaplet, Mailbox) {
        match self {
            Custody::AwaitingPermit { agent, mailbox } => (agent, mailbox),
            Custody::AwaitingAck { image } => (decode(&image), Mailbox::new()),
        }
    }
}

/// A retained image as a handle that keeps it (its frame splices it).
fn decode(image: &[u8]) -> SharedNaplet {
    codec::from_bytes(image)
        .expect("a retained image decodes: it was encoded here, or decoded once at recovery")
}

/// One outbound migration, in the origin's custody until acknowledged.
struct Handoff {
    id: NapletId,
    custody: Custody,
    dest: String,
    action: Option<ActionSpec>,
    /// Cursor from before the `advance()` that chose `dest`; a failed
    /// handoff rewinds to it so the itinerary decides again.
    checkpoint: Cursor,
    attempt: u32,
    /// When the first `LandingRequest` left (latency and RTT base).
    started: Millis,
}

impl Handoff {
    fn awaiting_ack(&self) -> bool {
        matches!(self.custody, Custody::AwaitingAck { .. })
    }

    /// The departure image: every journal record and `Transfer` frame
    /// of the handoff copies these bytes.
    fn image(&self) -> Result<Arc<Vec<u8>>> {
        match &self.custody {
            Custody::AwaitingPermit { agent, .. } => agent.wire_bytes(),
            Custody::AwaitingAck { image } => Ok(Arc::clone(image)),
        }
    }

    /// The phase's name in a `Retransmit` trace event, and the reason
    /// a handoff that dies in it failed.
    fn names(&self) -> (&'static str, &'static str) {
        match self.custody {
            Custody::AwaitingPermit { .. } => ("permit", "no landing reply"),
            Custody::AwaitingAck { .. } => ("transfer", "transfer unacknowledged"),
        }
    }

    /// The frame the current phase sends and re-sends from `host`.
    fn frame(&self, transfer_id: u64, host: &str) -> Wire {
        match &self.custody {
            Custody::AwaitingPermit { agent, .. } => Wire::LandingRequest {
                token: transfer_id,
                from_host: host.to_string(),
                credential: agent.credential().clone(),
                naplet_id: self.id.clone(),
                est_bytes: agent.wire_bytes().map_or(0, |image| image.len() as u64),
                attempt: self.attempt,
            },
            Custody::AwaitingAck { image } => Wire::Transfer(TransferEnvelope {
                naplet: decode(image),
                action: self.action.clone(),
                transfer_id,
                attempt: self.attempt,
            }),
        }
    }

    /// Put `wire`, the current attempt, on the link to `dest` and arm
    /// the timer after which it counts as unanswered (backoff with
    /// jitter).
    fn send(&self, transfer_id: u64, wire: Wire, retry: &RetryPolicy, out: &mut Outbox) {
        out.send(self.dest.clone(), wire);
        let attempt = self.attempt;
        let timeout_ms = retry.jittered_backoff_ms(transfer_id, attempt);
        let timeout = LocalEvent::TransferTimeout {
            transfer_id,
            attempt,
        };
        out.after(timeout_ms, timeout);
    }

    /// Show `write` what the journal records for the handoff as it
    /// stands: whose agent, its image, the in-flight phase. The phase
    /// owns the checkpoint for the call and hands it back, so a hop
    /// clones the cursor once, not once per record.
    fn view<R>(
        &mut self,
        transfer_id: u64,
        write: impl FnOnce(&NapletId, Result<Arc<Vec<u8>>>, &JournalPhase) -> R,
    ) -> R {
        let phase = JournalPhase::InFlight {
            transfer_id,
            dest: self.dest.clone(),
            checkpoint: std::mem::take(&mut self.checkpoint),
            awaiting_ack: self.awaiting_ack(),
            attempt: self.attempt,
            action: self.action.clone(),
        };
        let written = write(&self.id, self.image(), &phase);
        if let JournalPhase::InFlight { checkpoint, .. } = phase {
            self.checkpoint = checkpoint;
        }
        written
    }

    /// Journal where the handoff stands: every in-flight record is
    /// written here.
    fn journal(&mut self, transfer_id: u64, journal: &mut Journal, out: &mut Outbox) {
        self.view(transfer_id, |id, image, phase| {
            journal.put_naplet(id, image, phase, out)
        });
    }
}

/// A granted landing: the agent has left in all but the frame. The
/// server runs the departure bookkeeping for `id` going to `dest` —
/// handing on the unread `mailbox` — then gives this back to
/// [`Navigator::depart`], which sends the `Transfer`.
#[must_use]
#[derive(Debug)]
pub struct Departure {
    /// The departing agent.
    pub id: NapletId,
    /// Where it goes.
    pub dest: String,
    /// The mail it has not read, to follow it.
    pub mailbox: Mailbox,
    transfer_id: u64,
    agent: SharedNaplet,
}

/// How a `LandingReply` ends the first phase.
#[allow(clippy::large_enum_variant)] // handed straight back, never stored
#[derive(Debug)]
pub enum Verdict {
    /// Granted: the agent leaves.
    Granted(Departure),
    /// Refused (or the agent would not encode): the agent and its
    /// unread mail, back in sole custody; the visit is skipped.
    Denied(Naplet, Mailbox),
}

/// A handoff given up: the agent is back in sole custody, rewound to
/// before the step that chose `dest`, the failure in its navigation log.
#[derive(Debug)]
pub struct Failed {
    /// The agent.
    pub agent: Naplet,
    /// Mail it had not read (none once the `Transfer` had left).
    pub mailbox: Mailbox,
    /// The destination that never answered.
    pub dest: String,
    /// The `Transfer` had left: departure bookkeeping is rolled back.
    pub departed: bool,
    /// The itinerary still demands `dest` (a `Seq` step; an `Alt`
    /// would now decide otherwise): park, do not loop.
    pub park: bool,
}

/// The migration protocol of one server, both ends of it.
pub struct Navigator {
    retry: RetryPolicy,
    /// Outbound handoffs not yet acknowledged, by transfer id.
    handoffs: HashMap<u64, Handoff>,
    /// Landings granted here whose transfer has not arrived: mail for
    /// such a naplet waits here, not on a stale trail, until the grant
    /// lapses (its transfer was lost).
    expected: HashMap<NapletId, Millis>,
    /// Transfers admitted here, by (origin, transfer id): a retransmit
    /// is acknowledged again, never admitted again.
    seen: HashMap<(String, u64), Millis>,
    /// Admission notes evicted by [`sweep`](Self::sweep) so far.
    pub seen_evicted: u64,
    /// Agents stranded here by a failed required hop, held for owners.
    pub parked: HashMap<NapletId, Naplet>,
}

impl Navigator {
    /// A navigator retrying under `retry`.
    pub fn new(retry: RetryPolicy) -> Navigator {
        Navigator {
            retry,
            handoffs: HashMap::new(),
            expected: HashMap::new(),
            seen: HashMap::new(),
            seen_evicted: 0,
            parked: HashMap::new(),
        }
    }

    // ----------------- the destination's end -----------------

    /// A `LandingRequest` for `id` under `token` came from `from_host`,
    /// and this host's `decision` on it: the reply goes back, and a
    /// granted landing is expected — mail for the naplet waits here
    /// until it arrives.
    pub fn request(
        &mut self,
        from_host: String,
        token: u64,
        id: NapletId,
        attempt: u32,
        decision: Result<()>,
        out: &mut Outbox,
    ) {
        let (granted, reason) = match decision {
            Ok(()) => (true, String::new()),
            Err(e) => (false, e.to_string()),
        };
        let (verdict, counter) = if granted {
            ("grant", "landing.granted")
        } else {
            ("deny", "landing.denied")
        };
        // a request retransmitted after its `Transfer` was admitted here
        // is answered again but expects nothing: the naplet has landed,
        // may have left since, and its mail must chase it
        let admission = (from_host, token);
        if granted && !self.seen.contains_key(&admission) {
            self.expected.insert(id.clone(), out.now());
        }
        let (from_host, _) = admission;
        out.log(format!(
            "LANDING {id} from {from_host} (attempt {attempt}): {verdict}"
        ));
        out.count(counter, 1);
        out.trace(Some(&id), || TraceKind::LandingDecision {
            origin: from_host.clone(),
            granted,
            reason: reason.clone(),
        });
        let reply = Wire::LandingReply {
            token,
            granted,
            reason,
        };
        out.send(from_host, reply);
    }

    /// A `Transfer` came from `from`. Every attempt is acknowledged —
    /// the previous ack may have been the frame that was lost — but the
    /// envelope comes back, to be admitted, only the first time; its
    /// admission note is journaled so a recovered receiver still re-acks
    /// rather than re-admits a late retransmission.
    pub fn receive(
        &mut self,
        from: &str,
        envelope: TransferEnvelope,
        journal: &mut Journal,
        out: &mut Outbox,
    ) -> Option<TransferEnvelope> {
        let (transfer_id, now) = (envelope.transfer_id, out.now());
        let id = envelope.naplet.id().clone();
        let fresh = self.admit_once(from, transfer_id, now);
        out.trace(Some(&id), || TraceKind::TransferReceived {
            origin: from.to_string(),
            transfer_id,
            duplicate: !fresh,
        });
        let ack = Wire::TransferAck {
            transfer_id,
            id: id.clone(),
        };
        out.send(from.to_string(), ack);
        if !fresh {
            out.log(format!(
                "duplicate TRANSFER {id} (attempt {}): already admitted",
                envelope.attempt
            ));
            return None;
        }
        if let Err(e) = journal.note_seen(from, transfer_id, now) {
            out.log(format!("JOURNAL seen failed for {id}: {e}"));
        }
        Some(envelope)
    }

    // ----------------- the origin's end -----------------

    /// Open a handoff of `agent` to `dest` under a fresh `transfer_id`:
    /// journaled before the first frame leaves — a crash here resumes
    /// the handoff instead of losing the departing agent — then the
    /// `LandingRequest` goes out. The agent is encoded here, once: the
    /// request's size estimate, both in-flight journal records, the
    /// `Transfer` frame and the destination's admission copy that image.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        &mut self,
        transfer_id: u64,
        agent: SharedNaplet,
        mailbox: Mailbox,
        action: Option<ActionSpec>,
        dest: String,
        checkpoint: Cursor,
        journal: &mut Journal,
        out: &mut Outbox,
    ) {
        let handoff = Handoff {
            id: agent.id().clone(),
            custody: Custody::AwaitingPermit { agent, mailbox },
            dest,
            action,
            checkpoint,
            attempt: 1,
            started: out.now(),
        };
        let request = handoff.frame(transfer_id, out.host());
        let handoff = self.handoffs.entry(transfer_id).insert_entry(handoff);
        let handoff = handoff.into_mut();
        handoff.journal(transfer_id, journal, out);
        out.trace(Some(&handoff.id), || TraceKind::LandingRequested {
            dest: handoff.dest.clone(),
            transfer_id,
        });
        handoff.send(transfer_id, request, &self.retry, out);
    }

    /// Take `transfer_id` out of custody if it is what this answer is
    /// `awaited` by; a stray leaves it where it is.
    fn take_if(
        &mut self,
        transfer_id: u64,
        awaited: impl FnOnce(&Handoff) -> bool,
    ) -> Option<Handoff> {
        if awaited(self.handoffs.get(&transfer_id)?) {
            self.handoffs.remove(&transfer_id)
        } else {
            None
        }
    }

    /// A `LandingReply` for `token` came from `from`, `granted` or
    /// refused for `reason`. `None` when no handoff awaits that host's
    /// permit under that token — a duplicate, a late reply, or not the
    /// destination's — which is logged and changes nothing.
    pub fn permit(
        &mut self,
        token: u64,
        from: &str,
        granted: bool,
        reason: &str,
        out: &mut Outbox,
    ) -> Option<Verdict> {
        let awaited = |h: &Handoff| h.dest == from && !h.awaiting_ack();
        let Some(handoff) = self.take_if(token, awaited) else {
            out.log(format!("stray LandingReply token {token}"));
            return None;
        };
        // an agent that will not encode cannot be sent either: its
        // grant ends like a refusal
        let image = handoff.image().ok().filter(|_| granted);
        let (agent, mailbox) = handoff.custody.release();
        let (id, dest, started) = (handoff.id, handoff.dest, handoff.started);
        let latency = out.now().since(started);
        out.observe("landing_latency_ms", LATENCY_BOUNDS_MS, latency);
        out.trace(Some(&id), || TraceKind::PermitReceived {
            dest: dest.clone(),
            transfer_id: token,
            granted,
            started,
        });
        let Some(image) = image else {
            out.log(format!("LANDING denied for {id} at {dest}: {reason}"));
            return Some(Verdict::Denied(agent.into_owned(), mailbox));
        };
        let sent = Handoff {
            id: id.clone(),
            custody: Custody::AwaitingAck { image },
            dest: dest.clone(),
            attempt: 1,
            ..handoff
        };
        self.handoffs.insert(token, sent);
        Some(Verdict::Granted(Departure {
            id,
            dest,
            mailbox,
            transfer_id: token,
            agent,
        }))
    }

    /// Send the `Transfer` of a granted landing once the server has
    /// run the departure bookkeeping: journaled past the permit, then
    /// the frame — the live handle rides in it — and its timer.
    pub fn depart(&mut self, departure: Departure, journal: &mut Journal, out: &mut Outbox) {
        let Departure {
            transfer_id, agent, ..
        } = departure;
        let Some(handoff) = self.handoffs.get_mut(&transfer_id) else {
            return;
        };
        out.trace(Some(&handoff.id), || TraceKind::TransferSent {
            dest: handoff.dest.clone(),
            transfer_id,
        });
        handoff.journal(transfer_id, journal, out);
        let transfer = Wire::Transfer(TransferEnvelope {
            naplet: agent,
            action: handoff.action.clone(),
            transfer_id,
            attempt: 1,
        });
        handoff.send(transfer_id, transfer, &self.retry, out);
    }

    /// A `TransferAck` for `transfer_id` naming `id` came from `from`:
    /// commits only the handoff it acknowledges — awaiting an ack, from
    /// that host, of that agent — releasing custody and retiring its
    /// journal record (the destination journaled the agent before
    /// acking). Anything else is logged as stray and changes nothing.
    pub fn ack(
        &mut self,
        transfer_id: u64,
        from: &str,
        id: &NapletId,
        journal: &mut Journal,
        out: &mut Outbox,
    ) {
        let awaited = |h: &Handoff| h.dest == from && h.awaiting_ack() && h.id == *id;
        let Some(handoff) = self.take_if(transfer_id, awaited) else {
            out.log(format!(
                "stray TransferAck transfer {transfer_id} for {id} from {from}"
            ));
            return;
        };
        let (id, started, attempts) = (&handoff.id, handoff.started, handoff.attempt);
        journal.retire_naplet(id, out);
        out.log(format!("HANDOFF commit {id} (transfer {transfer_id})"));
        out.count("handoff.commits", 1);
        let rtt = out.now().since(started);
        out.observe("handoff_rtt_ms", LATENCY_BOUNDS_MS, rtt);
        out.observe("transfer_attempts", COUNT_BOUNDS, u64::from(attempts));
        out.trace(Some(id), || TraceKind::HandoffCommit {
            dest: handoff.dest.clone(),
            transfer_id,
            started,
            attempts,
        });
    }

    /// The timer armed for `attempt` of `transfer_id` came due. A stale
    /// one (answered or failed meanwhile, or a newer attempt armed)
    /// does nothing. While retries remain the current phase's frame goes
    /// again, one attempt on, journaled first so a recovered origin
    /// resumes the budget where it stood. A spent budget gives the agent
    /// back.
    pub fn due(
        &mut self,
        transfer_id: u64,
        attempt: u32,
        journal: &mut Journal,
        out: &mut Outbox,
    ) -> Option<Failed> {
        let current = self.handoffs.get_mut(&transfer_id);
        let handoff = current.filter(|h| h.attempt == attempt)?;
        if attempt < self.retry.max_retries {
            handoff.attempt += 1;
            let again = handoff.frame(transfer_id, out.host());
            handoff.journal(transfer_id, journal, out);
            let (id, dest, next) = (&handoff.id, &handoff.dest, handoff.attempt);
            out.log(format!("RETRY {id} -> {dest} (attempt {next})"));
            out.count("handoff.retransmits", 1);
            out.trace(Some(id), || TraceKind::Retransmit {
                dest: dest.clone(),
                transfer_id,
                attempt: next,
                phase: handoff.names().0.to_string(),
            });
            handoff.send(transfer_id, again, &self.retry, out);
            return None;
        }
        let handoff = self.handoffs.remove(&transfer_id)?;
        let (departed, reason) = (handoff.awaiting_ack(), handoff.names().1);
        let (agent, mailbox) = handoff.custody.release();
        let mut agent = agent.into_owned();
        agent.set_cursor(handoff.checkpoint);
        let dest = handoff.dest;
        agent
            .nav_log
            .record_failure(&dest, out.now(), attempt, reason);
        // `dest` now counts as unreachable, so an `Alt` decides again
        let park = agent.peek_next_host().as_deref() == Some(&dest);
        let id = agent.id();
        out.log(format!(
            "HANDOFF failed {id} -> {dest} after {attempt} attempts \
             ({reason}; transfer {transfer_id})"
        ));
        out.count("handoff.failures", 1);
        out.trace(Some(id), || TraceKind::HandoffFailed {
            dest: dest.clone(),
            transfer_id,
            attempts: attempt,
            reason: reason.to_string(),
        });
        if park {
            out.log(format!(
                "PARK {id}: {dest} unreachable after {attempt} attempts"
            ));
            out.count("handoff.parked", 1);
            out.trace(Some(id), || TraceKind::Parked {
                dest: dest.clone(),
                attempts: attempt,
            });
        }
        Some(Failed {
            agent,
            mailbox,
            dest,
            departed,
            park,
        })
    }

    /// Resume the handoff an in-flight journal record describes;
    /// `agent` is the record's bytes decoded into a handle that keeps
    /// them as its image (held as the handle before the permit, as the
    /// image after), so resending and re-journaling copy the record.
    /// Its timer is armed to fire at once: the ordinary
    /// [`due`](Self::due) re-drives it. A phase that is not in flight
    /// restores nothing.
    pub fn restore(&mut self, agent: SharedNaplet, phase: JournalPhase, out: &mut Outbox) {
        let JournalPhase::InFlight {
            transfer_id,
            dest,
            checkpoint,
            awaiting_ack,
            attempt,
            action,
        } = phase
        else {
            return;
        };
        let id = agent.id().clone();
        let custody = match agent.wire_bytes() {
            Ok(image) if awaiting_ack => Custody::AwaitingAck { image },
            // (with no image to resend it would ask for the permit
            // again; the destination's dedup makes that safe)
            _ => Custody::AwaitingPermit {
                agent,
                mailbox: Mailbox::new(),
            },
        };
        let handoff = Handoff {
            id,
            custody,
            dest,
            action,
            checkpoint,
            attempt,
            started: out.now(),
        };
        self.handoffs.insert(transfer_id, handoff);
        let timeout = LocalEvent::TransferTimeout {
            transfer_id,
            attempt,
        };
        out.after(0, timeout);
    }

    /// Show `write` what the journal records for `transfer_id` as it
    /// stands: whose agent, its image, the in-flight phase — what
    /// [`restore`](Self::restore) inverts.
    pub fn journal_view<R>(
        &mut self,
        transfer_id: u64,
        write: impl FnOnce(&NapletId, Result<Arc<Vec<u8>>>, &JournalPhase) -> R,
    ) -> Option<R> {
        let handoff = self.handoffs.get_mut(&transfer_id)?;
        Some(handoff.view(transfer_id, write))
    }

    /// `id` was admitted: nothing is expected any more.
    pub fn arrived(&mut self, id: &NapletId) {
        self.expected.remove(id);
    }

    /// Whether mail for `id` waits here: a landing granted, not lapsed.
    pub fn expecting(&self, id: &NapletId, now: Millis) -> bool {
        let granted = self.expected.get(id);
        granted.is_some_and(|at| now.since(*at) < EXPECTED_ARRIVAL_TTL_MS)
    }

    /// Note `Transfer` `transfer_id` from `origin`, seen at `at`: `true`
    /// the first time, when it is to be admitted. Recovery replays the
    /// journal's durable notes through here.
    pub fn admit_once(&mut self, origin: &str, transfer_id: u64, at: Millis) -> bool {
        match self.seen.entry((origin.to_string(), transfer_id)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(at);
                true
            }
        }
    }

    /// Forget admissions older than `retention_ms` (counted) and
    /// landing grants whose transfer never came.
    pub fn sweep(&mut self, now: Millis, retention_ms: u64) {
        let before = self.seen.len();
        self.seen.retain(|_, at| now.since(*at) < retention_ms);
        self.seen_evicted += (before - self.seen.len()) as u64;
        self.expected
            .retain(|_, granted| now.since(*granted) < EXPECTED_ARRIVAL_TTL_MS);
    }

    /// Outbound handoffs awaiting a permit or an acknowledgement.
    pub fn pending_count(&self) -> usize {
        self.handoffs.len()
    }

    /// Write the navigator's rows of a health report.
    pub fn fill_status(&self, report: &mut StatusReport) {
        report.parked = self.parked.len() as u64;
        report.pending_transfers = self.handoffs.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Output;
    use naplet_core::credential::SigningKey;
    use naplet_core::error::NapletError;
    use naplet_core::itinerary::{Itinerary, Pattern, Step};
    use naplet_core::message::Message;
    use naplet_core::naplet::AgentKind;
    use naplet_core::value::Value;

    const RETRIES: u32 = 3;

    fn navigator() -> Navigator {
        let retry = RetryPolicy {
            max_retries: RETRIES,
            ..RetryPolicy::default()
        };
        Navigator::new(retry)
    }

    /// The outbox of host `a`, with tracing on so tests read the events.
    fn outbox(now: u64) -> Outbox {
        let mut out = Outbox::new("a");
        out.obs().enable_tracing();
        out.at(Millis(now));
        out
    }

    /// The one attempt in `out`: the frame, where it went, and the
    /// attempt and delay of the `TransferTimeout` armed right behind it.
    fn one_attempt(out: &mut Outbox) -> (String, Wire, u32, u64) {
        let mut sent = out.take().into_iter();
        let (Some(Output::Send { to, wire }), Some(Output::Schedule { delay_ms, event })) =
            (sent.next(), sent.next())
        else {
            panic!("an attempt is a frame and its timer");
        };
        let LocalEvent::TransferTimeout { attempt, .. } = event else {
            panic!("a handoff frame arms a TransferTimeout");
        };
        assert!(sent.next().is_none(), "one attempt at a time");
        (to, wire, attempt, delay_ms)
    }

    fn logged(out: &Outbox, prefix: &str) -> bool {
        out.lines().iter().any(|e| e.line.starts_with(prefix))
    }

    /// An agent about to leave `a` for the first stop of `route`: the
    /// handle, the visit's action, the stop, the cursor before the step.
    fn departing(route: Pattern) -> (SharedNaplet, Option<ActionSpec>, String, Cursor) {
        let key = SigningKey::new("czxu", b"secret");
        let it = Itinerary::new(route).unwrap();
        let kind = AgentKind::Native;
        let mut naplet =
            Naplet::create(&key, "czxu", "a", Millis(1), "cb", kind, it, vec![]).unwrap();
        let checkpoint = naplet.cursor().clone();
        let Step::Visit { host, action } = naplet.advance() else {
            panic!("the route starts with a visit");
        };
        (naplet.into(), action, host, checkpoint)
    }

    fn mail(to: &NapletId) -> Mailbox {
        let mut mailbox = Mailbox::new();
        let from = naplet_core::message::Sender::Owner("a".into());
        mailbox.deposit(Message::user(1, from, to.clone(), Millis(0), Value::Int(7)));
        mailbox
    }

    /// Open transfer 9 of a fresh agent along `route`, carrying one
    /// unread message, at 10 ms.
    fn open(nav: &mut Navigator, journal: &mut Journal, route: Pattern) -> (SharedNaplet, Cursor) {
        let (agent, action, dest, checkpoint) = departing(route);
        let mailbox = mail(agent.id());
        let mut out = outbox(10);
        let cp = checkpoint.clone();
        nav.open(
            9,
            agent.clone(),
            mailbox,
            action,
            dest,
            cp,
            journal,
            &mut out,
        );
        (agent, checkpoint)
    }

    fn ring() -> Pattern {
        Pattern::seq_of_hosts(&["b", "c"], Some(ActionSpec::ReportHome))
    }

    /// (image, awaiting_ack, attempt) as the journal would record it.
    fn view(nav: &mut Navigator, transfer_id: u64) -> Option<(Vec<u8>, JournalPhase)> {
        nav.journal_view(transfer_id, |_, image, phase| {
            (image.unwrap().to_vec(), phase.clone())
        })
    }

    /// Grant transfer 9 and send its `Transfer`: the frame's attempt.
    fn granted(nav: &mut Navigator, journal: &mut Journal) -> (String, Wire, u32, u64) {
        let mut out = outbox(20);
        let Some(Verdict::Granted(departure)) = nav.permit(9, "b", true, "", &mut out) else {
            panic!("a grant sends the agent");
        };
        nav.depart(departure, journal, &mut out);
        one_attempt(&mut out)
    }

    fn due(nav: &mut Navigator, attempt: u32, now: u64) -> (Option<Failed>, Outbox) {
        let (mut journal, mut out) = (Journal::in_memory(), outbox(now));
        let failed = nav.due(9, attempt, &mut journal, &mut out);
        (failed, out)
    }

    #[test]
    fn open_journals_then_asks_for_the_permit_and_holds_the_agent_with_its_image() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, action, dest, checkpoint) = departing(ring());
        let mut out = outbox(10);
        let cp = checkpoint.clone();
        nav.open(
            9,
            agent.clone(),
            mail(agent.id()),
            action,
            dest,
            cp,
            &mut journal,
            &mut out,
        );
        let image = agent.wire_bytes().unwrap();
        let (to, wire, attempt, delay) = one_attempt(&mut out);
        assert_eq!((to.as_str(), attempt), ("b", 1));
        assert_eq!(delay, nav.retry.jittered_backoff_ms(9, 1));
        let Wire::LandingRequest {
            token,
            from_host,
            naplet_id,
            est_bytes,
            attempt,
            ..
        } = wire
        else {
            panic!("a handoff opens with a LandingRequest");
        };
        assert_eq!((token, from_host.as_str(), attempt), (9, "a", 1));
        assert_eq!((&naplet_id, est_bytes), (agent.id(), image.len() as u64));
        assert_eq!(nav.pending_count(), 1);
        assert_eq!(journal.naplet_records().len(), 1, "journaled as it opened");
        let (recorded, phase) = view(&mut nav, 9).unwrap();
        assert_eq!(recorded, *image);
        let expected = JournalPhase::InFlight {
            transfer_id: 9,
            dest: "b".into(),
            checkpoint,
            awaiting_ack: false,
            attempt: 1,
            action: Some(ActionSpec::ReportHome),
        };
        assert_eq!(phase, expected);
        assert_eq!(journal.naplet_records()[0].1.phase, expected);
        // the view hands the checkpoint back: a second look is the same
        assert_eq!(view(&mut nav, 9).unwrap().1, expected);
        assert!(view(&mut nav, 8).is_none());
    }

    #[test]
    fn a_grant_sends_the_live_handle_and_keeps_only_its_image() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, _) = open(&mut nav, &mut journal, ring());
        let image = agent.wire_bytes().unwrap();
        let mut out = outbox(20);
        let Some(Verdict::Granted(mut departure)) = nav.permit(9, "b", true, "", &mut out) else {
            panic!("a grant sends the agent");
        };
        assert_eq!((&departure.id, departure.dest.as_str()), (agent.id(), "b"));
        assert_eq!(std::mem::take(&mut departure.mailbox).len(), 1);
        assert!(out.take().is_empty(), "nothing leaves before the departure");
        nav.depart(departure, &mut journal, &mut out);
        let (to, wire, attempt, _) = one_attempt(&mut out);
        assert_eq!((to.as_str(), attempt), ("b", 1));
        let Wire::Transfer(envelope) = wire else {
            panic!("a grant sends a Transfer");
        };
        assert_eq!((envelope.transfer_id, envelope.attempt), (9, 1));
        assert_eq!(envelope.action, Some(ActionSpec::ReportHome));
        assert!(Arc::ptr_eq(&envelope.naplet.wire_bytes().unwrap(), &image));
        // custody moved on: same image, second phase, budget restarted
        let (recorded, phase) = view(&mut nav, 9).unwrap();
        assert_eq!(recorded, *image);
        let sent = |phase: &JournalPhase| {
            let stands = matches!(phase, JournalPhase::InFlight { awaiting_ack, attempt, .. }
                if *awaiting_ack && *attempt == 1);
            assert!(stands, "{phase:?}");
        };
        sent(&phase);
        sent(&journal.naplet_records()[0].1.phase);
        assert_eq!(nav.pending_count(), 1);
        assert!(
            nav.permit(9, "b", true, "", &mut out).is_none(),
            "a second reply is stray"
        );
        assert!(logged(&out, "stray LandingReply token 9"));
    }

    #[test]
    fn a_refusal_hands_the_agent_and_its_mail_back() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, _) = open(&mut nav, &mut journal, ring());
        let mut out = outbox(20);
        let verdict = nav.permit(9, "b", false, "full", &mut out);
        let Some(Verdict::Denied(back, mailbox)) = verdict else {
            panic!("a refusal sends nothing");
        };
        assert_eq!(mailbox.len(), 1);
        assert_eq!(&back, agent.get());
        assert_eq!(nav.pending_count(), 0);
        assert!(out.take().is_empty());
        assert!(logged(&out, "LANDING denied for"));
    }

    #[test]
    fn a_permit_nobody_awaits_changes_nothing() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        open(&mut nav, &mut journal, ring());
        let mut out = outbox(20);
        assert!(
            nav.permit(8, "b", true, "", &mut out).is_none(),
            "unknown token"
        );
        assert!(
            nav.permit(9, "c", true, "", &mut out).is_none(),
            "not the destination"
        );
        assert!(nav.permit(9, "c", false, "", &mut out).is_none());
        assert!(out.take().is_empty());
        assert_eq!(out.lines().len(), 3, "each stray logged");
        assert!(matches!(
            view(&mut nav, 9).unwrap().1,
            JournalPhase::InFlight {
                awaiting_ack: false,
                ..
            }
        ));
        granted(&mut nav, &mut journal);
    }

    #[test]
    fn an_ack_commits_only_the_handoff_it_acknowledges() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, _) = open(&mut nav, &mut journal, ring());
        let id = agent.id().clone();
        let mut out = outbox(25);
        nav.ack(9, "b", &id, &mut journal, &mut out);
        assert_eq!(nav.pending_count(), 1, "no Transfer has left yet");
        granted(&mut nav, &mut journal);
        let other = NapletId::new("czxu", "a", Millis(2)).unwrap();
        nav.ack(9, "c", &id, &mut journal, &mut out); // not the destination
        nav.ack(9, "b", &other, &mut journal, &mut out); // another agent
        nav.ack(8, "b", &id, &mut journal, &mut out); // another transfer
        assert_eq!(nav.pending_count(), 1);
        assert_eq!(out.lines().len(), 4, "each stray ack logged");
        assert!(due(&mut nav, 1, 20).0.is_none());
        nav.ack(9, "b", &id, &mut journal, &mut out);
        assert_eq!(nav.pending_count(), 0, "the destination's ack commits");
        assert!(journal.naplet_records().is_empty(), "the record retired");
        assert!(logged(&out, &format!("HANDOFF commit {id} (transfer 9)")));
        let commits: Vec<_> = (out.obs().tracer.events().into_iter())
            .filter_map(|e| match e.kind {
                TraceKind::HandoffCommit {
                    dest,
                    started,
                    attempts,
                    ..
                } => Some((dest, started, attempts)),
                _ => None,
            })
            .collect();
        assert_eq!(commits, [("b".to_string(), Millis(10), 2)]);
        nav.ack(9, "b", &id, &mut journal, &mut out);
        assert_eq!(out.lines().len(), 6, "a second ack is stray");
        assert!(due(&mut nav, 2, 30).1.take().is_empty());
    }

    #[test]
    fn a_due_timer_resends_the_current_phase_until_the_budget_is_spent() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, _) = open(&mut nav, &mut journal, ring());
        let image = agent.wire_bytes().unwrap();
        let (failed, mut out) = due(&mut nav, 2, 20);
        assert!(failed.is_none() && out.take().is_empty(), "not armed");
        let (failed, mut out) = due(&mut nav, 1, 20);
        assert!(failed.is_none(), "one attempt of three is not the budget");
        assert!(logged(
            &out,
            &format!("RETRY {} -> b (attempt 2)", agent.id())
        ));
        let (to, wire, attempt, delay) = one_attempt(&mut out);
        assert_eq!((to.as_str(), attempt), ("b", 2));
        assert_eq!(delay, nav.retry.jittered_backoff_ms(9, 2));
        assert!(matches!(wire, Wire::LandingRequest { attempt: 2, .. }));
        assert!(due(&mut nav, 1, 21).1.take().is_empty(), "superseded");

        granted(&mut nav, &mut journal);
        let (_, mut out) = due(&mut nav, 1, 30);
        let phase = out
            .obs()
            .tracer
            .events()
            .into_iter()
            .find_map(|e| match e.kind {
                TraceKind::Retransmit { phase, .. } => Some(phase),
                _ => None,
            });
        assert_eq!(phase.as_deref(), Some("transfer"), "its own budget");
        let (_, wire, attempt, _) = one_attempt(&mut out);
        assert_eq!(attempt, 2);
        let Wire::Transfer(envelope) = wire else {
            panic!("the second phase resends the Transfer");
        };
        assert_eq!((envelope.transfer_id, envelope.attempt), (9, 2));
        assert_eq!(envelope.naplet.wire_bytes().unwrap(), image);
        assert!(matches!(
            view(&mut nav, 9).unwrap().1,
            JournalPhase::InFlight { attempt: 2, .. }
        ));
    }

    #[test]
    fn a_spent_budget_hands_the_agent_back_rewound_and_says_whether_to_park() {
        for (route, sent, park) in [
            (ring(), false, true),
            (ring(), true, true),
            (
                Pattern::alt(Pattern::singleton("b"), Pattern::singleton("c")),
                false,
                false,
            ),
        ] {
            let (mut nav, mut journal) = (navigator(), Journal::in_memory());
            let (_, checkpoint) = open(&mut nav, &mut journal, route);
            if sent {
                granted(&mut nav, &mut journal);
            }
            for attempt in 1..RETRIES {
                assert!(due(&mut nav, attempt, 20).0.is_none());
            }
            let (failed, mut out) = due(&mut nav, RETRIES, 50);
            let failed = failed.expect("the last attempt spends the budget");
            assert!(out.take().is_empty(), "nothing more is sent");
            assert_eq!(failed.dest, "b");
            assert_eq!((failed.departed, failed.park), (sent, park));
            assert!(logged(&out, "HANDOFF failed"));
            assert_eq!(logged(&out, "PARK"), park);
            let reason = ["no landing reply", "transfer unacknowledged"][sent as usize];
            assert_eq!(failed.mailbox.len(), usize::from(!sent), "unread mail");
            let failures = failed.agent.nav_log.failures();
            assert_eq!(failures.len(), 1);
            assert_eq!(
                (failures[0].host.as_str(), failures[0].at),
                ("b", Millis(50))
            );
            assert_eq!(
                (failures[0].attempts, &failures[0].reason[..]),
                (RETRIES, reason)
            );
            // rewound: the step is there to decide again, `b` now unreachable
            let mut rewound = failed.agent.clone();
            rewound.set_cursor(checkpoint);
            assert_eq!(failed.agent.peek_next_host(), rewound.peek_next_host());
            assert_eq!(failed.agent.cursor(), rewound.cursor());
            assert_eq!(nav.pending_count(), 0);
            assert!(due(&mut nav, RETRIES, 60).0.is_none());
        }
    }

    #[test]
    fn restore_inverts_the_journal_view_in_both_phases() {
        for sent in [false, true] {
            let (mut nav, mut journal) = (navigator(), Journal::in_memory());
            open(&mut nav, &mut journal, ring());
            if sent {
                granted(&mut nav, &mut journal);
            }
            assert!(due(&mut nav, 1, 20).0.is_none());
            let (image, phase) = view(&mut nav, 9).unwrap();

            let mut recovered = navigator();
            let agent: SharedNaplet = codec::from_bytes(&image).unwrap();
            let mut out = outbox(99);
            recovered.restore(agent, phase.clone(), &mut out);
            let timer = LocalEvent::TransferTimeout {
                transfer_id: 9,
                attempt: 2,
            };
            assert!(matches!(&out.take()[..],
                [Output::Schedule { delay_ms: 0, event }] if *event == timer));
            assert_eq!(view(&mut recovered, 9).unwrap(), (image.clone(), phase));
            // the immediate timer re-drives the phase with the record's bytes
            let (failed, mut out) = due(&mut recovered, 2, 99);
            assert!(failed.is_none(), "attempt 2 of {RETRIES} leaves one");
            match one_attempt(&mut out).1 {
                Wire::Transfer(envelope) if sent => {
                    assert_eq!(*envelope.naplet.wire_bytes().unwrap(), image);
                }
                Wire::LandingRequest { est_bytes, .. } if !sent => {
                    assert_eq!(est_bytes, image.len() as u64);
                }
                other => panic!("sent={sent} resent {other:?}"),
            }
            assert_eq!(view(&mut recovered, 9).unwrap().0, image);
            let agent: SharedNaplet = codec::from_bytes(&image).unwrap();
            recovered.restore(agent, JournalPhase::Parked, &mut out);
            assert!(out.take().is_empty(), "a resident record restores nothing");
            assert_eq!(recovered.pending_count(), 1);
        }
    }

    #[test]
    fn a_transfer_is_admitted_once_until_its_note_is_swept() {
        let mut nav = navigator();
        assert!(nav.admit_once("b", 4, Millis(100)));
        assert!(!nav.admit_once("b", 4, Millis(300)), "a retransmit");
        assert!(nav.admit_once("c", 4, Millis(300)), "ids are per origin");
        nav.sweep(Millis(1_099), 1_000);
        assert_eq!(nav.seen_evicted, 0);
        nav.sweep(Millis(1_100), 1_000);
        assert_eq!(nav.seen_evicted, 1, "b's note aged out, c's did not");
        assert!(!nav.admit_once("c", 4, Millis(1_100)));
        assert!(nav.admit_once("b", 4, Millis(1_100)));
    }

    #[test]
    fn every_transfer_attempt_is_acked_and_the_first_is_admitted() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, action, _, _) = departing(ring());
        let envelope = |attempt| TransferEnvelope {
            naplet: agent.clone(),
            action: action.clone(),
            transfer_id: 4,
            attempt,
        };
        let mut out = outbox(100);
        assert!(nav
            .receive("o", envelope(1), &mut journal, &mut out)
            .is_some());
        assert!(nav
            .receive("o", envelope(2), &mut journal, &mut out)
            .is_none());
        let acks = out.take().into_iter().filter(|o| {
            matches!(o, Output::Send { to, wire: Wire::TransferAck { transfer_id: 4, id } }
                if to == "o" && id == agent.id())
        });
        assert_eq!(acks.count(), 2);
        assert!(logged(&out, "duplicate TRANSFER"));
        assert_eq!(journal.seen(), [(("o".to_string(), 4), Millis(100))]);
    }

    #[test]
    fn a_granted_landing_is_expected_until_it_arrives_or_lapses() {
        let mut nav = navigator();
        let (agent, _, _, _) = departing(ring());
        let id = agent.id().clone();
        let request = |nav: &mut Navigator, at: u64, decision: Result<()>| {
            let mut out = outbox(at);
            nav.request("o".into(), 4, id.clone(), 1, decision, &mut out);
            let reply = out.take();
            let [Output::Send {
                to,
                wire:
                    Wire::LandingReply {
                        token: 4, granted, ..
                    },
            }] = &reply[..]
            else {
                panic!("one reply to the requester");
            };
            assert_eq!(to, "o");
            *granted
        };
        assert!(!nav.expecting(&id, Millis(0)));
        let full = NapletError::Service("full".into());
        assert!(!request(&mut nav, 100, Err(full)), "a refusal");
        assert!(!nav.expecting(&id, Millis(100)), "expects nothing");
        assert!(request(&mut nav, 100, Ok(())));
        assert!(nav.expecting(&id, Millis(100 + EXPECTED_ARRIVAL_TTL_MS - 1)));
        assert!(!nav.expecting(&id, Millis(100 + EXPECTED_ARRIVAL_TTL_MS)));
        nav.sweep(Millis(100 + EXPECTED_ARRIVAL_TTL_MS), u64::MAX);
        assert!(nav.expected.is_empty(), "a lapsed grant is forgotten");
        request(&mut nav, 200, Ok(()));
        nav.arrived(&id);
        assert!(!nav.expecting(&id, Millis(201)));
        // its transfer was admitted: a late retransmission of the
        // request is granted again but expects nothing
        assert!(nav.admit_once("o", 4, Millis(210)));
        assert!(request(&mut nav, 220, Ok(())));
        assert!(!nav.expecting(&id, Millis(221)));
    }

    #[test]
    fn the_status_rows_count_open_handoffs_and_parked_agents() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, _) = open(&mut nav, &mut journal, ring());
        nav.parked.insert(agent.id().clone(), agent.get().clone());
        let mut report = StatusReport::default();
        nav.fill_status(&mut report);
        assert_eq!((report.pending_transfers, report.parked), (1, 1));
    }
}
