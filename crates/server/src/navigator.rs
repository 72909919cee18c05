//! The Navigator: the acknowledged handoff as one state machine
//! (paper §2.2). DESIGN.md §4.4 has the state diagram, the decisions
//! this module owns and the test that holds each invariant.
//!
//! One module owns every table the handoff needs: outbound custody by
//! transfer id, the landings this host granted and still expects, the
//! `(origin, transfer id)` pairs it already admitted, and the agents
//! parked here. Transitions take plain values and return what to do
//! next — frames, timer delays, the agent handed back; the server
//! enacts them (journal, bookkeeping, log, metrics, trace).

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

use crate::events::{TransferEnvelope, Wire};
use crate::journal::JournalPhase;
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

    /// The frame the current phase sends and re-sends.
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

    /// `wire` as the current attempt: where to, and how long to wait.
    fn send(&self, transfer_id: u64, wire: Wire, retry: &RetryPolicy) -> Attempt {
        Attempt {
            to: self.dest.clone(),
            wire,
            attempt: self.attempt,
            timeout_ms: retry.jittered_backoff_ms(transfer_id, self.attempt),
        }
    }
}

/// One send of a handoff frame: the server puts `wire` on the link to
/// `to` and arms a `TransferTimeout` for `attempt` in `timeout_ms`.
#[derive(Debug)]
pub struct Attempt {
    /// The handoff's destination.
    pub to: String,
    /// `LandingRequest` or `Transfer`, numbered `attempt`.
    pub wire: Wire,
    /// 1-based attempt within the current phase's budget.
    pub attempt: u32,
    /// Backoff (with jitter) until the attempt counts as unanswered.
    pub timeout_ms: u64,
}

/// A `LandingReply` that answered an open request.
#[derive(Debug)]
pub struct Permit {
    /// The agent the permit was asked for.
    pub id: NapletId,
    /// Where it was asked.
    pub dest: String,
    /// When the request first left.
    pub started: Millis,
    /// Its unread mail: forwarded on a grant, kept on a refusal.
    pub mailbox: Mailbox,
    /// What the reply decided.
    pub verdict: Verdict,
}

/// How a permit ends the first phase.
#[derive(Debug)]
pub enum Verdict {
    /// The `Transfer` to send: the agent has left (departure
    /// bookkeeping is due) but stays retained until the ack.
    Granted(Attempt),
    /// The agent, back in sole custody: the visit is skipped.
    Denied(Naplet),
}

/// A handoff the destination acknowledged: custody is released.
#[derive(Debug)]
pub struct Committed {
    /// The agent custody held — whose journal record retires.
    pub id: NapletId,
    /// Where it went.
    pub dest: String,
    /// When the handoff opened.
    pub started: Millis,
    /// `Transfer` attempts it took.
    pub attempts: u32,
}

/// What an acknowledgement timer coming due means.
#[derive(Debug)]
pub enum Due {
    /// Answered or failed meanwhile, or a newer attempt owns the timer.
    Stale,
    /// Retries remain: the current phase's frame again, one attempt on.
    Retry {
        /// The agent being handed off.
        id: NapletId,
        /// The phase's name in the `Retransmit` trace event.
        phase: &'static str,
        /// What to send and arm.
        frame: Attempt,
    },
    /// The budget is spent.
    Failed(Failed),
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
    /// Attempts made in the phase that failed.
    pub attempts: u32,
    /// Which answer never came.
    pub reason: &'static str,
    /// The `Transfer` had left: departure bookkeeping is rolled back.
    pub departed: bool,
    /// The itinerary still demands `dest` (a `Seq` step; an `Alt`
    /// would now decide otherwise): park, do not loop.
    pub park: bool,
}

/// The migration protocol of one server, both ends of it.
pub struct Navigator {
    host: String,
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
    /// The navigator of `host`, retrying under `retry`.
    pub fn new(host: &str, retry: RetryPolicy) -> Navigator {
        Navigator {
            host: host.to_string(),
            retry,
            handoffs: HashMap::new(),
            expected: HashMap::new(),
            seen: HashMap::new(),
            seen_evicted: 0,
            parked: HashMap::new(),
        }
    }

    /// Open a handoff of `agent` to `dest` under a fresh `transfer_id`:
    /// the `LandingRequest` to send. The agent is encoded here, once —
    /// the request's size estimate, both in-flight journal records, the
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
        now: Millis,
    ) -> Attempt {
        let handoff = Handoff {
            id: agent.id().clone(),
            custody: Custody::AwaitingPermit { agent, mailbox },
            dest,
            action,
            checkpoint,
            attempt: 1,
            started: now,
        };
        let request = handoff.frame(transfer_id, &self.host);
        let first = handoff.send(transfer_id, request, &self.retry);
        self.handoffs.insert(transfer_id, handoff);
        first
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

    /// A `LandingReply` for `token` arrived from `from`. `None` when no
    /// handoff awaits that host's permit under that token: a duplicate,
    /// a late reply, or not the destination's.
    pub fn permit(&mut self, token: u64, from: &str, granted: bool) -> Option<Permit> {
        let handoff = self.take_if(token, |h| h.dest == from && !h.awaiting_ack())?;
        // an agent that will not encode cannot be sent either: its
        // grant ends like a refusal
        let image = handoff.image().ok().filter(|_| granted);
        let (agent, mailbox) = handoff.custody.release();
        let (id, dest, started) = (handoff.id, handoff.dest, handoff.started);
        let verdict = match image {
            Some(image) => {
                let sent = Handoff {
                    id: id.clone(),
                    custody: Custody::AwaitingAck { image },
                    dest: dest.clone(),
                    attempt: 1,
                    ..handoff
                };
                let transfer = Wire::Transfer(TransferEnvelope {
                    naplet: agent,
                    action: sent.action.clone(),
                    transfer_id: token,
                    attempt: 1,
                });
                let first = sent.send(token, transfer, &self.retry);
                self.handoffs.insert(token, sent);
                Verdict::Granted(first)
            }
            None => Verdict::Denied(agent.into_owned()),
        };
        Some(Permit {
            id,
            dest,
            started,
            mailbox,
            verdict,
        })
    }

    /// A `TransferAck` for `transfer_id` naming `id` arrived from
    /// `from`: commits only the handoff it acknowledges — awaiting an
    /// ack, from that host, of that agent. Else `None`, nothing changed.
    pub fn ack(&mut self, transfer_id: u64, from: &str, id: &NapletId) -> Option<Committed> {
        let awaited = |h: &Handoff| h.dest == from && h.awaiting_ack() && h.id == *id;
        let handoff = self.take_if(transfer_id, awaited)?;
        Some(Committed {
            id: handoff.id,
            dest: handoff.dest,
            started: handoff.started,
            attempts: handoff.attempt,
        })
    }

    /// The timer armed for `attempt` of `transfer_id` came due.
    pub fn due(&mut self, transfer_id: u64, attempt: u32, now: Millis) -> Due {
        let current = self.handoffs.get_mut(&transfer_id);
        let Some(handoff) = current.filter(|h| h.attempt == attempt) else {
            return Due::Stale;
        };
        if attempt < self.retry.max_retries {
            handoff.attempt += 1;
            let again = handoff.frame(transfer_id, &self.host);
            return Due::Retry {
                id: handoff.id.clone(),
                phase: handoff.names().0,
                frame: handoff.send(transfer_id, again, &self.retry),
            };
        }
        let Some(handoff) = self.handoffs.remove(&transfer_id) else {
            return Due::Stale;
        };
        let (departed, reason) = (handoff.awaiting_ack(), handoff.names().1);
        let (agent, mailbox) = handoff.custody.release();
        let mut agent = agent.into_owned();
        agent.set_cursor(handoff.checkpoint);
        let dest = handoff.dest;
        agent.nav_log.record_failure(&dest, now, attempt, reason);
        // `dest` now counts as unreachable, so an `Alt` decides again
        let park = agent.peek_next_host().as_deref() == Some(&dest);
        Due::Failed(Failed {
            agent,
            mailbox,
            dest,
            attempts: attempt,
            reason,
            departed,
            park,
        })
    }

    /// Resume the handoff an in-flight journal record describes;
    /// `agent` is the record's bytes decoded into a handle that keeps
    /// them as its image (held as the handle before the permit, as the
    /// image after), so resending and re-journaling copy the record.
    /// Returns the `(transfer id, attempt)` whose timer fires at once —
    /// the ordinary [`due`](Self::due) re-drives it; `None` for a phase
    /// that is not in flight.
    pub fn restore(
        &mut self,
        agent: SharedNaplet,
        phase: JournalPhase,
        now: Millis,
    ) -> Option<(u64, u32)> {
        let JournalPhase::InFlight {
            transfer_id,
            dest,
            checkpoint,
            awaiting_ack,
            attempt,
            action,
        } = phase
        else {
            return None;
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
            started: now,
        };
        self.handoffs.insert(transfer_id, handoff);
        Some((transfer_id, attempt))
    }

    /// Show `write` what the journal records for `transfer_id` as it
    /// stands: whose agent, its image, the in-flight phase — what
    /// [`restore`](Self::restore) inverts. The phase owns the checkpoint
    /// for the call and hands it back, so a hop clones the cursor once,
    /// not once per record.
    pub fn journal_view<R>(
        &mut self,
        transfer_id: u64,
        write: impl FnOnce(&NapletId, Result<Arc<Vec<u8>>>, &JournalPhase) -> R,
    ) -> Option<R> {
        let handoff = self.handoffs.get_mut(&transfer_id)?;
        let phase = JournalPhase::InFlight {
            transfer_id,
            dest: handoff.dest.clone(),
            checkpoint: std::mem::take(&mut handoff.checkpoint),
            awaiting_ack: handoff.awaiting_ack(),
            attempt: handoff.attempt,
            action: handoff.action.clone(),
        };
        let written = write(&handoff.id, handoff.image(), &phase);
        if let JournalPhase::InFlight { checkpoint, .. } = phase {
            handoff.checkpoint = checkpoint;
        }
        Some(written)
    }

    /// A landing for `id` was granted here at `now`.
    pub fn expect(&mut self, id: NapletId, now: Millis) {
        self.expected.insert(id, now);
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
    use naplet_core::credential::SigningKey;
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
        Navigator::new("a", retry)
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
    /// unread message.
    fn open(nav: &mut Navigator, route: Pattern) -> (SharedNaplet, Cursor, Attempt) {
        let (agent, action, dest, checkpoint) = departing(route);
        let mailbox = mail(agent.id());
        let at = Millis(10);
        let first = nav.open(
            9,
            agent.clone(),
            mailbox,
            action,
            dest,
            checkpoint.clone(),
            at,
        );
        (agent, checkpoint, first)
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

    fn granted(nav: &mut Navigator) -> Attempt {
        match nav
            .permit(9, "b", true)
            .expect("the permit is awaited")
            .verdict
        {
            Verdict::Granted(transfer) => transfer,
            Verdict::Denied(_) => panic!("a grant sends the agent"),
        }
    }

    #[test]
    fn open_asks_for_the_permit_and_holds_the_agent_with_its_image() {
        let mut nav = navigator();
        let (agent, checkpoint, first) = open(&mut nav, ring());
        let image = agent.wire_bytes().unwrap();
        assert_eq!((first.to.as_str(), first.attempt), ("b", 1));
        assert_eq!(first.timeout_ms, nav.retry.jittered_backoff_ms(9, 1));
        let Wire::LandingRequest {
            token,
            from_host,
            naplet_id,
            est_bytes,
            attempt,
            ..
        } = first.wire
        else {
            panic!("a handoff opens with a LandingRequest");
        };
        assert_eq!((token, from_host.as_str(), attempt), (9, "a", 1));
        assert_eq!((&naplet_id, est_bytes), (agent.id(), image.len() as u64));
        assert_eq!(nav.pending_count(), 1);
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
        // the view hands the checkpoint back: a second look is the same
        assert_eq!(view(&mut nav, 9).unwrap().1, expected);
        assert!(view(&mut nav, 8).is_none());
    }

    #[test]
    fn a_grant_sends_the_live_handle_and_keeps_only_its_image() {
        let mut nav = navigator();
        let (agent, _, _) = open(&mut nav, ring());
        let image = agent.wire_bytes().unwrap();
        let permit = nav.permit(9, "b", true).unwrap();
        assert_eq!((&permit.id, permit.dest.as_str()), (agent.id(), "b"));
        assert_eq!((permit.started, permit.mailbox.len()), (Millis(10), 1));
        let Verdict::Granted(transfer) = permit.verdict else {
            panic!("a grant sends the agent");
        };
        assert_eq!((transfer.to.as_str(), transfer.attempt), ("b", 1));
        let Wire::Transfer(envelope) = transfer.wire else {
            panic!("a grant sends a Transfer");
        };
        assert_eq!((envelope.transfer_id, envelope.attempt), (9, 1));
        assert_eq!(envelope.action, Some(ActionSpec::ReportHome));
        assert!(Arc::ptr_eq(&envelope.naplet.wire_bytes().unwrap(), &image));
        // custody moved on: same image, second phase, budget restarted
        let (recorded, phase) = view(&mut nav, 9).unwrap();
        assert_eq!(recorded, *image);
        assert!(matches!(
            phase,
            JournalPhase::InFlight {
                awaiting_ack: true,
                attempt: 1,
                ..
            }
        ));
        assert_eq!(nav.pending_count(), 1);
        assert!(
            nav.permit(9, "b", true).is_none(),
            "a second reply is stray"
        );
    }

    #[test]
    fn a_refusal_hands_the_agent_and_its_mail_back() {
        let mut nav = navigator();
        let (agent, _, _) = open(&mut nav, ring());
        let permit = nav.permit(9, "b", false).unwrap();
        assert_eq!(permit.mailbox.len(), 1);
        let Verdict::Denied(back) = permit.verdict else {
            panic!("a refusal sends nothing");
        };
        assert_eq!(&back, agent.get());
        assert_eq!(nav.pending_count(), 0);
    }

    #[test]
    fn a_permit_nobody_awaits_changes_nothing() {
        let mut nav = navigator();
        open(&mut nav, ring());
        assert!(nav.permit(8, "b", true).is_none(), "unknown token");
        assert!(nav.permit(9, "c", true).is_none(), "not the destination");
        assert!(nav.permit(9, "c", false).is_none());
        assert!(matches!(
            view(&mut nav, 9).unwrap().1,
            JournalPhase::InFlight {
                awaiting_ack: false,
                ..
            }
        ));
        granted(&mut nav);
    }

    #[test]
    fn an_ack_commits_only_the_handoff_it_acknowledges() {
        let mut nav = navigator();
        let (agent, _, _) = open(&mut nav, ring());
        let id = agent.id().clone();
        assert!(nav.ack(9, "b", &id).is_none(), "no Transfer has left yet");
        granted(&mut nav);
        let other = NapletId::new("czxu", "a", Millis(2)).unwrap();
        assert!(nav.ack(9, "c", &id).is_none(), "not the destination");
        assert!(nav.ack(9, "b", &other).is_none(), "another agent");
        assert!(nav.ack(8, "b", &id).is_none(), "another transfer");
        assert_eq!(nav.pending_count(), 1);
        assert!(matches!(nav.due(9, 1, Millis(20)), Due::Retry { .. }));
        let commit = nav.ack(9, "b", &id).expect("the destination's ack commits");
        assert_eq!((commit.id, commit.dest.as_str()), (id.clone(), "b"));
        assert_eq!((commit.started, commit.attempts), (Millis(10), 2));
        assert_eq!(nav.pending_count(), 0);
        assert!(nav.ack(9, "b", &id).is_none(), "a second ack is stray");
        assert!(matches!(nav.due(9, 2, Millis(30)), Due::Stale));
    }

    #[test]
    fn a_due_timer_resends_the_current_phase_until_the_budget_is_spent() {
        let mut nav = navigator();
        let (agent, _, _) = open(&mut nav, ring());
        let image = agent.wire_bytes().unwrap();
        assert!(matches!(nav.due(9, 2, Millis(20)), Due::Stale), "not armed");
        let Due::Retry { id, phase, frame } = nav.due(9, 1, Millis(20)) else {
            panic!("one attempt of three is not the budget");
        };
        assert_eq!((&id, phase, frame.attempt), (agent.id(), "permit", 2));
        assert_eq!(frame.timeout_ms, nav.retry.jittered_backoff_ms(9, 2));
        assert!(matches!(
            frame.wire,
            Wire::LandingRequest { attempt: 2, .. }
        ));
        assert!(
            matches!(nav.due(9, 1, Millis(21)), Due::Stale),
            "superseded"
        );

        granted(&mut nav);
        let Due::Retry { phase, frame, .. } = nav.due(9, 1, Millis(30)) else {
            panic!("the second phase has its own budget");
        };
        assert_eq!((phase, frame.attempt), ("transfer", 2));
        let Wire::Transfer(envelope) = frame.wire else {
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
            let mut nav = navigator();
            let (_, checkpoint, _) = open(&mut nav, route);
            if sent {
                granted(&mut nav);
            }
            for attempt in 1..RETRIES {
                assert!(matches!(nav.due(9, attempt, Millis(20)), Due::Retry { .. }));
            }
            let Due::Failed(failed) = nav.due(9, RETRIES, Millis(50)) else {
                panic!("attempt {RETRIES} of {RETRIES} spends the budget");
            };
            assert_eq!((failed.dest.as_str(), failed.attempts), ("b", RETRIES));
            assert_eq!((failed.departed, failed.park), (sent, park));
            let reason = ["no landing reply", "transfer unacknowledged"][sent as usize];
            assert_eq!(failed.reason, reason);
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
            assert!(matches!(nav.due(9, RETRIES, Millis(60)), Due::Stale));
        }
    }

    #[test]
    fn restore_inverts_the_journal_view_in_both_phases() {
        for sent in [false, true] {
            let mut nav = navigator();
            open(&mut nav, ring());
            if sent {
                granted(&mut nav);
            }
            assert!(matches!(nav.due(9, 1, Millis(20)), Due::Retry { .. }));
            let (image, phase) = view(&mut nav, 9).unwrap();

            let mut recovered = navigator();
            let agent: SharedNaplet = codec::from_bytes(&image).unwrap();
            let timer = recovered.restore(agent, phase.clone(), Millis(99));
            assert_eq!(timer, Some((9, 2)));
            assert_eq!(view(&mut recovered, 9).unwrap(), (image.clone(), phase));
            // the immediate timer re-drives the phase with the record's bytes
            let Due::Retry { frame, .. } = recovered.due(9, 2, Millis(99)) else {
                panic!("attempt 2 of {RETRIES} leaves one");
            };
            match frame.wire {
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
            let resident = JournalPhase::Parked;
            assert_eq!(recovered.restore(agent, resident, Millis(99)), None);
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
    fn a_granted_landing_is_expected_until_it_arrives_or_lapses() {
        let mut nav = navigator();
        let id = NapletId::new("czxu", "a", Millis(1)).unwrap();
        assert!(!nav.expecting(&id, Millis(0)));
        nav.expect(id.clone(), Millis(100));
        assert!(nav.expecting(&id, Millis(100 + EXPECTED_ARRIVAL_TTL_MS - 1)));
        assert!(!nav.expecting(&id, Millis(100 + EXPECTED_ARRIVAL_TTL_MS)));
        nav.sweep(Millis(100 + EXPECTED_ARRIVAL_TTL_MS), u64::MAX);
        assert!(nav.expected.is_empty(), "a lapsed grant is forgotten");
        nav.expect(id.clone(), Millis(200));
        nav.arrived(&id);
        assert!(!nav.expecting(&id, Millis(201)));
    }

    #[test]
    fn the_status_rows_count_open_handoffs_and_parked_agents() {
        let mut nav = navigator();
        let (agent, _, _) = open(&mut nav, ring());
        nav.parked.insert(agent.id().clone(), agent.get().clone());
        let mut report = StatusReport::default();
        nav.fill_status(&mut report);
        assert_eq!((report.pending_transfers, report.parked), (1, 1));
    }
}
