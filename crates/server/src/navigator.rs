//! The Navigator: the acknowledged handoff as one state machine
//! (paper §2.2). DESIGN.md §4.4 has the state diagram, the decisions
//! this module owns and the test that holds each invariant.
//!
//! One module owns every table the handoff needs: outbound custody by
//! transfer id, the verdict this host gave each `(origin, transfer id)`
//! it was sent, and the agents parked here. Its transitions are handed
//! the [`Outbox`] and the journal: each sends its own frames with their
//! timers, journals the handoff where it stands, and records its own
//! log lines, metrics and trace events. What comes back is only what
//! the server continues with — an agent to admit, where an admitted
//! agent landed, the agent after a refusal or a failure.

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

/// A retained image as a handle that keeps it (its frame splices it).
fn decode(image: &[u8]) -> SharedNaplet {
    codec::from_bytes(image)
        .expect("a retained image decodes: it was encoded here, or decoded once at recovery")
}

/// One outbound migration, in the origin's custody until acknowledged.
/// The live handle rode in the first `Transfer` frame (so the
/// destination admits it by move, not by clone); until the ack the
/// origin keeps its image, decoded back to resend, to take back after a
/// refusal or to fail, and the mail the agent has not read, which every
/// attempt carries along and an admitting ack releases.
struct Handoff {
    id: NapletId,
    image: Arc<Vec<u8>>,
    mailbox: Mailbox,
    dest: String,
    action: Option<ActionSpec>,
    /// Cursor from before the `advance()` that chose `dest`; a failed
    /// handoff rewinds to it so the itinerary decides again.
    checkpoint: Cursor,
    attempt: u32,
    /// When the first `Transfer` left (RTT base).
    started: Millis,
}

impl Handoff {
    /// Put the current attempt of the `Transfer` carrying `naplet` (and
    /// its unread mail, if any) on the link to `dest` and arm the timer
    /// after which it counts as unanswered (backoff with jitter).
    fn send(&self, transfer_id: u64, naplet: SharedNaplet, retry: &RetryPolicy, out: &mut Outbox) {
        let attempt = self.attempt;
        let envelope = TransferEnvelope {
            naplet,
            action: self.action.clone(),
            transfer_id,
            attempt,
        };
        let transfer = if self.mailbox.is_empty() {
            Wire::Transfer(envelope)
        } else {
            Wire::TransferWithMail(envelope, self.mailbox.clone())
        };
        out.send(self.dest.clone(), transfer);
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
        write: impl FnOnce(&NapletId, &Arc<Vec<u8>>, &JournalPhase) -> R,
    ) -> R {
        let phase = JournalPhase::InFlight {
            transfer_id,
            dest: self.dest.clone(),
            checkpoint: std::mem::take(&mut self.checkpoint),
            attempt: self.attempt,
            action: self.action.clone(),
        };
        let written = write(&self.id, &self.image, &phase);
        if let JournalPhase::InFlight { checkpoint, .. } = phase {
            self.checkpoint = checkpoint;
        }
        written
    }

    /// Journal where the handoff stands: every in-flight record is
    /// written here.
    fn journal(&mut self, transfer_id: u64, journal: &mut Journal, out: &mut Outbox) {
        self.view(transfer_id, |id, image, phase| {
            journal.put_naplet(id, Ok(Arc::clone(image)), phase, out)
        });
    }
}

/// How a `TransferAck` ends a handoff.
#[allow(clippy::large_enum_variant)] // handed straight back, never stored
#[derive(Debug)]
pub enum Acked {
    /// Admitted at `dest`, with the mail it had not read: both are its
    /// now.
    Admitted {
        /// The agent.
        id: NapletId,
        /// Where it landed.
        dest: String,
    },
    /// Refused: the agent and its unread mail, back in sole custody as
    /// they left; the visit is skipped.
    Refused(Naplet, Mailbox),
}

/// A handoff given up: the agent is back in sole custody, rewound to
/// before the step that chose `dest`, the failure in its navigation log.
#[derive(Debug)]
pub struct Failed {
    /// The agent.
    pub agent: Naplet,
    /// Mail it had not read.
    pub mailbox: Mailbox,
    /// The destination that never answered.
    pub dest: String,
    /// The itinerary still demands `dest` (a `Seq` step; an `Alt`
    /// would now decide otherwise): park, do not loop.
    pub park: bool,
}

/// The migration protocol of one server, both ends of it.
pub struct Navigator {
    retry: RetryPolicy,
    /// Outbound handoffs not yet acknowledged, by transfer id.
    handoffs: HashMap<u64, Handoff>,
    /// The verdict given each `Transfer`, by (origin, transfer id):
    /// when, and the refusal's reason (`None`: admitted). A retransmit
    /// gets the same answer, never a second decision.
    seen: HashMap<(String, u64), (Millis, Option<String>)>,
    /// Verdict notes evicted by [`sweep`](Self::sweep) so far.
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
            seen: HashMap::new(),
            seen_evicted: 0,
            parked: HashMap::new(),
        }
    }

    // ----------------- the destination's end -----------------

    /// A `Transfer` came from `from`, and `decision` is this host's
    /// landing decision on it. The first attempt's decision is the
    /// verdict, journaled before the ack leaves: every attempt — the
    /// previous ack may have been the frame that was lost — is answered
    /// with it, by a recovered receiver too. The envelope comes back, to
    /// be admitted, only the first time and only when admitted.
    pub fn receive(
        &mut self,
        from: &str,
        envelope: TransferEnvelope,
        decision: Result<()>,
        journal: &mut Journal,
        out: &mut Outbox,
    ) -> Option<TransferEnvelope> {
        let (transfer_id, now) = (envelope.transfer_id, out.now());
        let id = envelope.naplet.id().clone();
        let attempt = envelope.attempt;
        let key = (from.to_string(), transfer_id);
        let (fresh, refused) = match self.seen.get(&key) {
            Some((_, refused)) => (false, refused.clone()),
            None => {
                let refused = decision.err().map(|e| e.to_string());
                if let Err(e) = journal.note_seen(from, transfer_id, now, refused.as_deref()) {
                    out.log(format!("JOURNAL seen failed for {id}: {e}"));
                }
                self.seen.insert(key, (now, refused.clone()));
                (true, refused)
            }
        };
        let granted = refused.is_none();
        if fresh {
            let (verdict, counter) = if granted {
                ("grant", "landing.granted")
            } else {
                ("deny", "landing.denied")
            };
            out.log(format!(
                "LANDING {id} from {from} (attempt {attempt}): {verdict}"
            ));
            out.count(counter, 1);
            out.trace(Some(&id), || TraceKind::LandingDecision {
                origin: from.to_string(),
                granted,
                reason: refused.clone().unwrap_or_default(),
            });
        } else {
            let verdict = if granted { "admitted" } else { "refused" };
            out.log(format!(
                "duplicate TRANSFER {id} (attempt {attempt}): already {verdict}"
            ));
        }
        out.trace(Some(&id), || TraceKind::TransferReceived {
            origin: from.to_string(),
            transfer_id,
            duplicate: !fresh,
        });
        let ack = Wire::TransferAck {
            transfer_id,
            id,
            refused,
        };
        out.send(from.to_string(), ack);
        (fresh && granted).then_some(envelope)
    }

    // ----------------- the origin's end -----------------

    /// Open a handoff of `agent` to `dest` under a fresh `transfer_id`:
    /// journaled before the frame leaves — a crash here resumes the
    /// handoff instead of losing the departing agent — then the
    /// `Transfer` goes out, the live handle in it. The agent is encoded
    /// here, once: the journal record, every `Transfer` frame and the
    /// destination's admission copy that image. An agent that will not
    /// encode cannot leave: it comes back with its mail, the visit
    /// skipped.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
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
    ) -> Option<(Naplet, Mailbox)> {
        let id = agent.id().clone();
        let image = match agent.wire_bytes() {
            Ok(image) => image,
            Err(e) => {
                out.log(format!("HANDOFF {id} -> {dest} impossible: {e}"));
                return Some((agent.into_owned(), mailbox));
            }
        };
        let handoff = Handoff {
            id,
            image,
            mailbox,
            dest,
            action,
            checkpoint,
            attempt: 1,
            started: out.now(),
        };
        let handoff = self.handoffs.entry(transfer_id).insert_entry(handoff);
        let handoff = handoff.into_mut();
        handoff.journal(transfer_id, journal, out);
        out.trace(Some(&handoff.id), || TraceKind::TransferSent {
            dest: handoff.dest.clone(),
            transfer_id,
        });
        handoff.send(transfer_id, agent, &self.retry, out);
        None
    }

    /// A `TransferAck` for `transfer_id` naming `id` came from `from`,
    /// `refused` for a reason or admitting the agent. Only the handoff
    /// it answers — to that host, of that agent — ends: its journal
    /// record retires (an admitting destination journaled the agent
    /// before acking) and custody goes to the destination or back to
    /// the agent. Anything else is logged as stray and changes nothing.
    pub fn ack(
        &mut self,
        transfer_id: u64,
        from: &str,
        id: &NapletId,
        refused: Option<String>,
        journal: &mut Journal,
        out: &mut Outbox,
    ) -> Option<Acked> {
        let answered =
            (self.handoffs.get(&transfer_id)).is_some_and(|h| h.dest == from && h.id == *id);
        if !answered {
            out.log(format!(
                "stray TransferAck transfer {transfer_id} for {id} from {from}"
            ));
            return None;
        }
        let handoff = self.handoffs.remove(&transfer_id)?;
        let (id, dest, started, attempts) =
            (handoff.id, handoff.dest, handoff.started, handoff.attempt);
        if let Some(reason) = refused {
            // the image is the agent as it left: past the refused step
            out.log(format!("LANDING denied for {id} at {dest}: {reason}"));
            let agent = decode(&handoff.image).into_owned();
            return Some(Acked::Refused(agent, handoff.mailbox));
        }
        journal.retire_naplet(&id, out);
        out.log(format!("HANDOFF commit {id} (transfer {transfer_id})"));
        out.count("handoff.commits", 1);
        let rtt = out.now().since(started);
        out.observe("handoff_rtt_ms", LATENCY_BOUNDS_MS, rtt);
        out.observe("transfer_attempts", COUNT_BOUNDS, u64::from(attempts));
        out.trace(Some(&id), || TraceKind::HandoffCommit {
            dest: dest.clone(),
            transfer_id,
            started,
            attempts,
        });
        Some(Acked::Admitted { id, dest })
    }

    /// The timer armed for `attempt` of `transfer_id` came due. A stale
    /// one (answered or failed meanwhile, or a newer attempt armed)
    /// does nothing. While retries remain the `Transfer` goes again, one
    /// attempt on, journaled first so a recovered origin resumes the
    /// budget where it stood. A spent budget gives the agent back.
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
            handoff.journal(transfer_id, journal, out);
            let (id, dest, next) = (&handoff.id, &handoff.dest, handoff.attempt);
            out.log(format!("RETRY {id} -> {dest} (attempt {next})"));
            out.count("handoff.retransmits", 1);
            out.trace(Some(id), || TraceKind::Retransmit {
                dest: dest.clone(),
                transfer_id,
                attempt: next,
                phase: "transfer".to_string(),
            });
            handoff.send(transfer_id, decode(&handoff.image), &self.retry, out);
            return None;
        }
        let handoff = self.handoffs.remove(&transfer_id)?;
        let reason = "transfer unacknowledged";
        let mut agent = decode(&handoff.image).into_owned();
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
            mailbox: handoff.mailbox,
            dest,
            park,
        })
    }

    /// Resume the handoff an in-flight journal record describes;
    /// `agent` is the record's bytes decoded into a handle that keeps
    /// them as its image, so resending and re-journaling copy the
    /// record. Its timer is armed to fire at once: the ordinary
    /// [`due`](Self::due) re-drives it. A phase that is not in flight
    /// restores nothing.
    pub fn restore(&mut self, agent: SharedNaplet, phase: JournalPhase, out: &mut Outbox) {
        let JournalPhase::InFlight {
            transfer_id,
            dest,
            checkpoint,
            attempt,
            action,
        } = phase
        else {
            return;
        };
        let handoff = Handoff {
            id: agent.id().clone(),
            image: agent
                .wire_bytes()
                .expect("a handle decoded from a record holds the record's bytes"),
            mailbox: Mailbox::new(),
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
        write: impl FnOnce(&NapletId, &Arc<Vec<u8>>, &JournalPhase) -> R,
    ) -> Option<R> {
        let handoff = self.handoffs.get_mut(&transfer_id)?;
        Some(handoff.view(transfer_id, write))
    }

    /// Note the verdict on `Transfer` `transfer_id` from `origin`, given
    /// at `at` (`refused`: its reason), unless one was noted before.
    /// Recovery replays the journal's durable notes through here.
    pub fn note_verdict(
        &mut self,
        origin: &str,
        transfer_id: u64,
        at: Millis,
        refused: Option<String>,
    ) {
        let key = (origin.to_string(), transfer_id);
        self.seen.entry(key).or_insert((at, refused));
    }

    /// Forget verdicts older than `retention_ms` (counted).
    pub fn sweep(&mut self, now: Millis, retention_ms: u64) {
        let before = self.seen.len();
        self.seen.retain(|_, (at, _)| now.since(*at) < retention_ms);
        self.seen_evicted += (before - self.seen.len()) as u64;
    }

    /// Outbound handoffs awaiting an acknowledgement.
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

    /// The one attempt in `out`: where the `Transfer` went, its
    /// envelope, and the delay of the `TransferTimeout` armed right
    /// behind it for the same attempt. The agent carries the one
    /// unread message [`open`] gave it.
    fn one_attempt(out: &mut Outbox) -> (String, TransferEnvelope, u64) {
        let mut sent = out.take().into_iter();
        let (
            Some(Output::Send {
                to,
                wire: Wire::TransferWithMail(envelope, mail),
            }),
            Some(Output::Schedule { delay_ms, event }),
        ) = (sent.next(), sent.next())
        else {
            panic!("an attempt is a Transfer with the mail and its timer");
        };
        assert_eq!(mail, self::mail(envelope.naplet.id()));
        let LocalEvent::TransferTimeout { attempt, .. } = event else {
            panic!("a Transfer arms a TransferTimeout");
        };
        assert_eq!(attempt, envelope.attempt);
        assert!(sent.next().is_none(), "one attempt at a time");
        (to, envelope, delay_ms)
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
    /// unread message, at 10 ms: the agent, the cursor before the step,
    /// and the outbox it was opened through.
    fn open(
        nav: &mut Navigator,
        journal: &mut Journal,
        route: Pattern,
    ) -> (SharedNaplet, Cursor, Outbox) {
        let (agent, action, dest, checkpoint) = departing(route);
        let mailbox = mail(agent.id());
        let mut out = outbox(10);
        let cp = checkpoint.clone();
        let back = nav.open(
            9,
            agent.clone(),
            mailbox,
            action,
            dest,
            cp,
            journal,
            &mut out,
        );
        assert!(back.is_none(), "an agent that encodes leaves");
        (agent, checkpoint, out)
    }

    fn ring() -> Pattern {
        Pattern::seq_of_hosts(&["b", "c"], Some(ActionSpec::ReportHome))
    }

    /// (image, phase) as the journal would record it.
    fn view(nav: &mut Navigator, transfer_id: u64) -> Option<(Vec<u8>, JournalPhase)> {
        nav.journal_view(transfer_id, |_, image, phase| {
            (image.to_vec(), phase.clone())
        })
    }

    fn due(nav: &mut Navigator, attempt: u32, now: u64) -> (Option<Failed>, Outbox) {
        let (mut journal, mut out) = (Journal::in_memory(), outbox(now));
        let failed = nav.due(9, attempt, &mut journal, &mut out);
        (failed, out)
    }

    fn ack(nav: &mut Navigator, from: &str, id: &NapletId, refused: Option<&str>) -> Option<Acked> {
        let (mut journal, mut out) = (Journal::in_memory(), outbox(20));
        let refused = refused.map(str::to_string);
        nav.ack(9, from, id, refused, &mut journal, &mut out)
    }

    #[test]
    fn open_journals_then_sends_the_live_handle_and_keeps_its_image() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, checkpoint, mut out) = open(&mut nav, &mut journal, ring());
        let image = agent.wire_bytes().unwrap();
        let (to, envelope, delay) = one_attempt(&mut out);
        assert_eq!(to, "b");
        assert_eq!(delay, nav.retry.jittered_backoff_ms(9, 1));
        assert_eq!((envelope.transfer_id, envelope.attempt), (9, 1));
        assert_eq!(envelope.action, Some(ActionSpec::ReportHome));
        assert!(Arc::ptr_eq(&envelope.naplet.wire_bytes().unwrap(), &image));
        assert_eq!(nav.pending_count(), 1);
        assert_eq!(journal.naplet_records().len(), 1, "journaled as it opened");
        let (recorded, phase) = view(&mut nav, 9).unwrap();
        assert_eq!(recorded, *image);
        let expected = JournalPhase::InFlight {
            transfer_id: 9,
            dest: "b".into(),
            checkpoint,
            attempt: 1,
            action: Some(ActionSpec::ReportHome),
        };
        assert_eq!(phase, expected);
        assert_eq!(journal.naplet_records()[0].1.phase, expected);
        // the view hands the checkpoint back: a second look is the same
        assert_eq!(view(&mut nav, 9).unwrap().1, expected);
        assert!(view(&mut nav, 8).is_none());
        let sent = out.obs().tracer.events().into_iter().any(|e| {
            matches!(e.kind, TraceKind::TransferSent { transfer_id: 9, ref dest } if dest == "b")
        });
        assert!(sent);
    }

    #[test]
    fn a_refusal_hands_the_agent_and_its_mail_back() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, checkpoint, _) = open(&mut nav, &mut journal, ring());
        let mut out = outbox(20);
        let refused = Some("full".to_string());
        let acked = nav.ack(9, "b", agent.id(), refused, &mut journal, &mut out);
        let Some(Acked::Refused(back, mailbox)) = acked else {
            panic!("a refusal gives the agent back");
        };
        assert_eq!(mailbox.len(), 1, "the unread mail stayed here");
        assert_eq!(&back, agent.get(), "as it left");
        assert_ne!(back.cursor(), &checkpoint, "past the refused step");
        assert_eq!(nav.pending_count(), 0);
        assert!(out.take().is_empty());
        assert!(logged(&out, "LANDING denied for"));
        assert_eq!(out.obs().metrics.counter("handoff.commits"), 0);
    }

    #[test]
    fn an_ack_commits_only_the_handoff_it_acknowledges() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, _, _) = open(&mut nav, &mut journal, ring());
        let id = agent.id().clone();
        let other = NapletId::new("czxu", "a", Millis(2)).unwrap();
        let mut out = outbox(25);
        for (from, whom, transfer_id) in [("c", &id, 9), ("b", &other, 9), ("b", &id, 8)] {
            for refused in [None, Some("full".to_string())] {
                let acked = nav.ack(transfer_id, from, whom, refused, &mut journal, &mut out);
                assert!(acked.is_none(), "stray");
            }
        }
        assert_eq!(nav.pending_count(), 1);
        assert_eq!(out.lines().len(), 6, "each stray ack logged");
        assert!(due(&mut nav, 1, 20).0.is_none());
        let acked = nav.ack(9, "b", &id, None, &mut journal, &mut out);
        let Some(Acked::Admitted { id: landed, dest }) = acked else {
            panic!("the destination's ack admits");
        };
        assert_eq!((&landed, dest.as_str()), (&id, "b"));
        assert_eq!(nav.pending_count(), 0);
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
        assert!(
            ack(&mut nav, "b", &id, None).is_none(),
            "a second ack is stray"
        );
        assert!(due(&mut nav, 2, 30).1.take().is_empty());
    }

    #[test]
    fn a_due_timer_resends_the_transfer_until_the_budget_is_spent() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, _, _) = open(&mut nav, &mut journal, ring());
        let image = agent.wire_bytes().unwrap();
        let (failed, mut out) = due(&mut nav, 2, 20);
        assert!(failed.is_none() && out.take().is_empty(), "not armed");
        let (failed, mut out) = due(&mut nav, 1, 20);
        assert!(failed.is_none(), "one attempt of three is not the budget");
        assert!(logged(
            &out,
            &format!("RETRY {} -> b (attempt 2)", agent.id())
        ));
        let phase = (out.obs().tracer.events().into_iter()).find_map(|e| match e.kind {
            TraceKind::Retransmit { phase, .. } => Some(phase),
            _ => None,
        });
        assert_eq!(phase.as_deref(), Some("transfer"));
        let (to, envelope, delay) = one_attempt(&mut out);
        assert_eq!((to.as_str(), envelope.attempt), ("b", 2));
        assert_eq!(delay, nav.retry.jittered_backoff_ms(9, 2));
        assert_eq!((envelope.transfer_id, envelope.attempt), (9, 2));
        assert_eq!(envelope.naplet.wire_bytes().unwrap(), image);
        assert!(matches!(
            view(&mut nav, 9).unwrap().1,
            JournalPhase::InFlight { attempt: 2, .. }
        ));
        assert!(due(&mut nav, 1, 21).1.take().is_empty(), "superseded");
    }

    #[test]
    fn a_spent_budget_hands_the_agent_back_rewound_and_says_whether_to_park() {
        for (route, park) in [
            (ring(), true),
            (
                Pattern::alt(Pattern::singleton("b"), Pattern::singleton("c")),
                false,
            ),
        ] {
            let (mut nav, mut journal) = (navigator(), Journal::in_memory());
            let (_, checkpoint, _) = open(&mut nav, &mut journal, route);
            for attempt in 1..RETRIES {
                assert!(due(&mut nav, attempt, 20).0.is_none());
            }
            let (failed, mut out) = due(&mut nav, RETRIES, 50);
            let failed = failed.expect("the last attempt spends the budget");
            assert!(out.take().is_empty(), "nothing more is sent");
            assert_eq!(failed.dest, "b");
            assert_eq!(failed.park, park);
            assert!(logged(&out, "HANDOFF failed"));
            assert_eq!(logged(&out, "PARK"), park);
            assert_eq!(failed.mailbox.len(), 1, "unread mail");
            let failures = failed.agent.nav_log.failures();
            assert_eq!(failures.len(), 1);
            assert_eq!(
                (failures[0].host.as_str(), failures[0].at),
                ("b", Millis(50))
            );
            assert_eq!(
                (failures[0].attempts, &failures[0].reason[..]),
                (RETRIES, "transfer unacknowledged")
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
    fn restore_inverts_the_journal_view() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        open(&mut nav, &mut journal, ring());
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
        // the immediate timer re-drives the handoff with the record's bytes
        let (failed, mut out) = due(&mut recovered, 2, 99);
        assert!(failed.is_none(), "attempt 2 of {RETRIES} leaves one");
        // the unread mail was memory only: it went with the crash
        let Some(Output::Send {
            wire: Wire::Transfer(envelope),
            ..
        }) = out.take().into_iter().next()
        else {
            panic!("a restored handoff resends its Transfer");
        };
        assert_eq!(*envelope.naplet.wire_bytes().unwrap(), image);
        assert_eq!(view(&mut recovered, 9).unwrap().0, image);
        let agent: SharedNaplet = codec::from_bytes(&image).unwrap();
        recovered.restore(agent, JournalPhase::Parked, &mut out);
        assert!(out.take().is_empty(), "a resident record restores nothing");
        assert_eq!(recovered.pending_count(), 1);
    }

    #[test]
    fn a_noted_verdict_answers_until_it_is_swept() {
        let (agent, action, _, _) = departing(ring());
        let mut nav = navigator();
        nav.note_verdict("b", 4, Millis(100), None);
        nav.note_verdict("b", 4, Millis(300), Some("full".into()));
        nav.note_verdict("c", 4, Millis(300), Some("full".into()));
        // how a retransmission from `origin` is answered, with room or
        // not: (admitted here, refused)
        let answer = |nav: &mut Navigator, origin: &str, room: bool| {
            let (mut journal, mut out) = (Journal::in_memory(), outbox(1_100));
            let envelope = TransferEnvelope {
                naplet: agent.clone(),
                action: action.clone(),
                transfer_id: 4,
                attempt: 2,
            };
            let decision = match room {
                true => Ok(()),
                false => Err(NapletError::Service("full".into())),
            };
            let taken = nav.receive(origin, envelope, decision, &mut journal, &mut out);
            let Some(Output::Send {
                wire: Wire::TransferAck { refused, .. },
                ..
            }) = out.take().pop()
            else {
                panic!("every attempt is answered");
            };
            (taken.is_some(), refused.is_some())
        };
        assert_eq!(
            answer(&mut nav, "b", false),
            (false, false),
            "the first verdict stands"
        );
        assert_eq!(
            answer(&mut nav, "c", true),
            (false, true),
            "ids are per origin"
        );
        nav.sweep(Millis(1_099), 1_000);
        assert_eq!(nav.seen_evicted, 0);
        nav.sweep(Millis(1_100), 1_000);
        assert_eq!(nav.seen_evicted, 1, "b's note aged out, c's did not");
        assert_eq!(answer(&mut nav, "b", true), (true, false), "decided afresh");
        assert_eq!(answer(&mut nav, "c", true), (false, true));
    }

    #[test]
    fn every_transfer_attempt_gets_the_first_verdict() {
        let (agent, action, _, _) = departing(ring());
        let envelope = |attempt| TransferEnvelope {
            naplet: agent.clone(),
            action: action.clone(),
            transfer_id: 4,
            attempt,
        };
        let full = || Err(NapletError::Service("full".into()));
        for admitted_first in [true, false] {
            let (mut nav, mut journal) = (navigator(), Journal::in_memory());
            let mut out = outbox(100);
            let first = if admitted_first { Ok(()) } else { full() };
            let taken = nav.receive("o", envelope(1), first, &mut journal, &mut out);
            assert_eq!(taken.is_some(), admitted_first);
            // the room changed: a retransmission is answered as before
            let again = if admitted_first { full() } else { Ok(()) };
            let taken = nav.receive("o", envelope(2), again, &mut journal, &mut out);
            assert!(taken.is_none(), "decided once, admitted at most once");
            let verdicts: Vec<_> = (out.take().into_iter())
                .map(|o| match o {
                    Output::Send {
                        to,
                        wire:
                            Wire::TransferAck {
                                transfer_id: 4,
                                id,
                                refused,
                            },
                    } if to == "o" && id == *agent.id() => refused.is_none(),
                    other => panic!("not an ack to o: {other:?}"),
                })
                .collect();
            assert_eq!(verdicts, [admitted_first; 2]);
            assert!(logged(&out, "duplicate TRANSFER"));
            let reason = (!admitted_first).then(|| "service error: full".to_string());
            let note = (("o".to_string(), 4), Millis(100), reason);
            assert_eq!(journal.seen(), [note], "the verdict is journaled");
            let decisions = out.obs().tracer.events().into_iter();
            let decisions = decisions.filter_map(|e| match e.kind {
                TraceKind::LandingDecision { granted, .. } => Some(granted),
                _ => None,
            });
            assert_eq!(decisions.collect::<Vec<_>>(), [admitted_first]);
        }
    }

    #[test]
    fn the_status_rows_count_open_handoffs_and_parked_agents() {
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        let (agent, _, _) = open(&mut nav, &mut journal, ring());
        nav.parked.insert(agent.id().clone(), agent.get().clone());
        let mut report = StatusReport::default();
        nav.fill_status(&mut report);
        assert_eq!((report.pending_transfers, report.parked), (1, 1));
    }
}
