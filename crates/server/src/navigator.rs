//! The Navigator: the acknowledged handoff as one state machine
//! (paper §2.2). DESIGN.md §4.4 has the state diagram, the decisions
//! this module owns and the test that holds each invariant.
//!
//! One module owns every table the handoff needs: outbound custody by
//! transfer id; per origin, its floor, the verdict this host gave each
//! of its transfers at or above it and the arrival acks that came before
//! their `Transfer`; and the agents parked here. Its transitions are handed
//! the [`Outbox`] and the journal: each sends its own frames with their
//! timers, journals the handoff where it stands, and records its own
//! metrics and trace events. What comes back is only what
//! the server continues with — an agent to admit, where an admitted
//! agent landed, the agent after a refusal or a failure.

use std::collections::btree_map::OccupiedEntry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::error::Result;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{ActionSpec, Cursor};
use naplet_core::message::Mailbox;
use naplet_core::naplet::{Naplet, SharedNaplet};
use naplet_obs::{TraceKind, COUNT_BOUNDS, LATENCY_BOUNDS_MS};

use crate::events::{LocalEvent, Outbox, TransferEnvelope, Visit, Wire};
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

/// What this host knows of one origin's transfers, by transfer id.
#[derive(Default)]
struct Landings {
    /// The highest floor a noted `Transfer` carried: none below it can
    /// come again.
    floor: u64,
    /// The verdict on each `Transfer` at or above the floor (`None`:
    /// admitted): every attempt gets it, never a second decision.
    verdicts: BTreeMap<u64, Option<String>>,
    /// Arrival acks that came before their `Transfer`, and when.
    early_acks: HashMap<u64, Millis>,
}

/// The migration protocol of one server, both ends of it.
pub struct Navigator {
    retry: RetryPolicy,
    /// Outbound handoffs not yet acknowledged, by transfer id: the
    /// first is this host's floor.
    handoffs: BTreeMap<u64, Handoff>,
    /// What this host knows of each origin's transfers.
    seen: HashMap<Arc<str>, Landings>,
    /// Agents stranded here by a failed required hop, held for owners.
    pub parked: HashMap<NapletId, Naplet>,
}

impl Navigator {
    /// A navigator retrying under `retry`.
    pub fn new(retry: RetryPolicy) -> Navigator {
        Navigator {
            retry,
            handoffs: BTreeMap::new(),
            seen: HashMap::new(),
            parked: HashMap::new(),
        }
    }

    // ----------------- the destination's end -----------------

    /// What this host knows of `origin`'s transfers.
    fn landings(&mut self, origin: &str) -> &mut Landings {
        if !self.seen.contains_key(origin) {
            self.seen.insert(origin.into(), Landings::default());
        }
        self.seen.get_mut(origin).expect("inserted above")
    }

    /// A `Transfer` came from `from`, and `decision` is this host's
    /// landing decision on it. One below its origin's floor was acked:
    /// it is dropped and counted. Otherwise the first attempt's decision
    /// is the verdict, journaled before the ack leaves: every attempt — the
    /// previous ack may have been the frame that was lost — is answered
    /// with it, by a recovered receiver too. The envelope comes back, to
    /// be admitted, only the first time and only when admitted. A
    /// refusal drops the arrival ack that came before it.
    pub fn receive(
        &mut self,
        from: &str,
        envelope: TransferEnvelope,
        decision: Result<()>,
        journal: &mut Journal,
        out: &mut Outbox,
    ) -> Option<TransferEnvelope> {
        let transfer_id = envelope.transfer_id;
        let landings = self.landings(from);
        if transfer_id < landings.floor {
            out.count("handoff.below_floor", 1);
            return None;
        }
        let (fresh, refused) = match landings.verdicts.get(&transfer_id) {
            Some(refused) => (false, refused.clone()),
            None => {
                let refused = decision.err().map(|e| e.to_string());
                // the floor never falls; the notes below it go, one by one
                let floor = transfer_id.saturating_sub(envelope.floor_gap);
                landings.floor = landings.floor.max(floor);
                let below = |note: &OccupiedEntry<u64, _>| *note.key() < landings.floor;
                while let Some(note) = landings.verdicts.first_entry().filter(below) {
                    journal.note_seen(from, note.remove_entry().0, None, out);
                }
                landings.verdicts.insert(transfer_id, refused.clone());
                journal.note_seen(from, transfer_id, Some((landings.floor, &refused)), out);
                (true, refused)
            }
        };
        let id = envelope.naplet.id().clone();
        let granted = refused.is_none();
        if fresh {
            let counter = if granted {
                "landing.granted"
            } else {
                "landing.denied"
            };
            out.count(counter, 1);
            out.trace(Some(&id), || TraceKind::LandingDecision {
                origin: from.to_string(),
                granted,
                reason: refused.clone().unwrap_or_default(),
            });
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
        if !granted {
            landings.early_acks.remove(&transfer_id);
        }
        (fresh && granted).then_some(envelope)
    }

    /// An arrival ack for `visit` found no admitted agent waiting on
    /// it. Before the `Transfer` it opens — no verdict on that yet, and
    /// not below its origin's floor — it is held for the admission;
    /// after, it answered a visit opened, refused or acked: dropped.
    pub fn hold_ack(&mut self, visit: &Visit, now: Millis) {
        let (landings, t) = (self.landings(&visit.origin), visit.transfer_id);
        if t >= landings.floor && !landings.verdicts.contains_key(&t) {
            landings.early_acks.insert(t, now);
        }
    }

    /// Whether the arrival ack of the visit being admitted came first:
    /// it opens the visit at once, and only once.
    pub fn take_ack(&mut self, visit: &Visit) -> bool {
        let landings = self.seen.get_mut(visit.origin.as_str());
        landings.is_some_and(|l| l.early_acks.remove(&visit.transfer_id).is_some())
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
            Err(_) => {
                out.count("handoff.unencodable", 1);
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
        self.send(transfer_id, agent, out);
        None
    }

    /// Send the current attempt of `transfer_id` carrying `naplet` (and
    /// its unread mail, if any) and this host's floor, the lowest id it
    /// holds un-acked, and arm its timer (backoff with jitter).
    fn send(&self, transfer_id: u64, naplet: SharedNaplet, out: &mut Outbox) {
        let handoff = &self.handoffs[&transfer_id];
        let attempt = handoff.attempt;
        let floor = *self.handoffs.keys().next().expect("`transfer_id` is open");
        let envelope = TransferEnvelope {
            naplet,
            action: handoff.action.clone(),
            transfer_id,
            attempt,
            floor_gap: transfer_id - floor,
        };
        let transfer = if handoff.mailbox.is_empty() {
            Wire::Transfer(envelope)
        } else {
            Wire::TransferWithMail(envelope, handoff.mailbox.clone())
        };
        out.send(handoff.dest.clone(), transfer);
        let timeout_ms = self.retry.jittered_backoff_ms(transfer_id, attempt);
        let timeout = LocalEvent::TransferTimeout {
            transfer_id,
            attempt,
        };
        out.after(timeout_ms, timeout);
    }

    /// A `TransferAck` for `transfer_id` naming `id` came from `from`,
    /// `refused` for a reason or admitting the agent. Only the handoff
    /// it answers — to that host, of that agent — ends: its journal
    /// record retires (an admitting destination journaled the agent
    /// before acking) and custody goes to the destination or back to
    /// the agent. Anything else is counted as stray and changes nothing.
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
            out.count("handoff.stray_acks", 1);
            return None;
        }
        let handoff = self.handoffs.remove(&transfer_id)?;
        let (id, dest, started, attempts) =
            (handoff.id, handoff.dest, handoff.started, handoff.attempt);
        if refused.is_some() {
            // the image is the agent as it left: past the refused step
            let agent = decode(&handoff.image).into_owned();
            return Some(Acked::Refused(agent, handoff.mailbox));
        }
        journal.retire_naplet(&id, out);
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
            out.count("handoff.retransmits", 1);
            out.trace(Some(id), || TraceKind::Retransmit {
                dest: dest.clone(),
                transfer_id,
                attempt: next,
                phase: "transfer".to_string(),
            });
            let naplet = decode(&handoff.image);
            self.send(transfer_id, naplet, out);
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
        out.count("handoff.failures", 1);
        out.trace(Some(id), || TraceKind::HandoffFailed {
            dest: dest.clone(),
            transfer_id,
            attempts: attempt,
            reason: reason.to_string(),
        });
        if park {
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

    /// Take back each origin's floor, the highest its notes hold, and
    /// verdicts from `journal`, after a crash (a note whose removal
    /// failed goes when the floor next rises).
    pub fn recover(&mut self, journal: &Journal) {
        for (origin, transfer_id, floor, refused) in journal.seen() {
            let landings = self.landings(&origin);
            landings.floor = landings.floor.max(floor);
            landings.verdicts.insert(transfer_id, refused);
        }
    }

    /// Forget early acks whose `Transfer` never came, older than
    /// `retention_ms`.
    pub fn sweep(&mut self, now: Millis, retention_ms: u64) {
        for landings in self.seen.values_mut() {
            (landings.early_acks).retain(|_, at| now.since(*at) < retention_ms);
        }
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

    /// How many events named `name` the outbox traced.
    fn traced(out: &Outbox, name: &str) -> usize {
        let events = out.obs().tracer.events();
        events.iter().filter(|e| e.kind.name() == name).count()
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
        assert_eq!(out.obs().metrics.counter("handoff.commits"), 0);
        let committed = traced(&out, "handoff.commit") + traced(&out, "journal.retire");
        assert_eq!(committed, 0, "nothing committed, the record kept");
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
        let strays = out.obs().metrics.counter("handoff.stray_acks");
        assert_eq!(strays, 6, "each stray ack counted");
        assert!(due(&mut nav, 1, 20).0.is_none());
        let acked = nav.ack(9, "b", &id, None, &mut journal, &mut out);
        let Some(Acked::Admitted { id: landed, dest }) = acked else {
            panic!("the destination's ack admits");
        };
        assert_eq!((&landed, dest.as_str()), (&id, "b"));
        assert_eq!(nav.pending_count(), 0);
        assert!(journal.naplet_records().is_empty(), "the record retired");
        let commits: Vec<_> = (out.obs().tracer.events().into_iter())
            .filter_map(|e| match e.kind {
                TraceKind::HandoffCommit {
                    dest,
                    transfer_id,
                    started,
                    attempts,
                } => Some((dest, transfer_id, started, attempts)),
                _ => None,
            })
            .collect();
        assert_eq!(commits, [("b".to_string(), 9, Millis(10), 2)]);
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
        let retry = (out.obs().tracer.events().into_iter()).find_map(|e| match e.kind {
            TraceKind::Retransmit {
                dest,
                attempt,
                phase,
                ..
            } => Some((e.naplet, dest, attempt, phase)),
            _ => None,
        });
        let id = Some(agent.id().to_string());
        let expected = (id, "b".to_string(), 2, "transfer".to_string());
        assert_eq!(retry, Some(expected));
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
            assert_eq!(traced(&out, "handoff.failed"), 1);
            assert_eq!(traced(&out, "handoff.parked"), usize::from(park));
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
    fn a_noted_verdict_answers_until_its_origins_floor_passes_it() {
        let (agent, action, _, _) = departing(ring());
        let (mut nav, mut journal) = (navigator(), Journal::in_memory());
        // transfer 4 of b admitted, of c refused, as the journal holds
        for (origin, refused) in [("b", None), ("c", Some("full".to_string()))] {
            journal.note_seen(origin, 4, Some((4, &refused)), &mut outbox(0));
        }
        nav.recover(&journal);
        // how `Transfer` `transfer_id` from `origin`, with its origin's
        // floor `gap` below it, is answered with room: (admitted here,
        // its verdict — `None` when no ack went out)
        let answer =
            |nav: &mut Navigator, journal: &mut Journal, origin: &str, transfer_id, gap| {
                let envelope = TransferEnvelope {
                    naplet: agent.clone(),
                    action: action.clone(),
                    transfer_id,
                    attempt: 2,
                    floor_gap: gap,
                };
                let mut out = outbox(1_000_000);
                let taken = nav.receive(origin, envelope, Ok(()), journal, &mut out);
                let refused = match out.take().pop() {
                    Some(Output::Send {
                        wire: Wire::TransferAck { refused, .. },
                        ..
                    }) => Some(refused.is_some()),
                    None => None,
                    Some(other) => panic!("not an ack: {other:?}"),
                };
                let below = out.obs().metrics.counter("handoff.below_floor");
                (taken.is_some(), refused, below)
            };
        assert_eq!(
            answer(&mut nav, &mut journal, "b", 4, 0),
            (false, Some(false), 0),
            "the first verdict stands"
        );
        assert_eq!(
            answer(&mut nav, &mut journal, "c", 4, 0),
            (false, Some(true), 0),
            "ids are per origin"
        );
        // b's next transfer lands with nothing of b's below it in flight
        assert_eq!(
            answer(&mut nav, &mut journal, "b", 6, 0),
            (true, Some(false), 0)
        );
        assert_eq!(
            answer(&mut nav, &mut journal, "b", 4, 0),
            (false, None, 1),
            "acked: dropped, counted"
        );
        assert_eq!(
            answer(&mut nav, &mut journal, "b", 5, 0),
            (false, None, 1),
            "below the floor too"
        );
        assert_eq!(
            answer(&mut nav, &mut journal, "c", 4, 0),
            (false, Some(true), 0),
            "c's floor is its own"
        );
        let notes = journal.seen().into_iter();
        let notes: Vec<_> = notes.map(|(o, t, floor, _)| (o, t, floor)).collect();
        let expected = [("b".to_string(), 6, 6), ("c".to_string(), 4, 4)];
        assert_eq!(notes, expected, "b's note below its floor left the journal");
        // a restarted host takes the floor back from the journal
        let mut nav = navigator();
        nav.recover(&journal);
        assert_eq!(
            answer(&mut nav, &mut journal, "b", 5, 1),
            (false, None, 1),
            "the floor survived"
        );
        assert_eq!(
            answer(&mut nav, &mut journal, "b", 6, 0),
            (false, Some(false), 0)
        );
    }

    /// A `DirAck` for a visit its origin's floor has passed is not held:
    /// its `Transfer` was acked, and its note may be gone.
    #[test]
    fn an_arrival_ack_below_the_floor_is_not_held() {
        let (agent, action, _, _) = departing(ring());
        let (mut nav, mut journal, mut out) = (navigator(), Journal::in_memory(), outbox(100));
        let envelope = TransferEnvelope {
            naplet: agent,
            action,
            transfer_id: 8,
            attempt: 1,
            floor_gap: 0,
        };
        assert!(nav
            .receive("o", envelope, Ok(()), &mut journal, &mut out)
            .is_some());
        for transfer_id in [3, 8, 9] {
            nav.hold_ack(&Visit::new("o", transfer_id), Millis(100));
        }
        let held = |nav: &mut Navigator, t| nav.take_ack(&Visit::new("o", t));
        assert!(!held(&mut nav, 3), "below the floor");
        assert!(!held(&mut nav, 8), "decided");
        assert!(held(&mut nav, 9), "its Transfer is still to come");
    }

    #[test]
    fn every_transfer_attempt_gets_the_first_verdict() {
        let (agent, action, _, _) = departing(ring());
        let envelope = |attempt| TransferEnvelope {
            naplet: agent.clone(),
            action: action.clone(),
            transfer_id: 4,
            attempt,
            floor_gap: 1,
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
            let duplicates = out.obs().tracer.events().into_iter();
            let duplicates = duplicates.filter_map(|e| match e.kind {
                TraceKind::TransferReceived { duplicate, .. } => Some(duplicate),
                _ => None,
            });
            assert_eq!(duplicates.collect::<Vec<_>>(), [false, true]);
            let reason = (!admitted_first).then(|| "service error: full".to_string());
            let note = ("o".to_string(), 4, 3, reason);
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
