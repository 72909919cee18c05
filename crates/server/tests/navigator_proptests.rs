//! Model tests of the navigator alone — outboxes and in-memory
//! journals, no server or runtime.
//!
//! The first runs random interleavings of opens, acks (admitting,
//! refusing, stray), due and stale timers, `Transfer`s received with
//! and without room and with their origin's floor, and crash-style
//! snapshot/restores against a reference model that is a map of
//! `transfer id → attempt`, one of `(origin, transfer id) → verdict` and
//! each origin's floor. After every step: each transfer id the model
//! holds is at exactly the attempt the model says (never past the
//! budget), nothing else is in custody, an answer the model calls stray
//! changed nothing and sent nothing, an agent leaves custody exactly
//! once (admitted, refused or failed), a `Transfer` is decided once —
//! every attempt answered with that verdict — until a higher floor of
//! its origin prunes its note, after which it is dropped unanswered,
//! the journal holds exactly the notes the model does, and restoring
//! from the journal reproduces all of it. What the navigator sends is
//! read off its outbox: every `Transfer` is followed by the
//! `TransferTimeout` for the same transfer id and attempt, carries the
//! lowest id held open as its floor, and a restored handoff arms that
//! timer at once.
//!
//! The second is the sticky-verdict law: one agent handed from an
//! origin to a destination under any interleaving of lost and
//! duplicated frames, retransmissions, the destination's room coming
//! and going, and either end crashing and recovering from its journal,
//! ends in exactly one custody — admitted at the destination once, or
//! back at the origin after a refusal, never both — and its unread mail
//! with it.
//!
//! The third is the at-most-once law across many handoffs: an origin
//! hands agent after agent to a destination under any delivery order,
//! loss and duplication of frames, timers, either end restarting — the
//! origin into its next incarnation — and any time passing between, and
//! no transfer is ever admitted twice; each one the origin committed was
//! admitted exactly once.
//!
//! The fourth is the arrival gate's share: whatever the order of a
//! visit's `DirAck`s and `Transfer`s, an ack that comes before its
//! `Transfer` is taken by the admission that follows, once; one that
//! comes after its verdict, whose landing is refused, or that its
//! origin's floor passed, is held for nothing.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::collection::vec;
use proptest::prelude::*;

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::credential::SigningKey;
use naplet_core::error::{NapletError, Result};
use naplet_core::id::NapletId;
use naplet_core::itinerary::{ActionSpec, Cursor, Itinerary, Pattern, Step};
use naplet_core::message::{Mailbox, Message, Sender};
use naplet_core::naplet::{AgentKind, Naplet, SharedNaplet};
use naplet_core::value::Value;
use naplet_obs::TraceKind;
use naplet_server::navigator::Acked;
use naplet_server::{
    Journal, JournalPhase, LocalEvent, Navigator, Outbox, Output, RetryPolicy, TransferEnvelope,
    Visit, Wire,
};

const BUDGET: u32 = 3;
const DEST: &str = "b";
const ORIGINS: [&str; 2] = ["b", "c"];

#[derive(Debug, Clone)]
enum Op {
    Open,
    /// A `TransferAck` for the `slot`-th open transfer.
    Ack {
        slot: usize,
        from_dest: bool,
        right_agent: bool,
        refused: bool,
    },
    /// A timer for the `slot`-th open transfer, armed for its current
    /// attempt plus `skew` (non-zero: a stale or never-armed timer).
    Due {
        slot: usize,
        skew: i32,
    },
    /// A timer or answer for a transfer nobody opened.
    Ghost,
    /// A `Transfer` received here, with or without room for it: its id
    /// `ahead` of what its origin's floor is here (below it when
    /// negative), its own floor `gap` below its id.
    Transfer {
        origin: usize,
        ahead: i64,
        gap: u64,
        room: bool,
    },
    /// Crash: rebuild the navigator from its journal views and notes.
    Restore,
    Tick(u64),
}

/// One step: `kind` picks the operation (and so weighs them), the rest
/// are its arguments. Answers are mostly the destination's own, about
/// its own agent (`a`, `b` non-zero three times in four).
fn op() -> impl Strategy<Value = Op> {
    let args = (0..20u8, 0..4usize, 0..4u8, 0..4u8, 1..400u64);
    args.prop_map(|(kind, slot, a, b, ms)| match kind {
        0..=2 => Op::Open,
        3..=7 => Op::Ack {
            slot,
            from_dest: a > 0,
            right_agent: b > 0,
            refused: (a + b) % 3 == 0,
        },
        8..=11 => Op::Due {
            slot,
            skew: [-1, 1, 0, 0][usize::from(a)],
        },
        12 => Op::Ghost,
        13..=16 => Op::Transfer {
            origin: usize::from(a % 2),
            ahead: i64::from(b) - 1,
            gap: ms % 4,
            room: ms % 3 > 0,
        },
        17 => Op::Restore,
        _ => Op::Tick(ms),
    })
}

fn navigator(budget: u32) -> Navigator {
    let retry = RetryPolicy {
        max_retries: budget,
        ..RetryPolicy::default()
    };
    Navigator::new(retry)
}

/// A fresh agent created at `at`, about to leave `a` for `b`: the
/// handle, the visit's action, the stop, the cursor before the step.
fn departing(at: u64) -> (SharedNaplet, Option<ActionSpec>, String, Cursor) {
    let key = SigningKey::new("czxu", b"secret");
    let it = Itinerary::new(Pattern::seq_of_hosts(&[DEST, "c"], None)).unwrap();
    let kind = AgentKind::Native;
    let mut naplet = Naplet::create(&key, "czxu", "a", Millis(at), "cb", kind, it, vec![]).unwrap();
    let checkpoint = naplet.cursor().clone();
    let Step::Visit { host, action } = naplet.advance() else {
        panic!("the route starts with a visit");
    };
    (SharedNaplet::new(naplet), action, host, checkpoint)
}

fn open(
    nav: &mut Navigator,
    journal: &mut Journal,
    out: &mut Outbox,
    transfer_id: u64,
    unread: usize,
) -> (NapletId, Cursor) {
    let (agent, action, host, checkpoint) = departing(transfer_id);
    let id = agent.id().clone();
    let mut mailbox = Mailbox::new();
    for seq in 0..unread as u64 {
        let owner = Sender::Owner("a".into());
        mailbox.deposit(Message::user(
            seq,
            owner,
            id.clone(),
            Millis(0),
            Value::Int(1),
        ));
    }
    let cp = checkpoint.clone();
    let opened = nav.open(transfer_id, agent, mailbox, action, host, cp, journal, out);
    assert!(opened.is_none(), "an agent that encodes leaves");
    (id, checkpoint)
}

/// The landing decision with or without room.
fn decision(room: bool) -> Result<()> {
    match room {
        true => Ok(()),
        false => Err(NapletError::ResourceExhausted {
            resource: "residents".into(),
            detail: "server full (1)".into(),
        }),
    }
}

/// Every open handoff as the journal would record it, by transfer id.
fn views(nav: &mut Navigator, ids: impl Iterator<Item = u64>) -> BTreeMap<u64, (Vec<u8>, String)> {
    ids.filter_map(|t| {
        let view = nav.journal_view(t, |id, image, phase| {
            (image.to_vec(), format!("{id} {phase:?}"))
        });
        Some((t, view?))
    })
    .collect()
}

/// A navigator rebuilt from `nav`'s journal: each of `open` from its
/// view, each verdict from the journal's notes, which give each
/// origin's floor back.
fn restored(
    nav: &mut Navigator,
    open: &[u64],
    journal: &Journal,
    budget: u32,
    out: &mut Outbox,
) -> Navigator {
    let mut recovered = navigator(budget);
    for t in open {
        let record = nav.journal_view(*t, |_, image, phase| (image.to_vec(), phase.clone()));
        let (image, phase) = record.expect("an open handoff has a view");
        let agent: SharedNaplet = codec::from_bytes(&image).unwrap();
        recovered.restore(agent, phase, out);
    }
    recovered.recover(journal);
    recovered
}

/// The `Transfer`s the outbox holds, in order, as `(transfer id,
/// attempt, floor)`: each goes to the destination and is followed by
/// the `TransferTimeout` for the same transfer id and attempt.
fn attempts(out: &mut Outbox) -> std::result::Result<Vec<(u64, u32, u64)>, TestCaseError> {
    let mut sent = out.take().into_iter();
    let mut found = Vec::new();
    while let Some(frame) = sent.next() {
        let Output::Send { to, wire } = frame else {
            return Err(TestCaseError::fail(format!(
                "{frame:?} with no frame before it"
            )));
        };
        prop_assert_eq!(to.as_str(), DEST);
        let Wire::Transfer(envelope) = wire else {
            return Err(TestCaseError::fail(format!("sent {wire:?}")));
        };
        let (t, attempt) = (envelope.transfer_id, envelope.attempt);
        let floor = t - envelope.floor_gap;
        let timer = sent.next();
        let armed = matches!(timer, Some(Output::Schedule {
            event: LocalEvent::TransferTimeout { transfer_id, attempt: a }, ..
        }) if transfer_id == t && a == attempt);
        prop_assert!(armed, "frame {}#{} is followed by {:?}", t, attempt, timer);
        found.push((t, attempt, floor));
    }
    Ok(found)
}

/// The one `TransferAck` in `out`: to whom, and its verdict.
fn the_ack(out: &mut Outbox) -> std::result::Result<(String, Option<String>), TestCaseError> {
    let sent = out.take();
    let [Output::Send {
        to,
        wire: Wire::TransferAck { refused, .. },
    }] = &sent[..]
    else {
        return Err(TestCaseError::fail(format!("not one ack: {sent:?}")));
    };
    Ok((to.clone(), refused.clone()))
}

/// The trace events recorded since the last call.
fn traced(out: &Outbox) -> Vec<TraceKind> {
    let events = out.obs().tracer.events();
    out.obs().tracer.clear();
    events.into_iter().map(|e| e.kind).collect()
}

proptest! {
    #[test]
    fn the_navigator_agrees_with_the_reference_model(ops in vec(op(), 1..80)) {
        let mut nav = navigator(BUDGET);
        let mut journal = Journal::in_memory();
        let mut out = Outbox::new("a");
        out.obs().enable_tracing();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        let mut agents: HashMap<u64, NapletId> = HashMap::new();
        let mut checkpoints: HashMap<u64, Cursor> = HashMap::new();
        let mut left: BTreeSet<u64> = BTreeSet::new();
        // (origin, transfer id) → refused, at or above the origin's floor
        let mut seen: BTreeMap<(usize, u64), bool> = BTreeMap::new();
        let mut floors = [0u64; 2];
        let mut below = 0;
        let (mut now, mut next_id) = (0u64, 0u64);
        let stranger = NapletId::new("czxu", "a", Millis(999_999)).unwrap();
        let (arriving, action, _, _) = departing(0);

        for op in ops {
            out.at(Millis(now));
            let open_ids: Vec<u64> = model.keys().copied().collect();
            let pick = |slot: usize| open_ids.get(slot % open_ids.len().max(1)).copied();
            let before = views(&mut nav, 1..=next_id);
            // `Some(t)`: the model says transfer `t` left custody in this step
            let mut leaves = None;
            let mut stray = false;
            // what the step must have sent: `(transfer id, attempt)`,
            // with the floor of what is open once the step opened it
            let mut expect_sent = Vec::new();
            match op {
                Op::Open => {
                    next_id += 1;
                    let (id, checkpoint) = open(&mut nav, &mut journal, &mut out, next_id, 0);
                    agents.insert(next_id, id);
                    checkpoints.insert(next_id, checkpoint);
                    model.insert(next_id, 1);
                    expect_sent.push((next_id, 1));
                }
                Op::Ack { slot, from_dest, right_agent, refused } => {
                    let Some(t) = pick(slot) else { continue };
                    let from = if from_dest { DEST } else { "c" };
                    let id = if right_agent { &agents[&t] } else { &stranger };
                    let reason = refused.then(|| "full".to_string());
                    let acked = nav.ack(t, from, id, reason, &mut journal, &mut out);
                    let commits: Vec<u32> = traced(&out).into_iter().filter_map(|kind| match kind {
                        TraceKind::HandoffCommit { transfer_id, attempts, .. } if transfer_id == t => {
                            Some(attempts)
                        }
                        _ => None,
                    }).collect();
                    if !(from_dest && right_agent) {
                        prop_assert!(acked.is_none(), "a stray ack answered");
                        prop_assert!(commits.is_empty(), "a stray ack committed");
                        stray = true;
                    } else {
                        match acked.expect("the awaited ack") {
                            Acked::Admitted { id, dest, .. } => {
                                prop_assert!(!refused);
                                prop_assert_eq!((&id, dest.as_str()), (&agents[&t], DEST));
                                prop_assert_eq!(commits, vec![model[&t]], "one commit");
                            }
                            Acked::Refused(agent, _) => {
                                prop_assert!(refused);
                                prop_assert!(commits.is_empty(), "a refusal committed");
                                prop_assert_eq!(agent.id(), &agents[&t]);
                                // back as it left: past the refused step
                                prop_assert!(agent.cursor() != &checkpoints[&t]);
                            }
                        }
                        leaves = Some(t);
                    }
                }
                Op::Due { slot, skew } => {
                    let Some(t) = pick(slot) else { continue };
                    let attempt = model[&t];
                    let armed = attempt.saturating_add_signed(skew);
                    match nav.due(t, armed, &mut journal, &mut out) {
                        Some(failed) => {
                            prop_assert_eq!((armed, attempt), (BUDGET, BUDGET));
                            prop_assert_eq!(failed.agent.id(), &agents[&t]);
                            prop_assert_eq!(failed.agent.cursor(), &checkpoints[&t]);
                            leaves = Some(t);
                        }
                        // a live timer: the Transfer again, one attempt on
                        None if armed == attempt => {
                            prop_assert!(attempt < BUDGET);
                            model.insert(t, attempt + 1);
                            expect_sent.push((t, attempt + 1));
                        }
                        None => stray = true,
                    }
                }
                Op::Ghost => {
                    let t = next_id + 7;
                    let acked = nav.ack(t, DEST, &stranger, None, &mut journal, &mut out);
                    prop_assert!(acked.is_none());
                    prop_assert!(nav.due(t, 1, &mut journal, &mut out).is_none());
                    stray = true;
                }
                Op::Transfer { origin, ahead, gap, room } => {
                    let transfer_id = floors[origin].saturating_add_signed(ahead);
                    let envelope = TransferEnvelope {
                        naplet: arriving.clone(),
                        action: action.clone(),
                        transfer_id,
                        attempt: 1,
                        floor_gap: gap.min(transfer_id),
                    };
                    let floor = transfer_id - envelope.floor_gap;
                    let from = ORIGINS[origin];
                    let admitted = nav.receive(from, envelope, decision(room), &mut journal, &mut out);
                    stray = true; // the origin's custody is untouched
                    if transfer_id < floors[origin] {
                        prop_assert!(admitted.is_none(), "admitted below the floor");
                        prop_assert!(out.take().is_empty(), "answered below the floor");
                        below += 1;
                        let counted = out.obs().metrics.counter("handoff.below_floor");
                        prop_assert_eq!(counted, below, "dropped and counted");
                        continue;
                    }
                    let fresh = !seen.contains_key(&(origin, transfer_id));
                    let refused = *seen.entry((origin, transfer_id)).or_insert(!room);
                    if fresh {
                        floors[origin] = floors[origin].max(floor);
                        seen.retain(|(o, t), _| *o != origin || *t >= floors[origin]);
                    }
                    prop_assert_eq!(admitted.is_some(), fresh && !refused, "admitted once");
                    let (to, verdict) = the_ack(&mut out)?;
                    prop_assert_eq!(to.as_str(), from);
                    prop_assert_eq!(verdict.is_some(), refused, "the first verdict, every time");
                }
                Op::Restore => {
                    nav = restored(&mut nav, &open_ids, &journal, BUDGET, &mut out);
                    let armed = out.take();
                    prop_assert_eq!(armed.len(), open_ids.len());
                    for (output, t) in armed.iter().zip(&open_ids) {
                        let timer = LocalEvent::TransferTimeout { transfer_id: *t, attempt: model[t] };
                        prop_assert!(
                            matches!(output, Output::Schedule { delay_ms: 0, event } if *event == timer),
                            "restoring {} armed {:?}", t, output
                        );
                    }
                    stray = true; // restore ∘ journal-view is the identity
                }
                Op::Tick(ms) => now += ms,
            }

            let floor = model.keys().next().copied();
            let expect_sent: Vec<_> = (expect_sent.into_iter())
                .map(|(t, attempt)| (t, attempt, floor.unwrap_or(t)))
                .collect();
            prop_assert_eq!(attempts(&mut out)?, expect_sent, "what the step sent");
            let mut notes: BTreeMap<(usize, u64), bool> = BTreeMap::new();
            let mut journaled: BTreeMap<usize, u64> = BTreeMap::new();
            for (origin, t, floor, refused) in journal.seen() {
                let o = ORIGINS.iter().position(|n| *n == origin).unwrap();
                let highest = journaled.entry(o).or_default();
                *highest = (*highest).max(floor);
                notes.insert((o, t), refused.is_some());
            }
            for (o, floor) in journaled {
                prop_assert_eq!(floor, floors[o], "the highest journaled floor");
            }
            prop_assert_eq!(&notes, &seen, "the journal's notes are the model's");
            traced(&out);
            if let Some(t) = leaves {
                model.remove(&t);
                prop_assert!(left.insert(t), "transfer {} left custody twice", t);
            }
            let after = views(&mut nav, 1..=next_id);
            if stray {
                prop_assert_eq!(&after, &before, "a no-op changed custody");
            }
            prop_assert_eq!(nav.pending_count(), model.len());
            prop_assert_eq!(after.len(), model.len(), "custody the model does not know");
            for (t, attempt) in &model {
                prop_assert!(!left.contains(t), "transfer {} is both open and gone", t);
                prop_assert!(*attempt <= BUDGET);
                let record = nav.journal_view(*t, |_, _, phase| phase.clone());
                let Some(JournalPhase::InFlight { attempt: journaled, checkpoint, .. }) = record
                else {
                    panic!("transfer {t} is open in the model only");
                };
                prop_assert_eq!(journaled, *attempt);
                prop_assert_eq!(&checkpoint, &checkpoints[t], "the view kept the checkpoint");
            }
        }
    }
}

/// One event of the two-host handoff.
#[derive(Debug, Clone)]
enum Hop {
    /// Deliver the `i`-th `Transfer` in flight to the destination;
    /// `keep` leaves a copy in flight (a duplicate to come).
    Transfer { i: usize, keep: bool },
    /// Deliver the `i`-th `TransferAck` in flight to the origin.
    Ack { i: usize, keep: bool },
    /// Lose the `i`-th frame in flight either way.
    Lose(usize),
    /// The origin's timer for its current attempt comes due.
    Due,
    /// The destination's room comes or goes.
    Room(bool),
    /// The destination crashes and recovers from its journal.
    CrashDest,
    /// The origin crashes and recovers from its journal.
    CrashOrigin,
}

fn hop() -> impl Strategy<Value = Hop> {
    (0..14u8, 0..4usize, any::<bool>()).prop_map(|(kind, i, keep)| match kind {
        0..=3 => Hop::Transfer { i, keep },
        4..=6 => Hop::Ack { i, keep },
        7 => Hop::Lose(i),
        8..=9 => Hop::Due,
        10..=11 => Hop::Room(keep),
        12 => Hop::CrashDest,
        _ => Hop::CrashOrigin,
    })
}

/// The handoff's frames in flight: `Transfer`s (with the mail they
/// carry) to the destination and `TransferAck`s back.
#[derive(Default)]
struct Net {
    transfers: Vec<(TransferEnvelope, Mailbox)>,
    acks: Vec<(u64, NapletId, Option<String>)>,
}

impl Net {
    fn collect(&mut self, out: &mut Outbox) {
        for output in out.take() {
            match output {
                Output::Send {
                    wire: Wire::Transfer(envelope),
                    ..
                } => self.transfers.push((envelope, Mailbox::new())),
                Output::Send {
                    wire: Wire::TransferWithMail(envelope, mail),
                    ..
                } => self.transfers.push((envelope, mail)),
                Output::Send {
                    wire:
                        Wire::TransferAck {
                            transfer_id,
                            id,
                            refused,
                        },
                    ..
                } => self.acks.push((transfer_id, id, refused)),
                _ => {}
            }
        }
    }
}

/// Where the agent ended: admitted at the destination (how often), or
/// back at the origin (how often), and where its unread mail did.
#[derive(Debug, Default, PartialEq)]
struct Custody {
    admitted: u32,
    taken_back: u32,
    mail_admitted: usize,
    mail_back: usize,
}

/// The destination receives `envelope` with or without `room`: what it
/// admits is counted, its ack put in flight. Whether the ack carries
/// the first verdict it gave.
#[allow(clippy::too_many_arguments)]
fn land(
    dest: &mut Navigator,
    journal: &mut Journal,
    out: &mut Outbox,
    (envelope, mail): (TransferEnvelope, Mailbox),
    room: bool,
    custody: &mut Custody,
    verdict: &mut Option<bool>,
    net: &mut Net,
) -> bool {
    let admitted = dest.receive("a", envelope, decision(room), journal, out);
    if admitted.is_some() {
        custody.admitted += 1;
        custody.mail_admitted += mail.len();
    }
    let before = net.acks.len();
    net.collect(out);
    let refused = net.acks[before].2.is_some();
    *verdict.get_or_insert(refused) == refused
}

/// The origin hears `ack`: whether it ended the handoff. A refusal
/// takes the agent back.
fn settle(
    origin: &mut Navigator,
    journal: &mut Journal,
    out: &mut Outbox,
    (t, id, refused): (u64, NapletId, Option<String>),
    custody: &mut Custody,
) -> bool {
    match origin.ack(t, DEST, &id, refused, journal, out) {
        Some(Acked::Refused(_, mailbox)) => {
            custody.taken_back += 1;
            custody.mail_back += mailbox.len();
            true
        }
        Some(Acked::Admitted { .. }) => true,
        None => false,
    }
}

proptest! {
    #[test]
    fn a_verdict_sticks_and_the_agent_ends_in_exactly_one_custody(
        start_room in any::<bool>(),
        hops in vec(hop(), 0..60),
    ) {
        // a budget the run cannot spend: a handoff given up with its
        // agent admitted is the failure path, a different law
        const PATIENT: u32 = 1_000;
        let (mut origin, mut dest) = (navigator(PATIENT), navigator(PATIENT));
        let (mut origin_journal, mut dest_journal) = (Journal::in_memory(), Journal::in_memory());
        let (mut out_a, mut out_b) = (Outbox::new("a"), Outbox::new(DEST));
        let (mut net, mut custody) = (Net::default(), Custody::default());
        let mut room = start_room;
        // the verdict the destination gave first, once it gave one
        let mut verdict: Option<bool> = None;
        let (id, _) = open(&mut origin, &mut origin_journal, &mut out_a, 1, 1);
        net.collect(&mut out_a);
        let mut attempt = 1;
        let (mut open_handoff, mut origin_crashed) = (true, false);

        for (step, event) in hops.into_iter().enumerate() {
            let now = Millis(10 * step as u64);
            out_a.at(now);
            out_b.at(now);
            match event {
                Hop::Transfer { i, keep } if !net.transfers.is_empty() => {
                    let i = i % net.transfers.len();
                    let envelope = match keep {
                        true => net.transfers[i].clone(),
                        false => net.transfers.remove(i),
                    };
                    let same = land(&mut dest, &mut dest_journal, &mut out_b, envelope,
                                    room, &mut custody, &mut verdict, &mut net);
                    prop_assert!(same, "a retransmission got another verdict");
                }
                Hop::Ack { i, keep } if !net.acks.is_empty() => {
                    let i = i % net.acks.len();
                    let ack = match keep {
                        true => net.acks[i].clone(),
                        false => net.acks.remove(i),
                    };
                    if settle(&mut origin, &mut origin_journal, &mut out_a, ack, &mut custody) {
                        open_handoff = false;
                    }
                }
                Hop::Lose(i) => {
                    let (t, a) = (net.transfers.len(), net.acks.len());
                    if i < t {
                        net.transfers.remove(i);
                    } else if i - t < a {
                        net.acks.remove(i - t);
                    }
                }
                Hop::Due if open_handoff => {
                    prop_assert!(origin.due(1, attempt, &mut origin_journal, &mut out_a).is_none());
                    attempt += 1;
                    net.collect(&mut out_a);
                }
                Hop::Room(now_room) => room = now_room,
                Hop::CrashDest => {
                    // what it admitted is durable (journaled before the
                    // ack); its verdicts are only the journal's notes
                    dest = restored(&mut dest, &[], &dest_journal, PATIENT, &mut out_b);
                }
                Hop::CrashOrigin if open_handoff => {
                    origin_crashed = true;
                    origin = restored(&mut origin, &[1], &origin_journal, PATIENT, &mut out_a);
                    out_a.take(); // the immediate timer: `Due` fires it
                }
                _ => {}
            }
        }
        // the network heals: retransmit until the origin hears an answer
        while open_handoff {
            out_a.at(Millis(1_000_000));
            prop_assert!(origin.due(1, attempt, &mut origin_journal, &mut out_a).is_none());
            attempt += 1;
            net.collect(&mut out_a);
            let envelope = net.transfers.pop().expect("the retransmission");
            let same = land(&mut dest, &mut dest_journal, &mut out_b, envelope,
                            room, &mut custody, &mut verdict, &mut net);
            prop_assert!(same, "a retransmission got another verdict");
            let ack = net.acks.pop().expect("the answer");
            open_handoff = !settle(&mut origin, &mut origin_journal, &mut out_a, ack, &mut custody);
        }
        prop_assert_eq!(origin.pending_count(), 0);
        prop_assert_eq!(custody.admitted + custody.taken_back, 1, "{} in {:?}", id, custody);
        let admitted = verdict == Some(false);
        prop_assert_eq!(custody.admitted == 1, admitted);
        // the unread mail goes where the agent goes, unless a crash of
        // the origin (which held it in memory only) took it
        let (here, there) = (custody.mail_admitted, custody.mail_back);
        prop_assert!(here == 0 || admitted, "mail admitted beside a refusal");
        prop_assert!(there == 0 || !admitted, "mail back beside an admission");
        prop_assert!(here + there <= 1, "the mail was duplicated: {:?}", custody);
        if !origin_crashed {
            prop_assert_eq!(here + there, 1, "the mail was lost: {:?}", custody);
        }
    }
}

/// One event of an origin handing agents, one handoff each, to a
/// destination.
#[derive(Debug, Clone)]
enum Flow {
    /// The origin opens a handoff under its next transfer id.
    Open,
    /// Deliver the `i`-th `Transfer` in flight, with or without room
    /// for it; `keep` leaves a copy in flight (a duplicate to come).
    Transfer { i: usize, keep: bool, room: bool },
    /// Deliver the `i`-th `TransferAck` in flight to the origin.
    Ack { i: usize, keep: bool },
    /// Lose the `i`-th frame in flight either way.
    Lose(usize),
    /// The timer of the `i`-th open handoff comes due.
    Due(usize),
    /// Time passes, up to years, and the destination sweeps by age as a
    /// server does.
    Wait(u64),
    /// The origin crashes and restarts into its next incarnation.
    CrashOrigin,
    /// The destination crashes and recovers from its journal.
    CrashDest,
}

fn flow() -> impl Strategy<Value = Flow> {
    let args = (0..18u8, 0..6usize, any::<bool>(), any::<bool>(), 0..36u32);
    args.prop_map(|(kind, i, keep, room, exp)| match kind {
        0..=2 => Flow::Open,
        3..=7 => Flow::Transfer { i, keep, room },
        8..=10 => Flow::Ack { i, keep },
        11 => Flow::Lose(i),
        12..=13 => Flow::Due(i),
        14 => Flow::Wait(1 << exp),
        15 => Flow::CrashOrigin,
        _ => Flow::CrashDest,
    })
}

/// The destination receives `frame` with or without `room`: the
/// transfer it admits is counted, its answer (if any) put in flight.
fn deliver(
    dest: &mut Navigator,
    journal: &mut Journal,
    out: &mut Outbox,
    (envelope, _): (TransferEnvelope, Mailbox),
    room: bool,
    admitted: &mut BTreeMap<u64, u32>,
    net: &mut Net,
) {
    let t = envelope.transfer_id;
    if dest
        .receive("a", envelope, decision(room), journal, out)
        .is_some()
    {
        *admitted.entry(t).or_default() += 1;
    }
    net.collect(out);
}

proptest! {
    #[test]
    fn each_transfer_is_admitted_at_most_once(flows in vec(flow(), 0..120)) {
        let (mut origin, mut dest) = (navigator(BUDGET), navigator(BUDGET));
        let (mut origin_journal, mut dest_journal) = (Journal::in_memory(), Journal::in_memory());
        let (mut out_a, mut out_b) = (Outbox::new("a"), Outbox::new(DEST));
        let mut net = Net::default();
        // the origin's ids, as a server issues them: its incarnation
        // above a counter the incarnation restarts
        let (mut life, mut counter) = (0u64, 0u64);
        // open handoffs: transfer id → attempt, and each one's agent
        let mut open_at: BTreeMap<u64, u32> = BTreeMap::new();
        let mut agents: HashMap<u64, NapletId> = HashMap::new();
        // admissions per transfer id; the ids the origin committed
        let mut admitted: BTreeMap<u64, u32> = BTreeMap::new();
        let mut committed: BTreeSet<u64> = BTreeSet::new();
        let mut now = 0u64;

        let answer = |origin: &mut Navigator, journal: &mut Journal, out: &mut Outbox,
                      (t, id, refused): (u64, NapletId, Option<String>),
                      open_at: &mut BTreeMap<u64, u32>, committed: &mut BTreeSet<u64>| {
            match origin.ack(t, DEST, &id, refused, journal, out) {
                Some(Acked::Admitted { .. }) => {
                    committed.insert(t);
                    open_at.remove(&t);
                }
                Some(Acked::Refused(..)) => {
                    open_at.remove(&t);
                }
                None => {}
            }
        };
        for event in flows {
            out_a.at(Millis(now));
            out_b.at(Millis(now));
            match event {
                Flow::Open => {
                    counter += 1;
                    let t = (life << 32) | counter;
                    let (id, _) = open(&mut origin, &mut origin_journal, &mut out_a, t, 0);
                    agents.insert(t, id);
                    open_at.insert(t, 1);
                    net.collect(&mut out_a);
                }
                Flow::Transfer { i, keep, room } if !net.transfers.is_empty() => {
                    let i = i % net.transfers.len();
                    let frame = match keep {
                        true => net.transfers[i].clone(),
                        false => net.transfers.remove(i),
                    };
                    deliver(&mut dest, &mut dest_journal, &mut out_b, frame, room,
                            &mut admitted, &mut net);
                }
                Flow::Ack { i, keep } if !net.acks.is_empty() => {
                    let i = i % net.acks.len();
                    let ack = match keep {
                        true => net.acks[i].clone(),
                        false => net.acks.remove(i),
                    };
                    answer(&mut origin, &mut origin_journal, &mut out_a, ack,
                           &mut open_at, &mut committed);
                }
                Flow::Lose(i) => {
                    let (t, a) = (net.transfers.len(), net.acks.len());
                    if i < t {
                        net.transfers.remove(i);
                    } else if i - t < a {
                        net.acks.remove(i - t);
                    }
                }
                Flow::Due(i) if !open_at.is_empty() => {
                    let (&t, &attempt) = open_at.iter().nth(i % open_at.len()).unwrap();
                    match origin.due(t, attempt, &mut origin_journal, &mut out_a) {
                        Some(_) => open_at.remove(&t), // given up
                        None => open_at.insert(t, attempt + 1),
                    };
                    net.collect(&mut out_a);
                }
                Flow::Wait(ms) => {
                    now += ms;
                    dest.sweep(Millis(now), 600_000);
                }
                Flow::CrashOrigin => {
                    let open_ids: Vec<u64> = open_at.keys().copied().collect();
                    origin = restored(&mut origin, &open_ids, &origin_journal, BUDGET, &mut out_a);
                    out_a.take(); // the immediate timers: `Due` fires them
                    (life, counter) = (life + 1, 0);
                }
                Flow::CrashDest => {
                    dest = restored(&mut dest, &[], &dest_journal, BUDGET, &mut out_b);
                }
                _ => {}
            }
            for (t, n) in &admitted {
                prop_assert!(*n <= 1, "transfer {:x} admitted {} times", t, n);
            }
        }
        // the network heals: every open handoff is retransmitted until
        // it is answered, or its budget is spent
        while let Some((&t, &attempt)) = open_at.iter().next() {
            out_a.at(Millis(now));
            out_b.at(Millis(now));
            if origin.due(t, attempt, &mut origin_journal, &mut out_a).is_some() {
                open_at.remove(&t);
                continue;
            }
            open_at.insert(t, attempt + 1);
            net.collect(&mut out_a);
            let frame = net.transfers.pop().expect("the retransmission");
            deliver(&mut dest, &mut dest_journal, &mut out_b, frame, true,
                    &mut admitted, &mut net);
            let ack = net.acks.pop().expect("an open handoff is never below the floor");
            answer(&mut origin, &mut origin_journal, &mut out_a, ack,
                   &mut open_at, &mut committed);
        }
        for (t, n) in &admitted {
            prop_assert!(*n <= 1, "transfer {:x} admitted {} times", t, n);
        }
        for t in &committed {
            prop_assert_eq!(admitted.get(t), Some(&1), "committed {:x}", t);
        }
        prop_assert_eq!(origin.pending_count(), 0);
    }
}

proptest! {
    #[test]
    fn an_early_arrival_ack_opens_its_own_admission_once(
        steps in vec((0..4u64, any::<bool>(), any::<bool>(), any::<bool>()), 0..40),
    ) {
        let mut nav = navigator(BUDGET);
        let (mut journal, mut out) = (Journal::in_memory(), Outbox::new(DEST));
        let (agent, action, _, _) = departing(1);
        // per transfer id at or above the floor: the verdict given
        // (granted?); the acks held
        let mut verdicts: BTreeMap<u64, bool> = BTreeMap::new();
        let mut held: BTreeSet<u64> = BTreeSet::new();
        let mut floor = 0;
        for (step, (transfer_id, is_ack, room, raise)) in steps.into_iter().enumerate() {
            out.at(Millis(step as u64));
            if is_ack {
                nav.hold_ack(&Visit::new("c", transfer_id), out.now());
                if transfer_id >= floor && !verdicts.contains_key(&transfer_id) {
                    held.insert(transfer_id);
                }
                continue;
            }
            // the origin holds nothing below this `Transfer`, or all of it
            let floor_gap = if raise { 0 } else { transfer_id };
            let envelope = TransferEnvelope {
                naplet: agent.clone(),
                action: action.clone(),
                transfer_id,
                attempt: 1,
                floor_gap,
            };
            let admitted = nav.receive("c", envelope, decision(room), &mut journal, &mut out);
            if transfer_id < floor {
                prop_assert!(admitted.is_none(), "acked before, dropped now");
                continue;
            }
            let fresh = !verdicts.contains_key(&transfer_id);
            let granted = *verdicts.entry(transfer_id).or_insert(room);
            if fresh && raise {
                floor = transfer_id;
                verdicts.retain(|t, _| *t >= floor);
            }
            prop_assert_eq!(admitted.is_some(), fresh && granted);
            if fresh && !granted {
                held.remove(&transfer_id); // dropped with the refusal
            }
            if admitted.is_some() {
                let acked = nav.take_ack(&Visit::new("c", transfer_id));
                prop_assert_eq!(acked, held.remove(&transfer_id), "taken once, if it came first");
            }
        }
        // what is still held is exactly the acks whose Transfer never came
        for transfer_id in 0..4 {
            let still = nav.take_ack(&Visit::new("c", transfer_id));
            prop_assert_eq!(still, held.contains(&transfer_id));
            prop_assert!(!still || !verdicts.contains_key(&transfer_id));
        }
    }
}
