//! Model test of the navigator alone — an outbox and an in-memory
//! journal, no server or runtime: random interleavings of opens,
//! permits (granted, refused, stray), acks (real, stray), due and stale
//! timers, duplicate `Transfer`s, sweeps and crash-style
//! snapshot/restores run against a reference model that is a map of
//! `transfer id → (phase, attempt)`.
//!
//! After every step: each transfer id the model holds is in exactly the
//! phase and at exactly the attempt the model says (never past the
//! budget), nothing else is in custody, an answer the model calls stray
//! changed nothing and sent nothing, an agent leaves custody exactly
//! once (committed, refused or failed), a `Transfer` is admitted once
//! until its note is swept, and restoring from the journal views
//! reproduces them. What the navigator sends is read off its outbox:
//! every handoff frame is followed by the `TransferTimeout` for the same
//! transfer id and attempt, and a restored handoff arms that timer at
//! once.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::collection::vec;
use proptest::prelude::*;

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::credential::SigningKey;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{Cursor, Itinerary, Pattern, Step};
use naplet_core::message::Mailbox;
use naplet_core::naplet::{AgentKind, Naplet, SharedNaplet};
use naplet_obs::TraceKind;
use naplet_server::navigator::Verdict;
use naplet_server::{
    Journal, JournalPhase, LocalEvent, Navigator, Outbox, Output, RetryPolicy, Wire,
};

const BUDGET: u32 = 3;
const RETENTION_MS: u64 = 500;
const DEST: &str = "b";

#[derive(Debug, Clone)]
enum Op {
    Open,
    /// A `LandingReply` for the `slot`-th open transfer.
    Permit {
        slot: usize,
        from_dest: bool,
        granted: bool,
    },
    /// A `TransferAck` for the `slot`-th open transfer.
    Ack {
        slot: usize,
        from_dest: bool,
        right_agent: bool,
    },
    /// A timer for the `slot`-th open transfer, armed for its current
    /// attempt plus `skew` (non-zero: a stale or never-armed timer).
    Due {
        slot: usize,
        skew: i32,
    },
    /// A timer or answer for a transfer nobody opened.
    Ghost,
    Transfer {
        origin: usize,
        transfer_id: u64,
    },
    Sweep,
    /// Crash: rebuild the navigator from its journal views.
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
        3..=5 => Op::Permit {
            slot,
            from_dest: a > 0,
            granted: b > 1,
        },
        6..=8 => Op::Ack {
            slot,
            from_dest: a > 0,
            right_agent: b > 0,
        },
        9..=12 => Op::Due {
            slot,
            skew: [-1, 1, 0, 0][usize::from(a)],
        },
        13 => Op::Ghost,
        14..=15 => Op::Transfer {
            origin: usize::from(a % 2),
            transfer_id: u64::from(b % 3),
        },
        16 => Op::Sweep,
        17 => Op::Restore,
        _ => Op::Tick(ms),
    })
}

/// The reference model: where each open transfer stands.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stand {
    awaiting_ack: bool,
    attempt: u32,
}

fn navigator() -> Navigator {
    let retry = RetryPolicy {
        max_retries: BUDGET,
        ..RetryPolicy::default()
    };
    Navigator::new(retry)
}

fn open(
    nav: &mut Navigator,
    journal: &mut Journal,
    out: &mut Outbox,
    transfer_id: u64,
) -> (NapletId, Cursor) {
    let key = SigningKey::new("czxu", b"secret");
    let it = Itinerary::new(Pattern::seq_of_hosts(&[DEST, "c"], None)).unwrap();
    let (at, kind) = (Millis(transfer_id), AgentKind::Native);
    let mut naplet = Naplet::create(&key, "czxu", "a", at, "cb", kind, it, vec![]).unwrap();
    let checkpoint = naplet.cursor().clone();
    let Step::Visit { host, action } = naplet.advance() else {
        panic!("the route starts with a visit");
    };
    let id = naplet.id().clone();
    let (agent, mailbox) = (SharedNaplet::new(naplet), Mailbox::new());
    let cp = checkpoint.clone();
    nav.open(transfer_id, agent, mailbox, action, host, cp, journal, out);
    (id, checkpoint)
}

/// Every open handoff as the journal would record it, by transfer id.
fn views(nav: &mut Navigator, ids: impl Iterator<Item = u64>) -> BTreeMap<u64, (Vec<u8>, String)> {
    ids.filter_map(|t| {
        let view = nav.journal_view(t, |id, image, phase| {
            (image.unwrap().to_vec(), format!("{id} {phase:?}"))
        });
        Some((t, view?))
    })
    .collect()
}

/// The handoff attempts the outbox holds, in order, as `(transfer id,
/// attempt, a Transfer)`: each frame goes to the destination and is
/// followed by the `TransferTimeout` for the same transfer id and
/// attempt.
fn attempts(out: &mut Outbox) -> Result<Vec<(u64, u32, bool)>, TestCaseError> {
    let mut sent = out.take().into_iter();
    let mut found = Vec::new();
    while let Some(frame) = sent.next() {
        let Output::Send { to, wire } = frame else {
            return Err(TestCaseError::fail(format!(
                "{frame:?} with no frame before it"
            )));
        };
        prop_assert_eq!(to.as_str(), DEST);
        let (t, attempt, transfer) = match wire {
            Wire::LandingRequest { token, attempt, .. } => (token, attempt, false),
            Wire::Transfer(envelope) => (envelope.transfer_id, envelope.attempt, true),
            other => return Err(TestCaseError::fail(format!("sent {other:?}"))),
        };
        let timer = sent.next();
        let armed = matches!(timer, Some(Output::Schedule {
            event: LocalEvent::TransferTimeout { transfer_id, attempt: a }, ..
        }) if transfer_id == t && a == attempt);
        prop_assert!(armed, "frame {}#{} is followed by {:?}", t, attempt, timer);
        found.push((t, attempt, transfer));
    }
    Ok(found)
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
        let mut nav = navigator();
        let mut journal = Journal::in_memory();
        let mut out = Outbox::new("a");
        out.obs().enable_tracing();
        let mut model: BTreeMap<u64, Stand> = BTreeMap::new();
        let mut agents: HashMap<u64, NapletId> = HashMap::new();
        let mut checkpoints: HashMap<u64, Cursor> = HashMap::new();
        let mut left: BTreeSet<u64> = BTreeSet::new();
        let mut seen: HashMap<(usize, u64), u64> = HashMap::new();
        let (mut now, mut next_id) = (0u64, 0u64);
        let stranger = NapletId::new("czxu", "a", Millis(999_999)).unwrap();

        for op in ops {
            out.at(Millis(now));
            let open_ids: Vec<u64> = model.keys().copied().collect();
            let pick = |slot: usize| open_ids.get(slot % open_ids.len().max(1)).copied();
            let before = views(&mut nav, 1..=next_id);
            // `Some(t)`: the model says transfer `t` left custody in this step
            let mut leaves = None;
            let mut stray = false;
            // what the step must have sent: `(transfer id, attempt, a Transfer)`
            let mut expect_sent = Vec::new();
            match op {
                Op::Open => {
                    next_id += 1;
                    let (id, checkpoint) = open(&mut nav, &mut journal, &mut out, next_id);
                    agents.insert(next_id, id);
                    checkpoints.insert(next_id, checkpoint);
                    model.insert(next_id, Stand { awaiting_ack: false, attempt: 1 });
                    expect_sent.push((next_id, 1, false));
                }
                Op::Permit { slot, from_dest, granted } => {
                    let Some(t) = pick(slot) else { continue };
                    let from = if from_dest { DEST } else { "c" };
                    let verdict = nav.permit(t, from, granted, "", &mut out);
                    if !from_dest || model[&t].awaiting_ack {
                        prop_assert!(verdict.is_none(), "a stray permit answered");
                        stray = true;
                    } else {
                        match verdict.expect("the awaited permit") {
                            Verdict::Granted(departure) => {
                                prop_assert!(granted);
                                prop_assert_eq!(&departure.id, &agents[&t]);
                                nav.depart(departure, &mut journal, &mut out);
                                model.insert(t, Stand { awaiting_ack: true, attempt: 1 });
                                expect_sent.push((t, 1, true));
                            }
                            Verdict::Denied(agent, _) => {
                                prop_assert!(!granted);
                                prop_assert_eq!(agent.id(), &agents[&t]);
                                leaves = Some(t);
                            }
                        }
                    }
                }
                Op::Ack { slot, from_dest, right_agent } => {
                    let Some(t) = pick(slot) else { continue };
                    let from = if from_dest { DEST } else { "c" };
                    let id = if right_agent { &agents[&t] } else { &stranger };
                    nav.ack(t, from, id, &mut journal, &mut out);
                    let commits: Vec<u32> = traced(&out).into_iter().filter_map(|kind| match kind {
                        TraceKind::HandoffCommit { transfer_id, attempts, .. } if transfer_id == t => {
                            Some(attempts)
                        }
                        _ => None,
                    }).collect();
                    if from_dest && right_agent && model[&t].awaiting_ack {
                        prop_assert_eq!(commits, vec![model[&t].attempt], "the awaited ack");
                        leaves = Some(t);
                    } else {
                        prop_assert!(commits.is_empty(), "a stray ack committed");
                        stray = true;
                    }
                }
                Op::Due { slot, skew } => {
                    let Some(t) = pick(slot) else { continue };
                    let stand = model[&t];
                    let armed = stand.attempt.saturating_add_signed(skew);
                    match nav.due(t, armed, &mut journal, &mut out) {
                        Some(failed) => {
                            prop_assert_eq!((armed, stand.attempt), (BUDGET, BUDGET));
                            prop_assert_eq!(failed.departed, stand.awaiting_ack);
                            prop_assert_eq!(failed.agent.id(), &agents[&t]);
                            prop_assert_eq!(failed.agent.cursor(), &checkpoints[&t]);
                            leaves = Some(t);
                        }
                        // a live timer: the phase's frame again, one attempt on
                        None if armed == stand.attempt => {
                            prop_assert!(stand.attempt < BUDGET);
                            model.insert(t, Stand { attempt: stand.attempt + 1, ..stand });
                            expect_sent.push((t, stand.attempt + 1, stand.awaiting_ack));
                        }
                        None => stray = true,
                    }
                }
                Op::Ghost => {
                    let t = next_id + 7;
                    prop_assert!(nav.permit(t, DEST, true, "", &mut out).is_none());
                    nav.ack(t, DEST, &stranger, &mut journal, &mut out);
                    prop_assert!(nav.due(t, 1, &mut journal, &mut out).is_none());
                    stray = true;
                }
                Op::Transfer { origin, transfer_id } => {
                    let fresh = nav.admit_once(["b", "c"][origin], transfer_id, Millis(now));
                    prop_assert_eq!(fresh, !seen.contains_key(&(origin, transfer_id)));
                    seen.entry((origin, transfer_id)).or_insert(now);
                }
                Op::Sweep => {
                    let evicted = nav.seen_evicted;
                    nav.sweep(Millis(now), RETENTION_MS);
                    let held = seen.len();
                    seen.retain(|_, at| now - *at < RETENTION_MS);
                    prop_assert_eq!(nav.seen_evicted - evicted, (held - seen.len()) as u64);
                }
                Op::Restore => {
                    let mut recovered = navigator();
                    for t in &open_ids {
                        let record = nav.journal_view(*t, |_, image, phase| {
                            (image.unwrap().to_vec(), phase.clone())
                        });
                        let (image, phase) = record.expect("an open handoff has a view");
                        let agent: SharedNaplet = codec::from_bytes(&image).unwrap();
                        recovered.restore(agent, phase, &mut out);
                        let timer = LocalEvent::TransferTimeout {
                            transfer_id: *t,
                            attempt: model[t].attempt,
                        };
                        let armed = out.take();
                        prop_assert!(
                            matches!(&armed[..], [Output::Schedule { delay_ms: 0, event }] if *event == timer),
                            "restoring {} armed {:?}", t, armed
                        );
                    }
                    // the dedup notes are the journal's to replay, not the views'
                    for ((origin, transfer_id), at) in &seen {
                        recovered.admit_once(["b", "c"][*origin], *transfer_id, Millis(*at));
                    }
                    nav = recovered;
                    stray = true; // restore ∘ journal-view is the identity
                }
                Op::Tick(ms) => now += ms,
            }

            prop_assert_eq!(attempts(&mut out)?, expect_sent, "what the step sent");
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
            for (t, stand) in &model {
                prop_assert!(!left.contains(t), "transfer {} is both open and gone", t);
                prop_assert!(stand.attempt <= BUDGET);
                let record = nav.journal_view(*t, |_, _, phase| phase.clone());
                let Some(JournalPhase::InFlight { awaiting_ack, attempt, checkpoint, .. }) = record
                else {
                    panic!("transfer {t} is open in the model only");
                };
                prop_assert_eq!((awaiting_ack, attempt), (stand.awaiting_ack, stand.attempt));
                prop_assert_eq!(&checkpoint, &checkpoints[t], "the view kept the checkpoint");
            }
        }
    }
}
