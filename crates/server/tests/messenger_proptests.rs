//! Model test of the messenger's custody alone — an outbox, no server,
//! locator or runtime: random interleavings of new posts, stashes (re-stashes of a
//! redelivered copy included), drains, deliveries, confirmations, timers
//! at the current or a stale attempt and give-ups, against a reference
//! model of what each message identity is owed.
//!
//! After every step: the special mailbox holds each distinct message
//! stashed and not drained exactly once, a confirmed or given-up message
//! is never handed back for re-routing (nor left to post when a
//! directory answer names it), each redelivery raises the attempt by
//! exactly one and never past the budget, and a message is delivered
//! fresh at most once.

use std::collections::{BTreeMap, HashSet};

use proptest::collection::vec;
use proptest::prelude::*;

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_core::message::{Message, Payload, Sender};
use naplet_core::value::Value;
use naplet_server::{Messenger, Outbox};

const BUDGET: u32 = 4;
const TARGETS: u64 = 3;

#[derive(Debug, Clone)]
enum Op {
    /// A new post from this host to target `to`.
    Post {
        to: u64,
    },
    /// A post from a naplet that posted from another server: same
    /// sender and seq as one of ours can be, a different send time.
    Foreign {
        seq: u64,
        to: u64,
    },
    /// Stash the `slot`-th known message, `hops` forwarding hops on.
    Stash {
        slot: usize,
        hops: u32,
    },
    /// The target naplet arrives: take its special mailbox.
    Drain {
        to: u64,
    },
    /// The `slot`-th known message reaches its resident naplet.
    Deliver {
        slot: usize,
    },
    /// The `slot`-th post's confirmation arrives.
    Confirm {
        slot: usize,
    },
    /// The `slot`-th post's timer fires, armed for its current attempt
    /// plus `skew` (non-zero: stale, or never armed).
    Due {
        slot: usize,
        skew: i32,
    },
    /// Every timer of the `slot`-th post fires until it is given up.
    GiveUp {
        slot: usize,
    },
    Tick(u64),
}

fn op() -> impl Strategy<Value = Op> {
    let args = (0..20u8, 0..8usize, 0..4u8, 1..50u64);
    args.prop_map(|(kind, slot, a, ms)| match kind {
        0..=2 => Op::Post { to: ms % TARGETS },
        3 => Op::Foreign {
            seq: u64::from(a) + 1,
            to: ms % TARGETS,
        },
        4..=6 => Op::Stash {
            slot,
            hops: u32::from(a),
        },
        7..=8 => Op::Drain { to: ms % TARGETS },
        9..=10 => Op::Deliver { slot },
        11..=12 => Op::Confirm { slot },
        13..=16 => Op::Due {
            slot,
            skew: [-1, 1, 0, 0][usize::from(a)],
        },
        17 => Op::GiveUp { slot },
        _ => Op::Tick(ms),
    })
}

fn nid(n: u64) -> NapletId {
    NapletId::new("czxu", "home", Millis(n + 1)).unwrap()
}

/// What the special mailbox and the delivery dedup key a message by.
type Key = (Sender, u64, Millis);

fn key(m: &Message) -> Key {
    (m.from.clone(), m.seq, m.sent_at)
}

/// Where a post of this host stands in the model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stand {
    Retained { attempt: u32 },
    Confirmed,
    GivenUp,
}

proptest! {
    #[test]
    fn the_messenger_holds_each_message_once(ops in vec(op(), 1..120)) {
        let mut m = Messenger::default();
        let mut out = Outbox::new("home");
        let sender = Sender::Naplet(nid(99));
        // every message seen so far (posts and foreign ones), and ours
        let mut known: Vec<Message> = Vec::new();
        let mut posts: Vec<Message> = Vec::new();
        let mut stands: BTreeMap<u64, Stand> = BTreeMap::new();
        let mut waiting: BTreeMap<NapletId, Vec<Key>> = BTreeMap::new();
        let mut delivered: HashSet<Key> = HashSet::new();
        let mut now = 0u64;

        for op in ops {
            match op {
                Op::Post { to } => {
                    let payload = Payload::User(Value::Int(now as i64));
                    let msg = m.post(sender.clone(), nid(to), payload, Millis(now));
                    prop_assert_eq!(msg.seq, posts.len() as u64 + 1, "one sequence");
                    prop_assert_eq!(msg.forward_hops, 0);
                    stands.insert(msg.seq, Stand::Retained { attempt: 1 });
                    posts.push(msg.clone());
                    known.push(msg);
                }
                Op::Foreign { seq, to } => {
                    let at = Millis(now + 1_000_000);
                    known.push(Message::user(seq, sender.clone(), nid(to), at, Value::Nil));
                }
                Op::Stash { slot, hops } => {
                    let Some(msg) = known.get(slot % known.len().max(1)) else { continue };
                    let mut copy = msg.clone();
                    copy.forward_hops = hops;
                    let keys = waiting.entry(copy.to.clone()).or_default();
                    if !keys.contains(&key(&copy)) {
                        keys.push(key(&copy));
                    }
                    m.stash_early(copy, "home".into());
                }
                Op::Drain { to } => {
                    let drained = m.drain_early(&nid(to));
                    let keys: Vec<Key> = drained.iter().map(|(msg, _)| key(msg)).collect();
                    let expected = waiting.remove(&nid(to)).unwrap_or_default();
                    prop_assert_eq!(keys, expected, "one copy each, in stash order");
                }
                Op::Deliver { slot } => {
                    let Some(msg) = known.get(slot % known.len().max(1)) else { continue };
                    let fresh = m.record_delivery(msg);
                    prop_assert_eq!(fresh, delivered.insert(key(msg)), "fresh once per message");
                }
                Op::Confirm { slot } => {
                    let Some(msg) = posts.get(slot % posts.len().max(1)) else { continue };
                    m.record_confirmation(msg.from.clone(), msg.seq, "s1", Millis(now));
                    stands.insert(msg.seq, Stand::Confirmed);
                }
                Op::Due { slot, skew } => {
                    let Some(msg) = posts.get(slot % posts.len().max(1)) else { continue };
                    let stand = stands[&msg.seq];
                    let current = match stand {
                        Stand::Retained { attempt } => attempt,
                        _ => 1,
                    };
                    let armed = current.saturating_add_signed(skew).max(1);
                    let due = m.due(&msg.from, msg.seq, armed, BUDGET, &mut out);
                    match (stand, due) {
                        (Stand::Retained { attempt }, Some(Some(copy))) => {
                            prop_assert_eq!(armed, attempt, "a stale timer re-routed");
                            prop_assert!(attempt < BUDGET);
                            prop_assert_eq!(&copy, msg, "the retained copy");
                            stands.insert(msg.seq, Stand::Retained { attempt: attempt + 1 });
                        }
                        (Stand::Retained { attempt }, Some(None)) => {
                            prop_assert_eq!((armed, attempt), (BUDGET, BUDGET));
                            stands.insert(msg.seq, Stand::GivenUp);
                        }
                        (Stand::Retained { attempt }, None) => {
                            prop_assert!(armed != attempt, "a live timer ignored");
                        }
                        (_, due) => prop_assert!(due.is_none(), "{:?} handed back", stand),
                    }
                }
                Op::GiveUp { slot } => {
                    let Some(msg) = posts.get(slot % posts.len().max(1)) else { continue };
                    while let Stand::Retained { attempt } = stands[&msg.seq] {
                        match m.due(&msg.from, msg.seq, attempt, BUDGET, &mut out) {
                            Some(Some(_)) => {
                                stands.insert(msg.seq, Stand::Retained { attempt: attempt + 1 });
                            }
                            Some(None) => {
                                prop_assert_eq!(attempt, BUDGET);
                                stands.insert(msg.seq, Stand::GivenUp);
                            }
                            None => prop_assert!(false, "the current timer of {} is stale", msg.seq),
                        }
                    }
                }
                Op::Tick(ms) => now += ms,
            }

            let stashed: usize = waiting.values().map(Vec::len).sum();
            prop_assert_eq!(m.early_waiting(), stashed, "one copy per message waits");
            let retained = stands.values().filter(|s| matches!(s, Stand::Retained { .. }));
            prop_assert_eq!(m.outstanding_count(), retained.count());
            for msg in &posts {
                let record = m.unconfirmed(&msg.from, msg.seq);
                match stands[&msg.seq] {
                    Stand::Retained { attempt } => {
                        let record = record.expect("a retained post has its record");
                        prop_assert_eq!(record.attempts, attempt);
                        prop_assert!(attempt <= BUDGET);
                        prop_assert_eq!(&record.msg, msg);
                    }
                    // what a late directory answer would post: nothing
                    _ => prop_assert!(record.is_none(), "post {} left to re-route", msg.seq),
                }
            }
        }
    }
}
