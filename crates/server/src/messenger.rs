//! Messenger: the post office (paper §2.2, §4.2).
//!
//! The one holder of every message this host has custody of:
//!
//! * a message this host posted: [`post`](Messenger::post) numbers it and
//!   retains it until its delivery is confirmed or given up, and
//!   [`due`](Messenger::due) hands the copy back when its redelivery
//!   timer fires. A post waiting on a directory answer is this record,
//!   named by its identity in the locator's query map;
//! * the **special mailbox**: messages that arrived *before* their
//!   target naplet did (§4.2 case 3);
//! * the copies already delivered here, so a retransmission is
//!   confirmed again but deposited once;
//! * delivery confirmations kept "only for further possible inquiry
//!   from naplet A" — and used to refresh the location cache;
//! * per-server sequence numbers, forwarding-hop accounting and the
//!   cycle-breaking cap.
//!
//! The server routes (locate → send → forward-chase → confirm) through
//! one door per verb; what the messenger decides on its own — a
//! redelivery, a forwarding hop — it counts and traces through the
//! [`Outbox`]. A message in a naplet's mailbox or on the wire is not in
//! this module's custody.

use std::collections::{HashMap, HashSet};

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_core::message::{Message, Payload, Sender};
use naplet_obs::TraceKind;

use crate::events::Outbox;

/// Record of a confirmed delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmRecord {
    /// Server that finally delivered the message.
    pub delivered_at: String,
    /// When the confirmation arrived back here.
    pub at: Millis,
}

/// Origin-side record of a posted message awaiting confirmation; the
/// redelivery timer re-routes it if no confirmation arrives in time.
#[derive(Debug, Clone)]
pub struct OutstandingPost {
    /// A retained copy of the message, for retransmission.
    pub msg: Message,
    /// 1-based send attempts so far.
    pub attempts: u32,
}

/// Per-server post office state.
#[derive(Debug)]
pub struct Messenger {
    seq: u64,
    /// Early messages waiting for their target naplet, each with the
    /// host that should receive the delivery confirmation.
    special: HashMap<NapletId, Vec<(Message, String)>>,
    confirmations: HashMap<(Sender, u64), ConfirmRecord>,
    /// Messages this server originated that have no delivery
    /// confirmation yet, keyed by message identity.
    outstanding: HashMap<(Sender, u64), OutstandingPost>,
    /// Messages already delivered *here*, by (sender, seq, sent_at-ms)
    /// ([`record_delivery`](Self::record_delivery)).
    delivered: HashSet<(Sender, u64, u64)>,
    /// Maximum forwarding hops before a message is dropped as
    /// undeliverable (breaks pathological chase cycles).
    pub forward_cap: u32,
    /// Forwarding hops this server has performed (E5 reports these).
    pub forwards_performed: u64,
    /// Redelivery attempts made (sends beyond the first).
    pub redeliveries: u64,
    /// Confirmation records evicted by the retention sweep.
    pub confirmations_evicted: u64,
    /// Delivery-dedup entries evicted by the retention sweep.
    pub deliveries_evicted: u64,
}

impl Default for Messenger {
    fn default() -> Self {
        Messenger::new(64)
    }
}

impl Messenger {
    /// Messenger with a forwarding cap.
    pub fn new(forward_cap: u32) -> Messenger {
        Messenger {
            seq: 0,
            special: HashMap::new(),
            confirmations: HashMap::new(),
            outstanding: HashMap::new(),
            delivered: HashSet::new(),
            forward_cap,
            forwards_performed: 0,
            redeliveries: 0,
            confirmations_evicted: 0,
            deliveries_evicted: 0,
        }
    }

    /// Compact bookkeeping older than `ttl_ms`: confirmation records
    /// (kept "for further possible inquiry" — the window bounds how far
    /// back an inquiry can reach), delivery-dedup entries (safe to drop
    /// once every retransmission of the message has surely died; their
    /// key embeds the send timestamp) and, by the same send time, copies
    /// in the special mailbox whose naplet never came — their poster gave
    /// up long before. Eviction counts are kept in
    /// [`confirmations_evicted`](Self::confirmations_evicted) and
    /// [`deliveries_evicted`](Self::deliveries_evicted).
    pub fn compact(&mut self, now: Millis, ttl_ms: u64) {
        for waiting in self.special.values_mut() {
            waiting.retain(|(m, _)| now.since(m.sent_at) < ttl_ms);
        }
        self.special.retain(|_, waiting| !waiting.is_empty());
        let before = self.confirmations.len();
        self.confirmations
            .retain(|_, rec| now.since(rec.at) < ttl_ms);
        self.confirmations_evicted += (before - self.confirmations.len()) as u64;
        let before = self.delivered.len();
        self.delivered
            .retain(|(_, _, sent_at)| now.since(Millis(*sent_at)) < ttl_ms);
        self.deliveries_evicted += (before - self.delivered.len()) as u64;
    }

    /// Stash an early message for a naplet that has not arrived yet
    /// (§4.2 case 3: "insert the message into a special mailbox,
    /// waiting for the arrival of the naplet"). `origin_host` receives
    /// the delivery confirmation when the message is finally drained.
    /// One copy per message: a redelivered copy of one already waiting
    /// (same sender, seq and send time) is dropped.
    pub fn stash_early(&mut self, msg: Message, origin_host: String) {
        let waiting = self.special.entry(msg.to.clone()).or_default();
        let same = |m: &Message| (&m.from, m.seq, m.sent_at) == (&msg.from, msg.seq, msg.sent_at);
        if !waiting.iter().any(|(m, _)| same(m)) {
            waiting.push((msg, origin_host));
        }
    }

    /// On naplet arrival: take everything waiting in the special
    /// mailbox ("dumps the B's messages in the special mailbox to B's
    /// mailbox"), each with its confirmation destination.
    pub fn drain_early(&mut self, id: &NapletId) -> Vec<(Message, String)> {
        self.special.remove(id).unwrap_or_default()
    }

    /// Number of messages currently waiting in special mailboxes.
    pub fn early_waiting(&self) -> usize {
        self.special.values().map(Vec::len).sum()
    }

    /// Record a delivery confirmation for a message this server
    /// originated.
    pub fn record_confirmation(
        &mut self,
        sender: Sender,
        seq: u64,
        delivered_at: &str,
        now: Millis,
    ) {
        self.outstanding.remove(&(sender.clone(), seq));
        self.confirmations.insert(
            (sender, seq),
            ConfirmRecord {
                delivered_at: delivered_at.to_string(),
                at: now,
            },
        );
    }

    /// A new post from `from`: numbered in this server's sequence, and
    /// retained until its delivery is confirmed or given up. Returns the
    /// copy to route as attempt 1.
    pub fn post(&mut self, from: Sender, to: NapletId, payload: Payload, now: Millis) -> Message {
        self.seq += 1;
        let msg = Message {
            seq: self.seq,
            from,
            to,
            sent_at: now,
            payload,
            forward_hops: 0,
        };
        let retained = OutstandingPost {
            msg: msg.clone(),
            attempts: 1,
        };
        self.outstanding.insert(msg.identity(), retained);
        msg
    }

    /// The unconfirmed record for a message identity, if any.
    pub fn unconfirmed(&self, sender: &Sender, seq: u64) -> Option<&OutstandingPost> {
        self.outstanding.get(&(sender.clone(), seq))
    }

    /// Messages currently awaiting confirmation.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.len()
    }

    /// The redelivery timer armed for attempt `attempt` of message `seq`
    /// from `sender` fired. `None` when the timer is stale: the message
    /// was confirmed or given up meanwhile, or a later attempt is armed.
    /// `Some(None)` when `budget` attempts are spent: the message is
    /// given up and nothing of it is left to post. Otherwise a copy to
    /// re-route as attempt `attempt + 1`.
    pub fn due(
        &mut self,
        sender: &Sender,
        seq: u64,
        attempt: u32,
        budget: u32,
        out: &mut Outbox,
    ) -> Option<Option<Message>> {
        let key = (sender.clone(), seq);
        let rec = self.outstanding.get_mut(&key);
        let rec = rec.filter(|rec| rec.attempts == attempt)?;
        if attempt >= budget {
            self.outstanding.remove(&key);
            out.count("post.given_up", 1);
            return Some(None);
        }
        rec.attempts += 1;
        self.redeliveries += 1;
        let (msg, next) = (rec.msg.clone(), rec.attempts);
        out.count("post.redeliveries", 1);
        out.trace(Some(&msg.to), || TraceKind::PostRedeliver {
            seq,
            attempt: next,
        });
        Some(Some(msg))
    }

    /// Idempotent delivery check: returns `true` the first time a
    /// message is delivered at this server, `false` for a retransmitted
    /// duplicate (which must still be re-confirmed but not deposited
    /// again). Keyed on (sender, seq, sent_at): seq counters are
    /// per-origin-server, so the timestamp tells apart posts one naplet
    /// made from different servers. Entries age out under the server's
    /// retention window via [`compact`](Self::compact).
    pub fn record_delivery(&mut self, msg: &Message) -> bool {
        self.delivered
            .insert((msg.from.clone(), msg.seq, msg.sent_at.0))
    }

    /// A delivered-but-unread message left this server's custody (it
    /// was re-posted toward the naplet's next host at departure, or
    /// returned to the special mailbox when the naplet parked): forget
    /// the delivery so it can be delivered here again.
    pub fn forget_delivery(&mut self, msg: &Message) {
        self.delivered
            .remove(&(msg.from.clone(), msg.seq, msg.sent_at.0));
    }

    /// Inquiry: has the message been confirmed, and where?
    pub fn confirmation(&self, sender: &Sender, seq: u64) -> Option<&ConfirmRecord> {
        self.confirmations.get(&(sender.clone(), seq))
    }

    /// Whether `msg`, whose target has moved on, may chase it one hop
    /// further, to `to`: the hop is counted and traced, a drop at the cap
    /// (which breaks a chase cycle) counted.
    pub fn forward(&mut self, msg: &mut Message, to: &str, out: &mut Outbox) -> bool {
        if msg.forward_hops >= self.forward_cap {
            out.count("post.undeliverable", 1);
            return false;
        }
        self.forwards_performed += 1;
        msg.forward_hops += 1;
        out.count("post.forward_hops", 1);
        let (seq, hops) = (msg.seq, msg.forward_hops);
        out.trace(Some(&msg.to), || TraceKind::ForwardHop {
            to: to.to_string(),
            seq,
            hops,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naplet_core::value::Value;

    fn out() -> Outbox {
        Outbox::new("home")
    }

    fn nid(n: u64) -> NapletId {
        NapletId::new("u", "home", Millis(n)).unwrap()
    }

    fn msg(seq: u64, to: NapletId, hops: u32) -> Message {
        let mut m = Message::user(seq, Sender::Owner("home".into()), to, Millis(0), Value::Nil);
        m.forward_hops = hops;
        m
    }

    fn post(m: &mut Messenger, to: NapletId) -> Message {
        let from = Sender::Owner("home".into());
        m.post(from, to, Payload::User(Value::Nil), Millis(10))
    }

    #[test]
    fn posts_are_numbered_in_one_sequence() {
        let mut m = Messenger::default();
        let a = post(&mut m, nid(1));
        let b = post(&mut m, nid(2));
        assert_eq!((a.seq, b.seq), (1, 2));
        assert_eq!((b.sent_at, b.forward_hops), (Millis(10), 0));
    }

    #[test]
    fn special_mailbox_stashes_and_drains_in_order() {
        let mut m = Messenger::default();
        m.stash_early(msg(1, nid(5), 0), "s1".into());
        m.stash_early(msg(2, nid(5), 0), "s2".into());
        m.stash_early(msg(3, nid(6), 0), "s1".into());
        // a redelivered copy (one more hop behind) is the message waiting
        m.stash_early(msg(1, nid(5), 1), "s1".into());
        assert_eq!(m.early_waiting(), 3);
        let drained = m.drain_early(&nid(5));
        assert_eq!(
            drained.iter().map(|(m, _)| m.seq).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(
            drained.iter().map(|(_, o)| o.as_str()).collect::<Vec<_>>(),
            ["s1", "s2"]
        );
        assert_eq!(m.early_waiting(), 1);
        assert!(m.drain_early(&nid(5)).is_empty());
    }

    #[test]
    fn confirmations_recorded_and_inquired() {
        let mut m = Messenger::default();
        let sender = Sender::Naplet(nid(1));
        assert!(m.confirmation(&sender, 7).is_none());
        m.record_confirmation(sender.clone(), 7, "s3", Millis(44));
        let c = m.confirmation(&sender, 7).unwrap();
        assert_eq!(c.delivered_at, "s3");
        assert_eq!(c.at, Millis(44));
    }

    #[test]
    fn forward_cap_enforced() {
        let mut m = Messenger::new(2);
        let mut out = out();
        let mut chased = msg(1, nid(1), 0);
        assert!(m.forward(&mut chased, "s1", &mut out));
        assert!(m.forward(&mut chased, "s2", &mut out));
        assert_eq!(chased.forward_hops, 2, "each hop counted on the message");
        assert!(!m.forward(&mut chased, "s3", &mut out));
        assert_eq!(m.forwards_performed, 2);
        let dropped = out.obs().metrics.counter("post.undeliverable");
        assert_eq!(dropped, 1, "the drop is counted");
        assert_eq!(out.obs().metrics.counter("post.forward_hops"), 2);
    }

    #[test]
    fn a_post_is_retained_until_confirmed() {
        let mut m = Messenger::default();
        let message = post(&mut m, nid(1));
        let from = &message.from;
        assert_eq!(m.outstanding_count(), 1);
        assert_eq!(m.unconfirmed(from, 1).unwrap().attempts, 1);

        assert!(
            m.due(from, 1, 2, 6, &mut out()).is_none(),
            "no attempt 2 armed yet"
        );
        let copy = m.due(from, 1, 1, 6, &mut out()).unwrap().unwrap();
        assert_eq!(copy, message);
        assert_eq!(m.unconfirmed(from, 1).unwrap().attempts, 2);
        assert_eq!(m.redeliveries, 1);
        assert!(
            m.due(from, 1, 1, 6, &mut out()).is_none(),
            "attempt 1's timer is stale"
        );

        m.record_confirmation(from.clone(), 1, "s2", Millis(50));
        assert_eq!(m.outstanding_count(), 0);
        assert!(
            m.due(from, 1, 2, 6, &mut out()).is_none(),
            "confirmed: nothing to re-route"
        );
    }

    #[test]
    fn a_spent_budget_gives_the_post_up() {
        let (mut m, mut out) = (Messenger::default(), out());
        let message = post(&mut m, nid(2));
        assert!(m.due(&message.from, 1, 1, 2, &mut out).unwrap().is_some());
        assert_eq!(m.due(&message.from, 1, 2, 2, &mut out), Some(None));
        assert!(m.due(&message.from, 1, 2, 2, &mut out).is_none());
        assert_eq!(out.obs().metrics.counter("post.given_up"), 1);
        assert_eq!(m.outstanding_count(), 0);
    }

    #[test]
    fn compact_evicts_by_ttl_and_counts() {
        let mut m = Messenger::default();
        let sender = Sender::Naplet(nid(1));
        let delivered =
            |seq, at| Message::user(seq, sender.clone(), nid(2), Millis(at), Value::Nil);
        m.record_confirmation(sender.clone(), 1, "s1", Millis(100));
        m.record_confirmation(sender.clone(), 2, "s1", Millis(900));
        m.record_delivery(&delivered(1, 100));
        m.record_delivery(&delivered(2, 900));
        m.compact(Millis(1000), 500);
        assert_eq!(m.confirmations_evicted, 1);
        assert_eq!(m.deliveries_evicted, 1);
        assert!(m.confirmation(&sender, 1).is_none());
        assert!(m.confirmation(&sender, 2).is_some());
        // the evicted delivery entry is forgotten: a (very) late
        // duplicate would be deposited again — the retention window is
        // chosen far beyond any retransmission horizon
        assert!(m.record_delivery(&delivered(1, 100)));
        assert!(!m.record_delivery(&delivered(2, 900)));
    }

    #[test]
    fn a_stashed_copy_lapses_with_the_retention_window() {
        let mut m = Messenger::default();
        let stashed = |seq, at| {
            Message::user(
                seq,
                Sender::Owner("home".into()),
                nid(5),
                Millis(at),
                Value::Nil,
            )
        };
        m.stash_early(stashed(1, 100), "home".into());
        m.stash_early(stashed(2, 900), "home".into());
        m.compact(Millis(1000), 500);
        assert_eq!(m.early_waiting(), 1, "the copy sent at 100 lapsed");
        let left = m.drain_early(&nid(5));
        assert_eq!(left.iter().map(|(m, _)| m.seq).collect::<Vec<_>>(), [2]);
        m.stash_early(stashed(3, 900), "home".into());
        m.compact(Millis(1400), 500);
        assert_eq!(m.early_waiting(), 0);
        assert!(m.special.is_empty(), "no empty mailbox is left behind");
    }

    #[test]
    fn duplicate_deliveries_detected() {
        let mut m = Messenger::default();
        let sender = Sender::Naplet(nid(9));
        let delivered =
            |seq, at| Message::user(seq, sender.clone(), nid(2), Millis(at), Value::Nil);
        assert!(m.record_delivery(&delivered(1, 5)));
        assert!(!m.record_delivery(&delivered(1, 5)), "dup");
        // same seq from a different origin server (later timestamp) is
        // a distinct message, not a duplicate
        assert!(m.record_delivery(&delivered(1, 80)));
        assert!(m.record_delivery(&delivered(2, 5)));
        // a copy that left this host's custody may be delivered again
        m.forget_delivery(&delivered(1, 5));
        assert!(m.record_delivery(&delivered(1, 5)));
    }
}
