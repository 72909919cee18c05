//! Inter-naplet messages (paper §2.2, §4.2).
//!
//! Two message classes exist:
//!
//! * **System** messages control a naplet (callback, terminate,
//!   suspend, resume). On receipt the Messenger *interrupts* the
//!   running naplet; how the naplet reacts is defined by its
//!   `on_interrupt` hook.
//! * **User** messages carry application data. The Messenger deposits
//!   them in the target's mailbox; the naplet decides when to check.
//!
//! A [`Message`] is the full envelope the post office routes; delivery
//! confirmations are part of the messenger protocol (naplet-server
//! crate), not of the envelope.

use crate::codec::{Decode, Encode};

use crate::clock::Millis;
use crate::id::NapletId;
use crate::value::Value;

/// Who originated a message: a peer naplet, or the naplet's owner
/// (home manager / listener side) exercising remote control.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Encode, Decode)]
pub enum Sender {
    /// A peer naplet.
    Naplet(NapletId),
    /// The owner/manager principal at the named host.
    Owner(String),
}

impl Sender {
    /// Compact display form for logs.
    pub fn short(&self) -> String {
        match self {
            Sender::Naplet(id) => id.short(),
            Sender::Owner(host) => format!("owner@{host}"),
        }
    }
}

/// Control verbs delivered as system messages. The reaction to
/// `Callback` and `Custom` is application-defined via `on_interrupt`;
/// `Terminate`/`Suspend`/`Resume` are also enforced by the
/// NapletMonitor itself.
#[derive(Debug, Clone, PartialEq, Eq, Encode, Decode)]
pub enum ControlVerb {
    /// Ask the naplet to report home.
    Callback,
    /// Stop and destroy the naplet.
    Terminate,
    /// Pause execution (monitor stops scheduling the naplet).
    Suspend,
    /// Resume a suspended naplet.
    Resume,
    /// Application-defined control signal.
    Custom(String),
}

/// Message payload: system control or user data.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub enum Payload {
    /// Control message — interrupts the naplet thread on receipt.
    System(ControlVerb),
    /// Data message — lands in the mailbox.
    User(Value),
}

impl Payload {
    /// True for system (control) payloads.
    pub fn is_system(&self) -> bool {
        matches!(self, Payload::System(_))
    }
}

/// The envelope routed by the post-office messenger.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct Message {
    /// Per-sender unique message number (sender, seq) identifies a
    /// message for confirmation tracking.
    pub seq: u64,
    /// Originator.
    pub from: Sender,
    /// Target naplet.
    pub to: NapletId,
    /// Send instant (sender's clock).
    pub sent_at: Millis,
    /// System or user payload.
    pub payload: Payload,
    /// Number of servers this message has been forwarded through while
    /// chasing a moving naplet (paper §4.2 case 2). Incremented by each
    /// forwarding messenger; capped by the messenger to break cycles.
    pub forward_hops: u32,
}

impl Message {
    /// Construct a user (data) message.
    pub fn user(seq: u64, from: Sender, to: NapletId, sent_at: Millis, body: Value) -> Message {
        Message {
            seq,
            from,
            to,
            sent_at,
            payload: Payload::User(body),
            forward_hops: 0,
        }
    }

    /// Construct a system (control) message.
    pub fn system(
        seq: u64,
        from: Sender,
        to: NapletId,
        sent_at: Millis,
        verb: ControlVerb,
    ) -> Message {
        Message {
            seq,
            from,
            to,
            sent_at,
            payload: Payload::System(verb),
            forward_hops: 0,
        }
    }

    /// Stable identity used for delivery confirmation and duplicate
    /// suppression.
    pub fn identity(&self) -> (Sender, u64) {
        (self.from.clone(), self.seq)
    }
}

/// A naplet's mailbox: FIFO of user messages awaiting a `recv`.
/// System messages never enter the mailbox — they interrupt instead.
#[derive(Debug, Clone, PartialEq, Encode, Decode, Default)]
pub struct Mailbox {
    queue: Vec<Message>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox::default()
    }

    /// Deposit a message (messenger-side).
    pub fn deposit(&mut self, msg: Message) {
        debug_assert!(
            !msg.payload.is_system(),
            "system messages interrupt, not queue"
        );
        self.queue.push(msg);
    }

    /// Take the oldest message, if any (naplet-side `getMessage`).
    pub fn take(&mut self) -> Option<Message> {
        if self.queue.is_empty() {
            None
        } else {
            Some(self.queue.remove(0))
        }
    }

    /// Peek without removing.
    pub fn peek(&self) -> Option<&Message> {
        self.queue.first()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no messages wait.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drain all queued messages in arrival order. Used when a special
    /// mailbox (early messages, §4.2 case 3) is dumped into the real
    /// mailbox on naplet arrival.
    pub fn drain(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(n: u64) -> NapletId {
        NapletId::new("u", "h", Millis(n)).unwrap()
    }

    #[test]
    fn payload_classes() {
        assert!(Payload::System(ControlVerb::Terminate).is_system());
        assert!(!Payload::User(Value::Nil).is_system());
    }

    #[test]
    fn mailbox_is_fifo() {
        let mut mb = Mailbox::new();
        for i in 0..3 {
            mb.deposit(Message::user(
                i,
                Sender::Owner("home".into()),
                nid(1),
                Millis(i),
                Value::Int(i as i64),
            ));
        }
        assert_eq!(mb.len(), 3);
        assert_eq!(mb.peek().unwrap().seq, 0);
        assert_eq!(mb.take().unwrap().seq, 0);
        assert_eq!(mb.take().unwrap().seq, 1);
        assert_eq!(mb.take().unwrap().seq, 2);
        assert!(mb.take().is_none());
        assert!(mb.is_empty());
    }

    #[test]
    fn drain_preserves_order() {
        let mut mb = Mailbox::new();
        for i in 0..4 {
            mb.deposit(Message::user(
                i,
                Sender::Naplet(nid(9)),
                nid(1),
                Millis(0),
                Value::Nil,
            ));
        }
        let all = mb.drain();
        assert_eq!(all.len(), 4);
        assert!(mb.is_empty());
        assert_eq!(all.iter().map(|m| m.seq).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn identity_distinguishes_senders() {
        let a = Message::user(7, Sender::Naplet(nid(1)), nid(2), Millis(0), Value::Nil);
        let b = Message::user(7, Sender::Naplet(nid(3)), nid(2), Millis(0), Value::Nil);
        assert_ne!(a.identity(), b.identity());
        assert_eq!(a.identity(), a.clone().identity());
    }

    #[test]
    fn sender_short_forms() {
        assert_eq!(Sender::Owner("home".into()).short(), "owner@home");
        assert!(Sender::Naplet(nid(1)).short().starts_with("u@h"));
    }

    #[test]
    fn codec_round_trip() {
        let m = Message::system(
            3,
            Sender::Owner("home".into()),
            nid(1),
            Millis(5),
            ControlVerb::Custom("recalibrate".into()),
        );
        let bytes = crate::codec::to_bytes(&m).unwrap();
        let back: Message = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }
}
