//! Wire-propagated trace context.
//!
//! A [`TraceCtx`] rides along with every wire value a journey emits —
//! inside the `SimRuntime`'s delivery events in-process, and as an
//! optional extension block of the transport frame across real
//! sockets — so trace events recorded by *different* daemons can be
//! joined into one causal timeline:
//!
//! - `journey` is the travelling naplet's id string (the journey's
//!   trace id, same correlation key the tracer already uses);
//! - `origin` is the host that minted the context (the journey's home
//!   as seen by the first sender);
//! - `hop` counts successful-migration attempts: it advances exactly
//!   once per first-attempt `Transfer` send and is *kept* by
//!   retransmissions, so the sequence of hops observed at admissions
//!   is strictly monotone per journey even under loss;
//! - `seq` is a per-sender causal sequence number, advanced on every
//!   context-carrying send. `(journey, seq, sending host)` uniquely
//!   names one physical send, which is how a merged cluster trace
//!   pairs a `wire.recv` with the `wire.send` that caused it.
//!
//! The type lives in `naplet-core` because both the transport framing
//! (`naplet-net`) and the observability plane (`naplet-obs`) speak it.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Compact causal context propagated with a journey's wire traffic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCtx {
    /// The journey's trace id (the naplet id string).
    pub journey: String,
    /// Host that minted this context.
    pub origin: String,
    /// Migration-hop counter (advances on first-attempt transfers).
    pub hop: u32,
    /// Per-sender causal sequence number (advances on every send).
    pub seq: u64,
}

/// Per-driver table of the freshest [`TraceCtx`] known for each
/// journey. Every driver that moves wire values (the sim runtime, and
/// each wall-clock node: server threads, harness and station nodes
/// alike) owns one; senders advance it, receivers adopt what arrived when it is at least as
/// fresh as what they knew.
#[derive(Debug, Clone, Default)]
pub struct CtxTable {
    map: HashMap<String, TraceCtx>,
}

impl CtxTable {
    /// An empty table.
    pub fn new() -> CtxTable {
        CtxTable::default()
    }

    /// Advance the journey's context for one outgoing send and return
    /// the value to stamp on the wire: `seq` always steps, `hop` steps
    /// only when `new_hop` (a first-attempt `Transfer`) is set. A
    /// journey first seen here is minted with `origin_host` as origin.
    pub fn on_send(&mut self, journey: &str, origin_host: &str, new_hop: bool) -> TraceCtx {
        let entry = self
            .map
            .entry(journey.to_string())
            .or_insert_with(|| TraceCtx {
                journey: journey.to_string(),
                origin: origin_host.to_string(),
                hop: 0,
                seq: 0,
            });
        entry.seq += 1;
        if new_hop {
            entry.hop += 1;
        }
        entry.clone()
    }

    /// Adopt a context that arrived on the wire: it replaces the local
    /// entry when its `seq` is at least as fresh (so a reordered stale
    /// frame never winds a journey backwards). The hop counter only
    /// ever ratchets up.
    pub fn adopt(&mut self, ctx: &TraceCtx) {
        match self.map.get_mut(&ctx.journey) {
            Some(entry) => {
                if ctx.seq >= entry.seq {
                    entry.origin = ctx.origin.clone();
                    entry.seq = ctx.seq;
                    entry.hop = entry.hop.max(ctx.hop);
                }
            }
            None => {
                self.map.insert(ctx.journey.clone(), ctx.clone());
            }
        }
    }

    /// The freshest context known for `journey`, if any.
    pub fn current(&self, journey: &str) -> Option<&TraceCtx> {
        self.map.get(journey)
    }

    /// Forget a finished journey (bounds live tables).
    pub fn forget(&mut self, journey: &str) {
        self.map.remove(journey);
    }

    /// Tracked journeys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no journey is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_advances_seq_and_hops_only_on_new_hops() {
        let mut t = CtxTable::new();
        let a = t.on_send("j", "home", false);
        assert_eq!((a.hop, a.seq), (0, 1));
        assert_eq!(a.origin, "home");
        let b = t.on_send("j", "home", true);
        assert_eq!((b.hop, b.seq), (1, 2));
        // a retransmission keeps the hop, advances the seq
        let c = t.on_send("j", "home", false);
        assert_eq!((c.hop, c.seq), (1, 3));
    }

    #[test]
    fn adopt_takes_fresher_contexts_and_ignores_stale_ones() {
        let mut t = CtxTable::new();
        t.adopt(&TraceCtx {
            journey: "j".into(),
            origin: "home".into(),
            hop: 2,
            seq: 5,
        });
        assert_eq!(t.current("j").unwrap().hop, 2);
        // stale frame (lower seq) must not wind the journey backwards
        t.adopt(&TraceCtx {
            journey: "j".into(),
            origin: "home".into(),
            hop: 1,
            seq: 3,
        });
        assert_eq!(t.current("j").unwrap().seq, 5);
        assert_eq!(t.current("j").unwrap().hop, 2);
        // fresher seq with an equal hop is adopted
        t.adopt(&TraceCtx {
            journey: "j".into(),
            origin: "home".into(),
            hop: 2,
            seq: 9,
        });
        assert_eq!(t.current("j").unwrap().seq, 9);
        // local sends continue from the adopted point
        let next = t.on_send("j", "elsewhere", true);
        assert_eq!((next.hop, next.seq), (3, 10));
        assert_eq!(next.origin, "home", "origin survives adoption");
    }

    #[test]
    fn forget_drops_the_journey() {
        let mut t = CtxTable::new();
        t.on_send("j", "home", false);
        assert_eq!(t.len(), 1);
        t.forget("j");
        assert!(t.is_empty());
    }

    #[test]
    fn ctx_codec_round_trip() {
        let ctx = TraceCtx {
            journey: "naplet://czxu@home/1".into(),
            origin: "home".into(),
            hop: 3,
            seq: 17,
        };
        let bytes = crate::codec::to_bytes(&ctx).unwrap();
        let back: TraceCtx = crate::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, ctx);
    }
}
