//! Replicated NapletDirectory: leader-lease consensus core (§4.9).
//!
//! The paper's central directory is one map on one host — a single
//! point of failure. This module replicates it over a small replica
//! set with a deterministic leader-lease + replicated-log protocol
//! (Raft-shaped, adapted to the event-handler architecture):
//!
//! * **Roles & terms** — each replica is a follower, candidate or
//!   leader in a monotonically increasing *term*. `(term, voted_for)`
//!   and every log entry — one record per proposal or accepted append —
//!   are journaled (`r/…` keys) before they are acted on, so a crashed
//!   replica rejoins with its promises intact.
//! * **Leader lease** — heartbeats renew a follower-side lease on the
//!   current leader; while the lease is fresh a follower refuses vote
//!   requests from third parties, so a partitioned replica cannot
//!   disrupt a live leader by inflating terms.
//! * **Election** — when the lease lapses, a follower campaigns with
//!   its last log position; replicas grant at most one vote per term
//!   and only to candidates whose log is at least as up-to-date, so a
//!   majority winner provably holds every committed entry.
//! * **Commit rule** — the leader appends [`DirOp`]s, replicates them,
//!   and commits an index once a majority acknowledges it (own-term
//!   entries only; earlier terms commit transitively). Only committed
//!   ops are applied to the directory and acknowledged to clients.
//! * **Catch-up** — a laggard follower is walked back to the first
//!   divergent index; one compacted below the leader's snapshot base
//!   receives a full state snapshot instead.
//! * **Quiescence** — the whole replica set suspends its timers once
//!   the log is fully replicated and idle (the leader announces it in
//!   a final heartbeat), so a simulated run still reaches quiescence;
//!   any client operation or consensus message wakes it again.
//!
//! The core ([`ReplicaCore`]) is a pure deterministic state machine:
//! `tick`/`receive`/`propose` return a [`ReplOut`] of messages to
//! send, ops newly committed, and notes for tracing — the hosting
//! [`crate::server::NapletServer`] turns those into wire traffic.

mod core;

pub use self::core::{ReplOut, ReplicaCore, Role};

use naplet_core::codec::{Decode, Encode};

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;

use crate::directory::DirEntry;
use crate::events::Wire;

/// One replicated directory operation — the unit of the log.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub enum DirOp {
    /// Register where a naplet is (the replicated `DirRegister`).
    Register {
        /// Moving naplet.
        id: NapletId,
        /// Host the naplet runs at or is heading to.
        host: String,
        /// Registration time at the accepting leader.
        at: Millis,
    },
    /// Remove a naplet (journey ended).
    Remove {
        /// The finished naplet.
        id: NapletId,
    },
    /// No-op appended by a freshly elected leader so the commit index
    /// catches up to its log immediately (entries from earlier terms
    /// commit transitively under it).
    Noop,
}

impl DirOp {
    /// The operation a directory frame asks for, stamped `at` the
    /// accepting leader's clock; a frame that asks for none is a no-op.
    pub fn of(wire: &Wire, at: Millis) -> DirOp {
        match wire {
            Wire::DirRegister { id, host, .. } => DirOp::Register {
                id: id.clone(),
                host: host.clone(),
                at,
            },
            Wire::DirRemove { id } => DirOp::Remove { id: id.clone() },
            _ => DirOp::Noop,
        }
    }

    /// Stable short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            DirOp::Register { .. } => "register",
            DirOp::Remove { .. } => "remove",
            DirOp::Noop => "noop",
        }
    }

    /// The naplet this operation concerns, if any.
    pub fn subject(&self) -> Option<&NapletId> {
        match self {
            DirOp::Register { id, .. } | DirOp::Remove { id } => Some(id),
            DirOp::Noop => None,
        }
    }
}

/// One replicated-log entry.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct ReplEntry {
    /// Term the entry was appended in.
    pub term: u64,
    /// The operation.
    pub op: DirOp,
}

/// Consensus traffic between replicas. Carried on the wire inside
/// [`crate::events::Wire::Repl`] (traffic class `Control`).
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub enum ReplMsg {
    /// Candidate → peers: request a vote for `term`.
    VoteRequest {
        /// Candidate's term.
        term: u64,
        /// Campaigning replica.
        candidate: String,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Peer → candidate: vote decision.
    VoteReply {
        /// The voter's current term.
        term: u64,
        /// Granted?
        granted: bool,
    },
    /// Leader → follower: heartbeat / log replication.
    Append {
        /// Leader's term.
        term: u64,
        /// The leader.
        leader: String,
        /// Index immediately preceding `entries`.
        prev_index: u64,
        /// Term at `prev_index` (consistency check).
        prev_term: u64,
        /// Entries to append (empty for a pure heartbeat).
        entries: Vec<ReplEntry>,
        /// Leader's commit index.
        commit: u64,
        /// `true` on the final heartbeat before the replica set
        /// suspends its timers (log fully replicated, nothing
        /// pending); followers stop their election clocks too.
        idle: bool,
    },
    /// Follower → leader: replication outcome.
    AppendReply {
        /// The follower's current term.
        term: u64,
        /// Whether the consistency check passed and entries appended.
        ok: bool,
        /// Highest index the follower now matches (on failure: a hint
        /// to walk `next_index` back to).
        match_index: u64,
    },
    /// Leader → compacted-away follower: full state install.
    Snapshot {
        /// Leader's term.
        term: u64,
        /// The leader.
        leader: String,
        /// Index the snapshot covers through.
        last_index: u64,
        /// Term at `last_index`.
        last_term: u64,
        /// The directory state at `last_index`, sorted by id.
        state: Vec<(NapletId, DirEntry)>,
        /// Deregistration tombstones live at `last_index`, oldest
        /// first: late re-registrations of a finished agent stay dead
        /// even on a replica that catches up via snapshot.
        removed: Vec<(String, u64)>,
    },
    /// Follower → leader: snapshot installed through `last_index`.
    SnapshotReply {
        /// The follower's current term.
        term: u64,
        /// Echoed snapshot index.
        last_index: u64,
    },
}

impl ReplMsg {
    /// Stable short label for traces and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ReplMsg::VoteRequest { .. } => "VoteRequest",
            ReplMsg::VoteReply { .. } => "VoteReply",
            ReplMsg::Append { .. } => "Append",
            ReplMsg::AppendReply { .. } => "AppendReply",
            ReplMsg::Snapshot { .. } => "Snapshot",
            ReplMsg::SnapshotReply { .. } => "SnapshotReply",
        }
    }
}

/// Timing and sizing of the consensus core. All values are modelled
/// milliseconds on the same clock as every other server timer.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct ReplConfig {
    /// The replica set (host names), identical on every member.
    pub replicas: Vec<String>,
    /// Timer granularity: the self-rearming `ReplTick` interval.
    pub tick_ms: u64,
    /// Leader lease: how long a heartbeat keeps a follower loyal.
    pub lease_ms: u64,
    /// Heartbeat interval (must renew well inside `lease_ms`).
    pub heartbeat_ms: u64,
    /// Base election timeout; each replica adds a deterministic
    /// per-host offset so campaigns rarely collide.
    pub election_ms: u64,
    /// Compact the log once this many applied entries accumulate
    /// beyond the snapshot base.
    pub snapshot_keep: u64,
    /// How many entries a leader holds back from compaction for its
    /// slowest live follower. Within this window a laggard catches up
    /// by plain appends; beyond it (crashed or long-partitioned) it
    /// gets a full snapshot install instead of pinning the log.
    pub catchup_keep: u64,
}

impl ReplConfig {
    /// Defaults tuned for both simulated and real clusters: heartbeat
    /// well inside the lease, election comfortably beyond it.
    pub fn new(replicas: Vec<String>) -> ReplConfig {
        ReplConfig {
            replicas,
            tick_ms: 25,
            lease_ms: 300,
            heartbeat_ms: 100,
            election_ms: 600,
            snapshot_keep: 64,
            catchup_keep: 8192,
        }
    }

    /// Majority size of this replica set.
    pub fn majority(&self) -> usize {
        self.replicas.len() / 2 + 1
    }
}

/// Events the core reports for observability: the hosting server
/// turns them into metrics and trace events.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplNote {
    /// This replica started a campaign for `term`.
    ElectionStarted {
        /// The campaign term.
        term: u64,
    },
    /// This replica won the election for `term`.
    LeaderElected {
        /// Term won.
        term: u64,
    },
    /// This replica learned a (new) leader for `term`.
    LeaderChanged {
        /// The leader's term.
        term: u64,
        /// The leader.
        leader: String,
    },
    /// A snapshot through `index` was installed on this replica.
    SnapshotInstalled {
        /// Last index the snapshot covers.
        index: u64,
    },
}

/// Deterministic per-host hash (FNV-1a), used for election-timeout
/// offsets so replicas campaign at distinct, reproducible instants.
pub(crate) fn host_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
