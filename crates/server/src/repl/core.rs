//! The deterministic consensus state machine (see module docs in
//! [`crate::repl`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::id::NapletId;

use crate::directory::{DirEntry, NapletDirectory};
use crate::journal::Journal;

use super::{host_hash, DirOp, ReplConfig, ReplEntry, ReplMsg, ReplNote};

/// Heartbeat rounds with nothing to replicate before the leader
/// announces idle and the replica set suspends its timers.
const IDLE_AFTER_ROUNDS: u32 = 2;

/// Entries shipped per `Append` while a laggard catches up.
const APPEND_BATCH: usize = 256;

/// A replica's current role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepting replicated entries from a leader.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// Replicating and committing the log.
    Leader,
}

impl Role {
    /// Stable lowercase label for status reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            Role::Follower => "follower",
            Role::Candidate => "candidate",
            Role::Leader => "leader",
        }
    }
}

/// What one `tick`/`receive`/`propose` call asks the host server to do.
#[derive(Debug, Default)]
pub struct ReplOut {
    /// Consensus messages to send: `(peer, msg)`.
    pub msgs: Vec<(String, ReplMsg)>,
    /// Ops newly committed and applied, in log order, with the
    /// propose→commit lag in ms when this replica was the proposer.
    pub committed: Vec<(u64, DirOp, Option<u64>)>,
    /// Observability notes (elections, leader changes, snapshots).
    pub notes: Vec<ReplNote>,
    /// Whether the replica wants its tick timer running. `false` means
    /// the core is suspended (cluster idle) and needs no timer until
    /// the next message or client operation wakes it.
    pub rearm: bool,
}

/// The per-replica consensus core. Pure and deterministic: all timing
/// comes in through `now`, all randomness is a per-host hash, and all
/// durability goes through the passed-in [`Journal`].
#[derive(Debug)]
pub struct ReplicaCore {
    host: String,
    cfg: ReplConfig,
    // persistent (journaled before use)
    term: u64,
    voted_for: Option<String>,
    /// Log entries above `snap_base` (index `snap_base + 1 + i`).
    log: Vec<ReplEntry>,
    snap_base: u64,
    snap_term: u64,
    /// First index of every `r/e/{first:016x}` record in the journal,
    /// ascending. A record is one run of the log: a leader's proposal,
    /// or the entries one accepted `Append` added. It answers for its
    /// indices up to the next record's first (see [`recover_log`]).
    runs: Vec<u64>,
    /// Encode scratch for journal records.
    buf: Vec<u8>,
    // volatile
    role: Role,
    leader: Option<String>,
    lease_until: Millis,
    election_due: Millis,
    votes: BTreeSet<String>,
    next_index: BTreeMap<String, u64>,
    match_index: BTreeMap<String, u64>,
    /// Appends (or snapshots) sent to a peer and not yet answered.
    /// Proposals only open a new exchange when the peer has none in
    /// flight — new entries otherwise ride the ack-triggered batch —
    /// so a registration burst costs O(entries / APPEND_BATCH)
    /// round-trips per peer instead of one exchange per proposal.
    /// Heartbeats ignore (and reset) the window, so a lost reply
    /// never wedges a peer for longer than `heartbeat_ms`.
    inflight: BTreeMap<String, u32>,
    commit: u64,
    last_applied: u64,
    next_heartbeat: Millis,
    idle_streak: u32,
    suspended: bool,
    /// When this leadership proposed each entry not yet applied, for
    /// the commit lag. Dropped on stepping down: another leader's entry
    /// may take the index.
    propose_at: BTreeMap<u64, Millis>,
    removed: Tombstones,
    /// The committed directory: every applied `DirOp`'s outcome.
    pub state: NapletDirectory,
}

/// How many deregistration tombstones to retain (oldest pruned first).
const TOMBSTONE_KEEP: usize = 512;

/// The compaction record `r/snap`: base index, its term, the directory
/// state sorted by id, and the tombstones oldest first as `(id text,
/// index)`. [`ReplicaCore::persist_snapshot`] encodes the same tuple
/// from borrowed parts.
type SnapshotRecord = (u64, u64, Vec<(NapletId, DirEntry)>, Vec<(String, u64)>);

/// Deregistration tombstones: the newest [`TOMBSTONE_KEEP`] committed
/// `Remove`s, each with its log index. A `Register` that commits after
/// the agent was deregistered (a straggling retry that outlived its
/// journey) applies as a no-op, so a finished agent can never resurrect
/// in the directory. Pure function of the applied log — identical on
/// every replica.
#[derive(Debug, Default)]
struct Tombstones {
    /// Membership, asked by every applied `Register`.
    by_id: HashMap<NapletId, u64>,
    /// The same window oldest first, for pruning, with each id's text
    /// (its key in a snapshot) written once, when it is tombstoned.
    by_index: BTreeMap<u64, (NapletId, String)>,
}

impl Tombstones {
    /// The window a snapshot carries.
    fn install(image: Vec<(String, u64)>) -> Tombstones {
        let mut window = Tombstones::default();
        for (text, index) in image {
            if let Ok(id) = text.parse::<NapletId>() {
                window.by_id.insert(id.clone(), index);
                window.by_index.insert(index, (id, text));
            }
        }
        window
    }

    fn contains(&self, id: &NapletId) -> bool {
        self.by_id.contains_key(id)
    }

    /// Tombstone `id` by its `Remove` at `index`: an id removed again
    /// moves to the newest slot, and the oldest beyond the window go.
    fn insert(&mut self, id: &NapletId, index: u64) {
        let moved = match self.by_id.insert(id.clone(), index) {
            Some(old) => self.by_index.remove(&old).map(|(_, text)| text),
            None => None,
        };
        let text = moved.unwrap_or_else(|| id.to_string());
        self.by_index.insert(index, (id.clone(), text));
        while self.by_index.len() > TOMBSTONE_KEEP {
            if let Some((_, (gone, _))) = self.by_index.pop_first() {
                self.by_id.remove(&gone);
            }
        }
    }

    /// The window oldest first, borrowed for a snapshot.
    fn image(&self) -> Vec<(&str, u64)> {
        let window = self.by_index.iter();
        window
            .map(|(index, (_, text))| (text.as_str(), *index))
            .collect()
    }
}

/// `peer`'s slot in a per-peer table, created on its first touch: the
/// key is allocated once per peer, not once per reply.
fn slot<'t, V>(table: &'t mut BTreeMap<String, V>, peer: &str, new: V) -> &'t mut V {
    if !table.contains_key(peer) {
        table.insert(peer.to_string(), new);
    }
    table.get_mut(peer).expect("inserted above")
}

/// The log a journal holds above `snap_base`, and the first index of
/// every `e/` record in it. Records are read in index order; each one
/// answers from its first index on, over whatever an earlier record
/// held there, so a crash between writing a run and dropping what it
/// replaced reads as one side or the other. Stragglers wholly at or
/// below the base add nothing. A record that starts past the end of
/// the log so far, or does not decode, is a gap: the torn tail beyond
/// it is unreachable, and is listed only so the next run written below
/// it removes it.
fn recover_log(journal: &Journal, snap_base: u64) -> (Vec<ReplEntry>, Vec<u64>) {
    let mut log: Vec<ReplEntry> = Vec::new();
    let mut runs = Vec::new();
    let mut torn = false;
    for key in journal.repl_keys() {
        let first = key
            .strip_prefix("e/")
            .map(|hex| u64::from_str_radix(hex, 16));
        let Some(Ok(first)) = first else { continue };
        runs.push(first);
        let next = snap_base + 1 + log.len() as u64;
        let run = journal.get_repl(&key);
        match run.and_then(|b| codec::from_bytes::<Vec<ReplEntry>>(&b).ok()) {
            Some(run) if !torn && first <= next => {
                let from = first.max(snap_base + 1);
                let skip = (from - first) as usize;
                if skip < run.len() {
                    log.truncate((from - snap_base - 1) as usize);
                    log.extend(run.into_iter().skip(skip));
                }
            }
            _ => torn = true,
        }
    }
    (log, runs)
}

impl ReplicaCore {
    /// Build (or recover) the replica for `host`, replaying any
    /// journaled consensus records: term/vote meta, the compaction
    /// snapshot, and the log runs above it.
    pub fn recover(host: &str, cfg: ReplConfig, journal: &Journal) -> ReplicaCore {
        let (term, voted_for) = journal
            .get_repl("meta")
            .and_then(|b| codec::from_bytes::<(u64, Option<String>)>(&b).ok())
            .unwrap_or((0, None));
        let mut state = NapletDirectory::new();
        let mut removed = Tombstones::default();
        let snapshot = journal.get_repl("snap");
        let (snap_base, snap_term) =
            match snapshot.and_then(|b| codec::from_bytes::<SnapshotRecord>(&b).ok()) {
                Some((base, t, entries, tombs)) => {
                    state.install(entries);
                    removed = Tombstones::install(tombs);
                    (base, t)
                }
                None => (0, 0),
            };
        let (log, runs) = recover_log(journal, snap_base);
        let offset = host_hash(host) % cfg.election_ms.max(1);
        ReplicaCore {
            host: host.to_string(),
            election_due: Millis(cfg.election_ms + offset),
            cfg,
            term,
            voted_for,
            log,
            snap_base,
            snap_term,
            runs,
            buf: Vec::new(),
            role: Role::Follower,
            leader: None,
            lease_until: Millis(0),
            votes: BTreeSet::new(),
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            inflight: BTreeMap::new(),
            commit: snap_base,
            last_applied: snap_base,
            next_heartbeat: Millis(0),
            idle_streak: 0,
            suspended: false,
            propose_at: BTreeMap::new(),
            removed,
            state,
        }
    }

    /// This replica's host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The configured replica set.
    pub fn config(&self) -> &ReplConfig {
        &self.cfg
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Commit index.
    pub fn commit_index(&self) -> u64 {
        self.commit
    }

    /// Last log index.
    pub fn last_index(&self) -> u64 {
        self.snap_base + self.log.len() as u64
    }

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// The leader this replica believes in (itself when leading).
    pub fn leader_hint(&self) -> Option<&str> {
        self.leader.as_deref()
    }

    /// Whether the core's timers are suspended (cluster idle).
    pub fn is_suspended(&self) -> bool {
        self.suspended
    }

    fn peers(&self) -> impl Iterator<Item = &String> {
        self.cfg.replicas.iter().filter(move |r| **r != self.host)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else if index == self.snap_base {
            self.snap_term
        } else if index > self.snap_base && index <= self.last_index() {
            self.log[(index - self.snap_base - 1) as usize].term
        } else {
            0
        }
    }

    fn election_timeout(&self) -> u64 {
        self.cfg.election_ms + host_hash(&self.host) % self.cfg.election_ms.max(1)
    }

    fn persist_meta(&mut self, journal: &mut Journal) {
        let meta = (self.term, self.voted_for.as_deref());
        if codec::to_bytes_into(&meta, &mut self.buf).is_ok() {
            let _ = journal.put_repl("meta", &self.buf);
        }
    }

    /// Journal the log from `first` to its end as one record,
    /// `r/e/{first:016x}`: a proposal, the entries an `Append` added, or
    /// a run cut back to where the log now ends. Records listed past
    /// `first` go first — a conflicting tail, or debris beyond a gap
    /// recovery stopped at — so no stale run outlives the log it
    /// contradicts.
    fn journal_run(&mut self, first: u64, journal: &mut Journal) {
        while let Some(stale) = self.runs.pop_if(|run| *run > first) {
            let _ = journal.remove_repl(format_args!("e/{stale:016x}"));
        }
        if self.runs.last() != Some(&first) {
            self.runs.push(first);
        }
        let run = &self.log[(first - self.snap_base - 1) as usize..];
        if codec::to_bytes_into(run, &mut self.buf).is_ok() {
            let _ = journal.put_repl(format_args!("e/{first:016x}"), &self.buf);
        }
    }

    /// The log was cut back to end before `cut`, a conflicting tail.
    /// The record holding `cut` is rewritten to end there too (from the
    /// snapshot base, when it started below it); one starting at `cut`
    /// is left for the new run to overwrite.
    fn cut_journal(&mut self, cut: u64, journal: &mut Journal) {
        let holders = &self.runs[..self.runs.partition_point(|run| *run <= cut)];
        if let Some(&held) = holders.last() {
            let from = held.max(self.snap_base + 1);
            if from < cut {
                self.journal_run(from, journal);
            }
        }
    }

    fn step_down(&mut self, term: u64, journal: &mut Journal) {
        let was = self.term;
        self.term = term;
        self.role = Role::Follower;
        if term > was {
            self.voted_for = None;
        }
        self.leader = None;
        self.votes.clear();
        // what this leadership proposed may be overwritten by another
        // leader's entry at the same index: no lag is ours to report
        self.propose_at.clear();
        self.persist_meta(journal);
    }

    /// Wake a suspended core because client traffic arrived (a
    /// registration or query reached this replica). Resets the
    /// election clock so a dead leader is detected from now, not from
    /// whenever the cluster went idle. Returns `true` when the host
    /// server must restart the tick timer.
    pub fn client_activity(&mut self, now: Millis) -> bool {
        if !self.suspended {
            return false;
        }
        self.suspended = false;
        self.idle_streak = 0;
        if self.role != Role::Leader {
            self.election_due = Millis(now.0 + self.election_timeout());
        } else {
            self.next_heartbeat = now;
        }
        true
    }

    /// Propose an operation (leader only). Returns the assigned log
    /// index — `None` when this replica is not the leader, in which
    /// case the caller forwards to [`Self::leader_hint`] or drops for
    /// the client's retry machinery to handle.
    pub fn propose(
        &mut self,
        op: DirOp,
        now: Millis,
        journal: &mut Journal,
    ) -> (Option<u64>, ReplOut) {
        let mut out = ReplOut::default();
        if self.role != Role::Leader {
            return (None, out);
        }
        if self.suspended {
            self.suspended = false;
            self.idle_streak = 0;
        }
        self.log.push(ReplEntry {
            term: self.term,
            op,
        });
        let index = self.last_index();
        self.journal_run(index, journal);
        self.propose_at.insert(index, now);
        if self.cfg.replicas.len() == 1 {
            self.advance_commit(now, journal, &mut out);
        } else {
            // only open a new exchange with peers that have nothing in
            // flight; busy peers pick the entry up from the batch their
            // next ack triggers (or the next heartbeat). The heartbeat
            // cadence is deliberately NOT pushed out here: it is the
            // loss-recovery path, and a steady proposal stream must not
            // be able to defer it forever.
            for peer in self.cfg.replicas.iter().filter(|p| **p != self.host) {
                if self.inflight.get(peer).is_none_or(|n| *n == 0) {
                    let msg = self.append_for(peer, false);
                    *slot(&mut self.inflight, peer, 0) += 1;
                    out.msgs.push((peer.clone(), msg));
                }
            }
        }
        out.rearm = true;
        (Some(index), out)
    }

    /// Timer tick: drive elections (follower/candidate) or heartbeats
    /// (leader). The caller re-arms the tick only while `out.rearm`.
    pub fn tick(&mut self, now: Millis, journal: &mut Journal) -> ReplOut {
        let mut out = ReplOut::default();
        if self.suspended {
            return out;
        }
        out.rearm = true;
        match self.role {
            Role::Follower | Role::Candidate => {
                if now >= self.election_due {
                    self.start_election(now, journal, &mut out);
                }
            }
            Role::Leader => {
                if now >= self.next_heartbeat {
                    let caught_up = self.commit == self.last_index()
                        && self.peers().all(|p| {
                            self.match_index.get(p).copied().unwrap_or(0) == self.last_index()
                        });
                    if caught_up {
                        self.idle_streak += 1;
                    } else {
                        self.idle_streak = 0;
                    }
                    let idle = self.idle_streak >= IDLE_AFTER_ROUNDS;
                    self.broadcast_appends(idle, &mut out);
                    self.next_heartbeat = Millis(now.0 + self.cfg.heartbeat_ms);
                    if idle {
                        self.suspended = true;
                        out.rearm = false;
                    }
                }
            }
        }
        out
    }

    fn start_election(&mut self, now: Millis, journal: &mut Journal, out: &mut ReplOut) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.host.clone());
        self.leader = None;
        self.votes = BTreeSet::from([self.host.clone()]);
        self.persist_meta(journal);
        self.election_due = Millis(now.0 + self.election_timeout());
        out.notes
            .push(ReplNote::ElectionStarted { term: self.term });
        if self.votes.len() >= self.cfg.majority() {
            self.become_leader(now, journal, out);
            return;
        }
        let req = ReplMsg::VoteRequest {
            term: self.term,
            candidate: self.host.clone(),
            last_log_index: self.last_index(),
            last_log_term: self.term_at(self.last_index()),
        };
        for peer in self.cfg.replicas.clone() {
            if peer != self.host {
                out.msgs.push((peer, req.clone()));
            }
        }
    }

    fn become_leader(&mut self, now: Millis, journal: &mut Journal, out: &mut ReplOut) {
        self.role = Role::Leader;
        self.leader = Some(self.host.clone());
        self.idle_streak = 0;
        let next = self.last_index() + 1;
        self.next_index = self.peers().map(|p| (p.clone(), next)).collect();
        self.match_index = self.peers().map(|p| (p.clone(), 0)).collect();
        out.notes.push(ReplNote::LeaderElected { term: self.term });
        // a no-op of the new term lets the commit index catch up to
        // the whole inherited log as soon as a majority acks it
        self.log.push(ReplEntry {
            term: self.term,
            op: DirOp::Noop,
        });
        self.journal_run(self.last_index(), journal);
        if self.cfg.replicas.len() == 1 {
            self.advance_commit(now, journal, out);
        } else {
            self.broadcast_appends(false, out);
        }
        self.next_heartbeat = Millis(now.0 + self.cfg.heartbeat_ms);
    }

    fn append_for(&self, peer: &str, idle: bool) -> ReplMsg {
        let ni = self.next_index.get(peer).copied().unwrap_or(1).max(1);
        if ni <= self.snap_base {
            let removed = self.removed.image().into_iter();
            return ReplMsg::Snapshot {
                term: self.term,
                leader: self.host.clone(),
                last_index: self.snap_base,
                last_term: self.snap_term,
                state: self.state.entries(),
                removed: removed.map(|(id, index)| (id.to_string(), index)).collect(),
            };
        }
        let prev_index = ni - 1;
        let start = (ni - self.snap_base - 1) as usize;
        let end = (start + APPEND_BATCH).min(self.log.len());
        ReplMsg::Append {
            term: self.term,
            leader: self.host.clone(),
            prev_index,
            prev_term: self.term_at(prev_index),
            entries: self.log[start..end].to_vec(),
            commit: self.commit,
            idle,
        }
    }

    /// Emit one append (or snapshot) to `peer` and count it in flight.
    fn send_append(&mut self, peer: &str, idle: bool, out: &mut ReplOut) {
        let msg = self.append_for(peer, idle);
        *slot(&mut self.inflight, peer, 0) += 1;
        out.msgs.push((peer.to_string(), msg));
    }

    fn broadcast_appends(&mut self, idle: bool, out: &mut ReplOut) {
        for peer in self.cfg.replicas.iter().filter(|p| **p != self.host) {
            // a heartbeat supersedes whatever was in flight: if a reply
            // was lost, this is what un-wedges the window
            let msg = self.append_for(peer, idle);
            *slot(&mut self.inflight, peer, 0) = 1;
            out.msgs.push((peer.clone(), msg));
        }
    }

    /// Handle a consensus message from `from`.
    pub fn receive(
        &mut self,
        now: Millis,
        from: &str,
        msg: ReplMsg,
        journal: &mut Journal,
    ) -> ReplOut {
        let mut out = ReplOut::default();
        match msg {
            ReplMsg::VoteRequest {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                // leader-lease suppression: while the current leader's
                // heartbeats are fresh, refuse third-party campaigns
                // without even adopting their (possibly inflated) term
                if self.leader.is_some()
                    && self.leader.as_deref() != Some(candidate.as_str())
                    && now < self.lease_until
                {
                    out.msgs.push((
                        from.to_string(),
                        ReplMsg::VoteReply {
                            term: self.term,
                            granted: false,
                        },
                    ));
                    return out;
                }
                if term > self.term {
                    self.step_down(term, journal);
                }
                let up_to_date = (last_log_term, last_log_index)
                    >= (self.term_at(self.last_index()), self.last_index());
                let vote_free = match &self.voted_for {
                    None => true,
                    Some(v) => *v == candidate,
                };
                let granted =
                    term == self.term && self.role != Role::Leader && up_to_date && vote_free;
                if granted {
                    self.voted_for = Some(candidate.clone());
                    self.persist_meta(journal);
                    // granting resets our own clock — don't campaign
                    // against someone we just endorsed
                    self.election_due = Millis(now.0 + self.election_timeout());
                    self.wake(now, &mut out);
                }
                out.msgs.push((
                    from.to_string(),
                    ReplMsg::VoteReply {
                        term: self.term,
                        granted,
                    },
                ));
            }
            ReplMsg::VoteReply { term, granted } => {
                if term > self.term {
                    self.step_down(term, journal);
                    return out;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from.to_string());
                    if self.votes.len() >= self.cfg.majority() {
                        self.wake(now, &mut out);
                        self.become_leader(now, journal, &mut out);
                    }
                }
            }
            ReplMsg::Append {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                commit,
                idle,
            } => {
                if term < self.term {
                    out.msgs.push((
                        from.to_string(),
                        ReplMsg::AppendReply {
                            term: self.term,
                            ok: false,
                            match_index: 0,
                        },
                    ));
                    return out;
                }
                if term > self.term || self.role != Role::Follower {
                    self.step_down(term, journal);
                }
                if self.leader.as_deref() != Some(leader.as_str()) {
                    self.leader = Some(leader.clone());
                    out.notes.push(ReplNote::LeaderChanged {
                        term,
                        leader: leader.clone(),
                    });
                }
                self.wake(now, &mut out);
                self.lease_until = Millis(now.0 + self.cfg.lease_ms);
                self.election_due = Millis(now.0 + self.election_timeout());
                let reply = if prev_index > self.last_index()
                    || (prev_index > self.snap_base && self.term_at(prev_index) != prev_term)
                {
                    // divergent or missing context: ask the leader to
                    // walk back (at most to our last index)
                    ReplMsg::AppendReply {
                        term: self.term,
                        ok: false,
                        match_index: self.last_index().min(prev_index.saturating_sub(1)),
                    }
                } else if prev_index < self.snap_base {
                    // we compacted beyond this range; everything below
                    // the snapshot base is already committed state
                    ReplMsg::AppendReply {
                        term: self.term,
                        ok: true,
                        match_index: self.snap_base,
                    }
                } else {
                    let mut idx = prev_index;
                    let mut added = None;
                    for entry in entries {
                        idx += 1;
                        if idx <= self.last_index() {
                            if self.term_at(idx) == entry.term {
                                continue; // already have it
                            }
                            // conflict: truncate our tail, journal too
                            self.log.truncate((idx - self.snap_base - 1) as usize);
                            self.cut_journal(idx, journal);
                        }
                        added.get_or_insert(idx);
                        self.log.push(entry);
                    }
                    // what this append added is one journal record
                    if let Some(first) = added {
                        self.journal_run(first, journal);
                    }
                    let new_commit = commit.min(self.last_index());
                    if new_commit > self.commit {
                        self.commit = new_commit;
                        self.apply(now, journal, &mut out);
                    }
                    // suspend with the cluster only once fully caught
                    // up — otherwise keep our clocks running so the
                    // leader's catch-up traffic is answered promptly
                    if idle && idx == self.last_index() && self.commit == self.last_index() {
                        self.suspended = true;
                        out.rearm = false;
                    }
                    ReplMsg::AppendReply {
                        term: self.term,
                        ok: true,
                        match_index: idx,
                    }
                };
                out.msgs.push((from.to_string(), reply));
            }
            ReplMsg::AppendReply {
                term,
                ok,
                match_index,
            } => {
                if let Some(n) = self.inflight.get_mut(from) {
                    *n = n.saturating_sub(1);
                }
                if term > self.term {
                    self.step_down(term, journal);
                    return out;
                }
                if self.role != Role::Leader || term != self.term {
                    return out;
                }
                if ok {
                    let m = slot(&mut self.match_index, from, 0);
                    let advanced = match_index > *m;
                    *m = (*m).max(match_index);
                    *slot(&mut self.next_index, from, 0) = match_index + 1;
                    if advanced {
                        self.advance_commit(now, journal, &mut out);
                    }
                    if match_index < self.last_index() {
                        // laggard mid-catch-up: ship the next batch
                        // immediately instead of waiting a heartbeat
                        self.wake(now, &mut out);
                        self.send_append(from, false, &mut out);
                    }
                } else {
                    self.wake(now, &mut out);
                    let ni = slot(&mut self.next_index, from, 1);
                    *ni = (*ni - 1).clamp(1, match_index + 1);
                    self.send_append(from, false, &mut out);
                }
            }
            ReplMsg::Snapshot {
                term,
                leader,
                last_index,
                last_term,
                state,
                removed,
            } => {
                if term < self.term {
                    out.msgs.push((
                        from.to_string(),
                        ReplMsg::SnapshotReply {
                            term: self.term,
                            last_index: 0,
                        },
                    ));
                    return out;
                }
                if term > self.term || self.role != Role::Follower {
                    self.step_down(term, journal);
                }
                self.leader = Some(leader);
                self.wake(now, &mut out);
                self.lease_until = Millis(now.0 + self.cfg.lease_ms);
                self.election_due = Millis(now.0 + self.election_timeout());
                if last_index > self.commit {
                    for run in self.runs.drain(..) {
                        let _ = journal.remove_repl(format_args!("e/{run:016x}"));
                    }
                    self.log.clear();
                    self.state.install(state);
                    self.removed = Tombstones::install(removed);
                    self.propose_at = self.propose_at.split_off(&(last_index + 1));
                    self.snap_base = last_index;
                    self.snap_term = last_term;
                    self.commit = last_index;
                    self.last_applied = last_index;
                    self.persist_snapshot(journal);
                    out.notes
                        .push(ReplNote::SnapshotInstalled { index: last_index });
                }
                out.msgs.push((
                    from.to_string(),
                    ReplMsg::SnapshotReply {
                        term: self.term,
                        last_index: self.snap_base,
                    },
                ));
            }
            ReplMsg::SnapshotReply { term, last_index } => {
                if let Some(n) = self.inflight.get_mut(from) {
                    *n = n.saturating_sub(1);
                }
                if term > self.term {
                    self.step_down(term, journal);
                    return out;
                }
                if self.role == Role::Leader && term == self.term {
                    *slot(&mut self.match_index, from, 0) = last_index;
                    *slot(&mut self.next_index, from, 0) = last_index + 1;
                    self.wake(now, &mut out);
                    if last_index < self.last_index() {
                        self.send_append(from, false, &mut out);
                    }
                }
            }
        }
        out
    }

    fn wake(&mut self, _now: Millis, out: &mut ReplOut) {
        if self.suspended {
            self.suspended = false;
            self.idle_streak = 0;
        }
        out.rearm = true;
    }

    fn advance_commit(&mut self, now: Millis, journal: &mut Journal, out: &mut ReplOut) {
        let majority = self.cfg.majority();
        let mut n = self.last_index();
        while n > self.commit {
            if self.term_at(n) == self.term {
                let acks = 1 + self
                    .peers()
                    .filter(|p| self.match_index.get(*p).copied().unwrap_or(0) >= n)
                    .count();
                if acks >= majority {
                    self.commit = n;
                    break;
                }
            }
            n -= 1;
        }
        if self.commit > self.last_applied {
            self.apply(now, journal, out);
        }
    }

    fn apply(&mut self, now: Millis, journal: &mut Journal, out: &mut ReplOut) {
        while self.last_applied < self.commit {
            self.last_applied += 1;
            let idx = self.last_applied;
            let entry = self.log[(idx - self.snap_base - 1) as usize].clone();
            let lag = self.propose_at.remove(&idx).map(|t| now.since(t));
            match &entry.op {
                DirOp::Register { id, host, at } => {
                    if self.removed.contains(id) {
                        // straggling retry of a deregistered agent:
                        // apply (and surface) nothing — resurrection
                        // would leave permanent garbage in the state
                        continue;
                    }
                    self.state.register(id, host, *at);
                }
                DirOp::Remove { id } => {
                    self.state.remove(id);
                    self.removed.insert(id, idx);
                }
                DirOp::Noop => {}
            }
            out.committed.push((idx, entry.op, lag));
        }
        self.maybe_compact(journal);
    }

    fn maybe_compact(&mut self, journal: &mut Journal) {
        if self.last_applied - self.snap_base <= self.cfg.snapshot_keep {
            return;
        }
        let mut new_base = self.last_applied;
        if self.role == Role::Leader {
            // never compact entries a live follower still needs: during
            // a registration storm a follower is legitimately a few
            // batches behind, and re-sending those entries as appends
            // is far cheaper than full-state snapshot installs. A
            // replica more than `catchup_keep` behind stops being
            // protected and will be caught up by snapshot.
            let floor = self
                .peers()
                .map(|p| self.match_index.get(p).copied().unwrap_or(0))
                .min()
                .unwrap_or(new_base);
            new_base =
                new_base.min(floor.max(self.last_applied.saturating_sub(self.cfg.catchup_keep)));
        }
        // compact in snapshot_keep-sized chunks: re-serializing the
        // full snapshot for every small advance of the laggard floor
        // would itself be O(state) per ack batch
        if new_base <= self.snap_base || new_base - self.snap_base <= self.cfg.snapshot_keep {
            return;
        }
        // the runs wholly at or below the new base go; one that runs on
        // past it stays, recovery skipping its compacted head
        let last = self.last_index();
        let end = |i: usize| self.runs.get(i + 1).map_or(last, |next| next - 1);
        let below = (0..self.runs.len())
            .take_while(|i| end(*i) <= new_base)
            .count();
        self.snap_term = self.term_at(new_base);
        self.log.drain(..(new_base - self.snap_base) as usize);
        self.snap_base = new_base;
        // the snapshot first: a crash before the runs under it are gone
        // leaves stragglers recovery skips, never a hole in the log
        self.persist_snapshot(journal);
        for run in self.runs.drain(..below) {
            let _ = journal.remove_repl(format_args!("e/{run:016x}"));
        }
    }

    /// Journal the compaction record: one walk over the state and the
    /// tombstones, encoded from borrowed parts (a [`SnapshotRecord`]).
    fn persist_snapshot(&mut self, journal: &mut Journal) {
        let image = (
            self.snap_base,
            self.snap_term,
            self.state.sorted(),
            self.removed.image(),
        );
        if codec::to_bytes_into(&image, &mut self.buf).is_ok() {
            let _ = journal.put_repl("snap", &self.buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naplet_core::id::NapletId;

    const HOSTS: [&str; 3] = ["d0", "d1", "d2"];

    fn nid(n: u64) -> NapletId {
        NapletId::new("u", "home", Millis(n)).unwrap()
    }

    /// A tiny deterministic cluster driver: replicas exchange messages
    /// through an in-order queue, ticked in lockstep. `down` replicas
    /// silently eat their traffic (frames to a crashed host drop).
    struct Cluster {
        cores: BTreeMap<String, (ReplicaCore, Journal)>,
        inbox: Vec<(String, String, ReplMsg)>,
        down: BTreeSet<String>,
        now: Millis,
        notes: Vec<(String, ReplNote)>,
        committed: BTreeMap<String, Vec<(u64, DirOp)>>,
    }

    impl Cluster {
        fn new() -> Cluster {
            let replicas: Vec<String> = HOSTS.iter().map(|h| h.to_string()).collect();
            let cores = HOSTS
                .iter()
                .map(|h| {
                    let journal = Journal::in_memory();
                    let mut cfg = ReplConfig::new(replicas.clone());
                    cfg.snapshot_keep = 8;
                    cfg.catchup_keep = 8;
                    let core = ReplicaCore::recover(h, cfg, &journal);
                    (h.to_string(), (core, journal))
                })
                .collect();
            Cluster {
                cores,
                inbox: Vec::new(),
                down: BTreeSet::new(),
                now: Millis(0),
                notes: Vec::new(),
                committed: BTreeMap::new(),
            }
        }

        fn absorb(&mut self, host: &str, out: ReplOut) {
            for (to, msg) in out.msgs {
                self.inbox.push((host.to_string(), to, msg));
            }
            for note in out.notes {
                self.notes.push((host.to_string(), note));
            }
            let sink = self.committed.entry(host.to_string()).or_default();
            for (idx, op, _) in out.committed {
                sink.push((idx, op));
            }
        }

        /// One round: deliver every queued message, then tick everyone.
        fn round(&mut self) {
            self.now = Millis(self.now.0 + 25);
            let pending = std::mem::take(&mut self.inbox);
            for (from, to, msg) in pending {
                if self.down.contains(&to) {
                    continue;
                }
                let now = self.now;
                let (core, journal) = self.cores.get_mut(&to).unwrap();
                let out = core.receive(now, &from, msg, journal);
                self.absorb(&to.clone(), out);
            }
            let hosts: Vec<String> = self.cores.keys().cloned().collect();
            for host in hosts {
                if self.down.contains(&host) {
                    continue;
                }
                let now = self.now;
                let (core, journal) = self.cores.get_mut(&host).unwrap();
                let out = core.tick(now, journal);
                self.absorb(&host, out);
            }
        }

        fn run_rounds(&mut self, n: usize) {
            for _ in 0..n {
                self.round();
            }
        }

        fn leader(&self) -> Option<String> {
            self.cores
                .iter()
                .filter(|(h, (c, _))| c.is_leader() && !self.down.contains(*h))
                .map(|(h, _)| h.clone())
                .next()
        }

        fn await_leader(&mut self) -> String {
            for _ in 0..200 {
                if let Some(l) = self.leader() {
                    return l;
                }
                self.round();
            }
            panic!("no leader elected in 200 rounds");
        }

        fn propose(&mut self, host: &str, op: DirOp) -> Option<u64> {
            let now = self.now;
            let (core, journal) = self.cores.get_mut(host).unwrap();
            let (idx, out) = core.propose(op, now, journal);
            self.absorb(host, out);
            idx
        }

        fn crash(&mut self, host: &str) {
            self.down.insert(host.to_string());
            self.inbox.retain(|(_, to, _)| to != host);
        }

        /// Restart from the journal alone — exactly what a real crash
        /// preserves.
        fn restart(&mut self, host: &str) {
            self.down.remove(host);
            let (old, journal) = self.cores.remove(host).unwrap();
            let cfg = old.config().clone();
            drop(old);
            let core = ReplicaCore::recover(host, cfg, &journal);
            self.cores.insert(host.to_string(), (core, journal));
        }
    }

    #[test]
    fn elects_exactly_one_leader_and_suspends_when_idle() {
        let mut c = Cluster::new();
        let leader = c.await_leader();
        c.run_rounds(40);
        assert_eq!(c.leader(), Some(leader.clone()), "leadership is stable");
        let leaders: Vec<&String> = c
            .cores
            .iter()
            .filter(|(_, (core, _))| core.is_leader())
            .map(|(h, _)| h)
            .collect();
        assert_eq!(leaders.len(), 1);
        // with nothing to replicate the whole set suspends its timers
        assert!(
            c.cores.values().all(|(core, _)| core.is_suspended()),
            "idle cluster must quiesce"
        );
        assert!(c.inbox.is_empty(), "no traffic while suspended");
    }

    #[test]
    fn never_two_leaders_in_one_term() {
        let mut c = Cluster::new();
        let first = c.await_leader();
        c.run_rounds(10);
        c.crash(&first);
        // wake the survivors (client traffic would in the real stack)
        for h in HOSTS {
            if h != first {
                let now = c.now;
                let (core, _) = c.cores.get_mut(h).unwrap();
                core.client_activity(now);
            }
        }
        c.await_leader();
        c.restart(&first);
        c.run_rounds(60);
        let mut by_term: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
        for (host, note) in &c.notes {
            if let ReplNote::LeaderElected { term } = note {
                by_term.entry(*term).or_default().insert(host.clone());
            }
        }
        for (term, leaders) in by_term {
            assert_eq!(leaders.len(), 1, "term {term} had leaders {leaders:?}");
        }
    }

    #[test]
    fn committed_ops_apply_on_every_replica() {
        let mut c = Cluster::new();
        let leader = c.await_leader();
        for k in 0..5u64 {
            c.propose(
                &leader,
                DirOp::Register {
                    id: nid(k),
                    host: format!("s{k}"),
                    at: c.now,
                },
            )
            .expect("leader accepts proposals");
            c.run_rounds(3);
        }
        c.run_rounds(10);
        for (host, (core, _)) in &c.cores {
            for k in 0..5u64 {
                let e = core
                    .state
                    .lookup(&nid(k))
                    .unwrap_or_else(|| panic!("{host} lost registration {k}"));
                assert_eq!(e.host, format!("s{k}"));
            }
        }
    }

    #[test]
    fn followers_refuse_votes_while_leader_lease_is_fresh() {
        let mut c = Cluster::new();
        let leader = c.await_leader();
        c.run_rounds(2);
        let intruder = HOSTS.iter().find(|h| **h != leader).unwrap();
        let victim = HOSTS
            .iter()
            .find(|h| **h != leader && **h != *intruder)
            .unwrap();
        let now = c.now;
        let (core, journal) = c.cores.get_mut(*victim).unwrap();
        let term_before = core.term();
        let out = core.receive(
            now,
            intruder,
            ReplMsg::VoteRequest {
                term: term_before + 10,
                candidate: intruder.to_string(),
                last_log_index: 100,
                last_log_term: 100,
            },
            journal,
        );
        assert_eq!(
            core.term(),
            term_before,
            "lease refusal must not adopt the term"
        );
        assert!(matches!(
            out.msgs.as_slice(),
            [(_, ReplMsg::VoteReply { granted: false, .. })]
        ));
    }

    #[test]
    fn no_committed_registration_lost_across_leader_crash() {
        let mut c = Cluster::new();
        let leader = c.await_leader();
        let idx = c
            .propose(
                &leader,
                DirOp::Register {
                    id: nid(7),
                    host: "s7".into(),
                    at: c.now,
                },
            )
            .unwrap();
        // run until the leader reports the commit (majority ack)
        for _ in 0..50 {
            c.round();
            if c.committed
                .get(&leader)
                .is_some_and(|v| v.iter().any(|(i, _)| *i == idx))
            {
                break;
            }
        }
        assert!(
            c.committed[&leader].iter().any(|(i, _)| *i == idx),
            "registration must commit"
        );
        c.crash(&leader);
        for h in HOSTS {
            if h != leader {
                let now = c.now;
                let (core, _) = c.cores.get_mut(h).unwrap();
                core.client_activity(now);
            }
        }
        let new_leader = c.await_leader();
        assert_ne!(new_leader, leader);
        c.run_rounds(20);
        let (core, _) = &c.cores[&new_leader];
        assert_eq!(
            core.state.lookup(&nid(7)).map(|e| e.host.as_str()),
            Some("s7"),
            "committed registration survived failover"
        );
    }

    #[test]
    fn journal_recovery_preserves_term_vote_and_log() {
        let mut c = Cluster::new();
        let leader = c.await_leader();
        for k in 0..3u64 {
            c.propose(
                &leader,
                DirOp::Register {
                    id: nid(k),
                    host: "sx".into(),
                    at: c.now,
                },
            );
            c.run_rounds(2);
        }
        c.run_rounds(10);
        let follower = HOSTS.iter().find(|h| **h != leader).unwrap().to_string();
        let (before_term, before_last) = {
            let (core, _) = &c.cores[&follower];
            (core.term(), core.last_index())
        };
        c.crash(&follower);
        c.restart(&follower);
        let (core, _) = &c.cores[&follower];
        assert_eq!(core.term(), before_term);
        assert_eq!(core.last_index(), before_last);
        // rejoin: the leader's next heartbeats re-commit everything
        let now = c.now;
        let (core, _) = c.cores.get_mut(&follower).unwrap();
        core.client_activity(now);
        c.run_rounds(80);
        let (core, _) = &c.cores[&follower];
        for k in 0..3u64 {
            assert!(core.state.lookup(&nid(k)).is_some());
        }
    }

    #[test]
    fn compacted_leader_ships_snapshot_to_stale_rejoiner() {
        let mut c = Cluster::new();
        let leader = c.await_leader();
        let follower = HOSTS.iter().find(|h| **h != leader).unwrap().to_string();
        c.run_rounds(5);
        c.crash(&follower);
        // push enough committed entries past snapshot_keep (8) that the
        // leader compacts below the crashed follower's log position
        for k in 0..30u64 {
            c.propose(
                &leader,
                DirOp::Register {
                    id: nid(k),
                    host: format!("s{k}"),
                    at: c.now,
                },
            );
            c.run_rounds(2);
        }
        c.run_rounds(10);
        {
            let (core, _) = &c.cores[&leader];
            assert!(
                core.commit_index() >= 30,
                "ops committed without {follower}"
            );
        }
        c.restart(&follower);
        let now = c.now;
        let (core, _) = c.cores.get_mut(&follower).unwrap();
        core.client_activity(now);
        c.run_rounds(80);
        let installed = c
            .notes
            .iter()
            .any(|(h, n)| *h == follower && matches!(n, ReplNote::SnapshotInstalled { .. }));
        assert!(installed, "rejoiner must catch up via snapshot install");
        let (core, _) = &c.cores[&follower];
        for k in 0..30u64 {
            assert!(
                core.state.lookup(&nid(k)).is_some(),
                "entry {k} missing after snapshot catch-up"
            );
        }
    }

    #[test]
    fn single_replica_set_commits_immediately() {
        let journal = Journal::in_memory();
        let cfg = ReplConfig::new(vec!["solo".into()]);
        let mut core = ReplicaCore::recover("solo", cfg, &journal);
        let mut journal = journal;
        // first tick elects self
        let mut now = Millis(0);
        for _ in 0..200 {
            now = Millis(now.0 + 25);
            core.tick(now, &mut journal);
            if core.is_leader() {
                break;
            }
        }
        assert!(core.is_leader());
        let (idx, out) = core.propose(
            DirOp::Register {
                id: nid(1),
                host: "s1".into(),
                at: now,
            },
            now,
            &mut journal,
        );
        assert!(idx.is_some());
        assert!(out
            .committed
            .iter()
            .any(|(_, op, _)| matches!(op, DirOp::Register { .. })));
        assert!(core.state.lookup(&nid(1)).is_some());
    }

    /// Registration of `nid(k)` at `s{k}`, appended in `term`.
    fn reg(k: u64, term: u64) -> ReplEntry {
        let id = nid(k);
        let (host, at) = (format!("s{k}"), Millis(k));
        let op = DirOp::Register { id, host, at };
        ReplEntry { term, op }
    }

    /// A replica of the three-host set over a fresh journal.
    fn replica(host: &str, snapshot_keep: u64) -> (ReplicaCore, Journal) {
        let replicas = HOSTS.iter().map(|h| h.to_string()).collect();
        let cfg = ReplConfig {
            snapshot_keep,
            ..ReplConfig::new(replicas)
        };
        let journal = Journal::in_memory();
        (ReplicaCore::recover(host, cfg, &journal), journal)
    }

    /// `leader`'s `Append` in `term` of `entries` after `prev_index`
    /// (of `prev_term`), committing through `commit`.
    fn append(
        (core, journal): (&mut ReplicaCore, &mut Journal),
        (term, leader): (u64, &str),
        (prev_index, prev_term): (u64, u64),
        entries: Vec<ReplEntry>,
        commit: u64,
    ) -> ReplOut {
        let msg = ReplMsg::Append {
            term,
            leader: leader.to_string(),
            prev_index,
            prev_term,
            entries,
            commit,
            idle: false,
        };
        core.receive(Millis(3_000), leader, msg, journal)
    }

    /// The `r/e/` records: first index and how many entries each holds.
    fn runs(journal: &Journal) -> Vec<(u64, usize)> {
        let keys = journal.repl_keys().into_iter();
        let runs = keys.filter_map(|key| {
            let first = u64::from_str_radix(key.strip_prefix("e/")?, 16).ok()?;
            let run = codec::from_bytes::<Vec<ReplEntry>>(&journal.get_repl(&key)?).ok()?;
            Some((first, run.len()))
        });
        runs.collect()
    }

    /// What a restart rebuilds from the journal alone.
    fn restart(core: &ReplicaCore, journal: &Journal) -> ReplicaCore {
        ReplicaCore::recover(core.host(), core.config().clone(), journal)
    }

    #[test]
    fn an_accepted_append_is_one_record_and_a_conflict_cuts_the_one_holding_it() {
        let (mut d1, mut journal) = replica("d1", 64);
        let batch = (1..=4).map(|k| reg(k, 1)).collect();
        append((&mut d1, &mut journal), (1, "d0"), (0, 0), batch, 1);
        assert_eq!(runs(&journal), [(1, 4)], "four entries, one record");
        // d2 leads term 2 with another entry at 3: the cut falls inside
        // record 1, which is rewritten to end at 2
        append(
            (&mut d1, &mut journal),
            (2, "d2"),
            (2, 1),
            vec![reg(5, 2)],
            2,
        );
        assert_eq!(runs(&journal), [(1, 2), (3, 1)]);
        assert_eq!(d1.last_index(), 3);
        let back = restart(&d1, &journal);
        assert_eq!((back.log, back.runs), (d1.log.clone(), d1.runs.clone()));
    }

    #[test]
    fn a_compaction_keeps_a_run_it_cuts_through_and_its_record_decodes_as_recover_reads_it() {
        let (mut d1, mut journal) = replica("d1", 2);
        let mut batch: Vec<ReplEntry> = (1..=5).map(|k| reg(k, 1)).collect();
        batch[2].op = DirOp::Remove { id: nid(1) };
        append((&mut d1, &mut journal), (1, "d0"), (0, 0), batch, 3);
        // applied through 3, so compacted there: the run 1..=5 goes on
        // past the base and stays
        assert_eq!(d1.snap_base, 3);
        assert_eq!(runs(&journal), [(1, 5)]);
        let snap = journal.get_repl("snap").expect("a compaction record");
        let (base, term, state, tombs) = codec::from_bytes::<SnapshotRecord>(&snap).unwrap();
        assert_eq!((base, term), (3, 1));
        assert_eq!(state, d1.state.entries());
        assert_eq!(tombs, [(nid(1).to_string(), 3)]);
        let back = restart(&d1, &journal);
        assert_eq!((back.snap_base, back.last_index()), (3, 5));
        assert_eq!(back.log, d1.log, "the run's head below the base is skipped");
        assert_eq!(back.state.entries(), d1.state.entries());
        // the next compaction, through 7, takes both runs whole
        let more = vec![reg(6, 1), reg(7, 1)];
        append((&mut d1, &mut journal), (1, "d0"), (5, 1), more, 7);
        assert_eq!(d1.snap_base, 7);
        assert!(runs(&journal).is_empty());
        let back = restart(&d1, &journal);
        assert_eq!((back.snap_base, back.last_index()), (7, 7));
    }

    #[test]
    fn recovery_stops_at_a_missing_record_and_the_next_run_clears_the_tail_beyond() {
        let (mut d1, mut journal) = replica("d1", 64);
        let mut prev = 0;
        for run in [
            vec![reg(1, 1), reg(2, 1)],
            vec![reg(3, 1), reg(4, 1)],
            vec![reg(5, 1)],
        ] {
            let added = run.len() as u64;
            append((&mut d1, &mut journal), (1, "d0"), (prev, 1), run, 0);
            prev += added;
        }
        assert_eq!(runs(&journal), [(1, 2), (3, 2), (5, 1)]);
        journal.remove_repl("e/0000000000000003").unwrap();
        let mut back = restart(&d1, &journal);
        assert_eq!(back.last_index(), 2, "the run stops at the gap");
        assert_eq!(back.log, d1.log[..2]);
        // the leader fills the gap anew: record 5 beyond it is debris
        let refill = vec![reg(13, 1), reg(14, 1)];
        append((&mut back, &mut journal), (1, "d0"), (2, 1), refill, 0);
        assert_eq!(runs(&journal), [(1, 2), (3, 2)]);
        assert_eq!(restart(&back, &journal).log, back.log);
    }

    #[test]
    fn a_deposed_leader_reports_no_lag_for_another_leaders_entry() {
        let (mut d0, mut journal) = replica("d0", 64);
        d0.tick(Millis(2_000), &mut journal);
        let vote = ReplMsg::VoteReply {
            term: 1,
            granted: true,
        };
        d0.receive(Millis(2_001), "d1", vote, &mut journal);
        assert!(d0.is_leader(), "d0 leads term 1, its no-op at 1");
        let (index, _) = d0.propose(reg(1, 1).op, Millis(2_002), &mut journal);
        assert_eq!(index, Some(2));
        // deposed before index 2 commits: d2's term-2 log takes indices
        // 1 and 2 and commits them
        let noop = ReplEntry {
            term: 2,
            op: DirOp::Noop,
        };
        let theirs = vec![noop, reg(9, 2)];
        let out = append((&mut d0, &mut journal), (2, "d2"), (0, 0), theirs, 2);
        assert!(!d0.is_leader());
        let committed: Vec<(u64, Option<u64>)> =
            out.committed.iter().map(|(i, _, lag)| (*i, *lag)).collect();
        assert_eq!(committed, [(1, None), (2, None)], "d0 proposed neither");
        assert_eq!(
            d0.state.lookup(&nid(9)).map(|e| e.host.as_str()),
            Some("s9")
        );
    }

    #[test]
    fn the_tombstone_window_is_the_newest_removals_and_survives_recovery() {
        let journal = Journal::in_memory();
        let cfg = ReplConfig {
            snapshot_keep: 0, // a snapshot at every commit
            ..ReplConfig::new(vec!["solo".into()])
        };
        let mut core = ReplicaCore::recover("solo", cfg, &journal);
        let mut journal = journal;
        core.tick(Millis(2_000), &mut journal);
        assert!(core.is_leader());
        let mut remove = |core: &mut ReplicaCore, k: u64| {
            let op = DirOp::Remove { id: nid(k) };
            core.propose(op, Millis(2_001), &mut journal).1
        };
        let keep = TOMBSTONE_KEEP as u64;
        for k in 0..keep + 100 {
            remove(&mut core, k);
        }
        let window = |core: &ReplicaCore| -> Vec<String> {
            let image = core.removed.image().into_iter();
            image.map(|(id, _)| id.to_string()).collect()
        };
        let newest: Vec<String> = (100..keep + 100).map(|k| nid(k).to_string()).collect();
        assert_eq!(window(&core), newest, "exactly the newest, oldest first");
        // removed again: the id moves to the newest slot, once
        remove(&mut core, 200);
        let mut refreshed = newest.clone();
        refreshed.retain(|id| *id != nid(200).to_string());
        refreshed.push(nid(200).to_string());
        assert_eq!(window(&core), refreshed);
        assert_eq!(core.removed.by_id.len(), TOMBSTONE_KEEP);
        // a straggling registration of a tombstoned id applies as nothing
        let (index, out) = core.propose(reg(300, 1).op, Millis(2_002), &mut journal);
        assert!(index.is_some() && out.committed.is_empty());
        assert!(core.state.lookup(&nid(300)).is_none());
        // the persisted snapshot restores the same window in its order
        let back = ReplicaCore::recover("solo", core.config().clone(), &journal);
        assert_eq!(back.removed.image(), core.removed.image());
        assert!(back.removed.contains(&nid(300)) && !back.removed.contains(&nid(99)));
    }
}
