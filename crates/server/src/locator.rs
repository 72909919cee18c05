//! Locator (paper §4.1).
//!
//! The Locator "provides naplet tracing and location services" for the
//! Messenger and NapletManager over a directory that may be central,
//! per-home, replicated or absent. It "caches recently inquired
//! locations so as to reduce the response time of subsequent naplet
//! location requests"; cached hints may be stale and are updated on
//! migration notifications (experiment E4 reports the hit rate).
//!
//! Beside the cache it is the one front door to the directory. *Who
//! holds the entry for `id`* is answered by [`Locator::holder`] and
//! nowhere else. This host's shard is a single value — a plain table
//! or the consensus core, never both — and every operation on it
//! enters through one method whether it came off the wire or from this
//! host: [`Locator::file`] for a registration or a removal,
//! [`Locator::directory`] for a lookup. Table-versus-consensus is decided
//! inside them, which send their own frames, timers, metrics and trace
//! events through the [`Outbox`]. What comes back is only what
//! the server must act on — each registration as it lands, through
//! [`Locator::land`] — and the server retries what stays unanswered.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_core::message::Sender;
use naplet_obs::{TraceKind, LATENCY_BOUNDS_MS};

use crate::directory::NapletDirectory;
use crate::events::{LocalEvent, Outbox, Visit, Wire};
use crate::journal::Journal;
use crate::repl::{DirOp, ReplConfig, ReplMsg, ReplNote, ReplOut, ReplicaCore};

/// How naplets are traced and located (paper §4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocationMode {
    /// A centralized NapletDirectory at the named host.
    CentralDirectory(String),
    /// Distributed directory: each naplet's home manager tracks it
    /// (the home is derived from the naplet id).
    HomeManagers,
    /// No directory: footprint traces + message forwarding.
    ForwardingTrace,
    /// The directory replicated over the named hosts with the
    /// leader-lease consensus core ([`crate::repl`]): registrations
    /// commit on a majority, lookups are served from any replica's
    /// committed state, and the name space survives replica crashes.
    ReplicatedDirectory(Vec<String>),
}

/// Who holds the directory entry for a naplet, seen from this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holder<'a> {
    /// Nobody: pure forwarding mode (or an empty replica set).
    Nowhere,
    /// This host's shard.
    Here,
    /// Another host: send it the frame.
    At(&'a str),
}

/// What a shard operation leaves to land — the frame a table took at
/// once, or what a consensus step committed — surfaced by
/// [`Locator::land`] one registration at a time, so each lands where it
/// committed: after its commit's trace, before its echo and the next.
#[must_use]
#[derive(Debug, Default)]
pub struct Commits {
    /// The frame a table took at once.
    taken: Option<Wire>,
    /// Committed entries not yet landed, with their propose→commit lag.
    entries: std::vec::IntoIter<(u64, DirOp, Option<u64>)>,
    /// The echo owed for the registration landed last.
    echo: Option<(String, Wire)>,
    /// When the commits started landing, while profiling.
    timing: Option<Instant>,
    /// Whether the tick chain is to be kept alive.
    rearm: bool,
}

/// Send a consensus step's traffic and record its notes; what it
/// committed is left to [`Locator::land`], and the tick chain is kept
/// alive if the core asks for it or an operation `woke` it.
fn enact(rout: ReplOut, woke: bool, out: &mut Outbox) -> Commits {
    for (to, msg) in rout.msgs {
        out.send(to, Wire::Repl { msg });
    }
    for note in rout.notes {
        let (counter, kind) = match note {
            ReplNote::ElectionStarted { term } => {
                ("repl.elections", TraceKind::ReplElection { term })
            }
            ReplNote::LeaderElected { term } => {
                let leader = out.host().to_string();
                (
                    "repl.leader_changes",
                    TraceKind::ReplLeader { term, leader },
                )
            }
            ReplNote::LeaderChanged { term, leader } => (
                "repl.leader_changes",
                TraceKind::ReplLeader { term, leader },
            ),
            ReplNote::SnapshotInstalled { index } => (
                "repl.snapshots_installed",
                TraceKind::ReplSnapshot { index },
            ),
        };
        out.count(counter, 1);
        out.trace(None, || kind);
    }
    let timing = out.stopwatch().filter(|_| !rout.committed.is_empty());
    Commits {
        entries: rout.committed.into_iter(),
        timing,
        rearm: rout.rearm || woke,
        ..Commits::default()
    }
}

/// This host's piece of the directory: one or the other, so nothing
/// can be written to a table that nothing reads.
#[derive(Debug)]
enum Shard {
    /// The registry itself (central directory host, home manager).
    Table(NapletDirectory),
    /// Member of a [`LocationMode::ReplicatedDirectory`] replica set.
    Core(Box<ReplicaCore>),
}

/// One cached location hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedLocation {
    /// Believed host.
    pub host: String,
    /// When the hint was cached.
    pub cached_at: Millis,
}

/// Cache bound: the oldest hint is evicted beyond this many entries.
const CACHE_CAPACITY: usize = 1024;

/// The location cache and the door to the directory.
#[derive(Debug)]
pub struct Locator {
    cache: HashMap<NapletId, CachedLocation>,
    capacity: usize,
    /// Cache hits served.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Hits that later proved stale (the hinted host had to forward
    /// or bounce the message).
    pub stale_hits: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    host: String,
    mode: LocationMode,
    shard: Shard,
    /// Rotating index into the replica set for non-member hosts;
    /// bumped on registration retries and stale lookups so a dead
    /// replica is routed around.
    replica_hint: usize,
    /// Leader-side registrations awaiting commit: log index → the visit
    /// whose ack they owe. The `DirAck` is released only once the entry is
    /// majority-replicated — a committed registration is never lost to
    /// a leader crash — and only by the leadership that proposed it.
    held_acks: BTreeMap<u64, Visit>,
    /// True while a `ReplTick` is scheduled; keeps exactly one tick
    /// chain alive so an idle replica schedules nothing.
    tick_armed: bool,
    /// Directory queries in flight, by token: the identity `(sender,
    /// seq)` of the post waiting on the answer — the message itself
    /// stays in its poster's custody, the messenger — or `None` for a
    /// lease probe, and when it was asked.
    queries: HashMap<u64, (Option<(Sender, u64)>, Millis)>,
}

impl Locator {
    /// The locator of `host` under `mode`. A member of a replicated
    /// directory recovers its consensus core from `journal` (`repl`
    /// overrides the timing [`ReplConfig::new`] derives from the
    /// replica list); every other host starts an empty table.
    pub fn new(
        host: &str,
        mode: LocationMode,
        repl: Option<ReplConfig>,
        journal: &Journal,
    ) -> Locator {
        let shard = match &mode {
            LocationMode::ReplicatedDirectory(replicas) if replicas.iter().any(|r| r == host) => {
                let cfg = repl.unwrap_or_else(|| ReplConfig::new(replicas.clone()));
                Shard::Core(Box::new(ReplicaCore::recover(host, cfg, journal)))
            }
            _ => Shard::Table(NapletDirectory::new()),
        };
        Locator {
            cache: HashMap::new(),
            capacity: CACHE_CAPACITY,
            hits: 0,
            misses: 0,
            stale_hits: 0,
            evictions: 0,
            host: host.to_string(),
            mode,
            shard,
            replica_hint: 0,
            held_acks: BTreeMap::new(),
            tick_armed: false,
            queries: HashMap::new(),
        }
    }

    /// Look up a cached hint, counting hit/miss.
    pub fn get(&mut self, id: &NapletId) -> Option<&CachedLocation> {
        match self.cache.get(id) {
            Some(loc) => {
                self.hits += 1;
                Some(loc)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Install or refresh a hint (on directory replies, confirmations,
    /// and migration notifications), evicting the oldest entry to make
    /// room at capacity (`locator_cache_evictions`).
    pub fn put(&mut self, id: NapletId, host: &str, out: &mut Outbox) {
        if self.cache.len() >= self.capacity && !self.cache.contains_key(&id) {
            let oldest = self.cache.iter().min_by_key(|(_, loc)| loc.cached_at);
            if let Some(oldest) = oldest.map(|(k, _)| k.clone()) {
                self.cache.remove(&oldest);
                self.evictions += 1;
                out.count("locator_cache_evictions", 1);
            }
        }
        let cached_at = out.now();
        let host = host.to_string();
        self.cache.insert(id, CachedLocation { host, cached_at });
    }

    /// Drop a hint that proved wrong (forwarded message bounced).
    pub fn invalidate(&mut self, id: &NapletId) {
        self.cache.remove(id);
    }

    /// A hit served earlier proved stale: the hinted host no longer
    /// held the agent and the message had to forward or bounce.
    /// Counted separately from `hits` (and as
    /// `locator_cache_stale_hits`) so the ops plane can report the
    /// cache's *useful* hit rate.
    pub fn note_stale(&mut self, out: &mut Outbox) {
        self.stale_hits += 1;
        out.count("locator_cache_stale_hits", 1);
    }

    /// Age in ms of the oldest surviving hint (0 when empty): the
    /// staleness floor the status report exposes.
    pub fn oldest_hint_age(&self, now: Millis) -> u64 {
        self.cache
            .values()
            .map(|loc| now.since(loc.cached_at))
            .max()
            .unwrap_or(0)
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    // ----------------- the directory: who holds what -----------------

    /// Who holds the directory entry for `id`. A replica names its
    /// leader when it knows one, so one hop suffices; a host outside
    /// the replica set names the member its rotating hint selects.
    pub fn holder<'a>(&'a self, id: &'a NapletId) -> Holder<'a> {
        let host = match (&self.mode, &self.shard) {
            (LocationMode::CentralDirectory(host), _) => host.as_str(),
            (LocationMode::HomeManagers, _) => id.home(),
            (LocationMode::ForwardingTrace, _) => return Holder::Nowhere,
            (LocationMode::ReplicatedDirectory(_), Shard::Core(core)) => {
                core.leader_hint().unwrap_or(&self.host)
            }
            (LocationMode::ReplicatedDirectory(replicas), Shard::Table(_)) => {
                match replicas.get(self.replica_hint % replicas.len().max(1)) {
                    Some(replica) => replica.as_str(),
                    None => return Holder::Nowhere,
                }
            }
        };
        if host == self.host {
            Holder::Here
        } else {
            Holder::At(host)
        }
    }

    /// The replica just contacted stayed silent — it may be the dead
    /// one: contact the next. Changes no answer outside a replicated
    /// directory.
    pub fn rotate(&mut self) {
        self.replica_hint = self.replica_hint.wrapping_add(1);
    }

    /// Whether this host stands outside a replicated directory's
    /// replica set. It sees little registration traffic itself (the
    /// leader's commit echo can lag or drop), so as a home it asks the
    /// replicas before declaring a silent naplet orphaned.
    pub fn asks_replicas(&self) -> bool {
        matches!(
            (&self.mode, &self.shard),
            (LocationMode::ReplicatedDirectory(_), Shard::Table(_))
        )
    }

    // ----------------- this host's shard: the front doors -----------------

    /// File a registration or a removal at this host's shard — off the
    /// wire or from this host alike. A table takes it at once; a replica
    /// proposes it as leader (holding the registrar's ack until it
    /// commits), forwards it to its leader, or drops it while there is
    /// none (the registrar re-sends; the tick it wakes runs an election).
    pub fn file(&mut self, wire: Wire, journal: &mut Journal, out: &mut Outbox) -> Commits {
        let now = out.now();
        let core = match &mut self.shard {
            Shard::Table(directory) => {
                match &wire {
                    Wire::DirRegister { id, host, .. } => directory.register(id, host, now),
                    Wire::DirRemove { id } => drop(directory.remove(id)),
                    _ => {}
                }
                let taken = Some(wire);
                return Commits {
                    taken,
                    ..Commits::default()
                };
            }
            Shard::Core(core) => core,
        };
        let appending = out.stopwatch();
        let woke = core.client_activity(now);
        if core.is_leader() {
            let (index, rout) = core.propose(DirOp::of(&wire, now), now, journal);
            if let (Some(index), Wire::DirRegister { visit, .. }) = (index, wire) {
                self.held_acks.extend(visit.map(|visit| (index, visit)));
            }
            out.lap("repl_append_us", appending);
            return enact(rout, woke, out);
        }
        if let Some(leader) = core.leader_hint() {
            out.count("repl.forwarded", 1);
            out.send(leader.to_string(), wire);
        } else {
            out.count("repl.no_leader_drops", 1);
        }
        Commits {
            rearm: woke,
            ..Commits::default()
        }
    }

    /// The next registration of `commits` to land, or `None` once all
    /// have (and the tick is re-armed if asked for). Each commit is
    /// counted and traced; the echo a leader owes a home outside the
    /// replica set goes out after its registration has landed.
    pub fn land(&mut self, commits: &mut Commits, out: &mut Outbox) -> Option<Wire> {
        if let Some((to, wire)) = commits.echo.take() {
            out.send(to, wire);
        }
        if let Some(wire) = commits.taken.take() {
            return Some(wire);
        }
        for (index, op, lag) in commits.entries.by_ref() {
            out.count("repl.commits", 1);
            if let Some(lag) = lag {
                out.observe("repl_commit_lag_ms", LATENCY_BOUNDS_MS, lag);
            }
            out.trace(op.subject(), || TraceKind::ReplCommit {
                index,
                op: op.label().to_string(),
            });
            // every replica keeps its liveness/status views fresh from
            // the committed stream; the leader also owes the ack it held
            if let Some((landed, echo)) = self.committed(index, op) {
                commits.echo = echo;
                return Some(landed);
            }
        }
        out.lap("repl_commit_us", commits.timing.take());
        if std::mem::take(&mut commits.rearm) {
            if let Some(tick_ms) = self.arm_tick() {
                out.after(tick_ms, LocalEvent::ReplTick);
            }
        }
        None
    }

    /// `op` committed at `index` on this replica. A registration comes
    /// back as the frame it was filed in — `visit` naming the visit
    /// whose ack this leader held — with the echo owed to a home outside
    /// the replica set, so its lease table still sees signs of life.
    fn committed(&mut self, index: u64, op: DirOp) -> Option<(Wire, Option<(String, Wire)>)> {
        // commits surface in log order: an ack still held below `index`
        // was for a tombstoned straggler the core applied as nothing
        while self
            .held_acks
            .first_key_value()
            .is_some_and(|(i, _)| *i < index)
        {
            self.held_acks.pop_first();
        }
        let visit = self.held_acks.remove(&index);
        let DirOp::Register { id, host, .. } = op else {
            return None;
        };
        let register = |id, host, visit| Wire::DirRegister {
            id,
            host,
            visit,
            attempt: 1,
        };
        let home = id.home();
        let outside = matches!(&self.mode, LocationMode::ReplicatedDirectory(replicas)
            if home != self.host && !replicas.iter().any(|r| r == home));
        let echo = (outside && self.core().is_some_and(ReplicaCore::is_leader))
            .then(|| (home.to_string(), register(id.clone(), host.clone(), None)));
        Some((register(id, host, visit), echo))
    }

    /// The entries this host's shard holds, for lookups: a replica
    /// answers from the committed replicated state (any member may
    /// serve reads — stale hits are healed by the forwarding chain), a
    /// plain holder from its table.
    pub fn directory(&self) -> &NapletDirectory {
        match &self.shard {
            Shard::Table(directory) => directory,
            Shard::Core(core) => &core.state,
        }
    }

    /// The consensus core, when this host is a directory replica.
    pub fn core(&self) -> Option<&ReplicaCore> {
        match &self.shard {
            Shard::Table(_) => None,
            Shard::Core(core) => Some(core),
        }
    }

    // ----------------- hosting the consensus core -----------------

    /// Keep exactly one `ReplTick` chain alive: the interval to
    /// schedule a tick after, or `None` when one is already scheduled
    /// or this host is no replica.
    pub fn arm_tick(&mut self) -> Option<u64> {
        let tick_ms = self.core()?.config().tick_ms;
        let armed = std::mem::replace(&mut self.tick_armed, true);
        (!armed).then_some(tick_ms)
    }

    /// The scheduled `ReplTick` fired: drive elections or heartbeats.
    pub fn tick(&mut self, journal: &mut Journal, out: &mut Outbox) -> Commits {
        self.tick_armed = false;
        match &mut self.shard {
            Shard::Table(_) => Commits::default(),
            Shard::Core(core) => enact(core.tick(out.now(), journal), false, out),
        }
    }

    /// Consensus traffic from `from`. A host that is no replica drops
    /// it: a stale peer list sent it here.
    pub fn receive(
        &mut self,
        from: &str,
        msg: ReplMsg,
        journal: &mut Journal,
        out: &mut Outbox,
    ) -> Commits {
        let Shard::Core(core) = &mut self.shard else {
            return Commits::default();
        };
        let rout = core.receive(out.now(), from, msg, journal);
        if !core.is_leader() {
            // deposed (or never leading): its proposals may be
            // overwritten, and an ack held for one must not answer
            // another leader's entry at the same index
            self.held_acks.clear();
        }
        enact(rout, false, out)
    }

    /// A crash wiped volatile state: rebuild the core from `journal`
    /// and restart its tick chain. Term, vote and the replicated log are
    /// durable — a rejoining replica must not regress its promises.
    pub fn recover(&mut self, journal: &Journal, out: &mut Outbox) {
        if let Shard::Core(core) = &mut self.shard {
            **core = ReplicaCore::recover(&self.host, core.config().clone(), journal);
            self.tick_armed = false;
        }
        if let Some(tick_ms) = self.arm_tick() {
            out.after(tick_ms, LocalEvent::ReplTick);
        }
    }

    // ----------------- queries in flight -----------------

    /// The `DirQuery` for `id` under `token`, noting what waits on the
    /// answer: the identity of the post to send once located (a
    /// redelivery replaces the query its lost attempt left behind), or
    /// `None` for a lease probe.
    pub fn ask(
        &mut self,
        token: u64,
        id: NapletId,
        waiting: Option<(Sender, u64)>,
        now: Millis,
    ) -> Wire {
        if let Some(post) = &waiting {
            self.withdraw(post);
        }
        self.queries.insert(token, (waiting, now));
        Wire::DirQuery {
            token,
            id,
            reply_to: self.host.clone(),
        }
    }

    /// The post `(sender, seq)` is re-routed or given up: drop the query
    /// it waited on, so no query is stranded and a late answer finds
    /// nothing.
    pub fn withdraw(&mut self, post: &(Sender, u64)) {
        self.queries
            .retain(|_, (waiting, _)| waiting.as_ref() != Some(post));
    }

    /// The `DirReply` for `token` arrived: what waited on it, exactly
    /// once. The outer `None` is an answer nothing waits for.
    pub fn answered(&mut self, token: u64) -> Option<Option<(Sender, u64)>> {
        self.queries.remove(&token).map(|(waiting, _)| waiting)
    }

    /// Lapse queries asked more than `ttl_ms` ago: the answer was lost
    /// and whoever asked has retried or given up since.
    pub fn lapse(&mut self, now: Millis, ttl_ms: u64) {
        self.queries
            .retain(|_, (_, asked)| now.since(*asked) < ttl_ms);
    }

    /// Directory queries in flight (diagnostics/tests).
    pub fn asking(&self) -> usize {
        self.queries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(n: u64) -> NapletId {
        NapletId::new("u", "home", Millis(n)).unwrap()
    }

    /// Cache `id` at `host` at `at` ms: whether that evicted a hint.
    fn put(l: &mut Locator, id: NapletId, host: &str, at: u64) -> bool {
        let mut out = Outbox::new("h");
        out.at(Millis(at));
        l.put(id, host, &mut out);
        out.obs().metrics.counter("locator_cache_evictions") == 1
    }

    /// A directory-less locator whose cache holds `capacity` hints.
    fn cache(capacity: usize) -> Locator {
        let journal = Journal::in_memory();
        let mut l = Locator::new("h", LocationMode::ForwardingTrace, None, &journal);
        l.capacity = capacity;
        l
    }

    #[test]
    fn put_get_invalidate() {
        let mut l = cache(10);
        assert!(l.get(&nid(1)).is_none());
        put(&mut l, nid(1), "s1", 5);
        assert_eq!(l.get(&nid(1)).unwrap().host, "s1");
        put(&mut l, nid(1), "s2", 9);
        assert_eq!(l.get(&nid(1)).unwrap().host, "s2");
        l.invalidate(&nid(1));
        assert!(l.get(&nid(1)).is_none());
        assert_eq!(l.hits, 2);
        assert_eq!(l.misses, 2);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut l = cache(2);
        put(&mut l, nid(1), "a", 1);
        put(&mut l, nid(2), "b", 2);
        put(&mut l, nid(3), "c", 3); // evicts nid(1)
        assert_eq!(l.len(), 2);
        assert!(l.get(&nid(1)).is_none());
        assert!(l.get(&nid(2)).is_some());
        assert!(l.get(&nid(3)).is_some());
    }

    #[test]
    fn refreshing_existing_does_not_evict() {
        let mut l = cache(2);
        put(&mut l, nid(1), "a", 1);
        put(&mut l, nid(2), "b", 2);
        put(&mut l, nid(1), "a2", 3); // refresh, no eviction
        assert_eq!(l.len(), 2);
        assert!(l.get(&nid(2)).is_some());
    }

    #[test]
    fn staleness_accounting() {
        let mut l = cache(2);
        put(&mut l, nid(1), "a", 1);
        put(&mut l, nid(2), "b", 4);
        assert_eq!(l.oldest_hint_age(Millis(10)), 9);
        let _ = l.get(&nid(1));
        l.note_stale(&mut Outbox::new("h")); // the hint at "a" bounced
        assert_eq!(l.stale_hits, 1);
        assert!(put(&mut l, nid(3), "c", 5), "evicts nid(1)");
        assert_eq!(l.evictions, 1);
        assert_eq!(l.oldest_hint_age(Millis(10)), 6);
        let empty = cache(2);
        assert_eq!(empty.oldest_hint_age(Millis(10)), 0);
    }

    // ----------------- the directory -----------------

    use crate::events::Output;
    use naplet_core::message::Payload;
    use naplet_core::value::Value;

    const REPLICAS: [&str; 3] = ["d0", "d1", "d2"];

    fn replicated() -> LocationMode {
        LocationMode::ReplicatedDirectory(REPLICAS.iter().map(|r| r.to_string()).collect())
    }

    fn locator(host: &str, mode: LocationMode) -> (Locator, Journal) {
        let journal = Journal::in_memory();
        (Locator::new(host, mode, None, &journal), journal)
    }

    /// An arrival of `id` at `host`; `acked` asks for the `DirAck`
    /// there.
    fn arrival(id: &NapletId, host: &str, acked: bool) -> Wire {
        Wire::DirRegister {
            id: id.clone(),
            host: host.to_string(),
            visit: acked.then(|| Visit {
                origin: "o".into(),
                transfer_id: 1,
            }),
            attempt: 1,
        }
    }

    /// A heartbeat from `leader` in `term` over an empty log.
    fn heartbeat(term: u64, leader: &str, idle: bool) -> ReplMsg {
        ReplMsg::Append {
            term,
            leader: leader.to_string(),
            prev_index: 0,
            prev_term: 0,
            entries: Vec::new(),
            commit: 0,
            idle,
        }
    }

    /// The outbox of `host` at `at` ms.
    fn outbox(host: &str, at: u64) -> Outbox {
        let mut out = Outbox::new(host);
        out.at(Millis(at));
        out
    }

    /// Land all of `commits`: the registrations, in order.
    fn landed(l: &mut Locator, mut commits: Commits, out: &mut Outbox) -> Vec<Wire> {
        std::iter::from_fn(|| l.land(&mut commits, out)).collect()
    }

    /// The `ReplTick`s armed in `out`.
    fn ticks(out: &mut Outbox) -> Vec<u64> {
        let armed = out.take().into_iter();
        let ticks = armed.filter_map(|o| match o {
            Output::Schedule {
                delay_ms,
                event: LocalEvent::ReplTick,
            } => Some(delay_ms),
            _ => None,
        });
        ticks.collect()
    }

    /// `d0` of the three-replica set, elected leader of term 1 (its
    /// no-op sits at index 1, uncommitted: nobody has acked it).
    fn leading() -> (Locator, Journal) {
        let (mut l, mut journal) = locator("d0", replicated());
        let mut out = outbox("d0", 2_000);
        let campaign = l.tick(&mut journal, &mut out);
        assert!(landed(&mut l, campaign, &mut out).is_empty());
        let campaign = out.take().into_iter();
        let votes = campaign.filter(|o| {
            matches!(
                o,
                Output::Send {
                    wire: Wire::Repl { .. },
                    ..
                }
            )
        });
        assert_eq!(votes.count(), 2, "d0 campaigns");
        let vote = ReplMsg::VoteReply {
            term: 1,
            granted: true,
        };
        out.at(Millis(2_001));
        let won = l.receive("d1", vote, &mut journal, &mut out);
        assert!(landed(&mut l, won, &mut out).is_empty());
        assert!(l.core().unwrap().is_leader());
        (l, journal)
    }

    /// File `wire` at a single-member shard and land its commits: the
    /// acks released, in order.
    fn file_and_commit(l: &mut Locator, journal: &mut Journal, wire: &Wire) -> Vec<String> {
        let mut out = outbox("d0", 3_000);
        let commits = l.file(wire.clone(), journal, &mut out);
        assert!(commits.taken.is_none(), "a leader proposes");
        let landed = landed(l, commits, &mut out).into_iter();
        landed
            .filter_map(|wire| match wire {
                Wire::DirRegister {
                    host,
                    visit: Some(_),
                    ..
                } => Some(host),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn holder_per_mode_for_member_outsider_and_home() {
        let id = nid(1); // homed at "home"
        for host in ["home", "dir", "d0", "s1"] {
            fn here<'a>(host: &str, holder: &'a str) -> Holder<'a> {
                if holder == host {
                    Holder::Here
                } else {
                    Holder::At(holder)
                }
            }
            let (l, _) = locator(host, LocationMode::CentralDirectory("dir".into()));
            assert_eq!(l.holder(&id), here(host, "dir"), "central, at {host}");
            let (l, _) = locator(host, LocationMode::HomeManagers);
            assert_eq!(
                l.holder(&id),
                here(host, "home"),
                "home managers, at {host}"
            );
            let (l, _) = locator(host, LocationMode::ForwardingTrace);
            assert_eq!(l.holder(&id), Holder::Nowhere, "forwarding, at {host}");
        }
        // replicated: an outsider names the replica under its hint, a
        // member itself until it knows a leader, then the leader
        let (l, _) = locator("home", replicated());
        assert_eq!(l.holder(&id), Holder::At("d0"));
        assert!(l.asks_replicas() && l.core().is_none());
        let (mut l, mut journal) = locator("d2", replicated());
        assert_eq!(l.holder(&id), Holder::Here);
        assert!(!l.asks_replicas());
        let mut out = outbox("d2", 1);
        let heard = l.receive("d1", heartbeat(1, "d1", false), &mut journal, &mut out);
        assert!(landed(&mut l, heard, &mut out).is_empty());
        assert_eq!(l.holder(&id), Holder::At("d1"));
        let (l, _) = locator("home", LocationMode::ReplicatedDirectory(Vec::new()));
        assert_eq!(l.holder(&id), Holder::Nowhere, "nobody to ask");
    }

    #[test]
    fn rotation_moves_an_outsider_to_the_next_replica_and_nothing_else() {
        let id = nid(1);
        let (mut l, _) = locator("s1", replicated());
        for expect in ["d0", "d1", "d2", "d0"] {
            assert_eq!(l.holder(&id), Holder::At(expect));
            l.rotate();
        }
        for mode in [
            LocationMode::CentralDirectory("dir".into()),
            LocationMode::HomeManagers,
            LocationMode::ForwardingTrace,
        ] {
            let (mut l, _) = locator("s1", mode);
            let before = format!("{:?}", l.holder(&id));
            l.rotate();
            assert_eq!(format!("{:?}", l.holder(&id)), before);
        }
        let (mut member, _) = locator("d1", replicated());
        member.rotate();
        assert_eq!(member.holder(&id), Holder::Here);
    }

    #[test]
    fn a_table_takes_a_frame_at_once() {
        let (mut l, mut journal) = locator("dir", LocationMode::CentralDirectory("dir".into()));
        let id = nid(1);
        let mut out = outbox("dir", 7);
        let wire = arrival(&id, "s1", true);
        let commits = l.file(wire.clone(), &mut journal, &mut out);
        assert!(commits.taken.is_some());
        assert_eq!(
            landed(&mut l, commits, &mut out),
            [wire],
            "it lands as filed"
        );
        let entry = l.directory().lookup(&id).unwrap();
        assert_eq!((entry.host.as_str(), entry.at), ("s1", Millis(7)));
        let removal = Wire::DirRemove { id: id.clone() };
        let commits = l.file(removal, &mut journal, &mut out);
        assert!(commits.taken.is_some());
        assert_eq!(landed(&mut l, commits, &mut out).len(), 1);
        assert!(l.directory().is_empty());
        assert!(out.take().is_empty(), "a table sends and arms nothing");
        assert_eq!(l.arm_tick(), None, "no core, no tick");
    }

    #[test]
    fn a_follower_forwards_and_a_leaderless_replica_drops() {
        let (mut l, mut journal) = locator("d2", replicated());
        let wire = arrival(&nid(1), "s1", true);
        let mut out = outbox("d2", 1);
        let dropped = l.file(wire.clone(), &mut journal, &mut out);
        assert!(
            landed(&mut l, dropped, &mut out).is_empty(),
            "no leader yet"
        );
        assert!(out.take().is_empty(), "a fresh core is awake: no tick");
        assert_eq!(out.obs().metrics.counter("repl.no_leader_drops"), 1);
        // the cluster goes idle under d1: the next client frame goes to
        // d1 and re-arms the tick the suspended core had let lapse
        let tick_ms = l.arm_tick().expect("a replica ticks");
        assert_eq!(l.arm_tick(), None, "one chain only");
        let tick = l.tick(&mut journal, &mut out);
        assert!(landed(&mut l, tick, &mut out).is_empty());
        assert_eq!(ticks(&mut out), [tick_ms], "an awake core keeps ticking");
        out.at(Millis(3));
        let idle = l.receive("d1", heartbeat(1, "d1", true), &mut journal, &mut out);
        assert!(landed(&mut l, idle, &mut out).is_empty());
        assert!(l.core().unwrap().is_suspended());
        // the tick armed before it went idle fires and is not renewed
        let tick = l.tick(&mut journal, &mut out);
        assert!(landed(&mut l, tick, &mut out).is_empty());
        assert!(ticks(&mut out).is_empty(), "a suspended core asks for none");
        out.at(Millis(4));
        let forwarded = l.file(wire.clone(), &mut journal, &mut out);
        assert!(landed(&mut l, forwarded, &mut out).is_empty());
        let sent = out.take();
        assert!(
            matches!(&sent[..], [Output::Send { to, wire: sent }, Output::Schedule {
                delay_ms, event: LocalEvent::ReplTick }] if to == "d1" && *sent == wire
                && *delay_ms == tick_ms),
            "{sent:?}"
        );
        assert_eq!(out.obs().metrics.counter("repl.forwarded"), 1);
        assert!(l.directory().is_empty(), "nothing lands on a follower");
    }

    #[test]
    fn a_single_member_shard_commits_and_acks_inline() {
        let mode = LocationMode::ReplicatedDirectory(vec!["d0".into()]);
        let (mut l, mut journal) = locator("d0", mode);
        let mut out = outbox("d0", 2_000);
        let elected = l.tick(&mut journal, &mut out);
        assert!(landed(&mut l, elected, &mut out).is_empty());
        assert_eq!(ticks(&mut out).len(), 1, "a leader keeps ticking");
        assert_eq!(l.holder(&nid(1)), Holder::Here);
        let acks = file_and_commit(&mut l, &mut journal, &arrival(&nid(1), "s1", true));
        assert_eq!(acks, ["s1"]);
        let acks = file_and_commit(&mut l, &mut journal, &arrival(&nid(2), "d0", false));
        assert!(acks.is_empty(), "a departure-style frame asks for none");
        assert_eq!(l.directory().len(), 2);
        assert!(l.held_acks.is_empty());
    }

    #[test]
    fn a_leader_echoes_commits_to_a_home_outside_the_replica_set() {
        let mode = LocationMode::ReplicatedDirectory(vec!["d0".into()]);
        let (mut l, mut journal) = locator("d0", mode);
        let mut out = outbox("d0", 2_000);
        let elected = l.tick(&mut journal, &mut out);
        assert!(landed(&mut l, elected, &mut out).is_empty());
        let at = Millis(3_000);
        let committed = |l: &mut Locator, id: &NapletId| {
            let op = DirOp::of(&arrival(id, "s1", false), at);
            l.committed(9, op).expect("a registration lands").1
        };
        let (to, echo) = committed(&mut l, &nid(1)).expect("home is no replica");
        assert_eq!(to, "home");
        assert!(matches!(echo, Wire::DirRegister { visit: None, .. }));
        let at_replica = NapletId::new("u", "d0", Millis(1)).unwrap();
        assert!(committed(&mut l, &at_replica).is_none());
        assert!(l.committed(10, DirOp::Noop).is_none());
    }

    #[test]
    fn an_ack_held_for_an_overwritten_proposal_is_forgotten() {
        let (mut l, mut journal) = leading();
        let mut out = outbox("d0", 2_002);
        let proposed = l.file(arrival(&nid(1), "s1", true), &mut journal, &mut out);
        assert!(
            landed(&mut l, proposed, &mut out).is_empty(),
            "not yet committed"
        );
        assert_eq!(l.held_acks.len(), 1, "held until index 2 commits");
        // d2 won term 2 meanwhile: its first heartbeat deposes d0, whose
        // uncommitted proposal d2's log will overwrite
        out.at(Millis(2_003));
        let deposed = l.receive("d2", heartbeat(2, "d2", false), &mut journal, &mut out);
        assert!(landed(&mut l, deposed, &mut out).is_empty());
        assert!(!l.core().unwrap().is_leader());
        assert!(l.held_acks.is_empty(), "no ack may answer d2's entry 2");
    }

    #[test]
    fn an_ack_held_for_a_tombstoned_straggler_is_dropped_at_the_next_commit() {
        let mode = LocationMode::ReplicatedDirectory(vec!["d0".into()]);
        let (mut l, mut journal) = locator("d0", mode);
        let mut out = outbox("d0", 2_000);
        let elected = l.tick(&mut journal, &mut out);
        assert!(landed(&mut l, elected, &mut out).is_empty());
        let gone = nid(1);
        file_and_commit(&mut l, &mut journal, &Wire::DirRemove { id: gone.clone() });
        // a retry that outlived its journey: the core commits it as
        // nothing and surfaces nothing, so its ack is never owed
        let acks = file_and_commit(&mut l, &mut journal, &arrival(&gone, "s1", true));
        assert!(acks.is_empty());
        assert_eq!(l.held_acks.len(), 1);
        let acks = file_and_commit(&mut l, &mut journal, &arrival(&nid(2), "s2", true));
        assert_eq!(acks, ["s2"]);
        assert!(l.held_acks.is_empty());
    }

    #[test]
    fn a_parked_query_is_taken_once_replaced_by_its_redelivery_and_lapses() {
        let (mut l, _) = locator("s1", LocationMode::CentralDirectory("dir".into()));
        let target = nid(1);
        let post = |seq| Some((Sender::Owner("s1".into()), seq));
        let query = l.ask(1, target.clone(), post(7), Millis(10));
        assert!(matches!(query, Wire::DirQuery { token: 1, reply_to, .. } if reply_to == "s1"));
        assert_eq!(l.answered(1), Some(post(7)));
        assert!(l.answered(1).is_none(), "taken exactly once");
        // message 7 is re-routed under token 3: the query its lost
        // attempt left under token 2 must not post it a second time
        l.ask(2, target.clone(), post(7), Millis(20));
        l.ask(3, target.clone(), post(7), Millis(30));
        l.ask(4, target.clone(), post(8), Millis(30));
        l.ask(5, target.clone(), None, Millis(30));
        l.ask(6, target.clone(), None, Millis(30));
        assert!(l.answered(2).is_none());
        assert_eq!(l.asking(), 4, "lease probes replace nothing");
        assert!(matches!(l.answered(5), Some(None)), "a lease probe");
        l.lapse(Millis(129), 100);
        assert_eq!(l.asking(), 3);
        l.lapse(Millis(130), 100);
        assert_eq!(l.asking(), 0, "every other answer was lost");
    }

    #[test]
    fn a_given_up_messages_late_answer_posts_nothing() {
        use crate::messenger::Messenger;
        let (mut l, _) = locator("s1", LocationMode::CentralDirectory("dir".into()));
        let mut messenger = Messenger::default();
        let from = Sender::Owner("s1".into());
        let msg = messenger.post(from, nid(1), Payload::User(Value::Nil), Millis(0));
        l.ask(1, nid(1), Some(msg.identity()), Millis(10));
        // the post waits on the answer as its identity; the one copy
        // stays with its poster, until the budget of one attempt is spent
        assert_eq!(
            messenger.due(&msg.from, msg.seq, 1, 1, &mut Outbox::new("s1")),
            Some(None)
        );
        assert!(
            messenger.unconfirmed(&msg.from, msg.seq).is_none(),
            "nothing left to post"
        );
        // giving up withdraws the query: none is stranded, and a late
        // answer finds nothing to enact
        l.withdraw(&msg.identity());
        assert_eq!(l.asking(), 0);
        assert!(l.answered(1).is_none(), "a late answer posts nothing");
    }
}
