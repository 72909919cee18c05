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
//! inside them. The server enacts what they return (frames, the arrival
//! gate, log, metrics, trace) and retries what stays unanswered.

use std::collections::{BTreeMap, HashMap};

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_core::message::Sender;

use crate::directory::NapletDirectory;
use crate::events::Wire;
use crate::journal::Journal;
use crate::repl::{DirOp, ReplConfig, ReplMsg, ReplOut, ReplicaCore};

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

/// What became of a registration or removal [filed](Locator::file) at
/// this host's shard.
#[derive(Debug)]
pub enum Filed {
    /// Written to the plain table: it has landed (`registered()`).
    Landed,
    /// Appended to the log by this replica as leader: it lands when it
    /// commits ([`Locator::committed`]); enact the consensus output.
    Proposed(ReplOut),
    /// This replica follows: the frame goes on to its leader, named.
    Forward(String),
    /// No leader is known (election in progress): dropped for the
    /// sender's retry.
    NoLeader,
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
    /// Leader-side registrations awaiting commit: log index → ack
    /// destination. The `DirAck` is released only once the entry is
    /// majority-replicated — a committed registration is never lost to
    /// a leader crash — and only by the leadership that proposed it.
    held_acks: BTreeMap<u64, String>,
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
    /// and migration notifications). Returns true when an older entry
    /// was evicted to make room.
    pub fn put(&mut self, id: NapletId, host: &str, now: Millis) -> bool {
        let mut evicted = false;
        if self.cache.len() >= self.capacity && !self.cache.contains_key(&id) {
            // evict the oldest entry
            if let Some(oldest) = self
                .cache
                .iter()
                .min_by_key(|(_, loc)| loc.cached_at)
                .map(|(k, _)| k.clone())
            {
                self.cache.remove(&oldest);
                self.evictions += 1;
                evicted = true;
            }
        }
        self.cache.insert(
            id,
            CachedLocation {
                host: host.to_string(),
                cached_at: now,
            },
        );
        evicted
    }

    /// Drop a hint that proved wrong (forwarded message bounced).
    pub fn invalidate(&mut self, id: &NapletId) {
        self.cache.remove(id);
    }

    /// A hit served earlier proved stale: the hinted host no longer
    /// held the agent and the message had to forward or bounce.
    /// Counted separately from `hits` so the ops plane can report the
    /// cache's *useful* hit rate.
    pub fn note_stale(&mut self) {
        self.stale_hits += 1;
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

    /// File a registration or a removal (`DirRegister`, `DirRemove`) at
    /// this host's shard — off the wire or from this host alike. A
    /// table takes it at once; a replica proposes it as leader (holding
    /// the registrar's ack until it commits), names the leader it
    /// follows, or drops it while there is none. The flag asks for the
    /// tick timer: the operation woke a suspended core.
    pub fn file(&mut self, wire: &Wire, now: Millis, journal: &mut Journal) -> (Filed, bool) {
        let core = match &mut self.shard {
            Shard::Table(directory) => {
                match wire {
                    Wire::DirRegister {
                        id, host, event, ..
                    } => directory.register(id, host, *event, now),
                    Wire::DirRemove { id } => drop(directory.remove(id)),
                    _ => {}
                }
                return (Filed::Landed, false);
            }
            Shard::Core(core) => core,
        };
        let woke = core.client_activity(now);
        let filed = if core.is_leader() {
            let (index, rout) = core.propose(DirOp::of(wire, now), now, journal);
            if let (Some(index), Wire::DirRegister { ack_to, .. }) = (index, wire) {
                self.held_acks
                    .extend(ack_to.clone().map(|ack_to| (index, ack_to)));
            }
            Filed::Proposed(rout)
        } else if let Some(leader) = core.leader_hint() {
            Filed::Forward(leader.to_string())
        } else {
            Filed::NoLeader
        };
        (filed, woke)
    }

    /// `op` committed at `index` on this replica. A registration has
    /// landed: it comes back as the frame it was filed in — `ack_to`
    /// naming the registrar whose ack this leader held for it — with
    /// the echo a leader owes a home outside the replica set, so its
    /// lease table still sees signs of life.
    pub fn committed(&mut self, index: u64, op: DirOp) -> Option<(Wire, Option<(String, Wire)>)> {
        // commits surface in log order: an ack still held below `index`
        // was for a tombstoned straggler the core applied as nothing
        while self
            .held_acks
            .first_key_value()
            .is_some_and(|(i, _)| *i < index)
        {
            self.held_acks.pop_first();
        }
        let ack_to = self.held_acks.remove(&index);
        let DirOp::Register {
            id, host, event, ..
        } = op
        else {
            return None;
        };
        let register = |id, host, ack_to| Wire::DirRegister {
            id,
            host,
            event,
            ack_to,
            attempt: 1,
        };
        let home = id.home();
        let outside = matches!(&self.mode, LocationMode::ReplicatedDirectory(replicas)
            if home != self.host && !replicas.iter().any(|r| r == home));
        let echo = (outside && self.core().is_some_and(ReplicaCore::is_leader))
            .then(|| (home.to_string(), register(id.clone(), host.clone(), None)));
        Some((register(id, host, ack_to), echo))
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
    pub fn tick(&mut self, now: Millis, journal: &mut Journal) -> ReplOut {
        self.tick_armed = false;
        match &mut self.shard {
            Shard::Table(_) => ReplOut::default(),
            Shard::Core(core) => core.tick(now, journal),
        }
    }

    /// Consensus traffic from `from`. A host that is no replica drops
    /// it: a stale peer list sent it here.
    pub fn receive(
        &mut self,
        now: Millis,
        from: &str,
        msg: ReplMsg,
        journal: &mut Journal,
    ) -> ReplOut {
        let Shard::Core(core) = &mut self.shard else {
            return ReplOut::default();
        };
        let rout = core.receive(now, from, msg, journal);
        if !core.is_leader() {
            // deposed (or never leading): its proposals may be
            // overwritten, and an ack held for one must not answer
            // another leader's entry at the same index
            self.held_acks.clear();
        }
        rout
    }

    /// A crash wiped volatile state: rebuild the core from `journal`.
    /// Term, vote and the replicated log are durable — a rejoining
    /// replica must not regress its promises; the tick chain is not.
    pub fn recover(&mut self, journal: &Journal) {
        if let Shard::Core(core) = &mut self.shard {
            **core = ReplicaCore::recover(&self.host, core.config().clone(), journal);
            self.tick_armed = false;
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
        l.put(nid(1), "s1", Millis(5));
        assert_eq!(l.get(&nid(1)).unwrap().host, "s1");
        l.put(nid(1), "s2", Millis(9));
        assert_eq!(l.get(&nid(1)).unwrap().host, "s2");
        l.invalidate(&nid(1));
        assert!(l.get(&nid(1)).is_none());
        assert_eq!(l.hits, 2);
        assert_eq!(l.misses, 2);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut l = cache(2);
        l.put(nid(1), "a", Millis(1));
        l.put(nid(2), "b", Millis(2));
        l.put(nid(3), "c", Millis(3)); // evicts nid(1)
        assert_eq!(l.len(), 2);
        assert!(l.get(&nid(1)).is_none());
        assert!(l.get(&nid(2)).is_some());
        assert!(l.get(&nid(3)).is_some());
    }

    #[test]
    fn refreshing_existing_does_not_evict() {
        let mut l = cache(2);
        l.put(nid(1), "a", Millis(1));
        l.put(nid(2), "b", Millis(2));
        l.put(nid(1), "a2", Millis(3)); // refresh, no eviction
        assert_eq!(l.len(), 2);
        assert!(l.get(&nid(2)).is_some());
    }

    #[test]
    fn staleness_accounting() {
        let mut l = cache(2);
        l.put(nid(1), "a", Millis(1));
        l.put(nid(2), "b", Millis(4));
        assert_eq!(l.oldest_hint_age(Millis(10)), 9);
        let _ = l.get(&nid(1));
        l.note_stale(); // the hint at "a" bounced
        assert_eq!(l.stale_hits, 1);
        assert!(l.put(nid(3), "c", Millis(5)), "evicts nid(1)");
        assert_eq!(l.evictions, 1);
        assert_eq!(l.oldest_hint_age(Millis(10)), 6);
        let empty = cache(2);
        assert_eq!(empty.oldest_hint_age(Millis(10)), 0);
    }

    // ----------------- the directory -----------------

    use crate::directory::DirEvent;
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

    /// An arrival of `id` at `host`; `acked` asks for the `DirAck`.
    fn arrival(id: &NapletId, host: &str, acked: bool) -> Wire {
        Wire::DirRegister {
            id: id.clone(),
            host: host.to_string(),
            event: DirEvent::Arrival,
            ack_to: acked.then(|| host.to_string()),
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

    /// `d0` of the three-replica set, elected leader of term 1 (its
    /// no-op sits at index 1, uncommitted: nobody has acked it).
    fn leading() -> (Locator, Journal) {
        let (mut l, mut journal) = locator("d0", replicated());
        let campaign = l.tick(Millis(2_000), &mut journal);
        assert!(!campaign.msgs.is_empty(), "d0 campaigns");
        let vote = ReplMsg::VoteReply {
            term: 1,
            granted: true,
        };
        l.receive(Millis(2_001), "d1", vote, &mut journal);
        assert!(l.core().unwrap().is_leader());
        (l, journal)
    }

    /// File `wire` at a single-member shard and run its commits: the
    /// acks released, in order.
    fn file_and_commit(l: &mut Locator, journal: &mut Journal, wire: &Wire) -> Vec<String> {
        let (Filed::Proposed(rout), _) = l.file(wire, Millis(3_000), journal) else {
            panic!("a leader proposes");
        };
        let landed = rout.committed.into_iter();
        let landed = landed.filter_map(|(index, op, _)| l.committed(index, op));
        landed
            .filter_map(|(wire, _)| match wire {
                Wire::DirRegister { ack_to, .. } => ack_to,
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
        l.receive(Millis(1), "d1", heartbeat(1, "d1", false), &mut journal);
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
        let (filed, woke) = l.file(&arrival(&id, "s1", true), Millis(7), &mut journal);
        assert!(matches!(filed, Filed::Landed) && !woke);
        let entry = l.directory().lookup(&id).unwrap();
        assert_eq!((entry.host.as_str(), entry.at), ("s1", Millis(7)));
        let (filed, _) = l.file(&Wire::DirRemove { id: id.clone() }, Millis(8), &mut journal);
        assert!(matches!(filed, Filed::Landed));
        assert!(l.directory().is_empty());
        assert_eq!(l.arm_tick(), None, "no core, no tick");
    }

    #[test]
    fn a_follower_forwards_and_a_leaderless_replica_drops() {
        let (mut l, mut journal) = locator("d2", replicated());
        let wire = arrival(&nid(1), "s1", true);
        let (filed, woke) = l.file(&wire, Millis(1), &mut journal);
        assert!(matches!(filed, Filed::NoLeader), "no leader yet: {filed:?}");
        assert!(!woke, "a fresh core is awake");
        // the cluster goes idle under d1: the next client frame names
        // d1 and asks for the tick the suspended core had let lapse
        let tick_ms = l.arm_tick().expect("a replica ticks");
        assert_eq!(l.arm_tick(), None, "one chain only");
        l.tick(Millis(2), &mut journal);
        l.receive(Millis(3), "d1", heartbeat(1, "d1", true), &mut journal);
        assert!(l.core().unwrap().is_suspended());
        let (filed, woke) = l.file(&wire, Millis(4), &mut journal);
        assert!(
            matches!(&filed, Filed::Forward(to) if to == "d1"),
            "{filed:?}"
        );
        assert!(woke);
        assert_eq!(l.arm_tick(), Some(tick_ms));
        assert!(l.directory().is_empty(), "nothing lands on a follower");
    }

    #[test]
    fn a_single_member_shard_commits_and_acks_inline() {
        let mode = LocationMode::ReplicatedDirectory(vec!["d0".into()]);
        let (mut l, mut journal) = locator("d0", mode);
        l.tick(Millis(2_000), &mut journal);
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
        l.tick(Millis(2_000), &mut journal);
        let at = Millis(3_000);
        let committed = |l: &mut Locator, id: &NapletId| {
            let op = DirOp::of(&arrival(id, "s1", false), at);
            l.committed(9, op).expect("a registration lands").1
        };
        let (to, echo) = committed(&mut l, &nid(1)).expect("home is no replica");
        assert_eq!(to, "home");
        assert!(matches!(echo, Wire::DirRegister { ack_to: None, .. }));
        let at_replica = NapletId::new("u", "d0", Millis(1)).unwrap();
        assert!(committed(&mut l, &at_replica).is_none());
        assert!(l.committed(10, DirOp::Noop).is_none());
    }

    #[test]
    fn an_ack_held_for_an_overwritten_proposal_is_forgotten() {
        let (mut l, mut journal) = leading();
        let (filed, _) = l.file(&arrival(&nid(1), "s1", true), Millis(2_002), &mut journal);
        assert!(matches!(filed, Filed::Proposed(_)));
        assert_eq!(l.held_acks.len(), 1, "held until index 2 commits");
        // d2 won term 2 meanwhile: its first heartbeat deposes d0, whose
        // uncommitted proposal d2's log will overwrite
        l.receive(Millis(2_003), "d2", heartbeat(2, "d2", false), &mut journal);
        assert!(!l.core().unwrap().is_leader());
        assert!(l.held_acks.is_empty(), "no ack may answer d2's entry 2");
    }

    #[test]
    fn an_ack_held_for_a_tombstoned_straggler_is_dropped_at_the_next_commit() {
        let mode = LocationMode::ReplicatedDirectory(vec!["d0".into()]);
        let (mut l, mut journal) = locator("d0", mode);
        l.tick(Millis(2_000), &mut journal);
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
        assert_eq!(messenger.due(&msg.from, msg.seq, 1, 1), Some(None));
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
