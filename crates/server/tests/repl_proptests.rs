//! Property tests of the replicated directory's consensus core under
//! crash injection: for a random journey over a replicated-directory
//! space, crash a directory replica just before *every* event index in
//! turn. Two invariants must hold at every instant and at the end:
//!
//! 1. at most one leader per term (election safety), and
//! 2. the committed log never rolls back — a registration observed
//!    committed anywhere is still committed on every live replica at
//!    the end, and all replicas converge to the same directory state.
//!
//! The journey itself must also converge to the crash-free outcome
//! (same report, same visit list): directory failover is invisible to
//! the agents riding on it.
//!
//! A second property runs three locators over in-memory journals, no
//! server or runtime, through a family of depose-and-regain schedules:
//!
//! 3. every `DirAck` a replica releases names a registration committed
//!    at that index — the one the ack was held for, never another
//!    leader's entry that took its place in the log.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::collection::vec;
use proptest::prelude::*;

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::context::NapletContext;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{ActionSpec, Itinerary, Pattern};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel};
use naplet_server::repl::Role;
use naplet_server::{
    Commits, Journal, LocationMode, Locator, MonitorPolicy, Outbox, Output, ReplConfig, ReplMsg,
    ServerConfig, SimRuntime, Visit, Wire,
};

const CODEBASE: &str = "naplet://code/collector.jar";
const REPLICAS: [&str; 3] = ["d0", "d1", "d2"];
const WORKERS: [&str; 2] = ["s0", "s1"];

struct Collector;

impl NapletBehavior for Collector {
    fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
        let host = ctx.host_name().to_string();
        let mut visits = match ctx.state().get("visits") {
            Value::List(l) => l,
            _ => Vec::new(),
        };
        visits.push(Value::Str(host));
        ctx.state().set("visits", Value::List(visits));
        Ok(())
    }
}

fn build_world(seed: u64) -> SimRuntime {
    let mut reg = CodebaseRegistry::new();
    reg.register(CODEBASE, 4096, || Collector);
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), seed);
    let mut rt = SimRuntime::new(fabric);
    let replicas: Vec<String> = REPLICAS.iter().map(|r| r.to_string()).collect();
    let mode = LocationMode::ReplicatedDirectory(replicas.clone());
    // a coarser consensus clock keeps the event count (and so the
    // crash-at-every-index sweep) bounded without changing the protocol
    let repl = ReplConfig {
        tick_ms: 50,
        heartbeat_ms: 200,
        lease_ms: 600,
        election_ms: 800,
        ..ReplConfig::new(replicas)
    };
    for host in std::iter::once("home").chain(WORKERS).chain(REPLICAS) {
        let mut cfg = ServerConfig::open(host, mode.clone());
        cfg.codebase = reg.clone();
        cfg.monitor_policy = MonitorPolicy {
            native_dwell_ms: 5,
            ..MonitorPolicy::default()
        };
        cfg.repl = Some(repl.clone());
        rt.add_server(cfg);
    }
    rt
}

fn probe(route: &[&str]) -> Naplet {
    let it = Itinerary::new(Pattern::seq_of_hosts(route, None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    Naplet::create(
        &SigningKey::new("czxu", b"campus-secret"),
        "czxu",
        "home",
        Millis(1),
        CODEBASE,
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap()
}

#[derive(Debug, PartialEq, Eq)]
struct RunOutcome {
    visits: Vec<String>,
    directory: Vec<String>,
}

/// Scan the replica set after one event: record any leader per term
/// (at most one may ever exist) and the highest committed index seen.
fn observe(
    rt: &SimRuntime,
    leaders_by_term: &mut BTreeMap<u64, String>,
    max_commit: &mut u64,
) -> std::result::Result<(), String> {
    for r in REPLICAS {
        let Some(core) = rt.server(r).and_then(|s| s.repl_core()) else {
            continue;
        };
        *max_commit = (*max_commit).max(core.commit_index());
        if core.role() == Role::Leader {
            let prev = leaders_by_term.insert(core.term(), r.to_string());
            if let Some(prev) = prev {
                if prev != r {
                    return Err(format!(
                        "two leaders in term {}: {prev} and {r}",
                        core.term()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Run the journey, crashing the replica the `crash_at`-th event
/// targets just before it is processed (restart 600 ms later). `None`
/// runs crash-free. Returns `None` when the chosen event does not
/// target a replica (workers/home stay up — this suite is about
/// directory failover; `recovery_proptests` covers the rest).
fn run(
    route: &[&str],
    seed: u64,
    crash_at: Option<u64>,
) -> std::result::Result<Option<(RunOutcome, u64)>, String> {
    let mut rt = build_world(seed);
    rt.launch(probe(route)).unwrap();
    let mut leaders_by_term = BTreeMap::new();
    let mut max_commit = 0u64;
    let mut steps = 0u64;
    if let Some(k) = crash_at {
        while steps < k {
            if rt.step().is_none() {
                break;
            }
            steps += 1;
            observe(&rt, &mut leaders_by_term, &mut max_commit)?;
        }
        match rt.peek_target() {
            Some(host) if REPLICAS.contains(&host.as_str()) => {
                rt.crash_server(&host, Some(600));
            }
            _ => return Ok(None),
        }
    }
    while rt.step().is_some() {
        steps += 1;
        observe(&rt, &mut leaders_by_term, &mut max_commit)?;
        if steps > 2_000_000 {
            return Err("run did not quiesce".into());
        }
    }
    // commit durability: nothing observed committed may have rolled
    // back, and every replica converged to the same directory state
    let mut states = Vec::new();
    for r in REPLICAS {
        let core = rt.server(r).unwrap().repl_core().unwrap();
        if core.commit_index() < max_commit {
            return Err(format!(
                "{r} lost committed entries: commit {} < observed {max_commit}",
                core.commit_index()
            ));
        }
        states.push(
            core.state
                .entries()
                .into_iter()
                .map(|(id, e)| format!("{id}@{}", e.host))
                .collect::<Vec<_>>(),
        );
    }
    if states[0] != states[1] || states[1] != states[2] {
        return Err(format!("replica states diverged: {states:?}"));
    }
    let reports = rt.drain_reports("home");
    let mut visits = Vec::new();
    for (_, report) in &reports {
        if let Value::List(l) = report.get("visits") {
            for v in &l {
                if let Value::Str(s) = v {
                    visits.push(s.clone());
                }
            }
        }
    }
    Ok(Some((
        RunOutcome {
            visits,
            directory: states.remove(0),
        },
        steps,
    )))
}

proptest! {
    // every case sweeps the crash point across the full event
    // schedule, so one case is itself a few hundred simulations;
    // PROPTEST_CASES scales the count
    #[test]
    fn replica_crash_at_any_instant_preserves_commits_and_outcome(
        hops in vec(0..WORKERS.len(), 1..3),
        seed in any::<u64>(),
    ) {
        let mut route: Vec<&str> = Vec::new();
        for i in hops {
            if route.last() != Some(&WORKERS[i]) {
                route.push(WORKERS[i]);
            }
        }
        route.push("home");

        let (baseline, events) = run(&route, seed, None)
            .map_err(TestCaseError::fail)?
            .unwrap();
        prop_assert!(!baseline.visits.is_empty(), "crash-free journey must report");
        prop_assert!(baseline.directory.is_empty(), "finished journey must be deregistered");
        for k in 0..events {
            let Some((outcome, _)) = run(&route, seed, Some(k))
                .map_err(|e| TestCaseError::fail(format!("crash before event {k}: {e}")))?
            else {
                continue; // next event does not target a replica
            };
            prop_assert_eq!(
                &outcome.visits,
                &baseline.visits,
                "crash before event {} diverged (route {:?}, seed {})",
                k,
                &route,
                seed
            );
            // deregistration is fire-and-forget: when the journey's
            // single DirRemove hits a crashed replica it is lost, and
            // at most the probe's own entry may linger (the locator
            // chase heals such stale hits; the tombstone machinery
            // guarantees it can never *resurrect* after a successful
            // removal). Anything else lingering is a real leak.
            prop_assert!(
                outcome.directory.len() <= 1
                    && outcome
                        .directory
                        .iter()
                        .all(|e| e.starts_with("czxu@home:1@")),
                "crash before event {} left stale entries {:?}",
                k,
                &outcome.directory
            );
        }
    }
}

/// Three directory replicas as bare locators: consensus traffic moves
/// through an in-order queue the schedule filters, a `cut` replica
/// neither sends nor receives, and every registration is landed through
/// [`Locator::land`] the way the server does.
struct Replicas {
    nodes: BTreeMap<&'static str, (Locator, Journal, Outbox)>,
    queue: VecDeque<(&'static str, String, ReplMsg)>,
    cut: BTreeSet<&'static str>,
    now: u64,
    /// Registrations filed so far; each names a registrar of its own.
    filed: u64,
}

impl Replicas {
    fn new() -> Replicas {
        let set: Vec<String> = REPLICAS.iter().map(|r| r.to_string()).collect();
        let nodes = REPLICAS.iter().map(|host| {
            let journal = Journal::in_memory();
            let mode = LocationMode::ReplicatedDirectory(set.clone());
            let locator = Locator::new(host, mode, None, &journal);
            (*host, (locator, journal, Outbox::new(host)))
        });
        Replicas {
            nodes: nodes.collect(),
            queue: VecDeque::new(),
            cut: BTreeSet::new(),
            now: 0,
            filed: 0,
        }
    }

    fn leads(&self, host: &str) -> bool {
        self.nodes[host].0.core().unwrap().is_leader()
    }

    /// The replica at `at`, its clock set to now.
    fn node(&mut self, at: &str) -> (&mut Locator, &mut Journal, &mut Outbox) {
        let (locator, journal, out) = self.nodes.get_mut(at).unwrap();
        out.at(Millis(self.now));
        (locator, journal, out)
    }

    /// Enact consensus output at `at`: land its commits, checking the
    /// law on every ack they release, and queue its traffic.
    fn enact(&mut self, at: &'static str, mut commits: Commits) -> std::result::Result<(), String> {
        let (locator, _, out) = self.node(at);
        let landed: Vec<Wire> = std::iter::from_fn(|| locator.land(&mut commits, out)).collect();
        for output in out.take() {
            if let Output::Send {
                to,
                wire: Wire::Repl { msg },
            } = output
            {
                if !self.cut.contains(at) {
                    self.queue.push_back((at, to, msg));
                }
            }
        }
        for wire in landed {
            if let Wire::DirRegister {
                id,
                visit: Some(visit),
                ..
            } = wire
            {
                // each registration names its own visit: an ack for any
                // other answers an entry it was not held for
                let filed = NapletId::new("czxu", "home", Millis(visit.transfer_id)).unwrap();
                if filed != id {
                    return Err(format!("{at} acked {visit:?} for {id}"));
                }
            }
        }
        Ok(())
    }

    /// `ms` later, `at`'s tick fires.
    fn tick(&mut self, at: &'static str, ms: u64) -> std::result::Result<(), String> {
        self.now += ms;
        let (locator, journal, out) = self.node(at);
        let commits = locator.tick(journal, out);
        self.enact(at, commits)
    }

    /// Deliver queued traffic (and what it provokes) until none is
    /// left; frames to a cut replica, or that `keep` rejects, are lost.
    fn deliver(
        &mut self,
        keep: impl Fn(&str, &ReplMsg) -> bool,
    ) -> std::result::Result<(), String> {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let Some(to) = REPLICAS.iter().find(|r| **r == to).copied() else {
                continue;
            };
            if self.cut.contains(to) || !keep(to, &msg) {
                continue;
            }
            let (locator, journal, out) = self.node(to);
            let commits = locator.receive(from, msg, journal, out);
            self.enact(to, commits)?;
        }
        Ok(())
    }

    /// A fresh naplet's arrival, registered (acked) at `at`; anything
    /// but a leader's proposal is the registrar's to retry, not ours.
    fn register(&mut self, at: &'static str) -> std::result::Result<(), String> {
        self.filed += 1;
        let registrar = format!("s{}", self.filed);
        let wire = Wire::DirRegister {
            id: NapletId::new("czxu", "home", Millis(self.filed)).unwrap(),
            host: registrar.clone(),
            visit: Some(Visit {
                origin: "o".into(),
                transfer_id: self.filed,
            }),
            attempt: 1,
        };
        let (locator, journal, out) = self.node(at);
        let commits = locator.file(wire, journal, out);
        self.enact(at, commits)
    }
}

/// `a` leads and holds acks for proposals nobody else saw; `b` takes
/// over and fills the same indices with its own registrations, which
/// reach `a` (deposing it) before `b` can commit them; `b` dies and `a`
/// leads again, committing `b`'s entries at the indices it still
/// remembers proposing. `hears` lets `b` learn its commits first.
fn depose_and_regain(
    [a, b]: [&'static str; 2],
    (held, elsewhere, later): (usize, usize, usize),
    hears: bool,
) -> std::result::Result<(), String> {
    let all = |_: &str, _: &ReplMsg| true;
    let mut set = Replicas::new();
    set.tick(a, 1_300)?;
    set.deliver(all)?;
    if !set.leads(a) {
        return Err(format!("{a} did not win the first election"));
    }
    set.cut.insert(a);
    for _ in 0..held {
        set.register(a)?;
    }
    set.tick(b, 1_300)?;
    set.deliver(all)?;
    if !set.leads(b) {
        return Err(format!("{b} did not take over"));
    }
    for _ in 0..elsewhere {
        set.register(b)?;
    }
    // without its followers' replies `b` replicates but never commits
    let deaf = |to: &str, msg: &ReplMsg| hears || !(to == b && msg.label() == "AppendReply");
    set.deliver(deaf)?;
    set.cut.remove(a);
    set.tick(b, 100)?;
    set.deliver(deaf)?;
    if set.leads(a) {
        return Err(format!("{a} never heard of {b}'s term"));
    }
    set.cut.insert(b);
    set.tick(a, 1_300)?;
    set.deliver(all)?;
    if !set.leads(a) {
        return Err(format!("{a} did not regain the lead"));
    }
    for _ in 0..later {
        set.register(a)?;
    }
    set.deliver(all)
}

proptest! {
    #[test]
    fn a_released_ack_names_a_registration_committed_at_that_index(
        first in 0..3usize,
        second in 1..3usize,
        counts in (1..4usize, 1..4usize, 0..3usize),
        hears in any::<bool>(),
    ) {
        let pair = [REPLICAS[first], REPLICAS[(first + second) % 3]];
        depose_and_regain(pair, counts, hears).map_err(TestCaseError::fail)?;
    }
}
