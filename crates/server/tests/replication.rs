//! Replicated-directory scenarios: a three-node directory replica set
//! elects a leader, commits registrations through the consensus log,
//! survives leader crashes without losing committed movement, and
//! quiesces (the leader suspends its heartbeat once the log is fully
//! replicated, so `run_to_quiescence` terminates).

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::context::NapletContext;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{ActionSpec, Itinerary, Pattern};
use naplet_core::message::{Payload, Sender};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel};
use naplet_server::repl::Role;
use naplet_server::{
    LeasePolicy, LocationMode, MonitorPolicy, NapletStatus, ServerConfig, SimRuntime,
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

fn world(seed: u64, lease: Option<LeasePolicy>) -> SimRuntime {
    world_of(seed, lease, &WORKERS, 5)
}

fn world_of(seed: u64, lease: Option<LeasePolicy>, workers: &[&str], dwell_ms: u64) -> SimRuntime {
    let mut reg = CodebaseRegistry::new();
    reg.register(CODEBASE, 4096, || Collector);
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), seed);
    let mut rt = SimRuntime::new(fabric);
    let replicas: Vec<String> = REPLICAS.iter().map(|r| r.to_string()).collect();
    let mode = LocationMode::ReplicatedDirectory(replicas);
    for host in std::iter::once("home")
        .chain(workers.iter().copied())
        .chain(REPLICAS)
    {
        let mut cfg = ServerConfig::open(host, mode.clone());
        cfg.codebase = reg.clone();
        cfg.monitor_policy = MonitorPolicy {
            native_dwell_ms: dwell_ms,
            ..MonitorPolicy::default()
        };
        cfg.lease = lease.clone();
        rt.add_server(cfg);
    }
    rt
}

fn probe(route: &[&str], ts: u64) -> Naplet {
    let it = Itinerary::new(Pattern::seq_of_hosts(route, None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    Naplet::create(
        &SigningKey::new("czxu", b"campus-secret"),
        "czxu",
        "home",
        Millis(ts),
        CODEBASE,
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap()
}

fn leaders(rt: &SimRuntime) -> Vec<String> {
    REPLICAS
        .iter()
        .filter(|r| {
            rt.server(r)
                .and_then(|s| s.repl_core())
                .is_some_and(|c| c.role() == Role::Leader)
        })
        .map(|r| r.to_string())
        .collect()
}

#[test]
fn replica_set_elects_one_leader_and_quiesces() {
    let mut rt = world(11, None);
    let processed = rt.run_to_quiescence(60_000);
    assert!(processed < 60_000, "idle replica set must quiesce");
    assert_eq!(leaders(&rt).len(), 1, "exactly one leader after election");
    for r in REPLICAS {
        let core = rt.server(r).unwrap().repl_core().unwrap();
        assert!(core.is_suspended(), "{r} must suspend when idle");
        assert!(core.commit_index() >= 1, "{r} must commit the leader noop");
    }
}

#[test]
fn registrations_commit_on_every_replica_and_journeys_complete() {
    let mut rt = world(12, None);
    rt.launch(probe(&["s0", "s1", "home"], 1)).unwrap();
    rt.launch(probe(&["s1", "s0", "home"], 2)).unwrap();
    let processed = rt.run_to_quiescence(120_000);
    assert!(processed < 120_000, "replicated run must quiesce");
    assert_eq!(rt.drain_reports("home").len(), 2);
    // both journeys ended: the committed directory forgot both agents,
    // and all replicas applied the identical log
    let commits: Vec<u64> = REPLICAS
        .iter()
        .map(|r| rt.server(r).unwrap().repl_core().unwrap().commit_index())
        .collect();
    assert!(
        commits[0] >= 6,
        "expected arrival/departure commits, got {commits:?}"
    );
    assert_eq!(commits[0], commits[1]);
    assert_eq!(commits[1], commits[2]);
    for r in REPLICAS {
        let core = rt.server(r).unwrap().repl_core().unwrap();
        assert_eq!(core.state.len(), 0, "{r} still tracks a finished agent");
    }
}

#[test]
fn a_replica_hosting_a_naplet_registers_its_moves_through_consensus() {
    let mut rt = world(11, None);
    rt.run_to_quiescence(60_000);
    let leader = leaders(&rt).pop().expect("an elected leader");
    let naplet = probe(&[leader.as_str(), "s0"], 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    // after every event, what the leader's committed directory says
    // about the naplet (consecutive repeats folded)
    let mut committed: Vec<String> = Vec::new();
    while rt.step().is_some() {
        assert!(rt.events_processed < 200_000, "run must quiesce");
        let core = rt.server(&leader).unwrap().repl_core().unwrap();
        if let Some(entry) = core.state.lookup(&id) {
            if committed.last() != Some(&entry.host) {
                committed.push(entry.host.clone());
            }
        }
    }
    assert_eq!(rt.drain_reports("home").len(), 1, "journey completes");
    // the replica's own visit is in the replicated log like anyone
    // else's: registered by home as the agent left it, then moved on
    // by the leader's own registration of the arrival at s0 ...
    assert_eq!(committed, [leader.clone(), "s0".into()]);
    // ... and nowhere else. This test used to end by asserting that
    // the replica's plain per-host table stayed empty (nothing reads it
    // in this mode). The locator's shard is now one value — a table
    // *or* the consensus core — so a replica has no table to write to:
    // `locator.directory()` on it is the committed state read above.
}

#[test]
fn leader_crash_mid_churn_loses_no_committed_registration() {
    let mut rt = world(13, None);
    // let the election settle first so there is a leader to kill
    rt.run_to_quiescence(30_000);
    let before = leaders(&rt);
    assert_eq!(before.len(), 1);
    let victim = before[0].clone();

    rt.launch(probe(&["s0", "s1", "s0", "home"], 1)).unwrap();
    // run a little churn, then kill the leader mid-journey
    for _ in 0..40 {
        rt.step();
    }
    rt.crash_server(&victim, Some(2_000));
    let processed = rt.run_to_quiescence(300_000);
    assert!(processed < 300_000, "failover run must quiesce");
    assert_eq!(
        rt.drain_reports("home").len(),
        1,
        "journey must survive directory failover"
    );
    // the rejoined replica caught back up to the same committed state
    let commits: Vec<u64> = REPLICAS
        .iter()
        .map(|r| rt.server(r).unwrap().repl_core().unwrap().commit_index())
        .collect();
    assert_eq!(commits[0], commits[1], "commit divergence: {commits:?}");
    assert_eq!(commits[1], commits[2], "commit divergence: {commits:?}");
    assert_eq!(leaders(&rt).len(), 1, "a new leader must have emerged");
}

#[test]
fn follower_crash_is_invisible_to_clients() {
    let mut rt = world(14, None);
    rt.run_to_quiescence(30_000);
    let leader = &leaders(&rt)[0];
    let follower = REPLICAS.iter().find(|r| *r != leader).unwrap().to_string();
    rt.launch(probe(&["s0", "s1", "home"], 1)).unwrap();
    for _ in 0..20 {
        rt.step();
    }
    rt.crash_server(&follower, Some(1_500));
    let processed = rt.run_to_quiescence(300_000);
    assert!(processed < 300_000);
    assert_eq!(rt.drain_reports("home").len(), 1);
}

#[test]
fn home_redispatch_after_failover_never_duplicates_an_agent() {
    // satellite: exactly-once across leader changes — the home's lease
    // machinery probes the replica set before re-dispatching, so an
    // agent that is alive (its movement committed under a new leader)
    // is not forked into a second live copy
    let lease = LeasePolicy {
        duration_ms: 4_000,
        redispatch: true,
        max_redispatches: 3,
    };
    let mut rt = world(15, Some(lease));
    rt.run_to_quiescence(30_000);
    let victim = leaders(&rt)[0].clone();
    rt.launch(probe(&["s0", "s1", "s0", "s1", "home"], 1))
        .unwrap();
    for _ in 0..60 {
        rt.step();
    }
    rt.crash_server(&victim, Some(3_000));
    let processed = rt.run_to_quiescence(600_000);
    assert!(processed < 600_000, "failover + lease run must quiesce");
    let reports = rt.drain_reports("home");
    assert_eq!(
        reports.len(),
        1,
        "exactly one report: a re-dispatch would have produced a second"
    );
    // the visit list shows a single pass over the route (no forked
    // second copy re-walking it)
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
    assert_eq!(visits, vec!["s0", "s1", "s0", "s1", "home"]);
    let home = rt.server("home").unwrap();
    assert_eq!(home.leases.lost, 0, "agent must not be declared lost");
    let lost = home
        .manager
        .launched()
        .iter()
        .filter(|e| e.status == NapletStatus::Lost)
        .count();
    assert_eq!(lost, 0);
}

/// What an owner-post storm through a leader crash must preserve.
#[derive(Debug, PartialEq, Eq)]
struct StormCounts {
    completed: usize,
    duplicate_reports: usize,
    elections: u64,
    lookups: usize,
    lookups_confirmed: usize,
    locator_hits: u64,
    locator_stale_hits: u64,
}

/// 240 two-hop probes in 8 waves of 30 (120 ms apart) over 6 workers;
/// the owner posts twice at every 20th naplet while it is under way,
/// and the directory leader is crashed as wave 3 launches and restarts
/// 1500 ms later.
fn owner_post_storm() -> StormCounts {
    const STORM_WORKERS: [&str; 6] = ["w0", "w1", "w2", "w3", "w4", "w5"];
    const NAPLETS: usize = 240;
    const WAVE_GAP_MS: u64 = 120;
    // a 20 ms dwell lets a mid-journey post win the race against the
    // moving agent: resolving costs one directory round trip
    let mut rt = world_of(7, None, &STORM_WORKERS, 20);
    // launch into a replica set that already has its first leader
    while leaders(&rt).is_empty() && rt.now().0 < 10_000 {
        rt.run_until(Millis(rt.now().0 + 100));
    }
    let base = rt.now().0 + 50;
    let mut launched: Vec<NapletId> = Vec::new();
    let mut lookups = 0usize;
    for wave in 0..8u64 {
        let wave_start = base + wave * WAVE_GAP_MS;
        rt.run_until(Millis(wave_start));
        if wave == 3 {
            let leader = leaders(&rt).pop().expect("a leader to crash at wave 3");
            rt.crash_server(&leader, Some(1_500));
        }
        let mut sampled = Vec::new();
        for _ in 0..NAPLETS / 8 {
            let i = launched.len();
            let route = [STORM_WORKERS[i % 6], STORM_WORKERS[(i + 5) % 6]];
            // NapletId is (owner, home, creation ms): one ms per launch
            let naplet = probe(&route, i as u64 + 1);
            launched.push(naplet.id().clone());
            if i.is_multiple_of(20) {
                sampled.push(naplet.id().clone());
            }
            rt.launch(naplet).unwrap();
        }
        // the first post resolves through the replicated directory; the
        // second, a beat later, finds a cached location the agent has
        // usually left, so it must chase
        for burst in [WAVE_GAP_MS / 3, WAVE_GAP_MS / 2] {
            rt.run_until(Millis(wave_start + burst));
            for id in &sampled {
                lookups += 1;
                rt.owner_post("home", id.clone(), Payload::User(Value::Int(0)))
                    .unwrap();
            }
        }
    }
    let processed = rt.run_to_quiescence(5_000_000);
    assert!(processed < 5_000_000, "storm must quiesce");

    let reports = rt.drain_reports("home");
    let per_naplet =
        |id: &NapletId| -> usize { reports.iter().filter(|(from, _)| from == id).count() };
    let (mut locator_hits, mut locator_stale_hits) = (0, 0);
    for host in rt.server_hosts() {
        let locator = &rt.server(&host).unwrap().locator;
        locator_hits += locator.hits;
        locator_stale_hits += locator.stale_hits;
    }
    let messenger = &rt.server("home").unwrap().messenger;
    let owner = Sender::Owner("home".into());
    StormCounts {
        completed: launched.iter().filter(|id| per_naplet(id) >= 1).count(),
        duplicate_reports: launched.iter().filter(|id| per_naplet(id) > 1).count(),
        elections: rt.obs().metrics.snapshot().counter("repl.elections"),
        lookups,
        lookups_confirmed: (1..=lookups as u64)
            .filter(|seq| messenger.confirmation(&owner, *seq).is_some())
            .count(),
        locator_hits,
        locator_stale_hits,
    }
}

#[test]
fn owner_posts_through_a_leader_crash_lose_and_duplicate_nothing() {
    let a = owner_post_storm();
    assert_eq!(a.completed, 240, "no journey may be lost: {a:?}");
    assert_eq!(a.duplicate_reports, 0, "no journey may duplicate: {a:?}");
    assert!(a.elections >= 2, "expected a re-election: {a:?}");
    // posts made outside the outage confirm; one whose target retires
    // before redelivery legitimately never does
    assert!(
        a.lookups > 0 && a.lookups_confirmed >= a.lookups / 3,
        "too few posts confirmed: {a:?}"
    );
    assert!(a.locator_hits >= 1, "cache never hit: {a:?}");
    assert!(a.locator_stale_hits >= 1, "no stale answer observed: {a:?}");
    assert_eq!(a, owner_post_storm(), "seeded storm must repeat exactly");
}
