//! Reusable experiment scenarios built on the framework.
//!
//! These power the `figures` binary and the chaos/trace/status test
//! suites, so every number in EXPERIMENTS.md regenerates from the code
//! path the tests hold.

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::context::NapletContext;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::itinerary::{ActionSpec, Itinerary, Pattern};
use naplet_core::message::{Payload, Sender};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel, StatsSnapshot};
use naplet_obs::{ObsSnapshot, StallAlert, WatchdogConfig};
use naplet_server::{
    LocationMode, MonitorPolicy, ResourceUsage, ServerConfig, SimRuntime, StatusReport,
};

/// Codebase name for the probe behaviour.
pub const PROBE_CODEBASE: &str = "naplet://code/probe.jar";
/// Declared probe code size.
pub const PROBE_CODE_SIZE: u64 = 8 * 1024;

/// Probe behaviour: records visits and received messages (value +
/// forwarding hop count) into state.
pub struct Probe;

impl NapletBehavior for Probe {
    fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
        let host = ctx.host_name().to_string();
        let mut visits = match ctx.state().get("visits") {
            Value::List(l) => l,
            _ => Vec::new(),
        };
        visits.push(Value::Str(host));
        ctx.state().set("visits", Value::List(visits));

        let mut inbox = match ctx.state().get("inbox") {
            Value::List(l) => l,
            _ => Vec::new(),
        };
        while let Some(m) = ctx.get_message()? {
            if let Payload::User(v) = m.payload {
                inbox.push(Value::map([
                    ("value", v),
                    ("hops", Value::Int(m.forward_hops as i64)),
                ]));
            }
        }
        ctx.state().set("inbox", Value::List(inbox));
        Ok(())
    }
}

/// Registry holding the probe behaviour.
pub fn probe_registry() -> CodebaseRegistry {
    let mut r = CodebaseRegistry::new();
    r.register(PROBE_CODEBASE, PROBE_CODE_SIZE, || Probe);
    r
}

/// The signing key experiments use.
pub fn bench_key() -> SigningKey {
    SigningKey::new("czxu", b"bench-secret")
}

/// A ring world: home + `n` servers `s0..s(n-1)` with one location
/// mode and a configurable dwell time.
pub struct RingWorld {
    /// The runtime.
    pub rt: SimRuntime,
    /// Worker host names.
    pub hosts: Vec<String>,
    /// The home host.
    pub home: String,
}

impl RingWorld {
    /// Build the world.
    pub fn build(
        n: usize,
        mode: LocationMode,
        latency: LatencyModel,
        dwell_ms: u64,
        seed: u64,
    ) -> RingWorld {
        let fabric = Fabric::new(latency, Bandwidth::fast_ethernet(), seed);
        let mut rt = SimRuntime::new(fabric);
        let reg = probe_registry();
        let policy = MonitorPolicy {
            native_dwell_ms: dwell_ms,
            ..MonitorPolicy::default()
        };
        let add = |rt: &mut SimRuntime, host: &str| {
            let mut cfg = ServerConfig::open(host, mode.clone());
            cfg.codebase = reg.clone();
            cfg.monitor_policy = policy.clone();
            rt.add_server(cfg);
        };
        add(&mut rt, "home");
        let hosts: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
        for h in &hosts {
            add(&mut rt, h);
        }
        RingWorld {
            rt,
            hosts,
            home: "home".into(),
        }
    }

    /// A probe naplet that walks the ring `laps` times and reports.
    pub fn probe_naplet(&self, laps: usize, ts: u64) -> Naplet {
        let mut route: Vec<&str> = Vec::new();
        for _ in 0..laps {
            route.extend(self.hosts.iter().map(String::as_str));
        }
        let it = Itinerary::new(Pattern::seq_of_hosts(&route, None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        Naplet::create(
            &bench_key(),
            "czxu",
            &self.home,
            Millis(ts),
            PROBE_CODEBASE,
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap()
    }
}

/// Outcome of the location/communication experiment (E4/E5).
#[derive(Debug, Clone)]
pub struct MessagingOutcome {
    /// Messages posted.
    pub posted: usize,
    /// Messages the agent actually received (from its final report).
    pub delivered: usize,
    /// Mean confirmation latency (virtual ms) over confirmed messages.
    pub mean_confirm_latency_ms: f64,
    /// Messages confirmed delivered somewhere (post-office view).
    pub confirmed: usize,
    /// Messages dropped at the forwarding cap.
    pub undeliverable: u64,
    /// Forwarding hops performed across all messengers.
    pub forwards: u64,
    /// Maximum forwarding hops observed on a delivered message.
    pub max_hops: u32,
    /// Messages waiting in special mailboxes at the end (early
    /// messages whose naplet finished before pickup).
    pub stranded_early: usize,
    /// Control traffic bytes (directory queries/registrations).
    pub control_bytes: u64,
    /// Message traffic bytes.
    pub message_bytes: u64,
    /// Journey completion (virtual ms).
    pub completion_ms: u64,
}

/// Drive a probe around the ring while the owner posts `n_messages`
/// spaced `spacing_ms` apart; measure delivery behaviour under the
/// given location mode (experiments E4/E5).
pub fn messaging_experiment(
    n_hosts: usize,
    laps: usize,
    mode: LocationMode,
    n_messages: usize,
    spacing_ms: u64,
    seed: u64,
) -> MessagingOutcome {
    // dwell long enough that the posting schedule fits inside the
    // journey (messages posted after the agent dies can never deliver)
    let mut world = RingWorld::build(n_hosts, mode, LatencyModel::Constant(2), 30, seed);
    let before = world.rt.fabric().stats().snapshot();
    let naplet = world.probe_naplet(laps, 1);
    let id = naplet.id().clone();
    let t0 = world.rt.now();
    world.rt.launch(naplet).unwrap();

    let mut send_times = Vec::with_capacity(n_messages);
    for k in 0..n_messages {
        let due = Millis(t0.0 + 5 + spacing_ms * k as u64);
        world.rt.run_until(due);
        send_times.push(world.rt.now());
        world
            .rt
            .owner_post(
                &world.home.clone(),
                id.clone(),
                Payload::User(Value::Int(k as i64)),
            )
            .unwrap();
    }
    world.rt.run_to_quiescence(50_000_000);

    // delivered messages from the agent's report
    let reports = world.rt.drain_reports(&world.home);
    let mut delivered = 0usize;
    let mut max_hops = 0u32;
    for (_, report) in &reports {
        if let Value::List(inbox) = report.get("inbox") {
            delivered += inbox.len();
            for entry in &inbox {
                if let Ok(h) = entry.get("hops").as_int() {
                    max_hops = max_hops.max(h as u32);
                }
            }
        }
    }

    // confirmation latencies at the home messenger
    let home = world.rt.server(&world.home).unwrap();
    let mut latencies = Vec::new();
    for (k, sent) in send_times.iter().enumerate() {
        let seq = (k + 1) as u64;
        if let Some(c) = home
            .messenger
            .confirmation(&Sender::Owner(world.home.clone()), seq)
        {
            latencies.push(c.at.since(*sent) as f64);
        }
    }
    let mean_confirm_latency_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };

    let mut forwards = 0;
    let mut stranded = 0;
    for host in world.rt.server_hosts() {
        let s = world.rt.server(&host).unwrap();
        forwards += s.messenger.forwards_performed;
        stranded += s.messenger.early_waiting();
    }
    let undeliverable = world.rt.obs().metrics.counter("post.undeliverable");
    let stats = world.rt.fabric().stats().snapshot().since(&before);
    MessagingOutcome {
        posted: n_messages,
        delivered,
        mean_confirm_latency_ms,
        confirmed: latencies.len(),
        undeliverable,
        forwards,
        max_hops,
        stranded_early: stranded,
        control_bytes: stats.bytes(naplet_net::TrafficClass::Control),
        message_bytes: stats.bytes(naplet_net::TrafficClass::Message),
        completion_ms: world.rt.now().since(t0),
    }
}

/// Outcome of an itinerary-shape run (E3).
#[derive(Debug, Clone)]
pub struct ItineraryOutcome {
    /// Shape label.
    pub shape: &'static str,
    /// Virtual completion time.
    pub completion_ms: u64,
    /// Total bytes on the wire.
    pub total_bytes: u64,
    /// Agents used (original + clones).
    pub agents: usize,
    /// Migrations performed.
    pub migrations: u64,
}

/// Run one itinerary shape over `n` hosts and measure it (E3).
pub fn itinerary_experiment(n: usize, shape: &'static str, seed: u64) -> ItineraryOutcome {
    let world = RingWorld::build(
        n,
        LocationMode::CentralDirectory("home".into()),
        LatencyModel::Constant(5),
        10,
        seed,
    );
    let mut rt = world.rt;
    let hosts: Vec<&str> = world.hosts.iter().map(String::as_str).collect();

    let pattern = match shape {
        "seq" => Pattern::seq_of_hosts(&hosts, None),
        "par" => Pattern::par_singletons(&hosts, Some(ActionSpec::ReportHome)),
        "par-of-seqs" => {
            let mid = hosts.len() / 2;
            Pattern::par(vec![
                Pattern::seq_of_hosts(&hosts[..mid], None),
                Pattern::seq_of_hosts(&hosts[mid..], None),
            ])
        }
        other => panic!("unknown shape {other}"),
    };
    let mut it = Itinerary::new(pattern).unwrap();
    if shape != "par" {
        it = it.with_final_action(ActionSpec::ReportHome);
    }
    let agents = it.agents_required();
    let naplet = Naplet::create(
        &bench_key(),
        "czxu",
        "home",
        Millis(1),
        PROBE_CODEBASE,
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();

    let before = rt.fabric().stats().snapshot();
    let t0 = rt.now();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(50_000_000);
    let stats = rt.fabric().stats().snapshot().since(&before);
    ItineraryOutcome {
        shape,
        completion_ms: rt.now().since(t0),
        total_bytes: stats.total_bytes(),
        agents,
        migrations: stats.messages(naplet_net::TrafficClass::Migration),
    }
}

/// Code-loading outcome (E7).
#[derive(Debug, Clone)]
pub struct CodeLoadingOutcome {
    /// Round index (0 = cold).
    pub round: usize,
    /// Code bytes transferred this round.
    pub code_bytes: u64,
    /// Completion time this round.
    pub completion_ms: u64,
}

/// Send the same agent over the same route repeatedly; round 0 pays
/// the lazy code load on every host, later rounds hit the cache (E7).
pub fn code_loading_experiment(n: usize, rounds: usize, seed: u64) -> Vec<CodeLoadingOutcome> {
    let world = RingWorld::build(
        n,
        LocationMode::ForwardingTrace,
        LatencyModel::Constant(5),
        5,
        seed,
    );
    let mut rt = world.rt;
    let hosts: Vec<&str> = world.hosts.iter().map(String::as_str).collect();
    let mut out = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let it = Itinerary::new(Pattern::seq_of_hosts(&hosts, None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        let naplet = Naplet::create(
            &bench_key(),
            "czxu",
            "home",
            Millis(1 + round as u64),
            PROBE_CODEBASE,
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap();
        let before = rt.fabric().stats().snapshot();
        let t0 = rt.now();
        rt.launch(naplet).unwrap();
        rt.run_to_quiescence(50_000_000);
        let stats = rt.fabric().stats().snapshot().since(&before);
        out.push(CodeLoadingOutcome {
            round,
            code_bytes: stats.bytes(naplet_net::TrafficClass::Code),
            completion_ms: rt.now().since(t0),
        });
        rt.drain_reports("home");
    }
    out
}

/// Ablation: migration wire-size growth as gathered state accumulates
/// (sequential collector) vs the broadcast pattern whose clones carry
/// only their own findings. Returns per-hop migration bytes for the
/// sequential agent and the (constant) per-clone cost for broadcast.
#[derive(Debug, Clone)]
pub struct AccumulationOutcome {
    /// Migration bytes per sequential hop, in hop order.
    pub seq_hop_bytes: Vec<u64>,
    /// Mean migration bytes per broadcast clone.
    pub broadcast_clone_bytes: u64,
}

/// Measure state-accumulation growth (DESIGN.md ablation; motivates
/// the broadcast NM itinerary and on-site filtering).
pub fn accumulation_experiment(
    n: usize,
    payload_per_visit: usize,
    seed: u64,
) -> AccumulationOutcome {
    /// Collector that grows its private state by a fixed payload per visit.
    struct Hoarder(usize);
    impl NapletBehavior for Hoarder {
        fn on_start(&mut self, ctx: &mut dyn naplet_core::context::NapletContext) -> Result<()> {
            let host = ctx.host_name().to_string();
            let blob = Value::Bytes(vec![0x5a; self.0]);
            ctx.state().update("hoard", |v| {
                if let Value::Map(m) = v {
                    m.insert(host.clone(), blob.clone());
                }
            })?;
            Ok(())
        }
    }

    let build = |seed: u64, payload: usize| {
        let mut reg = CodebaseRegistry::new();
        // zero-size codebase: per-link byte counters then show only the
        // migration itself plus the constant handshake overhead
        reg.register("hoarder", 0, move || Hoarder(payload));
        let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), seed);
        let mut rt = SimRuntime::new(fabric);
        for host in std::iter::once("home".to_string()).chain((0..n).map(|i| format!("s{i}"))) {
            let mut cfg = ServerConfig::open(&host, LocationMode::ForwardingTrace);
            cfg.codebase = reg.clone();
            rt.add_server(cfg);
        }
        rt
    };
    let hosts: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    let refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
    let naplet = |pattern, ts| {
        let it = Itinerary::new(pattern)
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        let mut nap = Naplet::create(
            &bench_key(),
            "czxu",
            "home",
            Millis(ts),
            "hoarder",
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap();
        nap.state
            .set("hoard", Value::map::<[(&str, Value); 0], &str>([]));
        nap
    };

    // sequential: per-hop migration bytes from per-link counters
    let mut rt = build(seed, payload_per_visit);
    rt.launch(naplet(Pattern::seq_of_hosts(&refs, None), 1))
        .unwrap();
    rt.run_to_quiescence(10_000_000);
    let snap = rt.fabric().stats().snapshot();
    let mut seq_hop_bytes = Vec::with_capacity(n);
    let mut prev = "home".to_string();
    for h in &hosts {
        let bytes = snap
            .by_link
            .get(&(prev.clone(), h.clone()))
            .map(|c| c.bytes)
            .unwrap_or(0);
        seq_hop_bytes.push(bytes);
        prev = h.clone();
    }

    // broadcast: total migration bytes / clones
    let mut rt = build(seed ^ 1, payload_per_visit);
    rt.launch(naplet(
        Pattern::par_singletons(&refs, Some(ActionSpec::ReportHome)),
        2,
    ))
    .unwrap();
    rt.run_to_quiescence(10_000_000);
    let snap = rt.fabric().stats().snapshot();
    let broadcast_clone_bytes = snap.bytes(naplet_net::TrafficClass::Migration) / n.max(1) as u64;

    AccumulationOutcome {
        seq_hop_bytes,
        broadcast_clone_bytes,
    }
}

/// Outcome of a chaos run (reliable-transfer layer under injected
/// faults).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Probe journeys that reported home (target: all of them).
    pub completed: usize,
    /// Visit order from the probe's report.
    pub visits: Vec<String>,
    /// Hosts executed more than once (duplicated admissions; the
    /// idempotent-delivery guarantee says this stays 0 even when
    /// transfers are retransmitted).
    pub duplicate_visits: usize,
    /// Naplets stranded in a server's parked table at the end.
    pub parked: usize,
    /// Retransmitted frames (attempt ≥ 2) observed by the fabric.
    pub retransmits: u64,
    /// Frames the fabric dropped (loss or down-windows).
    pub dropped: u64,
    /// Migration-class frames that made it onto a link.
    pub migrations: u64,
    /// Migration-class bytes (ack/commit overhead is Control-class and
    /// excluded by construction).
    pub migration_bytes: u64,
    /// Control-class bytes (handshakes, acks, directory traffic).
    pub control_bytes: u64,
    /// Journey completion (virtual ms).
    pub completion_ms: u64,
}

/// Drive a 6-hop `Seq` probe across an 8-server space while injecting
/// frame loss and scheduled host down-windows; the acknowledged
/// handoff must still complete the journey exactly once.
///
/// `loss` is the per-frame drop probability; `down_windows` are
/// `(host, from_ms, until_ms)` outages. With no faults this measures
/// the protocol's baseline traffic (retransmits and drops must be 0).
pub fn chaos_experiment(loss: f64, down_windows: &[(&str, u64, u64)], seed: u64) -> ChaosOutcome {
    chaos_experiment_impl(loss, down_windows, seed, false, None).chaos
}

/// A chaos run with journey tracing switched on: the same outcome plus
/// the deterministic trace/metrics exports and per-naplet resource
/// accounting (paper §5.2).
#[derive(Debug, Clone)]
pub struct TracedChaosOutcome {
    /// The reliable-transfer metrics of the run.
    pub chaos: ChaosOutcome,
    /// Trace events + metrics snapshot of the whole space.
    pub obs: ObsSnapshot,
    /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
    pub chrome_json: String,
    /// Per-(host, naplet) resource totals from the NapletMonitors,
    /// sorted by host for deterministic tables.
    pub usage: Vec<(String, String, ResourceUsage)>,
    /// Stall alerts the journey watchdog raised, in raise order
    /// (empty unless the run was watched).
    pub alerts: Vec<StallAlert>,
    /// End-of-run status report of every live server, sorted by host
    /// (empty unless the run was watched).
    pub status: Vec<StatusReport>,
}

/// [`chaos_experiment`] with the tracer enabled.
pub fn traced_chaos_experiment(
    loss: f64,
    down_windows: &[(&str, u64, u64)],
    seed: u64,
) -> TracedChaosOutcome {
    chaos_experiment_impl(loss, down_windows, seed, true, None)
}

/// The chaos journey with the ops plane armed: tracing on, journey
/// watchdog checking a `deadline_ms` progress deadline every 50 ms of
/// virtual time, and a whole-space status sweep at quiescence. A
/// down-window that strands the probe mid-handoff must surface as a
/// typed alert (the origin's retransmits deliberately do not count as
/// progress); a clean run must raise none.
pub fn watched_chaos_experiment(
    loss: f64,
    down_windows: &[(&str, u64, u64)],
    deadline_ms: u64,
    seed: u64,
) -> TracedChaosOutcome {
    let config = WatchdogConfig {
        deadline_ms,
        tick_ms: 50,
        ..WatchdogConfig::default()
    };
    chaos_experiment_impl(loss, down_windows, seed, true, Some(config))
}

fn chaos_experiment_impl(
    loss: f64,
    down_windows: &[(&str, u64, u64)],
    seed: u64,
    traced: bool,
    watchdog: Option<WatchdogConfig>,
) -> TracedChaosOutcome {
    // home + s0..s6 = 8 servers; dwell 5 ms keeps the journey well
    // inside the retry horizon (~7.7 s worst case per hop)
    let world = RingWorld::build(
        7,
        LocationMode::HomeManagers,
        LatencyModel::Constant(2),
        5,
        seed,
    );
    let mut rt = world.rt;
    if traced {
        rt.enable_tracing();
    }
    let watched = watchdog.is_some();
    if let Some(config) = watchdog {
        rt.enable_watchdog(config);
    }
    rt.fabric().set_loss(loss);
    for (host, from_ms, until_ms) in down_windows {
        rt.fabric().schedule_down(host, *from_ms, *until_ms);
    }

    let (chaos, _) = run_probe(&mut rt, None);
    let mut usage = Vec::new();
    for host in rt.server_hosts() {
        for (nid, u) in rt.server(&host).unwrap().monitor.usage() {
            usage.push((host.clone(), nid.clone(), *u));
        }
    }
    let obs = rt.obs().snapshot();
    let chrome_json = if traced {
        naplet_obs::chrome_trace_json(&obs.events)
    } else {
        String::new()
    };
    let (alerts, status) = if watched {
        (rt.alerts().to_vec(), rt.status_reports())
    } else {
        (Vec::new(), Vec::new())
    };

    TracedChaosOutcome {
        chaos,
        obs,
        chrome_json,
        usage,
        alerts,
        status,
    }
}

/// Outcome of a crash-chaos run: the reliable-transfer metrics plus
/// crash-consistency counters (journal recovery + home-side leases).
#[derive(Debug, Clone)]
pub struct CrashChaosOutcome {
    /// The reliable-transfer metrics of the same run.
    pub chaos: ChaosOutcome,
    /// Crashes injected into the space.
    pub crashes: u64,
    /// Servers restarted (and journal-replayed) after a crash.
    pub recoveries: u64,
    /// Naplets rehydrated from journals during recovery replay.
    pub rehydrated: u64,
    /// Visit effects suppressed because the journal showed them applied.
    pub replays_suppressed: u64,
    /// In-flight handoffs re-driven after an origin-side restart.
    pub handoffs_resumed: u64,
    /// Home-side leases that expired without renewal.
    pub leases_expired: u64,
    /// Orphaned naplets re-dispatched from their creation records.
    pub orphans_redispatched: u64,
    /// Naplets declared `Lost` after lease expiry with no re-dispatch.
    pub lost: u64,
}

/// The chaos journey (6-hop `Seq` probe over home + s0..s6) under
/// frame loss *and* scheduled whole-server crashes.
///
/// `crashes` are `(host, at_ms, restart_after_ms)` — `None` means the
/// host never comes back, so recovering its agents is entirely up to
/// the home-side lease in `lease`. `route` overrides the default
/// 6-hop pattern (e.g. to give the itinerary an `Alt` fallback around
/// a permanently dead host).
pub fn crash_chaos_experiment(
    loss: f64,
    crashes: &[(&str, u64, Option<u64>)],
    lease: Option<naplet_server::LeasePolicy>,
    route: Option<Pattern>,
    seed: u64,
) -> CrashChaosOutcome {
    crash_chaos_impl(loss, crashes, lease, route, seed, false).0
}

/// [`crash_chaos_experiment`] with the tracer enabled; returns the
/// trace/metrics snapshot alongside the outcome.
pub fn traced_crash_chaos_experiment(
    loss: f64,
    crashes: &[(&str, u64, Option<u64>)],
    lease: Option<naplet_server::LeasePolicy>,
    route: Option<Pattern>,
    seed: u64,
) -> (CrashChaosOutcome, ObsSnapshot) {
    crash_chaos_impl(loss, crashes, lease, route, seed, true)
}

fn crash_chaos_impl(
    loss: f64,
    crashes: &[(&str, u64, Option<u64>)],
    lease: Option<naplet_server::LeasePolicy>,
    route: Option<Pattern>,
    seed: u64,
    traced: bool,
) -> (CrashChaosOutcome, ObsSnapshot) {
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), seed);
    let mut rt = SimRuntime::new(fabric);
    if traced {
        rt.enable_tracing();
    }
    let reg = probe_registry();
    let policy = MonitorPolicy {
        native_dwell_ms: 5,
        ..MonitorPolicy::default()
    };
    for host in std::iter::once("home".to_string()).chain((0..7).map(|i| format!("s{i}"))) {
        let mut cfg = ServerConfig::open(&host, LocationMode::HomeManagers);
        cfg.codebase = reg.clone();
        cfg.monitor_policy = policy.clone();
        cfg.lease = lease.clone();
        rt.add_server(cfg);
    }
    rt.fabric().set_loss(loss);
    for (host, at_ms, restart_after) in crashes {
        rt.schedule_crash(host, *at_ms, *restart_after);
    }

    let (chaos, stats) = run_probe(&mut rt, route);
    let recovery = rt.recovery_totals();

    let outcome = CrashChaosOutcome {
        chaos,
        crashes: stats.crashes,
        recoveries: stats.recoveries,
        rehydrated: recovery.rehydrated,
        replays_suppressed: recovery.replays_suppressed,
        handoffs_resumed: recovery.handoffs_resumed,
        leases_expired: recovery.leases_expired,
        orphans_redispatched: recovery.orphans_redispatched,
        lost: recovery.agents_lost,
    };
    (outcome, rt.obs().snapshot())
}

/// Launch the chaos probe from `home` along `route` (by default the
/// 6-hop `Seq` ending at home), run the space to quiescence and read
/// the probe's outcome, with the fabric's counters over the run.
fn run_probe(rt: &mut SimRuntime, route: Option<Pattern>) -> (ChaosOutcome, StatsSnapshot) {
    // the last hop lands at home so completion and the final report
    // never cross a lossy link — what's under test is the 6 migrations
    let pattern = route
        .unwrap_or_else(|| Pattern::seq_of_hosts(&["s0", "s1", "s2", "s3", "s4", "home"], None));
    let it = Itinerary::new(pattern)
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let naplet = Naplet::create(
        &bench_key(),
        "czxu",
        "home",
        Millis(1),
        PROBE_CODEBASE,
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();
    let id = naplet.id().clone();
    let before = rt.fabric().stats().snapshot();
    let t0 = rt.now();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(50_000_000);
    let stats = rt.fabric().stats().snapshot().since(&before);

    let reports = rt.drain_reports("home");
    let mut completed = 0usize;
    let mut visits = Vec::new();
    for (rid, report) in &reports {
        if rid != &id {
            continue;
        }
        completed += 1;
        if let Value::List(l) = report.get("visits") {
            for v in &l {
                if let Value::Str(s) = v {
                    visits.push(s.clone());
                }
            }
        }
    }
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for v in &visits {
        *counts.entry(v.as_str()).or_default() += 1;
    }
    let duplicate_visits = counts.values().filter(|&&c| c > 1).count();
    let mut parked = 0usize;
    for host in rt.server_hosts() {
        parked += rt.server(&host).unwrap().navigator.parked.len();
    }
    let chaos = ChaosOutcome {
        completed,
        visits,
        duplicate_visits,
        parked,
        retransmits: stats.retransmits,
        dropped: stats.dropped,
        migrations: stats.messages(naplet_net::TrafficClass::Migration),
        migration_bytes: stats.bytes(naplet_net::TrafficClass::Migration),
        control_bytes: stats.bytes(naplet_net::TrafficClass::Control),
        completion_ms: rt.now().since(t0),
    };
    (chaos, stats)
}

/// Scheduling-policy ablation (E9): journey time of one probe agent
/// per priority tier, on an otherwise busy server, under each policy.
pub fn scheduling_experiment(
    policy: naplet_server::SchedulingPolicy,
    priority: Option<&str>,
    coresidents: usize,
    seed: u64,
) -> u64 {
    let mut reg = CodebaseRegistry::new();
    reg.register(PROBE_CODEBASE, 0, || Probe);
    let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth(None), seed);
    let mut rt = SimRuntime::new(fabric);
    for host in ["home", "busy"] {
        let mut cfg = ServerConfig::open(host, LocationMode::ForwardingTrace);
        cfg.codebase = reg.clone();
        cfg.monitor_policy = MonitorPolicy {
            native_dwell_ms: 50,
            scheduling: policy,
            ..MonitorPolicy::default()
        };
        rt.add_server(cfg);
    }
    let agent = |prio: Option<&str>, ts: u64| {
        let it = Itinerary::new(Pattern::seq_of_hosts(&["busy"], None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        let attrs = prio
            .map(|p| vec![("priority".to_string(), p.to_string())])
            .unwrap_or_default();
        Naplet::create(
            &bench_key(),
            "czxu",
            "home",
            Millis(ts),
            PROBE_CODEBASE,
            AgentKind::Native,
            it,
            attrs,
        )
        .unwrap()
    };
    for k in 0..coresidents {
        rt.launch(agent(None, 100 + k as u64)).unwrap();
    }
    rt.run_until(Millis(10));
    let probe = agent(priority, 1);
    let id = probe.id().clone();
    rt.launch(probe).unwrap();
    rt.run_to_quiescence(1_000_000);
    rt.server("home")
        .unwrap()
        .manager
        .table_entry(&id)
        .map(|e| e.updated.0)
        .unwrap_or(0)
}
