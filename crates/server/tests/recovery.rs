//! Crash-recovery tests at the protocol-boundary level: a server is
//! crashed (volatile state wiped, journal kept) at each commit-point
//! window of the acknowledged handoff, restarted, and must replay to
//! exactly the pre-crash outcome — no lost agents, no duplicated
//! visit effects.

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::context::NapletContext;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::itinerary::{ActionSpec, Itinerary, Pattern};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel};
use naplet_server::{
    Input, JournalPhase, LeasePolicy, LocalEvent, LocationMode, MonitorPolicy, NapletServer,
    Output, ServerConfig, SimRuntime, Wire,
};

const CODEBASE: &str = "naplet://code/collector.jar";

/// Records visits into state.
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

fn registry() -> CodebaseRegistry {
    let mut r = CodebaseRegistry::new();
    r.register(CODEBASE, 4096, || Collector);
    r
}

fn key() -> SigningKey {
    SigningKey::new("czxu", b"campus-secret")
}

fn world(n: usize, lease: Option<LeasePolicy>, seed: u64) -> SimRuntime {
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), seed);
    let mut rt = SimRuntime::new(fabric);
    for host in std::iter::once("home".to_string()).chain((0..n).map(|i| format!("s{i}"))) {
        let mut cfg = ServerConfig::open(&host, LocationMode::HomeManagers);
        cfg.codebase = registry();
        cfg.monitor_policy = MonitorPolicy {
            native_dwell_ms: 5,
            ..MonitorPolicy::default()
        };
        cfg.lease = lease.clone();
        rt.add_server(cfg);
    }
    rt
}

fn agent(route: &[&str], ts: u64) -> Naplet {
    let it = Itinerary::new(Pattern::seq_of_hosts(route, None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    Naplet::create(
        &key(),
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

fn visits(report: &Value) -> Vec<String> {
    match report.get("visits") {
        Value::List(l) => l
            .iter()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Destination crash after it admitted the Transfer but before its ack
/// reached the origin: the ack is lost, the origin retransmits into the
/// restarted server, which answers from the verdict its journal noted
/// instead of admitting again, and the visit still runs exactly once.
#[test]
fn dest_crash_between_transfer_receipt_and_ack() {
    let mut rt = world(1, None, 3);
    rt.launch(agent(&["s0", "home"], 1)).unwrap();
    // everything s0 sends while it takes the Transfer in is lost
    let admitted = |rt: &SimRuntime| {
        let mut log = rt.server("s0").unwrap().log().iter();
        log.any(|e| e.line.starts_with("ARRIVAL"))
    };
    while !admitted(&rt) {
        let to_s0 = rt.peek_target().expect("the Transfer reaches s0").as_str() == "s0";
        rt.fabric().set_loss(if to_s0 { 1.0 } else { 0.0 });
        rt.step();
    }
    rt.fabric().set_loss(0.0);
    rt.crash_server("s0", Some(40));
    rt.run_to_quiescence(1_000_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1, "journey must complete");
    assert_eq!(visits(&reports[0].1), ["s0", "home"]);
    // the admission record came back, and the retransmission was
    // answered, not admitted
    let s0 = rt.server("s0").unwrap();
    assert_eq!(s0.recovery_stats().rehydrated, 1);
    assert!(
        rt.fabric().stats().snapshot().retransmits >= 1,
        "origin must retransmit into the restarted server"
    );
    let answered = s0
        .log()
        .iter()
        .any(|e| e.line.starts_with("duplicate TRANSFER") && e.line.ends_with("already admitted"));
    assert!(answered, "s0 answers from its note: {:?}", s0.log());
}

/// Origin crash after sending Transfer but before the TransferAck
/// arrived: recovery re-drives the in-flight handoff from the journal
/// and the destination re-acks the duplicate without re-admitting.
#[test]
fn origin_crash_between_transfer_and_ack() {
    let mut rt = world(2, None, 3);
    rt.launch(agent(&["s0", "s1", "home"], 1)).unwrap();
    // s0 sends the Transfer to s1 at t=17 and commits on the ack at
    // t=23: crash s0 inside that window
    rt.run_until(Millis(18));
    rt.crash_server("s0", Some(40));
    rt.run_to_quiescence(1_000_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1, "journey must complete");
    assert_eq!(visits(&reports[0].1), ["s0", "s1", "home"]);
    let s0 = rt.server("s0").unwrap();
    let stats = s0.recovery_stats();
    assert_eq!(stats.rehydrated, 1, "the in-flight naplet must rehydrate");
    assert_eq!(
        stats.handoffs_resumed, 1,
        "the un-acked transfer must be re-driven"
    );
    // the destination saw the re-driven Transfer as a duplicate
    let s1 = rt.server("s1").unwrap();
    assert!(
        s1.log()
            .iter()
            .any(|e| e.line.contains("duplicate TRANSFER")),
        "s1 must dedup, not re-admit: {:?}",
        s1.log()
    );
    // and s0 retired the transfer after the duplicate ack
    assert!(
        s0.journal().naplet_records().is_empty(),
        "retired transfers leave the journal"
    );
}

/// Destination crash mid-visit, after the visit effect applied: the
/// journal rehydrates the naplet at its post-visit snapshot and the
/// replay is suppressed — the collector's state shows one visit.
#[test]
fn dest_crash_mid_visit_suppresses_replay() {
    let mut rt = world(1, None, 3);
    rt.launch(agent(&["s0", "home"], 1)).unwrap();
    // s0 admits at t=3, applies the visit once its code is in (t≈12)
    // and starts the next handoff at VisitDone (t=17): crash in the
    // window where the journal shows the visit applied
    rt.run_until(Millis(13));
    rt.crash_server("s0", Some(40));
    rt.run_to_quiescence(1_000_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1, "journey must complete");
    assert_eq!(
        visits(&reports[0].1),
        ["s0", "home"],
        "the s0 visit must appear exactly once"
    );
    let stats = rt.server("s0").unwrap().recovery_stats();
    assert_eq!(stats.rehydrated, 1);
    assert_eq!(
        stats.replays_suppressed, 1,
        "the applied visit must not re-execute"
    );
}

/// The retention sweep bounds the receiver-side dedup table: entries
/// older than the retention window are evicted and counted.
#[test]
fn retention_sweep_bounds_dedup_table() {
    let mut rt = world(1, None, 3);
    rt.launch(agent(&["s0", "home"], 1)).unwrap();
    rt.run_to_quiescence(1_000_000);
    let s0 = rt.server_mut("s0").unwrap();
    assert_eq!(s0.navigator.seen_evicted, 0, "fresh entries must survive");
    // drive any event far past the 600 s retention window; the sweep
    // runs at the top of the handler
    let ghost = naplet_core::id::NapletId::new("czxu", "home", Millis(999)).unwrap();
    s0.handle(
        Millis(10_000_000),
        Input::Local(LocalEvent::LeaseCheck { id: ghost }),
    );
    assert!(
        s0.navigator.seen_evicted >= 1,
        "stale dedup entries must be evicted and counted"
    );
}

/// Home crash while its agent is away: recovery rebuilds the lease
/// table from journaled creation records, and the journey still
/// completes with the lease released normally.
#[test]
fn home_crash_rebuilds_lease_table() {
    let mut rt = world(1, Some(LeasePolicy::default()), 3);
    rt.launch(agent(&["s0", "home"], 1)).unwrap();
    // the agent is resident at s0 (admitted t=9); crash home under it
    rt.run_until(Millis(10));
    rt.crash_server("home", Some(20));
    rt.run_to_quiescence(1_000_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1, "journey must complete");
    assert_eq!(visits(&reports[0].1), ["s0", "home"]);
    let home = rt.server("home").unwrap();
    let stats = home.recovery_stats();
    assert_eq!(stats.leases_expired, 0, "a live agent must keep its lease");
    assert_eq!(stats.agents_lost, 0);
    assert_eq!(
        home.leases.held(),
        0,
        "completion must release the rebuilt lease"
    );
}

/// Every server greets an arriving agent by bumping its public
/// `greeted` counter through the mode-checked view (paper §2.1).
fn greet(rt: &mut SimRuntime, host: &str) {
    rt.server_mut(host).unwrap().set_arrival_state_hook(|view| {
        if let Ok(Value::Int(n)) = view.get("greeted") {
            view.set("greeted", n + 1).unwrap();
        }
    });
}

fn greeted_world() -> (SimRuntime, Naplet) {
    let mut rt = world(2, None, 3);
    for host in ["home", "s0", "s1"] {
        greet(&mut rt, host);
    }
    let mut naplet = agent(&["s0", "s1", "home"], 1);
    naplet.state.set_public("greeted", 0);
    (rt, naplet)
}

/// With an arrival hook installed, crash whichever worker the next
/// event targets, before every event index of a 3-hop journey: the
/// admission record holds the agent as received and recovery opens the
/// visit again, so each run still completes exactly once, stops at the
/// same hosts once each, and ends in the uncrashed run's state.
#[test]
fn a_crash_at_any_event_leaves_arrival_hooks_applied_once_per_visit() {
    // (final state as reported home, route with one entry per arrival)
    let run = |crash_at: Option<u64>| -> Option<(Value, Vec<String>, u64)> {
        let (mut rt, naplet) = greeted_world();
        rt.launch(naplet).unwrap();
        let mut steps = 0;
        if let Some(k) = crash_at {
            while steps < k && rt.step().is_some() {
                steps += 1;
            }
            match rt.peek_target() {
                Some(host) if host != "home" => {
                    rt.crash_server(&host, Some(40));
                    greet(&mut rt, &host); // the restarted process installs its hook again
                }
                _ => return None,
            }
        }
        while rt.step().is_some() {
            steps += 1;
        }
        let reports = rt.drain_reports("home");
        assert_eq!(reports.len(), 1, "crash before event {crash_at:?}");
        let completed = &rt.server("home").unwrap().completed;
        assert_eq!(completed.len(), 1, "crash before event {crash_at:?}");
        let route = completed[0].1.route();
        let route = route.into_iter().map(str::to_string).collect();
        Some((reports[0].1.clone(), route, steps))
    };
    let (state, route, events) = run(None).unwrap();
    assert_eq!(visits(&state), ["s0", "s1", "home"]);
    assert_eq!(route, ["s0", "s1", "home"]);
    assert_eq!(state.get("greeted"), Value::Int(3));
    let mut crashed = 0;
    for k in 0..events {
        let Some((crashed_state, crashed_route, _)) = run(Some(k)) else {
            continue; // the next event targeted home, the observer
        };
        crashed += 1;
        assert_eq!(crashed_state, state, "crash before event {k}");
        assert_eq!(crashed_route, route, "crash before event {k}");
    }
    assert!(crashed >= 10, "only {crashed} indices crashed a worker");
}

/// A host recovered from an admission record holds the agent it
/// received, with the arrival stamped at the admission's time (not the
/// recovery's) and the arrival hook applied once.
#[test]
fn recovery_from_an_admission_record_reopens_the_visit_as_admitted() {
    let (mut rt, naplet) = greeted_world();
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    // s0 admits at t=9 and waits for home's DirAck
    while rt.server("s0").unwrap().monitor.get(&id).is_none() {
        rt.step().expect("the agent reaches s0");
    }
    let s0 = rt.server("s0").unwrap();
    let admitted = s0.monitor.get(&id).unwrap().naplet.clone();
    let records = s0.journal().naplet_records();
    let [(_, record)] = &records[..] else {
        panic!("one admission record, got {records:?}");
    };
    let admitted_at = record.updated;
    let received = record.decode_naplet().unwrap();
    assert_eq!(received.nav_log.hops(), 0, "journaled as received");
    assert_eq!(received.state.get("greeted"), Value::Int(0));

    rt.crash_server("s0", Some(40));
    greet(&mut rt, "s0");
    while rt.server("s0").unwrap().recovery_stats().rehydrated == 0 {
        rt.step().expect("s0 restarts");
    }
    assert!(rt.now() > admitted_at, "recovered later than admitted");
    let recovered = &rt.server("s0").unwrap().monitor.get(&id).unwrap().naplet;
    let mut expected = received;
    expected.nav_log.record_arrival("s0", admitted_at);
    expected.state.set_public("greeted", 1);
    assert_eq!(recovered, &expected);
    assert_eq!(recovered, &admitted, "as the admission left it");

    rt.run_to_quiescence(1_000_000);
    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1, "journey must complete");
    assert_eq!(visits(&reports[0].1), ["s0", "s1", "home"]);
    assert_eq!(reports[0].1.get("greeted"), Value::Int(3));
}

/// A handoff resumed after a crash re-sends and re-journals the bytes
/// its record holds — copied, never produced again by walking the
/// agent. The record here is an image no encoder emits (its first
/// length is a padded varint) yet decodes to the same agent, so a
/// re-encoding anywhere on the way would show.
#[test]
fn a_recovered_handoff_resends_and_rejournals_the_journaled_image_itself() {
    {
        let mut cfg = ServerConfig::open("home", LocationMode::HomeManagers);
        cfg.codebase = registry();
        let mut origin = NapletServer::new(cfg.clone());
        let naplet = agent(&["s0"], 1);
        let id = naplet.id().clone();
        origin.launch(naplet, Millis(0));
        // crash: only the journal survives, with the record swapped
        // for its padded twin
        let mut journal = origin.take_journal();
        let (_, record) = journal.naplet_records().remove(0);
        assert!(matches!(record.phase, JournalPhase::InFlight { .. }));
        let mut image = vec![record.naplet[0] | 0x80, 0x00];
        image.extend_from_slice(&record.naplet[1..]);
        let twin: Naplet = naplet_core::codec::from_bytes(&image).unwrap();
        assert_eq!(twin, record.decode_naplet().unwrap());
        assert_ne!(twin.to_wire().unwrap(), image, "no encoder pads a length");
        journal
            .record_naplet_bytes(&id, &image, &record.phase, record.updated)
            .unwrap();

        let mut recovered = NapletServer::new(cfg);
        recovered.set_journal(journal);
        let sends = |outputs: Vec<Output>| -> Vec<Wire> {
            let wires = outputs.into_iter().filter_map(|o| match o {
                Output::Send { to, wire } if to == "s0" => Some(wire),
                _ => None,
            });
            wires.collect()
        };
        let timers = recovered.recover(Millis(100));
        let [Output::Schedule { delay_ms: 0, event }] = &timers[..] else {
            panic!("recovery arms one immediate timer, got {timers:?}");
        };
        let resent = sends(recovered.handle(Millis(100), Input::Local(event.clone())));
        let [Wire::Transfer(envelope)] = &resent[..] else {
            panic!("the agent leaves in one Transfer, got {resent:?}");
        };
        assert_eq!(*envelope.naplet.wire_bytes().unwrap(), image);
        let frame = naplet_core::codec::to_bytes(&resent[0]).unwrap();
        assert_eq!(
            &frame[1..1 + image.len()],
            &image[..],
            "the frame splices it"
        );
        // the retransmission journaled again: same bytes
        let (_, rejournaled) = recovered.journal().naplet_records().remove(0);
        assert_eq!(rejournaled.naplet, image);
        assert_ne!(rejournaled.phase, record.phase, "the record did move on");
    }
}
