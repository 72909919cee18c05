//! Reliability-layer tests: acknowledged handoff under faults, parked
//! naplets, `Alt` fallback, message redelivery, special-mailbox
//! drains, confirmation-driven cache refresh and forward-cap cycle
//! breaking.

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::context::NapletContext;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{ActionSpec, Itinerary, Pattern};
use naplet_core::message::{Message, Payload, Sender};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel};
use naplet_obs::TraceKind;
use naplet_server::{
    DirEntry, Input, JournalPhase, LocalEvent, LocationMode, MonitorPolicy, NapletServer,
    NapletStatus, Output, RunState, ServerConfig, SimRuntime, TransferEnvelope, Visit, Wire,
};

const CODEBASE: &str = "naplet://code/collector.jar";

/// How many events traced at `host` `pick` selects.
fn traced(rt: &SimRuntime, host: &str, pick: impl Fn(&TraceKind) -> bool) -> usize {
    let events = rt.obs().tracer.events();
    events
        .iter()
        .filter(|e| e.host == host && pick(&e.kind))
        .count()
}

/// A `DirRegister` sent again, from attempt 2 on.
fn register_retry(kind: &TraceKind) -> bool {
    matches!(kind, TraceKind::WireSend { label, attempt, .. } if label == "DirRegister" && *attempt > 1)
}

/// Records visits and drains the mailbox into state, like the e2e
/// Collector.
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
        let mut inbox = match ctx.state().get("inbox") {
            Value::List(l) => l,
            _ => Vec::new(),
        };
        while let Some(m) = ctx.get_message()? {
            if let Payload::User(v) = m.payload {
                inbox.push(v);
            }
        }
        ctx.state().set("inbox", Value::List(inbox));
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

fn world(mode: LocationMode, n: usize, seed: u64) -> SimRuntime {
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), seed);
    let mut rt = SimRuntime::new(fabric);
    for host in std::iter::once("home".to_string()).chain((0..n).map(|i| format!("s{i}"))) {
        let mut cfg = ServerConfig::open(&host, mode.clone());
        cfg.codebase = registry();
        cfg.monitor_policy = MonitorPolicy {
            native_dwell_ms: 5,
            ..MonitorPolicy::default()
        };
        rt.add_server(cfg);
    }
    rt
}

fn agent(route: Pattern, ts: u64) -> Naplet {
    let it = Itinerary::new(route)
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

fn report_list(report: &Value, field: &str) -> Vec<Value> {
    match report.get(field) {
        Value::List(l) => l,
        _ => Vec::new(),
    }
}

#[test]
fn early_message_drained_confirmed_and_cache_refreshed() {
    let mut rt = world(LocationMode::HomeManagers, 1, 3);
    let naplet = agent(Pattern::seq_of_hosts(&["s0"], None), 1);
    let id = naplet.id().clone();

    // posted before launch: no directory entry yet, so the message
    // waits in home's special mailbox, then chases the departure
    rt.owner_post("home", id.clone(), Payload::User(Value::Int(7)))
        .unwrap();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(1_000_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    let inbox = report_list(&reports[0].1, "inbox");
    assert_eq!(
        inbox,
        vec![Value::Int(7)],
        "late arrival must drain the stash"
    );

    // the drain confirmed delivery back to the origin…
    let home = rt.server("home").unwrap();
    let c = home
        .messenger
        .confirmation(&Sender::Owner("home".into()), 1)
        .expect("delivery must be confirmed to the origin");
    assert_eq!(c.delivered_at, "s0");
    assert_eq!(
        home.messenger.outstanding_count(),
        0,
        "no redelivery left armed"
    );
    // …and the confirmation refreshed the origin's location cache
    let loc = rt
        .server_mut("home")
        .unwrap()
        .locator
        .get(&id)
        .expect("confirmation must refresh the location cache");
    assert_eq!(loc.host, "s0");
}

#[test]
fn redelivery_gives_up_after_max_retries() {
    let mut rt = world(LocationMode::HomeManagers, 1, 4);
    // target never launched anywhere: every delivery attempt strands
    let ghost = NapletId::new("czxu", "home", Millis(99)).unwrap();
    rt.owner_post("home", ghost, Payload::User(Value::Int(1)))
        .unwrap();
    rt.run_to_quiescence(1_000_000);
    assert_eq!(rt.obs().metrics.counter("post.given_up"), 1);
    let home = rt.server("home").unwrap();
    assert_eq!(
        home.messenger.redeliveries, 5,
        "attempts 2..=6 are redeliveries"
    );
    assert_eq!(home.messenger.outstanding_count(), 0);
}

#[test]
fn a_redelivered_early_message_waits_once_and_leaves_once() {
    let mut rt = world(LocationMode::HomeManagers, 1, 4);
    let naplet = agent(Pattern::seq_of_hosts(&["s0"], None), 1);
    // posted before launch: every attempt finds no directory entry and
    // waits in home's special mailbox — as the one copy it is
    rt.owner_post("home", naplet.id().clone(), Payload::User(Value::Int(7)))
        .unwrap();
    rt.run_to_quiescence(1_000_000);
    let now = rt.now();
    let home = rt.server_mut("home").unwrap();
    assert_eq!(home.messenger.redeliveries, 5, "the budget is spent");
    assert_eq!(home.messenger.early_waiting(), 1);
    assert_eq!(home.status_report(now).special_mailbox_depth, 1);
    let gauges = home.obs().metrics.snapshot().gauges;
    assert_eq!(gauges.get("special_mailbox_depth"), Some(&1));

    // the naplet leaves for s0: the message follows it exactly once,
    // right behind its Transfer, and s0's ack sends nothing more
    let id = naplet.id().clone();
    let departure = home.launch(naplet, now);
    let posts = |out: &[Output]| {
        let to_s0 =
            |o: &&Output| matches!(o, Output::Send { to, wire: Wire::Post { .. } } if to == "s0");
        out.iter().filter(to_s0).count()
    };
    assert_eq!(posts(&departure), 1);
    assert_eq!(home.messenger.early_waiting(), 0);
    let transfer_id = departure
        .iter()
        .find_map(|o| match o {
            Output::Send {
                wire: Wire::Transfer(envelope),
                ..
            } => Some(envelope.transfer_id),
            _ => None,
        })
        .expect("home sends the naplet to s0");
    let refused = None;
    let wire = Wire::TransferAck {
        transfer_id,
        id,
        refused,
    };
    let from = "s0".to_string();
    let admitted = home.handle(now, Input::Wire { from, wire });
    assert_eq!(posts(&admitted), 0);
}

#[test]
fn a_lost_directory_answer_strands_no_query_and_a_late_one_posts_nothing() {
    let mut rt = world(LocationMode::CentralDirectory("s0".into()), 1, 4);
    // the directory host is down: every `DirQuery` is lost
    rt.crash_server("s0", None);
    let ghost = NapletId::new("czxu", "home", Millis(99)).unwrap();
    rt.owner_post("home", ghost.clone(), Payload::User(Value::Int(1)))
        .unwrap();
    rt.run_to_quiescence(1_000_000);
    assert_eq!(rt.obs().metrics.counter("post.given_up"), 1);
    let now = rt.now();
    let home = rt.server_mut("home").unwrap();
    assert_eq!(home.messenger.redeliveries, 5, "re-routed five times");
    assert_eq!(home.locator.asking(), 0, "each re-route replaces its query");
    // the directory comes back and answers every query it was ever
    // sent: the message was given up, none of them may post it now
    for token in 1..=8 {
        let stale = Wire::DirReply {
            token,
            id: ghost.clone(),
            entry: Some(DirEntry {
                host: "s0".to_string(),
                at: now,
            }),
        };
        let from = "s0".to_string();
        let out = home.handle(now, Input::Wire { from, wire: stale });
        assert!(out.is_empty(), "stale answer {token} enacted {out:?}");
    }
}

/// A copy stashed at a home for a naplet that never comes — its poster
/// gave up — lapses with the retention window instead of waiting in the
/// special mailbox for the life of the server.
#[test]
fn a_stashed_copy_nobody_collects_lapses() {
    let mut rt = world(LocationMode::HomeManagers, 1, 4);
    let ghost = NapletId::new("czxu", "home", Millis(99)).unwrap();
    rt.owner_post("home", ghost, Payload::User(Value::Int(1)))
        .unwrap();
    rt.run_to_quiescence(1_000_000);
    assert_eq!(rt.obs().metrics.counter("post.given_up"), 1);
    let now = rt.now();
    let home = rt.server_mut("home").unwrap();
    assert_eq!(home.status_report(now).special_mailbox_depth, 1);
    // a retention window and a sweep interval later, any event sweeps
    let later = Millis(now.0 + 600_000 + 150_000);
    let tick = Input::Local(LocalEvent::ReplTick);
    assert!(home.handle(later, tick).is_empty());
    assert_eq!(home.status_report(later).special_mailbox_depth, 0);
    assert_eq!(home.messenger.early_waiting(), 0);
}

#[test]
fn permanent_outage_parks_with_failure_record_and_status() {
    let mut rt = world(LocationMode::HomeManagers, 2, 5);
    rt.fabric().schedule_down("s1", 0, u64::MAX);
    rt.enable_tracing();
    let naplet = agent(Pattern::seq_of_hosts(&["s0", "s1"], None), 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(5_000_000);

    let s0 = rt.server("s0").unwrap();
    let parked = s0.navigator.parked.get(&id);
    let parked = parked.expect("naplet must be parked at s0");
    let failures = parked.nav_log.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].host, "s1");
    assert!(failures[0].attempts >= 2, "retries precede parking");
    assert!(
        traced(&rt, "s0", |k| k.name() == "handoff.retransmit") >= 1,
        "retransmissions must be traced"
    );
    let home = rt.server("home").unwrap();
    let entry = home.manager.table_entry(&id).unwrap();
    assert_eq!(entry.status, NapletStatus::Parked);
    assert!(rt.fabric().stats().snapshot().retransmits >= 1);
}

#[test]
fn alt_falls_back_to_reachable_branch() {
    let mut rt = world(LocationMode::HomeManagers, 2, 6);
    rt.fabric().schedule_down("s0", 0, u64::MAX);
    rt.enable_tracing();
    let naplet = agent(
        Pattern::alt(Pattern::singleton("s0"), Pattern::singleton("s1")),
        1,
    );
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(5_000_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1, "journey must still complete");
    let visits = report_list(&reports[0].1, "visits");
    assert_eq!(visits, vec![Value::Str("s1".into())], "Alt must fall back");
    let home = rt.server("home").unwrap();
    assert_eq!(
        home.manager.table_entry(&id).unwrap().status,
        NapletStatus::Completed
    );
    assert!(
        traced(&rt, "home", |k| k.name() == "handoff.failed") >= 1,
        "the failed branch must be visible in the trace"
    );
}

#[test]
fn duplicate_transfer_is_reacked_but_not_readmitted() {
    let mut cfg = ServerConfig::open("b", LocationMode::ForwardingTrace);
    cfg.codebase = registry();
    let mut server = NapletServer::new(cfg);
    server.obs().enable_tracing();
    let naplet = agent(Pattern::singleton("b"), 1);
    let envelope = TransferEnvelope {
        naplet: naplet.into(),
        action: None,
        transfer_id: 7,
        attempt: 1,
        floor_gap: 0,
    };

    let acks = |outputs: &[Output]| {
        outputs
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Output::Send {
                        wire: Wire::TransferAck { transfer_id: 7, .. },
                        ..
                    }
                )
            })
            .count()
    };
    let first = server.handle(
        Millis(10),
        Input::Wire {
            from: "a".into(),
            wire: Wire::Transfer(envelope.clone()),
        },
    );
    assert_eq!(acks(&first), 1);
    // the ack was lost: origin retransmits the same transfer
    let mut retry = envelope;
    retry.attempt = 2;
    let second = server.handle(
        Millis(300),
        Input::Wire {
            from: "a".into(),
            wire: Wire::Transfer(retry),
        },
    );
    assert_eq!(acks(&second), 1, "every attempt is re-acknowledged");
    let events = server.obs().tracer.events();
    // only an admission journals the agent as resident
    let admissions = (events.iter())
        .filter(
            |e| matches!(&e.kind, TraceKind::JournalAppend { phase, .. } if phase == "resident"),
        )
        .count();
    assert_eq!(admissions, 1, "idempotent: admitted exactly once");
    let received: Vec<bool> = (events.iter())
        .filter_map(|e| match e.kind {
            TraceKind::TransferReceived { duplicate, .. } => Some(duplicate),
            _ => None,
        })
        .collect();
    assert_eq!(received, [false, true], "the retransmission is a duplicate");
}

/// An answer commits or refuses only the handoff it answers. A
/// `TransferAck` that comes from a host that is not the destination or
/// names another naplet — admitting or refusing — is counted as stray
/// and releases nothing: custody and the journal record survive it, and
/// the journey completes as if it had never been sent.
#[test]
fn a_stray_answer_releases_no_custody() {
    let other = NapletId::new("czxu", "home", Millis(77)).unwrap();
    type Stray = fn(u64, NapletId, NapletId) -> Wire;
    let ack_of_mine: Stray = |transfer_id, id, _| Wire::TransferAck {
        transfer_id,
        id,
        refused: None,
    };
    let ack_of_other: Stray = |transfer_id, _, id| Wire::TransferAck {
        transfer_id,
        id,
        refused: None,
    };
    let refusal: Stray = |transfer_id, id, _| Wire::TransferAck {
        transfer_id,
        id,
        refused: Some("not yours to refuse".into()),
    };
    // (what, who sends it, the frame)
    let cases = [
        ("an ack from another host", "s1", ack_of_mine),
        ("an ack naming another naplet", "s0", ack_of_other),
        ("a refusal from another host", "s1", refusal),
    ];
    for (what, sender, stray) in cases {
        let mut rt = world(LocationMode::HomeManagers, 2, 8);
        let naplet = agent(Pattern::seq_of_hosts(&["s0"], None), 1);
        let id = naplet.id().clone();
        rt.launch(naplet).unwrap();
        // home's in-flight record names its handoff
        let in_phase = |rt: &SimRuntime| {
            let records = rt.server("home").unwrap().journal().naplet_records();
            records.iter().find_map(|(_, record)| match record.phase {
                JournalPhase::InFlight { transfer_id, .. } => Some(transfer_id),
                _ => None,
            })
        };
        let transfer_id = loop {
            if let Some(transfer_id) = in_phase(&rt) {
                break transfer_id;
            }
            rt.step().expect(what);
        };
        let wire = stray(transfer_id, id.clone(), other.clone());
        rt.station_send(sender, "home", wire).unwrap();
        // one hop away, so it lands before the real answer can
        let stray = |rt: &SimRuntime| rt.obs().metrics.counter("handoff.stray_acks") > 0;
        while !stray(&rt) && rt.step().is_some() {}
        let home = rt.server("home").unwrap();
        assert_eq!(home.navigator.pending_count(), 1, "{what}");
        assert_eq!(
            in_phase(&rt),
            Some(transfer_id),
            "{what}: the record survives"
        );

        rt.run_to_quiescence(1_000_000);
        let reports = rt.drain_reports("home");
        assert_eq!(reports.len(), 1, "{what}: the journey still completes");
        let visits = report_list(&reports[0].1, "visits");
        assert_eq!(visits, vec![Value::Str("s0".into())], "{what}");
        let home = rt.server("home").unwrap();
        assert_eq!(home.navigator.pending_count(), 0, "{what}");
        assert!(home.journal().naplet_records().is_empty(), "{what}");
    }
}

#[test]
fn forward_cap_breaks_chase_cycles() {
    // two servers with opposing stale footprints ping-pong a message
    // until the hop cap drops it
    let build = |host: &str| {
        let cfg = ServerConfig::open(host, LocationMode::ForwardingTrace);
        let mut s = NapletServer::new(cfg);
        s.messenger.forward_cap = 4;
        s
    };
    let mut a = build("a");
    let mut b = build("b");
    let id = NapletId::new("czxu", "home", Millis(50)).unwrap();
    a.manager.record_launch(id.clone(), "a", Millis(0));
    a.manager.record_arrival(&id);
    a.manager.record_departure(&id, "b");
    b.manager.record_launch(id.clone(), "b", Millis(0));
    b.manager.record_arrival(&id);
    b.manager.record_departure(&id, "a");

    let msg = Message::user(
        1,
        Sender::Owner("home".into()),
        id,
        Millis(3),
        Value::Int(1),
    );
    let mut inputs = vec![(
        "a".to_string(),
        Wire::Post {
            msg,
            origin_host: "home".into(),
        },
    )];
    let mut hops = 0usize;
    while let Some((to, wire)) = inputs.pop() {
        hops += 1;
        assert!(hops < 50, "cycle must terminate");
        let server = if to == "a" { &mut a } else { &mut b };
        let outputs = server.handle(
            Millis(10 + hops as u64),
            Input::Wire {
                from: if to == "a" { "b".into() } else { "a".into() },
                wire,
            },
        );
        for o in outputs {
            if let Output::Send {
                to,
                wire: wire @ Wire::Post { .. },
            } = o
            {
                inputs.push((to, wire));
            }
        }
    }
    let dropped = |s: &NapletServer| s.obs().metrics.counter("post.undeliverable");
    assert_eq!(
        dropped(&a) + dropped(&b),
        1,
        "the cap must drop the cycling message exactly once"
    );
    assert!(a.messenger.forwards_performed + b.messenger.forwards_performed <= 4);
}

/// Each stop reports to the home on its own connection, so the last
/// stop's completion notice can overtake an earlier stop's
/// registration. The late registration must not reopen the row.
#[test]
fn movement_registration_after_the_completion_notice_keeps_completed() {
    let mut cfg = ServerConfig::open("home", LocationMode::HomeManagers);
    cfg.codebase = registry();
    let mut home = NapletServer::new(cfg);
    let naplet = agent(Pattern::seq_of_hosts(&["s0", "s1"], None), 1);
    let id = naplet.id().clone();
    home.launch(naplet, Millis(0));
    let status = |home: &NapletServer| home.manager.table_entry(&id).unwrap().status;

    let register = |host: &str| Wire::DirRegister {
        id: id.clone(),
        host: host.into(),
        visit: None,
        attempt: 1,
    };
    let deliver = |home: &mut NapletServer, at, from: &str, wire| {
        home.handle(
            Millis(at),
            Input::Wire {
                from: from.into(),
                wire,
            },
        );
    };
    deliver(&mut home, 10, "s0", register("s0"));
    assert_eq!(status(&home), NapletStatus::Running);
    let notice = Wire::Notify {
        id: id.clone(),
        status: NapletStatus::Completed,
        host: "s1".into(),
    };
    deliver(&mut home, 30, "s1", notice);
    assert_eq!(status(&home), NapletStatus::Completed);
    // s0's registration, sent before the journey finished, lands last
    deliver(&mut home, 31, "s0", register("s0"));
    assert_eq!(status(&home), NapletStatus::Completed);
    assert_eq!(home.manager.table_entry(&id).unwrap().last_known, "s1");
}

// ----------------- the arrival gate of a hop -----------------
//
// The origin registers a visit as its Transfer leaves; the holder acks
// it to the destination, naming the visit. These tests hold the
// directory at a station, so each registration and each ack is
// answered, held back or dropped by hand.

/// `home`, `s0`, `s1` over a directory held at the station `dir`.
fn gated_world() -> SimRuntime {
    let mut rt = world(LocationMode::CentralDirectory("dir".into()), 2, 9);
    rt.add_station("dir");
    rt
}

/// Every acked registration the station `dir` has received so far:
/// who sent it, the host it registers, the visit and the attempt.
fn registrations(rt: &mut SimRuntime) -> Vec<(String, String, Visit, u32)> {
    let frames = rt.station_drain("dir").into_iter();
    let acked = frames.filter_map(|(from, wire)| match wire {
        Wire::DirRegister {
            host,
            visit: Some(visit),
            attempt,
            ..
        } => Some((from, host, visit, attempt)),
        _ => None,
    });
    acked.collect()
}

/// The station acks `visit` of `id` to `host`.
fn ack(rt: &mut SimRuntime, id: &NapletId, host: &str, visit: Visit) {
    let wire = Wire::DirAck {
        id: id.clone(),
        visit,
    };
    rt.station_send("dir", host, wire).unwrap();
}

/// Whether `id` waits at `host` for the ack of a visit from `origin`.
fn waits(rt: &SimRuntime, host: &str, id: &NapletId, origin: &str) -> bool {
    let entry = rt.server(host).unwrap().monitor.get(id);
    matches!(entry.map(|e| &e.state), Some(RunState::AwaitingArrivalAck(v)) if v.origin == origin)
}

/// A late second ack of a visit — the answer to a retried
/// registration — reaches its host while a later visit of the same
/// naplet waits there. It names the visit it answers, so it opens
/// nothing: the later visit runs only on its own ack. (Before the ack
/// named its visit, any ack for the naplet opened whatever visit of it
/// was waiting.)
#[test]
fn a_stale_dir_ack_does_not_open_a_later_visit() {
    let mut rt = gated_world();
    let naplet = agent(Pattern::seq_of_hosts(&["s0", "s1", "s0"], None), 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    let mut stale = None;
    // answer every registration at once, keeping a second copy of the
    // first visit's ack, until the second visit of s0 waits
    while !waits(&rt, "s0", &id, "s1") {
        for (_, host, visit, _) in registrations(&mut rt) {
            if host == "s0" && visit.origin == "s1" {
                continue; // the visit under test: not yet
            }
            stale.get_or_insert((host.clone(), visit.clone()));
            ack(&mut rt, &id, &host, visit);
        }
        rt.step().expect("the agent comes back to s0");
    }
    let (host, visit) = stale.expect("the first visit was acked");
    assert_eq!((host.as_str(), visit.origin.as_str()), ("s0", "home"));
    ack(&mut rt, &id, &host, visit);
    let soon = Millis(rt.now().0 + 20); // well inside the gate's timer
    rt.run_until(soon);
    assert!(
        waits(&rt, "s0", &id, "s1"),
        "the stale ack opened the later visit"
    );
    // its own ack opens it
    let mine = registrations(&mut rt).into_iter();
    let mut mine = mine.filter(|(_, host, visit, _)| host == "s0" && visit.origin == "s1");
    let (_, host, visit, _) = mine.next_back().expect("s1 registered the second visit");
    ack(&mut rt, &id, &host, visit);
    rt.run_until(Millis(rt.now().0 + 20));
    assert!(!waits(&rt, "s0", &id, "s1"));
    while rt.step().is_some() {
        for (_, host, visit, _) in registrations(&mut rt) {
            ack(&mut rt, &id, &host, visit);
        }
    }
    let reports = rt.drain_reports("home");
    let visits = report_list(&reports[0].1, "visits");
    let hosts = ["s0", "s1", "s0"].map(|h| Value::Str(h.into()));
    assert_eq!(visits, hosts, "each visit ran once, in order");
}

/// The ack reaches the destination before the agent: it is held, and
/// the admission opens the visit at once — once, with no timer armed.
/// Without it the admission waits behind a timer.
#[test]
fn an_ack_before_its_transfer_opens_the_visit_on_admission() {
    for early in [true, false] {
        let mut cfg = ServerConfig::open("s0", LocationMode::CentralDirectory("dir".into()));
        cfg.codebase = registry();
        let mut s0 = NapletServer::new(cfg);
        let naplet = agent(Pattern::seq_of_hosts(&["s0"], None), 1);
        let id = naplet.id().clone();
        let visit = Visit {
            origin: "home".into(),
            transfer_id: 7,
        };
        let deliver = |s0: &mut NapletServer, at, from: &str, wire| {
            let from = from.to_string();
            s0.handle(Millis(at), Input::Wire { from, wire })
        };
        let dir_ack = Wire::DirAck {
            id: id.clone(),
            visit: visit.clone(),
        };
        if early {
            let out = deliver(&mut s0, 1, "dir", dir_ack.clone());
            assert!(out.is_empty(), "held, nothing sent: {out:?}");
            assert!(s0.monitor.get(&id).is_none());
        }
        let envelope = TransferEnvelope {
            naplet: naplet.into(),
            action: None,
            transfer_id: 7,
            attempt: 1,
            floor_gap: 0,
        };
        let out = deliver(&mut s0, 2, "home", Wire::Transfer(envelope));
        let timers = out.iter().filter(|o| {
            matches!(
                o,
                Output::Schedule {
                    event: LocalEvent::RegisterTimeout { .. },
                    ..
                }
            )
        });
        let sent_register = out.iter().any(|o| {
            matches!(
                o,
                Output::Send {
                    wire: Wire::DirRegister { .. },
                    ..
                }
            )
        });
        assert!(!sent_register, "the origin registered the visit");
        let gated = matches!(
            s0.monitor.get(&id).map(|e| &e.state),
            Some(RunState::AwaitingArrivalAck(_))
        );
        assert_eq!(timers.count(), usize::from(!early), "early: {early}");
        assert_eq!(gated, !early, "early: {early}");
        // a second copy of the ack opens nothing more and is not held
        let again = deliver(&mut s0, 3, "dir", dir_ack);
        let opened = again.iter().any(|o| matches!(o, Output::FetchCode { .. }));
        assert_eq!(opened, !early, "early: {early}");
    }
}

/// The origin's registration is lost: the destination's gate times out
/// and it registers the visit itself, as attempt 2, and runs on that.
#[test]
fn a_lost_first_registration_falls_back_to_the_destination() {
    let mut rt = gated_world();
    rt.enable_tracing();
    let naplet = agent(Pattern::seq_of_hosts(&["s0"], None), 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    let mut seen = Vec::new();
    while rt.step().is_some() {
        for (from, host, visit, attempt) in registrations(&mut rt) {
            if attempt > 1 {
                ack(&mut rt, &id, &host, visit.clone());
            }
            seen.push((from, host, visit.origin, attempt));
        }
    }
    let expect = |from: &str, attempt| (from.into(), "s0".into(), "home".into(), attempt);
    assert_eq!(seen, [expect("home", 1), expect("s0", 2)]);
    assert_eq!(rt.drain_reports("home").len(), 1, "the journey completes");
    assert!(traced(&rt, "s0", register_retry) >= 1);
}

/// A refused landing rolls the departure back: the origin, which
/// registered the destination as the Transfer left, points the
/// directory back at itself before the journey moves on.
#[test]
fn a_refused_landing_points_the_directory_back_at_the_origin() {
    let mut cfg = ServerConfig::open("home", LocationMode::CentralDirectory("dir".into()));
    cfg.codebase = registry();
    let mut home = NapletServer::new(cfg);
    let naplet = agent(Pattern::seq_of_hosts(&["s0", "s1"], None), 1);
    let id = naplet.id().clone();
    let registered = |out: &[Output]| {
        let registrations = out.iter().filter_map(|o| match o {
            Output::Send {
                to,
                wire: Wire::DirRegister { host, visit, .. },
            } if to == "dir" => Some((host.clone(), visit.as_ref().map(|v| v.origin.clone()))),
            _ => None,
        });
        registrations.collect::<Vec<_>>()
    };
    let launched = home.launch(naplet, Millis(0));
    assert_eq!(registered(&launched), [("s0".into(), Some("home".into()))]);
    let transfer_id = launched
        .iter()
        .find_map(|o| match o {
            Output::Send {
                wire: Wire::Transfer(envelope),
                ..
            } => Some(envelope.transfer_id),
            _ => None,
        })
        .unwrap();
    let refusal = Wire::TransferAck {
        transfer_id,
        id,
        refused: Some("server full".into()),
    };
    let from = "s0".to_string();
    let refused = home.handle(
        Millis(6),
        Input::Wire {
            from,
            wire: refusal,
        },
    );
    // back here first, then the next hop's arrival at s1
    let back_then_on = [("home".into(), None), ("s1".into(), Some("home".into()))];
    assert_eq!(registered(&refused), back_then_on);
}
