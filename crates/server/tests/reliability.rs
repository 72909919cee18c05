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
use naplet_server::{
    DirEvent, Input, JournalPhase, LocalEvent, LocationMode, MonitorPolicy, NapletServer,
    NapletStatus, Output, ServerConfig, SimRuntime, TransferEnvelope, Wire,
};

const CODEBASE: &str = "naplet://code/collector.jar";

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
    let home = rt.server("home").unwrap();
    assert_eq!(
        home.messenger.redeliveries, 5,
        "attempts 2..=6 are redeliveries"
    );
    assert_eq!(home.messenger.redelivery_given_up, 1);
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

    // the naplet leaves for s0: once s0 admits it, the message follows
    // it exactly once
    let id = naplet.id().clone();
    let departure = home.launch(naplet, now);
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
    assert_eq!(home.messenger.early_waiting(), 1, "held until admitted");
    let refused = None;
    let wire = Wire::TransferAck {
        transfer_id,
        id,
        refused,
    };
    let from = "s0".to_string();
    let admitted = home.handle(now, Input::Wire { from, wire });
    let posts = admitted
        .iter()
        .filter(|o| matches!(o, Output::Send { to, wire: Wire::Post { .. } } if to == "s0"));
    assert_eq!(posts.count(), 1);
    assert_eq!(home.messenger.early_waiting(), 0);
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
    let now = rt.now();
    let home = rt.server_mut("home").unwrap();
    assert_eq!(home.messenger.redeliveries, 5, "re-routed five times");
    assert_eq!(home.messenger.redelivery_given_up, 1);
    assert_eq!(home.locator.asking(), 0, "each re-route replaces its query");
    // the directory comes back and answers every query it was ever
    // sent: the message was given up, none of them may post it now
    for token in 1..=8 {
        let stale = Wire::DirReply {
            token,
            id: ghost.clone(),
            entry: Some(("s0".to_string(), DirEvent::Arrival, now)),
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
    let now = rt.now();
    let home = rt.server_mut("home").unwrap();
    assert_eq!(home.messenger.redelivery_given_up, 1);
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
        s0.log().iter().any(|e| e.line.starts_with("RETRY")),
        "retransmissions must be logged"
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
        home.log()
            .iter()
            .any(|e| e.line.starts_with("HANDOFF failed")),
        "the failed branch must be visible in the log"
    );
}

#[test]
fn duplicate_transfer_is_reacked_but_not_readmitted() {
    let mut cfg = ServerConfig::open("b", LocationMode::ForwardingTrace);
    cfg.codebase = registry();
    let mut server = NapletServer::new(cfg);
    let naplet = agent(Pattern::singleton("b"), 1);
    let id = naplet.id().clone();
    let envelope = TransferEnvelope {
        naplet: naplet.into(),
        action: None,
        transfer_id: 7,
        attempt: 1,
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
    let arrivals = server
        .log()
        .iter()
        .filter(|e| e.line == format!("ARRIVAL {id}"))
        .count();
    assert_eq!(arrivals, 1, "idempotent: admitted exactly once");
    assert!(server
        .log()
        .iter()
        .any(|e| e.line.contains("duplicate TRANSFER")));
}

/// An answer commits or refuses only the handoff it answers. A
/// `TransferAck` that comes from a host that is not the destination or
/// names another naplet — admitting or refusing — is logged as stray
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
        let logged = |rt: &SimRuntime| {
            let mut log = rt.server("home").unwrap().log().iter();
            log.any(|e| e.line.starts_with("stray "))
        };
        while !logged(&rt) && rt.step().is_some() {}
        let home = rt.server("home").unwrap();
        assert_eq!(home.pending_transfer_count(), 1, "{what}");
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
        assert_eq!(home.pending_transfer_count(), 0, "{what}");
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
    a.manager.record_arrival(&id, None, Millis(0));
    a.manager.record_departure(&id, "b", Millis(1));
    b.manager.record_launch(id.clone(), "b", Millis(0));
    b.manager.record_arrival(&id, None, Millis(0));
    b.manager.record_departure(&id, "a", Millis(2));

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
    assert_eq!(
        a.messenger.undeliverable + b.messenger.undeliverable,
        1,
        "the cap must drop the cycling message exactly once"
    );
    assert!(a.messenger.forwards_performed + b.messenger.forwards_performed <= 4);
}

/// Each stop reports to the home on its own connection, so the last
/// stop's completion notice can overtake an earlier stop's departure
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

    let register = |event, host: &str| Wire::DirRegister {
        id: id.clone(),
        host: host.into(),
        event,
        ack_to: None,
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
    deliver(&mut home, 10, "s0", register(DirEvent::Arrival, "s0"));
    assert_eq!(status(&home), NapletStatus::Running);
    let notice = Wire::Notify {
        id: id.clone(),
        status: NapletStatus::Completed,
        host: "s1".into(),
        detail: String::new(),
    };
    deliver(&mut home, 30, "s1", notice);
    assert_eq!(status(&home), NapletStatus::Completed);
    // s0's departure, sent before the journey finished, lands last
    deliver(&mut home, 31, "s0", register(DirEvent::Departure, "s0"));
    assert_eq!(status(&home), NapletStatus::Completed);
    assert_eq!(home.manager.table_entry(&id).unwrap().last_known, "s1");
}
