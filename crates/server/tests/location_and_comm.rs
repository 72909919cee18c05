//! Location-mode and communication scenarios beyond the basic
//! end-to-end suite: a directory host separate from the home, the
//! location cache, the paper's directory invariant, Alt itineraries
//! and the DataComm collective.

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::context::NapletContext;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::itinerary::{ActionSpec, Guard, Itinerary, Pattern, Visit};
use naplet_core::message::Payload;
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel};
use naplet_obs::TraceKind;
use naplet_server::{LocationMode, MonitorPolicy, ServerConfig, SimRuntime};

const CODEBASE: &str = "probe";

struct Probe;
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
                inbox.push(v);
            }
        }
        ctx.state().set("inbox", Value::List(inbox));
        Ok(())
    }
}

fn registry() -> CodebaseRegistry {
    let mut r = CodebaseRegistry::new();
    r.register(CODEBASE, 2048, || Probe);
    r
}

fn key() -> SigningKey {
    SigningKey::new("czxu", b"s")
}

fn world(mode: LocationMode, hosts: &[&str], dwell: u64) -> SimRuntime {
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), 17);
    let mut rt = SimRuntime::new(fabric);
    for h in hosts {
        let mut cfg = ServerConfig::open(h, mode.clone());
        cfg.codebase = registry().clone();
        cfg.monitor_policy = MonitorPolicy {
            native_dwell_ms: dwell,
            ..MonitorPolicy::default()
        };
        rt.add_server(cfg);
    }
    rt
}

fn probe(route: &[&str], ts: u64) -> Naplet {
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

#[test]
fn dedicated_directory_host_tracks_all_movement() {
    // the directory lives on `dir`, which is neither home nor visited
    let mut rt = world(
        LocationMode::CentralDirectory("dir".into()),
        &["home", "dir", "s0", "s1"],
        5,
    );
    rt.launch(probe(&["s0", "s1"], 1)).unwrap();
    rt.run_to_quiescence(100_000);

    assert_eq!(rt.drain_reports("home").len(), 1);
    let dir = rt.server("dir").unwrap();
    // one registration per hop, sent by its origin as the Transfer
    // leaves: the arrivals at s0 (from home) and at s1 (from s0); no
    // host registers a departure or, unless its gate times out, itself
    assert_eq!(dir.locator.directory().registrations, 2);
    // journey over: the directory forgot the naplet (DirRemove)
    assert_eq!(dir.locator.directory().len(), 0);
}

#[test]
fn directory_entry_names_the_only_host_the_naplet_may_run_at() {
    // the origin registers the arrival as the Transfer leaves: the
    // naplet runs at the entry's host, is leaving it, or is on its way
    // there — resident at no other host (paper §4.1)
    let mut rt = world(
        LocationMode::CentralDirectory("dir".into()),
        &["home", "dir", "s0", "s1"],
        200,
    );
    let naplet = probe(&["s0", "s1"], 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();

    // sample the directory at many instants and check the invariant
    for t in (0..600).step_by(7) {
        rt.run_until(Millis(t));
        let entry = rt
            .server("dir")
            .unwrap()
            .locator
            .directory()
            .lookup(&id)
            .cloned();
        let Some(entry) = entry else { continue };
        let resident_elsewhere = ["home", "s0", "s1"]
            .iter()
            .any(|h| *h != entry.host && rt.server(h).unwrap().monitor.get(&id).is_some());
        assert!(!resident_elsewhere, "t={t}: registered at {}", entry.host);
    }
    rt.run_to_quiescence(100_000);
}

#[test]
fn locator_cache_accelerates_repeat_sends() {
    // two owner messages to a naplet parked on a long dwell: the first
    // resolves via the directory, the second hits the location cache
    let mut rt = world(
        LocationMode::CentralDirectory("dir".into()),
        &["home", "dir", "s0"],
        2_000,
    );
    let naplet = probe(&["s0"], 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    rt.run_until(Millis(100)); // resident and dwelling at s0

    rt.owner_post("home", id.clone(), Payload::User(Value::Int(1)))
        .unwrap();
    rt.run_until(Millis(200));
    let (hits_a, misses_a) = {
        let home = rt.server("home").unwrap();
        (home.locator.hits, home.locator.misses)
    };
    rt.owner_post("home", id, Payload::User(Value::Int(2)))
        .unwrap();
    rt.run_until(Millis(300));
    let home = rt.server("home").unwrap();
    assert_eq!(home.locator.misses, misses_a, "second send must not miss");
    assert_eq!(home.locator.hits, hits_a + 1, "second send hits the cache");

    rt.run_to_quiescence(100_000);
    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    // both messages arrived (read on the only visit? they arrived
    // during the dwell, so they were forwarded and read... the journey
    // has a single visit, so they ride along to the journey end and
    // are dropped with the mailbox — delivery was still confirmed)
    let confirmed = {
        let home = rt.server("home").unwrap();
        home.messenger
            .confirmation(&naplet_core::message::Sender::Owner("home".into()), 1)
            .is_some()
    };
    assert!(confirmed);
}

#[test]
fn forwarded_message_counts_a_stale_cache_hit() {
    // message 1 caches the naplet's location at s0; the agent then
    // migrates to s1, so message 2 is routed on a stale hint and has
    // to chase — which must show up in the locator staleness counters
    let mut rt = world(
        LocationMode::CentralDirectory("dir".into()),
        &["home", "dir", "s0", "s1"],
        200,
    );
    let naplet = probe(&["s0", "s1"], 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    rt.run_until(Millis(100)); // resident and dwelling at s0

    rt.owner_post("home", id.clone(), Payload::User(Value::Int(1)))
        .unwrap();
    rt.run_until(Millis(150)); // delivered; hint "s0" cached at home
    let stale_before = rt.obs().metrics.counter("locator_cache_stale_hits");
    rt.run_until(Millis(350)); // dwell over: the agent moved on to s1

    rt.owner_post("home", id, Payload::User(Value::Int(2)))
        .unwrap();
    rt.run_to_quiescence(100_000);
    let stale_after = rt.obs().metrics.counter("locator_cache_stale_hits");
    assert!(
        stale_after > stale_before,
        "the chased delivery must count a stale cache hit \
         (before {stale_before}, after {stale_after})"
    );
    let home = rt.server("home").unwrap();
    assert!(
        home.messenger
            .confirmation(&naplet_core::message::Sender::Owner("home".into()), 2)
            .is_some(),
        "message 2 still reaches the agent via the chase"
    );
    assert!(
        rt.obs().metrics.counter("locator_cache_hits") >= 1,
        "message 2's first hop was served from the (stale) cache"
    );
}

#[test]
fn alt_itinerary_picks_reachable_alternative_end_to_end() {
    let mut rt = world(
        LocationMode::ForwardingTrace,
        &["home", "mirror", "origin"],
        5,
    );
    // the guard consults carried state: mirror is marked down
    let p = Pattern::alt(
        Pattern::visit(Visit::to("mirror").when(Guard::state_truthy("mirror-up"))),
        Pattern::singleton("origin"),
    );
    let it = Itinerary::new(p)
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let mut naplet = Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(1),
        CODEBASE,
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();
    naplet.state.set("mirror-up", false);
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);
    let reports = rt.drain_reports("home");
    let visits = reports[0].1.get("visits");
    assert_eq!(visits.as_list().unwrap(), &[Value::from("origin")]);
}

#[test]
fn datacomm_collective_exchanges_state_between_clones() {
    // par of two branches with a DataComm action after each branch:
    // each executor posts its `datacomm` payload to every known peer
    let mut rt = world(
        LocationMode::CentralDirectory("home".into()),
        &["home", "s0", "s1"],
        50,
    );
    let p = Pattern::par_with_action(
        vec![Pattern::singleton("s0"), Pattern::singleton("s1")],
        ActionSpec::DataComm,
    );
    let it = Itinerary::new(p)
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let mut naplet = Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(1),
        CODEBASE,
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();
    naplet.state.set("datacomm", "findings-from-me");
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);

    // the originator ran DataComm and ReportHome; the clone ran DataComm
    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    // at least one message travelled between the agents
    let snap = rt.fabric().stats().snapshot();
    assert!(
        snap.messages(naplet_net::TrafficClass::Message) >= 1,
        "datacomm should post peer messages"
    );
}

#[test]
fn revisiting_itinerary_keeps_footprint_history() {
    let mut rt = world(LocationMode::ForwardingTrace, &["home", "s0", "s1"], 5);
    rt.launch(probe(&["s0", "s1", "s0", "s1"], 1)).unwrap();
    rt.run_to_quiescence(100_000);
    let reports = rt.drain_reports("home");
    assert_eq!(
        reports[0].1.get("visits").as_list().unwrap().len(),
        4,
        "all four (revisiting) hops happen"
    );
    // each worker keeps the naplet's last footprint: s0's second visit
    // left for s1, where the journey ended
    let id = &reports[0].0;
    let trace = |host| rt.server(host).unwrap().manager.trace(id);
    assert_eq!(trace("s0"), Some(Some("s1")));
    assert_eq!(trace("s1"), Some(None));
}

#[test]
fn two_agents_message_each_other_via_address_books() {
    // a stationary "anchor" agent parks at s1; a "courier" visits s0
    // and posts to the anchor via its address book hint
    struct Anchor;
    impl NapletBehavior for Anchor {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
            // collect whatever arrives, report it
            let mut got = Vec::new();
            while let Some(m) = ctx.get_message()? {
                if let Payload::User(v) = m.payload {
                    got.push(v);
                }
            }
            if !got.is_empty() {
                ctx.report_home(Value::List(got))?;
            }
            Ok(())
        }
    }
    struct Courier;
    impl NapletBehavior for Courier {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
            let peer_text = ctx.state().get("peer");
            let peer: naplet_core::NapletId = peer_text.as_str().unwrap().parse().unwrap();
            ctx.post_message(&peer, Value::from("psst"))?;
            Ok(())
        }
    }
    let mut reg = CodebaseRegistry::new();
    reg.register("anchor", 512, || Anchor);
    reg.register("courier", 512, || Courier);

    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth(None), 3);
    let mut rt = SimRuntime::new(fabric);
    for h in ["home", "s0", "s1"] {
        let mut cfg = ServerConfig::open(h, LocationMode::CentralDirectory("home".into()));
        cfg.codebase = reg.clone();
        if h == "s1" {
            // park the anchor long enough for the courier's message
            cfg.monitor_policy = MonitorPolicy {
                native_dwell_ms: 200,
                ..MonitorPolicy::default()
            };
        }
        rt.add_server(cfg);
    }

    // anchor: long dwell at s1 then revisit to read mail
    let anchor_it = Itinerary::new(Pattern::seq_of_hosts(&["s1", "s1"], None)).unwrap();
    let anchor = Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(1),
        "anchor",
        AgentKind::Native,
        anchor_it,
        vec![],
    )
    .unwrap();
    let anchor_id = anchor.id().clone();
    rt.launch(anchor).unwrap();
    rt.run_until(Millis(30)); // anchor resident at s1

    let courier_it = Itinerary::new(Pattern::seq_of_hosts(&["s0"], None)).unwrap();
    let mut courier = Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(2),
        "courier",
        AgentKind::Native,
        courier_it,
        vec![],
    )
    .unwrap();
    courier.state.set("peer", anchor_id.to_string());
    courier.address_book.put(anchor_id, "s1");
    rt.launch(courier).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert!(
        reports.iter().any(|(_, r)| r
            .as_list()
            .map(|l| l.contains(&Value::from("psst")))
            .unwrap_or(false)),
        "anchor should have received the courier's message: {reports:?}"
    );
}

#[test]
fn directory_outage_does_not_stall_arrivals() {
    // liveness no longer depends on the directory in CentralDirectory
    // mode: the arrival registration is retransmitted with backoff,
    // and when the directory stays down past the retry budget the
    // server stops gating and executes anyway (a stale directory is
    // repaired by the forwarding chase; a stranded agent is not).
    let mut rt = world(
        LocationMode::CentralDirectory("dir".into()),
        &["home", "dir", "s0"],
        5,
    );
    rt.fabric().take_down("dir");
    rt.enable_tracing();
    let naplet = probe(&["s0"], 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);

    assert!(
        rt.fabric().stats().snapshot().dropped > 0,
        "registration traffic must be dropped"
    );
    let at_s0: Vec<TraceKind> = (rt.obs().tracer.events().into_iter())
        .filter(|e| e.host == "s0")
        .map(|e| e.kind)
        .collect();
    assert!(
        at_s0.iter().any(|k| matches!(k,
            TraceKind::WireSend { label, attempt, .. } if label == "DirRegister" && *attempt > 1)),
        "registration retransmissions must be traced"
    );
    assert!(
        at_s0
            .iter()
            .any(|k| matches!(k, TraceKind::RegisterAcked { forced: true, .. })),
        "the give-up must be visible in the trace"
    );
    let s0 = rt.server("s0").unwrap();
    assert!(s0.monitor.get(&id).is_none(), "the visit must have run");
    assert_eq!(
        rt.drain_reports("home").len(),
        1,
        "journey must complete despite the dead directory"
    );

    // forwarding mode never had the dependence: same outage, same route
    let mut rt = world(LocationMode::ForwardingTrace, &["home", "dir", "s0"], 5);
    rt.fabric().take_down("dir");
    rt.launch(probe(&["s0"], 2)).unwrap();
    rt.run_to_quiescence(100_000);
    assert_eq!(rt.drain_reports("home").len(), 1);
}
