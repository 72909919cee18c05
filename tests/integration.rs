//! Workspace-level integration tests: scenarios that span every crate
//! through the public facade (`naplet::prelude`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use naplet::man::{ManWorld, NET_MANAGEMENT};
use naplet::net::{Frame, TcpConfig, TcpTransport};
use naplet::prelude::*;
use naplet::server::{LiveRuntime, Matcher, Node, Permission};
use naplet::snmp::oids;

fn man_world(devices: usize) -> ManWorld {
    let mut w = ManWorld::build(
        devices,
        4,
        LatencyModel::Constant(3),
        Bandwidth::fast_ethernet(),
        99,
    );
    w.tick_devices(20_000);
    w
}

#[test]
fn both_management_paradigms_return_identical_stable_data() {
    let mut w = man_world(4);
    // stable (non-evolving) scalars only
    let vars = [oids::sys_name(), oids::sys_location(), oids::if_number()];
    let agent = w.agent_poll(&vars, true, None).unwrap();
    let central = w.centralized_poll(&vars, false).unwrap();
    assert_eq!(agent.per_device.len(), 4);
    for host in w.devices.clone() {
        let a = agent
            .per_device
            .get(&host)
            .unwrap()
            .as_list()
            .unwrap()
            .to_vec();
        let c = central
            .per_device
            .get(&host)
            .unwrap()
            .as_list()
            .unwrap()
            .to_vec();
        assert_eq!(a.len(), c.len(), "host {host}");
        for (x, y) in a.iter().zip(c.iter()) {
            assert_eq!(x.get("value"), y.get("value"), "host {host}");
        }
    }
}

#[test]
fn vm_and_native_agents_collect_the_same_variables() {
    let mut w = man_world(3);
    let vars = [oids::sys_name(), oids::if_number()];
    let native = w.agent_poll(&vars, false, None).unwrap();
    let vm = w.vm_agent_poll(&vars).unwrap();
    for host in w.devices.clone() {
        let n = native
            .per_device
            .get(&host)
            .unwrap()
            .as_list()
            .unwrap()
            .to_vec();
        let v = vm
            .per_device
            .get(&host)
            .unwrap()
            .as_list()
            .unwrap()
            .to_vec();
        assert_eq!(n.len(), v.len(), "host {host}");
        for (x, y) in n.iter().zip(v.iter()) {
            assert_eq!(x.get("value"), y.get("value"), "host {host}");
        }
    }
}

#[test]
fn role_based_policy_gates_the_privileged_service() {
    let mut w = man_world(2);
    // tighten every device's policy: only role=net-mgmt may open the
    // NetManagement channel (plus the basic travel permissions)
    for host in w.devices.clone() {
        let mut policy = Policy::deny_all();
        policy.add_rule(
            Matcher::any().with_attribute("role", "net-mgmt"),
            [
                Permission::Launch,
                Permission::Landing,
                Permission::Clone,
                Permission::Messaging,
                Permission::PrivilegedService(NET_MANAGEMENT.into()),
            ],
        );
        policy.add_rule(
            Matcher::any(),
            [
                Permission::Launch,
                Permission::Landing,
                Permission::Clone,
                Permission::Messaging,
            ],
        );
        w.rt.server_mut(&host)
            .unwrap()
            .security_mut()
            .set_policy(policy);
    }

    // the NM naplet carries role=net-mgmt and still works
    let vars = [oids::sys_name()];
    let ok = w.agent_poll(&vars, false, None).unwrap();
    assert_eq!(ok.per_device.len(), 2);

    // an agent without the role is denied at channel allocation
    struct Snooper;
    impl NapletBehavior for Snooper {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> naplet::core::Result<()> {
            let result = ctx.channel_exchange(NET_MANAGEMENT, Value::from("1.3.6.1.2.1.1.5"));
            ctx.report_home(Value::map([("denied", Value::Bool(result.is_err()))]))
        }
    }
    let mut registry = CodebaseRegistry::new();
    registry.register("snooper", 512, || Snooper);
    // snooper's codebase must exist on device servers too: widen the
    // world registry by re-registering on the NOC-launched route.
    // ManWorld servers share a registry built at construction; install
    // the snooper codebase into each server's registry is not exposed,
    // so run the snooper in its own small world instead.
    let fabric = Fabric::lan();
    let mut rt = SimRuntime::new(fabric);
    for host in ["home", "dev"] {
        let mut cfg = ServerConfig::open(host, LocationMode::ForwardingTrace);
        cfg.codebase = registry.clone();
        rt.add_server(cfg);
    }
    // privileged service exists at `dev`, but policy denies everyone
    let mut policy = Policy::deny_all();
    policy.add_rule(
        Matcher::any(),
        [
            Permission::Launch,
            Permission::Landing,
            Permission::Messaging,
        ],
    );
    let dev = rt.server_mut("dev").unwrap();
    dev.resources
        .register_privileged(NET_MANAGEMENT, |io: &mut naplet::server::ChannelIo<'_>| {
            while let Some(v) = io.read_line() {
                io.write_line(v);
            }
            Ok(())
        });
    dev.security_mut().set_policy(policy);

    let key = SigningKey::new("mallory", b"k");
    let it = Itinerary::new(Pattern::seq_of_hosts(&["dev"], None)).unwrap();
    let naplet = Naplet::create(
        &key,
        "mallory",
        "home",
        Millis(0),
        "snooper",
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);
    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].1.get("denied"), Value::Bool(true));
}

#[test]
fn network_loss_strands_agents_but_is_accounted() {
    let mut w = man_world(3);
    w.rt.fabric().set_loss(0.9);
    let vars = [oids::sys_name()];
    // with heavy loss the round fails (handshakes or transfers die)
    let result = w.agent_poll(&vars, true, None);
    w.rt.fabric().set_loss(0.0);
    if result.is_err() {
        assert!(
            w.rt.fabric().stats().snapshot().dropped > 0,
            "drops must be accounted"
        );
    }
    // the fabric heals: a later round succeeds
    let ok = w.agent_poll(&vars, true, None).unwrap();
    assert_eq!(ok.per_device.len(), 3);
}

#[test]
fn device_workload_is_visible_through_agents_over_time() {
    let mut w = man_world(1);
    let vars = [oids::sys_uptime()];
    let first = w.agent_poll(&vars, false, None).unwrap();
    w.tick_devices(50_000);
    let second = w.agent_poll(&vars, false, None).unwrap();
    let read = |o: &naplet::man::PollOutcome| {
        o.per_device["d0"].as_list().unwrap()[0]
            .get("value")
            .as_int()
            .unwrap()
    };
    assert!(read(&second) > read(&first), "uptime must advance");
}

#[test]
fn facade_prelude_supports_full_agent_lifecycle() {
    // condensed version of the crate-level doc example
    struct Greeter;
    impl NapletBehavior for Greeter {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> naplet::core::Result<()> {
            let line = format!("hello from {}", ctx.host_name());
            ctx.report_home(Value::from(line))
        }
    }
    let mut registry = CodebaseRegistry::new();
    registry.register("hello", 1024, || Greeter);
    let mut rt = SimRuntime::new(Fabric::lan());
    for host in ["home", "s0", "s1"] {
        let mut cfg = ServerConfig::open(host, LocationMode::HomeManagers);
        cfg.codebase = registry.clone();
        rt.add_server(cfg);
    }
    let key = SigningKey::new("demo", b"secret");
    let itinerary = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None)).unwrap();
    let naplet = Naplet::create(
        &key,
        "demo",
        "home",
        Millis(0),
        "hello",
        AgentKind::Native,
        itinerary,
        vec![],
    )
    .unwrap();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);
    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].1, Value::from("hello from s0"));
    assert_eq!(reports[1].1, Value::from("hello from s1"));
}

// ---------------------------------------------------------------------
// The live frame path: real sockets and server threads (both finish in
// well under a second; the waits below are ceilings, not costs).
// ---------------------------------------------------------------------

fn tcp_endpoint() -> TcpTransport {
    TcpTransport::start(TcpConfig::new(
        "127.0.0.1:0".parse().unwrap(),
        Default::default(),
    ))
    .unwrap()
}

#[test]
fn tcp_transport_round_trips_frames_between_two_endpoints() {
    let (a, b) = (tcp_endpoint(), tcp_endpoint());
    a.add_peer("b", b.local_addr()).unwrap();
    b.add_peer("a", a.local_addr()).unwrap();
    let (a_in, b_in) = (a.register("a"), b.register("b"));
    let wait = Duration::from_secs(5);
    // the first frame waits for the dial, the rest are written by the
    // sending thread; all arrive in order, byte for byte, and come back
    let sent: Vec<Frame> = (0..50u8)
        .map(|n| Frame::new("a", "b", TrafficClass::Message, vec![n; 1 + n as usize]))
        .collect();
    for frame in &sent {
        a.send(frame.clone()).unwrap();
    }
    for frame in &sent {
        let got = b_in.recv_timeout(wait).unwrap();
        assert_eq!(&got, frame);
        b.send(Frame::new("b", "a", got.class, got.payload))
            .unwrap();
    }
    for frame in &sent {
        assert_eq!(a_in.recv_timeout(wait).unwrap().payload, frame.payload);
    }
    assert_eq!(
        a.stats().snapshot().dropped + b.stats().snapshot().dropped,
        0
    );
}

#[test]
fn live_runtime_completes_a_journey_over_tcp() {
    /// Reports home from every stop and tells the test where it ran.
    struct Tourist(crossbeam::channel::Sender<String>);
    impl NapletBehavior for Tourist {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> naplet::core::Result<()> {
            let host = ctx.host_name().to_string();
            ctx.report_home(Value::from(format!("visited {host}")))?;
            let _ = self.0.send(host);
            Ok(())
        }
    }
    let (visited_tx, visited) = crossbeam::channel::unbounded();
    let mut registry = CodebaseRegistry::new();
    registry.register("tourist", 512, move || Tourist(visited_tx.clone()));

    // one process-shaped half per host: its own socket, its own runtime
    let mut home = LiveRuntime::over(tcp_endpoint());
    let mut away = LiveRuntime::over(tcp_endpoint());
    let (home_addr, away_addr) = (home.transport().local_addr(), away.transport().local_addr());
    home.transport().add_peer("away", away_addr).unwrap();
    away.transport().add_peer("home", home_addr).unwrap();
    for (live, host) in [(&mut home, "home"), (&mut away, "away")] {
        let mut cfg = ServerConfig::open(host, LocationMode::HomeManagers);
        cfg.codebase = registry.clone();
        live.add_server(cfg);
    }
    let key = SigningKey::new("demo", b"secret");
    let itinerary = Itinerary::new(Pattern::seq_of_hosts(&["away", "home"], None)).unwrap();
    let naplet = Naplet::create(
        &key,
        "demo",
        "home",
        Millis(0),
        "tourist",
        AgentKind::Native,
        itinerary,
        vec![],
    )
    .unwrap();
    home.launch(naplet).unwrap();
    home.start();
    away.start();

    // out over one connection, back over the other
    let wait = Duration::from_secs(5);
    assert_eq!(visited.recv_timeout(wait).unwrap(), "away");
    assert_eq!(visited.recv_timeout(wait).unwrap(), "home");
    away.shutdown();
    let servers = home.shutdown();
    let (_, home_server) = servers.into_iter().find(|(h, _)| h == "home").unwrap();
    // away's report travelled ahead of the agent on the same connection
    let reports: Vec<Value> = home_server.reports.iter().map(|(_, v)| v.clone()).collect();
    assert_eq!(
        reports,
        [Value::from("visited away"), Value::from("visited home")]
    );
}

#[test]
fn a_hand_pumped_node_sends_a_journey_through_a_started_live_runtime() {
    struct Tourist;
    impl NapletBehavior for Tourist {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> naplet::core::Result<()> {
            ctx.report_home(Value::from(format!("visited {}", ctx.host_name())))
        }
    }
    let mut registry = CodebaseRegistry::new();
    registry.register("tourist", 512, || Tourist);
    let open = |host: &str| {
        let mut cfg = ServerConfig::open(host, LocationMode::HomeManagers);
        cfg.codebase = registry.clone();
        cfg
    };

    // two servers on their own threads behind one socket ...
    let mut away = LiveRuntime::over(tcp_endpoint());
    away.add_server(open("a"));
    away.add_server(open("b"));
    away.start();
    // ... and the home on another, driven by this thread: the same
    // `Node` loop the runtime's threads run, pumped by hand
    let home_net = tcp_endpoint();
    let away_addr = away.transport().local_addr();
    home_net.add_peer("a", away_addr).unwrap();
    home_net.add_peer("b", away_addr).unwrap();
    away.transport()
        .add_peer("home", home_net.local_addr())
        .unwrap();
    let mut home = Node::new(
        Arc::new(home_net),
        open("home"),
        ObsSink::default(),
        Instant::now(),
    );

    let key = SigningKey::new("demo", b"secret");
    let itinerary = Itinerary::new(Pattern::seq_of_hosts(&["a", "b"], None)).unwrap();
    let naplet = Naplet::create(
        &key,
        "demo",
        "home",
        Millis(0),
        "tourist",
        AgentKind::Native,
        itinerary,
        vec![],
    )
    .unwrap();
    home.launch(naplet);
    // the home's tables are in plain sight between pumps: done when
    // both reports are in, not when a timer says so
    let deadline = Instant::now() + Duration::from_secs(10);
    while home.server.reports.len() < 2 {
        assert!(Instant::now() < deadline, "journey stalled");
        home.wait(Some(deadline));
    }
    let reports: Vec<Value> = home.server.reports.iter().map(|(_, v)| v.clone()).collect();
    assert_eq!(
        reports,
        [Value::from("visited a"), Value::from("visited b")]
    );
    assert_eq!(away.shutdown().len(), 2);
}

// ---------------------------------------------------------------------
// Real state on board: a 64 KiB agent through the codec, the transfer
// frames and the journal, on threads and across a crash (both well under
// a second together).
// ---------------------------------------------------------------------

const BALLAST: usize = 64 * 1024;

/// Notes the stop in its state, reports its ballast home from there and
/// tells the test where it ran.
struct Courier(crossbeam::channel::Sender<String>);
impl NapletBehavior for Courier {
    fn on_start(&mut self, ctx: &mut dyn NapletContext) -> naplet::core::Result<()> {
        let host = ctx.host_name().to_string();
        let mut visits = match ctx.state().get("visits") {
            Value::List(l) => l,
            _ => Vec::new(),
        };
        visits.push(Value::from(host.as_str()));
        ctx.state().set("visits", Value::List(visits));
        let ballast = ctx.state().get("ballast");
        ctx.report_home(ballast)?;
        let _ = self.0.send(host);
        Ok(())
    }
}

/// A courier registry, a courier over `route` with seeded random
/// ballast, the ballast, and the channel the stops are announced on.
fn courier(
    route: &[&str],
    seed: u64,
) -> (
    CodebaseRegistry,
    Naplet,
    Value,
    crossbeam::channel::Receiver<String>,
) {
    use rand::{rngs::StdRng, RngCore, SeedableRng};

    let (stops_tx, stops) = crossbeam::channel::unbounded();
    let mut registry = CodebaseRegistry::new();
    registry.register("courier", 512, move || Courier(stops_tx.clone()));
    let itinerary = Itinerary::new(Pattern::seq_of_hosts(route, None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let mut naplet = Naplet::create(
        &SigningKey::new("demo", b"secret"),
        "demo",
        "home",
        Millis(0),
        "courier",
        AgentKind::Native,
        itinerary,
        vec![],
    )
    .unwrap();
    let mut bytes = vec![0u8; BALLAST];
    StdRng::seed_from_u64(seed).fill_bytes(&mut bytes);
    let ballast = Value::Bytes(bytes);
    naplet.state.set("ballast", ballast.clone());
    (registry, naplet, ballast, stops)
}

#[test]
fn a_64k_agent_rings_three_live_hosts_with_its_ballast_intact() {
    let ring = ["n1", "n2", "n3", "home"];
    let (registry, naplet, ballast, stops) = courier(&ring, 15);
    let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth::fast_ethernet(), 15);
    let mut live = LiveRuntime::new(fabric, 0);
    for host in ring {
        let mut cfg = ServerConfig::open(host, LocationMode::HomeManagers);
        cfg.codebase = registry.clone();
        live.add_server(cfg);
    }
    live.launch(naplet).unwrap();
    live.start();
    for host in ring {
        assert_eq!(stops.recv_timeout(Duration::from_secs(5)).unwrap(), host);
    }
    let servers = live.shutdown();
    let (_, home) = servers.into_iter().find(|(h, _)| h == "home").unwrap();
    // each stop's report left ahead of the agent, so all four are in
    assert_eq!(home.reports.len(), ring.len());
    for (_, report) in &home.reports {
        assert!(report == &ballast, "every byte of the ballast, unchanged");
    }
}

#[test]
fn a_64k_agent_survives_its_hosts_crash_and_completes_exactly_once() {
    let route = ["s0", "s1", "s2"];
    let (registry, naplet, ballast, _stops) = courier(&route, 16);
    let mut rt = SimRuntime::new(Fabric::lan());
    for host in ["home", "s0", "s1", "s2"] {
        let mut cfg = ServerConfig::open(host, LocationMode::HomeManagers);
        cfg.codebase = registry.clone();
        rt.add_server(cfg);
    }
    rt.launch(naplet).unwrap();
    // s1 journals the arrival before acknowledging it: crash it the
    // moment it is the agent's keeper, restart it 40 ms later
    while rt
        .server("s1")
        .unwrap()
        .journal()
        .naplet_records()
        .is_empty()
    {
        rt.step().expect("the journey reaches s1");
    }
    rt.crash_server("s1", Some(40));
    rt.run_to_quiescence(1_000_000);

    assert_eq!(rt.server("s1").unwrap().recovery_stats().rehydrated, 1);
    let reports = rt.drain_reports("home");
    let (finished, from_stops) = reports.split_last().expect("the journey completes");
    // one report per stop and one final state: nothing lost, nothing twice
    assert_eq!(from_stops.len(), route.len());
    assert!(from_stops.iter().all(|(_, report)| report == &ballast));
    assert!(finished.1.get("ballast") == ballast);
    assert_eq!(
        finished.1.get("visits"),
        Value::List(route.iter().map(|h| Value::from(*h)).collect())
    );
}
