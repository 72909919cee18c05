//! End-to-end tests of the naplet space: whole journeys through the
//! discrete-event runtime, covering migration, directory modes, the
//! post-office protocol, security denials, resource control and
//! strong-mobility VM agents.

use naplet_core::behavior::NapletBehavior;
use naplet_core::clock::Millis;
use naplet_core::codebase::CodebaseRegistry;
use naplet_core::context::NapletContext;
use naplet_core::credential::SigningKey;
use naplet_core::error::Result;
use naplet_core::itinerary::{ActionSpec, Guard, Itinerary, Pattern};
use naplet_core::message::{ControlVerb, Payload};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel, TrafficClass};
use naplet_obs::TraceKind;
use naplet_server::{
    LocationMode, Matcher, MonitorPolicy, NapletStatus, Permission, Policy, RunState,
    SecurityManager, ServerConfig, SimRuntime,
};

const CODEBASE: &str = "naplet://code/collector.jar";
const DIARIST: &str = "naplet://code/diarist.jar";
const CODE_SIZE: u64 = 4096;

/// Collector behaviour: appends the current host to state["visits"],
/// drains its mailbox into state["inbox"], and optionally flags
/// state["found"] when it reaches state["target"].
struct Collector;

impl NapletBehavior for Collector {
    fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
        let host = ctx.host_name().to_string();
        let mut visits = match ctx.state().get("visits") {
            Value::List(l) => l,
            _ => Vec::new(),
        };
        visits.push(Value::Str(host.clone()));
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

        if let Ok(target) = ctx.state().get("target").as_str().map(str::to_string) {
            if target == host {
                ctx.state().set("found", true);
            }
        }
        Ok(())
    }

    fn on_interrupt(&mut self, ctx: &mut dyn NapletContext, verb: &ControlVerb) -> Result<()> {
        if let ControlVerb::Callback = verb {
            let visits = ctx.state().get("visits");
            ctx.report_home(Value::map([("callback", visits)]))?;
        }
        Ok(())
    }
}

/// Diarist behaviour: logs one line naming the host it runs at.
struct Diarist;

impl NapletBehavior for Diarist {
    fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
        let line = format!("at {}", ctx.host_name());
        ctx.log(&line);
        Ok(())
    }
}

fn registry() -> CodebaseRegistry {
    let mut r = CodebaseRegistry::new();
    r.register(CODEBASE, CODE_SIZE, || Collector);
    r.register(DIARIST, CODE_SIZE, || Diarist);
    r
}

fn key() -> SigningKey {
    SigningKey::new("czxu", b"campus-secret")
}

/// Build a world: home server + n worker servers s0..s(n-1).
fn world(mode: LocationMode, n: usize) -> SimRuntime {
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), 42);
    let mut rt = SimRuntime::new(fabric);
    let reg = registry();
    let mk = |host: &str| {
        let mut cfg = ServerConfig::open(host, mode.clone());
        cfg.codebase = reg.clone();
        cfg
    };
    rt.add_server(mk("home"));
    for i in 0..n {
        let cfg = mk(&format!("s{i}"));
        rt.add_server(cfg);
    }
    rt
}

fn hosts(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("s{i}")).collect()
}

fn make_naplet(itinerary: Itinerary, ts: u64) -> Naplet {
    Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(ts),
        CODEBASE,
        AgentKind::Native,
        itinerary,
        vec![("role".into(), "test".into())],
    )
    .unwrap()
}

fn visits_from_report(report: &Value) -> Vec<String> {
    report
        .get("visits")
        .as_list()
        .unwrap_or(&[])
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect()
}

// ===========================================================================
// journeys
// ===========================================================================

#[test]
fn sequential_journey_visits_in_order_and_reports_home() {
    for mode in [
        LocationMode::CentralDirectory("home".into()),
        LocationMode::HomeManagers,
        LocationMode::ForwardingTrace,
    ] {
        let mut rt = world(mode.clone(), 3);
        let hs = hosts(3);
        let refs: Vec<&str> = hs.iter().map(String::as_str).collect();
        let it = Itinerary::new(Pattern::seq_of_hosts(&refs, None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome);
        rt.launch(make_naplet(it, 1)).unwrap();
        rt.run_to_quiescence(100_000);

        let reports = rt.drain_reports("home");
        assert_eq!(reports.len(), 1, "mode {mode:?}");
        assert_eq!(visits_from_report(&reports[0].1), hs, "mode {mode:?}");

        // home learned about completion
        let entry = rt
            .server("home")
            .unwrap()
            .manager
            .table_entry(&reports[0].0)
            .unwrap();
        assert_eq!(entry.status, NapletStatus::Completed, "mode {mode:?}");
    }
}

#[test]
fn parallel_broadcast_spawns_clones_that_each_report() {
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 4);
    let hs = hosts(4);
    let refs: Vec<&str> = hs.iter().map(String::as_str).collect();
    let it = Itinerary::new(Pattern::par_singletons(&refs, Some(ActionSpec::ReportHome))).unwrap();
    rt.launch(make_naplet(it, 1)).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 4);
    let mut seen: Vec<String> = reports
        .iter()
        .flat_map(|(_, r)| visits_from_report(r))
        .collect();
    seen.sort();
    assert_eq!(seen, hs);
    // 4 distinct agents: the original + 3 clones
    let ids: std::collections::HashSet<_> = reports.iter().map(|(id, _)| id.clone()).collect();
    assert_eq!(ids.len(), 4);
    // heritage marks the clones
    let originals = ids.iter().filter(|id| id.is_original()).count();
    assert_eq!(originals, 1);
}

#[test]
fn conditional_search_stops_when_found() {
    let mut rt = world(LocationMode::ForwardingTrace, 5);
    let hs = hosts(5);
    let refs: Vec<&str> = hs.iter().map(String::as_str).collect();
    let keep_going = Guard::not(Guard::state_truthy("found"));
    let it = Itinerary::new(Pattern::conditional_route(&refs, keep_going))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let mut naplet = make_naplet(it, 1);
    naplet.state.set("target", "s2");
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    // stopped at s2: s3, s4 never visited
    assert_eq!(visits_from_report(&reports[0].1), ["s0", "s1", "s2"]);
}

#[test]
fn example3_par_of_seqs() {
    // paper Example 3: par(seq(s0,s1), seq(s2,s3))
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 4);
    let p = Pattern::par(vec![
        Pattern::seq_of_hosts(&["s0", "s1"], None),
        Pattern::seq_of_hosts(&["s2", "s3"], None),
    ]);
    let it = Itinerary::new(p)
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    rt.launch(make_naplet(it, 1)).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    // the originator reports (final action); the clone has none
    assert_eq!(reports.len(), 1);
    assert_eq!(visits_from_report(&reports[0].1), ["s0", "s1"]);
    // but both agents completed: check clone status at home
    let launched = rt.server("home").unwrap().manager.launched().len();
    assert_eq!(launched, 2); // original + clone (clone recorded at fork host = home)
}

// ===========================================================================
// messaging
// ===========================================================================

#[test]
fn owner_message_chases_moving_naplet_and_is_delivered() {
    let mut rt = world(LocationMode::ForwardingTrace, 4);
    let hs = hosts(4);
    let refs: Vec<&str> = hs.iter().map(String::as_str).collect();
    let it = Itinerary::new(Pattern::seq_of_hosts(&refs, None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let naplet = make_naplet(it, 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();

    // let it get underway, then post from the owner at home
    rt.run_until(Millis(8));
    rt.owner_post(
        "home",
        id.clone(),
        Payload::User(Value::from("hello agent")),
    )
    .unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    let inbox = reports[0].1.get("inbox");
    let got: Vec<&Value> = inbox.as_list().unwrap().iter().collect();
    assert!(
        got.iter().any(|v| **v == Value::from("hello agent")),
        "message should have chased the naplet: {inbox}"
    );
}

#[test]
fn early_message_waits_in_special_mailbox() {
    // directory mode; message posted the instant the naplet launches,
    // while it is still in transit — the target server stashes it
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 1);
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let naplet = make_naplet(it, 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    // immediately: naplet still doing the landing handshake
    rt.owner_post("home", id, Payload::User(Value::from("early bird")))
        .unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    let inbox = reports[0].1.get("inbox");
    assert!(
        inbox
            .as_list()
            .unwrap()
            .contains(&Value::from("early bird")),
        "early message should be delivered on arrival: {inbox}"
    );
}

#[test]
fn callback_control_triggers_on_interrupt() {
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 2);
    // long dwell so the control message reaches the naplet in place
    rt.server_mut("s0")
        .unwrap()
        .monitor
        .set_policy(MonitorPolicy {
            native_dwell_ms: 500,
            ..MonitorPolicy::default()
        });
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None)).unwrap();
    let naplet = make_naplet(it, 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();

    rt.run_until(Millis(100)); // resident at s0, dwelling
    rt.owner_post("home", id, Payload::System(ControlVerb::Callback))
        .unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert!(
        reports.iter().any(|(_, r)| r.get("callback") != Value::Nil),
        "callback report expected; got {reports:?}"
    );
}

#[test]
fn terminate_control_destroys_and_notifies_home() {
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 2);
    rt.server_mut("s0")
        .unwrap()
        .monitor
        .set_policy(MonitorPolicy {
            native_dwell_ms: 500,
            ..MonitorPolicy::default()
        });
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let naplet = make_naplet(it, 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();

    rt.run_until(Millis(100));
    rt.owner_post("home", id.clone(), Payload::System(ControlVerb::Terminate))
        .unwrap();
    rt.run_to_quiescence(100_000);

    // never reached the final report
    assert!(rt.drain_reports("home").is_empty());
    let entry = rt.server("home").unwrap().manager.table_entry(&id).unwrap();
    assert_eq!(entry.status, NapletStatus::Destroyed);
}

#[test]
fn suspend_then_resume_completes_journey() {
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 2);
    rt.server_mut("s0")
        .unwrap()
        .monitor
        .set_policy(MonitorPolicy {
            native_dwell_ms: 200,
            ..MonitorPolicy::default()
        });
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let naplet = make_naplet(it, 1);
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();

    rt.run_until(Millis(50)); // dwelling at s0 until ~200
    rt.owner_post("home", id.clone(), Payload::System(ControlVerb::Suspend))
        .unwrap();
    rt.run_until(Millis(2_000)); // dwell long past; still suspended
    {
        let s0 = rt.server("s0").unwrap();
        let entry = s0
            .monitor
            .get(&id)
            .expect("suspended naplet stays resident");
        assert_eq!(entry.state, RunState::Suspended);
    }
    rt.owner_post("home", id, Payload::System(ControlVerb::Resume))
        .unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    assert_eq!(visits_from_report(&reports[0].1), ["s0", "s1"]);
}

// ===========================================================================
// security & resources
// ===========================================================================

#[test]
fn landing_denied_skips_visit() {
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 3);
    // s1 refuses all landings
    let mut deny = Policy::deny_all();
    deny.add_rule(
        Matcher::any(),
        [Permission::Launch, Permission::Clone, Permission::Messaging],
    );
    rt.server_mut("s1").unwrap().security_mut().set_policy(deny);
    rt.enable_tracing();

    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1", "s2"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    rt.launch(make_naplet(it, 1)).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    // s1 was skipped (landing denied); journey continued
    assert_eq!(visits_from_report(&reports[0].1), ["s0", "s2"]);
    // the denial shows up in s1's trace
    let denied = rt.obs().tracer.events().into_iter().any(|e| {
        let refused = matches!(e.kind, TraceKind::LandingDecision { granted: false, .. });
        refused && e.host == "s1"
    });
    assert!(denied);
}

/// What an agent logs is traced where it ran: one `agent.log` event
/// per visit, stamped with the visit's host and the agent's id.
#[test]
fn an_agents_own_lines_are_traced_at_the_host_it_ran_at() {
    let mut rt = world(LocationMode::ForwardingTrace, 2);
    rt.enable_tracing();
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None)).unwrap();
    let kind = AgentKind::Native;
    let naplet = Naplet::create(&key(), "czxu", "home", Millis(1), DIARIST, kind, it, vec![]);
    let naplet = naplet.unwrap();
    let id = naplet.id().to_string();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);

    let lines: Vec<_> = (rt.obs().tracer.events().into_iter())
        .filter_map(|e| match e.kind {
            TraceKind::AgentLog { line } => Some((e.host, e.naplet, line)),
            _ => None,
        })
        .collect();
    let at = |host: &str| (host.to_string(), Some(id.clone()), format!("at {host}"));
    assert_eq!(lines, [at("s0"), at("s1")]);
}

#[test]
fn unverifiable_credential_rejected_at_landing() {
    let mut rt = world(LocationMode::ForwardingTrace, 1);
    // s0 requires known principals and trusts only "czxu"
    let strict = SecurityManager::new(Policy::allow_all(), vec![key()], true);
    *rt.server_mut("s0").unwrap().security_mut() = strict;

    // a naplet signed by an unknown principal
    let mallory = SigningKey::new("mallory", b"whatever");
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let naplet = Naplet::create(
        &mallory,
        "mallory",
        "home",
        Millis(1),
        CODEBASE,
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);

    // denied at landing; visit skipped, report comes from home with no visits
    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    assert!(visits_from_report(&reports[0].1).is_empty());
}

#[test]
fn max_residents_cap_denies_landing() {
    let mut rt = world(LocationMode::ForwardingTrace, 1);
    // allow only 0 residents: every landing is refused
    let cfg = {
        let mut c = ServerConfig::open("tiny", LocationMode::ForwardingTrace);
        c.codebase = registry();
        c.max_residents = Some(0);
        c
    };
    rt.add_server(cfg);

    let it = Itinerary::new(Pattern::seq_of_hosts(&["tiny", "s0"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    rt.launch(make_naplet(it, 1)).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    assert_eq!(visits_from_report(&reports[0].1), ["s0"]);
}

#[test]
fn code_is_fetched_once_per_host_and_cached() {
    let mut rt = world(LocationMode::ForwardingTrace, 2);
    let it = || {
        Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None))
            .unwrap()
            .with_final_action(ActionSpec::ReportHome)
    };

    rt.launch(make_naplet(it(), 1)).unwrap();
    rt.run_to_quiescence(100_000);
    let after_first = rt.fabric().stats().snapshot();
    assert_eq!(after_first.bytes(TrafficClass::Code), 2 * CODE_SIZE);

    rt.launch(make_naplet(it(), 2)).unwrap();
    rt.run_to_quiescence(100_000);
    let after_second = rt.fabric().stats().snapshot();
    // cache hit: no additional code bytes
    assert_eq!(after_second.bytes(TrafficClass::Code), 2 * CODE_SIZE);
    assert_eq!(rt.drain_reports("home").len(), 2);
}

#[test]
fn migration_traffic_is_metered() {
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 3);
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1", "s2"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    rt.launch(make_naplet(it, 1)).unwrap();
    rt.run_to_quiescence(100_000);

    let snap = rt.fabric().stats().snapshot();
    // 3 migrations (home→s0, s0→s1, s1→s2)
    assert_eq!(snap.messages(TrafficClass::Migration), 3);
    assert!(snap.bytes(TrafficClass::Migration) > 0);
    // control traffic: landing handshakes + directory registrations
    assert!(snap.messages(TrafficClass::Control) >= 6);
    // directory at home saw registrations
    assert!(rt.server("home").unwrap().locator.directory().registrations >= 3);
}

#[test]
fn lost_migration_strands_agent_and_counts_drop() {
    let mut rt = world(LocationMode::ForwardingTrace, 2);
    rt.fabric().cut_link("s0", "s1");
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    rt.launch(make_naplet(it, 1)).unwrap();
    rt.run_to_quiescence(100_000);

    assert!(
        rt.fabric().stats().snapshot().dropped > 0,
        "the s0→s1 handshake or transfer must drop"
    );
    assert!(rt.drain_reports("home").is_empty());
}

// ===========================================================================
// VM agents: strong mobility end-to-end
// ===========================================================================

fn vm_naplet(itinerary: Itinerary, ts: u64) -> Naplet {
    // work at each host (record its name), then travel; report at end
    let src = r#"
        .program roamer
        .func main locals=1
        work:
            const "trail"
            hcall state_get
            dup
            jmpf fresh
            jmp have
        fresh:
            pop
            mklist 0
        have:
            hcall host_name
            lpush
            store 0
            const "trail"
            load 0
            hcall state_set
            pop
            hcall travel_next
            dup
            jmpf done
            pop
            jmp work
        done:
            pop
            load 0
            hcall report
            pop
            nil
            halt
        .end
    "#;
    let program = naplet_vm::assemble(src).unwrap();
    let image = naplet_vm::VmImage::new(program).unwrap();
    Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(ts),
        "vm:roamer",
        AgentKind::Vm(image.to_wire().unwrap()),
        itinerary,
        vec![],
    )
    .unwrap()
}

#[test]
fn vm_agent_roams_with_strong_mobility() {
    let mut rt = world(LocationMode::CentralDirectory("home".into()), 3);
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1", "s2"], None)).unwrap();
    rt.launch(vm_naplet(it, 1)).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1, "VM agent should report its trail once");
    let trail: Vec<String> = reports[0]
        .1
        .as_list()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert_eq!(trail, ["s0", "s1", "s2"]);
}

#[test]
fn vm_agent_killed_when_cpu_budget_exceeded() {
    let mut rt = world(LocationMode::ForwardingTrace, 1);
    // tiny budget at s0
    rt.server_mut("s0")
        .unwrap()
        .monitor
        .set_policy(MonitorPolicy {
            gas_slice: 50,
            max_gas_per_visit: 200,
            ..MonitorPolicy::default()
        });
    // spin forever
    let src = ".program spin\n.func main\nloop:\n jmp loop\n.end\n";
    let program = naplet_vm::assemble(src).unwrap();
    let image = naplet_vm::VmImage::new(program).unwrap();
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0"], None)).unwrap();
    let naplet = Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(1),
        "vm:spin",
        AgentKind::Vm(image.to_wire().unwrap()),
        it,
        vec![],
    )
    .unwrap();
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);

    let metrics = &rt.obs().metrics;
    assert_eq!(metrics.counter("monitor.budget_kills"), 1);
    assert_eq!(metrics.counter("agent.errors"), 1);
    let entry = rt.server("home").unwrap().manager.table_entry(&id).unwrap();
    assert_eq!(entry.status, NapletStatus::Destroyed);
}

// ===========================================================================
// services through real servers
// ===========================================================================

/// Behaviour that queries a privileged service via its channel.
struct ServiceUser;
impl NapletBehavior for ServiceUser {
    fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
        let reply = ctx.channel_exchange("sysinfo", Value::from("load"))?;
        let host = ctx.host_name().to_string();
        ctx.state().update("replies", |v| {
            if let Value::Map(m) = v {
                m.insert(host, reply);
            }
        })?;
        Ok(())
    }
}

#[test]
fn privileged_service_access_via_channels() {
    let mut reg = CodebaseRegistry::new();
    reg.register("svc-user", 1000, || ServiceUser);

    let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth(None), 7);
    let mut rt = SimRuntime::new(fabric);
    for host in ["home", "s0", "s1"] {
        let mut cfg = ServerConfig::open(host, LocationMode::ForwardingTrace);
        cfg.codebase = reg.clone();
        rt.add_server(cfg);
    }
    // install the privileged service on workers
    for host in ["s0", "s1"] {
        let name = host.to_string();
        rt.server_mut(host).unwrap().resources.register_privileged(
            "sysinfo",
            move |io: &mut naplet_server::ChannelIo<'_>| {
                while let Some(req) = io.read_line() {
                    io.write_line(Value::map([
                        ("host", Value::from(name.as_str())),
                        ("query", req),
                    ]));
                }
                Ok(())
            },
        );
    }

    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let mut naplet = Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(1),
        "svc-user",
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();
    naplet
        .state
        .set("replies", Value::map::<[(&str, Value); 0], &str>([]));
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert_eq!(reports.len(), 1);
    let replies = reports[0].1.get("replies");
    assert_eq!(replies.get("s0").get("host"), Value::from("s0"));
    assert_eq!(replies.get("s1").get("host"), Value::from("s1"));
    // channels were torn down on departure
    assert_eq!(rt.server("s0").unwrap().resources.live_channels(), 0);
}

#[test]
fn on_destroy_speaks_over_the_live_channel_and_leaves_none_behind() {
    /// Opens a session with the service on arrival and closes it in
    /// its last word.
    struct Session;
    impl NapletBehavior for Session {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
            ctx.channel_exchange("sysinfo", Value::from("open"))
                .map(drop)
        }
        fn on_destroy(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
            ctx.channel_exchange("sysinfo", Value::from("close"))
                .map(drop)
        }
    }
    let mut reg = CodebaseRegistry::new();
    reg.register("session", 1000, || Session);
    let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth(None), 7);
    let mut rt = SimRuntime::new(fabric);
    for host in ["home", "s0"] {
        let mut cfg = ServerConfig::open(host, LocationMode::ForwardingTrace);
        cfg.codebase = reg.clone();
        cfg.monitor_policy.native_dwell_ms = 500;
        rt.add_server(cfg);
    }
    rt.server_mut("s0").unwrap().resources.register_privileged(
        "sysinfo",
        |io: &mut naplet_server::ChannelIo<'_>| {
            while let Some(req) = io.read_line() {
                io.write_line(req);
            }
            Ok(())
        },
    );
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0"], None)).unwrap();
    let naplet = Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(1),
        "session",
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();
    let id = naplet.id().clone();
    rt.launch(naplet).unwrap();
    rt.run_until(Millis(100)); // resident at s0, dwelling, channel open
    assert_eq!(rt.server("s0").unwrap().resources.live_channels(), 1);
    rt.owner_post("home", id.clone(), Payload::System(ControlVerb::Terminate))
        .unwrap();
    rt.run_to_quiescence(100_000);

    let entry = rt.server("home").unwrap().manager.table_entry(&id).unwrap();
    assert_eq!(entry.status, NapletStatus::Destroyed);
    let resources = &rt.server("s0").unwrap().resources;
    assert_eq!(resources.channels_created, 1, "the hook reused its channel");
    assert_eq!(resources.live_channels(), 0, "and released it afterwards");
}

/// One visit to `s0` by an agent that posts each of `payloads` to an
/// (absent) peer and then reports, under a per-visit post budget.
/// Returns the `Message`-class frames the fabric carried — the posts
/// that were kept plus the explicit and the final-action report —
/// and the posts the budget dropped.
fn chatter_visit(payloads: Vec<Vec<u8>>, budget: u64) -> (u64, u64) {
    struct Chatter(Vec<Vec<u8>>);
    impl NapletBehavior for Chatter {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> Result<()> {
            let peer = naplet_core::NapletId::new("peer", "s1", Millis(9)).unwrap();
            ctx.address_book().put(peer.clone(), "s1");
            for payload in &self.0 {
                let _ = ctx.post_message(&peer, Value::Bytes(payload.clone()));
            }
            ctx.report_home(Value::from("done"))
        }
    }
    let mut reg = CodebaseRegistry::new();
    reg.register("chatter", 0, move || Chatter(payloads.clone()));
    let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth(None), 4);
    let mut rt = SimRuntime::new(fabric);
    for host in ["home", "s0", "s1"] {
        let mut cfg = ServerConfig::open(host, LocationMode::ForwardingTrace);
        cfg.codebase = reg.clone();
        cfg.monitor_policy = MonitorPolicy {
            max_msg_bytes_per_visit: budget,
            ..MonitorPolicy::default()
        };
        rt.add_server(cfg);
    }
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0"], None))
        .unwrap()
        .with_final_action(ActionSpec::ReportHome);
    let naplet = Naplet::create(
        &key(),
        "czxu",
        "home",
        Millis(1),
        "chatter",
        AgentKind::Native,
        it,
        vec![],
    )
    .unwrap();
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(100_000);

    let reports = rt.drain_reports("home");
    assert!(!reports.is_empty(), "reports flow whatever the budget did");
    let dropped = rt.obs().metrics.counter("posts.over_budget");
    let frames = rt.fabric().stats().snapshot();
    (frames.messages(TrafficClass::Message), dropped)
}

#[test]
fn bandwidth_budget_drops_excess_posts_but_keeps_reports() {
    // three chunky posts; the budget fits exactly one 200-byte payload
    let payloads = (0..3).map(|k| vec![k as u8; 200]).collect();
    // one Post (s0→s1) + the explicit report + the final-action report
    assert_eq!(chatter_visit(payloads, 250), (3, 2));
}

#[test]
fn bandwidth_budget_charges_a_post_its_length_whatever_its_bytes() {
    // `Value::Bytes` of 1000 bytes: variant tag + 2-byte length + payload
    const CHARGE: u64 = 1 + 2 + 1000;
    for fill in [0x01u8, 0xff] {
        let post = || vec![vec![fill; 1000]];
        assert_eq!(chatter_visit(post(), 1100), (3, 0), "fill {fill:#x}");
        assert_eq!(chatter_visit(post(), CHARGE), (3, 0), "fill {fill:#x}");
        assert_eq!(chatter_visit(post(), CHARGE - 1), (2, 1), "fill {fill:#x}");
    }
}
