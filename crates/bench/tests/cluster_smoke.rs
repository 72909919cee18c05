//! Cluster smoke and chaos tests against real `napletd` processes.
//!
//! These are `#[ignore]`d by default — they spawn OS processes, bind
//! localhost ports and take tens of seconds — and are run explicitly
//! by the CI `cluster-smoke` job (`cargo test -p naplet-bench --test
//! cluster_smoke -- --ignored`) after building the `napletd` binary.
//!
//! Four scenarios, in escalating hostility:
//! 1. **smoke**: a probe rings three daemons and reports home from
//!    each, daemons shut down cleanly on SIGTERM;
//! 2. **kill -9 + journal recovery**: a daemon is SIGKILLed while an
//!    agent is resident, a fresh incarnation replays the write-ahead
//!    journal, and the journey still completes exactly once;
//! 3. **lease re-dispatch**: a daemon is SIGKILLed and *not*
//!    restarted; the home node's lease expires and the orphaned agent
//!    is re-dispatched from its creation record;
//! 4. **directory failover**: the replicated directory's *leader* is
//!    SIGKILLed mid-churn; journeys keep completing exactly once, a
//!    new leader emerges, and the restarted replica catches up to the
//!    same committed log.

use std::time::Duration;

use naplet_bench::cluster::ClusterHarness;
use naplet_core::value::Value;

fn probe(host: &str) -> Value {
    Value::from(format!("probe:{host}"))
}

#[test]
#[ignore = "spawns real napletd processes; run via the CI cluster-smoke job"]
fn ring_journey_crosses_three_live_daemons() {
    let harness =
        ClusterHarness::launch("smoke", &["n1", "n2", "n3"], "lease_ms = 60000\n").unwrap();
    let mut ctl = harness.ctl().unwrap();

    ctl.launch_probe(&["n1", "n2", "n3"]).unwrap();
    let done = ctl.pump_until(Duration::from_secs(30), |c| c.server().reports.len() >= 3);
    let reports = ctl.reports();
    assert!(done, "ring journey stalled; reports so far: {reports:?}");
    assert_eq!(
        reports,
        vec![probe("n1"), probe("n2"), probe("n3")],
        "one report per hop, in itinerary order"
    );

    // visits must not duplicate: exactly one report per hop
    assert_eq!(ctl.server().reports.len(), 3);

    // the ops plane sees the live cluster: bind the spare `mon`
    // station from the same bootstrap file and poll every daemon's
    // status endpoint over TCP
    let mut poller = naplet_bench::ops::ClusterStatusPoller::connect(
        harness.config(),
        naplet_bench::cluster::MON,
    )
    .unwrap();
    let targets: Vec<String> = ["n1", "n2", "n3"].iter().map(|s| s.to_string()).collect();
    let status = poller.poll(&targets, Duration::from_secs(10)).unwrap();
    let hosts: Vec<&str> = status.iter().map(|r| r.host.as_str()).collect();
    assert_eq!(
        hosts,
        vec!["n1", "n2", "n3"],
        "every live daemon must answer a privileged status poll"
    );
    for report in &status {
        assert_eq!(report.parked, 0, "nothing parks on the happy path");
    }

    // SIGTERM must produce clean exits on every daemon
    let n2_log = harness.log("n2");
    for (node, clean) in harness.shutdown() {
        assert!(clean, "napletd[{node}] did not exit cleanly");
    }
    assert!(
        n2_log.contains("serving on"),
        "daemon boot line missing:\n{n2_log}"
    );
}

#[test]
#[ignore = "spawns real napletd processes; run via the CI cluster-smoke job"]
fn cluster_trace_merges_a_ring_journey_across_live_daemons() {
    // a private trace_dir so dump files from other tests (or runs)
    // can't leak into the merge; CI overrides it to keep the dumps as
    // artifacts and feed them to `naplet-ops trace --dumps`
    let keep = std::env::var("NAPLET_CLUSTER_TRACE_DIR").ok();
    let trace_dir = keep
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "naplet-cluster-trace-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ))
        });
    let _ = std::fs::remove_dir_all(&trace_dir);
    let harness = ClusterHarness::launch(
        "trace",
        &["n1", "n2", "n3"],
        &format!(
            "lease_ms = 60000\ntrace_dir = \"{}\"\n",
            trace_dir.display()
        ),
    )
    .unwrap();
    let mut ctl = harness.ctl().unwrap();

    ctl.launch_probe(&["n1", "n2", "n3"]).unwrap();
    let done = ctl.pump_until(Duration::from_secs(30), |c| c.server().reports.len() >= 3);
    assert!(done, "ring journey stalled; reports: {:?}", ctl.reports());

    // --- live fetch: page every daemon's recorder over the wire ----
    let mut poller = naplet_bench::ops::ClusterStatusPoller::connect(
        harness.config(),
        naplet_bench::cluster::MON,
    )
    .unwrap();
    let targets: Vec<String> = ["n1", "n2", "n3"].iter().map(|s| s.to_string()).collect();
    let mut segments = poller
        .fetch_traces(&targets, Duration::from_secs(10))
        .unwrap();
    assert_eq!(
        segments.iter().map(|s| s.host.as_str()).collect::<Vec<_>>(),
        vec!["n1", "n2", "n3"],
        "every daemon must serve its flight recorder"
    );
    // the ctl node recorded the launch handshake and the homebound
    // reports; with its segment included, every Transfer send has its
    // matching receive in the merge
    segments.push(naplet_obs::FlatSegment::from_segment(&ctl.trace_segment()));

    let merged = naplet_obs::merge_cluster_trace(&segments, 5_000);
    naplet_obs::validate_chrome_trace(&merged.json).unwrap();
    assert!(
        merged.violations.is_empty(),
        "ring journey must merge causally clean: {:?}",
        merged.violations
    );
    // the journey is visible end to end: migration sends from ctl and
    // every daemon, each carrying a trace context
    let sends_with_ctx = segments
        .iter()
        .flat_map(|s| &s.events)
        .filter(|e| e.name == "wire.send" && e.ctx.is_some())
        .count();
    assert!(
        sends_with_ctx >= 4,
        "expected ctx-stamped sends on every hop, saw {sends_with_ctx}"
    );

    // --- SIGUSR1: a running daemon dumps without disturbing service -
    harness.sigusr1("n1").unwrap();
    let usr1_dump = trace_dir.join("n1.trace.json");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !usr1_dump.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let text = std::fs::read_to_string(&usr1_dump).expect("SIGUSR1 must write a dump");
    let seg = naplet_obs::parse_flight_dump(&text).expect("dump must parse");
    assert_eq!(seg.host, "n1");
    assert!(!seg.events.is_empty(), "n1 saw the journey");

    // --- clean shutdown dumps every daemon's recorder --------------
    for (node, clean) in harness.shutdown() {
        assert!(clean, "napletd[{node}] did not exit cleanly");
    }
    let dumped: Vec<naplet_obs::FlatSegment> = ["n1", "n2", "n3"]
        .iter()
        .map(|n| {
            let text = std::fs::read_to_string(trace_dir.join(format!("{n}.trace.json")))
                .unwrap_or_else(|e| panic!("shutdown dump for {n} missing: {e}"));
            naplet_obs::parse_flight_dump(&text).unwrap()
        })
        .collect();
    let merged = naplet_obs::merge_cluster_trace(&dumped, 5_000);
    naplet_obs::validate_chrome_trace(&merged.json).unwrap();
    assert!(merged.event_count > 0);
    if keep.is_none() {
        let _ = std::fs::remove_dir_all(&trace_dir);
    }
}

#[test]
#[ignore = "spawns real napletd processes; run via the CI cluster-smoke job"]
fn panicking_daemon_leaves_a_readable_flight_dump() {
    let bin = naplet_bench::cluster::napletd_bin().unwrap();
    let root = std::env::temp_dir().join(format!("naplet-panic-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let toml = format!(
        "[cluster]\ntrace_dir = \"{}\"\n\n[[node]]\nname = \"solo\"\nlisten = \"{addr}\"\n\
         journal = \"{}\"\n",
        root.display(),
        root.join("journal").display(),
    );
    let config = root.join("solo.toml");
    std::fs::write(&config, toml).unwrap();

    // the panic fires on a daemon thread 200 ms in; the hook must
    // write the flight dump before the default handler takes over
    let log = std::fs::File::create(root.join("solo.log")).unwrap();
    let mut child = std::process::Command::new(&bin)
        .arg("--config")
        .arg(&config)
        .arg("--node")
        .arg("solo")
        .env("NAPLETD_PANIC_AFTER_MS", "200")
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::from(log.try_clone().unwrap()))
        .stderr(std::process::Stdio::from(log))
        .spawn()
        .unwrap();

    let dump = root.join("solo.trace.json");
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while !dump.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();

    let text = std::fs::read_to_string(&dump).expect("panic hook must write a dump");
    let seg = naplet_obs::parse_flight_dump(&text).expect("panic dump must parse");
    assert_eq!(seg.host, "solo");
    let log_text = std::fs::read_to_string(root.join("solo.log")).unwrap_or_default();
    assert!(
        log_text.contains("panic — trace dumped to"),
        "panic hook must announce the dump:\n{log_text}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
#[ignore = "spawns real napletd processes; run via the CI cluster-smoke job"]
fn kill9_mid_visit_recovers_from_the_journal() {
    // dwell 2s: the agent is resident at n1 long enough to be crashed
    // under; ctl retries absorb the outage
    let mut harness = ClusterHarness::launch(
        "chaos-journal",
        &["n1", "n2"],
        "lease_ms = 60000\ndwell_ms = 2000\n",
    )
    .unwrap();
    let mut ctl = harness.ctl().unwrap();

    ctl.launch_probe(&["n1", "n2"]).unwrap();
    // kill only once (a) the home's directory shows the agent Running
    // at n1 — the arrival registration is sent after n1 journals the
    // admission, so the record is on disk by then — and (b) the n1
    // report has landed at home, so the kill cannot race the report
    // frame out of n1's doomed writer queue (replay suppresses
    // re-running the visit, so a report lost with the process would
    // stay lost — at-most-once by design). The 2s dwell keeps the
    // agent resident well past both.
    let resident = ctl.pump_until(Duration::from_secs(10), |c| {
        c.running_at("n1") && c.reports().contains(&probe("n1"))
    });
    assert!(resident, "agent never became a reported resident at n1");

    harness.kill9("n1").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    harness.restart("n1").unwrap();

    let done = ctl.pump_until(Duration::from_secs(40), |c| c.server().reports.len() >= 2);
    let reports = ctl.reports();
    assert!(
        done,
        "journey never finished after crash; reports: {reports:?}"
    );
    assert_eq!(
        reports,
        vec![probe("n1"), probe("n2")],
        "recovery must neither lose nor duplicate the visit"
    );

    // the second incarnation must have replayed journal state: the
    // resident agent (and/or its dedup entries) were on disk
    let log = harness.log("n1");
    let boots: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("journal replay rehydrated"))
        .collect();
    assert_eq!(boots.len(), 2, "expected two boot lines:\n{log}");
    assert!(
        boots[0].contains("rehydrated 0"),
        "first boot replays nothing: {}",
        boots[0]
    );
    assert!(
        !boots[1].contains("rehydrated 0"),
        "second boot must rehydrate the crashed resident: {}",
        boots[1]
    );

    for (node, clean) in harness.shutdown() {
        assert!(clean, "napletd[{node}] did not exit cleanly");
    }
}

#[test]
#[ignore = "spawns real napletd processes; run via the CI cluster-smoke job"]
fn dead_node_triggers_home_lease_redispatch() {
    // short lease so the home notices the silence quickly; the killed
    // node stays dead, so the re-dispatched agent fails over to
    // parking and the lease counters record the whole story
    let mut harness =
        ClusterHarness::launch("chaos-lease", &["n1"], "lease_ms = 1500\ndwell_ms = 2000\n")
            .unwrap();
    let mut ctl = harness.ctl().unwrap();

    ctl.launch_probe(&["n1"]).unwrap();
    // wait until the agent is provably resident at n1 (dwell 2s),
    // then crash the node for good
    let resident = ctl.pump_until(Duration::from_secs(10), |c| c.running_at("n1"));
    assert!(resident, "agent never registered as resident at n1");
    harness.kill9("n1").unwrap();

    let redispatched = ctl.pump_until(Duration::from_secs(30), |c| {
        c.status().leases_redispatched >= 1
    });
    let status = ctl.status();
    assert!(
        redispatched,
        "home lease never re-dispatched the orphan: {status:?}"
    );
    assert!(
        status.leases_expired >= 1,
        "an expired lease precedes every re-dispatch: {status:?}"
    );

    // outage sends are counted drops on the ctl transport, not panics
    let give_up = ctl.pump_until(Duration::from_secs(30), |c| c.net_stats().dropped >= 1);
    assert!(give_up, "sends into the dead node must count as drops");
}

#[test]
#[ignore = "spawns real napletd processes; run via the CI cluster-smoke job"]
fn directory_leader_kill9_mid_churn_loses_no_registrations() {
    let replicas = ["d1", "d2", "d3"];
    let mut harness = ClusterHarness::launch_with(
        "chaos-directory",
        &["d1", "d2", "d3", "w1"],
        "lease_ms = 60000\n",
        "[directory]\nreplicas = \"d1, d2, d3\"\n",
    )
    .unwrap();
    let mut ctl = harness.ctl().unwrap();
    let mut poller = naplet_bench::ops::ClusterStatusPoller::connect(
        harness.config(),
        naplet_bench::cluster::MON,
    )
    .unwrap();
    let replica_targets: Vec<String> = replicas.iter().map(|s| s.to_string()).collect();

    // wait for the replica set to elect, and learn who leads
    let mut leader = String::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while leader.is_empty() && std::time::Instant::now() < deadline {
        let reports = poller
            .poll(&replica_targets, Duration::from_secs(5))
            .unwrap();
        leader = reports
            .iter()
            .filter_map(|r| r.repl.as_ref())
            .find(|r| r.role == "leader")
            .and_then(|r| r.leader.clone())
            .unwrap_or_default();
        if leader.is_empty() {
            std::thread::sleep(Duration::from_millis(200));
        }
    }
    assert!(
        !leader.is_empty(),
        "replica set never elected a leader over TCP"
    );

    // churn before the kill: journeys whose arrival registrations
    // commit through the current leader
    for _ in 0..3 {
        ctl.launch_probe(&["w1"]).unwrap();
    }
    let first_wave = ctl.pump_until(Duration::from_secs(30), |c| c.server().reports.len() >= 3);
    assert!(
        first_wave,
        "pre-kill churn stalled; reports: {:?}",
        ctl.reports()
    );

    // kill -9 the directory leader mid-churn, keep launching while the
    // survivors elect, then restart the corpse
    harness.kill9(&leader).unwrap();
    for _ in 0..3 {
        ctl.launch_probe(&["w1"]).unwrap();
    }
    let second_wave = ctl.pump_until(Duration::from_secs(60), |c| c.server().reports.len() >= 6);
    assert!(
        second_wave,
        "churn through directory failover stalled; reports: {:?}",
        ctl.reports()
    );
    // zero lost registrations: every launched probe reported exactly
    // once — none dropped, none re-dispatched into a duplicate
    assert_eq!(
        ctl.reports(),
        vec![probe("w1"); 6],
        "each probe must report exactly once across the failover"
    );
    harness.restart(&leader).unwrap();

    // the survivors elected exactly one new leader, and the restarted
    // replica rejoins and catches up to the same committed log
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let converged = loop {
        let reports = poller
            .poll(&replica_targets, Duration::from_secs(5))
            .unwrap();
        let repl: Vec<_> = reports.iter().filter_map(|r| r.repl.as_ref()).collect();
        let leaders = repl.iter().filter(|r| r.role == "leader").count();
        let commits: Vec<u64> = repl.iter().map(|r| r.commit).collect();
        if repl.len() == 3
            && leaders == 1
            && commits.windows(2).all(|w| w[0] == w[1])
            && commits[0] >= 1
        {
            break true;
        }
        if std::time::Instant::now() > deadline {
            eprintln!("final replica status: {repl:?}");
            break false;
        }
        std::thread::sleep(Duration::from_millis(250));
    };
    assert!(
        converged,
        "restarted replica never converged with the new leader"
    );

    for (node, clean) in harness.shutdown() {
        assert!(clean, "napletd[{node}] did not exit cleanly");
    }
}
