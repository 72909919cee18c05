//! Regenerate every figure/table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p naplet-bench --bin figures            # everything
//! cargo run --release -p naplet-bench --bin figures -- f3 e1   # a subset
//! ```

use naplet_bench::*;
use naplet_core::clock::Millis;
use naplet_core::itinerary::{ActionSpec, Itinerary, Pattern};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::NapletId;
use naplet_server::LocationMode;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("f1") {
        fig_f1();
    }
    if want("f2") {
        fig_f2();
    }
    if want("f3") {
        fig_f3();
    }
    if want("e1") {
        exp_e1();
    }
    if want("e2") {
        exp_e2();
    }
    if want("e3") {
        exp_e3();
    }
    if want("e4") {
        exp_e4();
    }
    if want("e5") {
        exp_e5();
    }
    if want("e6") {
        exp_e6();
    }
    if want("e7") {
        exp_e7();
    }
    if want("e8") {
        exp_e8();
    }
    if want("e9") {
        exp_e9();
    }
    if want("e10") {
        exp_e10();
    }
    // explicit opt-in only: the dump is machine-readable JSON on
    // stdout, not a table — `figures trace > trace.json`
    if args.iter().any(|a| a == "trace") {
        dump_trace();
    }
    // explicit opt-in: ops-plane views — a cluster health table
    // (`figures status`), an interval watch (`figures watch`), and the
    // machine-readable Prometheus page (`figures prom > page.prom`,
    // byte-compared twice by the CI status-plane check)
    if args.iter().any(|a| a == "status") {
        show_status();
    }
    if args.iter().any(|a| a == "watch") {
        show_watch();
    }
    if args.iter().any(|a| a == "prom") {
        dump_prometheus();
    }
    // live counterpart of `status`: poll a running napletd cluster.
    // `figures cluster-status <bootstrap.toml> [station]` — paths may
    // be case-sensitive, so read them from the raw (un-lowercased)
    // argument list
    if args.iter().any(|a| a == "cluster-status") {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let at = raw
            .iter()
            .position(|a| a.to_lowercase() == "cluster-status")
            .unwrap();
        std::process::exit(cluster_status(&raw[at + 1..]));
    }
    // merge per-daemon flight-recorder segments into one cluster-wide
    // Chrome trace: `figures cluster-trace <bootstrap.toml> [station]`
    // live-polls a running cluster; `figures cluster-trace --dumps
    // <file...>` merges dump files written on SIGUSR1/shutdown/panic
    if args.iter().any(|a| a == "cluster-trace") {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let at = raw
            .iter()
            .position(|a| a.to_lowercase() == "cluster-trace")
            .unwrap();
        std::process::exit(cluster_trace(&raw[at + 1..]));
    }
    // journey critical-path analysis over a merged trace: where did
    // each journey's wall-clock go, which segment was critical, and
    // did the run meet its `[slo]` budgets — `figures analyze ...`
    if args.iter().any(|a| a == "analyze") {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let at = raw
            .iter()
            .position(|a| a.to_lowercase() == "analyze")
            .unwrap();
        std::process::exit(analyze(&raw[at + 1..]));
    }
    // live counterpart of `watch`: page every daemon's metrics-history
    // ring and print per-host interval-delta rate tables
    if args.iter().any(|a| a == "cluster-watch") {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let at = raw
            .iter()
            .position(|a| a.to_lowercase() == "cluster-watch")
            .unwrap();
        std::process::exit(cluster_watch(&raw[at + 1..]));
    }
}

/// F1 — the hierarchical naplet id of Figure 1.
fn fig_f1() {
    println!("== F1: hierarchical naplet identifiers (Figure 1) ==");
    let root = NapletId::new("czxu", "ece.eng.wayne.edu", Millis(10512172720)).unwrap();
    println!("original : {root}");
    let c1 = root.clone_child(1);
    let c2 = root.clone_child(2);
    println!("clone 1  : {c1}");
    println!("clone 2  : {c2}");
    for k in 0..3 {
        let g = c2.clone_child(k);
        println!(
            "  gen 2  : {g}   (parent={}, original={}, ancestor-of-root: {})",
            g.parent().unwrap().short(),
            g.original().short(),
            root.is_ancestor_of(&g)
        );
    }
    println!();
}

/// F2 — the component handshake of one migration (Figure 2 in motion).
fn fig_f2() {
    println!("== F2: NapletServer architecture — one migration, component trace (Figure 2) ==");
    let world = RingWorld::build(
        2,
        LocationMode::CentralDirectory("home".into()),
        naplet_net::LatencyModel::Constant(2),
        5,
        7,
    );
    let mut rt = world.rt;
    let it = Itinerary::new(Pattern::seq_of_hosts(&["s0", "s1"], None))
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
    rt.launch(naplet).unwrap();
    rt.run_to_quiescence(1_000_000);
    for host in rt.server_hosts() {
        let server = rt.server(&host).unwrap();
        for entry in server.log() {
            println!("  [{:>5}] {:<5} {}", entry.at.0, host, entry.line);
        }
    }
    println!();
}

/// F3 — MAN vs centralized SNMP over device count (the §6 claim).
fn fig_f3() {
    let rows = exp_f3_devices(&[2, 4, 8, 16, 32], 16, 42);
    println!(
        "{}",
        render_man_table(
            "F3: MAN (broadcast agents) vs centralized SNMP, 16 vars/device",
            &rows
        )
    );
}

/// E1 — traffic crossover over variables per device.
fn exp_e1() {
    let rows = exp_e1_crossover(&[1, 2, 4, 8, 16, 32, 64], 8, 42);
    println!(
        "{}",
        render_man_table(
            "E1: crossover over vars/device (8 devices; sequential agent vs per-var polling)",
            &rows
        )
    );
    let crossover = rows.iter().find(|r| r.agent_bytes < r.central_bytes);
    match crossover {
        Some(r) => println!("  -> agent wins on bytes from {} vars/device\n", r.vars),
        None => println!("  -> no crossover in the swept range\n"),
    }

    let (raw, filtered) = exp_filtering(8, 42);
    println!(
        "E1b: on-site filtering — report bytes raw={raw} filtered={filtered} ({:.1}% saved)\n",
        100.0 * (raw - filtered) as f64 / raw.max(1) as f64
    );
}

/// E2 — completion time over link latency.
fn exp_e2() {
    println!(
        "== E2: overcoming latency — completion vs one-way link latency (8 devices, 16 vars) =="
    );
    println!(
        "{:>12} | {:>12} {:>12} {:>8}",
        "latency ms", "agent ms", "central ms", "ratio"
    );
    for (lat, r) in exp_e2_latency(&[1, 5, 20, 50, 100, 200], 8, 16, 42) {
        println!(
            "{:>12} | {:>12} {:>12} {:>7.2}x",
            lat,
            r.agent_ms,
            r.central_ms,
            r.central_ms as f64 / r.agent_ms.max(1) as f64
        );
    }
    println!();

    println!("== E2b: interface-table walk (round-trip-bound get-next chain) vs on-site walk, 8 devices ==");
    println!(
        "{:>12} | {:>6} | {:>12} {:>12} {:>8}",
        "latency ms", "rows", "agent ms", "central ms", "speedup"
    );
    for (lat, r) in exp_e2_walk(&[1, 5, 20, 50, 100], 8, 42) {
        println!(
            "{:>12} | {:>6} | {:>12} {:>12} {:>7.1}x",
            lat,
            r.vars,
            r.agent_ms,
            r.central_ms,
            r.central_ms as f64 / r.agent_ms.max(1) as f64
        );
    }
    println!();
}

/// E3 — itinerary shapes (paper §3 Examples 1–3).
fn exp_e3() {
    println!("== E3: itinerary patterns over 8 hosts (Examples 1-3) ==");
    println!(
        "{:>12} | {:>8} {:>13} {:>13} {:>11}",
        "shape", "agents", "completion ms", "total bytes", "migrations"
    );
    for shape in ["seq", "par", "par-of-seqs"] {
        let o = itinerary_experiment(8, shape, 42);
        println!(
            "{:>12} | {:>8} {:>13} {:>13} {:>11}",
            o.shape, o.agents, o.completion_ms, o.total_bytes, o.migrations
        );
    }
    println!();
}

/// E4 — location modes: directory vs home managers vs forwarding.
fn exp_e4() {
    println!("== E4: location & communication modes (8 hosts, 3 laps, 12 messages) ==");
    println!(
        "{:>18} | {:>9} {:>10} {:>13} {:>9} {:>14} {:>14}",
        "mode", "delivered", "forwards", "confirm ms", "max hops", "control bytes", "message bytes"
    );
    for (label, mode) in [
        (
            "central-directory",
            LocationMode::CentralDirectory("home".into()),
        ),
        ("home-managers", LocationMode::HomeManagers),
        ("forwarding-trace", LocationMode::ForwardingTrace),
    ] {
        let o = messaging_experiment(8, 3, mode, 12, 40, 42);
        println!(
            "{:>18} | {:>6}/{:<2} {:>10} {:>13.1} {:>9} {:>14} {:>14}",
            label,
            o.delivered,
            o.posted,
            o.forwards,
            o.mean_confirm_latency_ms,
            o.max_hops,
            o.control_bytes,
            o.message_bytes
        );
    }
    println!();
}

/// E5 — post-office delivery guarantee under rapid mobility.
fn exp_e5() {
    println!("== E5: post-office delivery under mobility (forwarding mode) ==");
    println!(
        "{:>8} {:>6} {:>10} | {:>9} {:>10} {:>9} {:>9}",
        "hosts", "laps", "messages", "delivered", "forwards", "max hops", "stranded"
    );
    for (hosts, laps, msgs) in [(4, 2, 8), (8, 3, 16), (12, 4, 24)] {
        let o = messaging_experiment(hosts, laps, LocationMode::ForwardingTrace, msgs, 25, 7);
        println!(
            "{:>8} {:>6} {:>10} | {:>6}/{:<2} {:>10} {:>9} {:>9}",
            hosts, laps, msgs, o.delivered, o.posted, o.forwards, o.max_hops, o.stranded_early
        );
    }
    println!();
}

/// E6 — monitor/gas enforcement overhead (wall-clock microbench).
fn exp_e6() {
    println!("== E6: monitor enforcement — interpreter wall time vs gas slice ==");
    let program = naplet_vm::assemble(
        r#"
        .program spin
        .func main locals=2
            int 0
            store 0
        head:
            load 0
            int 200000
            lt
            jmpf done
            load 0
            int 1
            add
            store 0
            jmp head
        done:
            load 0
            halt
        .end
        "#,
    )
    .unwrap();
    for slice in [100u64, 1_000, 10_000, 100_000, u64::MAX] {
        let mut image = naplet_vm::VmImage::new(program.clone()).unwrap();
        let mut host = naplet_vm::MockHost::new("bench");
        let t = std::time::Instant::now();
        let mut slices = 0u64;
        loop {
            match naplet_vm::run(&mut image, &mut host, slice).unwrap() {
                naplet_vm::VmYield::OutOfGas => slices += 1,
                naplet_vm::VmYield::Done(_) => break,
                naplet_vm::VmYield::Travel => unreachable!(),
            }
        }
        let elapsed = t.elapsed();
        println!(
            "  gas_slice {:>9} : {:>10.2?} total, {:>7} reschedules, {:>12} gas",
            if slice == u64::MAX {
                "unlimited".to_string()
            } else {
                slice.to_string()
            },
            elapsed,
            slices,
            image.gas_used
        );
    }
    println!();
}

/// E7 — lazy code loading: cold vs cached rounds.
fn exp_e7() {
    println!("== E7: lazy code loading over 8 hosts, 4 rounds ==");
    println!(
        "{:>7} | {:>12} {:>15}",
        "round", "code bytes", "completion ms"
    );
    for o in code_loading_experiment(8, 4, 42) {
        println!(
            "{:>7} | {:>12} {:>15}",
            o.round, o.code_bytes, o.completion_ms
        );
    }
    println!();
}

/// E8 — ablation: state accumulation under sequential collection vs
/// broadcast clones (why the NM itinerary is a broadcast).
fn exp_e8() {
    println!("== E8: migration size growth — sequential hoarder vs broadcast clones (8 hosts, 512 B gathered per visit) ==");
    let o = accumulation_experiment(8, 512, 42);
    println!("{:>6} | {:>16}", "hop", "migration bytes");
    for (i, b) in o.seq_hop_bytes.iter().enumerate() {
        println!("{:>6} | {:>16}", i, b);
    }
    let first = *o.seq_hop_bytes.first().unwrap_or(&1);
    let last = *o.seq_hop_bytes.last().unwrap_or(&1);
    println!(
        "  sequential growth {:.1}x over the route; broadcast clones stay flat at ~{} bytes each\n",
        last as f64 / first.max(1) as f64,
        o.broadcast_clone_bytes
    );
}

/// E10 — per-naplet resource accounting (paper §5.2: the monitor keeps
/// track of CPU, memory and network bandwidth consumed by a naplet)
/// plus the metrics-registry summary of the same run.
fn exp_e10() {
    println!("== E10: per-naplet resource accounting — chaos journey, 5% loss (paper §5.2) ==");
    let out = traced_chaos_experiment(0.05, &[("s1", 10, 700)], 42);
    println!(
        "{:>6} | {:>24} | {:>7} {:>10} {:>11} {:>12}",
        "host", "naplet", "visits", "cpu gas", "msg bytes", "state bytes"
    );
    for (host, naplet, u) in &out.usage {
        println!(
            "{:>6} | {:>24} | {:>7} {:>10} {:>11} {:>12}",
            host, naplet, u.visits, u.gas, u.msg_bytes, u.peak_state_bytes
        );
    }
    println!();
    println!("{}", out.obs.metrics.render_text());
}

/// Dump the Chrome trace-event JSON of a traced chaos run to stdout.
fn dump_trace() {
    let out = traced_chaos_experiment(0.05, &[("s1", 10, 700)], 42);
    println!("{}", out.chrome_json);
}

/// `figures status` — the cluster health table: one probe walking the
/// ring, a mid-flight status sweep (agent resident, journal lag live)
/// and the quiescent end state.
fn show_status() {
    println!("== status: cluster health probes over a ring journey ==");
    let world = RingWorld::build(
        7,
        LocationMode::HomeManagers,
        naplet_net::LatencyModel::Constant(2),
        5,
        7,
    );
    let naplet = world.probe_naplet(1, 1);
    let mut rt = world.rt;
    rt.enable_watchdog(naplet_obs::WatchdogConfig::default());
    rt.launch(naplet).unwrap();
    rt.run_until(Millis(20));
    println!("-- t={:>4}ms (mid-journey) --", rt.now().0);
    for report in rt.status_reports() {
        println!("  {}", report.summary());
    }
    rt.run_to_quiescence(50_000_000);
    println!("-- t={:>4}ms (quiescent) --", rt.now().0);
    for report in rt.status_reports() {
        println!("  {}", report.summary());
    }
    println!("  alerts raised: {}\n", rt.alerts().len());
}

/// `figures watch` — two polls of the stalled chaos journey with the
/// interval metrics diff between them (what changed since last poll).
fn show_watch() {
    println!("== watch: interval metrics — stalled journey (s1 down 10..700 ms) ==");
    let world = RingWorld::build(
        7,
        LocationMode::HomeManagers,
        naplet_net::LatencyModel::Constant(2),
        5,
        42,
    );
    let naplet = world.probe_naplet(1, 1);
    let mut rt = world.rt;
    rt.enable_watchdog(naplet_obs::WatchdogConfig {
        deadline_ms: 200,
        tick_ms: 50,
        ..Default::default()
    });
    rt.fabric().schedule_down("s1", 10, 700);
    rt.launch(naplet).unwrap();
    rt.run_until(Millis(400));
    let early = rt.obs().snapshot().metrics;
    println!(
        "-- poll 1 at t={}ms: {} alert(s) so far --",
        rt.now().0,
        rt.alerts().len()
    );
    for alert in rt.alerts() {
        println!(
            "  {} {} last seen at {} ({}ms idle)",
            if alert.orphan { "ORPHAN?" } else { "STALLED" },
            alert.naplet,
            alert.last_host,
            alert.event.at.0
        );
    }
    rt.run_to_quiescence(50_000_000);
    let full = rt.obs().snapshot().metrics;
    println!("-- poll 2 at t={}ms: counters since poll 1 --", rt.now().0);
    println!("{}", full.diff(&early).render_text());
}

/// `figures prom` — the Prometheus text exposition of the watched
/// chaos run, on stdout for the CI two-run byte comparison.
fn dump_prometheus() {
    let out = watched_chaos_experiment(0.05, &[("s1", 10, 700)], 200, 42);
    print!("{}", naplet_obs::prometheus_text(&out.obs.metrics));
}

/// `figures cluster-status <bootstrap.toml> [station] [--watch <secs>
/// [--rounds <n>]]` — the live counterpart of `figures status`: bind
/// the `station` node (default `ctl`) from the bootstrap file and poll
/// every other node's running daemon for its status report. With
/// `--watch` it re-polls every `<secs>` seconds (forever, or `--rounds
/// <n>` times) and prints the field-level diff between successive
/// polls instead of repeating the full table. Exit code 1 when any
/// poll missed a node, so the CI cluster-smoke job can use it as a
/// health gate in either mode.
fn cluster_status(rest: &[String]) -> i32 {
    const USAGE: &str =
        "usage: figures cluster-status <bootstrap.toml> [station] [--watch <secs> [--rounds <n>]]";
    let mut positional: Vec<&String> = Vec::new();
    let mut watch_secs: Option<u64> = None;
    let mut rounds: u64 = 0; // 0 = unbounded while watching
    let mut i = 0;
    while i < rest.len() {
        let flag_value = |name: &str| -> Option<u64> {
            rest.get(i + 1).and_then(|v| v.parse().ok()).or_else(|| {
                eprintln!("cluster-status: {name} needs a numeric argument\n{USAGE}");
                None
            })
        };
        match rest[i].as_str() {
            "--watch" => match flag_value("--watch") {
                Some(v) => {
                    watch_secs = Some(v);
                    i += 2;
                }
                None => return 2,
            },
            "--rounds" => match flag_value("--rounds") {
                Some(v) => {
                    rounds = v;
                    i += 2;
                }
                None => return 2,
            },
            other if other.starts_with("--") => {
                eprintln!("cluster-status: unknown flag `{other}`\n{USAGE}");
                return 2;
            }
            _ => {
                positional.push(&rest[i]);
                i += 1;
            }
        }
    }
    let (mut poller, targets) = match reach_cluster("cluster-status", &positional, "ctl", USAGE) {
        Ok(reached) => reached,
        Err(code) => return code,
    };
    let mut previous: Option<Vec<naplet_server::StatusReport>> = None;
    let mut any_missing = false;
    let mut round: u64 = 0;
    loop {
        round += 1;
        let reports = match poller.poll(&targets, std::time::Duration::from_secs(5)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cluster-status: poll failed: {e}");
                return 2;
            }
        };
        match &previous {
            None => print!(
                "{}",
                naplet_man::ClusterStatusPoller::render_table(&reports)
            ),
            Some(prev) => {
                let diffs = naplet_man::ClusterStatusPoller::diff_reports(prev, &reports);
                println!("-- poll {round}: {} change(s) --", diffs.len());
                for line in &diffs {
                    println!("  {line}");
                }
            }
        }
        let heard: std::collections::BTreeSet<&str> =
            reports.iter().map(|r| r.host.as_str()).collect();
        for target in &targets {
            if !heard.contains(target.as_str()) {
                eprintln!("cluster-status: no reply from `{target}`");
                any_missing = true;
            }
        }
        let Some(secs) = watch_secs else { break };
        if rounds > 0 && round >= rounds {
            break;
        }
        previous = Some(reports);
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
    if any_missing {
        1
    } else {
        0
    }
}

/// `figures cluster-trace` — merge every daemon's flight-recorder
/// segment into one cluster-wide Chrome trace and flag causality
/// violations (a receive with no earlier matching send, a gap in a
/// journey's hop sequence).
///
/// ```text
/// figures cluster-trace <bootstrap.toml> [station] [--out f] [--tolerance-ms n]
/// figures cluster-trace --dumps <a.trace.json> <b.trace.json> ... [--out f] [--tolerance-ms n]
/// ```
///
/// The first form binds `station` (default `mon`) from the bootstrap
/// file and pages every other node's recorder out over the privileged
/// trace protocol; the second merges dump files that daemons wrote on
/// SIGUSR1, clean shutdown, or panic. The merged trace goes to `--out`
/// (default `cluster-trace.json`, `-` for stdout). Exit 0 when the
/// merge is causally clean, 1 when violations were flagged, 2 on
/// usage/IO errors — so CI can gate on it directly.
fn cluster_trace(rest: &[String]) -> i32 {
    const USAGE: &str = "usage: figures cluster-trace <bootstrap.toml> [station] \
                         [--out <file>] [--tolerance-ms <n>] [--top <n>]\n\
                         \x20      figures cluster-trace --dumps <file...> \
                         [--out <file>] [--tolerance-ms <n>] [--top <n>]";
    let mut positional: Vec<&String> = Vec::new();
    let mut dumps: Vec<&String> = Vec::new();
    let mut in_dumps = false;
    let mut out_path = "cluster-trace.json".to_string();
    let mut tolerance_ms: u64 = 5;
    let mut top: usize = 0;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--dumps" => {
                in_dumps = true;
                i += 1;
            }
            "--out" => {
                in_dumps = false;
                let Some(v) = rest.get(i + 1) else {
                    eprintln!("cluster-trace: --out needs a path\n{USAGE}");
                    return 2;
                };
                out_path = v.clone();
                i += 2;
            }
            "--tolerance-ms" => {
                in_dumps = false;
                let Some(v) = rest.get(i + 1).and_then(|v| v.parse().ok()) else {
                    eprintln!("cluster-trace: --tolerance-ms needs a numeric argument\n{USAGE}");
                    return 2;
                };
                tolerance_ms = v;
                i += 2;
            }
            "--top" => {
                in_dumps = false;
                let Some(v) = rest.get(i + 1).and_then(|v| v.parse().ok()) else {
                    eprintln!("cluster-trace: --top needs a numeric argument\n{USAGE}");
                    return 2;
                };
                top = v;
                i += 2;
            }
            other if other.starts_with("--") => {
                eprintln!("cluster-trace: unknown flag `{other}`\n{USAGE}");
                return 2;
            }
            _ => {
                if in_dumps {
                    dumps.push(&rest[i]);
                } else {
                    positional.push(&rest[i]);
                }
                i += 1;
            }
        }
    }

    let segments = match collect_segments("cluster-trace", &dumps, &positional, USAGE) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let merged = naplet_obs::merge_cluster_trace(&segments, tolerance_ms);
    if out_path == "-" {
        print!("{}", merged.json);
    } else if let Err(e) = std::fs::write(&out_path, &merged.json) {
        eprintln!("cluster-trace: cannot write `{out_path}`: {e}");
        return 2;
    }
    let truncated: Vec<&str> = segments
        .iter()
        .filter(|s| s.dropped > 0)
        .map(|s| s.host.as_str())
        .collect();
    eprintln!(
        "cluster-trace: merged {} event(s) from {} node(s) into {out_path}{}",
        merged.event_count,
        segments.len(),
        if truncated.is_empty() {
            String::new()
        } else {
            format!(" (truncated rings on: {})", truncated.join(", "))
        }
    );
    if top > 0 {
        let analysis = naplet_obs::analyze_segments(&segments);
        eprintln!("cluster-trace: {top} slowest journey(s):");
        for j in analysis.journeys.iter().take(top) {
            eprintln!(
                "  {} wall {} ms over {} hop(s), critical: {}",
                j.journey, j.wall_ms, j.hops, j.critical
            );
        }
    }
    if merged.violations.is_empty() {
        eprintln!("cluster-trace: causality clean");
        0
    } else {
        eprintln!(
            "cluster-trace: {} causality violation(s):",
            merged.violations.len()
        );
        for v in &merged.violations {
            eprintln!("  {v}");
        }
        1
    }
}

/// Collect flight segments for a trace-consuming subcommand: from
/// `--dumps` files when any were given, otherwise by live-polling the
/// running cluster named by the bootstrap file (station defaults to
/// `mon`). `Err` carries the exit code to return.
fn collect_segments(
    cmd: &str,
    dumps: &[&String],
    positional: &[&String],
    usage: &str,
) -> Result<Vec<naplet_obs::FlatSegment>, i32> {
    let segments: Vec<naplet_obs::FlatSegment> = if !dumps.is_empty() {
        let mut segments = Vec::new();
        for path in dumps {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{cmd}: cannot read `{path}`: {e}");
                    return Err(2);
                }
            };
            match naplet_obs::parse_flight_dump(&text) {
                Ok(seg) => segments.push(seg),
                Err(e) => {
                    eprintln!("{cmd}: `{path}` is not a flight dump: {e}");
                    return Err(2);
                }
            }
        }
        segments
    } else {
        let (mut poller, targets) = reach_cluster(cmd, positional, "mon", usage)?;
        match poller.fetch_traces(&targets, std::time::Duration::from_secs(10)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{cmd}: fetch failed: {e}");
                return Err(2);
            }
        }
    };
    if segments.is_empty() {
        eprintln!("{cmd}: no segments to merge");
        return Err(2);
    }
    Ok(segments)
}

/// Reach the running cluster named by the bootstrap file in
/// `positional[0]` for subcommand `cmd`: bind the station
/// (`positional[1]`, else `default_station`) and take every other node
/// as a target. `Err` carries the exit code to return.
fn reach_cluster(
    cmd: &str,
    positional: &[&String],
    default_station: &str,
    usage: &str,
) -> Result<(naplet_man::ClusterStatusPoller, Vec<String>), i32> {
    let Some(path) = positional.first() else {
        eprintln!("{usage}");
        return Err(2);
    };
    let station = positional.get(1).map_or(default_station, |s| s.as_str());
    let config = naplet_server::BootstrapConfig::load(std::path::Path::new(path)).map_err(|e| {
        eprintln!("{cmd}: cannot load `{path}`: {e}");
        2
    })?;
    let targets = config
        .nodes
        .iter()
        .map(|n| n.name.clone())
        .filter(|n| n != station)
        .collect();
    let poller = naplet_man::ClusterStatusPoller::connect(&config, station).map_err(|e| {
        eprintln!("{cmd}: cannot bind station `{station}`: {e}");
        2
    })?;
    Ok((poller, targets))
}

/// Split the deterministic chaos run's shared event stream into
/// per-host flight segments (complete, epoch 0) — the same ring
/// migration `figures trace` exports, in the shape the analyzer
/// consumes. Byte-identical across runs, so CI `cmp`s two of them and
/// `--diff`s against the committed attribution baseline
/// (`crates/obs/tests/fixtures/analyze-sim-baseline.json`).
fn sim_segments() -> Vec<naplet_obs::FlatSegment> {
    let out = traced_chaos_experiment(0.05, &[("s1", 10, 700)], 42);
    naplet_obs::FlatSegment::per_host(&out.obs.events)
}

/// `figures analyze` — the journey critical-path analyzer: partition
/// every journey's wall-clock into named segments (dwell, wire, queue,
/// stall, directory), blame the critical segment, and print per-segment
/// percentile tables plus the top-K slowest journeys.
///
/// ```text
/// figures analyze <bootstrap.toml> [station] [--out <f>] [--top <k>] [--slo <toml>]
/// figures analyze --dumps <file...> [--out <f>] [--top <k>] [--slo <toml>]
/// figures analyze --sim [--out <f>] [--top <k>] [--slo <toml>]
/// figures analyze --diff <before.json> <after.json>
/// ```
///
/// The first form live-polls a running cluster's flight recorders; the
/// second reads dump files; `--sim` analyzes the deterministic chaos
/// ring migration (the `figures trace` workload, byte-identical across
/// runs). The machine-readable report goes to `--out`
/// (default `analysis.json`, `-` for stdout in place of the text
/// report). `--slo <toml>` evaluates the `[slo]` budgets from a
/// bootstrap file against the analysis. `--diff` compares two saved
/// reports per segment. Exit 0 when clean; 1 on an SLO breach, a
/// regression, or a journey attributed below the 99% floor; 2 on
/// usage/IO errors — CI gates on all three.
fn analyze(rest: &[String]) -> i32 {
    const USAGE: &str = "usage: figures analyze <bootstrap.toml> [station] \
                         [--out <file>] [--top <k>] [--slo <bootstrap.toml>]\n\
                         \x20      figures analyze --dumps <file...> \
                         [--out <file>] [--top <k>] [--slo <bootstrap.toml>]\n\
                         \x20      figures analyze --sim \
                         [--out <file>] [--top <k>] [--slo <bootstrap.toml>]\n\
                         \x20      figures analyze --diff <before.json> <after.json>";
    let mut positional: Vec<&String> = Vec::new();
    let mut dumps: Vec<&String> = Vec::new();
    let mut in_dumps = false;
    let mut sim = false;
    let mut out_path = "analysis.json".to_string();
    let mut top: usize = 10;
    let mut slo_path: Option<String> = None;
    let mut diff: Option<(String, String)> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--dumps" => {
                in_dumps = true;
                i += 1;
            }
            "--sim" => {
                in_dumps = false;
                sim = true;
                i += 1;
            }
            "--out" => {
                in_dumps = false;
                let Some(v) = rest.get(i + 1) else {
                    eprintln!("analyze: --out needs a path\n{USAGE}");
                    return 2;
                };
                out_path = v.clone();
                i += 2;
            }
            "--top" => {
                in_dumps = false;
                let Some(v) = rest.get(i + 1).and_then(|v| v.parse().ok()) else {
                    eprintln!("analyze: --top needs a numeric argument\n{USAGE}");
                    return 2;
                };
                top = v;
                i += 2;
            }
            "--slo" => {
                in_dumps = false;
                let Some(v) = rest.get(i + 1) else {
                    eprintln!("analyze: --slo needs a bootstrap file\n{USAGE}");
                    return 2;
                };
                slo_path = Some(v.clone());
                i += 2;
            }
            "--diff" => {
                let (Some(a), Some(b)) = (rest.get(i + 1), rest.get(i + 2)) else {
                    eprintln!("analyze: --diff needs two report files\n{USAGE}");
                    return 2;
                };
                diff = Some((a.clone(), b.clone()));
                i += 3;
            }
            other if other.starts_with("--") => {
                eprintln!("analyze: unknown flag `{other}`\n{USAGE}");
                return 2;
            }
            _ => {
                if in_dumps {
                    dumps.push(&rest[i]);
                } else {
                    positional.push(&rest[i]);
                }
                i += 1;
            }
        }
    }

    // diff mode stands alone: compare two saved reports and exit
    if let Some((before_path, after_path)) = diff {
        let load = |path: &str| -> Result<naplet_obs::TraceAnalysis, i32> {
            let text = std::fs::read_to_string(path).map_err(|e| {
                eprintln!("analyze: cannot read `{path}`: {e}");
                2
            })?;
            naplet_obs::parse_analysis(&text).map_err(|e| {
                eprintln!("analyze: `{path}` is not an analysis report: {e}");
                2
            })
        };
        let (before, after) = match (load(&before_path), load(&after_path)) {
            (Ok(b), Ok(a)) => (b, a),
            (Err(c), _) | (_, Err(c)) => return c,
        };
        let report = naplet_obs::diff_analyses(&before, &after);
        print!("{}", report.render_text());
        return if report.has_regressions() {
            eprintln!("analyze: regressions detected between {before_path} and {after_path}");
            1
        } else {
            0
        };
    }

    let segments = if sim {
        sim_segments()
    } else {
        match collect_segments("analyze", &dumps, &positional, USAGE) {
            Ok(s) => s,
            Err(code) => return code,
        }
    };
    let analysis = naplet_obs::analyze_segments(&segments);
    if out_path == "-" {
        print!("{}", analysis.to_json());
    } else {
        print!("{}", analysis.render_text(top));
        if let Err(e) = std::fs::write(&out_path, analysis.to_json()) {
            eprintln!("analyze: cannot write `{out_path}`: {e}");
            return 2;
        }
        eprintln!("analyze: wrote {out_path}");
    }

    let mut failed = false;
    if analysis.min_attributed_pct_tenths < 990 {
        eprintln!(
            "analyze: worst journey attribution {}.{}% is below the 99% floor",
            analysis.min_attributed_pct_tenths / 10,
            analysis.min_attributed_pct_tenths % 10
        );
        failed = true;
    }
    if let Some(slo_path) = slo_path {
        let config = match naplet_server::BootstrapConfig::load(std::path::Path::new(&slo_path)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("analyze: cannot load `{slo_path}`: {e}");
                return 2;
            }
        };
        let Some(slo) = config.slo else {
            eprintln!("analyze: `{slo_path}` has no [slo] section");
            return 2;
        };
        let breaches = naplet_obs::check_slo(&analysis, &slo);
        if breaches.is_empty() {
            eprintln!("analyze: all SLO budgets met");
        } else {
            for b in &breaches {
                eprintln!("analyze: SLO breach: {b}");
            }
            failed = true;
        }
    }
    if failed {
        1
    } else {
        0
    }
}

/// `figures cluster-watch <bootstrap.toml> [station] [--watch <secs>
/// [--rounds <n>]] [--rows <n>]` — the live counterpart of `figures
/// watch`: page every daemon's metrics-history ring over the
/// privileged history protocol and print per-host rate tables of the
/// sweep-interval deltas (last `--rows` samples, default 10). With
/// `--watch` it re-polls every `<secs>` seconds. Exit 1 when any node
/// contributed nothing.
fn cluster_watch(rest: &[String]) -> i32 {
    const USAGE: &str = "usage: figures cluster-watch <bootstrap.toml> [station] \
                         [--watch <secs> [--rounds <n>]] [--rows <n>]";
    let mut positional: Vec<&String> = Vec::new();
    let mut watch_secs: Option<u64> = None;
    let mut rounds: u64 = 0; // 0 = unbounded while watching
    let mut rows: usize = 10;
    let mut i = 0;
    while i < rest.len() {
        let flag_value = |name: &str| -> Option<u64> {
            rest.get(i + 1).and_then(|v| v.parse().ok()).or_else(|| {
                eprintln!("cluster-watch: {name} needs a numeric argument\n{USAGE}");
                None
            })
        };
        match rest[i].as_str() {
            "--watch" => match flag_value("--watch") {
                Some(v) => {
                    watch_secs = Some(v);
                    i += 2;
                }
                None => return 2,
            },
            "--rounds" => match flag_value("--rounds") {
                Some(v) => {
                    rounds = v;
                    i += 2;
                }
                None => return 2,
            },
            "--rows" => match flag_value("--rows") {
                Some(v) => {
                    rows = v as usize;
                    i += 2;
                }
                None => return 2,
            },
            other if other.starts_with("--") => {
                eprintln!("cluster-watch: unknown flag `{other}`\n{USAGE}");
                return 2;
            }
            _ => {
                positional.push(&rest[i]);
                i += 1;
            }
        }
    }
    let (mut poller, targets) = match reach_cluster("cluster-watch", &positional, "mon", USAGE) {
        Ok(reached) => reached,
        Err(code) => return code,
    };
    let mut any_missing = false;
    let mut round: u64 = 0;
    loop {
        round += 1;
        let pages = match poller.fetch_metrics_history(&targets, std::time::Duration::from_secs(5))
        {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cluster-watch: fetch failed: {e}");
                return 2;
            }
        };
        println!("-- poll {round}: {} node(s) answered --", pages.len());
        print!(
            "{}",
            naplet_man::ClusterStatusPoller::render_rate_table(&pages, rows)
        );
        let heard: std::collections::BTreeSet<&str> =
            pages.iter().map(|p| p.host.as_str()).collect();
        for target in &targets {
            if !heard.contains(target.as_str()) {
                eprintln!("cluster-watch: no history from `{target}`");
                any_missing = true;
            }
        }
        let Some(secs) = watch_secs else { break };
        if rounds > 0 && round >= rounds {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
    if any_missing {
        1
    } else {
        0
    }
}

/// E9 — scheduling-policy ablation (§5.2 future work): journey time by
/// priority tier on a busy server.
fn exp_e9() {
    use naplet_server::SchedulingPolicy as Sp;
    println!(
        "== E9: scheduling policies — probe journey time (ms) on a server with 3 co-residents =="
    );
    println!(
        "{:>18} | {:>8} {:>8} {:>8}",
        "policy", "high", "normal", "low"
    );
    for (label, policy) in [
        ("fcfs", Sp::Fcfs),
        ("priority-sharing", Sp::PrioritySharing),
    ] {
        let t = |prio: Option<&str>| scheduling_experiment(policy, prio, 3, 42);
        println!(
            "{:>18} | {:>8} {:>8} {:>8}",
            label,
            t(Some("high")),
            t(None),
            t(Some("low"))
        );
    }
    println!();
}
