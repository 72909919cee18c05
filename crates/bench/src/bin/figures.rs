//! Regenerate every figure/table of EXPERIMENTS.md: the paper's
//! Figures 1-3 and experiments E1-E10. The ops views of a cluster live
//! in the `naplet-ops` binary.
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

/// Every figure, in the order EXPERIMENTS.md prints them.
const FIGURES: [(&str, fn()); 13] = [
    ("f1", fig_f1),
    ("f2", fig_f2),
    ("f3", fig_f3),
    ("e1", exp_e1),
    ("e2", exp_e2),
    ("e3", exp_e3),
    ("e4", exp_e4),
    ("e5", exp_e5),
    ("e6", exp_e6),
    ("e7", exp_e7),
    ("e8", exp_e8),
    ("e9", exp_e9),
    ("e10", exp_e10),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| !FIGURES.iter().any(|(name, _)| name == a))
    {
        eprintln!(
            "figures: unknown figure `{bad}`\n\
             usage: figures [f1 f2 f3 e1 e2 e3 e4 e5 e6 e7 e8 e9 e10]  (none: all of them)"
        );
        std::process::exit(2);
    }
    for (name, figure) in FIGURES {
        if args.is_empty() || args.iter().any(|a| a == name) {
            figure();
        }
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
    rt.enable_tracing();
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
    // the components' events; the frames under them are in `naplet-ops trace`
    let mut events = rt.obs().tracer.events();
    events.retain(|e| !e.kind.name().starts_with("wire."));
    println!("{}", naplet_obs::render_event_log(&events));
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
