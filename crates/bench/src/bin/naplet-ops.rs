//! `naplet-ops`: the ops views of a naplet cluster — health, interval
//! metrics, one merged trace, the journey critical path and the
//! Prometheus page — read from the seeded simulator run, from the dump
//! files `napletd` leaves behind, or live from a running cluster.
//!
//! ```text
//! cargo run --release -p naplet-bench --bin naplet-ops -- --help
//! ```

use std::time::Duration;

use naplet_bench::ops::{collect_segments, reach_cluster, ClusterStatusPoller, Source};
use naplet_bench::{traced_chaos_experiment, watched_chaos_experiment, RingWorld};
use naplet_core::clock::Millis;
use naplet_server::{BootstrapConfig, LocationMode, StatusReport};

const USAGE: &str = "\
usage: naplet-ops <command> <source> [options]

commands:
  status   node health table; live, --watch <secs> [--rounds <n>] then
           prints what changed between polls
  watch    interval metrics; live, per-node rate tables [--rows <n>]
  trace    the nodes' flight records merged into one Chrome trace
           [--out <file|->] [--tolerance-ms <n>] [--top <n>]
  analyze  where each journey's time went
           [--out <file|->] [--top <n>] [--slo <bootstrap.toml>],
           or --diff <before.json> <after.json> in place of a source
  prom     Prometheus text exposition (--sim only)

sources:
  --sim                        the seeded chaos run in the simulator
  --dumps <file...>            flight dumps napletd wrote
  <bootstrap.toml> [station]   poll a running cluster from a spare node
                               (default station: ctl for status, else mon)

exit: 0 clean; 1 a finding (a node missed a poll, a causality
violation, an SLO breach, a regression); 2 a usage or IO error";

#[derive(Clone, Copy)]
enum Cmd {
    Status,
    Watch,
    Trace,
    Analyze,
    Prom,
}

impl Cmd {
    /// The prefix of everything the command writes to stderr: the name
    /// the live view had as a `figures` subcommand, so logs and the
    /// scripts that read them see the same lines.
    fn tag(self) -> &'static str {
        match self {
            Cmd::Status => "cluster-status",
            Cmd::Watch => "cluster-watch",
            Cmd::Trace => "cluster-trace",
            Cmd::Analyze => "analyze",
            Cmd::Prom => "prom",
        }
    }
}

/// One checked command line.
struct Args {
    cmd: Cmd,
    /// `None` only for `analyze --diff`.
    source: Option<Source>,
    diff: Option<(String, String)>,
    out: Option<String>,
    top: Option<usize>,
    slo: Option<String>,
    tolerance_ms: u64,
    watch: Option<u64>,
    rounds: u64,
    rows: usize,
}

/// Read the command line: the command, one source, then the options
/// that command takes from that source. Every non-flag argument after
/// `--dumps` is a dump file.
fn parse(raw: &[String]) -> Result<Args, String> {
    let (word, rest) = raw.split_first().ok_or("no command given")?;
    let cmd = match word.as_str() {
        "status" => Cmd::Status,
        "watch" => Cmd::Watch,
        "trace" => Cmd::Trace,
        "analyze" => Cmd::Analyze,
        "prom" => Cmd::Prom,
        other => return Err(format!("unknown command `{other}`")),
    };
    let mut a = Args {
        cmd,
        source: None,
        diff: None,
        out: None,
        top: None,
        slo: None,
        tolerance_ms: 5,
        watch: None,
        rounds: 0,
        rows: 10,
    };
    let (mut sim, mut dumps, mut cluster, mut flags) = (false, None, Vec::new(), Vec::new());
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let mut value = || rest.next().cloned().ok_or(format!("`{arg}` needs a value"));
        let number = |v: String| v.parse().map_err(|_| format!("`{arg}` needs a number"));
        match arg.as_str() {
            "--sim" => sim = true,
            "--dumps" => dumps = dumps.or(Some(Vec::new())),
            "--out" => a.out = Some(value()?),
            "--slo" => a.slo = Some(value()?),
            "--top" => a.top = Some(number(value()?)? as usize),
            "--tolerance-ms" => a.tolerance_ms = number(value()?)?,
            "--watch" => a.watch = Some(number(value()?)?),
            "--rounds" => a.rounds = number(value()?)?,
            "--rows" => a.rows = number(value()?)? as usize,
            "--diff" => a.diff = Some((value()?, value()?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ => match dumps.as_mut() {
                Some(files) => files.push(arg.clone()),
                None => cluster.push(arg.clone()),
            },
        }
        if !matches!(arg.as_str(), "--sim" | "--dumps") && arg.starts_with('-') {
            flags.push(arg.as_str());
        }
    }
    let given = [sim, dumps.is_some(), !cluster.is_empty(), a.diff.is_some()];
    if given.into_iter().filter(|g| *g).count() > 1 {
        return Err("give one source: --sim, --dumps, a bootstrap file or --diff".into());
    }
    a.source = match (sim, dumps, cluster.as_slice()) {
        (true, ..) => Some(Source::Sim),
        (_, Some(files), _) if files.is_empty() => return Err("`--dumps` needs a file".into()),
        (_, Some(files), _) => Some(Source::Dumps(files)),
        (_, _, []) => None,
        (_, _, [config]) => Some(Source::Cluster(config.clone(), None)),
        (_, _, [config, station]) => Some(Source::Cluster(config.clone(), Some(station.clone()))),
        (_, _, [.., extra]) => return Err(format!("unexpected argument `{extra}`")),
    };
    let takes: &[&str] = match (cmd, &a.source) {
        (Cmd::Analyze, None) if a.diff.is_some() => &["--diff"],
        (_, None) => return Err(format!("`{word}` needs a source")),
        (Cmd::Analyze, Some(_)) => &["--out", "--top", "--slo"],
        (Cmd::Trace, Some(Source::Sim)) => &[],
        (Cmd::Trace, Some(_)) => &["--out", "--tolerance-ms", "--top"],
        (Cmd::Status, Some(Source::Cluster(..))) => &["--watch", "--rounds"],
        (Cmd::Watch, Some(Source::Cluster(..))) => &["--watch", "--rounds", "--rows"],
        (Cmd::Status | Cmd::Watch | Cmd::Prom, Some(Source::Sim)) => &[],
        _ => return Err(format!("`{word}` cannot read that source")),
    };
    match flags.into_iter().find(|flag| !takes.contains(flag)) {
        Some(flag) => Err(format!(
            "`{flag}` does not apply to `{word}` from that source"
        )),
        None => Ok(a),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let code = match parse(&raw) {
        Ok(args) => run(&args).unwrap_or_else(|e| {
            eprintln!("{}: {e}", args.cmd.tag());
            2
        }),
        Err(e) => {
            eprintln!("naplet-ops: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Run one checked command; `Err` is an IO or setup failure (exit 2).
fn run(a: &Args) -> Result<i32, String> {
    let Some(source) = &a.source else {
        let (before, after) = a.diff.as_ref().expect("no source means --diff");
        return diff(before, after);
    };
    match (a.cmd, source) {
        (Cmd::Analyze, _) => analyze(a, source),
        (Cmd::Trace, Source::Sim) => {
            let out = traced_chaos_experiment(0.05, &[("s1", 10, 700)], 42);
            println!("{}", out.chrome_json);
            Ok(0)
        }
        (Cmd::Trace, _) => cluster_trace(a, source),
        (Cmd::Status, Source::Sim) => Ok(sim_status()),
        (Cmd::Watch, Source::Sim) => Ok(sim_watch()),
        (Cmd::Prom, _) => {
            let out = watched_chaos_experiment(0.05, &[("s1", 10, 700)], 200, 42);
            print!("{}", naplet_obs::prometheus_text(&out.obs.metrics));
            Ok(0)
        }
        (Cmd::Status | Cmd::Watch, Source::Dumps(_)) => unreachable!("parse admits no dumps here"),
        (Cmd::Status, Source::Cluster(config, station)) => {
            let station = station.as_deref().unwrap_or("ctl");
            let (mut poller, targets) = reach_cluster(config, station)?;
            let mut previous: Option<Vec<StatusReport>> = None;
            every_round(a, "no reply from", &targets, |round| {
                let timeout = Duration::from_secs(5);
                let reports = poller
                    .poll(&targets, timeout)
                    .map_err(|e| format!("poll failed: {e}"))?;
                match &previous {
                    None => print!("{}", ClusterStatusPoller::render_table(&reports)),
                    Some(prev) => {
                        let diffs = ClusterStatusPoller::diff_reports(prev, &reports);
                        println!("-- poll {round}: {} change(s) --", diffs.len());
                        for line in &diffs {
                            println!("  {line}");
                        }
                    }
                }
                let heard = reports.iter().map(|r| r.host.clone()).collect();
                previous = Some(reports);
                Ok(heard)
            })
        }
        (Cmd::Watch, Source::Cluster(config, station)) => {
            let station = station.as_deref().unwrap_or("mon");
            let (mut poller, targets) = reach_cluster(config, station)?;
            every_round(a, "no history from", &targets, |round| {
                let timeout = Duration::from_secs(5);
                let pages = poller
                    .fetch_metrics_history(&targets, timeout)
                    .map_err(|e| format!("fetch failed: {e}"))?;
                println!("-- poll {round}: {} node(s) answered --", pages.len());
                print!("{}", ClusterStatusPoller::render_rate_table(&pages, a.rows));
                Ok(pages.into_iter().map(|p| p.host).collect())
            })
        }
    }
}

/// Poll a live cluster once, or every `--watch` seconds (forever, or
/// `--rounds` times). `poll(round)` prints one round and returns the
/// hosts that answered. Exit 1 when any round missed a target, so CI
/// can use either mode as a health gate.
fn every_round(
    a: &Args,
    missing: &str,
    targets: &[String],
    mut poll: impl FnMut(u64) -> Result<Vec<String>, String>,
) -> Result<i32, String> {
    let mut any_missing = false;
    for round in 1.. {
        let heard = poll(round)?;
        for target in targets.iter().filter(|t| !heard.contains(t)) {
            eprintln!("{}: {missing} `{target}`", a.cmd.tag());
            any_missing = true;
        }
        let Some(secs) = a.watch else { break };
        if a.rounds > 0 && round >= a.rounds {
            break;
        }
        std::thread::sleep(Duration::from_secs(secs));
    }
    Ok(i32::from(any_missing))
}

/// The cluster health table over the simulator: one probe walking the
/// ring, a mid-flight status sweep (agent resident, journal lag live)
/// and the quiescent end state.
fn sim_status() -> i32 {
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
    0
}

/// Two polls of the stalled chaos journey in the simulator, with the
/// interval metrics diff between them (what changed since last poll).
fn sim_watch() -> i32 {
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
    0
}

/// Merge every node's flight segment into one cluster-wide Chrome trace
/// (default `cluster-trace.json`, `-` for stdout) and flag causality
/// violations: a receive with no earlier matching send, a gap in a
/// journey's hop sequence. Exit 1 when any was flagged.
fn cluster_trace(a: &Args, source: &Source) -> Result<i32, String> {
    let segments = collect_segments(source)?;
    let merged = naplet_obs::merge_cluster_trace(&segments, a.tolerance_ms);
    let out_path = a.out.as_deref().unwrap_or("cluster-trace.json");
    if out_path == "-" {
        print!("{}", merged.json);
    } else {
        std::fs::write(out_path, &merged.json)
            .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
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
    let top = a.top.unwrap_or(0);
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
        return Ok(0);
    }
    let n = merged.violations.len();
    eprintln!("cluster-trace: {n} causality violation(s):");
    for v in &merged.violations {
        eprintln!("  {v}");
    }
    Ok(1)
}

/// The journey critical-path analyzer: partition every journey's
/// wall-clock into named segments (dwell, wire, queue, stall,
/// directory), blame the critical one, and print per-segment
/// percentiles plus the `--top` slowest journeys. The report goes to
/// `--out` (default `analysis.json`; `-` prints it in place of the text).
/// Exit 1 on an SLO breach or a journey attributed below the 99% floor.
fn analyze(a: &Args, source: &Source) -> Result<i32, String> {
    let analysis = naplet_obs::analyze_segments(&collect_segments(source)?);
    let out_path = a.out.as_deref().unwrap_or("analysis.json");
    if out_path == "-" {
        print!("{}", analysis.to_json());
    } else {
        print!("{}", analysis.render_text(a.top.unwrap_or(10)));
        std::fs::write(out_path, analysis.to_json())
            .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
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
    if let Some(slo_path) = &a.slo {
        let config = BootstrapConfig::load(std::path::Path::new(slo_path))
            .map_err(|e| format!("cannot load `{slo_path}`: {e}"))?;
        let slo = config
            .slo
            .ok_or(format!("`{slo_path}` has no [slo] section"))?;
        let breaches = naplet_obs::check_slo(&analysis, &slo);
        if breaches.is_empty() {
            eprintln!("analyze: all SLO budgets met");
        }
        for b in &breaches {
            eprintln!("analyze: SLO breach: {b}");
            failed = true;
        }
    }
    Ok(i32::from(failed))
}

/// Compare two saved analysis reports per segment; exit 1 on a
/// regression.
fn diff(before_path: &str, after_path: &str) -> Result<i32, String> {
    let load = |path: &str| {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        naplet_obs::parse_analysis(&text)
            .map_err(|e| format!("`{path}` is not an analysis report: {e}"))
    };
    let report = naplet_obs::diff_analyses(&load(before_path)?, &load(after_path)?);
    print!("{}", report.render_text());
    if !report.has_regressions() {
        return Ok(0);
    }
    eprintln!("analyze: regressions detected between {before_path} and {after_path}");
    Ok(1)
}
