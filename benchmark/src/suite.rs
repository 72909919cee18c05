//! The whole set from one command: every workload untraced, then one
//! traced run per workload, repeated `--repeat` times on the same
//! build, each run in a child process under a hard deadline.
//!
//! Prints every metric by name with its unit, its value in each set,
//! the median and the spread, and fails when an end-to-end metric
//! leaves its own bound between sets or an exact count differs.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::spec::{self, Metric, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::Args;

/// Rows that must repeat exactly between sets with one seed, on the
/// workloads that run in virtual time.
const EXACT: &[&str] = &[
    "server.runtime.events_per_journey",
    "server.runtime.virtual_ms",
    "wire.bytes_per_hop",
    "wire.msgs_per_hop",
    "server.messenger.post_confirm_ms_p50",
    "server.messenger.post_confirm_ms_p99",
    "server.repl.commits",
];

struct Run {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Run one workload in a child process; a child that outlives
/// `deadline` is killed and counts as a failed run.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    deadline: Duration,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Ok(None) => {
                // its daemons die with it (parent-death signal)
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "{workload} (trace {}) hit its hard deadline of {:.0} s and was killed",
                    u8::from(trace),
                    deadline.as_secs_f64()
                ));
            }
            Err(e) => return Err(format!("wait {workload}: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}:\n{text}",
            u8::from(trace)
        ));
    }
    let mut run = Run {
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value, _unit] => {
                let v = value
                    .parse()
                    .map_err(|_| format!("{workload}: bad value in `{line}`"))?;
                run.metrics.insert(name.to_string(), v);
            }
            ["ops_attempted", a, "ops_failed", f] => {
                run.attempted = a.parse().map_err(|_| format!("bad count in `{line}`"))?;
                run.failed = f.parse().map_err(|_| format!("bad count in `{line}`"))?;
            }
            ["env", ..] if !trace => println!("  {line}"),
            _ => {}
        }
    }
    Ok(run)
}

/// `value` is worse than `base` by more than `bound` of `base`.
fn worse_by(metric: &Metric, base: f64, value: f64, bound: f64) -> bool {
    match metric.better {
        "lower" => value > base * (1.0 + bound),
        _ => value < base * (1.0 - bound),
    }
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let repeat: usize = args.parsed("--repeat")?.unwrap_or(2).max(1);
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let smoke = args.has("--smoke");
    let seconds: f64 =
        args.parsed("--seconds")?
            .unwrap_or(if smoke { 0.3 } else { spec::RUN_SECONDS as f64 });
    // ≤ 3× the nominal length of a run (its interval plus set-up,
    // warm-up and drain), so a wedged cluster costs seconds, not minutes
    let deadline = Duration::from_secs_f64(3.0 * (seconds + 10.0));
    let (e2e, layers) = (spec::end_to_end(), spec::per_layer());

    // results[workload][metric] = one value per set
    let mut results: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut problems: Vec<String> = Vec::new();
    for set in 0..repeat {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                println!(
                    "set {}/{repeat}: {workload} trace {} seed {seed} ...",
                    set + 1,
                    u8::from(trace)
                );
                let run = child(workload, seed, seconds, trace, smoke, deadline)?;
                let declared = if trace { &layers } else { &e2e };
                for m in declared {
                    match run.metrics.get(&m.name) {
                        Some(v) => results
                            .entry(workload)
                            .or_default()
                            .entry(m.name.clone())
                            .or_default()
                            .push(*v),
                        None => problems.push(format!("{workload}: `{}` was not emitted", m.name)),
                    }
                }
                if run.failed > 0 {
                    problems.push(format!(
                        "{workload} (trace {}): {} of {} operations failed",
                        u8::from(trace),
                        run.failed,
                        run.attempted
                    ));
                }
            }
        }
    }

    for (workload, why) in WORKLOADS {
        println!("\n== {workload}: {why}");
        let rows = &results[workload];
        for m in e2e.iter().chain(layers.iter()) {
            let Some(values) = rows.get(&m.name) else {
                continue;
            };
            let med = median(&mut values.clone());
            let spread = if values.len() >= 4 {
                iqr_share(values)
            } else if med != 0.0 {
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
                (hi - lo) / med.abs()
            } else {
                0.0
            };
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            println!(
                "{:<40} {:<9} {}  median {med:.4}  spread {:.1}%{bound}",
                m.name,
                m.unit,
                shown.join(" "),
                spread * 100.0
            );
            if smoke {
                continue; // schema and checks only: no timing assertion
            }
            if let Some(bound) = m.bound {
                for (set, v) in values.iter().enumerate().skip(1) {
                    if worse_by(m, values[0], *v, bound) {
                        problems.push(format!(
                            "{workload}: {} left its bound between sets: {} in set 1, {v} in set {}",
                            m.name,
                            values[0],
                            set + 1
                        ));
                    }
                }
            }
            let virtual_time = workload.starts_with("sim_");
            if virtual_time
                && EXACT.contains(&m.name.as_str())
                && values.iter().any(|v| *v != values[0])
            {
                problems.push(format!(
                    "{workload}: {} must repeat exactly for seed {seed}, got {values:?}",
                    m.name
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("\nall checks passed ({repeat} set(s), seed {seed})");
        Ok(ExitCode::SUCCESS)
    } else {
        println!();
        for p in &problems {
            println!("FAILED {p}");
        }
        Ok(ExitCode::FAILURE)
    }
}
