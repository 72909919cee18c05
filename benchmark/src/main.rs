//! `naplet-benchmark` — one closed-loop benchmark for the naplet
//! cluster. See `benchmark/README.md`; run through `benchmark/run.sh`,
//! which builds `napletd` and this binary first.
//!
//! ```text
//! naplet-benchmark --workload W --seed N --seconds S --trace 0|1   # one run, JSON last
//! naplet-benchmark [--repeat N] [--seed N] [--smoke]               # the whole set
//! naplet-benchmark --print-manifest                                # BENCHMARK.json
//! ```

mod cluster;
mod layers;
mod procfs;
mod pump;
mod ring;
mod sim;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use spec::Outcome;
use workloads::RunCfg;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Command-line flags: `--name value` pairs and bare `--name` switches.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {flag}")))
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// Run one workload once. In trace mode the workload runs briefly for
/// the counters only it can give, then the layer suite fills the rest.
fn run_one(workload: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = match workload {
        "tcp_ring_w1" => workloads::tcp_ring(cfg, 1),
        "tcp_ring_w16" => workloads::tcp_ring(cfg, 16),
        "live_ring_w16" => workloads::live_ring(cfg, 16, 256),
        "live_ring_64k" => workloads::live_ring(cfg, 4, 64 * 1024),
        "sim_ring" => sim::sim_ring(cfg),
        "sim_chase" => sim::sim_chase(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    if cfg.trace {
        layers::suite(workload, cfg, &mut out)?;
    }
    // keep the rows of this mode
    let declared = spec::declared(cfg.trace);
    out.metrics
        .retain(|name, _| declared.iter().any(|m| m.name == *name));
    Ok(out)
}

fn single(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args
        .parsed("--seconds")?
        .unwrap_or(spec::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let smoke = args.has("--smoke");
    if !spec::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let out_root = PathBuf::from("benchmark/out");
    let run_dir = out_root.join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("mkdir {run_dir:?}: {e}"))?;
    let cfg = RunCfg {
        seed,
        measure: Duration::from_secs_f64(if smoke { seconds.min(0.3) } else { seconds }),
        trace,
        smoke,
        out: run_dir.clone(),
    };
    let outcome = run_one(workload, &cfg)?;
    let line = spec::result_json(&outcome, trace)?;
    println!(
        "run workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &spec::declared(trace) {
        println!(
            "metric {} {:?} {}",
            m.name, outcome.metrics[&m.name], m.unit
        );
    }
    println!(
        "ops_attempted {} ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for v in outcome.violations.iter().take(20) {
        println!("violation {v}");
    }
    println!("{line}");
    if outcome.violations.is_empty() && outcome.failed == 0 {
        // scratch journals, bootstrap file and daemon logs go on success
        let _ = std::fs::remove_dir_all(&run_dir);
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "{} output-check violations, {} failed operations; scratch kept in {}",
            outcome.violations.len(),
            outcome.failed,
            run_dir.display()
        );
        Ok(if outcome.violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = if args.has("--print-manifest") {
        print!("{}", spec::manifest());
        Ok(ExitCode::SUCCESS)
    } else if let Some(workload) = args.value("--workload") {
        single(&args, workload)
    } else {
        suite::run(&args)
    };
    result.unwrap_or_else(|e| {
        eprintln!("naplet-benchmark: {e}");
        ExitCode::FAILURE
    })
}
