//! The four wall-clock ring workloads: the same closed loop over real
//! daemons (`tcp_ring_*`) and over in-process server threads
//! (`live_ring_*`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use naplet_net::{Bandwidth, Fabric, LatencyModel, TcpTransport, ThreadedNet, Transport};
use naplet_server::{LiveRuntime, LocationMode};

use crate::cluster::Cluster;
use crate::procfs;
use crate::pump::{Clock, Pumped, Shared};
use crate::ring::{
    closed_loop, ctl_config, expect_reports, host_config, launch_one, Mint, Tracker, CTL,
    JOURNEY_TIMEOUT, RING,
};
use crate::spec::Outcome;
use crate::stats::{median, quantile};

/// What every workload is told.
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured interval.
    pub measure: Duration,
    /// The traced run: also take the readings that need idle time.
    pub trace: bool,
    /// Shrink everything to well under a second (schema checks only).
    pub smoke: bool,
    /// Scratch directory of this run, removed on success.
    pub out: PathBuf,
}

/// A run is this many slices, each on a freshly set-up space, and
/// every metric is the median over them: one disturbed slice moves one
/// sample, not the result, and set-up is timed once per slice. Fresh
/// spaces also bound how far a journal directory grows, which today
/// slows a daemon down the longer it runs (see the README).
const SLICES: usize = 5;

/// One untimed journey: dials every connection and faults every code
/// path in before the clock starts.
fn warm_up<T: Transport>(ctl: &mut Pumped<T>, mint: &mut Mint) -> Result<(), String> {
    let mut tracker = Tracker::new(JOURNEY_TIMEOUT, false);
    launch_one(ctl, mint, &mut tracker, &expect_reports(&RING));
    while tracker.in_flight() > 0 {
        ctl.wait(Duration::from_millis(1));
        tracker.collect(&mut ctl.server);
    }
    if tracker.failed > 0 || !tracker.violations.is_empty() {
        return Err(format!(
            "warm-up journey did not complete: {:?}",
            tracker.violations
        ));
    }
    Ok(())
}

/// CPU readings around a measured interval.
struct CpuProbe {
    daemons: Vec<u32>,
    process_ms: f64,
    main_thread_ms: f64,
    daemons_ms: f64,
}

impl CpuProbe {
    fn start(daemons: Vec<u32>) -> CpuProbe {
        let daemons_ms = daemons.iter().map(|&p| procfs::process_cpu_ms(p)).sum();
        CpuProbe {
            daemons,
            process_ms: procfs::process_cpu_ms(std::process::id()),
            main_thread_ms: procfs::main_thread_cpu_ms(),
            daemons_ms,
        }
    }

    /// CPU ms since start of (the generator: this process's main
    /// thread, which pumps; the serving side: every other thread of
    /// this process plus the daemons).
    fn elapsed(&self) -> (f64, f64) {
        let now = CpuProbe::start(self.daemons.clone());
        let main = now.main_thread_ms - self.main_thread_ms;
        let process = now.process_ms - self.process_ms;
        (main, process - main + now.daemons_ms - self.daemons_ms)
    }
}

/// A ring of three servers plus the generator, set up from nothing.
trait RingSpace: Sized {
    type Net: Transport;
    /// Build the space and run the warm-up journey.
    fn setup(cfg: &RunCfg, slice: usize, mint: &mut Mint) -> Result<Self, String>;
    fn ctl(&mut self) -> &mut Pumped<Self::Net>;
    /// Daemon processes, when the servers are not threads of this one.
    fn daemons(&self) -> Vec<u32>;
    /// Where the journals live (for the environment block).
    fn journal_dir(&self) -> PathBuf;
    /// Stop everything; returns output-check violations.
    fn teardown(self) -> Vec<String>;
}

/// What one slice measured.
struct Slice {
    rate: f64,
    p50: f64,
    p99: f64,
    cpu_ms_per_journey: f64,
    journeys: u64,
    wall: Duration,
    busy: Duration,
    generator_cpu_ms: f64,
    serving_cpu_ms: f64,
    /// Peak resident memory of generator plus daemons, MiB.
    rss_mb: f64,
    table_regressions: u64,
    reordered_reports: u64,
    net: naplet_net::StatsSnapshot,
}

fn run_slice<S: RingSpace>(
    space: &mut S,
    mint: &mut Mint,
    window: usize,
    length: Duration,
    out: &mut Outcome,
) -> Slice {
    let daemons = space.daemons();
    let ctl = space.ctl();
    let mut tracker = Tracker::new(JOURNEY_TIMEOUT, false);
    let net0 = ctl.net().stats().snapshot();
    let busy0 = ctl.busy;
    let cpu = CpuProbe::start(daemons.clone());
    let started = closed_loop(ctl, mint, &mut tracker, window, length);
    let wall = started.elapsed();
    let (generator_cpu_ms, serving_cpu_ms) = cpu.elapsed();
    let latencies = tracker.latencies_ms();
    let journeys = latencies.len() as u64;
    // the tail that drained after the interval closed was served too,
    // but only completions inside the interval count towards the rate
    let in_interval = tracker
        .done
        .iter()
        .filter(|(at, _)| at.duration_since(started) <= length)
        .count();
    out.attempted += tracker.attempted;
    out.failed += tracker.failed;
    out.violations.append(&mut tracker.violations);
    out.notes
        .extend(tracker.failures.drain(..).map(|f| format!("failed {f}")));
    Slice {
        table_regressions: tracker.table_regressions,
        reordered_reports: tracker.reordered_reports,
        rate: in_interval as f64 / length.as_secs_f64(),
        p50: quantile(&latencies, 0.50),
        p99: quantile(&latencies, 0.99),
        cpu_ms_per_journey: (generator_cpu_ms + serving_cpu_ms) / journeys.max(1) as f64,
        journeys,
        wall,
        busy: ctl.busy - busy0,
        generator_cpu_ms,
        serving_cpu_ms,
        rss_mb: daemons
            .into_iter()
            .chain([std::process::id()])
            .map(procfs::peak_rss_mb)
            .sum(),
        net: ctl.net().stats().snapshot().since(&net0),
    }
}

/// The closed loop over `S`, slice by slice, into an outcome:
/// end-to-end metrics plus the per-layer rows that are counters of
/// this run.
fn ring_workload<S: RingSpace>(
    cfg: &RunCfg,
    window: usize,
    ballast: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut mint = Mint::new(cfg.seed, ballast);
    let slices = if cfg.smoke { 2 } else { SLICES };
    let length = cfg.measure / slices as u32;
    let mut setup_s = Vec::new();
    let mut done: Vec<Slice> = Vec::new();
    for i in 0..slices {
        let t0 = Instant::now();
        let mut space = S::setup(cfg, i, &mut mint)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            out.notes.extend(procfs::environment(&space.journal_dir()));
            if cfg.trace {
                // idle polling is stolen capacity once four processes
                // share two cores: CPU of three servers with nothing to do
                let idle = if cfg.smoke { 0.2 } else { 2.0 };
                let cpu = CpuProbe::start(space.daemons());
                std::thread::sleep(Duration::from_secs_f64(idle));
                out.set("napletd.idle_cpu_ms_per_s", cpu.elapsed().1 / idle);
            }
        }
        done.push(run_slice(&mut space, &mut mint, window, length, &mut out));
        out.violations.extend(space.teardown());
    }

    let med = |f: fn(&Slice) -> f64| median(&mut done.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", median(&mut setup_s));
    out.set("journeys_per_s", med(|s| s.rate));
    out.set("journey_ms_p50", med(|s| s.p50));
    out.set("journey_ms_p99", med(|s| s.p99));
    out.set("cpu_ms_per_journey", med(|s| s.cpu_ms_per_journey));

    let journeys = done.iter().map(|s| s.journeys).sum::<u64>().max(1) as f64;
    let total = |f: fn(&Slice) -> f64| done.iter().map(f).sum::<f64>();
    out.set("journey.samples", journeys);
    out.set(
        "ctl.cpu_ms_per_journey",
        total(|s| s.generator_cpu_ms) / journeys,
    );
    out.set(
        "napletd.cpu_ms_per_journey",
        total(|s| s.serving_cpu_ms) / journeys,
    );
    out.set(
        "ctl.pump_busy_share",
        total(|s| s.busy.as_secs_f64()) / total(|s| s.wall.as_secs_f64()),
    );
    out.set(
        "proc.peak_rss_mb",
        done.iter().map(|s| s.rss_mb).fold(0.0, f64::max),
    );
    // what the generator's endpoint put on the wire
    let msgs = total(|s| s.net.total_messages() as f64);
    let bytes = total(|s| s.net.total_bytes() as f64);
    out.set("net.tcp.msgs_per_journey", msgs / journeys);
    out.set("net.tcp.bytes_per_journey", bytes / journeys);
    out.set("net.tcp.dropped", total(|s| s.net.dropped as f64));
    out.set("net.tcp.retransmits", total(|s| s.net.retransmits as f64));
    let reordered: u64 = done.iter().map(|s| s.reordered_reports).sum();
    if reordered > 0 {
        out.notes.push(format!(
            "note: {reordered} reports overtook an earlier stop's (each stop reports on its own connection)"
        ));
    }
    let regressions: u64 = done.iter().map(|s| s.table_regressions).sum();
    if regressions > 0 {
        out.notes.push(format!(
            "note: for {regressions} journeys the home table fell back from Completed \
             (a late departure registration overtook the completion notice)"
        ));
    }
    out.notes.push(format!(
        "closed loop, window {window}, {slices} slices of {:.2} s on fresh spaces: {journeys} journeys; per slice journeys/s {:?}, p99 ms {:?}",
        length.as_secs_f64(),
        done.iter().map(|s| s.rate.round()).collect::<Vec<_>>(),
        done.iter().map(|s| (s.p99 * 10.0).round() / 10.0).collect::<Vec<_>>(),
    ));
    Ok(out)
}

struct TcpSpace {
    cluster: Cluster,
    ctl: Pumped<TcpTransport>,
}

impl RingSpace for TcpSpace {
    type Net = TcpTransport;

    fn setup(cfg: &RunCfg, slice: usize, mint: &mut Mint) -> Result<Self, String> {
        let cluster = Cluster::launch(&cfg.out.join(format!("cluster{slice}")))?;
        let tcp = cluster
            .config
            .tcp_config(CTL)
            .and_then(TcpTransport::start)
            .map_err(|e| format!("ctl transport: {e}"))?;
        let mut ctl = Pumped::new(
            ctl_config(LocationMode::HomeManagers),
            tcp,
            Clock::Wall(Instant::now()),
        );
        warm_up(&mut ctl, mint)?;
        Ok(TcpSpace { cluster, ctl })
    }

    fn ctl(&mut self) -> &mut Pumped<TcpTransport> {
        &mut self.ctl
    }

    fn daemons(&self) -> Vec<u32> {
        self.cluster.pids()
    }

    fn journal_dir(&self) -> PathBuf {
        self.cluster.dir.clone()
    }

    fn teardown(mut self) -> Vec<String> {
        // the generator's endpoint closes first, or the daemons'
        // shutdown waits on its connections
        drop(self.ctl);
        if self.cluster.shutdown() {
            Vec::new()
        } else {
            vec!["a daemon did not exit cleanly on SIGTERM".into()]
        }
    }
}

/// `tcp_ring_w1` / `tcp_ring_w16`: three daemon processes, 256 B
/// agents, memory journals — sockets and the server loop are what a
/// journey waits for (file journals: see the README's finding 3).
pub fn tcp_ring(cfg: &RunCfg, window: usize) -> Result<Outcome, String> {
    ring_workload::<TcpSpace>(cfg, window, 256)
}

struct LiveSpace {
    live: LiveRuntime<Shared<ThreadedNet>>,
    ctl: Pumped<Shared<ThreadedNet>>,
}

impl RingSpace for LiveSpace {
    type Net = Shared<ThreadedNet>;

    fn setup(cfg: &RunCfg, _slice: usize, mint: &mut Mint) -> Result<Self, String> {
        // modelled link delay is scaled to zero real sleep: frames are
        // delivered on the sender's thread
        let fabric = Fabric::new(
            LatencyModel::Constant(1),
            Bandwidth::fast_ethernet(),
            cfg.seed,
        );
        let net = Shared(Arc::new(ThreadedNet::start(fabric, 0)));
        let mut live = LiveRuntime::over(net.clone());
        for host in RING {
            live.add_server(host_config(host, LocationMode::HomeManagers));
        }
        live.start();
        let mut ctl = Pumped::new(
            ctl_config(LocationMode::HomeManagers),
            net,
            Clock::Wall(Instant::now()),
        );
        warm_up(&mut ctl, mint)?;
        Ok(LiveSpace { live, ctl })
    }

    fn ctl(&mut self) -> &mut Pumped<Shared<ThreadedNet>> {
        &mut self.ctl
    }

    fn daemons(&self) -> Vec<u32> {
        Vec::new()
    }

    fn journal_dir(&self) -> PathBuf {
        PathBuf::from(".") // memory journals; nothing is written
    }

    fn teardown(self) -> Vec<String> {
        drop(self.ctl);
        let servers = self.live.shutdown();
        if servers.len() == RING.len() {
            Vec::new()
        } else {
            vec![format!("{} of 3 server threads came back", servers.len())]
        }
    }
}

/// `live_ring_w16` / `live_ring_64k`: `LiveRuntime` server threads over
/// `ThreadedNet`, memory journals.
pub fn live_ring(cfg: &RunCfg, window: usize, ballast: usize) -> Result<Outcome, String> {
    let mut out = ring_workload::<LiveSpace>(cfg, window, ballast)?;
    // what `ring_workload` read are the fabric's counters over every
    // host; no socket was involved, so the tcp rows are zero
    for row in [
        "msgs_per_journey",
        "bytes_per_journey",
        "dropped",
        "retransmits",
    ] {
        out.set(&format!("net.tcp.{row}"), 0.0);
    }
    Ok(out)
}
