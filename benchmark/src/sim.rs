//! The two virtual-time workloads on `SimRuntime`: one thread, no
//! sockets, polls or scheduler — pure CPU of the server core, and the
//! only workloads whose counts repeat exactly for a seed.
//!
//! Each runs as a series of fresh, seeded iterations until the
//! measured interval is used up; rates come from the median iteration.
//! The first two iterations share one seed and must agree on every
//! count, which is the determinism check.

use std::time::{Duration, Instant};

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_core::message::{Payload, Sender};
use naplet_core::value::Value;
use naplet_net::{Bandwidth, Fabric, LatencyModel};
use naplet_server::{register_probe, LocationMode, NapletServer, ServerConfig, SimRuntime};

use crate::procfs;
use crate::ring::{expect_reports, Mint, Tracker, CTL};
use crate::spec::Outcome;
use crate::stats::{median, quantile, SplitMix};
use crate::trace;
use crate::workloads::RunCfg;

/// A journey still unfinished after this much wall time inside one
/// iteration is cut off; iterations last a second or two.
const SIM_TIMEOUT: Duration = Duration::from_secs(60);

fn sim_host(host: &str, mode: &LocationMode, dwell_ms: u64) -> ServerConfig {
    let mut cfg = ServerConfig::open(host, mode.clone());
    register_probe(&mut cfg.codebase);
    cfg.monitor_policy.native_dwell_ms = dwell_ms;
    cfg
}

/// Counts of one iteration. Everything but `wall` and `generator` is
/// exact for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
struct Exact {
    journeys: u64,
    hops: u64,
    events: u64,
    wire_msgs: u64,
    wire_bytes: u64,
    virtual_ms: u64,
    chase: ChaseCounts,
}

/// What a space's directory, location caches and post office counted
/// while owner posts chased naplets; shared with the chase layer pump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaseCounts {
    /// Post → confirmation, virtual ms, in posting order (`None`: never
    /// confirmed).
    pub post_confirm_ms: Vec<Option<u64>>,
    /// Location-cache (hits, misses, stale hits) over every server.
    pub locator: (u64, u64, u64),
    pub forwards: u64,
    pub repl_commits: u64,
    pub repl_elections: u64,
    /// Consensus messages exchanged between replicas.
    pub repl_msgs: u64,
    pub commit_lag_p99: u64,
}

impl ChaseCounts {
    /// Read the counters after a run: `posts` are the send times of the
    /// owner posts made at `home`, in order (its messenger numbers them
    /// from 1); `repl_msgs` is counted by the caller's transport.
    pub fn gather<'a>(
        home: &NapletServer,
        servers: impl Iterator<Item = &'a NapletServer>,
        posts: &[Millis],
        repl_msgs: u64,
    ) -> ChaseCounts {
        let post_confirm_ms = posts
            .iter()
            .enumerate()
            .map(|(k, sent)| {
                home.messenger
                    .confirmation(&Sender::Owner(CTL.into()), k as u64 + 1)
                    .map(|c| c.at.since(*sent))
            })
            .collect();
        let mut locator = (0, 0, 0);
        let mut forwards = 0;
        for s in servers {
            locator.0 += s.locator.hits;
            locator.1 += s.locator.misses;
            locator.2 += s.locator.stale_hits;
            forwards += s.messenger.forwards_performed;
        }
        // every server of a space records into one metrics registry
        let metrics = home.obs().metrics.snapshot();
        ChaseCounts {
            post_confirm_ms,
            locator,
            forwards,
            repl_commits: metrics.counter("repl.commits"),
            repl_elections: metrics.counter("repl.elections"),
            repl_msgs,
            commit_lag_p99: metrics
                .histogram("repl_commit_lag_ms")
                .map_or(0, |h| h.quantile(0.99)),
        }
    }

    pub fn posts(&self) -> u64 {
        self.post_confirm_ms.len() as u64
    }

    pub fn unconfirmed(&self) -> u64 {
        self.post_confirm_ms.iter().filter(|c| c.is_none()).count() as u64
    }

    /// The directory and post-office rows of the per-layer table.
    pub fn emit(&self, out: &mut Outcome) {
        out.set("server.repl.commits", self.repl_commits as f64);
        out.set(
            "server.repl.msgs_per_commit",
            self.repl_msgs as f64 / self.repl_commits.max(1) as f64,
        );
        out.set("server.repl.commit_lag_ms_p99", self.commit_lag_p99 as f64);
        out.set("server.repl.elections", self.repl_elections as f64);
        let (hits, misses, stale) = self.locator;
        let lookups = (hits + misses).max(1) as f64;
        out.set("server.locator.hit_rate", hits as f64 / lookups);
        out.set("server.locator.stale_hit_rate", stale as f64 / lookups);
        out.set(
            "server.messenger.forwards_per_post",
            self.forwards as f64 / self.posts().max(1) as f64,
        );
        let mut confirm: Vec<f64> = self
            .post_confirm_ms
            .iter()
            .flatten()
            .map(|&ms| ms as f64)
            .collect();
        confirm.sort_by(f64::total_cmp);
        out.set(
            "server.messenger.post_confirm_ms_p50",
            quantile(&confirm, 0.50),
        );
        out.set(
            "server.messenger.post_confirm_ms_p99",
            quantile(&confirm, 0.99),
        );
    }
}

struct Iteration {
    exact: Exact,
    /// Wall time of the timed region.
    wall: Duration,
    /// Part of `wall` spent launching, posting and polling.
    generator: Duration,
    allocs: u64,
    /// Process CPU over the timed region.
    cpu_ms: f64,
    /// Sorted launch→done wall latencies of this iteration's journeys.
    latencies_ms: Vec<f64>,
}

impl Iteration {
    fn journeys_per_s(&self) -> f64 {
        self.exact.journeys as f64 / self.wall.as_secs_f64()
    }
}

/// Readings taken when an iteration's timed region opens.
struct Timed {
    t0: Instant,
    allocs0: u64,
    cpu0: f64,
    done0: usize,
}

impl Timed {
    fn start(tracker: &Tracker) -> Timed {
        Timed {
            allocs0: trace::allocations(),
            cpu0: procfs::process_cpu_ms(std::process::id()),
            done0: tracker.done.len(),
            t0: Instant::now(),
        }
    }

    /// Close the timed region; the caller fills in the exact counts.
    fn stop(self, tracker: &Tracker, generator: Duration) -> Iteration {
        let wall = self.t0.elapsed();
        let mut latencies_ms: Vec<f64> = tracker.done[self.done0..]
            .iter()
            .map(|(_, ms)| *ms)
            .collect();
        latencies_ms.sort_by(f64::total_cmp);
        Iteration {
            exact: Exact::default(),
            wall,
            generator,
            allocs: trace::allocations() - self.allocs0,
            cpu_ms: procfs::process_cpu_ms(std::process::id()) - self.cpu0,
            latencies_ms,
        }
    }
}

/// Step `rt` through virtual time up to `until` in slices of
/// `slice_ms`, polling the tracker after each so journeys get a
/// wall-clock completion stamp. With `stop_when_done` it returns as
/// soon as no journey is in flight. Returns the generator's share.
fn advance(
    rt: &mut SimRuntime,
    tracker: &mut Tracker,
    cursor: &mut u64,
    until: u64,
    slice_ms: u64,
    stop_when_done: bool,
) -> Duration {
    let mut generator = Duration::ZERO;
    while *cursor < until && !(stop_when_done && tracker.in_flight() == 0) {
        *cursor = (*cursor + slice_ms).min(until);
        rt.run_until(Millis(*cursor));
        let t0 = Instant::now();
        tracker.collect(rt.server_mut(CTL).expect("home server"));
        generator += t0.elapsed();
    }
    generator
}

/// Virtual time allowed after the last launch for journeys to finish;
/// what is still in flight then is lost. A horizon instead of "run to
/// quiescence" keeps an iteration bounded whatever the servers do.
const DRAIN_MS: u64 = 30_000;
/// Virtual time run after the last journey, so stale retransmission
/// timers and redeliveries are part of the cost.
const SETTLE_MS: u64 = 2_000;

/// Finish an iteration: wait out the journeys, then the settle window.
fn finish(rt: &mut SimRuntime, tracker: &mut Tracker, cursor: &mut u64, slice_ms: u64) -> Duration {
    let deadline = *cursor + DRAIN_MS;
    let generator = advance(rt, tracker, cursor, deadline, slice_ms, true);
    tracker.abandon();
    rt.run_until(Millis(*cursor + SETTLE_MS));
    generator
}

// ---------------------------------------------------------------------
// sim_ring
// ---------------------------------------------------------------------

struct RingShape {
    hosts: usize,
    naplets: usize,
    laps: usize,
}

fn ring_iteration(seed: u64, shape: &RingShape, tracker: &mut Tracker) -> Iteration {
    let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth::fast_ethernet(), seed);
    let mut rt = SimRuntime::new(fabric);
    let mode = LocationMode::HomeManagers;
    rt.add_server(sim_host(CTL, &mode, 2));
    let hosts: Vec<String> = (0..shape.hosts).map(|i| format!("s{i}")).collect();
    for h in &hosts {
        rt.add_server(sim_host(h, &mode, 2));
    }
    let mut rng = SplitMix(seed);
    let mut mint = Mint::new(seed, 256);

    let timed = Timed::start(tracker);
    let t0 = Instant::now();
    for _ in 0..shape.naplets {
        // every naplet walks the whole ring `laps` times from its own
        // seeded start offset
        let start = rng.below(shape.hosts as u64) as usize;
        let route: Vec<&str> = (0..shape.hosts * shape.laps)
            .map(|k| hosts[(start + k) % shape.hosts].as_str())
            .collect();
        let naplet = mint.probe(CTL, &route);
        tracker.launched(naplet.id().clone(), expect_reports(&route));
        rt.launch(naplet).expect("home server exists");
    }
    let mut generator = t0.elapsed();
    let mut cursor = 0;
    generator += finish(&mut rt, tracker, &mut cursor, 5);
    let mut iteration = timed.stop(tracker, generator);

    let net = rt.fabric().stats().snapshot();
    let journeys = iteration.latencies_ms.len() as u64;
    iteration.exact = Exact {
        journeys,
        hops: journeys * (shape.hosts * shape.laps) as u64,
        events: rt.events_processed,
        wire_msgs: net.total_messages(),
        wire_bytes: net.total_bytes(),
        virtual_ms: rt.now().0,
        ..Exact::default()
    };
    iteration
}

/// `sim_ring`: 16 hosts, 64 naplets, 3 laps, 256 B ballast, dwell 2 ms,
/// constant 1 ms links.
pub fn sim_ring(cfg: &RunCfg) -> Result<Outcome, String> {
    let shape = if cfg.smoke {
        RingShape {
            hosts: 4,
            naplets: 8,
            laps: 1,
        }
    } else {
        RingShape {
            hosts: 16,
            naplets: 64,
            laps: 3,
        }
    };
    run_iterations(cfg, 5, |seed, tracker| {
        ring_iteration(seed, &shape, tracker)
    })
}

// ---------------------------------------------------------------------
// sim_chase
// ---------------------------------------------------------------------

struct ChaseShape {
    workers: usize,
    waves: usize,
    wave_size: usize,
    hops: usize,
}

const WAVE_GAP_MS: u64 = 100;
const CHASE_DWELL_MS: u64 = 20;
/// How long the crashed directory leader stays down.
const RESTART_MS: u64 = 2_000;

fn leader(rt: &SimRuntime, replicas: &[String]) -> Option<String> {
    replicas
        .iter()
        .find(|d| {
            rt.server(d)
                .and_then(|s| s.repl_core())
                .is_some_and(|c| c.is_leader())
        })
        .cloned()
}

fn chase_iteration(seed: u64, shape: &ChaseShape, tracker: &mut Tracker) -> Iteration {
    let replicas: Vec<String> = (0..3).map(|i| format!("d{i}")).collect();
    let workers: Vec<String> = (0..shape.workers).map(|i| format!("w{i}")).collect();
    let mode = LocationMode::ReplicatedDirectory(replicas.clone());
    let fabric = Fabric::new(LatencyModel::Constant(2), Bandwidth::fast_ethernet(), seed);
    let mut rt = SimRuntime::new(fabric);
    for host in [CTL.to_string()]
        .iter()
        .chain(replicas.iter())
        .chain(workers.iter())
    {
        rt.add_server(sim_host(host, &mode, CHASE_DWELL_MS));
    }
    // untimed: the replica set elects its first leader (~700 virtual ms)
    let mut cursor = 0;
    while leader(&rt, &replicas).is_none() && cursor < 10_000 {
        cursor += 100;
        rt.run_until(Millis(cursor));
    }

    let mut rng = SplitMix(seed);
    let mut mint = Mint::new(seed, 256);
    let events0 = rt.events_processed;
    let net0 = rt.fabric().stats().snapshot();
    let timed = Timed::start(tracker);
    let mut generator = Duration::ZERO;
    let mut posts: Vec<Millis> = Vec::new();
    let mut launched = 0usize;

    // the leader dies at the start of wave `crash_wave`, with that
    // wave's registrations in flight, and is back 2 virtual seconds later
    let base = cursor + 50;
    let crash_wave = shape.waves / 3;
    let crash_at = base + crash_wave as u64 * WAVE_GAP_MS;
    let outage = crash_at.saturating_sub(100)..crash_at + RESTART_MS + 300;
    for wave in 0..shape.waves {
        let wave_start = base + wave as u64 * WAVE_GAP_MS;
        generator += advance(&mut rt, tracker, &mut cursor, wave_start, 10, false);
        if wave == crash_wave {
            if let Some(leader) = leader(&rt, &replicas) {
                rt.crash_server(&leader, Some(RESTART_MS));
            }
        }
        let t = Instant::now();
        let mut chased: Vec<NapletId> = Vec::new();
        for _ in 0..shape.wave_size {
            let route: Vec<&str> = (0..shape.hops)
                .map(|h| workers[(launched + h * 5) % workers.len()].as_str())
                .collect();
            let naplet = mint.probe(CTL, &route);
            if launched.is_multiple_of(5) {
                chased.push(naplet.id().clone());
            }
            tracker.launched(naplet.id().clone(), expect_reports(&route));
            rt.launch(naplet).expect("home server exists");
            launched += 1;
        }
        generator += t.elapsed();
        // two owner posts chase every fifth naplet while it is under
        // way: the first resolves through the replicated directory, the
        // second through the location cache, which by then is often
        // stale and has to forward. While the directory has no leader a
        // post is retried and finally given up by design, so none is
        // sent then: the outage is carried by the registrations.
        for offset in [20 + rng.below(20), 50 + rng.below(30)] {
            let at = wave_start + offset;
            if outage.contains(&at) {
                continue;
            }
            generator += advance(&mut rt, tracker, &mut cursor, at, 10, false);
            let t = Instant::now();
            for id in &chased {
                posts.push(rt.now());
                rt.owner_post(CTL, id.clone(), Payload::User(Value::Int(0)))
                    .expect("home server exists");
            }
            generator += t.elapsed();
        }
    }
    generator += finish(&mut rt, tracker, &mut cursor, 10);
    let mut iteration = timed.stop(tracker, generator);
    let net = rt.fabric().stats().snapshot().since(&net0);
    // only consensus traffic flows between two replicas
    let repl_msgs = net
        .by_link
        .iter()
        .filter(|((a, b), _)| replicas.contains(a) && replicas.contains(b))
        .map(|(_, c)| c.messages)
        .sum();
    let hosts = rt.server_hosts();
    let journeys = iteration.latencies_ms.len() as u64;
    iteration.exact = Exact {
        journeys,
        hops: journeys * shape.hops as u64,
        events: rt.events_processed - events0,
        wire_msgs: net.total_messages(),
        wire_bytes: net.total_bytes(),
        virtual_ms: rt.now().0,
        chase: ChaseCounts::gather(
            rt.server(CTL).expect("home server"),
            hosts.iter().filter_map(|h| rt.server(h)),
            &posts,
            repl_msgs,
        ),
    };
    iteration
}

/// `sim_chase`: replicated directory over 3 replicas, 16 workers, 45
/// waves of 20 naplets per 100 virtual ms walking 8 hops at 20 ms
/// dwell, owner posts chasing every fifth naplet, and a leader crash.
pub fn sim_chase(cfg: &RunCfg) -> Result<Outcome, String> {
    let shape = if cfg.smoke {
        ChaseShape {
            workers: 4,
            waves: 3,
            wave_size: 10,
            hops: 3,
        }
    } else {
        ChaseShape {
            workers: 16,
            waves: 45,
            wave_size: 20,
            hops: 8,
        }
    };
    run_iterations(cfg, 3, |seed, tracker| {
        chase_iteration(seed, &shape, tracker)
    })
}

// ---------------------------------------------------------------------
// shared driver
// ---------------------------------------------------------------------

/// Warm up (`setups` untimed iterations give `setup_s`), then run fresh
/// seeded iterations until the measured interval is used, and report.
fn run_iterations(
    cfg: &RunCfg,
    setups: usize,
    mut iteration: impl FnMut(u64, &mut Tracker) -> Iteration,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.notes
        .extend(procfs::environment(std::path::Path::new(".")));

    // set-up is one complete untimed iteration: world construction plus
    // a run that fills the allocator's and the CPU's caches
    let mut setup_s = Vec::new();
    for _ in 0..if cfg.smoke { 1 } else { setups } {
        let t0 = Instant::now();
        let mut warm = Tracker::new(SIM_TIMEOUT, true);
        iteration(cfg.seed, &mut warm);
        setup_s.push(t0.elapsed().as_secs_f64());
        if warm.failed > 0 {
            return Err(format!("warm-up iteration lost {} journeys", warm.failed));
        }
    }
    out.set("setup_s", median(&mut setup_s));

    let mut tracker = Tracker::new(SIM_TIMEOUT, true);
    let mut iterations: Vec<Iteration> = Vec::new();
    let started = Instant::now();
    while started.elapsed() < cfg.measure || iterations.len() < 2 {
        // iterations 0 and 1 share the run's seed; later ones get their own
        let i = iterations.len() as u64;
        let seed = if i < 2 {
            cfg.seed
        } else {
            SplitMix(cfg.seed ^ i.wrapping_mul(0x9E37_79B9)).next()
        };
        iterations.push(iteration(seed, &mut tracker));
    }
    let total_wall = started.elapsed();

    if iterations[0].exact != iterations[1].exact {
        out.violations.push(format!(
            "two iterations with seed {} disagree: {:?} vs {:?}",
            cfg.seed, iterations[0].exact, iterations[1].exact
        ));
    }
    // every metric is the median over iterations, so an iteration that
    // another tenant of the host disturbed moves one sample
    let med =
        |f: &dyn Fn(&Iteration) -> f64| median(&mut iterations.iter().map(f).collect::<Vec<_>>());
    let journeys = iterations
        .iter()
        .map(|it| it.exact.journeys)
        .sum::<u64>()
        .max(1) as f64;
    let cpu_ms: f64 = iterations.iter().map(|it| it.cpu_ms).sum();
    out.set("journeys_per_s", med(&Iteration::journeys_per_s));
    out.set(
        "journey_ms_p50",
        med(&|it| quantile(&it.latencies_ms, 0.50)),
    );
    out.set(
        "journey_ms_p99",
        med(&|it| quantile(&it.latencies_ms, 0.99)),
    );
    out.set(
        "cpu_ms_per_journey",
        med(&|it| it.cpu_ms / it.exact.journeys.max(1) as f64),
    );
    out.set("journey.samples", journeys);

    // per-layer rows this run owns; the exact ones come from the first
    // iteration, which ran the seed given on the command line
    let first = &iterations[0];
    let e = &first.exact;
    let mut event_rates: Vec<f64> = iterations
        .iter()
        .map(|it| it.exact.events as f64 / it.wall.as_secs_f64())
        .collect();
    out.set("server.runtime.events_per_s", median(&mut event_rates));
    out.set(
        "server.runtime.events_per_journey",
        e.events as f64 / e.journeys.max(1) as f64,
    );
    out.set(
        "server.runtime.allocs_per_event",
        first.allocs as f64 / e.events.max(1) as f64,
    );
    out.set("server.runtime.virtual_ms", e.virtual_ms as f64);
    out.set(
        "wire.bytes_per_hop",
        e.wire_bytes as f64 / e.hops.max(1) as f64,
    );
    out.set(
        "wire.msgs_per_hop",
        e.wire_msgs as f64 / e.hops.max(1) as f64,
    );
    // directory and post-office rows only where this workload has them
    if e.chase.posts() > 0 {
        e.chase.emit(&mut out);
    }

    // single thread: the whole process is the serving side, and the
    // generator's share is what launching and polling took
    let generator: Duration = iterations.iter().map(|it| it.generator).sum();
    let timed: Duration = iterations.iter().map(|it| it.wall).sum();
    out.set(
        "ctl.cpu_ms_per_journey",
        generator.as_secs_f64() * 1e3 / journeys,
    );
    out.set(
        "napletd.cpu_ms_per_journey",
        (cpu_ms - generator.as_secs_f64() * 1e3).max(0.0) / journeys,
    );
    out.set(
        "ctl.pump_busy_share",
        generator.as_secs_f64() / timed.as_secs_f64(),
    );
    out.set("proc.peak_rss_mb", procfs::peak_rss_mb(std::process::id()));

    // every iteration's posts count as operations; one never confirmed failed
    let posts: u64 = iterations.iter().map(|it| it.exact.chase.posts()).sum();
    let unconfirmed: u64 = iterations
        .iter()
        .map(|it| it.exact.chase.unconfirmed())
        .sum();
    out.attempted = tracker.attempted + posts;
    out.failed = tracker.failed + unconfirmed;
    out.violations.append(&mut tracker.violations);
    out.notes.push(format!(
        "iteration journeys/s {:?}",
        iterations
            .iter()
            .map(|it| it.journeys_per_s().round())
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "{} iterations in {:.2} s ({} journeys, {} posts, {} unconfirmed); first iteration: {} events, {} wire bytes, {} virtual ms",
        iterations.len(),
        total_wall.as_secs_f64(),
        journeys,
        posts,
        unconfirmed,
        e.events,
        e.wire_bytes,
        e.virtual_ms,
    ));
    Ok(out)
}
