//! The traced run: per-layer numbers from the benchmark's side of the
//! public API.
//!
//! A *layer pump* is a whole naplet space on one thread: [`Pumped`]
//! servers joined by [`QueueNet`] under a virtual clock, with a span
//! around every call into a product layer. Each pump runs twice — once
//! untraced, once traced — so the trace's own overhead is measured
//! rather than assumed. Every traced run executes the same suite: the
//! ring pump in the workload's variant (agent size, journal store), the
//! chase pump (replicated directory, owner posts), and the transport
//! ping-pong and stream; rows that are counters of the workload's own
//! untraced run were filled in before this suite is called.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_core::message::Payload;
use naplet_core::naplet::Naplet;
use naplet_core::value::Value;
use naplet_net::{
    Bandwidth, Fabric, Frame, LatencyModel, TcpConfig, TcpTransport, ThreadedNet, TrafficClass,
    Transport,
};
use naplet_obs::ObsSink;
use naplet_server::{FileStore, Journal, JournalStore, LocationMode, MemoryStore, ServerConfig};

use crate::pump::{Clock, Pumped, QueueNet, Shared};
use crate::ring::{ctl_config, expect_reports, host_config, Mint, Tracker, CTL, RING};
use crate::sim::ChaseCounts;
use crate::spec::{Outcome, HANDLE_KINDS};
use crate::stats::quantile;
use crate::trace::{self, Layer, Span, StoreCounts, Summary, TimedStore};
use crate::workloads::RunCfg;

/// Which journal store the pump's servers write through.
#[derive(Clone, Copy, PartialEq)]
enum Store {
    Memory,
    /// `FileStore` under the run's scratch directory.
    File,
}

/// A naplet space on one thread.
struct Space {
    /// Index 0 is the home server.
    pumps: Vec<Pumped<Shared<QueueNet>>>,
    clock: Arc<AtomicU64>,
    net: Shared<QueueNet>,
    stores: Arc<StoreCounts>,
}

impl Space {
    fn build(configs: Vec<ServerConfig>, store: Store, dir: &Path) -> Result<Space, String> {
        let clock = Arc::new(AtomicU64::new(0));
        let net = Shared(Arc::new(QueueNet::new()));
        let stores = Arc::new(StoreCounts::default());
        let obs = ObsSink::default();
        let mut pumps = Vec::new();
        for config in configs {
            let host = config.host.clone();
            let mut pumped = Pumped::new(config, net.clone(), Clock::Virtual(Arc::clone(&clock)));
            let inner: Box<dyn JournalStore> = match store {
                Store::Memory => Box::new(MemoryStore::new()),
                Store::File => Box::new(
                    FileStore::open(dir.join(&host)).map_err(|e| format!("journal dir: {e}"))?,
                ),
            };
            pumped
                .server
                .set_journal(Journal::with_store(Box::new(TimedStore::new(
                    inner,
                    Arc::clone(&stores),
                ))));
            // one sink for the whole space, as the runtimes have
            pumped.server.set_obs(obs.clone());
            pumps.push(pumped);
        }
        Ok(Space {
            pumps,
            clock,
            net,
            stores,
        })
    }

    fn now_us(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Pump every server once; returns (inputs handled, of which by
    /// the home server).
    fn pump_all(&mut self) -> (usize, usize) {
        let mut total = 0;
        let mut home = 0;
        for (i, p) in self.pumps.iter_mut().enumerate() {
            let n = p.pump();
            total += n;
            if i == 0 {
                home = n;
            }
        }
        (total, home)
    }

    /// Every server is idle: move the clock to the earliest armed timer
    /// or to `also` (a due time of the caller's own), whichever is
    /// first. False when nothing lies at or before `limit_us`.
    fn jump(&mut self, also: Option<u64>, limit_us: u64) -> bool {
        let next = self
            .pumps
            .iter()
            .filter_map(Pumped::next_due_us)
            .chain(also)
            .min();
        match next {
            Some(t) if t <= limit_us => {
                self.clock.store(t.max(self.now_us()), Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Fire what is armed within `horizon_ms` of now: the retransmission
    /// timers of handoffs long acknowledged, which real servers also pay.
    fn settle(&mut self, horizon_ms: u64) {
        let limit = self.now_us() + horizon_ms * 1000;
        loop {
            if self.pump_all().0 == 0 && !self.jump(None, limit) {
                break;
            }
        }
    }

    fn handled(&self) -> u64 {
        self.pumps.iter().map(|p| p.handled).sum()
    }
}

/// What one pass of a pump measured.
struct Pass {
    wall: Duration,
    journeys: u64,
    hops: u64,
    handled: u64,
    allocs: u64,
    wire_msgs: u64,
    wire_bytes: u64,
    journal_puts: u64,
    journal_bytes: u64,
    virtual_ms: u64,
    spans: Vec<Span>,
    failed: u64,
    violations: Vec<String>,
    /// Chase pump only.
    chase: Option<ChaseCounts>,
}

impl Pass {
    fn us_per_journey(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.journeys.max(1) as f64
    }
}

struct Meter {
    t0: Instant,
    allocs0: u64,
    handled0: u64,
    msgs0: u64,
    bytes0: u64,
    puts0: u64,
    jbytes0: u64,
}

impl Meter {
    fn start(space: &Space, traced: bool, span_capacity: usize) -> Meter {
        if traced {
            trace::start(span_capacity);
        }
        let (msgs0, bytes0) = space.net.0.totals();
        Meter {
            allocs0: trace::allocations(),
            handled0: space.handled(),
            msgs0,
            bytes0,
            puts0: space.stores.puts.load(Ordering::Relaxed),
            jbytes0: space.stores.bytes.load(Ordering::Relaxed),
            t0: Instant::now(),
        }
    }

    fn stop(self, space: &Space, tracker: &mut Tracker, hops_per_journey: u64) -> Pass {
        let wall = self.t0.elapsed();
        let spans = trace::finish();
        let (msgs, bytes) = space.net.0.totals();
        let journeys = tracker.done.len() as u64;
        Pass {
            wall,
            journeys,
            hops: journeys * hops_per_journey,
            handled: space.handled() - self.handled0,
            allocs: trace::allocations() - self.allocs0,
            wire_msgs: msgs - self.msgs0,
            wire_bytes: bytes - self.bytes0,
            journal_puts: space.stores.puts.load(Ordering::Relaxed) - self.puts0,
            journal_bytes: space.stores.bytes.load(Ordering::Relaxed) - self.jbytes0,
            virtual_ms: space.now_us() / 1000,
            spans,
            failed: tracker.failed,
            violations: std::mem::take(&mut tracker.violations),
            chase: None,
        }
    }
}

/// A generous wall-clock limit per pump journey: the pump does a
/// journey in well under a millisecond.
const PUMP_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------
// ring pump
// ---------------------------------------------------------------------

/// One pass of the ring pump: `journeys` probes around `ctl,n1,n2,n3`
/// in a closed loop of `window`, on a fresh space.
fn ring_pass(
    cfg: &RunCfg,
    ballast: usize,
    store: Store,
    journeys: usize,
    traced: bool,
    tag: &str,
) -> Result<Pass, String> {
    let mode = LocationMode::HomeManagers;
    let mut configs = vec![ctl_config(mode.clone())];
    configs.extend(RING.iter().map(|h| host_config(h, mode.clone())));
    let mut space = Space::build(configs, store, &cfg.out.join(format!("pump-{tag}")))?;
    // minted before the clock starts: signing a credential is the
    // owner's work, not a layer of the journey
    let mut mint = Mint::new(cfg.seed, ballast);
    let mut naplets: Vec<Naplet> = (0..journeys).map(|_| mint.probe(CTL, &RING)).collect();
    naplets.reverse();
    let route = expect_reports(&RING);
    let mut tracker = Tracker::new(PUMP_TIMEOUT, true);
    let window = 4;

    let meter = Meter::start(&space, traced, journeys * 400);
    let mut launch = |space: &mut Space, tracker: &mut Tracker| {
        if let Some(naplet) = naplets.pop() {
            tracker.launched(naplet.id().clone(), route.clone());
            space.pumps[0].launch(naplet);
            true
        } else {
            false
        }
    };
    for _ in 0..window {
        launch(&mut space, &mut tracker);
    }
    loop {
        let (handled, at_home) = space.pump_all();
        // reports and completions only ever arrive at the home server;
        // an idle round still looks, so the wall-clock timeout can fire
        let freed = if at_home > 0 || handled == 0 {
            tracker.collect(&mut space.pumps[0].server)
        } else {
            0
        };
        let mut launched = 0;
        for _ in 0..freed {
            launched += usize::from(launch(&mut space, &mut tracker));
        }
        if tracker.in_flight() == 0 {
            break;
        }
        if handled == 0 && launched == 0 && !space.jump(None, u64::MAX) {
            // nothing queued and nothing armed: the journeys are lost
            tracker.abandon();
            break;
        }
    }
    space.settle(5_000);
    Ok(meter.stop(&space, &mut tracker, RING.len() as u64))
}

// ---------------------------------------------------------------------
// chase pump
// ---------------------------------------------------------------------

const CHASE_WORKERS: usize = 4;
const CHASE_HOPS: usize = 8;

/// One pass of the chase pump: a 3-replica directory, four workers,
/// `journeys` probes walking 8 hops at 20 ms dwell in a closed loop of
/// 16, and two owner posts to every fifth probe while it is under way.
fn chase_pass(cfg: &RunCfg, journeys: usize, traced: bool, tag: &str) -> Result<Pass, String> {
    let replicas: Vec<String> = (0..3).map(|i| format!("d{i}")).collect();
    let workers: Vec<String> = (0..CHASE_WORKERS).map(|i| format!("w{i}")).collect();
    let mode = LocationMode::ReplicatedDirectory(replicas.clone());
    let host = |name: &str| {
        let mut c = host_config(name, mode.clone());
        c.monitor_policy.native_dwell_ms = 20;
        // no leases here, as in sim_chase: the chase is about lookups
        c.lease = None;
        c
    };
    let mut configs = vec![host(CTL)];
    configs.extend(replicas.iter().chain(workers.iter()).map(|h| host(h)));
    let mut space = Space::build(
        configs,
        Store::Memory,
        &cfg.out.join(format!("chase-{tag}")),
    )?;

    // untimed: elect the first leader
    let elected = |space: &Space| {
        space.pumps[1..=3]
            .iter()
            .any(|p| p.server.repl_core().is_some_and(|c| c.is_leader()))
    };
    while !elected(&space) {
        if space.pump_all().0 == 0 && !space.jump(None, 10_000_000) {
            return Err("chase pump: no directory leader within 10 virtual seconds".into());
        }
    }

    let mut mint = Mint::new(cfg.seed, 256);
    let mut plan: Vec<(Naplet, std::rc::Rc<[Value]>, bool)> = (0..journeys)
        .map(|i| {
            let route: Vec<&str> = (0..CHASE_HOPS)
                .map(|h| workers[(i + h) % CHASE_WORKERS].as_str())
                .collect();
            (mint.probe(CTL, &route), expect_reports(&route), i % 5 == 0)
        })
        .collect();
    plan.reverse();
    let mut tracker = Tracker::new(PUMP_TIMEOUT, true);
    // posts waiting for their moment: (due µs, target), in due order
    let mut due_posts: std::collections::VecDeque<(u64, NapletId)> = Default::default();
    let mut sent_posts: Vec<Millis> = Vec::new();
    let window = 16;

    let meter = Meter::start(&space, traced, journeys * 2500);
    let mut launch =
        |space: &mut Space,
         tracker: &mut Tracker,
         due_posts: &mut std::collections::VecDeque<(u64, NapletId)>| {
            let Some((naplet, route, chased)) = plan.pop() else {
                return false;
            };
            if chased {
                // both land while the probe is on its first hops
                for offset_ms in [30, 70] {
                    due_posts.push_back((space.now_us() + offset_ms * 1000, naplet.id().clone()));
                }
                due_posts.make_contiguous().sort_by_key(|(due, _)| *due);
            }
            tracker.launched(naplet.id().clone(), route);
            space.pumps[0].launch(naplet);
            true
        };
    for _ in 0..window {
        launch(&mut space, &mut tracker, &mut due_posts);
    }
    loop {
        let (mut progressed, at_home) = space.pump_all();
        while due_posts
            .front()
            .is_some_and(|(due, _)| *due <= space.now_us())
        {
            let (_, id) = due_posts.pop_front().expect("peeked above");
            sent_posts.push(Millis(space.now_us() / 1000));
            space.pumps[0].owner_post(id, Payload::User(Value::Int(0)));
            progressed += 1;
        }
        // (an idle round still looks, so the wall-clock timeout can fire)
        if at_home > 0 || progressed == 0 {
            for _ in 0..tracker.collect(&mut space.pumps[0].server) {
                progressed += usize::from(launch(&mut space, &mut tracker, &mut due_posts));
            }
        }
        if tracker.in_flight() == 0 {
            break;
        }
        let next_post = due_posts.front().map(|(due, _)| *due);
        // a journey takes ~0.3 virtual seconds; a minute without one
        // finishing means they are lost
        let limit = space.now_us() + 60_000_000;
        if progressed == 0 && !space.jump(next_post, limit) {
            tracker.abandon();
            break;
        }
    }
    space.settle(2_000);
    let mut pass = meter.stop(&space, &mut tracker, CHASE_HOPS as u64);

    // consensus messages = `Repl` wires handled, read off the spans (an
    // untraced pass has none and leaves it 0)
    let repl_msgs = Summary::of(&pass.spans).get(Layer::Handle, "Repl").calls;
    pass.chase = Some(ChaseCounts::gather(
        &space.pumps[0].server,
        space.pumps.iter().map(|p| &p.server),
        &sent_posts,
        repl_msgs,
    ));
    Ok(pass)
}

// ---------------------------------------------------------------------
// transports
// ---------------------------------------------------------------------

struct TransportRows {
    send_call_ns: f64,
    oneway_us_p50: f64,
    oneway_us_p99: f64,
    stream_frames_per_s: f64,
}

/// Two endpoints `a` and `b`: a ping-pong of `pings` round trips (the
/// one-way time is half a round trip), then a stream of `stream`
/// frames from `a` to `b` timed until the last one arrives.
fn transport_bench<T: Transport>(
    a: &T,
    a_rx: &Receiver<Frame>,
    b: &T,
    b_rx: &Receiver<Frame>,
    pings: usize,
    stream: usize,
) -> Result<TransportRows, String> {
    let payload = vec![0x5Au8; 256];
    let frame = |from: &str, to: &str| Frame::new(from, to, TrafficClass::Control, payload.clone());
    let stop = AtomicBool::new(false);
    let echoing = AtomicBool::new(true);
    let received = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // `b`'s side: echo while pinging, count while streaming
            while !stop.load(Ordering::SeqCst) {
                if b_rx.recv_timeout(Duration::from_millis(20)).is_ok() {
                    if echoing.load(Ordering::SeqCst) {
                        let _ = b.send(frame("b", "a"));
                    } else {
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        });
        let result = (|| {
            let mut oneway_us = Vec::with_capacity(pings);
            let mut send_ns = 0u64;
            // the first round trips dial the connections
            for i in 0..pings + 20 {
                let f = frame("a", "b");
                let t0 = Instant::now();
                a.send(f).map_err(|e| format!("ping send: {e}"))?;
                let sent = t0.elapsed();
                a_rx.recv_timeout(Duration::from_secs(5))
                    .map_err(|_| "ping-pong: no echo within 5 s".to_string())?;
                if i >= 20 {
                    send_ns += sent.as_nanos() as u64;
                    oneway_us.push(t0.elapsed().as_secs_f64() * 1e6 / 2.0);
                }
            }
            echoing.store(false, Ordering::SeqCst);
            let frames: Vec<Frame> = (0..stream).map(|_| frame("a", "b")).collect();
            let t0 = Instant::now();
            for f in frames {
                a.send(f).map_err(|e| format!("stream send: {e}"))?;
            }
            while (received.load(Ordering::SeqCst) as usize) < stream {
                if t0.elapsed() > Duration::from_secs(20) {
                    return Err(format!(
                        "stream: {} of {stream} frames after 20 s",
                        received.load(Ordering::SeqCst)
                    ));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let streamed = t0.elapsed();
            oneway_us.sort_by(f64::total_cmp);
            Ok(TransportRows {
                send_call_ns: send_ns as f64 / pings as f64,
                oneway_us_p50: quantile(&oneway_us, 0.50),
                oneway_us_p99: quantile(&oneway_us, 0.99),
                stream_frames_per_s: stream as f64 / streamed.as_secs_f64(),
            })
        })();
        stop.store(true, Ordering::SeqCst);
        result
    })
}

fn tcp_bench(pings: usize, stream: usize) -> Result<TransportRows, String> {
    let start = || {
        TcpTransport::start(TcpConfig::new(
            "127.0.0.1:0".parse().expect("literal address"),
            Default::default(),
        ))
        .map_err(|e| format!("tcp endpoint: {e}"))
    };
    let (a, b) = (start()?, start()?);
    a.add_peer("b", b.local_addr())
        .and_then(|()| b.add_peer("a", a.local_addr()))
        .map_err(|e| format!("tcp peers: {e}"))?;
    let (a_rx, b_rx) = (a.register("a"), b.register("b"));
    transport_bench(&a, &a_rx, &b, &b_rx, pings, stream)
}

fn threaded_bench(seed: u64, pings: usize, stream: usize) -> Result<TransportRows, String> {
    let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth::fast_ethernet(), seed);
    let net = ThreadedNet::start(fabric, 0);
    let (a_rx, b_rx) = (net.register("a"), net.register("b"));
    transport_bench(&net, &a_rx, &net, &b_rx, pings, stream)
}

// ---------------------------------------------------------------------
// the suite
// ---------------------------------------------------------------------

fn per_journey_us(group_self_ns: u64, journeys: u64) -> f64 {
    group_self_ns as f64 / 1e3 / journeys.max(1) as f64
}

/// Run the layer suite for `workload` and fill every per-layer row the
/// untraced run left open.
pub fn suite(workload: &str, cfg: &RunCfg, out: &mut Outcome) -> Result<(), String> {
    // no end-to-end workload journals to files (README, finding 3);
    // this variant keeps the file journal's per-call cost on record
    let (ballast, store) = match workload {
        "tcp_ring_w16" => (256, Store::File),
        "live_ring_64k" => (64 * 1024, Store::Memory),
        _ => (256, Store::Memory),
    };
    // journeys per pump pass: a pass over file journals or 64 KiB agents
    // costs milliseconds per journey, so it gets fewer
    let (ring_n, chase_n, pings, stream) = if cfg.smoke {
        (20, 10, 50, 200)
    } else if ballast > 256 || store == Store::File {
        (300, 150, 2_000, 10_000)
    } else {
        (1_500, 150, 2_000, 10_000)
    };

    // untraced first, then traced, on fresh spaces
    let ring_plain = ring_pass(cfg, ballast, store, ring_n, false, "plain")?;
    let ring_traced = ring_pass(cfg, ballast, store, ring_n, true, "traced")?;
    let chase_plain = chase_pass(cfg, chase_n, false, "plain")?;
    let chase_traced = chase_pass(cfg, chase_n, true, "traced")?;
    for pass in [&ring_plain, &ring_traced, &chase_plain, &chase_traced] {
        out.attempted += pass.journeys + pass.failed;
        out.failed += pass.failed;
        out.violations.extend(pass.violations.iter().cloned());
    }
    let chase_counts = chase_traced.chase.as_ref().expect("chase pass fills it");
    out.attempted += chase_counts.posts();
    out.failed += chase_counts.unconfirmed();

    // the workload's own shape decides which pump its per-journey rows
    // and the trace's self-assessment come from
    let is_chase = workload == "sim_chase";
    let (plain, traced) = if is_chase {
        (&chase_plain, &chase_traced)
    } else {
        (&ring_plain, &ring_traced)
    };
    let sum = Summary::of(&traced.spans);
    let ring_sum = Summary::of(&ring_traced.spans);
    let chase_sum = Summary::of(&chase_traced.spans);
    let journeys = traced.journeys;

    let (enc, dec) = (
        sum.get(Layer::Codec, "encode"),
        sum.get(Layer::Codec, "decode"),
    );
    let codec = sum.layer(Layer::Codec);
    out.set("core.codec.encode_ns", enc.ns_per_call());
    out.set("core.codec.decode_ns", dec.ns_per_call());
    out.set(
        "core.codec.encode_ns_per_kib",
        enc.total_ns as f64 / (enc.bytes.max(1) as f64 / 1024.0),
    );
    out.set(
        "core.codec.decode_ns_per_kib",
        dec.total_ns as f64 / (dec.bytes.max(1) as f64 / 1024.0),
    );
    out.set(
        "core.codec.calls_per_journey",
        codec.calls as f64 / journeys.max(1) as f64,
    );
    out.set(
        "core.codec.self_us_per_journey",
        per_journey_us(codec.self_ns, journeys),
    );
    out.set(
        "core.codec.allocs_per_call",
        codec.self_allocs as f64 / codec.calls.max(1) as f64,
    );

    let frame = sum.layer(Layer::Frame);
    out.set(
        "net.frame.encode_ns",
        sum.get(Layer::Frame, "encode").ns_per_call(),
    );
    out.set(
        "net.frame.decode_ns",
        sum.get(Layer::Frame, "decode").ns_per_call(),
    );
    out.set(
        "net.frame.self_us_per_journey",
        per_journey_us(frame.self_ns, journeys),
    );

    out.set(
        "net.queue.self_us_per_journey",
        per_journey_us(sum.layer(Layer::Transport).self_ns, journeys),
    );

    // handle rows are self times: the journal writes a handler makes
    // are the journal layer's, not its own
    let handle = sum.layer(Layer::Handle);
    out.set("server.handle.ns", handle.self_ns_per_call());
    out.set(
        "server.handle.calls_per_journey",
        handle.calls as f64 / journeys.max(1) as f64,
    );
    out.set(
        "server.handle.self_us_per_journey",
        per_journey_us(handle.self_ns, journeys),
    );
    out.set(
        "server.handle.allocs_per_call",
        handle.self_allocs as f64 / handle.calls.max(1) as f64,
    );
    for kind in HANDLE_KINDS {
        // a kind is read from the workload's own pump when it occurs
        // there, else from the other pump of the suite
        let own = sum.get(Layer::Handle, kind);
        let group = if own.calls > 0 {
            own
        } else if is_chase {
            ring_sum.get(Layer::Handle, kind)
        } else {
            chase_sum.get(Layer::Handle, kind)
        };
        out.set(
            &format!("server.handle.{kind}_ns"),
            group.self_ns_per_call(),
        );
    }

    let journal = sum.layer(Layer::Journal);
    out.set(
        "server.journal.put_ns",
        sum.get(Layer::Journal, "put").ns_per_call(),
    );
    out.set(
        "server.journal.remove_ns",
        sum.get(Layer::Journal, "remove").ns_per_call(),
    );
    out.set(
        "server.journal.count_ns",
        sum.get(Layer::Journal, "count").ns_per_call(),
    );
    out.set(
        "server.journal.puts_per_journey",
        traced.journal_puts as f64 / journeys.max(1) as f64,
    );
    out.set(
        "server.journal.bytes_per_journey",
        traced.journal_bytes as f64 / journeys.max(1) as f64,
    );
    out.set(
        "server.journal.self_us_per_journey",
        per_journey_us(journal.self_ns, journeys),
    );

    out.set(
        "trace.overhead_pct",
        (traced.us_per_journey() / plain.us_per_journey() - 1.0) * 100.0,
    );
    out.set(
        "trace.attributed_pct",
        sum.self_ns() as f64 / traced.wall.as_nanos() as f64 * 100.0,
    );

    // the sim workloads counted their own events and wire traffic; for
    // the others the untraced pump is the exact single-threaded count
    let events = plain.handled.max(1) as f64;
    out.set_default(
        "server.runtime.events_per_s",
        events / plain.wall.as_secs_f64(),
    );
    out.set_default(
        "server.runtime.events_per_journey",
        events / plain.journeys.max(1) as f64,
    );
    out.set_default(
        "server.runtime.allocs_per_event",
        plain.allocs as f64 / events,
    );
    out.set_default("server.runtime.virtual_ms", plain.virtual_ms as f64);
    out.set_default(
        "wire.bytes_per_hop",
        plain.wire_bytes as f64 / plain.hops.max(1) as f64,
    );
    out.set_default(
        "wire.msgs_per_hop",
        plain.wire_msgs as f64 / plain.hops.max(1) as f64,
    );
    // likewise sim_chase measured its own directory and post office
    if !out.metrics.contains_key("server.repl.commits") {
        chase_counts.emit(out);
    }
    // rows of machinery this workload does not have
    for row in [
        "msgs_per_journey",
        "bytes_per_journey",
        "dropped",
        "retransmits",
    ] {
        out.set_default(&format!("net.tcp.{row}"), 0.0);
    }
    out.set_default("napletd.idle_cpu_ms_per_s", 0.0);

    let tcp = tcp_bench(pings, stream)?;
    out.set("net.tcp.send_call_ns", tcp.send_call_ns);
    out.set("net.tcp.oneway_us_p50", tcp.oneway_us_p50);
    out.set("net.tcp.oneway_us_p99", tcp.oneway_us_p99);
    out.set("net.tcp.stream_frames_per_s", tcp.stream_frames_per_s);
    let threaded = threaded_bench(cfg.seed, pings, stream)?;
    out.set("net.threaded.send_call_ns", threaded.send_call_ns);
    out.set("net.threaded.oneway_us_p50", threaded.oneway_us_p50);

    // spans stay in memory until here; the file outlives the run's
    // scratch directory
    let path = cfg
        .out
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("trace-{workload}.json"));
    trace::write_json(&path, workload, &traced.spans)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes.push(format!(
        "layer pump: {} journeys, {:.1} us/journey untraced, {:.1} traced, {} spans in {}",
        journeys,
        plain.us_per_journey(),
        traced.us_per_journey(),
        traced.spans.len(),
        path.display()
    ));
    out.notes.push(format!(
        "chase pump: {} posts, {} unconfirmed; transports: tcp {:.0} frames/s streamed, threaded {:.0}",
        chase_counts.posts(), chase_counts.unconfirmed(), tcp.stream_frames_per_s, threaded.stream_frames_per_s
    ));
    Ok(())
}
