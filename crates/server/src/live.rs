//! Live threaded runtime: every NapletServer on its own OS thread.
//!
//! The deterministic [`crate::runtime::SimRuntime`] is the measurement
//! harness; [`LiveRuntime`] is the deployment shape the paper
//! describes — "the NapletServers are running autonomously and they
//! collectively form an agent flow space". The very same event-handler
//! servers are pumped by threads over any
//! [`naplet_net::Transport`] — the in-process
//! `naplet_net::ThreadedNet` fabric (modelled link delays scaled into
//! real sleeps) or the real-socket `naplet_net::TcpTransport` the
//! `napletd` daemon deploys on.
//!
//! # Threads
//!
//! One thread per server, plus one sweep thread when the watchdog or
//! the metrics history is on. A server thread is the only code that
//! touches its `NapletServer`, its [`Timers`] and its trace-context
//! table. It blocks on exactly one thing, its transport inbox, for no
//! longer than the earliest armed deadline (indefinitely when nothing
//! is armed): a frame or a due timer wakes it, nothing else does.
//! Sends happen on the server thread — [`Transport::send`] never waits
//! on a peer. Before [`LiveRuntime::start`] the caller's thread plays
//! the same role: launches and recovery enact their sends at once and
//! park their timers in the server's queue, which moves to the thread
//! with the server.
//!
//! [`LiveRuntime::shutdown`] raises the stop flag and registers every
//! host again, which replaces the endpoint and so disconnects the
//! inbox each thread is blocked on (see [`Transport::register`]); the
//! thread sees the disconnect, returns its server and is joined. The
//! sweep thread sleeps one tick at a time and checks the same flag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use naplet_core::clock::Millis;
use naplet_core::error::{NapletError, Result};
use naplet_core::naplet::Naplet;
use naplet_core::tracectx::CtxTable;
use naplet_net::{Fabric, Frame, ThreadedNet, TrafficClass, Transport};
use naplet_obs::{ObsSink, TraceKind, WatchdogConfig};

use crate::events::{Input, LocalEvent, Output, Wire};
use crate::server::{NapletServer, ServerConfig};
use crate::timers::Timers;

/// A naplet space running on real threads over a pluggable
/// [`Transport`]. The default transport is the in-process
/// [`ThreadedNet`]; [`LiveRuntime::over`] runs the same servers over
/// real sockets.
pub struct LiveRuntime<T: Transport = ThreadedNet> {
    net: Arc<T>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    threads: Vec<(String, JoinHandle<NapletServer>)>,
    /// Servers constructed but not yet started (launch window), with
    /// any local timers armed by pre-start launches (e.g. handoff
    /// acknowledgement timeouts).
    staging: Vec<(
        NapletServer,
        crossbeam::channel::Receiver<Frame>,
        Timers<LocalEvent>,
    )>,
    /// Shared observability sink handed to every server. Live traces
    /// are wall-clock ordered, so unlike the sim they are not
    /// deterministic — but the same taxonomy and exporters apply.
    obs: ObsSink,
    /// Watchdog sweep thread (armed by `enable_watchdog` + `start`).
    sweeper: Option<JoinHandle<()>>,
    /// Trace contexts for sends enacted before `start` (launch and
    /// recovery handshakes); each server thread keeps its own table
    /// once running.
    staging_ctxs: CtxTable,
}

impl LiveRuntime<ThreadedNet> {
    /// Create a live runtime over a fabric. `us_per_ms` scales modelled
    /// link delay into real sleep (1000 = real time, 0 = as fast as
    /// possible).
    pub fn new(fabric: Fabric, us_per_ms: u64) -> LiveRuntime {
        LiveRuntime::over(ThreadedNet::start(fabric, us_per_ms))
    }

    /// The underlying fabric (stats, failure injection).
    pub fn fabric(&self) -> &Fabric {
        self.net.fabric()
    }
}

impl<T: Transport> LiveRuntime<T> {
    /// Create a live runtime over an already-started transport (e.g. a
    /// `naplet_net::TcpTransport` bound to this process's listen
    /// address).
    pub fn over(transport: T) -> LiveRuntime<T> {
        LiveRuntime {
            net: Arc::new(transport),
            stop: Arc::new(AtomicBool::new(false)),
            epoch: Instant::now(),
            threads: Vec::new(),
            staging: Vec::new(),
            obs: ObsSink::default(),
            sweeper: None,
            staging_ctxs: CtxTable::new(),
        }
    }

    /// The underlying transport (stats, peer control).
    pub fn transport(&self) -> &T {
        &self.net
    }

    /// The shared observability sink (tracer + metrics).
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// Turn on journey tracing for the whole space. Only affects
    /// servers added after the call or before [`LiveRuntime::start`].
    pub fn enable_tracing(&mut self) {
        self.obs.enable_tracing();
    }

    /// Turn on the bounded flight recorder and anchor its event clock
    /// to the UNIX timeline, so segments from different daemons can be
    /// merged on one shared axis.
    pub fn enable_recorder(&mut self, capacity: usize) {
        self.obs.enable_recorder(capacity);
        let elapsed = self.epoch.elapsed().as_millis() as u64;
        let unix_now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.obs
            .recorder
            .set_epoch_unix_ms(unix_now.saturating_sub(elapsed));
    }

    /// Turn on wall-clock hot-path profiling (handler-latency
    /// histograms) for every server in the space.
    pub fn enable_profiling(&mut self) {
        self.obs.enable_profiling();
    }

    /// Turn on the per-daemon metrics time-series and anchor its
    /// sample clock to the UNIX timeline. The sweep thread started by
    /// [`LiveRuntime::start`] takes one delta sample per tick.
    pub fn enable_metrics_history(&mut self, capacity: usize) {
        self.obs.enable_metrics_history(capacity);
        let elapsed = self.epoch.elapsed().as_millis() as u64;
        let unix_now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.obs
            .history
            .set_epoch_unix_ms(unix_now.saturating_sub(elapsed));
    }

    /// Arm the journey watchdog for the whole space. The sweep thread
    /// started by [`LiveRuntime::start`] checks progress deadlines in
    /// wall-clock-since-epoch time; server-health sweeps are a
    /// sim-runtime feature only (live servers belong to their threads,
    /// and the status protocol polls them over the wire instead).
    pub fn enable_watchdog(&mut self, config: WatchdogConfig) {
        self.obs.enable_watchdog(config);
    }

    /// Stall alerts raised so far (wall-clock ordered, so not
    /// deterministic — the sim runtime is the measurement harness).
    pub fn alerts(&self) -> Vec<naplet_obs::TraceEvent> {
        self.obs.watchdog.alerts()
    }

    /// Add a server. It starts pumping when [`LiveRuntime::start`] is
    /// called; until then naplets may be launched from it.
    pub fn add_server(&mut self, config: ServerConfig) -> &mut NapletServer {
        let rx = self.net.register(&config.host);
        let mut server = NapletServer::new(config);
        server.set_obs(self.obs.clone());
        // directory replicas drive their consensus clock off a
        // self-rearming tick; the first one is armed here, the rest by
        // the server's own outputs
        let mut timers = Timers::new();
        if let Some(tick_ms) = server.arm_initial_repl_tick() {
            timers.arm_in(tick_ms, LocalEvent::ReplTick);
        }
        self.staging.push((server, rx, timers));
        &mut self.staging.last_mut().expect("just pushed").0
    }

    /// Launch a naplet from its home server. Only valid before
    /// [`LiveRuntime::start`] (afterwards the server belongs to its
    /// thread; use owner messages instead).
    pub fn launch(&mut self, naplet: Naplet) -> Result<()> {
        let home = naplet.home().to_string();
        let now = self.now();
        let (server, _, timers) = self
            .staging
            .iter_mut()
            .find(|(s, _, _)| s.host() == home)
            .ok_or_else(|| NapletError::NotFound(format!("no staged server at `{home}`")))?;
        let outputs = server.launch(naplet, now);
        // launches produce sends (handshakes) plus acknowledgement
        // timers; the timers are handed to the server's thread on start
        let host = home.clone();
        let net = Arc::clone(&self.net);
        let obs = self.obs.clone();
        enact(
            &host,
            net.as_ref(),
            outputs,
            timers,
            &mut Vec::new(),
            &obs,
            &mut self.staging_ctxs,
            now,
        );
        Ok(())
    }

    /// Replay a staged server's write-ahead journal and enact the
    /// recovery outputs — retransmitted handshakes go out over the
    /// transport, re-armed acknowledgement/lease timers are handed to
    /// the server's thread on [`LiveRuntime::start`]. Only valid
    /// before `start` (recovery is a boot-time activity; a running
    /// server's journal belongs to its thread).
    pub fn recover(&mut self, host: &str) -> Result<crate::journal::RecoveryStats> {
        let now = self.now();
        let net = Arc::clone(&self.net);
        let (server, _, timers) = self
            .staging
            .iter_mut()
            .find(|(s, _, _)| s.host() == host)
            .ok_or_else(|| NapletError::NotFound(format!("no staged server at `{host}`")))?;
        let outputs = server.recover(now);
        let stats = server.recovery_stats();
        let host = host.to_string();
        let obs = self.obs.clone();
        enact(
            &host,
            net.as_ref(),
            outputs,
            timers,
            &mut Vec::new(),
            &obs,
            &mut self.staging_ctxs,
            now,
        );
        Ok(stats)
    }

    /// Start all staged servers on their threads.
    pub fn start(&mut self) {
        for (server, rx, timers) in self.staging.drain(..) {
            let host = server.host().to_string();
            let net = Arc::clone(&self.net);
            let stop = Arc::clone(&self.stop);
            let epoch = self.epoch;
            let obs = self.obs.clone();
            // hand the staging-window contexts to every thread so a
            // launch handshake and the hops after it share one journey
            // sequence (receivers re-converge by adopting frame
            // contexts anyway)
            let ctxs = self.staging_ctxs.clone();
            let handle = std::thread::Builder::new()
                .name(format!("naplet-server-{host}"))
                .spawn(move || serve(server, net, rx, timers, epoch, stop, obs, ctxs))
                .expect("spawn server thread");
            self.threads.push((host, handle));
        }
        let want_sweeper = self.obs.watchdog.enabled() || self.obs.history.enabled();
        if want_sweeper && self.sweeper.is_none() {
            let obs = self.obs.clone();
            let stop = Arc::clone(&self.stop);
            let epoch = self.epoch;
            // the watchdog config sets the sweep cadence when armed;
            // a history-only sweeper samples once a second
            let tick = if self.obs.watchdog.enabled() {
                Duration::from_millis(self.obs.watchdog.config().tick_ms.max(1))
            } else {
                Duration::from_millis(1_000)
            };
            let handle = std::thread::Builder::new()
                .name("naplet-watchdog".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(tick);
                        let now = Millis(epoch.elapsed().as_millis() as u64);
                        if obs.watchdog.enabled() {
                            for alert in obs.watchdog.check(now) {
                                obs.metrics.incr("alerts.raised", 1);
                                obs.metrics.incr(
                                    if alert.orphan {
                                        "alerts.orphan"
                                    } else {
                                        "alerts.stalled"
                                    },
                                    1,
                                );
                                obs.push_event(alert.event);
                            }
                        }
                        // one metrics delta per sweep tick (no-op
                        // while the history ring is disabled)
                        obs.history.sample(now, &obs.metrics);
                    }
                })
                .expect("spawn watchdog thread");
            self.sweeper = Some(handle);
        }
    }

    /// Wall-clock time since the runtime epoch, in ms.
    pub fn now(&self) -> Millis {
        Millis(self.epoch.elapsed().as_millis() as u64)
    }

    /// Stop every server thread and return the servers for inspection
    /// (reports, logs, tables), keyed by host.
    pub fn shutdown(mut self) -> Vec<(String, NapletServer)> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
        let mut out = Vec::new();
        for (host, handle) in self.threads.drain(..) {
            // a server thread sleeps on its inbox; replacing the
            // endpoint disconnects that inbox and wakes it
            drop(self.net.register(&host));
            if let Ok(server) = handle.join() {
                out.push((host, server));
            }
        }
        // staged-but-never-started servers are returned too
        for (server, _, _) in self.staging.drain(..) {
            out.push((server.host().to_string(), server));
        }
        out
    }
}

#[allow(clippy::too_many_arguments)]
fn serve<T: Transport>(
    mut server: NapletServer,
    net: Arc<T>,
    rx: crossbeam::channel::Receiver<Frame>,
    mut timers: Timers<LocalEvent>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    obs: ObsSink,
    mut ctxs: CtxTable,
) -> NapletServer {
    use crossbeam::channel::RecvTimeoutError;
    // one encode scratch per server thread: every outgoing wire reuses
    // its capacity instead of growing a fresh Vec per send
    let mut scratch = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        // fire what is due; a timer armed while firing waits for the
        // next round, so a self-rearming event cannot starve the inbox
        let due_by = Instant::now();
        while let Some(event) = timers.pop_due(due_by) {
            let now = Millis(epoch.elapsed().as_millis() as u64);
            // keep fault schedules in step with wall-clock-since-epoch time
            net.set_now(now.0);
            let outputs = server.handle(now, Input::Local(event));
            enact(
                server.host(),
                net.as_ref(),
                outputs,
                &mut timers,
                &mut scratch,
                &obs,
                &mut ctxs,
                now,
            );
        }
        // then sleep on the inbox until a frame or the next deadline
        let received = match timers.until_next(Instant::now()) {
            Some(wait) => rx.recv_timeout(wait),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        let frame = match received {
            Ok(frame) => frame,
            Err(RecvTimeoutError::Timeout) => continue,
            // the endpoint was replaced: shutdown
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let Ok(wire) = naplet_core::codec::from_bytes::<Wire>(&frame.payload) else {
            continue; // corrupt frame: drop
        };
        let now = Millis(epoch.elapsed().as_millis() as u64);
        net.set_now(now.0);
        let from = frame.from;
        if obs.ctx_enabled() {
            if let Some(ctx) = &frame.ctx {
                ctxs.adopt(ctx);
            }
            obs.emit_ctx(
                now,
                server.host(),
                wire.subject(),
                frame.ctx.as_ref(),
                || TraceKind::WireRecv {
                    from: from.clone(),
                    label: wire.label().to_string(),
                },
            );
        }
        let outputs = server.handle(now, Input::Wire { from, wire });
        enact(
            server.host(),
            net.as_ref(),
            outputs,
            &mut timers,
            &mut scratch,
            &obs,
            &mut ctxs,
            now,
        );
    }
    server
}

#[allow(clippy::too_many_arguments)]
fn enact<T: Transport>(
    host: &str,
    net: &T,
    outputs: Vec<Output>,
    timers: &mut Timers<LocalEvent>,
    scratch: &mut Vec<u8>,
    obs: &ObsSink,
    ctxs: &mut CtxTable,
    now: Millis,
) {
    for output in outputs {
        match output {
            Output::Send { to, wire } => {
                let attempt = wire.retry_attempt();
                if attempt > 1 {
                    net.stats().record_retransmit();
                }
                // encode into the reused scratch, then copy exactly the
                // payload's length into the owned frame buffer — the
                // repeated grow-and-copy of a cold Vec is what the
                // storm benchmarks flagged here
                if naplet_core::codec::to_bytes_into(&wire, scratch).is_ok() {
                    let mut frame = Frame::new(host, &to, wire.traffic_class(), scratch.clone());
                    if obs.ctx_enabled() {
                        let ctx = wire.subject().map(|id| {
                            let new_hop = matches!(&wire, Wire::Transfer(env) if env.attempt == 1);
                            ctxs.on_send(&id.to_string(), host, new_hop)
                        });
                        frame = frame.with_ctx(ctx.clone());
                        let bytes = frame.wire_len();
                        obs.emit_ctx(now, host, wire.subject(), ctx.as_ref(), || {
                            TraceKind::WireSend {
                                to: to.clone(),
                                label: wire.label().to_string(),
                                class: wire.traffic_class().label().to_string(),
                                bytes,
                                attempt,
                            }
                        });
                    }
                    let _ = net.send(frame);
                }
            }
            Output::Schedule { delay_ms, event } => timers.arm_in(delay_ms, event),
            Output::FetchCode { from, bytes, id } => {
                let delay = net
                    .fetch(&from, host, TrafficClass::Code, bytes)
                    .ok()
                    .flatten()
                    .unwrap_or(0);
                timers.arm_in(delay, LocalEvent::CodeReady { id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LocationMode;
    use naplet_core::behavior::NapletBehavior;
    use naplet_core::codebase::CodebaseRegistry;
    use naplet_core::context::NapletContext;
    use naplet_core::credential::SigningKey;
    use naplet_core::itinerary::{Itinerary, Pattern};
    use naplet_core::naplet::AgentKind;
    use naplet_core::value::Value;
    use naplet_net::LatencyModel;

    struct Greeter;
    impl NapletBehavior for Greeter {
        fn on_start(&mut self, ctx: &mut dyn NapletContext) -> naplet_core::error::Result<()> {
            ctx.report_home(Value::from(format!("hi from {}", ctx.host_name())))
        }
    }

    fn wait_for_reports(hosts: &[(String, NapletServer)], home: &str) -> Vec<Value> {
        hosts
            .iter()
            .find(|(h, _)| h == home)
            .map(|(_, s)| s.reports.iter().map(|(_, v)| v.clone()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn live_runtime_completes_a_journey_on_threads() {
        let mut reg = CodebaseRegistry::new();
        reg.register("greeter", 256, || Greeter);
        let fabric = Fabric::new(LatencyModel::Constant(1), naplet_net::Bandwidth(None), 2);
        let mut live = LiveRuntime::new(fabric, 0); // no real sleeps

        for host in ["home", "a", "b"] {
            let mut cfg = ServerConfig::open(host, LocationMode::HomeManagers);
            cfg.codebase = reg.clone();
            live.add_server(cfg);
        }
        let key = SigningKey::new("t", b"k");
        let it = Itinerary::new(Pattern::seq_of_hosts(&["a", "b"], None)).unwrap();
        let naplet = Naplet::create(
            &key,
            "t",
            "home",
            Millis(0),
            "greeter",
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap();
        live.launch(naplet).unwrap();
        live.start();

        // poll until the journey finishes (bounded)
        let deadline = Instant::now() + Duration::from_secs(5);
        let servers = loop {
            std::thread::sleep(Duration::from_millis(20));
            if Instant::now() > deadline {
                break live.shutdown();
            }
            // cannot peek while running; rely on time then shut down
            if Instant::now() > deadline - Duration::from_millis(4_800) {
                // ~200ms elapsed: plenty for 2 hops with 0-scale delays
                break live.shutdown();
            }
        };
        let reports = wait_for_reports(&servers, "home");
        assert_eq!(reports.len(), 2, "reports: {reports:?}");
        assert!(reports.contains(&Value::from("hi from a")));
        assert!(reports.contains(&Value::from("hi from b")));
    }

    #[test]
    fn launch_after_start_is_rejected() {
        let fabric = Fabric::new(LatencyModel::Constant(1), naplet_net::Bandwidth(None), 2);
        let mut live = LiveRuntime::new(fabric, 0);
        let cfg = ServerConfig::open("home", LocationMode::ForwardingTrace);
        live.add_server(cfg);
        live.start();
        let key = SigningKey::new("t", b"k");
        let it = Itinerary::new(Pattern::singleton("home")).unwrap();
        let naplet = Naplet::create(
            &key,
            "t",
            "home",
            Millis(0),
            "x",
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap();
        assert!(live.launch(naplet).is_err());
        live.shutdown();
    }
}
