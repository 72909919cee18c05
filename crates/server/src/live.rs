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
//! Every server lives in a [`Node`] — the one receive → handle → enact
//! step, on a wall-clock link that owns its inbox and timers.
//! Before [`LiveRuntime::start`] the nodes sit in a staging list and
//! the caller's thread drives them: launches and recovery send their
//! handshakes at once and leave their timers in the node's heap.
//! `start` moves each node onto a thread of its own running
//! [`Node::run`], plus one sweep thread when the watchdog or the
//! metrics history is on (a watchdog should not run on the thread it
//! watches).
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
use naplet_net::{Fabric, ThreadedNet, Transport};
use naplet_obs::{ObsSink, WatchdogConfig};

use crate::node::{unix_ms_at, Node};
use crate::server::{NapletServer, ServerConfig};

/// A naplet space running on real threads over a pluggable
/// [`Transport`]. The default transport is the in-process
/// [`ThreadedNet`]; [`LiveRuntime::over`] runs the same servers over
/// real sockets.
pub struct LiveRuntime<T: Transport = ThreadedNet> {
    net: Arc<T>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    threads: Vec<(String, JoinHandle<NapletServer>)>,
    /// Nodes constructed but not yet started (launch window).
    staging: Vec<Node<T>>,
    /// Shared observability sink handed to every server. Live traces
    /// are wall-clock ordered, so unlike the sim they are not
    /// deterministic — but the same taxonomy and exporters apply.
    obs: ObsSink,
    /// Watchdog sweep thread (armed by `enable_watchdog` + `start`).
    sweeper: Option<JoinHandle<()>>,
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
        self.obs.recorder.set_epoch_unix_ms(unix_ms_at(self.epoch));
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
        self.obs.history.set_epoch_unix_ms(unix_ms_at(self.epoch));
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
        let node = Node::new(Arc::clone(&self.net), config, self.obs.clone(), self.epoch);
        self.staging.push(node);
        &mut self.staging.last_mut().expect("just pushed").server
    }

    fn staged(&mut self, host: &str) -> Result<&mut Node<T>> {
        self.staging
            .iter_mut()
            .find(|node| node.server.host() == host)
            .ok_or_else(|| NapletError::NotFound(format!("no staged server at `{host}`")))
    }

    /// Launch a naplet from its home server. Only valid before
    /// [`LiveRuntime::start`] (afterwards the server belongs to its
    /// thread; use owner messages instead).
    pub fn launch(&mut self, naplet: Naplet) -> Result<()> {
        let home = naplet.home().to_string();
        self.staged(&home)?.launch(naplet);
        Ok(())
    }

    /// Replay a staged server's write-ahead journal and enact the
    /// recovery outputs — retransmitted handshakes go out over the
    /// transport, re-armed acknowledgement/lease timers move to the
    /// server's thread on [`LiveRuntime::start`]. Only valid before
    /// `start` (recovery is a boot-time activity; a running server's
    /// journal belongs to its thread).
    pub fn recover(&mut self, host: &str) -> Result<crate::journal::RecoveryStats> {
        Ok(self.staged(host)?.recover())
    }

    /// Start all staged servers on their threads.
    pub fn start(&mut self) {
        for node in self.staging.drain(..) {
            let host = node.server.host().to_string();
            let stop = Arc::clone(&self.stop);
            let handle = std::thread::Builder::new()
                .name(format!("naplet-server-{host}"))
                .spawn(move || node.run(&stop))
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
                                obs.record_stall_alert(&alert);
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
        for node in self.staging.drain(..) {
            out.push((node.server.host().to_string(), node.server));
        }
        out
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

    #[test]
    fn live_runtime_completes_a_journey_on_threads() {
        let mut reg = CodebaseRegistry::new();
        reg.register("greeter", 256, || Greeter);
        let fabric = Fabric::new(LatencyModel::Constant(1), naplet_net::Bandwidth(None), 2);
        let mut live = LiveRuntime::new(fabric, 0); // no real sleeps
        let open = |host: &str| {
            let mut cfg = ServerConfig::open(host, LocationMode::HomeManagers);
            cfg.codebase = reg.clone();
            cfg
        };
        for host in ["a", "b"] {
            live.add_server(open(host));
        }
        live.start();

        // a running server belongs to its thread, so the home is a node
        // on the same net that this thread pumps: its reports are in
        // plain sight and the test ends when they are in, not on a timer
        let mut home = Node::new(
            Arc::clone(&live.net),
            open("home"),
            live.obs.clone(),
            live.epoch,
        );
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
        home.launch(naplet);
        let deadline = Instant::now() + Duration::from_secs(10);
        while home.server.reports.len() < 2 {
            assert!(Instant::now() < deadline, "journey stalled");
            home.wait(Some(deadline));
        }
        let reports: Vec<&Value> = home.server.reports.iter().map(|(_, v)| v).collect();
        assert!(reports.contains(&&Value::from("hi from a")));
        assert!(reports.contains(&&Value::from("hi from b")));
        assert_eq!(live.shutdown().len(), 2);
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
