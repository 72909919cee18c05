//! Multi-process cluster harness: real `napletd` daemons on localhost.
//!
//! Everything else in this crate measures the deterministic
//! [`naplet_server::SimRuntime`]; this module is the opposite end of
//! the fidelity spectrum — it spawns one OS process per node from the
//! compiled `napletd` binary, wires them with a generated bootstrap
//! file, and drives journeys through them over real TCP. The CI
//! `cluster-smoke` job runs the `tests/cluster_smoke.rs` suite on top
//! of it: a ring migration across live daemons, then a `kill -9`
//! mid-journey with journal recovery and a home-side lease
//! re-dispatch.
//!
//! The harness's own home node (`ctl`) runs in-process so tests can
//! inspect reports and lease counters between pumps: it is a
//! [`Node`] over a [`TcpTransport`] — the same driver `LiveRuntime`'s
//! server threads run — pumped on the test thread by
//! [`CtlNode::pump_until`].
//!
//! Daemon stdout/stderr land in per-node log files under the
//! harness's scratch directory (override with
//! `NAPLET_CLUSTER_LOG_DIR` so CI can upload them as artifacts).

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use naplet_core::clock::Millis;
use naplet_core::credential::SigningKey;
use naplet_core::error::{NapletError, Result};
use naplet_core::itinerary::{Itinerary, Pattern};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::tcp::TcpTransport;
use naplet_obs::ObsSink;
use naplet_server::bootstrap::BootstrapConfig;
use naplet_server::daemon::{register_probe, PROBE_CODEBASE};
use naplet_server::node::unix_ms_at;
use naplet_server::status::StatusReport;
use naplet_server::{LeasePolicy, LocationMode, NapletServer, Node, RetryPolicy, ServerConfig};

/// The harness's in-process home node name, present in every generated
/// bootstrap file so daemons know the route back.
pub const CTL: &str = "ctl";

/// A spare station entry in every generated bootstrap file that no
/// daemon occupies — [`crate::ops::ClusterStatusPoller`] (or `naplet-ops
/// status <config> mon`) binds it to poll the live cluster.
pub const MON: &str = "mon";

/// Locate the compiled `napletd` binary: `NAPLET_BIN`/`NAPLETD_BIN`
/// override, else next to the test executable's `target/<profile>/`
/// directory (tests live one level down in `deps/`).
pub fn napletd_bin() -> Result<PathBuf> {
    for var in ["NAPLETD_BIN", "NAPLET_BIN"] {
        if let Ok(path) = std::env::var(var) {
            return Ok(PathBuf::from(path));
        }
    }
    let mut dir =
        std::env::current_exe().map_err(|e| NapletError::Internal(format!("current_exe: {e}")))?;
    dir.pop(); // the test binary itself
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join("napletd");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(NapletError::NotFound(format!(
            "napletd binary not found at {} — `cargo build -p napletd` first \
             or set NAPLETD_BIN",
            bin.display()
        )))
    }
}

/// A cluster of real daemon processes plus the bootstrap file they
/// share. Dropping the harness kills every remaining daemon.
pub struct ClusterHarness {
    config: BootstrapConfig,
    config_path: PathBuf,
    root: PathBuf,
    log_dir: PathBuf,
    daemons: BTreeMap<String, Child>,
}

impl ClusterHarness {
    /// Boot `nodes` as daemon processes. `cluster_section` is appended
    /// verbatim under `[cluster]` (e.g. `"lease_ms = 1500\n"`); every
    /// node gets a journal directory under the harness scratch dir,
    /// and a `ctl` node entry is added for the in-process home. Blocks
    /// until every daemon's listen port accepts.
    pub fn launch(tag: &str, nodes: &[&str], cluster_section: &str) -> Result<ClusterHarness> {
        ClusterHarness::launch_with(tag, nodes, cluster_section, "")
    }

    /// [`ClusterHarness::launch`] plus `extra_toml` appended verbatim
    /// after the node entries — how chaos tests add a `[directory]`
    /// replica-set section to the generated bootstrap file.
    pub fn launch_with(
        tag: &str,
        nodes: &[&str],
        cluster_section: &str,
        extra_toml: &str,
    ) -> Result<ClusterHarness> {
        let bin = napletd_bin()?;
        let root =
            std::env::temp_dir().join(format!("naplet-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| NapletError::Internal(format!("mkdir {}: {e}", root.display())))?;
        // one subdirectory per harness tag: several tests sharing the
        // override must not append into each other's daemon logs
        let log_dir = std::env::var("NAPLET_CLUSTER_LOG_DIR")
            .map(|d| PathBuf::from(d).join(tag))
            .unwrap_or_else(|_| root.join("logs"));
        std::fs::create_dir_all(&log_dir)
            .map_err(|e| NapletError::Internal(format!("mkdir {}: {e}", log_dir.display())))?;

        // reserve one free port per node (plus ctl) by binding :0,
        // then releasing just before the daemons bind for real
        let mut addrs: BTreeMap<String, SocketAddr> = BTreeMap::new();
        {
            let mut keep = Vec::new();
            for name in nodes.iter().copied().chain([CTL, MON]) {
                let l = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| NapletError::Internal(format!("reserve port: {e}")))?;
                addrs.insert(name.to_string(), l.local_addr().unwrap());
                keep.push(l);
            }
        }

        let mut toml = format!("[cluster]\n{cluster_section}");
        for name in nodes.iter().copied().chain([CTL, MON]) {
            let journal = root.join("journal").join(name);
            toml.push_str(&format!(
                "\n[[node]]\nname = \"{name}\"\nlisten = \"{}\"\njournal = \"{}\"\n",
                addrs[name],
                journal.display()
            ));
        }
        if !extra_toml.is_empty() {
            toml.push('\n');
            toml.push_str(extra_toml);
        }
        let config_path = root.join("cluster.toml");
        std::fs::write(&config_path, &toml)
            .map_err(|e| NapletError::Internal(format!("write config: {e}")))?;
        let config = BootstrapConfig::parse(&toml)?;

        let mut harness = ClusterHarness {
            config,
            config_path,
            root,
            log_dir,
            daemons: BTreeMap::new(),
        };
        for name in nodes {
            // a fresh cluster starts from empty logs even when a prior
            // run left files under an overridden log dir; restarts
            // within this cluster's lifetime append
            let _ = std::fs::remove_file(harness.log_path(name));
            harness.spawn(name, &bin)?;
        }
        for name in nodes {
            harness.await_listening(name, Duration::from_secs(10))?;
        }
        Ok(harness)
    }

    /// The parsed bootstrap config the daemons were started with.
    pub fn config(&self) -> &BootstrapConfig {
        &self.config
    }

    /// The harness scratch directory (config file, journals, default
    /// log location). Left on disk for post-mortems; the OS temp
    /// cleaner reaps it.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    /// Where a node's stdout/stderr is being captured.
    pub fn log_path(&self, node: &str) -> PathBuf {
        self.log_dir.join(format!("{node}.log"))
    }

    /// Everything a node has printed so far (across restarts — the
    /// log file is appended, never truncated).
    pub fn log(&self, node: &str) -> String {
        std::fs::read_to_string(self.log_path(node)).unwrap_or_default()
    }

    fn spawn(&mut self, node: &str, bin: &PathBuf) -> Result<()> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.log_path(node))
            .map_err(|e| NapletError::Internal(format!("open log: {e}")))?;
        let err = log
            .try_clone()
            .map_err(|e| NapletError::Internal(format!("clone log: {e}")))?;
        let child = Command::new(bin)
            .arg("--config")
            .arg(&self.config_path)
            .arg("--node")
            .arg(node)
            .stdin(Stdio::null())
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| NapletError::Internal(format!("spawn napletd[{node}]: {e}")))?;
        self.daemons.insert(node.to_string(), child);
        Ok(())
    }

    fn await_listening(&self, node: &str, timeout: Duration) -> Result<()> {
        let addr = self
            .config
            .node(node)
            .ok_or_else(|| NapletError::NotFound(format!("no node `{node}`")))?
            .listen;
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        Err(NapletError::Timeout(format!(
            "napletd[{node}] never listened on {addr}; log:\n{}",
            self.log(node)
        )))
    }

    /// SIGUSR1 a daemon: ask its watcher thread to write a flight-
    /// recorder dump without disturbing service.
    pub fn sigusr1(&self, node: &str) -> Result<()> {
        let child = self
            .daemons
            .get(node)
            .ok_or_else(|| NapletError::NotFound(format!("no daemon `{node}` running")))?;
        let status = Command::new("kill")
            .arg("-USR1")
            .arg(child.id().to_string())
            .status()
            .map_err(|e| NapletError::Internal(format!("kill -USR1 {node}: {e}")))?;
        if status.success() {
            Ok(())
        } else {
            Err(NapletError::Internal(format!(
                "kill -USR1 {node} exited {status}"
            )))
        }
    }

    /// SIGKILL a daemon — the crash the journal exists for. The node's
    /// journal directory survives for the next incarnation.
    pub fn kill9(&mut self, node: &str) -> Result<()> {
        let child = self
            .daemons
            .get_mut(node)
            .ok_or_else(|| NapletError::NotFound(format!("no daemon `{node}` running")))?;
        child
            .kill()
            .map_err(|e| NapletError::Internal(format!("kill -9 {node}: {e}")))?;
        let _ = child.wait();
        self.daemons.remove(node);
        Ok(())
    }

    /// Start a fresh incarnation of a (killed) node: same config, same
    /// listen address, same journal directory — boot-time replay does
    /// the rest.
    pub fn restart(&mut self, node: &str) -> Result<()> {
        if self.daemons.contains_key(node) {
            return Err(NapletError::Internal(format!(
                "daemon `{node}` is still running"
            )));
        }
        let bin = napletd_bin()?;
        self.spawn(node, &bin)?;
        self.await_listening(node, Duration::from_secs(10))
    }

    /// SIGTERM every daemon and wait for clean exits. Returns each
    /// node's exit status for assertion.
    pub fn shutdown(mut self) -> Vec<(String, bool)> {
        let mut results = Vec::new();
        let names: Vec<String> = self.daemons.keys().cloned().collect();
        for node in &names {
            if let Some(child) = self.daemons.get(node) {
                let _ = Command::new("kill")
                    .arg("-TERM")
                    .arg(child.id().to_string())
                    .status();
            }
        }
        for node in names {
            let mut child = self.daemons.remove(&node).expect("listed above");
            let deadline = Instant::now() + Duration::from_secs(5);
            let clean = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break status.success(),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break false;
                    }
                }
            };
            results.push((node, clean));
        }
        results
    }

    /// Build the in-process home node over its own TCP transport.
    pub fn ctl(&self) -> Result<CtlNode> {
        CtlNode::start(&self.config)
    }
}

impl Drop for ClusterHarness {
    fn drop(&mut self) {
        for (_, child) in self.daemons.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The harness's in-process home server, pumped on the test thread so
/// reports, lease counters and the status table stay inspectable
/// while the cluster runs.
pub struct CtlNode {
    /// Records into its own flight recorder and stamps its sends like
    /// any daemon, so a merged cluster trace can pair the launch
    /// handshake with its admission on the first daemon.
    node: Node<TcpTransport>,
    key: SigningKey,
    /// Creation timestamp handed to the previous launch: two probes
    /// launched within one wall-clock millisecond must still get
    /// distinct naplet ids (id = owner+home+creation time).
    last_launch_ts: u64,
}

impl CtlNode {
    fn start(config: &BootstrapConfig) -> Result<CtlNode> {
        let net = TcpTransport::start(config.tcp_config(CTL)?)?;
        // mirror the daemons' location mode: with a `[directory]`
        // section the home routes registrations (and lease probes) at
        // the replica set instead of acting as its own manager
        let mode = match &config.directory {
            Some(dir) => LocationMode::ReplicatedDirectory(dir.replicas.clone()),
            None => LocationMode::HomeManagers,
        };
        let mut cfg = ServerConfig::open(CTL, mode);
        if let Some(dir) = &config.directory {
            cfg.repl = Some(dir.repl_config());
        }
        register_probe(&mut cfg.codebase);
        if let Some(duration_ms) = config.lease_ms {
            cfg.lease = Some(LeasePolicy {
                duration_ms,
                ..LeasePolicy::default()
            });
        }
        // fail over fast: cluster tests deliberately kill nodes, and
        // the CI budget prefers quick give-ups over long tails
        cfg.retry = RetryPolicy {
            base_timeout_ms: 100,
            max_timeout_ms: 800,
            max_retries: 5,
        };
        let epoch = Instant::now();
        let obs = ObsSink::default();
        obs.recorder.enable(unix_ms_at(epoch));
        Ok(CtlNode {
            node: Node::new(Arc::new(net), cfg, obs, epoch),
            key: SigningKey::new("ops", b"cluster-harness"),
            last_launch_ts: 0,
        })
    }

    /// Launch one probe around `hosts` (in order) and home again.
    pub fn launch_probe(&mut self, hosts: &[&str]) -> Result<()> {
        let ts = self.node.now().0.max(self.last_launch_ts + 1);
        self.last_launch_ts = ts;
        let it = Itinerary::new(Pattern::seq_of_hosts(hosts, None))?;
        let naplet = Naplet::create(
            &self.key,
            "ops",
            CTL,
            Millis(ts),
            PROBE_CODEBASE,
            AgentKind::Native,
            it,
            vec![],
        )?;
        self.node.launch(naplet);
        Ok(())
    }

    /// Pump until `pred(self)` holds or `timeout` passes; returns
    /// whether the predicate was met.
    pub fn pump_until(
        &mut self,
        timeout: Duration,
        mut pred: impl FnMut(&CtlNode) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            self.node.pump();
            if pred(self) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // a frame or a timer ends the wait at once; the 10 ms cap
            // is for predicates that read transport counters (drops,
            // retransmits), which other threads move without waking
            // this inbox
            self.node
                .wait(Some(deadline.min(now + Duration::from_millis(10))));
        }
    }

    /// Whether the home manager's table currently shows any launched
    /// naplet `Running` at `host` — i.e. its arrival registration came
    /// back, which the destination only sends after journaling the
    /// admission. The precise "agent is resident there" gate chaos
    /// tests kill on.
    pub fn running_at(&self, host: &str) -> bool {
        self.server()
            .manager
            .launched()
            .iter()
            .any(|e| e.last_known == host && e.status == naplet_server::NapletStatus::Running)
    }

    /// Values probes have reported home so far.
    pub fn reports(&self) -> Vec<Value> {
        self.server()
            .reports
            .iter()
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// The home server's status report (lease counters, journal lag).
    pub fn status(&self) -> StatusReport {
        self.server().status_report(self.node.now())
    }

    /// The underlying server, for assertions beyond the status report.
    pub fn server(&self) -> &NapletServer {
        &self.node.server
    }

    /// Wire statistics of the ctl transport (drops during outages,
    /// retransmissions).
    pub fn net_stats(&self) -> naplet_net::StatsSnapshot {
        self.node.transport().stats().snapshot()
    }

    /// The ctl node's own flight-recorder segment, for merging with the
    /// segments fetched (or dumped) from the daemons.
    pub fn trace_segment(&self) -> naplet_obs::TraceSegment {
        self.server().obs().recorder.dump(CTL)
    }
}
