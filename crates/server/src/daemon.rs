//! Single-node daemon lifecycle: what `napletd` runs.
//!
//! A daemon is one NapletServer deployed over a real-socket
//! [`TcpTransport`], configured from a shared cluster-bootstrap file
//! (see [`crate::bootstrap`]). Boot order matters and is fixed here so
//! every node restarts identically:
//!
//! 1. bind the listen socket and start one thread per peer in the
//!    static peer list (each dials on its first queued frame);
//! 2. open the write-ahead journal ([`FileStore`] when the node has a
//!    `journal` path, in-memory otherwise, numbering its ids by the boot
//!    second: [`Journal::in_memory_at_boot`]);
//! 3. replay the journal — retransmitted handshakes go out before the
//!    server accepts new work, so an agent in-flight across a crash
//!    re-enters the retry machinery first;
//! 4. start the server thread plus the watchdog sweeper.
//!
//! A started daemon serves on its own threads; whoever owns it decides
//! when it ends (`napletd`'s main thread on SIGTERM, a test when it is
//! done) and calls [`Daemon::shutdown`], which stops the runtime and
//! returns a [`DaemonSummary`] built from the server's final status
//! report. The `FileStore` journal writes through on every record, so
//! a clean exit needs no separate flush step — the summary's journal
//! figures are what a successor process will replay.

use std::path::PathBuf;
use std::time::SystemTime;

use naplet_core::error::{NapletError, Result};
use naplet_core::value::Value;
use naplet_net::tcp::TcpTransport;
use naplet_obs::{flight_dump_json_with, metrics_history_json, ObsSink, WatchdogConfig};

use crate::bootstrap::BootstrapConfig;
use crate::journal::{FileStore, Journal, RecoveryStats};
use crate::lease::LeasePolicy;
use crate::live::LiveRuntime;
use crate::server::{LocationMode, NapletServer, ServerConfig};
use crate::status::StatusReport;

/// Codebase every daemon registers at boot: a minimal journey probe
/// the cluster smoke tests (and operators) can dispatch to prove
/// end-to-end migration works. It reports `probe:<host>` home from
/// every stop.
pub const PROBE_CODEBASE: &str = "cluster-probe";

struct ClusterProbe;

impl naplet_core::behavior::NapletBehavior for ClusterProbe {
    fn on_start(&mut self, ctx: &mut dyn naplet_core::context::NapletContext) -> Result<()> {
        ctx.report_home(Value::from(format!("probe:{}", ctx.host_name())))
    }
}

/// Register the [`PROBE_CODEBASE`] factory in any registry, so harness
/// home nodes can dispatch the same probe the daemons serve.
pub fn register_probe(codebase: &mut naplet_core::codebase::CodebaseRegistry) {
    codebase.register(PROBE_CODEBASE, 256, || ClusterProbe);
}

/// A running single-node daemon.
pub struct Daemon {
    node: String,
    live: LiveRuntime<TcpTransport>,
    recovery: RecoveryStats,
    trace_path: PathBuf,
}

/// A detachable handle for writing the daemon's flight-recorder dump
/// to disk — cloned into signal-watcher threads and the panic hook, so
/// a dump can be taken at any moment without touching the [`Daemon`]
/// itself.
#[derive(Clone)]
pub struct TraceDumper {
    obs: ObsSink,
    node: String,
    path: PathBuf,
}

impl TraceDumper {
    /// The single-line JSON flight dump (one [`naplet_obs::TraceSegment`]
    /// with the node's metrics totals at dump time embedded).
    pub fn json(&self) -> String {
        flight_dump_json_with(
            &self.obs.recorder.dump(&self.node),
            Some(&self.obs.metrics.snapshot()),
        )
    }

    /// The single-line JSON metrics-history dump (one
    /// [`naplet_obs::MetricsHistoryPage`] of sweep-interval deltas).
    pub fn metrics_json(&self) -> String {
        metrics_history_json(&self.obs.history.dump(&self.node))
    }

    /// Where [`TraceDumper::write`] puts the trace dump.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Where [`TraceDumper::write`] puts the metrics-history dump:
    /// `{node}.metrics.json` next to the trace dump.
    pub fn metrics_path(&self) -> PathBuf {
        self.path
            .with_file_name(format!("{}.metrics.json", self.node))
    }

    /// Write both dumps (trace + metrics history) to their configured
    /// paths, creating parent directories as needed. Returns the trace
    /// path written; the metrics dump rides best-effort alongside.
    pub fn write(&self) -> Result<PathBuf> {
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&self.path, self.json()).map_err(|e| {
            NapletError::Internal(format!("write trace dump {}: {e}", self.path.display()))
        })?;
        let _ = std::fs::write(self.metrics_path(), self.metrics_json());
        Ok(self.path.clone())
    }
}

/// What a daemon reports when it exits cleanly.
#[derive(Debug, Clone)]
pub struct DaemonSummary {
    /// The node name this daemon served.
    pub node: String,
    /// The server's final status report (residents, journal figures,
    /// lease counters).
    pub status: StatusReport,
    /// What the boot-time journal replay restored.
    pub recovery: RecoveryStats,
    /// Values reported home to this node by visiting naplets.
    pub reports: Vec<Value>,
    /// Stall alerts the watchdog raised over the daemon's lifetime.
    pub alerts: u64,
    /// Where the shutdown flight-recorder dump was written (`None` if
    /// the write failed).
    pub trace_path: Option<PathBuf>,
}

impl Daemon {
    /// Boot a daemon for `node` as described by `config`: bind the
    /// transport, open and replay the journal, start the server and
    /// watchdog threads. Returns once the node is serving.
    pub fn start(config: &BootstrapConfig, node: &str) -> Result<Daemon> {
        let node_cfg = config
            .node(node)
            .ok_or_else(|| NapletError::NotFound(format!("no node `{node}` in config")))?
            .clone();
        let transport = TcpTransport::start(config.tcp_config(node)?)?;
        let mut live = LiveRuntime::over(transport);
        live.enable_watchdog(WatchdogConfig::default());
        // every daemon keeps both black boxes (dumped on SIGUSR1 /
        // shutdown / panic, paged out remotely by the ops protocol) and
        // exports hot-path handler latencies
        live.enable_black_boxes();
        live.enable_profiling();
        let trace_path = config
            .trace_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!("{node}.trace.json"));

        let mode = match &config.directory {
            Some(dir) => LocationMode::ReplicatedDirectory(dir.replicas.clone()),
            None => LocationMode::HomeManagers,
        };
        let mut server_cfg = ServerConfig::open(node, mode);
        if let Some(dir) = &config.directory {
            // only replica-set members instantiate a consensus core;
            // other nodes use the config for routing alone
            server_cfg.repl = Some(dir.repl_config());
        }
        register_probe(&mut server_cfg.codebase);
        if let Some(dwell_ms) = config.dwell_ms {
            server_cfg.monitor_policy.native_dwell_ms = dwell_ms;
        }
        if let Some(duration_ms) = config.lease_ms {
            server_cfg.lease = Some(LeasePolicy {
                duration_ms,
                ..LeasePolicy::default()
            });
        }
        let server = live.add_server(server_cfg);
        server.set_journal(match &node_cfg.journal {
            Some(dir) => Journal::with_store(Box::new(FileStore::open(dir)?)),
            None => Journal::in_memory_at_boot(SystemTime::now()),
        });
        let recovery = live.recover(node)?;
        live.start();
        Ok(Daemon {
            node: node.to_string(),
            live,
            recovery,
            trace_path,
        })
    }

    /// A clonable handle for dumping this daemon's flight recorder —
    /// hand it to signal watchers and panic hooks.
    pub fn trace_dumper(&self) -> TraceDumper {
        TraceDumper {
            obs: self.live.obs().clone(),
            node: self.node.clone(),
            path: self.trace_path.clone(),
        }
    }

    /// What the boot-time journal replay restored.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// The node's transport (peer control, wire stats).
    pub fn transport(&self) -> &TcpTransport {
        self.live.transport()
    }

    /// Stop the server and watchdog threads, write the flight dumps
    /// and summarize.
    pub fn shutdown(self) -> Result<DaemonSummary> {
        let alerts = self.live.alerts().len() as u64;
        let now = self.live.now();
        let dumper = self.trace_dumper();
        let node = self.node;
        let recovery = self.recovery;
        let mut servers = self.live.shutdown();
        // a clean shutdown always leaves a readable flight dump behind;
        // written after the serve loops drain so the dump covers the
        // final sends
        let trace_path = dumper.write().ok();
        let server: NapletServer = servers
            .iter()
            .position(|(host, _)| *host == node)
            .map(|i| servers.swap_remove(i).1)
            .ok_or_else(|| NapletError::Internal(format!("daemon server `{node}` vanished")))?;
        let status = server.status_report(now);
        let reports = server.reports.iter().map(|(_, v)| v.clone()).collect();
        Ok(DaemonSummary {
            node,
            status,
            recovery,
            reports,
            alerts,
            trace_path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{OpsPage, OpsRead, Wire};
    use crate::node::Node;
    use naplet_core::clock::Millis;
    use naplet_core::credential::{Credential, SigningKey};
    use naplet_core::id::NapletId;
    use naplet_core::itinerary::{Itinerary, Pattern};
    use naplet_core::naplet::{AgentKind, Naplet};
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Two free ports, reserved briefly so the config is valid when
    /// the daemons bind.
    fn two_free_addrs() -> (String, String) {
        let a = TcpListener::bind("127.0.0.1:0").unwrap();
        let b = TcpListener::bind("127.0.0.1:0").unwrap();
        (
            a.local_addr().unwrap().to_string(),
            b.local_addr().unwrap().to_string(),
        )
    }

    fn two_node_config(addr_a: &str, addr_b: &str, journal_a: Option<&str>) -> BootstrapConfig {
        let journal = journal_a
            .map(|d| format!("journal = \"{d}\"\n"))
            .unwrap_or_default();
        BootstrapConfig::parse(&format!(
            "[[node]]\nname = \"alpha\"\nlisten = \"{addr_a}\"\n{journal}\
             [[node]]\nname = \"beta\"\nlisten = \"{addr_b}\"\n"
        ))
        .unwrap()
    }

    #[test]
    fn daemon_boots_serves_a_probe_and_shuts_down() {
        let (addr_a, addr_b) = two_free_addrs();
        let config = two_node_config(&addr_a, &addr_b, None);
        let alpha = Daemon::start(&config, "alpha").unwrap();
        let beta = Daemon::start(&config, "beta").unwrap();

        // drive a probe from a third, in-process "operator" node that
        // the daemons don't know as a peer — alpha only needs to see
        // the operator to send replies, so teach alpha the route
        let op_transport = TcpTransport::start(naplet_net::tcp::TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            Default::default(),
        ))
        .unwrap();
        let op_addr = op_transport.local_addr();
        alpha.transport().add_peer("op", op_addr).unwrap();
        op_transport
            .add_peer("alpha", addr_a.parse().unwrap())
            .unwrap();
        let mut cfg = ServerConfig::open("op", LocationMode::HomeManagers);
        cfg.codebase.register(PROBE_CODEBASE, 256, || ClusterProbe);
        let mut op = Node::new(
            Arc::new(op_transport),
            cfg,
            ObsSink::default(),
            Instant::now(),
        );
        let key = SigningKey::new("ops", b"secret");
        let it = Itinerary::new(Pattern::singleton("alpha")).unwrap();
        let naplet = Naplet::create(
            &key,
            "ops",
            "op",
            Millis(0),
            PROBE_CODEBASE,
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap();
        op.launch(naplet);

        // the probe migrates op → alpha, runs, and reports home; the
        // operator is pumped right here, so the test ends the moment
        // the report is in (retry backoff covers any frame the
        // connection setup races)
        let deadline = Instant::now() + Duration::from_secs(10);
        while op.server.reports.is_empty() {
            assert!(Instant::now() < deadline, "probe never reported home");
            op.wait(Some(deadline));
        }
        let reports: Vec<Value> = op.server.reports.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(
            reports,
            vec![Value::from("probe:alpha")],
            "probe must run on the daemon and report home over TCP"
        );

        for daemon in [alpha, beta] {
            let summary = daemon.shutdown().unwrap();
            assert_eq!(summary.status.parked, 0);
        }
    }

    #[test]
    fn journal_survives_a_daemon_restart() {
        let dir = std::env::temp_dir().join(format!(
            "naplet-daemon-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (addr_a, addr_b) = two_free_addrs();
        let config = two_node_config(&addr_a, &addr_b, dir.to_str());

        let daemon = Daemon::start(&config, "alpha").unwrap();
        assert_eq!(
            daemon.recovery().rehydrated,
            0,
            "first boot replays nothing"
        );
        daemon.shutdown().unwrap();

        // a second incarnation reopens the same journal directory
        let daemon = Daemon::start(&config, "alpha").unwrap();
        assert_eq!(daemon.recovery().rehydrated, 0);
        daemon.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_node_name_is_rejected() {
        let (addr_a, addr_b) = two_free_addrs();
        let config = two_node_config(&addr_a, &addr_b, None);
        assert!(Daemon::start(&config, "nope").is_err());
    }

    #[test]
    fn replicated_directory_cluster_elects_one_leader_over_tcp() {
        let addrs: Vec<String> = (0..4)
            .map(|_| {
                TcpListener::bind("127.0.0.1:0")
                    .unwrap()
                    .local_addr()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let mut text = String::new();
        for (i, addr) in addrs[..3].iter().enumerate() {
            text.push_str(&format!("[[node]]\nname = \"d{i}\"\nlisten = \"{addr}\"\n"));
        }
        // a station entry no daemon occupies, to watch the election from
        text.push_str(&format!(
            "[[node]]\nname = \"mon\"\nlisten = \"{}\"\n",
            addrs[3]
        ));
        text.push_str("[directory]\nreplicas = \"d0, d1, d2\"\n");
        let config = BootstrapConfig::parse(&text).unwrap();
        let daemons: Vec<Daemon> = (0..3)
            .map(|i| Daemon::start(&config, &format!("d{i}")).unwrap())
            .collect();

        // watch the election over the status protocol: ask every
        // replica until all three report a leader with its noop
        // committed (or 5 s pass; the assertions below then say what
        // was missing)
        let mut mon = Node::new(
            Arc::new(TcpTransport::start(config.tcp_config("mon").unwrap()).unwrap()),
            ServerConfig::open("mon", LocationMode::ForwardingTrace),
            ObsSink::default(),
            Instant::now(),
        );
        let key = SigningKey::new("ops", b"secret");
        let id = NapletId::new("ops", "mon", Millis(1)).unwrap();
        let credential = Credential::issue(&key, id, "ops-plane", vec![]);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut elected = false;
        while !elected && Instant::now() < deadline {
            for (token, replica) in ["d0", "d1", "d2"].into_iter().enumerate() {
                mon.send(
                    replica,
                    Wire::OpsRequest {
                        token: token as u64,
                        reply_to: "mon".into(),
                        credential: credential.clone(),
                        read: OpsRead::Status,
                    },
                );
            }
            // one round: the three answers, or 50 ms
            let round = deadline.min(Instant::now() + Duration::from_millis(50));
            while mon.server.ops_replies.len() < 3 && Instant::now() < round {
                mon.wait(Some(round));
            }
            let replies = std::mem::take(&mut mon.server.ops_replies);
            elected = replies.len() == 3
                && replies.iter().all(|(_, page)| {
                    let Some(OpsPage::Status(report)) = page else {
                        return false;
                    };
                    let repl = report.repl.as_ref();
                    repl.is_some_and(|r| r.leader.is_some() && r.commit >= 1)
                });
        }

        // then the final status reports: exactly one leader, everyone
        // agreeing on it, and at least the leader's noop committed
        // everywhere
        let summaries: Vec<DaemonSummary> =
            daemons.into_iter().map(|d| d.shutdown().unwrap()).collect();
        let repl: Vec<_> = summaries
            .iter()
            .map(|s| s.status.repl.as_ref().expect("replica must report"))
            .collect();
        let leaders = repl.iter().filter(|r| r.role == "leader").count();
        assert_eq!(leaders, 1, "exactly one leader: {repl:?}");
        assert!(
            repl.iter().all(|r| r.commit >= 1),
            "noop must commit on every replica: {repl:?}"
        );
        let hints: Vec<_> = repl.iter().filter_map(|r| r.leader.clone()).collect();
        assert!(
            hints.windows(2).all(|w| w[0] == w[1]),
            "replicas disagree on the leader: {hints:?}"
        );
    }
}
