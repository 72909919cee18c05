//! Real `napletd` processes on loopback.
//!
//! One [`Cluster`] is three daemons (memory journals), a generated
//! bootstrap file, per-daemon logs and their shutdown dumps, all under
//! one scratch directory. Ports are reserved dynamically. Every daemon is killed
//! when the cluster is dropped — on success, on error and on panic —
//! and dies with this process even if it is killed outright.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use naplet_server::BootstrapConfig;

use crate::ring::{CTL, LEASE_MS, RING};

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// The compiled daemon: `NAPLETD_BIN`, else next to this executable
/// (`run.sh` builds both into one target directory).
pub fn napletd_bin() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("NAPLETD_BIN") {
        return Ok(PathBuf::from(path));
    }
    let mut dir = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    dir.pop();
    let bin = dir.join("napletd");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "napletd not found at {} — run benchmark/run.sh (it builds it) or set NAPLETD_BIN",
            bin.display()
        ))
    }
}

/// Three running daemons and the files they share.
pub struct Cluster {
    pub config: BootstrapConfig,
    /// Scratch directory: bootstrap file, journals, logs, daemon dumps.
    pub dir: PathBuf,
    daemons: Vec<(String, Child)>,
}

impl Cluster {
    /// Reserve ports, write the bootstrap file under `dir`, spawn the
    /// daemons and wait until each accepts connections. No node gets a
    /// `journal` directory, so every daemon journals to memory.
    pub fn launch(dir: &Path) -> Result<Cluster, String> {
        let bin = napletd_bin()?;
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir.join("logs")).map_err(|e| format!("mkdir {dir:?}: {e}"))?;

        // bind :0 once per node to learn a free port; the listeners are
        // released just before the daemons bind for real
        let names: Vec<&str> = RING.iter().copied().chain([CTL]).collect();
        let mut toml = format!(
            "[cluster]\nlease_ms = {LEASE_MS}\ndwell_ms = 0\ntrace_dir = \"{}\"\n",
            dir.join("dumps").display()
        );
        {
            let mut held = Vec::new();
            for name in &names {
                let l =
                    TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}"))?;
                let addr = l.local_addr().map_err(|e| format!("local_addr: {e}"))?;
                toml.push_str(&format!(
                    "\n[[node]]\nname = \"{name}\"\nlisten = \"{addr}\"\n"
                ));
                held.push(l);
            }
        }
        let config_path = dir.join("cluster.toml");
        std::fs::write(&config_path, &toml).map_err(|e| format!("write config: {e}"))?;
        let config = BootstrapConfig::parse(&toml).map_err(|e| format!("bootstrap: {e}"))?;

        let mut cluster = Cluster {
            config,
            dir: dir.to_path_buf(),
            daemons: Vec::new(),
        };
        for node in RING {
            let log = std::fs::File::create(dir.join("logs").join(format!("{node}.log")))
                .map_err(|e| format!("open log: {e}"))?;
            let err = log.try_clone().map_err(|e| format!("clone log: {e}"))?;
            let mut cmd = Command::new(&bin);
            cmd.arg("--config")
                .arg(&config_path)
                .arg("--node")
                .arg(node)
                .stdin(Stdio::null())
                .stdout(Stdio::from(log))
                .stderr(Stdio::from(err));
            // SAFETY: the closure runs in the forked child before exec
            // and makes one async-signal-safe system call that touches
            // no memory: ask the kernel to SIGKILL the daemon when the
            // benchmark process dies, however it dies.
            unsafe {
                cmd.pre_exec(|| {
                    prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
                    Ok(())
                });
            }
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn napletd[{node}]: {e}"))?;
            cluster.daemons.push((node.to_string(), child));
        }
        for node in RING {
            cluster.await_listening(node, Duration::from_secs(10))?;
        }
        Ok(cluster)
    }

    fn addr(&self, node: &str) -> SocketAddr {
        self.config.node(node).expect("node was generated").listen
    }

    fn await_listening(&self, node: &str, timeout: Duration) -> Result<(), String> {
        let addr = self.addr(node);
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let log = std::fs::read_to_string(self.dir.join("logs").join(format!("{node}.log")))
            .unwrap_or_default();
        Err(format!(
            "napletd[{node}] never listened on {addr}; log:\n{log}"
        ))
    }

    /// Process ids of the daemons, in ring order.
    pub fn pids(&self) -> Vec<u32> {
        self.daemons.iter().map(|(_, c)| c.id()).collect()
    }

    /// SIGTERM every daemon so each writes its flight and metrics dumps,
    /// and wait for the exits; a daemon still alive after 5 s is killed.
    /// Returns whether every daemon exited cleanly.
    pub fn shutdown(&mut self) -> bool {
        for (_, child) in &self.daemons {
            // SAFETY: plain system call on a pid this process spawned
            // and has not yet waited for, so it cannot have been reused.
            unsafe { kill(child.id() as i32, SIGTERM) };
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut clean = true;
        for (_, mut child) in self.daemons.drain(..) {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        clean &= status.success();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        clean = false;
                        break;
                    }
                }
            }
        }
        clean
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for (_, child) in &mut self.daemons {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
