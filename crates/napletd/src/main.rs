//! `napletd` — one NapletServer as a long-running OS process.
//!
//! The deployment shape the paper describes: every node of the agent
//! flow space runs its own daemon, and naplets migrate between them
//! over real sockets. All daemons in a cluster share one bootstrap
//! file (see `naplet_server::bootstrap`); each is told which `[[node]]`
//! entry it is with `--node`.
//!
//! ```text
//! napletd --config cluster3.toml --node alpha     # serve
//! napletd --check-config cluster3.toml            # validate and exit
//! ```
//!
//! The daemon serves on its own threads; the main thread does nothing
//! but check two signal flags every 20 ms. SIGTERM (and SIGINT) end in
//! a clean shutdown: the serve loop drains, the write-through journal
//! is left consistent for the next incarnation to replay, and a final
//! status summary is printed.
//! SIGUSR1 dumps the flight recorder (the bounded ring of recent trace
//! events) to `<trace_dir>/<node>.trace.json` without disturbing the
//! daemon; the same dump is written on clean shutdown and from the
//! panic hook, so a crashed daemon leaves its last moments readable.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use naplet_server::bootstrap::BootstrapConfig;
use naplet_server::daemon::Daemon;

/// Raised by SIGTERM/SIGINT; the main thread then shuts the daemon
/// down.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Raised by SIGUSR1; the main thread writes the flight dump and
/// clears it.
static DUMP_TRACE: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(signum: i32) {
    // async-signal-safe: a single atomic store
    if signum == SIGUSR1 {
        DUMP_TRACE.store(true, Ordering::Relaxed);
    } else {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }
}

const SIGUSR1: i32 = 10;

/// Install `on_signal` for SIGTERM, SIGINT, and SIGUSR1. `std` links
/// libc on every supported platform, so the raw `signal(2)` binding
/// avoids a dependency; the handler does nothing but flip one atomic.
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
            signal(SIGUSR1, on_signal);
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: napletd --config <file> --node <name>\n       napletd --check-config <file>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // --check-config: validate and report every problem, then exit
    if let Some(i) = args.iter().position(|a| a == "--check-config") {
        let Some(path) = args.get(i + 1) else {
            return usage();
        };
        return match BootstrapConfig::load(path) {
            Ok(config) => {
                println!(
                    "{path}: ok ({} node{})",
                    config.nodes.len(),
                    if config.nodes.len() == 1 { "" } else { "s" }
                );
                for node in &config.nodes {
                    println!("  {} listens on {}", node.name, node.listen);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: invalid cluster config:");
                for line in e.to_string().lines() {
                    eprintln!("  {line}");
                }
                ExitCode::FAILURE
            }
        };
    }

    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(config_path), Some(node)) = (flag_value("--config"), flag_value("--node")) else {
        return usage();
    };

    let config = match BootstrapConfig::load(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("napletd: invalid cluster config `{config_path}`:\n{e}");
            return ExitCode::FAILURE;
        }
    };

    install_signal_handlers();
    let daemon = match Daemon::start(&config, &node) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("napletd[{node}]: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recovery = daemon.recovery();
    println!(
        "napletd[{node}]: serving on {} ({} peers); journal replay rehydrated {} \
         (suppressed {}, resumed handoffs {})",
        config.node(&node).expect("started node exists").listen,
        config.peers_for(&node).len(),
        recovery.rehydrated,
        recovery.replays_suppressed,
        recovery.handoffs_resumed,
    );

    // a panicking daemon still leaves its last moments readable: the
    // hook writes the flight dump before the default handler unwinds
    let dumper = daemon.trace_dumper();
    {
        let dumper = dumper.clone();
        let node = node.clone();
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            match dumper.write() {
                Ok(path) => eprintln!(
                    "napletd[{node}]: panic — trace dumped to {}",
                    path.display()
                ),
                Err(e) => eprintln!("napletd[{node}]: panic — trace dump failed: {e}"),
            }
            default_hook(info);
        }));
    }

    // fault-injection hook for the acceptance suite: prove a panicking
    // daemon leaves a readable dump (the hook fires for any thread)
    if let Some(ms) = std::env::var("NAPLETD_PANIC_AFTER_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            panic!("injected test panic (NAPLETD_PANIC_AFTER_MS)");
        });
    }

    // the daemon serves on its own threads; this one only watches the
    // signal flags: SIGUSR1 writes a flight dump, SIGTERM/SIGINT end
    // the wait (a handler may do no more than store an atomic, so
    // there is nothing to block on)
    while !SHUTDOWN.load(Ordering::Relaxed) {
        if DUMP_TRACE.swap(false, Ordering::Relaxed) {
            match dumper.write() {
                Ok(path) => println!("napletd[{node}]: trace dumped to {}", path.display()),
                Err(e) => eprintln!("napletd[{node}]: trace dump failed: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    match daemon.shutdown() {
        Ok(summary) => {
            let s = &summary.status;
            println!(
                "napletd[{node}]: clean shutdown at {}ms — residents {}, parked {}, \
                 journal {} entries / {} bytes, leases held {} expired {} redispatched {} \
                 lost {}, reports {}, alerts {}",
                s.at.0,
                s.residents.len(),
                s.parked,
                s.journal_entries,
                s.journal_bytes,
                s.leases_held,
                s.leases_expired,
                s.leases_redispatched,
                s.leases_lost,
                summary.reports.len(),
                summary.alerts,
            );
            if let Some(path) = &summary.trace_path {
                println!("napletd[{node}]: trace dumped to {}", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("napletd[{node}]: shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}
