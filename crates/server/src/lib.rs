//! # naplet-server
//!
//! The NapletServer — the dock of naplets (paper §2.2) — and the
//! runtime that drives a whole naplet space.
//!
//! Seven components per server, as in Figure 2 of the paper:
//! NapletMonitor ([`monitor`], which runs every piece of agent code in
//! its [`sandbox`]), NapletSecurityManager ([`security`]),
//! ResourceManager ([`resources`]) with dynamically created
//! ServiceChannels ([`service_channel`]), NapletManager ([`manager`]),
//! Messenger ([`messenger`]), Navigator ([`navigator`]) and Locator
//! ([`locator`]); plus the optional NapletDirectory ([`directory`]).
//! [`server`] routes events between them and keeps the journal; the
//! components send their own frames and timers and record their own
//! observations through the server's one [`events::Outbox`].
//!
//! Servers are deterministic event handlers run by one driver step
//! ([`node::Host`]) over a link: [`runtime::SimRuntime`]'s in virtual
//! time (measurements), [`node::Node`]'s on a wall clock over any
//! `naplet_net::Transport` — on [`live::LiveRuntime`]'s threads or on
//! the caller's own.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod daemon;
pub mod directory;
pub mod events;
pub mod journal;
pub mod lease;
pub mod live;
pub mod locator;
pub mod manager;
pub mod messenger;
pub mod monitor;
pub mod navigator;
pub mod node;
pub mod repl;
pub mod resources;
pub mod retry;
pub mod runtime;
pub mod sandbox;
pub mod security;
pub mod server;
pub mod service_channel;
pub mod status;
mod timers;
mod world;

pub use bootstrap::{BootstrapConfig, NodeConfig};
pub use daemon::{register_probe, Daemon, DaemonSummary, TraceDumper, PROBE_CODEBASE};
pub use directory::{DirEntry, NapletDirectory};
pub use events::{
    Input, LocalEvent, OpsPage, OpsRead, Outbox, Output, TransferEnvelope, Visit, Wire,
};
pub use journal::{
    FileStore, Journal, JournalPhase, JournalRecord, JournalStore, MemoryStore, RecoveryStats,
};
pub use lease::{Lease, LeasePolicy, LeaseTable};
pub use live::LiveRuntime;
pub use locator::{Commits, Holder, Locator};
pub use manager::{NapletManager, NapletStatus, TableEntry};
pub use messenger::Messenger;
pub use monitor::{
    Meter, MonitorPolicy, NapletMonitor, Priority, ResourceUsage, RunEntry, RunState,
    SchedulingPolicy,
};
pub use navigator::Navigator;
pub use node::Node;
pub use repl::{DirOp, ReplConfig, ReplMsg, ReplicaCore};
pub use resources::ResourceManager;
pub use retry::RetryPolicy;
pub use runtime::SimRuntime;
pub use sandbox::{Effects, ExecOutcome, Sandbox, What};
pub use security::{Matcher, Permission, Policy, Rule, SecurityManager};
pub use server::{LocationMode, NapletServer, ServerConfig};
pub use service_channel::{ChannelIo, OpenService, PrivilegedService, ServiceChannel};
pub use status::{ReplStatus, ResidentStatus, StatusReport};
