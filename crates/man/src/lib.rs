//! # naplet-man
//!
//! MAN — Mobile Agents for Network management (paper §6): the
//! application layer built on the Naplet framework, plus the
//! conventional centralized SNMP baseline it is evaluated against.
//!
//! * [`service`] — the `serviceImpl.NetManagement` privileged service
//!   binding a naplet server to its local device's SNMP agent;
//! * [`nm_naplet`](mod@nm_naplet) — the `NMNaplet` behaviour (sequential, broadcast,
//!   threshold-filtering and VM-bytecode variants);
//! * [`centralized`] — the SNMP micro-management baseline running from
//!   a management station over the same metered fabric;
//! * [`live_ops`] — the same ops protocol pointed at a real
//!   `napletd` cluster over TCP;
//! * [`workload`] — MIB variable sets for health polls, table walks
//!   and error diagnosis;
//! * [`world`] — the NOC + n-device experiment world with per-round
//!   traffic/latency outcomes.

#![warn(missing_docs)]

pub mod centralized;
pub mod live_ops;
pub mod nm_naplet;
pub mod service;
pub mod workload;
pub mod world;

pub use centralized::{install_snmp_endpoint, CentralizedManager, SNMP_TAG};
pub use live_ops::ClusterStatusPoller;
pub use nm_naplet::{
    nm_naplet, nm_vm_naplet, nm_vm_program, register_nm_codebase, with_threshold, NmBehavior,
    NM_CODEBASE, NM_CODE_SIZE,
};
pub use service::{NetManagement, SharedDevice, NET_MANAGEMENT};
pub use workload::{diagnosis_oids, health_oids, params_string};
pub use world::{ManWorld, PollOutcome};
