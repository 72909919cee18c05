//! NapletMonitor (paper §5.2).
//!
//! "On receiving a naplet, the monitor creates a NapletThread object
//! and a thread group for the execution of the naplet … The monitor
//! maintains the running state of the thread group and information
//! about consumed system resources including CPU time, memory size,
//! and network bandwidth. It schedules the execution of the naplets
//! according to resource management policies."
//!
//! Rust has no JVM thread groups; the equivalent confinement here is
//! budget enforcement at the execution boundary (DESIGN.md §2): CPU is
//! metered in VM gas (native behaviours are charged a configured
//! dwell), memory as the deep size of the carried state plus VM image,
//! and bandwidth as message bytes posted per visit. Exceeding a budget
//! raises `ResourceExhausted`, upon which the hosting server destroys
//! the naplet — the "control" half of monitoring and control.
//!
//! This file is the monitor's bookkeeping: the run table, the policy,
//! the per-visit [`Meter`] and the cumulative accounting. The
//! execution boundary itself — the one place agent code runs, and so
//! the one place the budgets are charged — is [`crate::sandbox`].

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use naplet_core::clock::Millis;
use naplet_core::error::{NapletError, Result};
use naplet_core::id::NapletId;
use naplet_core::itinerary::ActionSpec;
use naplet_core::message::Mailbox;
use naplet_core::naplet::Naplet;

/// Scheduling priority of a naplet, derived from the `priority`
/// credential attribute (`high` / `low`; anything else is Normal).
/// The paper's monitor confines alien threads "to a limited range of
/// scheduling priorities"; tiers are this framework's rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Priority {
    /// Preferred agents: double CPU budget, dwell unaffected by load.
    High,
    /// Default tier.
    Normal,
    /// Background agents: half CPU budget, dwell stretched by load
    /// under the sharing policy.
    Low,
}

impl Priority {
    /// Derive the tier from a credential's `priority` attribute.
    pub fn of(cred: &naplet_core::credential::Credential) -> Priority {
        match cred.attribute("priority") {
            Some("high") => Priority::High,
            Some("low") => Priority::Low,
            _ => Priority::Normal,
        }
    }
}

/// How the monitor schedules co-resident naplets (paper §5.2:
/// "various scheduling policies will be tested in future releases" —
/// this is that hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulingPolicy {
    /// Every naplet gets the configured dwell and budget regardless of
    /// load or priority (the first release's behaviour).
    #[default]
    Fcfs,
    /// Priority sharing: CPU budgets scale by tier (High ×2, Low ×½)
    /// and Low-priority dwell stretches with the number of co-resident
    /// naplets (processor sharing for background agents).
    PrioritySharing,
}

/// Resource-management policy knobs (paper: "various scheduling
/// policies will be tested in future releases" — these are the
/// mechanism those policies configure).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorPolicy {
    /// Gas granted per VM scheduling slice.
    pub gas_slice: u64,
    /// Total CPU budget (gas) per visit; exceeding it destroys the
    /// naplet.
    pub max_gas_per_visit: u64,
    /// Gas units that correspond to one millisecond of modelled
    /// execution time (drives visit dwell in virtual time).
    pub gas_per_ms: u64,
    /// Modelled execution time of one native `on_start` (native
    /// behaviours execute host code and are charged a flat dwell).
    pub native_dwell_ms: u64,
    /// Memory budget: max deep size (bytes) of carried state (+ VM
    /// image when present).
    pub max_memory_bytes: u64,
    /// Bandwidth budget: max message payload bytes posted per visit.
    pub max_msg_bytes_per_visit: u64,
    /// Scheduling policy across co-resident naplets.
    pub scheduling: SchedulingPolicy,
}

impl MonitorPolicy {
    /// Effective CPU budget (gas per visit) for a tier under the
    /// active scheduling policy.
    pub fn gas_budget_for(&self, priority: Priority) -> u64 {
        match (self.scheduling, priority) {
            (SchedulingPolicy::Fcfs, _) => self.max_gas_per_visit,
            (SchedulingPolicy::PrioritySharing, Priority::High) => {
                self.max_gas_per_visit.saturating_mul(2)
            }
            (SchedulingPolicy::PrioritySharing, Priority::Normal) => self.max_gas_per_visit,
            (SchedulingPolicy::PrioritySharing, Priority::Low) => self.max_gas_per_visit / 2,
        }
    }

    /// Effective dwell for a native visit given the tier and how many
    /// naplets currently share this server.
    pub fn dwell_for(&self, priority: Priority, residents: usize) -> u64 {
        match (self.scheduling, priority) {
            (SchedulingPolicy::PrioritySharing, Priority::Low) => {
                self.native_dwell_ms * residents.max(1) as u64
            }
            _ => self.native_dwell_ms,
        }
    }
}

impl Default for MonitorPolicy {
    fn default() -> Self {
        MonitorPolicy {
            gas_slice: 50_000,
            max_gas_per_visit: 5_000_000,
            gas_per_ms: 1_000,
            native_dwell_ms: 5,
            max_memory_bytes: 16 * 1024 * 1024,
            max_msg_bytes_per_visit: 16 * 1024 * 1024,
            scheduling: SchedulingPolicy::Fcfs,
        }
    }
}

/// Running state of one hosted naplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// Waiting for the directory to acknowledge arrival registration
    /// (execution is postponed until then, paper §4.1).
    AwaitingArrivalAck,
    /// Waiting for a cold codebase to be fetched (lazy code loading).
    AwaitingCode,
    /// Eligible to execute.
    Runnable,
    /// Suspended by a system message or the owner.
    Suspended,
    /// Business logic for this visit finished; departure pending.
    VisitDone,
}

/// The monitor's record for one resident naplet (the analogue of the
/// NapletThread + thread group).
#[derive(Debug)]
pub struct RunEntry {
    /// The hosted agent.
    pub naplet: Naplet,
    /// Its mailbox on this server.
    pub mailbox: Mailbox,
    /// Scheduling state.
    pub state: RunState,
    /// Post-action attached to the current visit.
    pub pending_action: Option<ActionSpec>,
    /// What this visit has consumed so far.
    pub meter: Meter,
    /// Arrival time at this server.
    pub arrived_at: Millis,
}

/// The running totals of one visit that the CPU and bandwidth budgets
/// are enforced against. Agent code that runs outside a visit (a
/// pattern-level action, the final VM slice) is metered against a
/// fresh one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Meter {
    /// Gas consumed.
    pub gas: u64,
    /// Message payload bytes posted.
    pub msg_bytes: u64,
}

impl Meter {
    /// Charge gas against a CPU `budget`.
    pub fn charge_gas(&mut self, budget: u64, gas: u64) -> Result<()> {
        self.gas += gas;
        if self.gas > budget {
            Err(NapletError::ResourceExhausted {
                resource: "cpu".into(),
                detail: format!("visit used {} gas, budget {budget}", self.gas),
            })
        } else {
            Ok(())
        }
    }

    /// Charge posted message bytes against the bandwidth budget.
    pub fn charge_msg_bytes(&mut self, policy: &MonitorPolicy, bytes: u64) -> Result<()> {
        self.msg_bytes += bytes;
        if self.msg_bytes > policy.max_msg_bytes_per_visit {
            Err(NapletError::ResourceExhausted {
                resource: "bandwidth".into(),
                detail: format!(
                    "visit posted {} bytes, budget {}",
                    self.msg_bytes, policy.max_msg_bytes_per_visit
                ),
            })
        } else {
            Ok(())
        }
    }
}

/// Cumulative per-naplet resource consumption at one server (paper
/// §5.2: "information about consumed system resources including CPU
/// time, memory size, and network bandwidth"). Kept separately from
/// the run entries so it survives departure — the `figures` binary
/// reads it after journeys complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// Completed visits at this server.
    pub visits: u64,
    /// CPU gas consumed across those visits.
    pub gas: u64,
    /// Message payload bytes posted across those visits (bandwidth).
    pub msg_bytes: u64,
    /// Largest observed deep state size in bytes (memory high-water).
    pub peak_state_bytes: u64,
}

/// The per-server monitor.
#[derive(Debug, Default)]
pub struct NapletMonitor {
    entries: HashMap<NapletId, RunEntry>,
    policy: MonitorPolicy,
    /// Naplets destroyed for exceeding budgets (id, resource).
    pub kills: Vec<(NapletId, String)>,
    /// Cumulative per-naplet accounting, keyed by id string so
    /// iteration is deterministic and records outlive eviction.
    usage: BTreeMap<String, ResourceUsage>,
}

impl NapletMonitor {
    /// Monitor with a policy.
    pub fn new(policy: MonitorPolicy) -> NapletMonitor {
        NapletMonitor {
            entries: HashMap::new(),
            policy,
            kills: Vec::new(),
            usage: BTreeMap::new(),
        }
    }

    /// Fold one finished visit into the cumulative accounting.
    pub fn account_visit(&mut self, id: &NapletId, gas: u64, msg_bytes: u64, state_bytes: u64) {
        let u = self.usage.entry(id.to_string()).or_default();
        u.visits += 1;
        u.gas += gas;
        u.msg_bytes += msg_bytes;
        u.peak_state_bytes = u.peak_state_bytes.max(state_bytes);
    }

    /// Cumulative per-naplet resource accounting (sorted by id).
    pub fn usage(&self) -> &BTreeMap<String, ResourceUsage> {
        &self.usage
    }

    /// The active policy.
    pub fn policy(&self) -> &MonitorPolicy {
        &self.policy
    }

    /// Replace the policy (dynamic reconfiguration).
    pub fn set_policy(&mut self, policy: MonitorPolicy) {
        self.policy = policy;
    }

    /// Admit an arriving naplet: create its run entry (the paper's
    /// NapletThread + group creation).
    pub fn admit(
        &mut self,
        naplet: Naplet,
        pending_action: Option<ActionSpec>,
        state: RunState,
        now: Millis,
    ) -> &mut RunEntry {
        let id = naplet.id().clone();
        self.entries.entry(id).or_insert(RunEntry {
            naplet,
            mailbox: Mailbox::new(),
            state,
            pending_action,
            meter: Meter::default(),
            arrived_at: now,
        })
    }

    /// Temporarily remove an entry for execution (split-borrow free).
    pub fn take(&mut self, id: &NapletId) -> Option<RunEntry> {
        self.entries.remove(id)
    }

    /// Put an entry back after execution.
    pub fn restore(&mut self, entry: RunEntry) {
        self.entries.insert(entry.naplet.id().clone(), entry);
    }

    /// Remove an entry permanently (departure or destruction).
    pub fn evict(&mut self, id: &NapletId) -> Option<RunEntry> {
        self.entries.remove(id)
    }

    /// Shared view of an entry.
    pub fn get(&self, id: &NapletId) -> Option<&RunEntry> {
        self.entries.get(id)
    }

    /// Mutable view of an entry.
    pub fn get_mut(&mut self, id: &NapletId) -> Option<&mut RunEntry> {
        self.entries.get_mut(id)
    }

    /// Ids of all resident naplets (sorted for determinism).
    pub fn resident(&self) -> Vec<NapletId> {
        let mut v: Vec<NapletId> = self.entries.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of resident naplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no naplets are hosted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Suspend a naplet (system message / owner control).
    pub fn suspend(&mut self, id: &NapletId) -> bool {
        match self.entries.get_mut(id) {
            Some(e) if e.state != RunState::Suspended => {
                e.state = RunState::Suspended;
                true
            }
            _ => false,
        }
    }

    /// Resume a suspended naplet; returns true when it was suspended.
    pub fn resume(&mut self, id: &NapletId) -> bool {
        match self.entries.get_mut(id) {
            Some(e) if e.state == RunState::Suspended => {
                e.state = RunState::VisitDone;
                true
            }
            _ => false,
        }
    }

    // ------------------- budget enforcement -------------------

    /// Check the memory budget after execution mutated state.
    pub fn check_memory(naplet: &Naplet, policy: &MonitorPolicy, extra: u64) -> Result<()> {
        let used = naplet.state.deep_size() + extra;
        if used > policy.max_memory_bytes {
            Err(NapletError::ResourceExhausted {
                resource: "memory".into(),
                detail: format!(
                    "state uses {used} bytes, budget {}",
                    policy.max_memory_bytes
                ),
            })
        } else {
            Ok(())
        }
    }

    /// Modelled dwell in ms for `gas` units of work.
    pub fn gas_to_ms(policy: &MonitorPolicy, gas: u64) -> u64 {
        gas.div_ceil(policy.gas_per_ms.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naplet_core::credential::SigningKey;
    use naplet_core::itinerary::{Itinerary, Pattern};
    use naplet_core::naplet::AgentKind;
    use naplet_core::value::Value;

    fn naplet(ts: u64) -> Naplet {
        let key = SigningKey::new("u", b"k");
        let it = Itinerary::new(Pattern::singleton("s1")).unwrap();
        Naplet::create(
            &key,
            "u",
            "home",
            Millis(ts),
            "cb",
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap()
    }

    fn monitor() -> NapletMonitor {
        NapletMonitor::new(MonitorPolicy {
            gas_slice: 100,
            max_gas_per_visit: 500,
            gas_per_ms: 10,
            native_dwell_ms: 5,
            max_memory_bytes: 1000,
            max_msg_bytes_per_visit: 64,
            scheduling: SchedulingPolicy::Fcfs,
        })
    }

    #[test]
    fn admit_take_restore_evict() {
        let mut m = monitor();
        let n = naplet(1);
        let id = n.id().clone();
        m.admit(n, None, RunState::Runnable, Millis(0));
        assert_eq!(m.len(), 1);
        assert_eq!(m.resident(), vec![id.clone()]);
        let e = m.take(&id).unwrap();
        assert!(m.is_empty());
        m.restore(e);
        assert!(m.get(&id).is_some());
        assert!(m.evict(&id).is_some());
        assert!(m.evict(&id).is_none());
    }

    #[test]
    fn suspend_resume_lifecycle() {
        let mut m = monitor();
        let n = naplet(1);
        let id = n.id().clone();
        m.admit(n, None, RunState::Runnable, Millis(0));
        assert!(m.suspend(&id));
        assert!(!m.suspend(&id)); // already suspended
        assert_eq!(m.get(&id).unwrap().state, RunState::Suspended);
        assert!(m.resume(&id));
        assert!(!m.resume(&id)); // not suspended anymore
        assert_eq!(m.get(&id).unwrap().state, RunState::VisitDone);
        // unknown ids are rejected
        assert!(!m.suspend(naplet(99).id()));
        assert!(!m.resume(naplet(99).id()));
    }

    #[test]
    fn gas_budget_enforced() {
        let m = monitor();
        let budget = m
            .policy()
            .gas_budget_for(Priority::of(naplet(1).credential()));
        let mut meter = Meter::default();
        meter.charge_gas(budget, 400).unwrap();
        let err = meter.charge_gas(budget, 200).unwrap_err();
        assert_eq!(err.kind(), "resource");
        assert_eq!(meter.gas, 600, "the overrun is on the meter");
    }

    #[test]
    fn memory_budget_enforced() {
        let m = monitor();
        let mut n = naplet(1);
        n.state.set("blob", Value::Bytes(vec![0; 2000]));
        assert!(NapletMonitor::check_memory(&n, m.policy(), 0).is_err());
    }

    #[test]
    fn bandwidth_budget_enforced() {
        let m = monitor();
        let mut meter = Meter::default();
        meter.charge_msg_bytes(m.policy(), 60).unwrap();
        assert!(meter.charge_msg_bytes(m.policy(), 10).is_err());
    }

    #[test]
    fn gas_time_mapping() {
        let m = monitor();
        assert_eq!(NapletMonitor::gas_to_ms(m.policy(), 0), 0);
        assert_eq!(NapletMonitor::gas_to_ms(m.policy(), 1), 1);
        assert_eq!(NapletMonitor::gas_to_ms(m.policy(), 10), 1);
        assert_eq!(NapletMonitor::gas_to_ms(m.policy(), 11), 2);
    }

    #[test]
    fn usage_accumulates_and_survives_eviction() {
        let mut m = monitor();
        let n = naplet(1);
        let id = n.id().clone();
        m.admit(n, None, RunState::Runnable, Millis(0));
        m.account_visit(&id, 100, 32, 500);
        m.evict(&id);
        m.account_visit(&id, 50, 0, 900);
        let u = m.usage().get(&id.to_string()).unwrap();
        assert_eq!(u.visits, 2);
        assert_eq!(u.gas, 150);
        assert_eq!(u.msg_bytes, 32);
        assert_eq!(u.peak_state_bytes, 900, "peak is a high-water mark");
    }

    #[test]
    fn admit_is_idempotent_per_id() {
        let mut m = monitor();
        let n = naplet(1);
        let id = n.id().clone();
        m.admit(n.clone(), None, RunState::Runnable, Millis(0));
        m.admit(
            n,
            Some(ActionSpec::ReportHome),
            RunState::Runnable,
            Millis(9),
        );
        assert_eq!(m.len(), 1);
        // first admit wins (double-arrival is a protocol anomaly)
        assert_eq!(m.get(&id).unwrap().arrived_at, Millis(0));
    }
}
