//! Home-side agent leases — the liveness half of crash consistency.
//!
//! The journal guarantees no *journaled* agent is lost, but a host that
//! dies permanently takes its journal with it. The home server
//! therefore holds a **lease** per dispatched naplet, renewed by every
//! sign of life it observes: directory (arrival) registrations, report
//! traffic, and local report pushes. A lease that expires marks the
//! agent *orphaned*; depending on policy the home re-dispatches a
//! fresh copy from the durable creation record, or surfaces a `Lost`
//! terminal status so the owner is at least told the truth.
//!
//! Leasing is opt-in (`ServerConfig::lease`): with it off, the wire
//! protocol and its byte totals are exactly those of the lease-free
//! server.

use std::collections::HashMap;

use naplet_core::clock::Millis;
use naplet_core::NapletId;

/// Home-side lease policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeasePolicy {
    /// How long a lease stays valid without renewal.
    pub duration_ms: u64,
    /// Re-dispatch an orphan from its creation record (`true`) or
    /// immediately declare it `Lost` (`false`).
    pub redispatch: bool,
    /// How many re-dispatches to attempt before giving up as `Lost`.
    pub max_redispatches: u32,
}

impl Default for LeasePolicy {
    fn default() -> Self {
        LeasePolicy {
            duration_ms: 60_000,
            redispatch: true,
            max_redispatches: 1,
        }
    }
}

/// One live lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Last instant a sign of life renewed the lease.
    pub last_renewed: Millis,
    /// Re-dispatches already consumed for this agent.
    pub redispatches: u32,
    /// Directory probes sent since the lease last came into question
    /// (a home outside a replicated directory asks the replicas before
    /// acting on an expiry). Gone with the lease when it is released.
    pub probes: u32,
}

/// The home server's table of leases for its dispatched naplets.
#[derive(Debug, Default)]
pub struct LeaseTable {
    leases: HashMap<NapletId, Lease>,
    /// Leases that expired without renewal.
    pub expired: u64,
    /// Orphans re-dispatched from their creation record.
    pub redispatched: u64,
    /// Agents given up as lost after exhausting re-dispatches.
    pub lost: u64,
}

impl LeaseTable {
    /// Empty table.
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    /// Grant (or re-grant) a lease starting now. Keeps the re-dispatch
    /// count of any existing lease — a re-dispatched agent does not
    /// get a fresh budget.
    pub fn grant(&mut self, id: &NapletId, now: Millis) {
        let redispatches = self.leases.get(id).map(|l| l.redispatches).unwrap_or(0);
        self.leases.insert(
            id.clone(),
            Lease {
                last_renewed: now,
                redispatches,
                probes: 0,
            },
        );
    }

    /// Renew the lease on a sign of life; ignored for unknown agents
    /// (e.g. agents homed elsewhere reporting through this server).
    pub fn renew(&mut self, id: &NapletId, now: Millis) {
        if let Some(lease) = self.leases.get_mut(id) {
            lease.last_renewed = now;
        }
    }

    /// Release the lease: the journey reached a terminal status.
    pub fn release(&mut self, id: &NapletId) {
        self.leases.remove(id);
    }

    /// The lease for `id`, if held.
    pub fn get(&self, id: &NapletId) -> Option<Lease> {
        self.leases.get(id).copied()
    }

    /// Whether a lease is currently held for `id`.
    pub fn is_held(&self, id: &NapletId) -> bool {
        self.leases.contains_key(id)
    }

    /// Consume one re-dispatch of the agent's budget and restart the
    /// lease clock.
    pub fn note_redispatch(&mut self, id: &NapletId, now: Millis) {
        if let Some(lease) = self.leases.get_mut(id) {
            lease.redispatches += 1;
            lease.last_renewed = now;
        }
    }

    /// The probe counter of `id`'s lease, while it is held.
    pub fn probes(&mut self, id: &NapletId) -> Option<&mut u32> {
        self.leases.get_mut(id).map(|lease| &mut lease.probes)
    }

    /// Number of leases currently held.
    pub fn held(&self) -> usize {
        self.leases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(tag: u64) -> NapletId {
        NapletId::new("czxu", "home", Millis(tag)).unwrap()
    }

    #[test]
    fn grant_renew_release() {
        let mut t = LeaseTable::new();
        let a = id(1);
        t.grant(&a, Millis(10));
        assert!(t.is_held(&a));
        assert_eq!(t.get(&a).unwrap().last_renewed, Millis(10));
        t.renew(&a, Millis(50));
        assert_eq!(t.get(&a).unwrap().last_renewed, Millis(50));
        t.release(&a);
        assert!(!t.is_held(&a));
        assert_eq!(t.held(), 0);
    }

    #[test]
    fn renew_unknown_is_noop() {
        let mut t = LeaseTable::new();
        t.renew(&id(9), Millis(5));
        assert_eq!(t.held(), 0);
    }

    #[test]
    fn redispatch_budget_survives_regrant() {
        let mut t = LeaseTable::new();
        let a = id(1);
        t.grant(&a, Millis(0));
        t.note_redispatch(&a, Millis(100));
        assert_eq!(t.get(&a).unwrap().redispatches, 1);
        assert_eq!(t.get(&a).unwrap().last_renewed, Millis(100));
        // re-granting (e.g. on re-dispatch launch) keeps the count
        t.grant(&a, Millis(120));
        assert_eq!(t.get(&a).unwrap().redispatches, 1);
    }

    #[test]
    fn the_probe_count_goes_with_the_lease() {
        let mut t = LeaseTable::new();
        let a = id(1);
        assert!(t.probes(&a).is_none(), "no lease, nothing to probe");
        t.grant(&a, Millis(0));
        *t.probes(&a).unwrap() += 2;
        t.renew(&a, Millis(5));
        assert_eq!(t.get(&a).unwrap().probes, 2, "a renewal settles nothing");
        // the journey reached a terminal status mid-probe: no row stays
        t.release(&a);
        assert!(t.probes(&a).is_none());
        t.grant(&a, Millis(9));
        assert_eq!(t.get(&a).unwrap().probes, 0);
    }

    #[test]
    fn default_policy_is_sane() {
        let p = LeasePolicy::default();
        assert!(p.duration_ms > 0);
        assert!(p.redispatch);
        assert_eq!(p.max_redispatches, 1);
    }
}
