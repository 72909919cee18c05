//! The network fabric: topology, failure injection and transfer cost.
//!
//! A [`Fabric`] knows which virtual hosts exist, which links are cut or
//! hosts down, the latency/bandwidth model and the loss probability.
//! Drivers (the discrete-event runtime in `naplet-server`, or the
//! threaded transport in [`crate::threaded`]) call [`Fabric::transfer`]
//! for every send: it meters the traffic statistics and returns the
//! modelled one-way delay, or `None` when the transfer is lost.
//!
//! The fabric is cheaply cloneable; clones share topology, statistics
//! and the seeded RNG, so concurrent drivers observe one network.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use naplet_core::error::{NapletError, Result};

use crate::latency::{Bandwidth, LatencyModel};
use crate::stats::{NetStats, TrafficClass};

/// Half-open fault window `[from_ms, until_ms)` on the fabric clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    from_ms: u64,
    until_ms: u64,
}

impl Window {
    fn contains(&self, t: u64) -> bool {
        t >= self.from_ms && t < self.until_ms
    }
}

#[derive(Debug)]
struct Inner {
    hosts: HashSet<String>,
    down: HashSet<String>,
    cut: HashSet<(String, String)>,
    latency: LatencyModel,
    bandwidth: Bandwidth,
    loss_prob: f64,
    rng: StdRng,
    /// Fabric clock (ms) advanced by the driver; fault schedules below
    /// are evaluated against it.
    now_ms: u64,
    /// Scheduled per-host outages: the host refuses transfers while the
    /// clock is inside any of its windows.
    down_windows: Vec<(String, Window)>,
    /// Scheduled loss bursts: while active, the loss probability is
    /// raised to at least the burst's value.
    loss_bursts: Vec<(Window, f64)>,
}

/// Shared fabric handle.
#[derive(Debug, Clone)]
pub struct Fabric {
    inner: Arc<Mutex<Inner>>,
    stats: NetStats,
}

impl Fabric {
    /// New fabric with the given models and a deterministic RNG seed.
    pub fn new(latency: LatencyModel, bandwidth: Bandwidth, seed: u64) -> Fabric {
        Fabric {
            inner: Arc::new(Mutex::new(Inner {
                hosts: HashSet::new(),
                down: HashSet::new(),
                cut: HashSet::new(),
                latency,
                bandwidth,
                loss_prob: 0.0,
                rng: StdRng::seed_from_u64(seed),
                now_ms: 0,
                down_windows: Vec::new(),
                loss_bursts: Vec::new(),
            })),
            stats: NetStats::new(),
        }
    }

    /// A LAN fabric with default seed — the common test setup.
    pub fn lan() -> Fabric {
        Fabric::new(LatencyModel::lan(), Bandwidth::fast_ethernet(), 0x4e41_504c)
    }

    /// Register a host. Idempotent.
    pub fn add_host(&self, name: &str) {
        self.inner.lock().hosts.insert(name.to_string());
    }

    /// All registered hosts (sorted).
    pub fn hosts(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.lock().hosts.iter().cloned().collect();
        v.sort();
        v
    }

    /// Is the host registered and up (including scheduled outages at
    /// the current fabric time)?
    pub fn is_up(&self, name: &str) -> bool {
        let inner = self.inner.lock();
        inner.hosts.contains(name) && !inner.down.contains(name) && !inner.scheduled_down(name)
    }

    /// Advance the fabric clock; drivers call this so scheduled fault
    /// windows line up with their (virtual or wall) time.
    pub fn set_now(&self, ms: u64) {
        self.inner.lock().now_ms = ms;
    }

    /// Current fabric clock in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.inner.lock().now_ms
    }

    /// Schedule a timed outage: `host` refuses all transfers in and out
    /// while the fabric clock is in `[from_ms, until_ms)`.
    pub fn schedule_down(&self, host: &str, from_ms: u64, until_ms: u64) {
        self.inner
            .lock()
            .down_windows
            .push((host.to_string(), Window { from_ms, until_ms }));
    }

    /// Schedule a process crash for `host`: counts the injection in
    /// the shared stats and opens an outage window for
    /// `[at_ms, until_ms)` — a dead process can neither send nor
    /// receive. Drivers that model real crashes (the discrete-event
    /// runtime) additionally wipe the host's volatile state at `at_ms`
    /// and replay its journal when the window closes.
    pub fn schedule_crash(&self, host: &str, at_ms: u64, until_ms: u64) {
        self.stats.record_crash();
        self.schedule_down(host, at_ms, until_ms);
    }

    /// Schedule a loss burst: while the fabric clock is in
    /// `[from_ms, until_ms)` the loss probability is at least `p`.
    pub fn schedule_loss_burst(&self, from_ms: u64, until_ms: u64, p: f64) {
        self.inner
            .lock()
            .loss_bursts
            .push((Window { from_ms, until_ms }, p.clamp(0.0, 0.999_999)));
    }

    /// Shared traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Set the independent per-transfer loss probability `[0, 1)`.
    pub fn set_loss(&self, p: f64) {
        self.inner.lock().loss_prob = p.clamp(0.0, 0.999_999);
    }

    /// Cut the (bidirectional) link between two hosts.
    pub fn cut_link(&self, a: &str, b: &str) {
        self.inner.lock().cut.insert(ordered(a, b));
    }

    /// Restore a previously cut link.
    pub fn heal_link(&self, a: &str, b: &str) {
        self.inner.lock().cut.remove(&ordered(a, b));
    }

    /// Take a host down (it refuses all transfers in and out).
    pub fn take_down(&self, host: &str) {
        self.inner.lock().down.insert(host.to_string());
    }

    /// Bring a host back up.
    pub fn bring_up(&self, host: &str) {
        self.inner.lock().down.remove(host);
    }

    /// Attempt a transfer of `bytes` payload bytes.
    ///
    /// * `Err` — an endpoint does not exist (a programming error in the
    ///   driver, surfaced loudly);
    /// * `Ok(None)` — the transfer was lost (link cut, host down, or
    ///   random loss); metered in the drop counter;
    /// * `Ok(Some(delay_ms))` — the transfer succeeds after the
    ///   modelled one-way delay; metered per class and link.
    pub fn transfer(
        &self,
        from: &str,
        to: &str,
        class: TrafficClass,
        bytes: u64,
    ) -> Result<Option<u64>> {
        let mut inner = self.inner.lock();
        if !inner.hosts.contains(from) {
            return Err(NapletError::NotFound(format!(
                "unknown source host `{from}`"
            )));
        }
        if !inner.hosts.contains(to) {
            return Err(NapletError::NotFound(format!(
                "unknown destination host `{to}`"
            )));
        }
        let blocked = inner.down.contains(from)
            || inner.down.contains(to)
            || (!inner.cut.is_empty() && inner.cut.contains(&ordered(from, to)))
            || inner.scheduled_down(from)
            || inner.scheduled_down(to);
        let lost = blocked || {
            let p = inner.effective_loss();
            p > 0.0 && inner.rng.gen_bool(p)
        };
        if lost {
            drop(inner);
            self.stats.record_drop();
            return Ok(None);
        }
        if from == to {
            // local delivery is free and unmetered
            return Ok(Some(0));
        }
        let prop = {
            let Inner { latency, rng, .. } = &mut *inner;
            latency.delay_ms(from, to, rng)
        };
        let delay = prop + inner.bandwidth.transfer_ms(bytes);
        drop(inner);
        self.stats.record(from, to, class, bytes, delay);
        Ok(Some(delay))
    }
}

impl Inner {
    fn scheduled_down(&self, host: &str) -> bool {
        self.down_windows
            .iter()
            .any(|(h, w)| h == host && w.contains(self.now_ms))
    }

    fn effective_loss(&self) -> f64 {
        let mut p = self.loss_prob;
        for (w, burst) in &self.loss_bursts {
            if w.contains(self.now_ms) {
                p = p.max(*burst);
            }
        }
        p
    }
}

fn ordered(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        let f = Fabric::new(LatencyModel::Constant(5), Bandwidth(Some(100)), 1);
        for h in ["a", "b", "c"] {
            f.add_host(h);
        }
        f
    }

    #[test]
    fn transfer_meters_and_delays() {
        let f = fabric();
        let d = f
            .transfer("a", "b", TrafficClass::Message, 250)
            .unwrap()
            .unwrap();
        assert_eq!(d, 5 + 3); // 5ms prop + ceil(250/100)
        let snap = f.stats().snapshot();
        assert_eq!(snap.bytes(TrafficClass::Message), 250);
        assert_eq!(snap.messages(TrafficClass::Message), 1);
    }

    #[test]
    fn unknown_hosts_error() {
        let f = fabric();
        assert!(f.transfer("a", "zz", TrafficClass::Message, 1).is_err());
        assert!(f.transfer("zz", "a", TrafficClass::Message, 1).is_err());
    }

    #[test]
    fn local_delivery_free() {
        let f = fabric();
        assert_eq!(
            f.transfer("a", "a", TrafficClass::Message, 999).unwrap(),
            Some(0)
        );
        assert_eq!(f.stats().snapshot().total_bytes(), 0);
    }

    #[test]
    fn cut_links_drop() {
        let f = fabric();
        f.cut_link("a", "b");
        assert_eq!(
            f.transfer("a", "b", TrafficClass::Message, 1).unwrap(),
            None
        );
        assert_eq!(
            f.transfer("b", "a", TrafficClass::Message, 1).unwrap(),
            None
        );
        assert!(f
            .transfer("a", "c", TrafficClass::Message, 1)
            .unwrap()
            .is_some());
        f.heal_link("a", "b");
        assert!(f
            .transfer("a", "b", TrafficClass::Message, 1)
            .unwrap()
            .is_some());
        assert_eq!(f.stats().snapshot().dropped, 2);
    }

    #[test]
    fn down_hosts_drop() {
        let f = fabric();
        f.take_down("b");
        assert!(!f.is_up("b"));
        assert_eq!(
            f.transfer("a", "b", TrafficClass::Control, 1).unwrap(),
            None
        );
        assert_eq!(
            f.transfer("b", "c", TrafficClass::Control, 1).unwrap(),
            None
        );
        f.bring_up("b");
        assert!(f.is_up("b"));
        assert!(f
            .transfer("a", "b", TrafficClass::Control, 1)
            .unwrap()
            .is_some());
    }

    #[test]
    fn loss_probability_drops_roughly_that_fraction() {
        let f = fabric();
        f.set_loss(0.5);
        let mut lost = 0;
        for _ in 0..400 {
            if f.transfer("a", "b", TrafficClass::Message, 1)
                .unwrap()
                .is_none()
            {
                lost += 1;
            }
        }
        assert!((120..=280).contains(&lost), "lost {lost}/400");
    }

    #[test]
    fn scheduled_down_window_drops_only_inside_window() {
        let f = fabric();
        f.schedule_down("b", 100, 200);
        // before the window
        f.set_now(50);
        assert!(f.is_up("b"));
        assert!(f
            .transfer("a", "b", TrafficClass::Control, 1)
            .unwrap()
            .is_some());
        // inside the window: transfers in and out are refused
        f.set_now(150);
        assert!(!f.is_up("b"));
        assert_eq!(
            f.transfer("a", "b", TrafficClass::Control, 1).unwrap(),
            None
        );
        assert_eq!(
            f.transfer("b", "c", TrafficClass::Control, 1).unwrap(),
            None
        );
        // window end is exclusive
        f.set_now(200);
        assert!(f.is_up("b"));
        assert!(f
            .transfer("a", "b", TrafficClass::Control, 1)
            .unwrap()
            .is_some());
    }

    #[test]
    fn loss_burst_raises_loss_inside_window() {
        let f = fabric();
        f.schedule_loss_burst(10, 20, 1.0); // clamped just below 1, drops ~always
        f.set_now(5);
        assert!(f
            .transfer("a", "b", TrafficClass::Message, 1)
            .unwrap()
            .is_some());
        f.set_now(15);
        let mut lost = 0;
        for _ in 0..50 {
            if f.transfer("a", "b", TrafficClass::Message, 1)
                .unwrap()
                .is_none()
            {
                lost += 1;
            }
        }
        assert!(lost >= 49, "burst should drop nearly everything: {lost}/50");
        f.set_now(25);
        assert!(f
            .transfer("a", "b", TrafficClass::Message, 1)
            .unwrap()
            .is_some());
    }

    #[test]
    fn clones_share_everything() {
        let f = fabric();
        let g = f.clone();
        g.take_down("c");
        assert!(!f.is_up("c"));
        g.transfer("a", "b", TrafficClass::Code, 10).unwrap();
        assert_eq!(f.stats().snapshot().bytes(TrafficClass::Code), 10);
    }

    #[test]
    fn hosts_listing_sorted() {
        let f = fabric();
        assert_eq!(f.hosts(), ["a", "b", "c"]);
        f.add_host("a"); // idempotent
        assert_eq!(f.hosts().len(), 3);
    }
}
