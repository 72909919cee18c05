//! The common ring shape and its closed-loop driver.
//!
//! Home `ctl` (the generator) plus `n1,n2,n3`; every journey walks
//! `Seq(n1,n2,n3)` with the native probe, zero modelled dwell and a
//! ballast of fixed size in its state. The generator keeps a fixed
//! window of journeys in flight: a journey's slot is refilled only when
//! it completes (or times out), so a slow cluster receives less load
//! instead of a growing queue.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

use naplet_core::clock::Millis;
use naplet_core::credential::SigningKey;
use naplet_core::id::NapletId;
use naplet_core::itinerary::{Itinerary, Pattern};
use naplet_core::naplet::{AgentKind, Naplet};
use naplet_core::value::Value;
use naplet_net::Transport;
use naplet_server::{
    register_probe, LeasePolicy, LocationMode, NapletServer, NapletStatus, RetryPolicy,
    ServerConfig, PROBE_CODEBASE,
};

use crate::pump::Pumped;
use crate::stats::SplitMix;

/// The generator's host name.
pub const CTL: &str = "ctl";
/// The ring every journey walks, in itinerary order.
pub const RING: [&str; 3] = ["n1", "n2", "n3"];
/// Lease on every launched naplet: long enough never to fire in a run.
pub const LEASE_MS: u64 = 600_000;
/// A journey not done this long after launch is a failed operation.
pub const JOURNEY_TIMEOUT: Duration = Duration::from_secs(5);

/// Server configuration shared by every host of a ring (and chase)
/// space: native probe registered, zero modelled dwell — bare
/// forwarding, so application time does not dilute the layers.
pub fn host_config(host: &str, mode: LocationMode) -> ServerConfig {
    let mut cfg = ServerConfig::open(host, mode);
    register_probe(&mut cfg.codebase);
    cfg.monitor_policy.native_dwell_ms = 0;
    cfg.lease = Some(LeasePolicy {
        duration_ms: LEASE_MS,
        ..LeasePolicy::default()
    });
    cfg
}

/// The generator's configuration: [`host_config`] plus the fast retry
/// policy a home node uses so a lost frame costs 100 ms, not 200.
pub fn ctl_config(mode: LocationMode) -> ServerConfig {
    let mut cfg = host_config(CTL, mode);
    cfg.retry = RetryPolicy {
        base_timeout_ms: 100,
        max_timeout_ms: 800,
        max_retries: 5,
    };
    cfg
}

/// Mints the naplets of one run: unique creation stamps (a naplet id is
/// owner + home + creation time) and a seeded ballast.
pub struct Mint {
    key: SigningKey,
    next_stamp: u64,
    ballast: Vec<u8>,
}

impl Mint {
    pub fn new(seed: u64, ballast_bytes: usize) -> Mint {
        let mut rng = SplitMix(seed);
        Mint {
            key: SigningKey::new("bench", b"naplet-benchmark"),
            next_stamp: 0,
            ballast: (0..ballast_bytes).map(|_| rng.next() as u8).collect(),
        }
    }

    /// A probe homed at `home` that visits `route` in order.
    pub fn probe(&mut self, home: &str, route: &[&str]) -> Naplet {
        self.next_stamp += 1;
        let itinerary =
            Itinerary::new(Pattern::seq_of_hosts(route, None)).expect("a non-empty route");
        let mut naplet = Naplet::create(
            &self.key,
            "bench",
            home,
            Millis(self.next_stamp),
            PROBE_CODEBASE,
            AgentKind::Native,
            itinerary,
            vec![],
        )
        .expect("valid naplet attributes");
        naplet
            .state
            .set("ballast", Value::Bytes(self.ballast.clone()));
        naplet
    }
}

struct InFlight {
    launched: Instant,
    /// The report expected from each stop, in order.
    route: Rc<[Value]>,
    /// Which stops have reported.
    seen: Vec<bool>,
    reports: usize,
    /// The home server held a lease for this naplet at some point; its
    /// release then marks a terminal status having reached home.
    leased: bool,
}

/// Follows every journey from launch to completion and checks its
/// outputs: exactly one report per stop, in itinerary order, and one
/// `Completed` in the home table.
pub struct Tracker {
    timeout: Duration,
    /// Reports must arrive in itinerary order. True where one queue
    /// orders all traffic (the sim, the layer pump); over sockets or
    /// threads each stop reports on its own connection, so only "one
    /// report per stop" can be held and reorderings are counted.
    ordered: bool,
    inflight: HashMap<NapletId, InFlight>,
    finished: HashSet<NapletId>,
    /// Launch→done latency of every completed journey, in ms, paired
    /// with its completion instant.
    pub done: Vec<(Instant, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations (wrong, duplicate or stray reports).
    pub violations: Vec<String>,
    /// What was known about each journey that failed, for the log.
    pub failures: Vec<String>,
    /// Journeys whose completion reached home but whose home table row
    /// then fell back to an earlier status (see the README's findings).
    pub table_regressions: u64,
    /// Reports that overtook an earlier stop's (unordered transports).
    pub reordered_reports: u64,
}

impl Tracker {
    /// A tracker that gives up on a journey `timeout` after its launch.
    pub fn new(timeout: Duration, ordered: bool) -> Tracker {
        Tracker {
            timeout,
            ordered,
            inflight: HashMap::new(),
            finished: HashSet::new(),
            done: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            failures: Vec::new(),
            table_regressions: 0,
            reordered_reports: 0,
        }
    }

    /// Start following `id`, which is to send exactly the reports of
    /// `route` (see [`expect_reports`]), in order.
    pub fn launched(&mut self, id: NapletId, route: Rc<[Value]>) {
        self.attempted += 1;
        self.inflight.insert(
            id,
            InFlight {
                launched: Instant::now(),
                seen: vec![false; route.len()],
                route,
                reports: 0,
                leased: false,
            },
        );
    }

    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Absorb what reached the home server since the last call; returns
    /// how many journeys finished (completed or timed out).
    pub fn collect(&mut self, home: &mut NapletServer) -> usize {
        // drained, not taken: the server keeps its buffer
        for (id, body) in home.reports.drain(..) {
            match self.inflight.get_mut(&id) {
                Some(j) => {
                    let next = j.seen.iter().position(|seen| !seen);
                    let stop = (0..j.route.len()).find(|&k| !j.seen[k] && j.route[k] == body);
                    match stop {
                        Some(k) => {
                            j.seen[k] = true;
                            j.reports += 1;
                            if Some(k) != next && self.ordered {
                                self.violations.push(format!(
                                    "{id}: report {body:?} arrived before {:?}",
                                    next.map(|n| &j.route[n])
                                ));
                            } else if Some(k) != next {
                                self.reordered_reports += 1;
                            }
                        }
                        None => self.violations.push(format!(
                            "{id}: report {body:?} is a duplicate or from no stop of the route"
                        )),
                    }
                }
                None if self.finished.contains(&id) => {
                    self.violations
                        .push(format!("{id}: report {body:?} after the journey completed"));
                }
                // a journey already counted as timed out may still finish
                None => {}
            }
        }
        let now = Instant::now();
        let mut freed = 0;
        let (manager, leases) = (&home.manager, &home.leases);
        let (done, finished, failed) = (&mut self.done, &mut self.finished, &mut self.failed);
        let (failures, violations) = (&mut self.failures, &mut self.violations);
        let regressions = &mut self.table_regressions;
        let timeout = self.timeout;
        self.inflight.retain(|id, j| {
            let held = leases.is_held(id);
            j.leased |= held;
            let status = manager.table_entry(id).map(|e| e.status);
            // the completion notice reached home: the table says so, or
            // (where the home leases its naplets) the lease was released.
            // The table alone is not enough: a departure registration
            // that arrives after the notice overwrites the row.
            let ended = status == Some(NapletStatus::Completed) || (j.leased && !held);
            if ended && j.reports == j.route.len() {
                match status {
                    Some(NapletStatus::Completed) => {}
                    Some(NapletStatus::Destroyed | NapletStatus::Parked | NapletStatus::Lost) => {
                        violations.push(format!("{id} ended as {status:?}, not Completed"))
                    }
                    _ => *regressions += 1,
                }
                done.push((now, now.duration_since(j.launched).as_secs_f64() * 1e3));
                finished.insert(id.clone());
            } else if now.duration_since(j.launched) > timeout {
                *failed += 1;
                failures.push(format!(
                    "{id} timed out with {} of {} reports, home table says {status:?}",
                    j.reports,
                    j.route.len(),
                ));
            } else {
                return true;
            }
            freed += 1;
            false
        });
        freed
    }

    /// Count whatever is still in flight as failed: lost, or cut off by
    /// a hard deadline.
    pub fn abandon(&mut self) {
        self.failed += self.inflight.len() as u64;
        for (id, j) in self.inflight.drain() {
            self.failures.push(format!(
                "{id} abandoned with {} of {} reports",
                j.reports,
                j.route.len()
            ));
        }
    }

    /// Sorted launch→done latencies in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.done.iter().map(|(_, ms)| *ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// What the probe reports home from each host of `route`.
pub fn expect_reports<S: AsRef<str>>(route: &[S]) -> Rc<[Value]> {
    route
        .iter()
        .map(|h| Value::from(format!("probe:{}", h.as_ref())))
        .collect()
}

/// Launch one probe around the ring and track it.
pub fn launch_one<T: Transport>(
    ctl: &mut Pumped<T>,
    mint: &mut Mint,
    tracker: &mut Tracker,
    route: &Rc<[Value]>,
) {
    let naplet = mint.probe(CTL, &RING);
    tracker.launched(naplet.id().clone(), Rc::clone(route));
    ctl.launch(naplet);
}

/// Drive the closed loop: keep `window` journeys in flight for
/// `run_for`, then let the tail drain (bounded by the journey timeout).
/// Returns the instant the measured interval started.
pub fn closed_loop<T: Transport>(
    ctl: &mut Pumped<T>,
    mint: &mut Mint,
    tracker: &mut Tracker,
    window: usize,
    run_for: Duration,
) -> Instant {
    let started = Instant::now();
    let end = started + run_for;
    // nothing launched may outlive its own timeout, so this bounds the run
    let hard_stop = end + JOURNEY_TIMEOUT + Duration::from_secs(1);
    let route = expect_reports(&RING);
    for _ in 0..window {
        launch_one(ctl, mint, tracker, &route);
    }
    loop {
        let handled = match ctl.pump() {
            0 => ctl.wait(Duration::from_micros(500)),
            n => n,
        };
        // timeouts need a look even when nothing arrives
        let freed = if handled > 0 || tracker.in_flight() > 0 {
            tracker.collect(&mut ctl.server)
        } else {
            0
        };
        let now = Instant::now();
        if now < end {
            for _ in 0..freed {
                launch_one(ctl, mint, tracker, &route);
            }
        } else if tracker.in_flight() == 0 {
            break;
        } else if now >= hard_stop {
            tracker.abandon();
            break;
        }
    }
    started
}
