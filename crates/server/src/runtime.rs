//! The discrete-event simulation runtime.
//!
//! [`SimRuntime`] builds a naplet space — one [`Host`] per server, each
//! on a virtual link into one metered [`Fabric`] — and runs it in
//! deterministic virtual time: exact bytes from the fabric stats, exact
//! completion times from the event clock. Its hosts take the same
//! receive → handle → enact step as every wall-clock
//! [`crate::node::Node`]; only the link differs (`world.rs`).
//!
//! Besides servers, plain **stations** can join the fabric: hosts that
//! collect the wire values they receive instead of handling them.

use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;

use naplet_core::clock::Millis;
use naplet_core::error::{NapletError, Result};
use naplet_core::id::NapletId;
use naplet_core::message::Payload;
use naplet_core::naplet::Naplet;
use naplet_core::value::Value;
use naplet_net::{EventQueue, Fabric};
use naplet_obs::{ObsSink, StallAlert, TraceKind, WatchdogConfig};

use crate::events::{LocalEvent, Wire};
use crate::journal::RecoveryStats;
use crate::node::Host;
use crate::server::{LocationMode, NapletServer, ServerConfig};
use crate::status::StatusReport;
use crate::world::{SimEvent, Virtual, World};

/// A host whose server never runs, with what it received.
type Station = (Host<Virtual>, Vec<(String, Wire)>);

/// The deterministic multi-server driver.
pub struct SimRuntime {
    fabric: Fabric,
    world: Rc<RefCell<World>>,
    hosts: HashMap<String, Host<Virtual>>,
    stations: HashMap<String, Station>,
    /// Birth configurations, to rebuild a crashed server from.
    configs: HashMap<String, ServerConfig>,
    /// Total events processed.
    pub events_processed: u64,
    /// The sink every host records into, crashes and alerts too.
    obs: ObsSink,
    /// True while a [`SimEvent::WatchdogTick`] sits in the queue.
    tick_pending: bool,
    /// Stall alerts raised by the watchdog, in raise order.
    alerts: Vec<StallAlert>,
}

impl SimRuntime {
    /// New runtime over a fabric.
    pub fn new(fabric: Fabric) -> SimRuntime {
        SimRuntime {
            fabric,
            world: Rc::default(),
            hosts: HashMap::new(),
            stations: HashMap::new(),
            configs: HashMap::new(),
            events_processed: 0,
            obs: ObsSink::default(),
            tick_pending: false,
            alerts: Vec::new(),
        }
    }

    /// The fabric (stats, failure injection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The shared observability sink (tracer + metrics).
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// Turn on journey tracing for the whole space. Metrics are always
    /// collected; the trace-event stream is opt-in.
    pub fn enable_tracing(&mut self) {
        self.obs.enable_tracing();
    }

    /// Arm the journey watchdog for the whole space: a sweep every
    /// `config.tick_ms` of virtual time while an unalerted journey is
    /// tracked; alerts land in [`SimRuntime::alerts`] and the metrics.
    pub fn enable_watchdog(&mut self, config: WatchdogConfig) {
        self.obs.enable_watchdog(config);
        self.maybe_schedule_tick();
    }

    /// Stall alerts raised so far, in raise order (deterministic for a
    /// seeded run).
    pub fn alerts(&self) -> &[StallAlert] {
        &self.alerts
    }

    /// A [`StatusReport`] from every live server, sorted by host: the
    /// in-process counterpart of the wire-level status read.
    pub fn status_reports(&self) -> Vec<StatusReport> {
        let live = self.server_hosts().into_iter().map(|h| &self.hosts[&h]);
        let live = live.filter(|node| !node.link.down);
        live.map(|node| node.server.status_report(self.now()))
            .collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> Millis {
        Millis(self.queue().now())
    }

    /// Install a naplet server for `config.host`.
    pub fn add_server(&mut self, config: ServerConfig) -> &mut NapletServer {
        let host = config.host.clone();
        let link = World::join(&self.world, &self.fabric, &host);
        let kept = self.configs.entry(host.clone());
        kept.or_insert_with(|| config.clone());
        let obs = self.obs.clone();
        let node = self.hosts.entry(host);
        &mut node.or_insert_with(|| Host::boot(link, config, obs)).server
    }

    /// Register a plain station host that collects wire values. Its
    /// inbox is pre-sized for bursts of whole-space polls.
    pub fn add_station(&mut self, name: &str) {
        let link = World::join(&self.world, &self.fabric, name);
        let mut server = NapletServer::new(ServerConfig::open(name, LocationMode::HomeManagers));
        server.set_obs(self.obs.clone());
        let station = (Host::on(link, server), Vec::with_capacity(256));
        self.stations.entry(name.to_string()).or_insert(station);
    }

    /// Access a server.
    pub fn server(&self, host: &str) -> Option<&NapletServer> {
        self.hosts.get(host).map(|node| &node.server)
    }

    /// Mutable access to a server.
    pub fn server_mut(&mut self, host: &str) -> Option<&mut NapletServer> {
        self.hosts.get_mut(host).map(|node| &mut node.server)
    }

    /// All server host names (sorted).
    pub fn server_hosts(&self) -> Vec<String> {
        let mut v: Vec<String> = self.hosts.keys().cloned().collect();
        v.sort();
        v
    }

    /// Launch a naplet from its home server.
    pub fn launch(&mut self, naplet: Naplet) -> Result<()> {
        self.host(naplet.home())?.launch(naplet);
        Ok(())
    }

    /// Post an owner/console message (e.g. a control verb) from
    /// `owner_host`'s server to a naplet.
    pub fn owner_post(&mut self, owner_host: &str, to: NapletId, payload: Payload) -> Result<()> {
        self.host(owner_host)?.owner_post(to, payload);
        Ok(())
    }

    /// Send a raw wire value from a station, or from a server's host as
    /// if its server had sent it. Metering and delay follow the wire's
    /// traffic class.
    pub fn station_send(&mut self, from: &str, to: &str, wire: Wire) -> Result<()> {
        match self.stations.get_mut(from) {
            Some((station, _)) => station.send(to, wire),
            None => self.host(from)?.send(to, wire),
        }
        Ok(())
    }

    /// Drain everything a station has received.
    pub fn station_drain(&mut self, name: &str) -> Vec<(String, Wire)> {
        let inbox = self.stations.get_mut(name).map(|(_, inbox)| inbox);
        inbox.map(std::mem::take).unwrap_or_default()
    }

    /// Run until no events remain or `max_events` were processed.
    /// Returns the number of events processed in this call.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events && self.dispatch_next() {
            processed += 1;
        }
        processed
    }

    /// Run until quiescence or virtual time `until`; later events stay queued.
    pub fn run_until(&mut self, until: Millis) -> u64 {
        let mut processed = 0;
        while self.queue().peek_time().is_some_and(|t| t <= until.0) && self.dispatch_next() {
            processed += 1;
        }
        processed
    }

    /// Schedule a crash of `host` at virtual time `at_ms`, and its
    /// restart (a journal replay) `restart_after_ms` later, if any.
    pub fn schedule_crash(&mut self, host: &str, at_ms: u64, restart_after_ms: Option<u64>) {
        let restart_at = restart_after_ms.map(|d| at_ms.saturating_add(d));
        let host = host.to_string();
        self.queue()
            .push_at(at_ms, SimEvent::Crash { host, restart_at });
    }

    /// Crash `host` now, between two events: handler invocations are
    /// atomic, so this is the only place a crash can fall in this model.
    pub fn crash_server(&mut self, host: &str, restart_after_ms: Option<u64>) {
        let restart_at = restart_after_ms.map(|d| self.now().0.saturating_add(d));
        self.perform_crash(host, restart_at);
    }

    /// Process exactly one queued event and return the host it
    /// targeted, so a test can crash a server at a precise event index.
    pub fn step(&mut self) -> Option<String> {
        let target = self.peek_target();
        self.dispatch_next();
        target
    }

    /// The host the next queued event targets, without processing it.
    pub fn peek_target(&self) -> Option<String> {
        let queue = self.queue();
        queue.peek()?.target().map(str::to_string)
    }

    /// Aggregated recovery statistics over every server.
    pub fn recovery_totals(&self) -> RecoveryStats {
        let mut total = RecoveryStats::default();
        for node in self.hosts.values() {
            total.merge(&node.server.recovery_stats());
        }
        total
    }

    /// Collected reports at a home server, drained.
    pub fn drain_reports(&mut self, home: &str) -> Vec<(NapletId, Value)> {
        let server = self.server_mut(home);
        server
            .map(|s| std::mem::take(&mut s.reports))
            .unwrap_or_default()
    }

    fn queue(&self) -> RefMut<'_, EventQueue<SimEvent>> {
        RefMut::map(self.world.borrow_mut(), |world| &mut world.queue)
    }

    fn host(&mut self, host: &str) -> Result<&mut Host<Virtual>> {
        let found = self.hosts.get_mut(host);
        found.ok_or_else(|| NapletError::NotFound(format!("no server at `{host}`")))
    }

    /// Pop the next queued event, count it and dispatch it; `false`
    /// when the queue is empty.
    fn dispatch_next(&mut self) -> bool {
        let Some((now, ev)) = self.queue().pop() else {
            return false;
        };
        self.events_processed += 1;
        // keep the fabric's fault schedules (down-windows, loss bursts)
        // in step with virtual time
        self.fabric.set_now(now);
        match ev {
            SimEvent::Deliver {
                from,
                to,
                wire,
                ctx,
            } => {
                let ctx = ctx.as_ref();
                if let Some(node) = self.hosts.get_mut(&*to) {
                    if node.link.down {
                        // in flight when the host went down: lost at
                        // the dead NIC
                        self.fabric.stats().record_drop();
                        node.lost(&to, wire.label(), wire.subject(), ctx);
                        return true;
                    }
                    node.deliver(from.to_string(), wire, ctx);
                } else if let Some((station, inbox)) = self.stations.get_mut(&*to) {
                    station.arrive(&from, &wire, ctx);
                    inbox.push((from.to_string(), wire));
                }
            }
            SimEvent::Local { host, event, epoch } => match self.hosts.get_mut(&*host) {
                Some(node) if !node.link.down && node.link.epoch == epoch => node.fire(event),
                // armed by a process that has since crashed
                _ => return true,
            },
            SimEvent::Crash { host, restart_at } => self.perform_crash(&host, restart_at),
            SimEvent::Restart { host } => self.perform_restart(&host),
            SimEvent::WatchdogTick => {
                self.tick_pending = false;
                self.watchdog_sweep(Millis(now));
            }
        }
        self.maybe_schedule_tick();
        true
    }

    /// Keep one watchdog tick queued while any unalerted journey is
    /// tracked, so ticks stop — and the sim drains — after the last.
    fn maybe_schedule_tick(&mut self) {
        let watchdog = &self.obs.watchdog;
        if self.tick_pending || !watchdog.enabled() || !watchdog.wants_tick() {
            return;
        }
        let tick_ms = watchdog.config().tick_ms;
        self.queue().push_after(tick_ms, SimEvent::WatchdogTick);
        self.tick_pending = true;
    }

    /// One watchdog pass: journey-stall checks, then a server-health
    /// sweep (mailbox backlog, journal lag) over live servers in
    /// sorted-host order — both deterministic in virtual time.
    fn watchdog_sweep(&mut self, now: Millis) {
        let config = self.obs.watchdog.config();
        let alerts = self.obs.watchdog.check(now);
        for alert in &alerts {
            self.obs.record_stall_alert(alert);
            // pull the home server's lease check forward: the watchdog
            // suspects an orphan before the lease window would have
            // noticed on its own
            let Ok(id) = alert.naplet.parse::<NapletId>() else {
                continue;
            };
            match self.hosts.get_mut(&alert.home) {
                Some(node) if config.early_redispatch => node.fire(LocalEvent::LeaseCheck { id }),
                _ => {}
            }
        }
        self.alerts.extend(alerts);
        for report in self.status_reports() {
            let depth = report.mailbox_depth + report.special_mailbox_depth;
            let threshold = config.mailbox_threshold;
            if depth >= threshold {
                let kind = TraceKind::MailboxBacklog { depth, threshold };
                self.raise(now, &report.host, kind, "alerts.mailbox");
            }
            let (entries, bytes) = (report.journal_entries, report.journal_bytes);
            let threshold = config.journal_threshold;
            if entries >= threshold {
                let kind = TraceKind::JournalLagHigh {
                    entries,
                    bytes,
                    threshold,
                };
                self.raise(now, &report.host, kind, "alerts.journal");
            }
        }
    }

    /// Raise a server-health alert once per episode, counted under
    /// `counter` as well as `alerts.raised`.
    fn raise(&self, now: Millis, host: &str, kind: TraceKind, counter: &str) {
        if let Some(ev) = self.obs.watchdog.raise_server_alert(now, host, kind) {
            self.obs.metrics.incr("alerts.raised", 1);
            self.obs.metrics.incr(counter, 1);
            self.obs.push_event(ev);
        }
    }

    /// Crash `host`: a fresh node holding only the journal, its link
    /// down at the next crash epoch (voiding every pending timer), and
    /// a fabric outage until `restart_at` (forever when `None`).
    fn perform_crash(&mut self, host: &str, restart_at: Option<u64>) {
        let Some(mut node) = self.hosts.remove(host) else {
            return;
        };
        let now = self.now();
        self.obs.metrics.incr("crashes", 1);
        self.obs.emit(now, host, None, || TraceKind::Crash);
        self.fabric
            .schedule_crash(host, now.0, restart_at.unwrap_or(u64::MAX));
        let mut fresh = NapletServer::new(self.configs[host].clone());
        fresh.set_obs(self.obs.clone());
        fresh.set_journal(node.server.take_journal());
        let mut link = node.link;
        (link.epoch, link.down) = (link.epoch + 1, true);
        self.hosts.insert(host.to_string(), Host::on(link, fresh));
        if let Some(at) = restart_at {
            let host = host.to_string();
            self.queue().push_at(at, SimEvent::Restart { host });
        }
    }

    /// Bring a crashed `host` back: its link up, its journal replayed.
    fn perform_restart(&mut self, host: &str) {
        let Some(node) = self.hosts.get_mut(host).filter(|node| node.link.down) else {
            return;
        };
        node.link.down = false;
        self.fabric.stats().record_recovery();
        node.recover();
    }
}
