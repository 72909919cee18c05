//! The discrete-event simulation runtime.
//!
//! [`SimRuntime`] drives a whole naplet space — many [`NapletServer`]s
//! over one metered [`Fabric`] — in deterministic virtual time. It is
//! the measurement harness for every experiment: exact bytes from the
//! fabric stats, exact completion times from the event clock.
//!
//! Besides servers, plain **stations** can join the fabric: hosts that
//! collect raw wire values instead of running a naplet server. The
//! centralized SNMP management station of the §6 baseline is a station.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use naplet_core::clock::Millis;
use naplet_core::error::{NapletError, Result};
use naplet_core::id::NapletId;
use naplet_core::message::Payload;
use naplet_core::naplet::Naplet;
use naplet_core::tracectx::{CtxTable, TraceCtx};
use naplet_core::value::Value;
use naplet_net::{EventQueue, Fabric, TrafficClass};
use naplet_obs::{ObsSink, StallAlert, TraceKind, WatchdogConfig};

use crate::events::{Input, LocalEvent, Output, Wire};
use crate::server::{NapletServer, ServerConfig};
use crate::status::StatusReport;

/// Approximate frame overhead on top of the codec-encoded payload
/// (length prefix, class tag, host names) — mirrors
/// `naplet_net::Frame::wire_len`.
fn frame_bytes(from: &str, to: &str, payload_len: usize) -> u64 {
    (4 + 1 + 2 + from.len() + 2 + to.len() + payload_len) as u64
}

/// Host names in per-frame and per-timer events are the space's shared
/// ones ([`SimRuntime::name`]): queueing one clones a handle, not a
/// string.
#[allow(clippy::large_enum_variant)] // Deliver carries whole agents
#[derive(Debug)]
enum SimEvent {
    Deliver {
        from: Arc<str>,
        to: Arc<str>,
        wire: Wire,
        /// Trace context the frame carried (absent while tracing and
        /// the flight recorder are both off).
        ctx: Option<TraceCtx>,
    },
    Local {
        host: Arc<str>,
        event: LocalEvent,
        /// The host's crash epoch when the event was scheduled. A
        /// crash bumps the epoch, so timers armed by the dead process
        /// are discarded on delivery — volatile state dies with it.
        epoch: u64,
    },
    /// Crash `host` now: wipe its volatile state (only the journal
    /// survives), optionally scheduling a restart.
    Crash {
        host: String,
        restart_at: Option<u64>,
    },
    /// Restart a crashed `host`: rebuild the server from its original
    /// configuration and replay its journal.
    Restart { host: String },
    /// Periodic journey-stall / server-health sweep. At most one is in
    /// flight; it re-arms itself only while the watchdog still tracks
    /// an unalerted journey, so a drained space reaches quiescence.
    WatchdogTick,
}

impl SimEvent {
    /// The host this event happens at (`None` for the space-wide
    /// watchdog tick).
    fn target(&self) -> Option<&str> {
        match self {
            SimEvent::Deliver { to: host, .. } | SimEvent::Local { host, .. } => Some(host),
            SimEvent::Crash { host, .. } | SimEvent::Restart { host } => Some(host),
            SimEvent::WatchdogTick => None,
        }
    }
}

/// The deterministic multi-server driver.
pub struct SimRuntime {
    fabric: Fabric,
    queue: EventQueue<SimEvent>,
    servers: HashMap<String, NapletServer>,
    stations: HashMap<String, Vec<(String, Wire)>>,
    /// One shared copy of every server's and station's name.
    names: HashSet<Arc<str>>,
    /// Original configurations, kept so a crashed server can be
    /// rebuilt exactly as it was born.
    configs: HashMap<String, ServerConfig>,
    /// Per-host crash epoch (bumped on every crash).
    crash_epoch: HashMap<String, u64>,
    /// Hosts currently down: frames to them are dropped on delivery.
    crashed: HashSet<String>,
    /// Wire values that could not be delivered (dropped by the fabric).
    pub dropped: u64,
    /// Total events processed.
    pub events_processed: u64,
    /// Shared observability sink handed to every server; runtime-level
    /// wire/crash events are recorded here too.
    obs: ObsSink,
    /// True while a [`SimEvent::WatchdogTick`] sits in the queue.
    tick_pending: bool,
    /// Stall alerts raised by the watchdog, in raise order.
    alerts: Vec<StallAlert>,
    /// Per-journey wire trace contexts (the sim's single table plays
    /// every node's; seq/hop advancement is identical to a cluster of
    /// per-node tables because delivery adoption is synchronous here).
    ctxs: CtxTable,
}

impl SimRuntime {
    /// New runtime over a fabric.
    pub fn new(fabric: Fabric) -> SimRuntime {
        SimRuntime {
            fabric,
            queue: EventQueue::new(),
            servers: HashMap::new(),
            stations: HashMap::new(),
            names: HashSet::new(),
            configs: HashMap::new(),
            crash_epoch: HashMap::new(),
            crashed: HashSet::new(),
            dropped: 0,
            events_processed: 0,
            obs: ObsSink::default(),
            tick_pending: false,
            alerts: Vec::new(),
            ctxs: CtxTable::new(),
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

    /// Arm the journey watchdog for the whole space. Progress is fed
    /// from the trace-event stream (even with tracing off); a sweep
    /// runs every `config.tick_ms` of virtual time while any unalerted
    /// journey is tracked, so a drained space still quiesces. Alerts
    /// land in [`SimRuntime::alerts`], the metrics registry, and (when
    /// tracing is on) the trace stream.
    pub fn enable_watchdog(&mut self, config: WatchdogConfig) {
        self.obs.enable_watchdog(config);
        self.maybe_schedule_tick();
    }

    /// Stall alerts raised so far, in raise order (deterministic for a
    /// seeded run).
    pub fn alerts(&self) -> &[StallAlert] {
        &self.alerts
    }

    /// Assemble a [`StatusReport`] from every live server, sorted by
    /// host — the local (in-process) counterpart of the wire-level
    /// status protocol, and what `figures status` renders.
    pub fn status_reports(&self) -> Vec<StatusReport> {
        let now = self.now();
        self.server_hosts()
            .iter()
            .filter(|h| !self.crashed.contains(*h))
            .filter_map(|h| self.servers.get(h).map(|s| s.status_report(now)))
            .collect()
    }

    /// Current virtual time.
    pub fn now(&self) -> Millis {
        Millis(self.queue.now())
    }

    /// Install a naplet server for `config.host`.
    pub fn add_server(&mut self, config: ServerConfig) -> &mut NapletServer {
        let host = config.host.clone();
        self.fabric.add_host(&host);
        self.names.insert(Arc::from(host.as_str()));
        self.configs
            .entry(host.clone())
            .or_insert_with(|| config.clone());
        if !self.servers.contains_key(&host) {
            let mut server = NapletServer::new(config);
            server.set_obs(self.obs.clone());
            // a directory replica needs its consensus clock running
            // before any input arrives, or no leader is ever elected
            if let Some(tick_ms) = server.arm_initial_repl_tick() {
                self.push_local(&self.name(&host), tick_ms, LocalEvent::ReplTick);
            }
            self.servers.insert(host.clone(), server);
        }
        self.servers.get_mut(&host).expect("installed above")
    }

    /// Register a plain station host that collects wire values. The
    /// inbox is pre-sized: stations (e.g. the SNMP management station)
    /// absorb bursts of whole-space polls, so growing from empty one
    /// doubling at a time showed up in the storm benchmarks.
    pub fn add_station(&mut self, name: &str) {
        self.fabric.add_host(name);
        self.names.insert(Arc::from(name));
        self.stations
            .entry(name.to_string())
            .or_insert_with(|| Vec::with_capacity(256));
    }

    /// Access a server.
    pub fn server(&self, host: &str) -> Option<&NapletServer> {
        self.servers.get(host)
    }

    /// Mutable access to a server.
    pub fn server_mut(&mut self, host: &str) -> Option<&mut NapletServer> {
        self.servers.get_mut(host)
    }

    /// All server host names (sorted).
    pub fn server_hosts(&self) -> Vec<String> {
        let mut v: Vec<String> = self.servers.keys().cloned().collect();
        v.sort();
        v
    }

    /// Launch a naplet from its home server.
    pub fn launch(&mut self, naplet: Naplet) -> Result<()> {
        let home = naplet.home().to_string();
        let now = self.now();
        let server = self
            .servers
            .get_mut(&home)
            .ok_or_else(|| NapletError::NotFound(format!("no server at home `{home}`")))?;
        let outputs = server.launch(naplet, now);
        self.process_outputs(&self.name(&home), outputs);
        Ok(())
    }

    /// Post an owner/console message (e.g. a control verb) from
    /// `owner_host`'s server to a naplet.
    pub fn owner_post(&mut self, owner_host: &str, to: NapletId, payload: Payload) -> Result<()> {
        let now = self.now();
        let server = self
            .servers
            .get_mut(owner_host)
            .ok_or_else(|| NapletError::NotFound(format!("no server at `{owner_host}`")))?;
        let outputs = server.owner_post(to, payload, now);
        self.process_outputs(&self.name(owner_host), outputs);
        Ok(())
    }

    /// Send a raw wire value from a station (e.g. an SNMP request from
    /// the management station baseline). Metering and delay follow the
    /// wire's traffic class.
    pub fn station_send(&mut self, from: &str, to: &str, wire: Wire) -> Result<()> {
        self.schedule_wire(&self.name(from), to, wire);
        Ok(())
    }

    /// Drain everything a station has received.
    pub fn station_drain(&mut self, name: &str) -> Vec<(String, Wire)> {
        self.stations
            .get_mut(name)
            .map(std::mem::take)
            .unwrap_or_default()
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

    /// Run until virtual time reaches `until` (events after it stay
    /// queued) or quiescence.
    pub fn run_until(&mut self, until: Millis) -> u64 {
        let mut processed = 0;
        while self.queue.peek_time().is_some_and(|t| t <= until.0) && self.dispatch_next() {
            processed += 1;
        }
        processed
    }

    /// Schedule a crash of `host` at virtual time `at_ms`. When
    /// `restart_after_ms` is `Some(d)`, the host restarts (and replays
    /// its journal) `d` ms after the crash; `None` means it never
    /// comes back.
    pub fn schedule_crash(&mut self, host: &str, at_ms: u64, restart_after_ms: Option<u64>) {
        let restart_at = restart_after_ms.map(|d| at_ms.saturating_add(d));
        self.queue.push_at(
            at_ms,
            SimEvent::Crash {
                host: host.to_string(),
                restart_at,
            },
        );
    }

    /// Crash `host` immediately (between two events — handler
    /// invocations are atomic, so this is the only place a real crash
    /// can fall in this model).
    pub fn crash_server(&mut self, host: &str, restart_after_ms: Option<u64>) {
        let restart_at = restart_after_ms.map(|d| self.queue.now().saturating_add(d));
        self.perform_crash(host, restart_at);
    }

    /// Process exactly one queued event; returns the host it targeted
    /// (`None` when the queue is empty or the event had no single
    /// target). Lets tests crash a server at a precise event index.
    pub fn step(&mut self) -> Option<String> {
        let target = self.peek_target();
        self.dispatch_next();
        target
    }

    /// The host the next queued event targets, without processing it.
    pub fn peek_target(&self) -> Option<String> {
        self.queue
            .peek()
            .and_then(SimEvent::target)
            .map(str::to_string)
    }

    /// Aggregated recovery statistics over every server.
    pub fn recovery_totals(&self) -> crate::journal::RecoveryStats {
        let mut total = crate::journal::RecoveryStats::default();
        for server in self.servers.values() {
            total.merge(&server.recovery_stats());
        }
        total
    }

    /// Collected reports at a home server, drained.
    pub fn drain_reports(&mut self, home: &str) -> Vec<(NapletId, Value)> {
        self.servers
            .get_mut(home)
            .map(|s| std::mem::take(&mut s.reports))
            .unwrap_or_default()
    }

    /// Pop the next queued event, count it and dispatch it; `false`
    /// when the queue is empty.
    fn dispatch_next(&mut self) -> bool {
        let Some((_, ev)) = self.queue.pop() else {
            return false;
        };
        self.events_processed += 1;
        self.dispatch(ev);
        true
    }

    fn dispatch(&mut self, ev: SimEvent) {
        let now = self.now();
        // keep the fabric's fault schedules (down-windows, loss bursts)
        // in step with virtual time
        self.fabric.set_now(now.0);
        match ev {
            SimEvent::Deliver {
                from,
                to,
                wire,
                ctx,
            } => {
                if self.crashed.contains(&*to) {
                    // the frame was already in flight when the host went
                    // down; it is lost at the dead NIC
                    self.dropped += 1;
                    self.fabric.stats().record_drop();
                    self.obs.metrics.incr("wire.dropped", 1);
                    self.obs
                        .emit_ctx(now, &to, wire.subject(), ctx.as_ref(), || {
                            TraceKind::WireDrop {
                                to: to.to_string(),
                                label: wire.label().to_string(),
                            }
                        });
                    return;
                }
                if let Some(ctx) = &ctx {
                    self.ctxs.adopt(ctx);
                }
                self.obs
                    .emit_ctx(now, &to, wire.subject(), ctx.as_ref(), || {
                        TraceKind::WireRecv {
                            from: from.to_string(),
                            label: wire.label().to_string(),
                        }
                    });
                // the one place a frame's sender becomes an owned string
                let from = from.to_string();
                if let Some(server) = self.servers.get_mut(&*to) {
                    let outputs = server.handle(now, Input::Wire { from, wire });
                    self.process_outputs(&to, outputs);
                } else if let Some(inbox) = self.stations.get_mut(&*to) {
                    inbox.push((from, wire));
                }
                // frames to unknown hosts were already rejected by the
                // fabric at send time
            }
            SimEvent::Local { host, event, epoch } => {
                if self.crashed.contains(&*host)
                    || epoch != self.crash_epoch.get(&*host).copied().unwrap_or(0)
                {
                    // timers armed by a process that has since crashed:
                    // volatile state died with it
                    return;
                }
                if let Some(server) = self.servers.get_mut(&*host) {
                    let outputs = server.handle(now, Input::Local(event));
                    self.process_outputs(&host, outputs);
                }
            }
            SimEvent::Crash { host, restart_at } => {
                self.perform_crash(&host, restart_at);
            }
            SimEvent::Restart { host } => {
                self.perform_restart(&host);
            }
            SimEvent::WatchdogTick => {
                self.tick_pending = false;
                self.watchdog_sweep(now);
            }
        }
        self.maybe_schedule_tick();
    }

    /// Keep exactly one watchdog tick queued while any unalerted
    /// journey is tracked. Called after every dispatched event (and on
    /// enable), so ticks stop — and the sim drains — once every
    /// journey has finished or already alerted.
    fn maybe_schedule_tick(&mut self) {
        if self.tick_pending || !self.obs.watchdog.enabled() || !self.obs.watchdog.wants_tick() {
            return;
        }
        self.queue
            .push_after(self.obs.watchdog.config().tick_ms, SimEvent::WatchdogTick);
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
            if config.early_redispatch {
                // pull the home server's lease check forward: the
                // watchdog suspects an orphan before the lease window
                // would have noticed on its own
                if let Ok(id) = alert.naplet.parse::<NapletId>() {
                    if let Some(server) = self.servers.get_mut(&alert.home) {
                        let outputs =
                            server.handle(now, Input::Local(LocalEvent::LeaseCheck { id }));
                        self.process_outputs(&self.name(&alert.home), outputs);
                    }
                }
            }
        }
        self.alerts.extend(alerts);
        for host in self.server_hosts() {
            if self.crashed.contains(&host) {
                continue;
            }
            let Some(server) = self.servers.get(&host) else {
                continue;
            };
            let report = server.status_report(now);
            let depth = report.mailbox_depth + report.special_mailbox_depth;
            if depth >= config.mailbox_threshold {
                let kind = TraceKind::MailboxBacklog {
                    depth,
                    threshold: config.mailbox_threshold,
                };
                if let Some(ev) = self.obs.watchdog.raise_server_alert(now, &host, kind) {
                    self.obs.metrics.incr("alerts.raised", 1);
                    self.obs.metrics.incr("alerts.mailbox", 1);
                    self.obs.push_event(ev);
                }
            }
            if report.journal_entries >= config.journal_threshold {
                let kind = TraceKind::JournalLagHigh {
                    entries: report.journal_entries,
                    bytes: report.journal_bytes,
                    threshold: config.journal_threshold,
                };
                if let Some(ev) = self.obs.watchdog.raise_server_alert(now, &host, kind) {
                    self.obs.metrics.incr("alerts.raised", 1);
                    self.obs.metrics.incr("alerts.journal", 1);
                    self.obs.push_event(ev);
                }
            }
        }
    }

    /// Crash `host` right now: bump its crash epoch (voiding every
    /// pending timer), replace the server with a cold shell holding
    /// only the journal, and open a fabric outage window until
    /// `restart_at` (forever when `None`).
    fn perform_crash(&mut self, host: &str, restart_at: Option<u64>) {
        let Some(server) = self.servers.get_mut(host) else {
            return;
        };
        let now = self.queue.now();
        *self.crash_epoch.entry(host.to_string()).or_insert(0) += 1;
        self.crashed.insert(host.to_string());
        self.obs.metrics.incr("crashes", 1);
        self.obs.emit(Millis(now), host, None, || TraceKind::Crash);
        self.fabric
            .schedule_crash(host, now, restart_at.unwrap_or(u64::MAX));
        // only the journal survives the crash
        let journal = server.take_journal();
        let config =
            self.configs.get(host).cloned().unwrap_or_else(|| {
                ServerConfig::open(host, crate::server::LocationMode::HomeManagers)
            });
        let mut fresh = NapletServer::new(config);
        fresh.set_obs(self.obs.clone());
        fresh.set_journal(journal);
        self.servers.insert(host.to_string(), fresh);
        if let Some(at) = restart_at {
            self.queue.push_at(
                at,
                SimEvent::Restart {
                    host: host.to_string(),
                },
            );
        }
    }

    /// Bring a crashed `host` back: mark it reachable again and run
    /// recovery replay over its journal.
    fn perform_restart(&mut self, host: &str) {
        if !self.crashed.remove(host) {
            return;
        }
        self.fabric.stats().record_recovery();
        let now = self.now();
        let Some(server) = self.servers.get_mut(host) else {
            return;
        };
        let outputs = server.recover(now);
        self.process_outputs(&self.name(host), outputs);
    }

    /// Queue a local event for `host`, stamped with its current crash
    /// epoch so a crash in between voids it.
    fn push_local(&mut self, host: &Arc<str>, delay_ms: u64, event: LocalEvent) {
        let epoch = self.crash_epoch.get(&**host).copied().unwrap_or(0);
        self.queue.push_after(
            delay_ms,
            SimEvent::Local {
                host: Arc::clone(host),
                event,
                epoch,
            },
        );
    }

    /// The space's shared copy of `host`'s name (a fresh one for a
    /// host that never joined, whose frames the fabric rejects).
    fn name(&self, host: &str) -> Arc<str> {
        self.names
            .get(host)
            .cloned()
            .unwrap_or_else(|| Arc::from(host))
    }

    fn process_outputs(&mut self, host: &Arc<str>, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::Send { to, wire } => {
                    self.schedule_wire(host, &to, wire);
                }
                Output::Schedule { delay_ms, event } => self.push_local(host, delay_ms, event),
                Output::FetchCode { from, bytes, id } => {
                    let delay = if bytes == 0 || *from == **host {
                        Some(0)
                    } else {
                        self.fabric
                            .transfer(&from, host, TrafficClass::Code, bytes)
                            .unwrap_or(Some(0))
                    };
                    // fetch lost: retry optimistic immediate delivery
                    // so the agent is not stranded
                    if delay.is_none() {
                        self.dropped += 1;
                    }
                    self.push_local(host, delay.unwrap_or(1), LocalEvent::CodeReady { id });
                }
            }
        }
    }

    fn schedule_wire(&mut self, from: &Arc<str>, to: &str, wire: Wire) {
        // byte metering: the counting serializer walks the wire value
        // without materializing any bytes
        let payload_len = naplet_core::codec::encoded_size(&wire).unwrap_or(0) as usize;
        let bytes = frame_bytes(from, to, payload_len);
        let class = wire.traffic_class();
        let now = Millis(self.queue.now());
        self.fabric.set_now(self.queue.now());
        if wire.retry_attempt() > 1 {
            self.fabric.stats().record_retransmit();
        }
        // the context table is consulted only while a causal consumer
        // (tracer or flight recorder) is on, so the tracing-off hot
        // path allocates nothing extra
        let ctx = if self.obs.ctx_enabled() {
            wire.subject()
                .map(|id| self.ctxs.on_send(&id.to_string(), from, wire.opens_hop()))
        } else {
            None
        };
        self.obs.metrics.incr("wire.sent", 1);
        self.obs
            .emit_ctx(now, from, wire.subject(), ctx.as_ref(), || {
                TraceKind::WireSend {
                    to: to.to_string(),
                    label: wire.label().to_string(),
                    class: class.label().to_string(),
                    bytes,
                    attempt: wire.retry_attempt(),
                }
            });
        match self.fabric.transfer(from, to, class, bytes) {
            Ok(Some(delay)) => {
                self.queue.push_after(
                    delay,
                    SimEvent::Deliver {
                        from: Arc::clone(from),
                        to: self.name(to),
                        wire,
                        ctx,
                    },
                );
            }
            Ok(None) | Err(_) => {
                self.dropped += 1;
                self.obs.metrics.incr("wire.dropped", 1);
                self.obs
                    .emit_ctx(now, from, wire.subject(), ctx.as_ref(), || {
                        TraceKind::WireDrop {
                            to: to.to_string(),
                            label: wire.label().to_string(),
                        }
                    });
            }
        }
    }
}
