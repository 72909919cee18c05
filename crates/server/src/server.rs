//! The NapletServer: one dock of naplets per host (paper §2.2).
//!
//! A server wires the seven architecture components together —
//! NapletMonitor, NapletSecurityManager, ResourceManager,
//! NapletManager, Messenger, Navigator and Locator — plus dynamically
//! created ServiceChannels. This file is the router between them and
//! the keeper of the journal: it feeds each component's transitions
//! and enacts their outcomes (records, bookkeeping, log, metrics,
//! trace). No agent code runs here: the monitor's
//! [`sandbox`](crate::sandbox) runs it and hands back what it asked
//! for. It is written as a deterministic event handler: a driver
//! feeds it [`Input`]s and enacts the [`Output`]s, so the same server
//! runs under the discrete-event runtime and under threaded drivers.

use std::sync::Arc;

use naplet_core::behavior::ActionRegistry;
use naplet_core::clock::Millis;
use naplet_core::codebase::{CodeCache, CodebaseRegistry};
use naplet_core::error::{NapletError, Result};
use naplet_core::id::NapletId;
use naplet_core::itinerary::{ActionSpec, Cursor, Step};
use naplet_core::message::{ControlVerb, Mailbox, Message, Payload, Sender};
use naplet_core::naplet::{AgentKind, Naplet, SharedNaplet};
use naplet_core::value::Value;

use naplet_obs::{ObsSink, TraceKind, COUNT_BOUNDS, LATENCY_BOUNDS_MS};

use crate::directory::DirEvent;
use crate::events::{
    EventLog, Input, LocalEvent, LogEntry, OpsPage, OpsRead, Output, TransferEnvelope, Wire,
};
use crate::journal::{Journal, JournalPhase, RecoveryStats};
use crate::lease::{LeasePolicy, LeaseTable};
pub use crate::locator::LocationMode;
use crate::locator::{Filed, Holder, Locator};
use crate::manager::{NapletManager, NapletStatus};
use crate::messenger::Messenger;
use crate::monitor::{Meter, MonitorPolicy, NapletMonitor, RunState};
use crate::navigator::{Attempt, Due, Failed, Navigator, Verdict};
use crate::repl::{ReplConfig, ReplNote, ReplOut, ReplicaCore};
use crate::resources::ResourceManager;
use crate::retry::RetryPolicy;
use crate::sandbox::{Effects, ExecOutcome, Sandbox, What};
use crate::security::{Permission, SecurityManager};
use crate::status::{ResidentStatus, StatusReport};

/// Retention window for dedup/bookkeeping tables (receiver-side
/// transfer dedup, messenger confirmations): entries older than this
/// are compacted away.
const RETENTION_MS: u64 = 600_000;

/// Ring capacity of the human-readable event log; the oldest lines are
/// evicted (and counted) beyond this.
const LOG_CAPACITY: usize = 4096;

/// Static server configuration. `Clone` so a crash driver can rebuild
/// a server from the same configuration it was born with.
#[derive(Clone)]
pub struct ServerConfig {
    /// This server's host name (one server per host).
    pub host: String,
    /// Location mode shared by the naplet space.
    pub mode: LocationMode,
    /// Security manager (policy + trusted keys).
    pub security: SecurityManager,
    /// Monitor resource policy.
    pub monitor_policy: MonitorPolicy,
    /// Codebase registry for native behaviours.
    pub codebase: CodebaseRegistry,
    /// Named post-actions.
    pub actions: ActionRegistry,
    /// Admission cap: refuse LANDING above this many residents.
    pub max_residents: Option<usize>,
    /// Retry/backoff parameters for the reliable-transfer layer.
    pub retry: RetryPolicy,
    /// Home-side lease policy for dispatched naplets. `None` (the
    /// default) disables leasing entirely — no lease timers, no extra
    /// wire traffic, byte totals identical to a lease-free server.
    pub lease: Option<LeasePolicy>,
    /// Consensus timing override for the members of a replicated
    /// directory. `None` (the default) derives [`ReplConfig::new`] from
    /// the mode's replica list; irrelevant in every other mode.
    pub repl: Option<ReplConfig>,
}

impl ServerConfig {
    /// Open configuration (allow-all security, defaults) for `host`.
    pub fn open(host: &str, mode: LocationMode) -> ServerConfig {
        ServerConfig {
            host: host.to_string(),
            mode,
            security: SecurityManager::open(),
            monitor_policy: MonitorPolicy::default(),
            codebase: CodebaseRegistry::new(),
            actions: ActionRegistry::new(),
            max_residents: None,
            retry: RetryPolicy::default(),
            lease: None,
            repl: None,
        }
    }
}

type AppHandler = Box<dyn FnMut(&str, &[u8]) -> Result<Vec<u8>> + Send>;
type StateHook = Box<dyn FnMut(&mut naplet_core::state::ServerStateView<'_>) + Send>;

/// One naplet server (a dock of naplets within a host).
pub struct NapletServer {
    host: String,
    security: SecurityManager,
    /// Open + privileged services and live channels.
    pub resources: ResourceManager,
    /// Execution monitor.
    pub monitor: NapletMonitor,
    /// Naplet table + footprints.
    pub manager: NapletManager,
    /// Post-office state.
    pub messenger: Messenger,
    /// Location cache and the door to the directory: this host's
    /// shard, the queries in flight, the consensus core it may host.
    pub locator: Locator,
    codebase: CodebaseRegistry,
    code_cache: CodeCache,
    actions: ActionRegistry,
    max_residents: Option<usize>,
    retry: RetryPolicy,
    next_token: u64,
    /// The migration protocol: outbound custody, expected landings,
    /// transfer dedup and the parked set.
    pub navigator: Navigator,
    app_handler: Option<AppHandler>,
    state_hook: Option<StateHook>,
    /// Write-ahead journal: durable naplet snapshots at protocol
    /// boundaries, replayed by [`recover`](Self::recover).
    journal: Journal,
    /// Home-side lease policy; `None` disables leasing.
    lease_policy: Option<LeasePolicy>,
    /// Live leases for naplets dispatched from this (home) server.
    pub leases: LeaseTable,
    last_sweep: Millis,
    /// Recovery diagnostics accumulated across crash replays.
    recovery: RecoveryStats,
    /// Navigation logs of journeys that completed at this server
    /// (diagnostics: duplicate-visit assertions read these).
    pub completed: Vec<(NapletId, naplet_core::navlog::NavigationLog)>,
    /// Listener reports received for naplets homed here.
    pub reports: Vec<(NapletId, Value)>,
    /// Application-level replies received at this host
    /// (token, tag, body).
    pub app_replies: Vec<(u64, String, Vec<u8>)>,
    /// Ops-plane replies received at this host (token, page); `None`
    /// pages mark reads the peer's security policy refused.
    pub ops_replies: Vec<(u64, Option<OpsPage>)>,
    /// Human-readable event log (bounded ring).
    pub log: EventLog,
    /// Structured observation endpoint (shared with the driver).
    obs: ObsSink,
}

impl NapletServer {
    /// Build a server from its configuration.
    pub fn new(config: ServerConfig) -> NapletServer {
        let journal = Journal::in_memory();
        let locator = Locator::new(&config.host, config.mode, config.repl, &journal);
        let navigator = Navigator::new(&config.host, config.retry.clone());
        NapletServer {
            host: config.host,
            security: config.security,
            resources: ResourceManager::new(),
            monitor: NapletMonitor::new(config.monitor_policy),
            manager: NapletManager::new(),
            messenger: Messenger::default(),
            locator,
            codebase: config.codebase,
            code_cache: CodeCache::new(),
            actions: config.actions,
            max_residents: config.max_residents,
            navigator,
            retry: config.retry,
            next_token: 0,
            app_handler: None,
            state_hook: None,
            journal,
            lease_policy: config.lease,
            leases: LeaseTable::new(),
            last_sweep: Millis(0),
            recovery: RecoveryStats::default(),
            completed: Vec::new(),
            reports: Vec::new(),
            app_replies: Vec::new(),
            ops_replies: Vec::new(),
            log: EventLog::with_capacity(LOG_CAPACITY),
            obs: ObsSink::default(),
        }
    }

    /// Attach the shared observation sink (drivers call this so every
    /// server in a space records into one trace/metrics endpoint).
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// The observation sink this server records into.
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// This server's host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Install the application-level request handler (client/server
    /// baselines; metered as `Snmp` traffic).
    pub fn set_app_handler(
        &mut self,
        f: impl FnMut(&str, &[u8]) -> Result<Vec<u8>> + Send + 'static,
    ) {
        self.app_handler = Some(Box::new(f));
    }

    /// Install a hook run against every arriving naplet's state
    /// *through the mode-checked server view* (paper §2.1: "a naplet
    /// server can update a returning naplet with new information" —
    /// but only in entries whose protection mode admits this host).
    pub fn set_arrival_state_hook(
        &mut self,
        f: impl FnMut(&mut naplet_core::state::ServerStateView<'_>) + Send + 'static,
    ) {
        self.state_hook = Some(Box::new(f));
    }

    /// Mutable access to the security manager (policy reconfiguration).
    pub fn security_mut(&mut self) -> &mut SecurityManager {
        &mut self.security
    }

    /// Mutable access to the action registry.
    pub fn actions_mut(&mut self) -> &mut ActionRegistry {
        &mut self.actions
    }

    /// Replace the journal (e.g. with a [`crate::journal::FileStore`]
    /// backing, or to hand a crashed server's journal to its rebuilt
    /// replacement). Call before any naplets are hosted.
    pub fn set_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Take the journal out of the server, leaving a fresh in-memory
    /// one. Crash drivers use this: the journal is the only state that
    /// survives the wipe.
    pub fn take_journal(&mut self) -> Journal {
        std::mem::replace(&mut self.journal, Journal::in_memory())
    }

    /// Read access to the journal (diagnostics/tests).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Recovery diagnostics: naplets rehydrated, replays suppressed,
    /// handoffs resumed, plus the lease table's expiry counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut stats = self.recovery;
        stats.leases_expired = self.leases.expired;
        stats.orphans_redispatched = self.leases.redispatched;
        stats.agents_lost = self.leases.lost;
        stats
    }

    fn logf(&mut self, now: Millis, line: String) {
        self.log.push(LogEntry { at: now, line });
    }

    /// High-water mark of the special (early-arrival) mailbox.
    fn note_special_mailbox_depth(&self) {
        self.obs.metrics.gauge_max(
            "special_mailbox_depth",
            self.messenger.early_waiting() as u64,
        );
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        // durably advance the watermark so a recovered server never
        // reissues a transfer id that may be live in a peer's dedup set
        let _ = self.journal.set_token_watermark(self.next_token);
        self.next_token
    }

    /// Journal a snapshot of a resident: the one walk of the agent the
    /// record costs.
    fn journal_naplet(&mut self, naplet: &Naplet, phase: &JournalPhase, now: Millis) {
        let image = naplet.to_wire().map(Arc::new);
        self.journal_image(naplet.id(), image, phase, now);
    }

    /// Journal an agent image the caller holds — a handle's
    /// `wire_bytes()`; every resident record is written here.
    fn journal_image(
        &mut self,
        id: &NapletId,
        image: Result<Arc<Vec<u8>>>,
        phase: &JournalPhase,
        now: Millis,
    ) {
        let written =
            image.and_then(|image| self.journal.record_naplet_bytes(id, &image, phase, now));
        self.journal_written(id, written, phase_label(phase), now);
    }

    /// Journal where the handoff `transfer_id` stands, as the navigator
    /// shows it: every in-flight record is written here.
    fn journal_pending(&mut self, transfer_id: u64, now: Millis) {
        let journal = &mut self.journal;
        let view = self
            .navigator
            .journal_view(transfer_id, |id, image, phase| {
                let written =
                    image.and_then(|image| journal.record_naplet_bytes(id, &image, phase, now));
                (id.clone(), written, phase_label(phase))
            });
        if let Some((id, written, phase)) = view {
            self.journal_written(&id, written, phase, now);
        }
    }

    /// Account for a naplet record just written. Logs (never fails)
    /// when there was no image or the store refused it: a degraded
    /// journal weakens durability, never the live run.
    fn journal_written(&mut self, id: &NapletId, written: Result<()>, phase: &str, now: Millis) {
        if let Err(e) = written {
            self.logf(now, format!("JOURNAL write failed for {id}: {e}"));
        }
        let records = self.journal.len() as u64;
        self.obs
            .metrics
            .observe("journal_records", COUNT_BOUNDS, records);
        self.obs
            .emit(now, &self.host, Some(id), || TraceKind::JournalAppend {
                phase: phase.to_string(),
                records,
            });
    }

    /// Retire a naplet's journal record and trace the shrink.
    fn journal_retire(&mut self, id: &NapletId, now: Millis) {
        if let Err(e) = self.journal.retire(id) {
            self.logf(now, format!("JOURNAL retire failed for {id}: {e}"));
        }
        let records = self.journal.len() as u64;
        self.obs
            .emit(now, &self.host, Some(id), || TraceKind::JournalRetire {
                records,
            });
    }

    /// Periodic compaction of dedup/bookkeeping tables under the
    /// retention window (satellite: these tables previously grew for
    /// the life of the server).
    fn sweep_retention(&mut self, now: Millis) {
        if now.since(self.last_sweep) < RETENTION_MS / 4 {
            return;
        }
        self.last_sweep = now;
        self.navigator.sweep(now, RETENTION_MS);
        // the durable copies of the same entries age out in lock-step
        let _ = self.journal.compact_seen(now, RETENTION_MS);
        self.messenger.compact(now, RETENTION_MS);
        self.locator.lapse(now, RETENTION_MS);
    }

    // =====================================================================
    // Directory: the locator's front doors, enacted
    // =====================================================================

    /// Keep exactly one `ReplTick` chain alive for the consensus core.
    fn arm_repl_tick(&mut self, out: &mut Vec<Output>) {
        out.extend(self.locator.arm_tick().map(|delay_ms| Output::Schedule {
            delay_ms,
            event: LocalEvent::ReplTick,
        }));
    }

    /// Mark the initial consensus tick as armed (the driver schedules
    /// the matching `ReplTick` itself when installing the server).
    /// Returns the tick interval, or `None` when this host is not a
    /// directory replica.
    pub fn arm_initial_repl_tick(&mut self) -> Option<u64> {
        self.locator.arm_tick()
    }

    /// Whether this host is a directory replica (diagnostics/tests).
    pub fn repl_core(&self) -> Option<&ReplicaCore> {
        self.locator.core()
    }

    /// File a registration or a removal at this host's shard — a frame
    /// off the wire or this host's own — and enact what became of it.
    /// `true` when it has landed already, leaving nothing to wait for.
    fn file(&mut self, wire: Wire, now: Millis, out: &mut Vec<Output>) -> bool {
        let appending = self.obs.profiling_enabled().then(std::time::Instant::now);
        let (filed, woke) = self.locator.file(&wire, now, &mut self.journal);
        let landed = matches!(filed, Filed::Landed);
        match filed {
            Filed::Landed => self.registered(wire, now, out),
            Filed::Proposed(rout) => {
                if let Some(started) = appending {
                    self.obs.metrics.observe(
                        "repl_append_us",
                        naplet_obs::HANDLER_BOUNDS_US,
                        started.elapsed().as_micros() as u64,
                    );
                }
                self.enact_repl(now, rout, out);
            }
            Filed::Forward(to) => {
                self.obs.metrics.incr("repl.forwarded", 1);
                out.push(Output::Send { to, wire });
            }
            // the registrar's RegisterTimeout machinery re-sends, and
            // the wake below makes sure an election is actually running
            Filed::NoLeader => self.obs.metrics.incr("repl.no_leader_drops", 1),
        }
        if woke {
            self.arm_repl_tick(out);
        }
        landed
    }

    /// What a registration that landed in this host's shard does — at
    /// once on a table, at commit on a replica: any movement is a sign
    /// of life for the home's lease and status views, and the registrar
    /// waiting on it gets its `DirAck`, inline when that is this host.
    /// A landed removal leaves nothing to do.
    fn registered(&mut self, wire: Wire, now: Millis, out: &mut Vec<Output>) {
        let Wire::DirRegister {
            id,
            host,
            event,
            ack_to,
            ..
        } = wire
        else {
            return;
        };
        self.leases.renew(&id, now);
        self.manager.note_movement(&id, event, &host, now);
        match ack_to {
            Some(to) if to != self.host => out.push(Output::Send {
                to,
                wire: Wire::DirAck { id },
            }),
            Some(_) => self.proceed_after_registration(&id, false, now, out),
            None => {}
        }
    }

    /// Turn a [`ReplOut`] into wire traffic, committed-op side effects,
    /// metrics and trace events.
    fn enact_repl(&mut self, now: Millis, rout: ReplOut, out: &mut Vec<Output>) {
        for (to, msg) in rout.msgs {
            out.push(Output::Send {
                to,
                wire: Wire::Repl { msg },
            });
        }
        for note in rout.notes {
            match note {
                ReplNote::ElectionStarted { term } => {
                    self.obs.metrics.incr("repl.elections", 1);
                    self.logf(now, format!("REPL campaigning for term {term}"));
                    self.obs
                        .emit(now, &self.host, None, || TraceKind::ReplElection { term });
                }
                ReplNote::LeaderElected { term } => {
                    self.obs.metrics.incr("repl.leader_changes", 1);
                    self.logf(now, format!("REPL won leadership of term {term}"));
                    let leader = self.host.clone();
                    self.obs
                        .emit(now, &self.host, None, || TraceKind::ReplLeader {
                            term,
                            leader,
                        });
                }
                ReplNote::LeaderChanged { term, leader } => {
                    self.obs.metrics.incr("repl.leader_changes", 1);
                    self.logf(now, format!("REPL leader of term {term} is {leader}"));
                    self.obs
                        .emit(now, &self.host, None, || TraceKind::ReplLeader {
                            term,
                            leader,
                        });
                }
                ReplNote::SnapshotInstalled { index } => {
                    self.obs.metrics.incr("repl.snapshots_installed", 1);
                    self.logf(now, format!("REPL snapshot installed through {index}"));
                    self.obs
                        .emit(now, &self.host, None, || TraceKind::ReplSnapshot { index });
                }
            }
        }
        let committing = (!rout.committed.is_empty() && self.obs.profiling_enabled())
            .then(std::time::Instant::now);
        for (index, op, lag) in rout.committed {
            self.obs.metrics.incr("repl.commits", 1);
            if let Some(lag) = lag {
                self.obs
                    .metrics
                    .observe("repl_commit_lag_ms", LATENCY_BOUNDS_MS, lag);
            }
            self.obs
                .emit(now, &self.host, op.subject(), || TraceKind::ReplCommit {
                    index,
                    op: op.label().to_string(),
                });
            // every replica keeps its liveness/status views fresh from
            // the committed stream; the leader also owes the ack it
            // held and the echo to a home outside the replica set
            if let Some((landed, echo)) = self.locator.committed(index, op) {
                self.registered(landed, now, out);
                out.extend(echo.map(|(to, wire)| Output::Send { to, wire }));
            }
        }
        if let Some(started) = committing {
            self.obs.metrics.observe(
                "repl_commit_us",
                naplet_obs::HANDLER_BOUNDS_US,
                started.elapsed().as_micros() as u64,
            );
        }
        if rout.rearm {
            self.arm_repl_tick(out);
        }
    }

    // =====================================================================
    // Entry points
    // =====================================================================

    /// Launch a locally created naplet on its journey. Must be called
    /// on the naplet's home server.
    pub fn launch(&mut self, naplet: Naplet, now: Millis) -> Vec<Output> {
        let mut out = Vec::new();
        let id = naplet.id().clone();
        self.manager.record_launch(id.clone(), &self.host, now);
        self.manager.record_arrival(&id, None, now);
        self.logf(now, format!("LAUNCH {id}"));
        if self.lease_policy.is_some() {
            // durable creation record first, so an orphan can be
            // re-dispatched even after this server itself crashes
            if let Err(e) = self.journal.record_creation(&id, &naplet) {
                self.logf(now, format!("JOURNAL creation failed for {id}: {e}"));
            }
            self.leases.grant(&id, now);
            self.arm_lease_timer(&id, &mut out);
        }
        self.continue_journey(naplet, Mailbox::new(), now, &mut out);
        out
    }

    /// Post a message on behalf of the owner/console at this host
    /// (remote control and owner→agent data). Routed through the full
    /// post-office protocol.
    pub fn owner_post(&mut self, to: NapletId, payload: Payload, now: Millis) -> Vec<Output> {
        let mut out = Vec::new();
        let seq = self.messenger.next_seq();
        let msg = Message {
            seq,
            from: Sender::Owner(self.host.clone()),
            to,
            sent_at: now,
            payload,
            forward_hops: 0,
        };
        self.route_message(msg, None, now, &mut out);
        out
    }

    /// Handle one input, producing effects for the driver.
    pub fn handle(&mut self, now: Millis, input: Input) -> Vec<Output> {
        // wall-clock profiling is opt-in (live daemons only): label
        // resolution and the clock read cost nothing when off, and the
        // simulation's deterministic exports never see these readings
        let profile = if self.obs.profiling_enabled() {
            Some((
                match &input {
                    Input::Wire { wire, .. } => wire.handler_key(),
                    Input::Local(ev) => ev.handler_key(),
                },
                std::time::Instant::now(),
            ))
        } else {
            None
        };
        self.sweep_retention(now);
        let mut out = Vec::new();
        match input {
            Input::Wire { from, wire } => self.handle_wire(now, &from, wire, &mut out),
            Input::Local(ev) => self.handle_local(now, ev, &mut out),
        }
        if let Some((key, started)) = profile {
            self.obs.metrics.observe(
                key,
                naplet_obs::HANDLER_BOUNDS_US,
                started.elapsed().as_micros() as u64,
            );
        }
        out
    }

    // =====================================================================
    // Wire handling
    // =====================================================================

    fn handle_wire(&mut self, now: Millis, from: &str, wire: Wire, out: &mut Vec<Output>) {
        match wire {
            Wire::LandingRequest {
                token,
                from_host,
                credential,
                naplet_id,
                attempt,
                ..
            } => {
                let (granted, reason) = match self.landing_decision(&credential) {
                    Ok(()) => (true, String::new()),
                    Err(e) => (false, e.to_string()),
                };
                let (verdict, counter) = if granted {
                    self.navigator.expect(naplet_id.clone(), now);
                    ("grant", "landing.granted")
                } else {
                    ("deny", "landing.denied")
                };
                self.logf(
                    now,
                    format!("LANDING {naplet_id} from {from_host} (attempt {attempt}): {verdict}"),
                );
                self.obs.metrics.incr(counter, 1);
                self.obs.emit(now, &self.host, Some(&naplet_id), || {
                    TraceKind::LandingDecision {
                        origin: from_host.clone(),
                        granted,
                        reason: reason.clone(),
                    }
                });
                out.push(Output::Send {
                    to: from_host,
                    wire: Wire::LandingReply {
                        token,
                        granted,
                        reason,
                    },
                });
            }
            Wire::LandingReply {
                token,
                granted,
                reason,
            } => {
                // stray: the transfer was already committed or failed, a
                // retried request was answered twice, or the reply is not
                // the destination's
                let Some(permit) = self.navigator.permit(token, from, granted) else {
                    self.logf(now, format!("stray LandingReply token {token}"));
                    return;
                };
                let (id, dest, started) = (&permit.id, &permit.dest, permit.started);
                self.obs.metrics.observe(
                    "landing_latency_ms",
                    LATENCY_BOUNDS_MS,
                    now.since(started),
                );
                self.obs
                    .emit(now, &self.host, Some(id), || TraceKind::PermitReceived {
                        dest: dest.clone(),
                        transfer_id: token,
                        granted,
                        started,
                    });
                match permit.verdict {
                    Verdict::Granted(transfer) => {
                        self.complete_departure(token, id, permit.mailbox, transfer, now, out);
                    }
                    Verdict::Denied(naplet) => {
                        self.logf(now, format!("LANDING denied for {id} at {dest}: {reason}"));
                        // itinerary exception: skip the refused visit
                        self.continue_journey(naplet, permit.mailbox, now, out);
                    }
                }
            }
            Wire::Transfer(envelope) => {
                let transfer_id = envelope.transfer_id;
                let id = envelope.naplet.id().clone();
                let fresh = self.navigator.admit_once(from, transfer_id, now);
                self.obs
                    .emit(now, &self.host, Some(&id), || TraceKind::TransferReceived {
                        origin: from.to_string(),
                        transfer_id,
                        duplicate: !fresh,
                    });
                // acknowledge every attempt — the previous ack may have
                // been the frame that was lost
                out.push(Output::Send {
                    to: from.to_string(),
                    wire: Wire::TransferAck {
                        transfer_id,
                        id: id.clone(),
                    },
                });
                if !fresh {
                    self.logf(
                        now,
                        format!(
                            "duplicate TRANSFER {id} (attempt {}): already admitted",
                            envelope.attempt
                        ),
                    );
                    return;
                }
                // durable dedup note: a crashed-and-recovered receiver
                // must still re-ack (not re-admit) a late retransmission
                if let Err(e) = self.journal.note_seen(from, transfer_id, now) {
                    self.logf(now, format!("JOURNAL seen failed for {id}: {e}"));
                }
                self.admit_arrival(envelope, Some(from), Mailbox::new(), now, out);
            }
            Wire::TransferAck { transfer_id, id } => {
                let Some(commit) = self.navigator.ack(transfer_id, from, &id) else {
                    self.logf(
                        now,
                        format!("stray TransferAck transfer {transfer_id} for {id} from {from}"),
                    );
                    return;
                };
                // commit: the destination has the agent — custody is
                // released and its journal record retires (the
                // destination journaled it before acking)
                let id = &commit.id;
                self.journal_retire(id, now);
                self.logf(now, format!("HANDOFF commit {id} (transfer {transfer_id})"));
                self.obs.metrics.incr("handoff.commits", 1);
                self.obs.metrics.observe(
                    "handoff_rtt_ms",
                    LATENCY_BOUNDS_MS,
                    now.since(commit.started),
                );
                self.obs.metrics.observe(
                    "transfer_attempts",
                    COUNT_BOUNDS,
                    u64::from(commit.attempts),
                );
                self.obs
                    .emit(now, &self.host, Some(id), || TraceKind::HandoffCommit {
                        dest: commit.dest.clone(),
                        transfer_id,
                        started: commit.started,
                        attempts: commit.attempts,
                    });
            }
            wire @ (Wire::DirRegister { .. } | Wire::DirRemove { .. }) => {
                self.file(wire, now, out);
            }
            Wire::DirAck { id } => self.proceed_after_registration(&id, false, now, out),
            Wire::DirQuery {
                token,
                id,
                reply_to,
            } => {
                let entry = self.locator.directory().lookup(&id);
                let entry = entry.map(|e| (e.host.clone(), e.event, e.at));
                out.push(Output::Send {
                    to: reply_to,
                    wire: Wire::DirReply { token, id, entry },
                });
            }
            Wire::DirReply { token, id, entry } => match self.locator.answered(token) {
                Some(Some(msg)) => {
                    self.post_located(msg, entry.map(|(host, ..)| host), now, out);
                }
                Some(None) => self.resolve_lease_probe(id, entry, now),
                None => {}
            },
            Wire::Repl { msg } => {
                let rout = self.locator.receive(now, from, msg, &mut self.journal);
                self.enact_repl(now, rout, out);
            }
            Wire::Post { msg, origin_host } => {
                self.deliver_or_chase(msg, origin_host, now, out);
            }
            Wire::PostConfirm {
                sender,
                seq,
                target,
                delivered_at,
            } => {
                self.messenger
                    .record_confirmation(sender, seq, &delivered_at, now);
                // the confirmation doubles as a fresh location hint
                self.cache_location(target, &delivered_at, now);
            }
            Wire::Report { id, body } => {
                self.logf(now, format!("REPORT from {id}"));
                self.leases.renew(&id, now);
                self.reports.push((id, body));
            }
            Wire::Notify {
                id,
                status,
                host,
                detail,
            } => {
                if !detail.is_empty() {
                    self.logf(now, format!("NOTIFY {id}: {status:?} at {host}: {detail}"));
                }
                self.note_status_at_home(&id, status, now);
                self.manager.update_status(&id, status, &host, now);
            }
            Wire::AppRequest {
                token,
                reply_to,
                tag,
                body,
            } => {
                let result: Result<Vec<u8>> = match self.app_handler.as_mut() {
                    Some(h) => h(&tag, &body),
                    None => Err(NapletError::Service(format!(
                        "no app handler at `{}`",
                        self.host
                    ))),
                };
                let encoded: std::result::Result<Vec<u8>, String> =
                    result.map_err(|e| e.to_string());
                let body = naplet_core::codec::to_bytes(&encoded).unwrap_or_default();
                out.push(Output::Send {
                    to: reply_to,
                    wire: Wire::AppReply { token, tag, body },
                });
            }
            Wire::AppReply { token, tag, body } => {
                // collected for local application code (e.g. the
                // centralized management baseline running at this host)
                self.app_replies.push((token, tag, body));
            }
            Wire::OpsRequest {
                token,
                reply_to,
                credential,
                read,
            } => {
                // the flight recorder and the history ring hold the same
                // internals as a status report (hosts, journeys,
                // failures), so every read rides the one privileged grant
                let (what, counters) = match read {
                    OpsRead::Status => ("STATUS probe", ("status.probes", "status.refused")),
                    OpsRead::Trace { .. } => ("TRACE read", ("trace.reads", "trace.refused")),
                    OpsRead::MetricsHistory { .. } => {
                        ("HISTORY read", ("history.reads", "history.refused"))
                    }
                };
                let page = self
                    .privileged_read(&credential, from, what, counters, now)
                    .then(|| match read {
                        OpsRead::Status => OpsPage::Status(self.status_report(now)),
                        OpsRead::Trace { from_seq, max } => {
                            let recorder = &self.obs.recorder;
                            OpsPage::Trace(recorder.segment(&self.host, from_seq, max as usize))
                        }
                        OpsRead::MetricsHistory { from_seq, max } => {
                            let history = &self.obs.history;
                            OpsPage::MetricsHistory(history.page(
                                &self.host,
                                from_seq,
                                max as usize,
                            ))
                        }
                    });
                out.push(Output::Send {
                    to: reply_to,
                    wire: Wire::OpsReply { token, page },
                });
            }
            Wire::OpsReply { token, page } => {
                // collected for the polling side (peer server, the
                // centralized manager, or an ops station)
                self.ops_replies.push((token, page));
            }
        }
    }

    /// The gate every ops-plane read passes: only credentials the
    /// policy matrix grants `PrivilegedService("status")` may read a
    /// server's internals. Counts the outcome under the matching one
    /// of `(granted, refused)` and logs a refusal as
    /// `"{what} from {from} refused"`.
    fn privileged_read(
        &mut self,
        credential: &naplet_core::credential::Credential,
        from: &str,
        what: &str,
        (granted, refused): (&str, &str),
        now: Millis,
    ) -> bool {
        let permission = Permission::PrivilegedService("status".into());
        match self.security.check(credential, permission) {
            Ok(()) => {
                self.obs.metrics.incr(granted, 1);
                true
            }
            Err(e) => {
                self.obs.metrics.incr(refused, 1);
                self.logf(now, format!("{what} from {from} refused: {e}"));
                false
            }
        }
    }

    // =====================================================================
    // Local events
    // =====================================================================

    fn handle_local(&mut self, now: Millis, ev: LocalEvent, out: &mut Vec<Output>) {
        match ev {
            LocalEvent::VisitDone { id } => {
                let Some(entry) = self.monitor.take(&id) else {
                    return;
                };
                match entry.state {
                    RunState::Suspended => {
                        // stay parked; Resume reschedules
                        self.monitor.restore(entry);
                    }
                    _ => {
                        let mut naplet = entry.naplet;
                        let mailbox = entry.mailbox;
                        naplet.nav_log.record_departure(now);
                        // the visit is over: fold it into the monitor's
                        // cumulative per-naplet resource accounting
                        let state_bytes = naplet.state.deep_size();
                        let Meter { gas, msg_bytes } = entry.meter;
                        self.monitor.account_visit(&id, gas, msg_bytes, state_bytes);
                        let arrived_at = entry.arrived_at;
                        let dwell = now.since(arrived_at);
                        self.obs
                            .metrics
                            .observe("visit_dwell_ms", LATENCY_BOUNDS_MS, dwell);
                        let epoch = naplet.nav_log.visit_epoch();
                        self.obs
                            .emit(now, &self.host, Some(&id), || TraceKind::VisitEnd {
                                started: arrived_at,
                                epoch,
                                gas,
                                msg_bytes,
                            });
                        self.continue_journey(naplet, mailbox, now, out);
                    }
                }
            }
            LocalEvent::CodeReady { id } => {
                if let Some(e) = self.monitor.get_mut(&id) {
                    if e.state == RunState::AwaitingCode {
                        e.state = RunState::Runnable;
                        self.execute_visit(&id, now, out);
                    }
                }
            }
            LocalEvent::TransferTimeout {
                transfer_id,
                attempt,
            } => match self.navigator.due(transfer_id, attempt, now) {
                Due::Stale => {}
                Due::Retry { id, phase, frame } => {
                    // keep the journaled attempt in step so a recovered
                    // origin picks up the retry budget where it left off
                    self.journal_pending(transfer_id, now);
                    let (dest, attempt) = (&frame.to, frame.attempt);
                    self.logf(now, format!("RETRY {id} -> {dest} (attempt {attempt})"));
                    self.obs.metrics.incr("handoff.retransmits", 1);
                    self.obs
                        .emit(now, &self.host, Some(&id), || TraceKind::Retransmit {
                            dest: dest.clone(),
                            transfer_id,
                            attempt,
                            phase: phase.to_string(),
                        });
                    self.send_attempt(transfer_id, frame, out);
                }
                Due::Failed(failed) => self.fail_migration(transfer_id, failed, now, out),
            },
            LocalEvent::RegisterTimeout { id, attempt } => {
                let waiting = self
                    .monitor
                    .get_mut(&id)
                    .is_some_and(|e| e.state == RunState::AwaitingArrivalAck);
                if !waiting {
                    return; // acked (or gone) in the meantime
                }
                if attempt >= self.retry.max_retries {
                    // the directory holder is unreachable: executing
                    // with a possibly stale directory entry beats
                    // stranding the agent — the forwarding chase and
                    // delivery confirmations repair stale locations
                    self.logf(
                        now,
                        format!("REGISTER unacked for {id} after {attempt} attempts: proceeding"),
                    );
                    self.proceed_after_registration(&id, true, now, out);
                    return;
                }
                // the replica we tried may be the dead node that
                // forced this retry
                self.locator.rotate();
                let next = attempt + 1;
                self.logf(now, format!("RETRY register {id} (attempt {next})"));
                self.register_movement(&id, DirEvent::Arrival, Some(next), now, out);
            }
            LocalEvent::LeaseCheck { id } => {
                self.check_lease(&id, now, out);
            }
            LocalEvent::ReplTick => {
                let rout = self.locator.tick(now, &mut self.journal);
                self.enact_repl(now, rout, out);
            }
            LocalEvent::PostTimeout {
                sender,
                seq,
                attempt,
            } => {
                let Some(rec) = self.messenger.unconfirmed(&sender, seq) else {
                    return; // confirmed or abandoned in the meantime
                };
                if rec.attempts != attempt {
                    return; // stale timer from an earlier attempt
                }
                if attempt >= self.retry.max_retries {
                    self.messenger.give_up(&sender, seq);
                    self.locator.unpark(&sender, seq);
                    self.logf(
                        now,
                        format!("REDELIVERY exhausted for message {seq} from {sender:?}"),
                    );
                    return;
                }
                let Some(msg) = self.messenger.begin_redelivery(&sender, seq) else {
                    return;
                };
                // whatever hint routed the lost attempt is suspect —
                // drop the cached location and re-resolve from scratch
                self.locator.invalidate(&msg.to);
                let next = attempt + 1;
                self.logf(
                    now,
                    format!("REDELIVER message {seq} to {} (attempt {next})", msg.to),
                );
                self.obs.metrics.incr("post.redeliveries", 1);
                self.obs.emit(now, &self.host, Some(&msg.to), || {
                    TraceKind::PostRedeliver { seq, attempt: next }
                });
                out.push(Output::Schedule {
                    delay_ms: self.retry.jittered_backoff_ms(seq ^ 0x504f_5354, next),
                    event: LocalEvent::PostTimeout {
                        sender,
                        seq,
                        attempt: next,
                    },
                });
                self.route_message(msg, None, now, out);
            }
        }
    }

    // =====================================================================
    // Navigator: migration protocol
    // =====================================================================

    fn landing_decision(&self, credential: &naplet_core::credential::Credential) -> Result<()> {
        self.security.verify(credential)?;
        self.security.check(credential, Permission::Landing)?;
        if let Some(cap) = self.max_residents {
            if self.monitor.len() >= cap {
                return Err(NapletError::ResourceExhausted {
                    resource: "residents".into(),
                    detail: format!("server full ({cap})"),
                });
            }
        }
        Ok(())
    }

    /// Drive the itinerary forward from the current host until the
    /// naplet migrates, parks, or finishes.
    fn continue_journey(
        &mut self,
        mut naplet: Naplet,
        mut mailbox: Mailbox,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        loop {
            // snapshot the traversal state before deciding the next
            // step, so a permanently failed migration can rewind and
            // re-decide with the destination marked unreachable
            let checkpoint = naplet.cursor().clone();
            match naplet.advance() {
                Step::Visit { host, action } => {
                    if host == self.host {
                        // a visit to the current host needs no
                        // migration; unread mail stays in the naplet's
                        // custody and rides straight into the new entry
                        let envelope = TransferEnvelope {
                            naplet: naplet.into(),
                            action,
                            transfer_id: 0, // same-host: no handoff protocol
                            attempt: 1,
                        };
                        self.admit_arrival(envelope, None, mailbox, now, out);
                    } else {
                        self.begin_migration(naplet, mailbox, action, host, checkpoint, now, out);
                    }
                    return;
                }
                Step::Fork { clones } => {
                    if let Err(e) = self.security.check(naplet.credential(), Permission::Clone) {
                        self.logf(now, format!("CLONE denied for {}: {e}", naplet.id()));
                        continue; // parent continues; branches abandoned
                    }
                    for branch in clones {
                        let clone = naplet.clone_for_branch(branch, &self.host);
                        let cid = clone.id().clone();
                        self.manager.record_launch(cid.clone(), &self.host, now);
                        self.manager.record_arrival(&cid, None, now);
                        self.logf(now, format!("CLONE {cid}"));
                        self.continue_journey(clone, Mailbox::new(), now, out);
                    }
                    // parent keeps advancing in this loop
                }
                Step::Action(action) => {
                    // between visits: no monitor entry, so a fresh meter
                    let (what, mut meter) = (What::Action(&action), Meter::default());
                    let ran = self.run_agent(&mut naplet, &mut mailbox, &mut meter, what, now, out);
                    if let Err(e) = ran {
                        let id = naplet.id();
                        self.logf(now, format!("action {action:?} failed for {id}: {e}"));
                    }
                }
                Step::Done => {
                    // a VM agent parked at travel_next learns the
                    // journey is over (nil) and gets a final slice to
                    // report/clean up before destruction
                    let (what, mut meter) = (What::FinalSlice, Meter::default());
                    let ran = self.run_agent(&mut naplet, &mut mailbox, &mut meter, what, now, out);
                    if let Err(e) = ran {
                        let id = naplet.id();
                        self.logf(now, format!("final VM slice failed for {id}: {e}"));
                    }
                    self.finish_journey(naplet, now, "completed", true, out);
                    return;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn begin_migration(
        &mut self,
        naplet: Naplet,
        mailbox: Mailbox,
        action: Option<ActionSpec>,
        dest: String,
        checkpoint: Cursor,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        if let Err(e) = self.security.check(naplet.credential(), Permission::Launch) {
            self.logf(now, format!("LAUNCH denied for {}: {e}", naplet.id()));
            // skip this visit entirely
            self.continue_journey(naplet, mailbox, now, out);
            return;
        }
        let transfer_id = self.token();
        let id = naplet.id().clone();
        let naplet = SharedNaplet::new(naplet);
        let request =
            self.navigator
                .open(transfer_id, naplet, mailbox, action, dest, checkpoint, now);
        // journal before the first frame leaves: a crash here resumes
        // the handoff instead of losing the departing agent
        self.journal_pending(transfer_id, now);
        self.obs
            .emit(now, &self.host, Some(&id), || TraceKind::LandingRequested {
                dest: request.to.clone(),
                transfer_id,
            });
        self.send_attempt(transfer_id, request, out);
    }

    /// Put one attempt of a handoff frame on the wire and arm the
    /// acknowledgement timer behind it (shared by both phases).
    fn send_attempt(&self, transfer_id: u64, frame: Attempt, out: &mut Vec<Output>) {
        out.push(Output::Send {
            to: frame.to,
            wire: frame.wire,
        });
        out.push(Output::Schedule {
            delay_ms: frame.timeout_ms,
            event: LocalEvent::TransferTimeout {
                transfer_id,
                attempt: frame.attempt,
            },
        });
    }

    /// Arm the acknowledgement timer for an arrival registration; keyed
    /// on the naplet id so concurrent arrivals jitter apart.
    fn arm_register_timer(&self, id: &NapletId, attempt: u32, out: &mut Vec<Output>) {
        let key = crate::retry::naplet_jitter_key(id);
        out.push(Output::Schedule {
            delay_ms: self.retry.jittered_backoff_ms(key, attempt),
            event: LocalEvent::RegisterTimeout {
                id: id.clone(),
                attempt,
            },
        });
    }

    /// The landing permit arrived: perform the one-time departure side
    /// effects and send the agent. The navigator retains it until the
    /// destination acknowledges; `fail_migration` rolls these back.
    fn complete_departure(
        &mut self,
        transfer_id: u64,
        id: &NapletId,
        mut mailbox: Mailbox,
        transfer: Attempt,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let dest = &transfer.to;
        self.manager.record_departure(id, dest, now);
        self.resources.release(id);
        // DEPART registration (no ack needed, paper §4.1)
        self.register_movement(id, DirEvent::Departure, None, now, out);
        self.logf(now, format!("DEPART {id} -> {dest}"));
        // forward any early-stashed messages for it towards the
        // destination so the chase can catch up, and likewise any
        // unread mailbox messages — the post office keeps custody of
        // undelivered mail rather than dropping it with the mailbox
        for (mut m, origin) in self.messenger.drain_early(id) {
            m.forward_hops += 1;
            self.send_post_from(m, dest, origin, now, out);
        }
        for mut m in mailbox.drain() {
            // unread mail leaves local custody: forget its delivery so
            // the chase can deliver it here again on a future revisit
            self.messenger.forget_delivery(&m.from, m.seq, m.sent_at);
            m.forward_hops += 1;
            self.send_post(m, dest, now, out);
        }
        self.obs
            .emit(now, &self.host, Some(id), || TraceKind::TransferSent {
                dest: dest.to_string(),
                transfer_id,
            });
        // advance the journaled phase: past the permit, transfer sent
        self.journal_pending(transfer_id, now);
        self.send_attempt(transfer_id, transfer, out);
    }

    /// All retries exhausted: the navigator rewound the itinerary to
    /// the pre-departure checkpoint and recorded the failure; either
    /// fall back to another branch (`Alt`) or park the naplet here.
    fn fail_migration(
        &mut self,
        transfer_id: u64,
        failed: Failed,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let (id, dest, attempts) = (failed.agent.id().clone(), &failed.dest, failed.attempts);
        let reason = failed.reason;
        self.logf(
            now,
            format!(
                "HANDOFF failed {id} -> {dest} after {attempts} attempts \
                 ({reason}; transfer {transfer_id})"
            ),
        );
        self.obs.metrics.incr("handoff.failures", 1);
        self.obs
            .emit(now, &self.host, Some(&id), || TraceKind::HandoffFailed {
                dest: dest.clone(),
                transfer_id,
                attempts,
                reason: reason.to_string(),
            });
        if failed.departed {
            // departure bookkeeping already ran optimistically when the
            // permit arrived; the agent is back in our custody now
            self.manager.record_arrival(&id, None, now);
        }
        if failed.park {
            self.park(failed.agent, failed.mailbox, dest, attempts, now, out);
        } else {
            self.continue_journey(failed.agent, failed.mailbox, now, out);
        }
    }

    /// Strand the naplet at this server after an unrecoverable
    /// migration failure: re-register it here, notify its home with
    /// [`NapletStatus::Parked`] and keep it for owner recovery. Unread
    /// mail returns to the special mailbox rather than being dropped.
    fn park(
        &mut self,
        naplet: Naplet,
        mut mailbox: Mailbox,
        dest: &str,
        attempts: u32,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let id = naplet.id().clone();
        self.logf(
            now,
            format!("PARK {id}: {dest} unreachable after {attempts} attempts"),
        );
        self.obs.metrics.incr("handoff.parked", 1);
        self.obs
            .emit(now, &self.host, Some(&id), || TraceKind::Parked {
                dest: dest.to_string(),
                attempts,
            });
        for m in mailbox.drain() {
            self.messenger.forget_delivery(&m.from, m.seq, m.sent_at);
            self.messenger.stash_early(m, &self.host);
        }
        self.note_special_mailbox_depth();
        // make the parked naplet locatable here again
        self.register_movement(&id, DirEvent::Arrival, None, now, out);
        self.notify_home(
            &id,
            NapletStatus::Parked,
            &format!("destination {dest} unreachable"),
            now,
            out,
        );
        // a parked agent held for owner recovery must survive a crash
        // of the server holding it
        self.journal_naplet(&naplet, &JournalPhase::Parked, now);
        self.navigator.parked.insert(id, naplet);
    }

    /// Outbound migrations currently awaiting a permit or an
    /// acknowledgement (diagnostics/tests).
    pub fn pending_transfer_count(&self) -> usize {
        self.navigator.pending_count()
    }

    /// Assemble this server's health probe report: a deterministic,
    /// read-only aggregation of the monitor's run table, the post
    /// office's queues, the journal's un-retired lag, the lease table
    /// and the locator's cache counters. Sorted collections only, so
    /// the codec encoding of the report is byte-stable. No new locks,
    /// no hot-path bookkeeping — probing costs what a diagnostics
    /// dump costs.
    pub fn status_report(&self, now: Millis) -> StatusReport {
        let mut residents = Vec::new();
        let mut mailbox_depth = 0u64;
        for id in self.monitor.resident() {
            let Some(entry) = self.monitor.get(&id) else {
                continue;
            };
            let usage = self
                .monitor
                .usage()
                .get(&id.to_string())
                .copied()
                .unwrap_or_default();
            let mailbox = entry.mailbox.len() as u64;
            mailbox_depth += mailbox;
            residents.push(ResidentStatus {
                id: id.to_string(),
                visit_epoch: entry.naplet.nav_log.visit_epoch(),
                dwell_ms: now.since(entry.arrived_at),
                mailbox,
                visits: usage.visits,
                gas: usage.gas,
                msg_bytes: usage.msg_bytes,
                peak_state_bytes: usage.peak_state_bytes,
            });
        }
        let (journal_entries, journal_bytes) = self.journal.lag();
        let mut report = StatusReport {
            host: self.host.clone(),
            at: now,
            residents,
            mailbox_depth,
            special_mailbox_depth: self.messenger.early_waiting() as u64,
            journal_entries,
            journal_bytes,
            leases_held: self.leases.held() as u64,
            leases_expired: self.leases.expired,
            leases_redispatched: self.leases.redispatched,
            leases_lost: self.leases.lost,
            locator_entries: self.locator.len() as u64,
            locator_hits: self.locator.hits,
            locator_misses: self.locator.misses,
            locator_stale_hits: self.locator.stale_hits,
            locator_evictions: self.locator.evictions,
            locator_oldest_age_ms: self.locator.oldest_hint_age(now),
            outstanding_posts: self.messenger.outstanding_count() as u64,
            repl: self.locator.core().map(|r| crate::status::ReplStatus {
                role: r.role().name().to_string(),
                term: r.term(),
                commit: r.commit_index(),
                last_index: r.last_index(),
                leader: r.leader_hint().map(str::to_string),
                entries: r.state.len() as u64,
            }),
            ..StatusReport::default()
        };
        self.navigator.fill_status(&mut report);
        report
    }

    /// Arrival processing (local continuation or network transfer).
    /// `carry` is mail already in the naplet's custody (same-host
    /// continuations); it bypasses the delivery-dedup check because it
    /// was delivered once already.
    fn admit_arrival(
        &mut self,
        envelope: TransferEnvelope,
        from: Option<&str>,
        mut carry: Mailbox,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let TransferEnvelope { naplet, action, .. } = envelope;
        let id = naplet.id().clone();
        if let Err(e) = self.security.verify_naplet(&naplet) {
            self.logf(now, format!("ARRIVAL rejected for {id}: {e}"));
            self.notify_home(&id, NapletStatus::Destroyed, &e.to_string(), now, out);
            return;
        }
        self.navigator.arrived(&id);
        if from.is_some() {
            self.manager.record_arrival(&id, from, now);
        }
        self.logf(now, format!("ARRIVAL {id}"));
        // durable before the TransferAck (already queued) can commit
        // the origin's release: from here this server owns the agent.
        // The record is the image as received — the handle's own bytes
        // off the frame, nothing encoded (a same-host visit encodes
        // here) — with no arrival stamped, so `applied_epoch`, the
        // image's own epoch, is one behind the visit about to open;
        // `recover` re-stamps from the record's time.
        let phase = JournalPhase::Resident {
            applied_epoch: naplet.nav_log.visit_epoch(),
            action: action.clone(),
        };
        self.journal_image(&id, naplet.wire_bytes(), &phase, now);
        // sole owner on the receiving side (the origin's retained copy
        // lives in another process/server), so this is move-or-clone
        let mut naplet = naplet.into_owned();
        self.stamp_arrival(&mut naplet, now);

        // the new entry's mail: what the naplet already held in custody
        // rides straight back in, then any messages that arrived before
        // the naplet (§4.2 case 3), each confirmed to its origin
        // (duplicates too — the earlier confirmation may be the frame
        // that was lost). User messages go to the mailbox, system
        // messages interrupt after the arrival bookkeeping below.
        let (mut mail, mut pending_controls) = (Vec::new(), Vec::new());
        let mut sort = |m: Message| match &m.payload {
            Payload::System(verb) => pending_controls.push(verb.clone()),
            Payload::User(_) => mail.push(m),
        };
        carry.drain().into_iter().for_each(&mut sort);
        for (m, origin) in self.messenger.drain_early(&id) {
            let (sender, seq) = (m.from.clone(), m.seq);
            // redelivered copies may have been stashed more than once
            if self
                .messenger
                .record_delivery(sender.clone(), seq, m.sent_at)
            {
                sort(m);
            }
            self.confirm_delivery(origin, sender, seq, id.clone(), now, out);
        }
        let state = RunState::AwaitingArrivalAck;
        let entry = self.monitor.admit(naplet, action, state, now);
        for m in mail {
            entry.mailbox.deposit(m);
        }
        self.obs
            .metrics
            .gauge_max("mailbox_depth", entry.mailbox.len() as u64);

        // ARRIVAL registration: execution postponed until acknowledged
        self.register_movement(&id, DirEvent::Arrival, Some(1), now, out);

        // early control messages now interrupt the just-arrived naplet
        for verb in pending_controls {
            self.apply_control(&id, &verb, now, out);
        }
    }

    /// Open the visit on the live copy: stamp the arrival in the
    /// navigation log, then let the host inspect/update the agent's
    /// state under its protection modes. Admission runs this after
    /// journaling the image as received and recovery runs it again on
    /// that record (at the record's time), so the hook may see one
    /// arrival twice and must be deterministic.
    fn stamp_arrival(&mut self, naplet: &mut Naplet, at: Millis) {
        naplet.nav_log.record_arrival(&self.host, at);
        if let Some(hook) = &mut self.state_hook {
            let mut view = naplet.state.server_view(&self.host);
            hook(&mut view);
        }
    }

    /// Register a movement of `id` at this host with whoever holds its
    /// directory entry: another host gets a `DirRegister`, this host's
    /// own shard takes the same frame through [`file`](Self::file).
    ///
    /// `gate: Some(attempt)` is an arrival whose execution waits in
    /// `AwaitingArrivalAck` for the acknowledgement: the registration
    /// asks for a `DirAck` and is retried like any other acked frame —
    /// a lost `DirRegister`/`DirAck`, or a replica set with no leader
    /// yet, must not strand the agent. Where nothing can be lost (this
    /// host's table, no directory at all) the gate opens at once.
    /// `None` is fire-and-forget: departures, parking, and recovery of
    /// visits that already ran, where only the directory entry needs
    /// restoring.
    fn register_movement(
        &mut self,
        id: &NapletId,
        event: DirEvent,
        gate: Option<u32>,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let to = match self.locator.holder(id) {
            Holder::Nowhere => {
                if gate.is_some() {
                    self.proceed_after_registration(id, false, now, out);
                }
                return;
            }
            Holder::Here => None,
            Holder::At(host) => Some(host.to_string()),
        };
        let wire = Wire::DirRegister {
            id: id.clone(),
            host: self.host.clone(),
            event,
            ack_to: gate.map(|_| self.host.clone()),
            attempt: gate.unwrap_or(1),
        };
        let landed = match to {
            Some(to) => {
                out.push(Output::Send { to, wire });
                false
            }
            None => self.file(wire, now, out),
        };
        if let Some(attempt) = gate.filter(|_| !landed) {
            if attempt == 1 {
                // nothing above moved the answer to "who holds `id`"
                self.obs
                    .emit(now, &self.host, Some(id), || TraceKind::RegisterGated {
                        holder: match self.locator.holder(id) {
                            Holder::At(host) => host.to_string(),
                            _ => self.host.clone(),
                        },
                    });
            }
            self.arm_register_timer(id, attempt, out);
        }
    }

    /// The arrival registration of `id` is acknowledged (or `forced`
    /// open because the directory holder stayed silent past the retry
    /// budget): the naplet waiting behind the gate fetches code if
    /// cold, then executes. One that no longer waits — acked already,
    /// or gone — is left alone.
    fn proceed_after_registration(
        &mut self,
        id: &NapletId,
        forced: bool,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let waiting = self.monitor.get_mut(id);
        let Some(entry) = waiting.filter(|e| e.state == RunState::AwaitingArrivalAck) else {
            return;
        };
        let started = entry.arrived_at;
        self.obs
            .emit(now, &self.host, Some(id), || TraceKind::RegisterAcked {
                started,
                forced,
            });
        let naplet = &entry.naplet;
        match naplet.kind() {
            AgentKind::Native => {
                let codebase = naplet.codebase().to_string();
                let home = naplet.home().to_string();
                if self.code_cache.is_cached(&codebase) {
                    entry.state = RunState::Runnable;
                    self.execute_visit(id, now, out);
                } else {
                    match self.code_cache.load(&self.codebase, &codebase) {
                        Ok(bytes) => {
                            entry.state = RunState::AwaitingCode;
                            out.push(Output::FetchCode {
                                from: home,
                                bytes,
                                id: id.clone(),
                            });
                        }
                        Err(e) => {
                            self.destroy_resident(id, &format!("code load failed: {e}"), now, out);
                        }
                    }
                }
            }
            AgentKind::Vm(_) => {
                entry.state = RunState::Runnable;
                self.execute_visit(id, now, out);
            }
        }
    }

    // =====================================================================
    // Execution
    // =====================================================================

    /// Run one piece of agent code in the monitor's sandbox and route
    /// what it asked for. Every execution on this host passes here.
    fn run_agent(
        &mut self,
        naplet: &mut Naplet,
        mailbox: &mut Mailbox,
        meter: &mut Meter,
        what: What<'_>,
        now: Millis,
        out: &mut Vec<Output>,
    ) -> Result<ExecOutcome> {
        let sandbox = Sandbox {
            host: &self.host,
            now,
            co_residents: self.monitor.len(),
            resources: &mut self.resources,
            security: &self.security,
            codebase: &self.codebase,
            actions: &self.actions,
            policy: self.monitor.policy(),
        };
        let (result, effects) = sandbox.run(naplet, mailbox, meter, what);
        self.route_effects(naplet, effects, now, out);
        result
    }

    fn execute_visit(&mut self, id: &NapletId, now: Millis, out: &mut Vec<Output>) {
        let Some(mut entry) = self.monitor.take(id) else {
            return;
        };
        let action = entry.pending_action.take();
        let result = self.run_agent(
            &mut entry.naplet,
            &mut entry.mailbox,
            &mut entry.meter,
            What::Visit(action.as_ref()),
            now,
            out,
        );
        match result {
            Ok(outcome) if outcome.program_done => {
                // VM program finished: journey ends here
                let done_at = now.plus(outcome.dwell_ms);
                self.finish_journey(entry.naplet, done_at, "completed", true, out);
            }
            Ok(outcome) => {
                entry.state = RunState::VisitDone;
                // the visit's effects just escaped (messages,
                // reports): ratchet the journaled epoch so a
                // recovery replay resumes at the visit's end
                // instead of running it again
                let epoch = entry.naplet.nav_log.visit_epoch();
                self.journal_naplet(
                    &entry.naplet,
                    &JournalPhase::Resident {
                        applied_epoch: epoch,
                        action: None,
                    },
                    now,
                );
                self.monitor.restore(entry);
                out.push(Output::Schedule {
                    delay_ms: outcome.dwell_ms,
                    event: LocalEvent::VisitDone { id: id.clone() },
                });
            }
            Err(e) => {
                self.monitor.kills.push((id.clone(), e.kind().to_string()));
                self.monitor.restore(entry);
                self.destroy_resident(id, &e.to_string(), now, out);
            }
        }
    }

    // =====================================================================
    // Effects: messages, reports, logs
    // =====================================================================

    fn route_effects(
        &mut self,
        naplet: &Naplet,
        effects: Effects,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let (id, home) = (naplet.id(), naplet.home());
        for line in effects.logs {
            self.logf(now, line);
        }
        for body in effects.reports {
            if home == self.host {
                // a naplet reporting at its own home is a sign of life
                self.leases.renew(id, now);
                self.reports.push((id.clone(), body));
            } else {
                out.push(Output::Send {
                    to: home.to_string(),
                    wire: Wire::Report {
                        id: id.clone(),
                        body,
                    },
                });
            }
        }
        for (to, hint, body) in effects.posts {
            let seq = self.messenger.next_seq();
            let msg = Message::user(seq, Sender::Naplet(id.clone()), to, now, body);
            self.route_message(msg, Some(&hint), now, out);
        }
    }

    // =====================================================================
    // Post office routing (paper §4.2)
    // =====================================================================

    fn send_post(&mut self, msg: Message, to_host: &str, now: Millis, out: &mut Vec<Output>) {
        let origin = self.host.clone();
        self.send_post_from(msg, to_host, origin, now, out);
    }

    /// Like [`send_post`](Self::send_post), but preserving a message's
    /// original confirmation destination when this server is merely
    /// relaying (e.g. forwarding early-stashed mail after a departure).
    fn send_post_from(
        &mut self,
        msg: Message,
        to_host: &str,
        origin: String,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        if to_host == self.host {
            // route internally without the wire
            let mut tmp = Vec::new();
            self.deliver_or_chase(msg, origin, now, &mut tmp);
            out.extend(tmp);
        } else {
            out.push(Output::Send {
                to: to_host.to_string(),
                wire: Wire::Post {
                    msg,
                    origin_host: origin,
                },
            });
        }
    }

    /// Install a location hint, surfacing capacity evictions to the
    /// space-wide metrics registry (`locator_cache_evictions`).
    fn cache_location(&mut self, id: NapletId, host: &str, now: Millis) {
        if self.locator.put(id, host, now) {
            self.obs.metrics.incr("locator_cache_evictions", 1);
        }
    }

    /// First-hop routing for a locally posted message. Also the
    /// redelivery entry point: the origin retains a copy and arms a
    /// timer, so a message lost in flight is re-routed until its
    /// delivery confirmation arrives (or retries run out).
    fn route_message(
        &mut self,
        msg: Message,
        hint: Option<&str>,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let target = msg.to.clone();
        if self.messenger.track_outstanding(&msg, now) {
            out.push(Output::Schedule {
                delay_ms: self.retry.jittered_backoff_ms(msg.seq ^ 0x504f_5354, 1),
                event: LocalEvent::PostTimeout {
                    sender: msg.from.clone(),
                    seq: msg.seq,
                    attempt: 1,
                },
            });
        }
        // resident here?
        if self.monitor.get(&target).is_some() {
            let origin = self.host.clone();
            self.deliver_or_chase(msg, origin, now, out);
            return;
        }
        // locator cache
        if let Some(loc) = self.locator.get(&target) {
            let host = loc.host.clone();
            self.obs.metrics.incr("locator_cache_hits", 1);
            self.send_post(msg, &host, now, out);
            return;
        }
        // directory query, or trace/hint
        match self.locator.holder(&target) {
            Holder::At(holder) => {
                let holder = holder.to_string();
                self.query_directory(holder, target, Some(msg), now, out);
            }
            Holder::Here => {
                let found = self.locator.directory().lookup(&target);
                let host = found.map(|e| e.host.clone());
                self.post_located(msg, host, now, out);
            }
            Holder::Nowhere => {
                // forwarding mode: local trace, then the address-book hint
                match self.manager.trace(&target) {
                    Some(Some(next)) => {
                        let next = next.to_string();
                        self.send_post(msg, &next, now, out);
                    }
                    Some(None) => self.messenger.stash_early(msg, &self.host),
                    None => match hint {
                        Some(h) if h != self.host => {
                            let h = h.to_string();
                            self.send_post(msg, &h, now, out);
                        }
                        _ => self.messenger.stash_early(msg, &self.host),
                    },
                }
            }
        }
    }

    /// Ask `holder` where `id` is under a fresh token (returned),
    /// parking what waits on the answer: a message to post, or `None`
    /// for a lease probe.
    fn query_directory(
        &mut self,
        holder: String,
        id: NapletId,
        waiting: Option<Message>,
        now: Millis,
        out: &mut Vec<Output>,
    ) -> u64 {
        let token = self.token();
        let wire = self.locator.ask(token, id, waiting, now);
        out.push(Output::Send { to: holder, wire });
        token
    }

    /// The directory — this host's shard or a `DirReply` — answered
    /// for a message's target: cache the entry and post there. A naplet
    /// unknown to the directory may not have landed anywhere yet; the
    /// message waits in its home server's special mailbox (case 3).
    fn post_located(
        &mut self,
        msg: Message,
        host: Option<String>,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        match host {
            Some(host) => {
                self.cache_location(msg.to.clone(), &host, now);
                self.send_post(msg, &host, now, out);
            }
            None if msg.to.home() == self.host => self.messenger.stash_early(msg, &self.host),
            None => {
                let home = msg.to.home().to_string();
                self.send_post(msg, &home, now, out);
            }
        }
    }

    /// Message `seq` from `sender` reached `target` here: confirm it to
    /// the host that posted it, or record the confirmation if that is
    /// this host.
    fn confirm_delivery(
        &mut self,
        origin: String,
        sender: Sender,
        seq: u64,
        target: NapletId,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        if origin == self.host {
            self.messenger
                .record_confirmation(sender, seq, &self.host, now);
        } else {
            out.push(Output::Send {
                to: origin,
                wire: Wire::PostConfirm {
                    sender,
                    seq,
                    target,
                    delivered_at: self.host.clone(),
                },
            });
        }
    }

    /// §4.2 delivery cases at a receiving messenger.
    fn deliver_or_chase(
        &mut self,
        mut msg: Message,
        origin_host: String,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let target = msg.to.clone();
        if self.monitor.get(&target).is_some() {
            // case 1: resident — deliver and confirm; a retransmitted
            // duplicate is re-confirmed (the earlier confirmation may
            // be what was lost) but never deposited twice
            let sender = msg.from.clone();
            let seq = msg.seq;
            let fresh = self
                .messenger
                .record_delivery(sender.clone(), seq, msg.sent_at);
            if fresh {
                match &msg.payload {
                    Payload::System(verb) => {
                        let verb = verb.clone();
                        self.apply_control(&target, &verb, now, out);
                    }
                    Payload::User(_) => {
                        if let Some(e) = self.monitor.get_mut(&target) {
                            e.mailbox.deposit(msg);
                            let depth = e.mailbox.len() as u64;
                            self.obs.metrics.gauge_max("mailbox_depth", depth);
                        }
                    }
                }
            } else {
                self.logf(now, format!("duplicate message {seq} for {target}"));
            }
            self.confirm_delivery(origin_host, sender, seq, target, now, out);
            return;
        }
        // not resident — but if its landing was granted here and the
        // transfer is still in flight, wait for it (case 3) rather
        // than chasing a stale trail
        if self.navigator.expecting(&target, now) {
            self.messenger.stash_early(msg, &origin_host);
            self.note_special_mailbox_depth();
            return;
        }
        match self.manager.trace(&target) {
            Some(Some(next)) => {
                // case 2: it moved on — forward the chase, and refresh
                // our own cache with the footprint's fresher pointer.
                // Whatever hint routed the chase here was stale.
                let next = next.to_string();
                self.locator.note_stale();
                self.obs.metrics.incr("locator_cache_stale_hits", 1);
                self.cache_location(target.clone(), &next, now);
                if self.messenger.may_forward(&msg) {
                    msg.forward_hops += 1;
                    self.obs.metrics.incr("post.forward_hops", 1);
                    let (seq, hops) = (msg.seq, msg.forward_hops);
                    self.obs
                        .emit(now, &self.host, Some(&target), || TraceKind::ForwardHop {
                            to: next.clone(),
                            seq,
                            hops,
                        });
                    out.push(Output::Send {
                        to: next,
                        wire: Wire::Post { msg, origin_host },
                    });
                } else {
                    self.logf(now, format!("undeliverable message to {target} (cap)"));
                }
            }
            _ => {
                // case 3: no record — it may not have arrived yet.
                // Whatever cached location pointed this chase here is
                // stale; forget it so the next resolution starts fresh.
                self.locator.note_stale();
                self.obs.metrics.incr("locator_cache_stale_hits", 1);
                self.locator.invalidate(&target);
                self.messenger.stash_early(msg, &origin_host);
                self.note_special_mailbox_depth();
            }
        }
    }

    // =====================================================================
    // Control (system messages)
    // =====================================================================

    fn apply_control(
        &mut self,
        id: &NapletId,
        verb: &ControlVerb,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        match verb {
            ControlVerb::Terminate => {
                self.destroy_resident(id, "terminated by control message", now, out);
            }
            ControlVerb::Suspend => {
                if self.monitor.suspend(id) {
                    self.logf(now, format!("SUSPEND {id}"));
                }
            }
            ControlVerb::Resume => {
                if self.monitor.resume(id) {
                    self.logf(now, format!("RESUME {id}"));
                    out.push(Output::Schedule {
                        delay_ms: 0,
                        event: LocalEvent::VisitDone { id: id.clone() },
                    });
                }
            }
            ControlVerb::Callback | ControlVerb::Custom(_) => {
                // cast the interrupt: the creator-defined on_interrupt
                let Some(mut entry) = self.monitor.take(id) else {
                    return;
                };
                let ran = self.run_agent(
                    &mut entry.naplet,
                    &mut entry.mailbox,
                    &mut entry.meter,
                    What::Interrupt(verb),
                    now,
                    out,
                );
                if let Err(e) = ran {
                    self.logf(now, format!("on_interrupt failed for {id}: {e}"));
                }
                self.monitor.restore(entry);
            }
        }
    }

    // =====================================================================
    // Destruction / completion
    // =====================================================================

    fn destroy_resident(
        &mut self,
        id: &NapletId,
        reason: &str,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        let Some(mut entry) = self.monitor.evict(id) else {
            return;
        };
        // its last word, said while its channels are still open; a
        // failing hook leaves nothing to undo
        let _ = self.run_agent(
            &mut entry.naplet,
            &mut entry.mailbox,
            &mut entry.meter,
            What::Destroy,
            now,
            out,
        );
        self.resources.release(id);
        self.logf(now, format!("DESTROY {id}: {reason}"));
        self.journal_retire(id, now);
        self.obs.metrics.incr("journeys.destroyed", 1);
        self.obs
            .emit(now, &self.host, Some(id), || TraceKind::JourneyDone {
                status: "destroyed".to_string(),
            });
        self.notify_home(id, NapletStatus::Destroyed, reason, now, out);
        self.dir_remove(id, now, out);
    }

    fn finish_journey(
        &mut self,
        naplet: Naplet,
        now: Millis,
        detail: &str,
        normal: bool,
        out: &mut Vec<Output>,
    ) {
        let id = naplet.id().clone();
        self.logf(now, format!("COMPLETE {id}"));
        let status = if normal {
            NapletStatus::Completed
        } else {
            NapletStatus::Destroyed
        };
        self.notify_home(&id, status, detail, now, out);
        self.dir_remove(&id, now, out);
        self.monitor.evict(&id);
        self.resources.release(&id);
        self.journal_retire(&id, now);
        let label = if normal { "completed" } else { "destroyed" };
        self.obs.metrics.incr(
            if normal {
                "journeys.completed"
            } else {
                "journeys.destroyed"
            },
            1,
        );
        self.obs
            .emit(now, &self.host, Some(&id), || TraceKind::JourneyDone {
                status: label.to_string(),
            });
        self.completed.push((id, naplet.nav_log.clone()));
    }

    fn notify_home(
        &mut self,
        id: &NapletId,
        status: NapletStatus,
        detail: &str,
        now: Millis,
        out: &mut Vec<Output>,
    ) {
        if id.home() == self.host {
            self.note_status_at_home(id, status, now);
            self.manager.update_status(id, status, &self.host, now);
        } else {
            out.push(Output::Send {
                to: id.home().to_string(),
                wire: Wire::Notify {
                    id: id.clone(),
                    status,
                    host: self.host.clone(),
                    detail: detail.to_string(),
                },
            });
        }
    }

    // =====================================================================
    // Home-side leases
    // =====================================================================

    /// A life-cycle status reached this (home) server: terminal states
    /// end the lease and drop the creation record; anything else is a
    /// sign of life.
    fn note_status_at_home(&mut self, id: &NapletId, status: NapletStatus, now: Millis) {
        match status {
            NapletStatus::Completed
            | NapletStatus::Destroyed
            | NapletStatus::Parked
            | NapletStatus::Lost => {
                self.leases.release(id);
                let _ = self.journal.remove_creation(id);
            }
            _ => self.leases.renew(id, now),
        }
    }

    /// Arm the next lease-expiry check for `id`.
    fn arm_lease_timer(&self, id: &NapletId, out: &mut Vec<Output>) {
        let Some(policy) = &self.lease_policy else {
            return;
        };
        out.push(Output::Schedule {
            delay_ms: policy.duration_ms + 1,
            event: LocalEvent::LeaseCheck { id: id.clone() },
        });
    }

    /// A lease timer came due: either the lease was renewed in the
    /// meantime (re-arm for the remaining window) or the agent is
    /// orphaned — re-dispatch it from the creation record if the
    /// policy's budget allows, else declare it [`NapletStatus::Lost`].
    fn check_lease(&mut self, id: &NapletId, now: Millis, out: &mut Vec<Output>) {
        let Some(policy) = self.lease_policy.clone() else {
            return;
        };
        let Some(lease) = self.leases.get(id) else {
            return; // released (terminal status) — nothing to watch
        };
        let age = now.since(lease.last_renewed);
        if age <= policy.duration_ms {
            // renewed since the timer was armed: watch the rest of the
            // current window
            out.push(Output::Schedule {
                delay_ms: policy.duration_ms - age + 1,
                event: LocalEvent::LeaseCheck { id: id.clone() },
            });
            return;
        }
        let asks = self.locator.asks_replicas();
        if let Some(probes) = self.leases.probes(id).filter(|_| asks) {
            // before declaring the agent orphaned, ask the replica set
            // whether it has seen recent movement
            if *probes < self.retry.max_retries {
                *probes += 1;
                let attempt = *probes;
                if let Holder::At(holder) = self.locator.holder(id) {
                    let holder = holder.to_string();
                    self.obs.metrics.incr("lease.probes", 1);
                    self.logf(now, format!("LEASE probe {attempt} for {id} via {holder}"));
                    let token = self.query_directory(holder, id.clone(), None, now, out);
                    // in case this replica is the dead one
                    self.locator.rotate();
                    let key = token ^ 0x4c50_524f_4245u64;
                    out.push(Output::Schedule {
                        delay_ms: self.retry.jittered_backoff_ms(key, attempt),
                        event: LocalEvent::LeaseCheck { id: id.clone() },
                    });
                    return;
                }
            } else {
                *probes = 0;
            }
        }
        self.leases.expired += 1;
        self.logf(
            now,
            format!("LEASE expired for {id} ({age}ms without sign of life)"),
        );
        let creation = self.journal.creation(id);
        let can_redispatch =
            policy.redispatch && lease.redispatches < policy.max_redispatches && creation.is_some();
        self.obs.metrics.incr("lease.expired", 1);
        self.obs
            .emit(now, &self.host, Some(id), || TraceKind::LeaseExpired {
                redispatched: can_redispatch,
            });
        if can_redispatch {
            let naplet = creation.unwrap();
            self.leases.note_redispatch(id, now);
            self.leases.redispatched += 1;
            self.obs.metrics.incr("lease.redispatched", 1);
            self.logf(
                now,
                format!(
                    "REDISPATCH {id} from creation record (attempt {})",
                    lease.redispatches + 1
                ),
            );
            self.manager.record_launch(id.clone(), &self.host, now);
            self.manager.record_arrival(id, None, now);
            self.arm_lease_timer(id, out);
            self.continue_journey(naplet, Mailbox::new(), now, out);
        } else {
            self.leases.lost += 1;
            self.leases.release(id);
            let _ = self.journal.remove_creation(id);
            self.manager
                .update_status(id, NapletStatus::Lost, &self.host, now);
            self.logf(now, format!("LOST {id}: lease expired, no re-dispatch"));
        }
    }

    /// A directory replica answered a lease probe. A registration
    /// fresher than the lease window counts as a sign of life (the
    /// commit echo to this home was merely lost); a stale or missing
    /// entry is an authoritative verdict — stop probing so the pending
    /// [`LocalEvent::LeaseCheck`] runs the ordinary expiry path.
    fn resolve_lease_probe(
        &mut self,
        id: NapletId,
        entry: Option<(String, DirEvent, Millis)>,
        now: Millis,
    ) {
        let (Some(policy), Some(probes)) = (&self.lease_policy, self.leases.probes(&id)) else {
            return; // released in the meantime
        };
        let fresh = entry
            .as_ref()
            .is_some_and(|(_, _, at)| now.since(*at) <= policy.duration_ms);
        if fresh {
            *probes = 0;
            self.leases.renew(&id, now);
            self.obs.metrics.incr("lease.probe_confirmed", 1);
            self.logf(now, format!("LEASE probe confirmed {id} alive"));
        } else {
            *probes = self.retry.max_retries;
            self.obs.metrics.incr("lease.probe_stale", 1);
            self.logf(
                now,
                format!("LEASE probe found no recent movement for {id}"),
            );
        }
    }

    // =====================================================================
    // Crash recovery
    // =====================================================================

    /// Replay the journal after a crash wiped all volatile state.
    ///
    /// Rehydrates every journaled naplet: a resident whose visit
    /// already ran resumes at the visit's *end* — the visit-epoch
    /// ratchet suppresses a second application of its effects; a
    /// resident admitted but not yet run is re-admitted through the
    /// normal registration gate; an in-flight handoff re-enters the
    /// retry machinery under its original transfer id (an immediate
    /// timeout retransmits or fails over by the ordinary rules); a
    /// parked agent returns to the parked set. The receiver-side dedup
    /// table, the transfer-token watermark and any home-side leases
    /// are restored so idempotence, id-uniqueness and liveness
    /// tracking survive the crash.
    pub fn recover(&mut self, now: Millis) -> Vec<Output> {
        let mut out = Vec::new();
        // consensus state first: term, vote and the replicated log are
        // durable — a rejoining replica must not regress its promises
        self.locator.recover(&self.journal);
        self.arm_repl_tick(&mut out);
        // dedup + token state first: nothing replayed below may admit
        // a duplicate or reuse a pre-crash transfer id
        for ((origin, transfer_id), at) in self.journal.seen() {
            self.navigator.admit_once(&origin, transfer_id, at);
        }
        self.next_token = self.next_token.max(self.journal.token_watermark());
        let mut local = 0u64;
        let mut suppressed = 0u64;
        let mut resumed = 0u64;
        for (_key, record) in self.journal.naplet_records() {
            // the handle keeps the record's bytes as its image, so a
            // resumed handoff re-sends and re-journals them as they are
            let Ok(agent) = naplet_core::codec::from_bytes::<SharedNaplet>(&record.naplet) else {
                continue; // undecodable record: nothing restorable
            };
            let id = agent.id().clone();
            self.recovery.rehydrated += 1;
            local += 1;
            match record.phase {
                JournalPhase::Parked => {
                    self.logf(now, format!("RECOVER parked {id}"));
                    self.obs
                        .emit(now, &self.host, Some(&id), || TraceKind::RecoveryReplayed {
                            phase: "parked".to_string(),
                        });
                    self.navigator.parked.insert(id, agent.into_owned());
                }
                JournalPhase::Resident {
                    applied_epoch,
                    action,
                } => {
                    let mut naplet = agent.into_owned();
                    // restore the footprint so message chases find us
                    self.manager.record_arrival(&id, None, now);
                    if naplet.nav_log.current_visit().is_none() {
                        // an admission record is the image as received:
                        // open the visit as admission did, at its time
                        self.stamp_arrival(&mut naplet, record.updated);
                    }
                    if applied_epoch >= naplet.nav_log.visit_epoch() {
                        // effects already escaped: resume at visit end
                        self.recovery.replays_suppressed += 1;
                        suppressed += 1;
                        self.obs
                            .emit(now, &self.host, Some(&id), || TraceKind::RecoveryReplayed {
                                phase: "resident-applied".to_string(),
                            });
                        self.logf(now, format!("RECOVER resident {id} (visit applied)"));
                        self.monitor.admit(naplet, None, RunState::VisitDone, now);
                        self.register_movement(&id, DirEvent::Arrival, None, now, &mut out);
                        out.push(Output::Schedule {
                            delay_ms: 0,
                            event: LocalEvent::VisitDone { id: id.clone() },
                        });
                    } else {
                        // admitted but never run: re-run through the
                        // normal registration gate
                        self.obs
                            .emit(now, &self.host, Some(&id), || TraceKind::RecoveryReplayed {
                                phase: "resident-rerun".to_string(),
                            });
                        self.logf(now, format!("RECOVER resident {id} (re-running visit)"));
                        self.monitor
                            .admit(naplet, action, RunState::AwaitingArrivalAck, now);
                        self.register_movement(&id, DirEvent::Arrival, Some(1), now, &mut out);
                    }
                }
                JournalPhase::InFlight {
                    transfer_id,
                    ref dest,
                    ..
                } => {
                    self.recovery.handoffs_resumed += 1;
                    resumed += 1;
                    self.obs
                        .emit(now, &self.host, Some(&id), || TraceKind::RecoveryReplayed {
                            phase: "in-flight".to_string(),
                        });
                    self.logf(
                        now,
                        format!("RECOVER in-flight {id} -> {dest} (transfer {transfer_id})"),
                    );
                    // an immediate timeout re-drives the handoff: the
                    // ordinary handler retransmits the current phase's
                    // frame or fails over — no recovery-special paths
                    let timer = self.navigator.restore(agent, record.phase, now);
                    out.extend(timer.map(|(transfer_id, attempt)| Output::Schedule {
                        delay_ms: 0,
                        event: LocalEvent::TransferTimeout {
                            transfer_id,
                            attempt,
                        },
                    }));
                }
            }
        }
        // re-arm leases for agents this (home) server dispatched that
        // are still outstanding; their redispatch budget restarts with
        // the rebuilt lease table
        if self.lease_policy.is_some() {
            for id_str in self.journal.creations() {
                let Ok(id) = id_str.parse::<NapletId>() else {
                    continue;
                };
                self.manager.record_launch(id.clone(), &self.host, now);
                self.leases.grant(&id, now);
                self.arm_lease_timer(&id, &mut out);
            }
        }
        self.logf(now, format!("RECOVER complete: {local} naplet(s)"));
        self.obs.metrics.incr("recovery.replays", 1);
        self.obs.metrics.incr("recovery.rehydrated", local);
        self.obs
            .emit(now, &self.host, None, || TraceKind::RecoveryDone {
                rehydrated: local,
                suppressed,
                resumed,
            });
        out
    }

    /// The journey of `id` ended: remove its directory entry, wherever
    /// that is held.
    fn dir_remove(&mut self, id: &NapletId, now: Millis, out: &mut Vec<Output>) {
        let wire = Wire::DirRemove { id: id.clone() };
        match self.locator.holder(id) {
            Holder::Nowhere => {}
            Holder::Here => drop(self.file(wire, now, out)),
            Holder::At(host) => out.push(Output::Send {
                to: host.to_string(),
                wire,
            }),
        }
    }
}

/// Stable label of a journal phase for traces/logs.
fn phase_label(phase: &JournalPhase) -> &'static str {
    match phase {
        JournalPhase::InFlight { .. } => "in-flight",
        JournalPhase::Resident { .. } => "resident",
        JournalPhase::Parked => "parked",
    }
}
