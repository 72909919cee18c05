//! The NapletServer: one dock of naplets per host (paper §2.2).
//!
//! A server wires the seven architecture components together —
//! NapletMonitor, NapletSecurityManager, ResourceManager,
//! NapletManager, Messenger, Navigator and Locator — plus dynamically
//! created ServiceChannels. This file is the router between them and
//! the keeper of the journal: it feeds each component's transitions the
//! server's one [`Outbox`], through which the component sends its own
//! frames and timers and records its own log lines, metrics and trace
//! events, and carries on with what the transition hands back. No
//! agent code runs here: the monitor's [`sandbox`](crate::sandbox) runs
//! it and hands back what it asked for. It is written as a
//! deterministic event handler: a driver feeds it [`Input`]s and enacts
//! the [`Output`]s its entry points take from the outbox, so the same
//! server runs under the discrete-event runtime and under threaded
//! drivers.

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

use naplet_obs::{ObsSink, TraceKind, LATENCY_BOUNDS_MS};

use crate::directory::DirEvent;
use crate::events::{
    EventLog, Input, LocalEvent, OpsPage, OpsRead, Outbox, Output, TransferEnvelope, Wire,
};
use crate::journal::{Journal, JournalPhase, RecoveryStats};
use crate::lease::{LeasePolicy, LeaseTable};
pub use crate::locator::LocationMode;
use crate::locator::{Commits, Holder, Locator};
use crate::manager::{NapletManager, NapletStatus};
use crate::messenger::Messenger;
use crate::monitor::{Meter, MonitorPolicy, NapletMonitor, RunState};
use crate::navigator::{Acked, Failed, Navigator};
use crate::repl::{ReplConfig, ReplicaCore};
use crate::resources::ResourceManager;
use crate::retry::RetryPolicy;
use crate::sandbox::{Effects, ExecOutcome, Sandbox, What};
use crate::security::{Permission, SecurityManager};
use crate::status::{ResidentStatus, StatusReport};

/// Retention window for dedup/bookkeeping tables (receiver-side
/// transfer dedup, messenger confirmations): entries older than this
/// are compacted away.
const RETENTION_MS: u64 = 600_000;

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
    /// What the call in progress emits: frames, timers, log lines,
    /// metrics and trace events, at this host and the call's time.
    out: Outbox,
}

impl NapletServer {
    /// Build a server from its configuration.
    pub fn new(config: ServerConfig) -> NapletServer {
        let journal = Journal::in_memory();
        let locator = Locator::new(&config.host, config.mode, config.repl, &journal);
        let navigator = Navigator::new(config.retry.clone());
        NapletServer {
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
            out: Outbox::new(&config.host),
        }
    }

    /// Attach the shared observation sink (drivers call this so every
    /// server in a space records into one trace/metrics endpoint).
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.out.set_obs(obs);
    }

    /// The observation sink this server records into.
    pub fn obs(&self) -> &ObsSink {
        self.out.obs()
    }

    /// Human-readable event log (bounded ring).
    pub fn log(&self) -> &EventLog {
        self.out.lines()
    }

    /// This server's host name.
    pub fn host(&self) -> &str {
        self.out.host()
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

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        // durably advance the watermark so a recovered server never
        // reissues a transfer id that may be live in a peer's dedup set
        let _ = self.journal.set_token_watermark(self.next_token);
        self.next_token
    }

    /// Journal a snapshot of a resident: the one walk of the agent the
    /// record costs.
    fn journal_naplet(&mut self, naplet: &Naplet, phase: &JournalPhase) {
        let image = naplet.to_wire().map(Arc::new);
        self.journal
            .put_naplet(naplet.id(), image, phase, &mut self.out);
    }

    /// Periodic compaction of dedup/bookkeeping tables under the
    /// retention window (satellite: these tables previously grew for
    /// the life of the server).
    fn sweep_retention(&mut self) {
        let now = self.out.now();
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
    // Directory: what lands in this host's shard
    // =====================================================================

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
    /// off the wire or this host's own — and land what it commits.
    /// `true` when a table took it at once, leaving nothing to wait for.
    fn file(&mut self, wire: Wire) -> bool {
        let commits = self.locator.file(wire, &mut self.journal, &mut self.out);
        self.land(commits)
    }

    /// Land what a shard operation committed, one registration at a
    /// time, each where it committed; `true` when a table took it at once.
    fn land(&mut self, mut commits: Commits) -> bool {
        let at_once = commits.at_once();
        while let Some(landed) = self.locator.land(&mut commits, &mut self.out) {
            self.registered(landed);
        }
        at_once
    }

    /// What a registration that landed in this host's shard does — at
    /// once on a table, at commit on a replica: any movement is a sign
    /// of life for the home's lease and status views, and the registrar
    /// waiting on it gets its `DirAck`, inline when that is this host.
    /// A landed removal leaves nothing to do.
    fn registered(&mut self, wire: Wire) {
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
        let now = self.out.now();
        self.leases.renew(&id, now);
        self.manager.note_movement(&id, event, &host, now);
        match ack_to {
            Some(to) if to != self.out.host() => self.out.send(to, Wire::DirAck { id }),
            Some(_) => self.proceed_after_registration(&id, false),
            None => {}
        }
    }

    // =====================================================================
    // Entry points
    // =====================================================================

    /// Launch a locally created naplet on its journey. Must be called
    /// on the naplet's home server.
    pub fn launch(&mut self, naplet: Naplet, now: Millis) -> Vec<Output> {
        self.out.at(now);
        let id = naplet.id().clone();
        self.manager.record_launch(id.clone(), self.out.host(), now);
        self.manager.record_arrival(&id, None, now);
        self.out.log(format!("LAUNCH {id}"));
        if self.lease_policy.is_some() {
            // durable creation record first, so an orphan can be
            // re-dispatched even after this server itself crashes
            if let Err(e) = self.journal.record_creation(&id, &naplet) {
                self.out
                    .log(format!("JOURNAL creation failed for {id}: {e}"));
            }
            self.leases.grant(&id, now);
            self.arm_lease_timer(&id);
        }
        self.continue_journey(naplet, Mailbox::new());
        self.out.take()
    }

    /// Post a message on behalf of the owner/console at this host
    /// (remote control and owner→agent data). Routed through the full
    /// post-office protocol.
    pub fn owner_post(&mut self, to: NapletId, payload: Payload, now: Millis) -> Vec<Output> {
        self.out.at(now);
        let from = Sender::Owner(self.out.host().to_string());
        let msg = self.messenger.post(from, to, payload, now);
        self.route_message(msg, 1, None);
        self.out.take()
    }

    /// Handle one input, producing effects for the driver.
    pub fn handle(&mut self, now: Millis, input: Input) -> Vec<Output> {
        let key = match &input {
            Input::Wire { wire, .. } => wire.handler_key(),
            Input::Local(ev) => ev.handler_key(),
        };
        let started = self.out.stopwatch();
        self.out.at(now);
        self.sweep_retention();
        match input {
            Input::Wire { from, wire } => self.handle_wire(&from, wire),
            Input::Local(ev) => self.handle_local(ev),
        }
        self.out.lap(key, started);
        self.out.take()
    }

    // =====================================================================
    // Wire handling
    // =====================================================================

    fn handle_wire(&mut self, from: &str, wire: Wire) {
        let now = self.out.now();
        match wire {
            Wire::Transfer(envelope) => self.receive_transfer(from, envelope, Mailbox::new()),
            Wire::TransferWithMail(envelope, mail) => self.receive_transfer(from, envelope, mail),
            Wire::TransferAck {
                transfer_id,
                id,
                refused,
            } => {
                let (journal, out) = (&mut self.journal, &mut self.out);
                match self
                    .navigator
                    .ack(transfer_id, from, &id, refused, journal, out)
                {
                    Some(Acked::Admitted { id, dest }) => self.hand_on(&id, &dest),
                    // itinerary exception: skip the refused visit
                    Some(Acked::Refused(naplet, mailbox)) => {
                        self.undo_departure(naplet.id());
                        self.continue_journey(naplet, mailbox);
                    }
                    None => {}
                }
            }
            wire @ (Wire::DirRegister { .. } | Wire::DirRemove { .. }) => drop(self.file(wire)),
            Wire::DirAck { id } => self.proceed_after_registration(&id, false),
            Wire::DirQuery {
                token,
                id,
                reply_to,
            } => {
                let entry = self.locator.directory().lookup(&id);
                let entry = entry.map(|e| (e.host.clone(), e.event, e.at));
                self.out.send(reply_to, Wire::DirReply { token, id, entry });
            }
            Wire::DirReply { token, id, entry } => match self.locator.answered(token) {
                // the post waited as its identity: the one copy is its
                // poster's, and a confirmed or given-up one has none left
                Some(Some((sender, seq))) => {
                    if let Some(rec) = self.messenger.unconfirmed(&sender, seq) {
                        let msg = rec.msg.clone();
                        self.post_located(msg, entry.map(|(host, ..)| host));
                    }
                }
                Some(None) => self.resolve_lease_probe(id, entry),
                None => {}
            },
            Wire::Repl { msg } => {
                let commits = self
                    .locator
                    .receive(from, msg, &mut self.journal, &mut self.out);
                self.land(commits);
            }
            Wire::Post { msg, origin_host } => {
                self.deliver_or_chase(msg, origin_host);
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
                self.locator.put(target, &delivered_at, &mut self.out);
            }
            Wire::Report { id, body } => {
                self.out.log(format!("REPORT from {id}"));
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
                    self.out
                        .log(format!("NOTIFY {id}: {status:?} at {host}: {detail}"));
                }
                self.note_status_at_home(&id, status);
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
                        self.out.host()
                    ))),
                };
                let encoded: std::result::Result<Vec<u8>, String> =
                    result.map_err(|e| e.to_string());
                let body = naplet_core::codec::to_bytes(&encoded).unwrap_or_default();
                self.out.send(reply_to, Wire::AppReply { token, tag, body });
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
                    .privileged_read(&credential, from, what, counters)
                    .then(|| match read {
                        OpsRead::Status => OpsPage::Status(self.status_report(now)),
                        OpsRead::Trace { from_seq, max } => {
                            let (recorder, host) = (&self.out.obs().recorder, self.out.host());
                            OpsPage::Trace(recorder.page(host, from_seq, max as usize))
                        }
                        OpsRead::MetricsHistory { from_seq, max } => {
                            let (history, host) = (&self.out.obs().history, self.out.host());
                            OpsPage::MetricsHistory(history.page(host, from_seq, max as usize))
                        }
                    });
                self.out.send(reply_to, Wire::OpsReply { token, page });
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
    ) -> bool {
        let permission = Permission::PrivilegedService("status".into());
        match self.security.check(credential, permission) {
            Ok(()) => {
                self.out.count(granted, 1);
                true
            }
            Err(e) => {
                self.out.count(refused, 1);
                self.out.log(format!("{what} from {from} refused: {e}"));
                false
            }
        }
    }

    // =====================================================================
    // Local events
    // =====================================================================

    fn handle_local(&mut self, ev: LocalEvent) {
        let now = self.out.now();
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
                        self.out.observe("visit_dwell_ms", LATENCY_BOUNDS_MS, dwell);
                        let epoch = naplet.nav_log.visit_epoch();
                        self.out.trace(Some(&id), || TraceKind::VisitEnd {
                            started: arrived_at,
                            epoch,
                            gas,
                            msg_bytes,
                        });
                        self.continue_journey(naplet, mailbox);
                    }
                }
            }
            LocalEvent::CodeReady { id } => {
                if let Some(e) = self.monitor.get_mut(&id) {
                    if e.state == RunState::AwaitingCode {
                        e.state = RunState::Runnable;
                        self.execute_visit(&id);
                    }
                }
            }
            LocalEvent::TransferTimeout {
                transfer_id,
                attempt,
            } => {
                let (journal, out) = (&mut self.journal, &mut self.out);
                if let Some(failed) = self.navigator.due(transfer_id, attempt, journal, out) {
                    self.fail_migration(failed);
                }
            }
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
                    self.out.log(format!(
                        "REGISTER unacked for {id} after {attempt} attempts: proceeding"
                    ));
                    self.proceed_after_registration(&id, true);
                    return;
                }
                // the replica we tried may be the dead node that
                // forced this retry
                self.locator.rotate();
                let next = attempt + 1;
                self.out
                    .log(format!("RETRY register {id} (attempt {next})"));
                self.register_movement(&id, DirEvent::Arrival, Some(next));
            }
            LocalEvent::LeaseCheck { id } => {
                self.check_lease(&id);
            }
            LocalEvent::ReplTick => {
                let commits = self.locator.tick(&mut self.journal, &mut self.out);
                self.land(commits);
            }
            LocalEvent::PostTimeout {
                sender,
                seq,
                attempt,
            } => {
                let budget = self.retry.max_retries;
                match self
                    .messenger
                    .due(&sender, seq, attempt, budget, &mut self.out)
                {
                    // given up: a late answer to the query it waited on
                    // has nothing to post, so the query goes now
                    Some(None) => self.locator.withdraw(&(sender, seq)),
                    Some(Some(msg)) => {
                        // whatever hint routed the lost attempt is
                        // suspect: re-resolve from scratch
                        self.locator.invalidate(&msg.to);
                        self.route_message(msg, attempt + 1, None);
                    }
                    // confirmed, given up or re-armed in the meantime
                    None => {}
                }
            }
        }
    }

    // =====================================================================
    // Navigator: migration protocol
    // =====================================================================

    /// A `Transfer` of an agent with the `mail` it has not read came
    /// from `from`: the navigator answers it with this host's landing
    /// decision. A fresh admission lands here, its mail passing the
    /// delivery door as mail that arrived before it does.
    fn receive_transfer(&mut self, from: &str, envelope: TransferEnvelope, mut mail: Mailbox) {
        let decision = self.landing_decision(envelope.naplet.credential());
        let (journal, out) = (&mut self.journal, &mut self.out);
        if let Some(envelope) = self
            .navigator
            .receive(from, envelope, decision, journal, out)
        {
            for m in mail.drain() {
                self.stash(m, self.out.host().to_string());
            }
            self.admit_arrival(envelope, Some(from), Mailbox::new());
        }
    }

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
    fn continue_journey(&mut self, mut naplet: Naplet, mut mailbox: Mailbox) {
        loop {
            // snapshot the traversal state before deciding the next
            // step, so a permanently failed migration can rewind and
            // re-decide with the destination marked unreachable
            let checkpoint = naplet.cursor().clone();
            match naplet.advance() {
                Step::Visit { host, action } => {
                    if host == self.out.host() {
                        // a visit to the current host needs no
                        // migration; unread mail stays in the naplet's
                        // custody and rides straight into the new entry
                        let envelope = TransferEnvelope {
                            naplet: naplet.into(),
                            action,
                            transfer_id: 0, // same-host: no handoff protocol
                            attempt: 1,
                        };
                        self.admit_arrival(envelope, None, mailbox);
                    } else {
                        self.begin_migration(naplet, mailbox, action, host, checkpoint);
                    }
                    return;
                }
                Step::Fork { clones } => {
                    if let Err(e) = self.security.check(naplet.credential(), Permission::Clone) {
                        self.out
                            .log(format!("CLONE denied for {}: {e}", naplet.id()));
                        continue; // parent continues; branches abandoned
                    }
                    let now = self.out.now();
                    for branch in clones {
                        let clone = naplet.clone_for_branch(branch, self.out.host());
                        let cid = clone.id().clone();
                        self.manager
                            .record_launch(cid.clone(), self.out.host(), now);
                        self.manager.record_arrival(&cid, None, now);
                        self.out.log(format!("CLONE {cid}"));
                        self.continue_journey(clone, Mailbox::new());
                    }
                    // parent keeps advancing in this loop
                }
                Step::Action(action) => {
                    // between visits: no monitor entry, so a fresh meter
                    let (what, mut meter) = (What::Action(&action), Meter::default());
                    let ran = self.run_agent(&mut naplet, &mut mailbox, &mut meter, what);
                    if let Err(e) = ran {
                        let id = naplet.id();
                        self.out
                            .log(format!("action {action:?} failed for {id}: {e}"));
                    }
                }
                Step::Done => {
                    // a VM agent parked at travel_next learns the
                    // journey is over (nil) and gets a final slice to
                    // report/clean up before destruction
                    let (what, mut meter) = (What::FinalSlice, Meter::default());
                    let ran = self.run_agent(&mut naplet, &mut mailbox, &mut meter, what);
                    if let Err(e) = ran {
                        let id = naplet.id();
                        self.out.log(format!("final VM slice failed for {id}: {e}"));
                    }
                    self.finish_journey(naplet, "completed", true);
                    return;
                }
            }
        }
    }

    fn begin_migration(
        &mut self,
        naplet: Naplet,
        mut mailbox: Mailbox,
        action: Option<ActionSpec>,
        dest: String,
        checkpoint: Cursor,
    ) {
        if let Err(e) = self.security.check(naplet.credential(), Permission::Launch) {
            self.out
                .log(format!("LAUNCH denied for {}: {e}", naplet.id()));
            // skip this visit entirely
            self.continue_journey(naplet, mailbox);
            return;
        }
        // the mail it has not read leaves with it: its delivery is
        // forgotten here, so it passes this host's door again should the
        // naplet bring it back unread
        let mut unread = Mailbox::new();
        for m in mailbox.drain() {
            self.messenger.forget_delivery(&m);
            unread.deposit(m);
        }
        let transfer_id = self.token();
        let naplet = SharedNaplet::new(naplet);
        let (id, to) = (naplet.id().clone(), dest.clone());
        let (journal, out) = (&mut self.journal, &mut self.out);
        let back = self.navigator.open(
            transfer_id,
            naplet,
            unread,
            action,
            dest,
            checkpoint,
            journal,
            out,
        );
        match back {
            // it cannot leave: skip the visit
            Some((naplet, mailbox)) => self.continue_journey(naplet, mailbox),
            None => self.record_departure(&id, &to),
        }
    }

    /// Arm the acknowledgement timer for an arrival registration; keyed
    /// on the naplet id so concurrent arrivals jitter apart.
    fn arm_register_timer(&mut self, id: &NapletId, attempt: u32) {
        let key = crate::retry::naplet_jitter_key(id);
        let delay_ms = self.retry.jittered_backoff_ms(key, attempt);
        let id = id.clone();
        self.out
            .after(delay_ms, LocalEvent::RegisterTimeout { id, attempt });
    }

    /// The `Transfer` left: perform the one-time departure side effects
    /// while the navigator retains the agent until the destination
    /// answers; a refusal or a failure rolls them back
    /// ([`undo_departure`](Self::undo_departure)).
    fn record_departure(&mut self, id: &NapletId, dest: &str) {
        self.manager.record_departure(id, dest, self.out.now());
        self.resources.release(id);
        // DEPART registration (no ack needed, paper §4.1)
        self.register_movement(id, DirEvent::Departure, None);
        self.out.log(format!("DEPART {id} -> {dest}"));
    }

    /// The agent is back in this host's custody after its `Transfer`
    /// left: its footprint points here again.
    fn undo_departure(&mut self, id: &NapletId) {
        self.manager.record_arrival(id, None, self.out.now());
    }

    /// All retries exhausted: the navigator rewound the itinerary to
    /// the pre-departure checkpoint and recorded the failure; either
    /// fall back to another branch (`Alt`) or park the naplet here.
    fn fail_migration(&mut self, failed: Failed) {
        self.undo_departure(failed.agent.id());
        if failed.park {
            self.park(failed.agent, failed.mailbox, &failed.dest);
        } else {
            self.continue_journey(failed.agent, failed.mailbox);
        }
    }

    /// Strand the naplet at this server after an unrecoverable
    /// migration failure: re-register it here, notify its home with
    /// [`NapletStatus::Parked`] and keep it for owner recovery. Unread
    /// mail returns to the special mailbox rather than being dropped.
    fn park(&mut self, naplet: Naplet, mut mailbox: Mailbox, dest: &str) {
        let id = naplet.id().clone();
        for m in mailbox.drain() {
            self.messenger.forget_delivery(&m);
            self.stash(m, self.out.host().to_string());
        }
        // make the parked naplet locatable here again
        self.register_movement(&id, DirEvent::Arrival, None);
        let detail = format!("destination {dest} unreachable");
        self.notify_home(&id, NapletStatus::Parked, &detail);
        // a parked agent held for owner recovery must survive a crash
        // of the server holding it
        self.journal_naplet(&naplet, &JournalPhase::Parked);
        self.navigator.parked.insert(id, naplet);
    }

    /// Outbound migrations currently awaiting an acknowledgement
    /// (diagnostics/tests).
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
            host: self.out.host().to_string(),
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
    ) {
        let TransferEnvelope { naplet, action, .. } = envelope;
        let id = naplet.id().clone();
        if let Err(e) = self.security.verify_naplet(&naplet) {
            self.out.log(format!("ARRIVAL rejected for {id}: {e}"));
            self.notify_home(&id, NapletStatus::Destroyed, &e.to_string());
            return;
        }
        let now = self.out.now();
        if from.is_some() {
            self.manager.record_arrival(&id, from, now);
        }
        self.out.log(format!("ARRIVAL {id}"));
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
        self.journal
            .put_naplet(&id, naplet.wire_bytes(), &phase, &mut self.out);
        // sole owner on the receiving side (the origin's retained copy
        // lives in another process/server), so this is move-or-clone
        let mut naplet = naplet.into_owned();
        self.stamp_arrival(&mut naplet, now);

        // the new entry's mail: what the naplet already held in custody
        // rides straight back in, then any messages that arrived before
        // the naplet (§4.2 case 3) pass the delivery door. User messages
        // go to the mailbox, system messages interrupt after the arrival
        // bookkeeping below.
        let (mut mail, mut pending_controls) = (Vec::new(), Vec::new());
        let mut sort = |m: Message| match &m.payload {
            Payload::System(verb) => pending_controls.push(verb.clone()),
            Payload::User(_) => mail.push(m),
        };
        carry.drain().into_iter().for_each(&mut sort);
        for (m, origin) in self.messenger.drain_early(&id) {
            self.deliver(m, origin, |_, m| sort(m));
        }
        let state = RunState::AwaitingArrivalAck;
        let entry = self.monitor.admit(naplet, action, state, now);
        for m in mail {
            entry.mailbox.deposit(m);
        }
        self.out.gauge("mailbox_depth", entry.mailbox.len() as u64);

        // ARRIVAL registration: execution postponed until acknowledged
        self.register_movement(&id, DirEvent::Arrival, Some(1));

        // early control messages now interrupt the just-arrived naplet
        for verb in pending_controls {
            self.apply_control(&id, &verb);
        }
    }

    /// Open the visit on the live copy: stamp the arrival in the
    /// navigation log, then let the host inspect/update the agent's
    /// state under its protection modes. Admission runs this after
    /// journaling the image as received and recovery runs it again on
    /// that record (at the record's time), so the hook may see one
    /// arrival twice and must be deterministic.
    fn stamp_arrival(&mut self, naplet: &mut Naplet, at: Millis) {
        naplet.nav_log.record_arrival(self.out.host(), at);
        if let Some(hook) = &mut self.state_hook {
            let mut view = naplet.state.server_view(self.out.host());
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
    fn register_movement(&mut self, id: &NapletId, event: DirEvent, gate: Option<u32>) {
        let to = match self.locator.holder(id) {
            Holder::Nowhere => {
                if gate.is_some() {
                    self.proceed_after_registration(id, false);
                }
                return;
            }
            Holder::Here => None,
            Holder::At(host) => Some(host.to_string()),
        };
        let host = self.out.host();
        let wire = Wire::DirRegister {
            id: id.clone(),
            host: host.to_string(),
            event,
            ack_to: gate.map(|_| host.to_string()),
            attempt: gate.unwrap_or(1),
        };
        let landed = match to {
            Some(to) => {
                self.out.send(to, wire);
                false
            }
            None => self.file(wire),
        };
        if let Some(attempt) = gate.filter(|_| !landed) {
            if attempt == 1 {
                // nothing above moved the answer to "who holds `id`"
                self.out.trace(Some(id), || TraceKind::RegisterGated {
                    holder: match self.locator.holder(id) {
                        Holder::At(host) => host.to_string(),
                        _ => self.out.host().to_string(),
                    },
                });
            }
            self.arm_register_timer(id, attempt);
        }
    }

    /// The arrival registration of `id` is acknowledged (or `forced`
    /// open because the directory holder stayed silent past the retry
    /// budget): the naplet waiting behind the gate fetches code if
    /// cold, then executes. One that no longer waits — acked already,
    /// or gone — is left alone.
    fn proceed_after_registration(&mut self, id: &NapletId, forced: bool) {
        let waiting = self.monitor.get_mut(id);
        let Some(entry) = waiting.filter(|e| e.state == RunState::AwaitingArrivalAck) else {
            return;
        };
        let started = entry.arrived_at;
        self.out
            .trace(Some(id), || TraceKind::RegisterAcked { started, forced });
        let naplet = &entry.naplet;
        match naplet.kind() {
            AgentKind::Native => {
                let codebase = naplet.codebase().to_string();
                let home = naplet.home().to_string();
                if self.code_cache.is_cached(&codebase) {
                    entry.state = RunState::Runnable;
                    self.execute_visit(id);
                } else {
                    match self.code_cache.load(&self.codebase, &codebase) {
                        Ok(bytes) => {
                            entry.state = RunState::AwaitingCode;
                            self.out.fetch_code(home, bytes, id.clone());
                        }
                        Err(e) => {
                            self.destroy_resident(id, &format!("code load failed: {e}"));
                        }
                    }
                }
            }
            AgentKind::Vm(_) => {
                entry.state = RunState::Runnable;
                self.execute_visit(id);
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
    ) -> Result<ExecOutcome> {
        let sandbox = Sandbox {
            host: self.out.host(),
            now: self.out.now(),
            co_residents: self.monitor.len(),
            resources: &mut self.resources,
            security: &self.security,
            codebase: &self.codebase,
            actions: &self.actions,
            policy: self.monitor.policy(),
        };
        let (result, effects) = sandbox.run(naplet, mailbox, meter, what);
        self.route_effects(naplet, effects);
        result
    }

    fn execute_visit(&mut self, id: &NapletId) {
        let Some(mut entry) = self.monitor.take(id) else {
            return;
        };
        let action = entry.pending_action.take();
        let result = self.run_agent(
            &mut entry.naplet,
            &mut entry.mailbox,
            &mut entry.meter,
            What::Visit(action.as_ref()),
        );
        match result {
            Ok(outcome) if outcome.program_done => {
                // VM program finished: the journey ends here, when the
                // program did
                let now = self.out.now();
                self.out.at(now.plus(outcome.dwell_ms));
                self.finish_journey(entry.naplet, "completed", true);
                self.out.at(now);
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
                );
                self.monitor.restore(entry);
                let done = LocalEvent::VisitDone { id: id.clone() };
                self.out.after(outcome.dwell_ms, done);
            }
            Err(e) => {
                self.monitor.kills.push((id.clone(), e.kind().to_string()));
                self.monitor.restore(entry);
                self.destroy_resident(id, &e.to_string());
            }
        }
    }

    // =====================================================================
    // Effects: messages, reports, logs
    // =====================================================================

    fn route_effects(&mut self, naplet: &Naplet, effects: Effects) {
        let (id, home) = (naplet.id(), naplet.home());
        for line in effects.logs {
            self.out.log(line);
        }
        for body in effects.reports {
            if home == self.out.host() {
                // a naplet reporting at its own home is a sign of life
                self.leases.renew(id, self.out.now());
                self.reports.push((id.clone(), body));
            } else {
                let id = id.clone();
                self.out.send(home.to_string(), Wire::Report { id, body });
            }
        }
        for (to, hint, body) in effects.posts {
            let from = Sender::Naplet(id.clone());
            let msg = self
                .messenger
                .post(from, to, Payload::User(body), self.out.now());
            self.route_message(msg, 1, Some(&hint));
        }
    }

    // =====================================================================
    // Post office routing (paper §4.2)
    // =====================================================================

    /// Send a post on to `to_host`, whose delivery is to be confirmed
    /// to `origin` — the host that posted it, which a relay (a chase
    /// forward, mail following its naplet) preserves. A post for this
    /// host is delivered here without the wire.
    fn send_post(&mut self, msg: Message, to_host: String, origin: String) {
        if to_host == self.out.host() {
            self.deliver_or_chase(msg, origin);
        } else {
            let origin_host = origin;
            self.out.send(to_host, Wire::Post { msg, origin_host });
        }
    }

    /// First-hop routing of attempt `attempt` of a message this host
    /// posted, redeliveries included: the messenger retains the message
    /// and each attempt arms its timer, so a message lost in flight is
    /// re-routed until its delivery confirmation arrives (or retries run
    /// out).
    fn route_message(&mut self, msg: Message, attempt: u32, hint: Option<&str>) {
        let (target, sender, seq) = (msg.to.clone(), msg.from.clone(), msg.seq);
        let delay_ms = self.retry.jittered_backoff_ms(seq ^ 0x504f_5354, attempt);
        let timeout = LocalEvent::PostTimeout {
            sender,
            seq,
            attempt,
        };
        self.out.after(delay_ms, timeout);
        // resident here?
        if self.monitor.get(&target).is_some() {
            let here = self.out.host().to_string();
            self.deliver_or_chase(msg, here);
            return;
        }
        // locator cache
        if let Some(loc) = self.locator.get(&target) {
            let host = loc.host.clone();
            self.out.count("locator_cache_hits", 1);
            let here = self.out.host().to_string();
            self.send_post(msg, host, here);
            return;
        }
        // directory query, or trace/hint
        match self.locator.holder(&target) {
            Holder::At(holder) => {
                // the message waits as the copy its poster retains,
                // named by its identity
                let (holder, waiting) = (holder.to_string(), (msg.from, msg.seq));
                self.query_directory(holder, target, Some(waiting));
            }
            Holder::Here => {
                let host = self
                    .locator
                    .directory()
                    .lookup(&target)
                    .map(|e| e.host.clone());
                self.post_located(msg, host);
            }
            Holder::Nowhere => {
                // forwarding mode: local trace, then the address-book hint
                let next = match self.manager.trace(&target) {
                    Some(next) => next,
                    None => hint.filter(|hint| *hint != self.out.host()),
                };
                let here = self.out.host().to_string();
                match next.map(str::to_string) {
                    Some(next) => self.send_post(msg, next, here),
                    None => self.stash(msg, here),
                }
            }
        }
    }

    /// Ask `holder` where `id` is under a fresh token (returned), noting
    /// what waits on the answer: the identity of a post, or `None` for a
    /// lease probe.
    fn query_directory(
        &mut self,
        holder: String,
        id: NapletId,
        waiting: Option<(Sender, u64)>,
    ) -> u64 {
        let token = self.token();
        let wire = self.locator.ask(token, id, waiting, self.out.now());
        self.out.send(holder, wire);
        token
    }

    /// The directory — this host's shard or a `DirReply` — answered
    /// for a message's target: cache the entry and post there. A naplet
    /// unknown to the directory may not have landed anywhere yet; the
    /// message waits in its home server's special mailbox (case 3).
    fn post_located(&mut self, msg: Message, host: Option<String>) {
        let here = self.out.host().to_string();
        match host {
            Some(host) => {
                self.locator.put(msg.to.clone(), &host, &mut self.out);
                self.send_post(msg, host, here);
            }
            None if msg.to.home() == here => self.stash(msg, here),
            None => {
                let home = msg.to.home().to_string();
                self.send_post(msg, home, here);
            }
        }
    }

    /// The special mailbox's one door (§4.2 case 3): `msg` waits here
    /// for its naplet to arrive, then is confirmed to `origin`. One copy
    /// per message — a redelivered copy adds none — and every stash
    /// feeds the `special_mailbox_depth` gauge.
    fn stash(&mut self, msg: Message, origin: String) {
        self.messenger.stash_early(msg, origin);
        let depth = self.messenger.early_waiting() as u64;
        self.out.gauge("special_mailbox_depth", depth);
    }

    /// The one door a post passes to reach its naplet here: §4.2 case 1,
    /// and the special mailbox drained when the naplet arrives. The
    /// first copy goes to `deposit`; a retransmitted duplicate does not,
    /// but is confirmed all the same — the earlier confirmation may be
    /// the frame that was lost. `origin` gets the confirmation, or it is
    /// recorded when that is this host.
    fn deliver(&mut self, msg: Message, origin: String, deposit: impl FnOnce(&mut Self, Message)) {
        let (sender, seq, target) = (msg.from.clone(), msg.seq, msg.to.clone());
        if self.messenger.record_delivery(&msg) {
            deposit(self, msg);
        } else {
            self.out
                .log(format!("duplicate message {seq} for {target}"));
        }
        let (host, now) = (self.out.host(), self.out.now());
        if origin == host {
            self.messenger.record_confirmation(sender, seq, host, now);
        } else {
            let delivered_at = host.to_string();
            let confirm = Wire::PostConfirm {
                sender,
                seq,
                target,
                delivered_at,
            };
            self.out.send(origin, confirm);
        }
    }

    /// `id` was admitted at `dest`: what waited for it in the special
    /// mailbox here chases it there, each message confirmed to its own
    /// origin. (The mail it left unread travelled in its `Transfer`.)
    fn hand_on(&mut self, id: &NapletId, dest: &str) {
        for (mut m, origin) in self.messenger.drain_early(id) {
            m.forward_hops += 1;
            self.send_post(m, dest.to_string(), origin);
        }
    }

    /// §4.2 delivery cases at a receiving messenger.
    fn deliver_or_chase(&mut self, mut msg: Message, origin_host: String) {
        let target = msg.to.clone();
        if self.monitor.get(&target).is_some() {
            // case 1: resident — deposit or interrupt, and confirm
            self.deliver(msg, origin_host, |server, msg| match &msg.payload {
                Payload::System(verb) => server.apply_control(&target, verb),
                Payload::User(_) => {
                    if let Some(e) = server.monitor.get_mut(&target) {
                        e.mailbox.deposit(msg);
                        let depth = e.mailbox.len() as u64;
                        server.out.gauge("mailbox_depth", depth);
                    }
                }
            });
            return;
        }
        // whatever hint routed the chase here was stale
        self.locator.note_stale(&mut self.out);
        match self.manager.trace(&target) {
            Some(Some(next)) => {
                // case 2: it moved on — forward the chase, and refresh
                // our own cache with the footprint's fresher pointer
                let next = next.to_string();
                self.locator.put(target.clone(), &next, &mut self.out);
                if self.messenger.forward(&mut msg, &next, &mut self.out) {
                    self.send_post(msg, next, origin_host);
                }
            }
            _ => {
                // case 3: no record — it may not have arrived yet.
                // Forget the stale location so the next resolution
                // starts fresh.
                self.locator.invalidate(&target);
                self.stash(msg, origin_host);
            }
        }
    }

    // =====================================================================
    // Control (system messages)
    // =====================================================================

    fn apply_control(&mut self, id: &NapletId, verb: &ControlVerb) {
        match verb {
            ControlVerb::Terminate => {
                self.destroy_resident(id, "terminated by control message");
            }
            ControlVerb::Suspend => {
                if self.monitor.suspend(id) {
                    self.out.log(format!("SUSPEND {id}"));
                }
            }
            ControlVerb::Resume => {
                if self.monitor.resume(id) {
                    self.out.log(format!("RESUME {id}"));
                    self.out.after(0, LocalEvent::VisitDone { id: id.clone() });
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
                );
                if let Err(e) = ran {
                    self.out.log(format!("on_interrupt failed for {id}: {e}"));
                }
                self.monitor.restore(entry);
            }
        }
    }

    // =====================================================================
    // Destruction / completion
    // =====================================================================

    fn destroy_resident(&mut self, id: &NapletId, reason: &str) {
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
        );
        self.resources.release(id);
        self.out.log(format!("DESTROY {id}: {reason}"));
        self.journal.retire_naplet(id, &mut self.out);
        self.out.count("journeys.destroyed", 1);
        self.out.trace(Some(id), || TraceKind::JourneyDone {
            status: "destroyed".to_string(),
        });
        self.notify_home(id, NapletStatus::Destroyed, reason);
        self.dir_remove(id);
    }

    fn finish_journey(&mut self, naplet: Naplet, detail: &str, normal: bool) {
        let id = naplet.id().clone();
        self.out.log(format!("COMPLETE {id}"));
        let status = if normal {
            NapletStatus::Completed
        } else {
            NapletStatus::Destroyed
        };
        self.notify_home(&id, status, detail);
        self.dir_remove(&id);
        self.monitor.evict(&id);
        self.resources.release(&id);
        self.journal.retire_naplet(&id, &mut self.out);
        let label = if normal { "completed" } else { "destroyed" };
        self.out.count(
            if normal {
                "journeys.completed"
            } else {
                "journeys.destroyed"
            },
            1,
        );
        self.out.trace(Some(&id), || TraceKind::JourneyDone {
            status: label.to_string(),
        });
        self.completed.push((id, naplet.nav_log.clone()));
    }

    fn notify_home(&mut self, id: &NapletId, status: NapletStatus, detail: &str) {
        let host = self.out.host();
        if id.home() == host {
            self.note_status_at_home(id, status);
            self.manager
                .update_status(id, status, self.out.host(), self.out.now());
        } else {
            let notice = Wire::Notify {
                id: id.clone(),
                status,
                host: host.to_string(),
                detail: detail.to_string(),
            };
            self.out.send(id.home().to_string(), notice);
        }
    }

    // =====================================================================
    // Home-side leases
    // =====================================================================

    /// A life-cycle status reached this (home) server: terminal states
    /// end the lease and drop the creation record; anything else is a
    /// sign of life.
    fn note_status_at_home(&mut self, id: &NapletId, status: NapletStatus) {
        match status {
            NapletStatus::Completed
            | NapletStatus::Destroyed
            | NapletStatus::Parked
            | NapletStatus::Lost => {
                self.leases.release(id);
                let _ = self.journal.remove_creation(id);
            }
            _ => self.leases.renew(id, self.out.now()),
        }
    }

    /// Arm the next lease-expiry check for `id`.
    fn arm_lease_timer(&mut self, id: &NapletId) {
        let Some(policy) = &self.lease_policy else {
            return;
        };
        let check = LocalEvent::LeaseCheck { id: id.clone() };
        self.out.after(policy.duration_ms + 1, check);
    }

    /// A lease timer came due: either the lease was renewed in the
    /// meantime (re-arm for the remaining window) or the agent is
    /// orphaned — re-dispatch it from the creation record if the
    /// policy's budget allows, else declare it [`NapletStatus::Lost`].
    fn check_lease(&mut self, id: &NapletId) {
        let Some(policy) = self.lease_policy.clone() else {
            return;
        };
        let Some(lease) = self.leases.get(id) else {
            return; // released (terminal status) — nothing to watch
        };
        let now = self.out.now();
        let age = now.since(lease.last_renewed);
        if age <= policy.duration_ms {
            // renewed since the timer was armed: watch the rest of the
            // current window
            let check = LocalEvent::LeaseCheck { id: id.clone() };
            self.out.after(policy.duration_ms - age + 1, check);
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
                    self.out.count("lease.probes", 1);
                    self.out
                        .log(format!("LEASE probe {attempt} for {id} via {holder}"));
                    let token = self.query_directory(holder, id.clone(), None);
                    // in case this replica is the dead one
                    self.locator.rotate();
                    let key = token ^ 0x4c50_524f_4245u64;
                    let delay_ms = self.retry.jittered_backoff_ms(key, attempt);
                    let check = LocalEvent::LeaseCheck { id: id.clone() };
                    self.out.after(delay_ms, check);
                    return;
                }
            } else {
                *probes = 0;
            }
        }
        self.leases.expired += 1;
        self.out.log(format!(
            "LEASE expired for {id} ({age}ms without sign of life)"
        ));
        let creation = self.journal.creation(id);
        let can_redispatch =
            policy.redispatch && lease.redispatches < policy.max_redispatches && creation.is_some();
        self.out.count("lease.expired", 1);
        self.out.trace(Some(id), || TraceKind::LeaseExpired {
            redispatched: can_redispatch,
        });
        if can_redispatch {
            let naplet = creation.unwrap();
            self.leases.note_redispatch(id, now);
            self.leases.redispatched += 1;
            self.out.count("lease.redispatched", 1);
            self.out.log(format!(
                "REDISPATCH {id} from creation record (attempt {})",
                lease.redispatches + 1
            ));
            self.manager.record_launch(id.clone(), self.out.host(), now);
            self.manager.record_arrival(id, None, now);
            self.arm_lease_timer(id);
            self.continue_journey(naplet, Mailbox::new());
        } else {
            self.leases.lost += 1;
            self.leases.release(id);
            let _ = self.journal.remove_creation(id);
            self.manager
                .update_status(id, NapletStatus::Lost, self.out.host(), now);
            self.out
                .log(format!("LOST {id}: lease expired, no re-dispatch"));
        }
    }

    /// A directory replica answered a lease probe. A registration
    /// fresher than the lease window counts as a sign of life (the
    /// commit echo to this home was merely lost); a stale or missing
    /// entry is an authoritative verdict — stop probing so the pending
    /// [`LocalEvent::LeaseCheck`] runs the ordinary expiry path.
    fn resolve_lease_probe(&mut self, id: NapletId, entry: Option<(String, DirEvent, Millis)>) {
        let now = self.out.now();
        let (Some(policy), Some(probes)) = (&self.lease_policy, self.leases.probes(&id)) else {
            return; // released in the meantime
        };
        let fresh = entry
            .as_ref()
            .is_some_and(|(_, _, at)| now.since(*at) <= policy.duration_ms);
        if fresh {
            *probes = 0;
            self.leases.renew(&id, now);
            self.out.count("lease.probe_confirmed", 1);
            self.out.log(format!("LEASE probe confirmed {id} alive"));
        } else {
            *probes = self.retry.max_retries;
            self.out.count("lease.probe_stale", 1);
            self.out
                .log(format!("LEASE probe found no recent movement for {id}"));
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
        self.out.at(now);
        // consensus state first: term, vote and the replicated log are
        // durable — a rejoining replica must not regress its promises
        self.locator.recover(&self.journal, &mut self.out);
        // dedup + token state first: nothing replayed below may admit
        // a duplicate or reuse a pre-crash transfer id
        for ((origin, transfer_id), at, refused) in self.journal.seen() {
            self.navigator
                .note_verdict(&origin, transfer_id, at, refused);
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
            let replayed = |phase: &str| TraceKind::RecoveryReplayed {
                phase: phase.to_string(),
            };
            match record.phase {
                JournalPhase::Parked => {
                    self.out.log(format!("RECOVER parked {id}"));
                    self.out.trace(Some(&id), || replayed("parked"));
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
                        self.out.trace(Some(&id), || replayed("resident-applied"));
                        self.out
                            .log(format!("RECOVER resident {id} (visit applied)"));
                        self.monitor.admit(naplet, None, RunState::VisitDone, now);
                        self.register_movement(&id, DirEvent::Arrival, None);
                        self.out.after(0, LocalEvent::VisitDone { id: id.clone() });
                    } else {
                        // admitted but never run: re-run through the
                        // normal registration gate
                        self.out.trace(Some(&id), || replayed("resident-rerun"));
                        self.out
                            .log(format!("RECOVER resident {id} (re-running visit)"));
                        self.monitor
                            .admit(naplet, action, RunState::AwaitingArrivalAck, now);
                        self.register_movement(&id, DirEvent::Arrival, Some(1));
                    }
                }
                JournalPhase::InFlight {
                    transfer_id,
                    ref dest,
                    ..
                } => {
                    self.recovery.handoffs_resumed += 1;
                    resumed += 1;
                    self.out.trace(Some(&id), || replayed("in-flight"));
                    self.out.log(format!(
                        "RECOVER in-flight {id} -> {dest} (transfer {transfer_id})"
                    ));
                    // an immediate timeout re-drives the handoff: the
                    // ordinary handler retransmits the current phase's
                    // frame or fails over — no recovery-special paths
                    self.navigator.restore(agent, record.phase, &mut self.out);
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
                self.manager.record_launch(id.clone(), self.out.host(), now);
                self.leases.grant(&id, now);
                self.arm_lease_timer(&id);
            }
        }
        self.out.log(format!("RECOVER complete: {local} naplet(s)"));
        self.out.count("recovery.replays", 1);
        self.out.count("recovery.rehydrated", local);
        self.out.trace(None, || TraceKind::RecoveryDone {
            rehydrated: local,
            suppressed,
            resumed,
        });
        self.out.take()
    }

    /// The journey of `id` ended: remove its directory entry, wherever
    /// that is held.
    fn dir_remove(&mut self, id: &NapletId) {
        let wire = Wire::DirRemove { id: id.clone() };
        match self.locator.holder(id) {
            Holder::Nowhere => {}
            Holder::Here => drop(self.file(wire)),
            Holder::At(host) => {
                let host = host.to_string();
                self.out.send(host, wire);
            }
        }
    }
}
