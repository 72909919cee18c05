//! The one wall-clock driver: a [`NapletServer`] and everything it
//! needs to live on a [`Transport`].
//!
//! A server is a pure event handler — `handle(now, input) -> outputs`.
//! Something has to receive frames, decode them, read the clock, fire
//! timers, and turn outputs back into frames and armed timers. In
//! virtual time that is [`crate::runtime::SimRuntime`]; on a wall
//! clock it is [`Node`], for every caller: `LiveRuntime`'s server
//! threads ([`Node::run`]), its pre-start launch window, the cluster
//! harness's hand-pumped home node and the ops-plane station
//! ([`Node::pump`] / [`Node::wait`] on the caller's thread).
//!
//! A node is the only code that touches its server, its timer heap and
//! its trace-context table. It blocks on exactly one thing, its
//! transport inbox, for no longer than the earliest armed deadline:
//! a frame or a due timer wakes it, nothing else does. Sends happen on
//! the node's thread — [`Transport::send`] never waits on a peer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crossbeam::channel::{Receiver, RecvTimeoutError};

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::id::NapletId;
use naplet_core::message::Payload;
use naplet_core::naplet::Naplet;
use naplet_core::tracectx::CtxTable;
use naplet_net::{Frame, TrafficClass, Transport};
use naplet_obs::{ObsSink, TraceKind};

use crate::events::{Input, LocalEvent, Output, Wire};
use crate::journal::RecoveryStats;
use crate::server::{NapletServer, ServerConfig};
use crate::timers::Timers;

/// The UNIX time, in ms, at which `epoch` was taken — what anchors a
/// driver's since-epoch event clock to the timeline every daemon
/// shares, so recorder segments and metrics histories merge.
pub fn unix_ms_at(epoch: Instant) -> u64 {
    let unix_now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    unix_now.saturating_sub(epoch.elapsed().as_millis() as u64)
}

/// One server on a transport, driven in wall-clock time.
pub struct Node<T: Transport> {
    /// The server itself; its tables stay inspectable (and its journal
    /// and policies settable) between pumps.
    pub server: NapletServer,
    net: Arc<T>,
    inbox: Receiver<Frame>,
    timers: Timers<LocalEvent>,
    ctxs: CtxTable,
    epoch: Instant,
}

impl<T: Transport> Node<T> {
    /// Register `config.host` on `net` and build its server, recording
    /// into `obs` and reading time as ms since `epoch`.
    pub fn new(net: Arc<T>, config: ServerConfig, obs: ObsSink, epoch: Instant) -> Node<T> {
        let inbox = net.register(&config.host);
        let mut server = NapletServer::new(config);
        server.set_obs(obs);
        // directory replicas drive their consensus clock off a
        // self-rearming tick; the first one is armed here, the rest by
        // the server's own outputs
        let mut timers = Timers::default();
        if let Some(tick_ms) = server.arm_initial_repl_tick() {
            timers.arm_in(tick_ms, LocalEvent::ReplTick);
        }
        Node {
            server,
            net,
            inbox,
            timers,
            ctxs: CtxTable::new(),
            epoch,
        }
    }

    /// Wall-clock time since the node's epoch, in ms.
    pub fn now(&self) -> Millis {
        Millis(self.epoch.elapsed().as_millis() as u64)
    }

    /// The transport this node sends on (stats, peer control).
    pub fn transport(&self) -> &T {
        &self.net
    }

    /// Launch a naplet homed at this node: handshakes go out at once,
    /// acknowledgement timers wait in the node's heap.
    pub fn launch(&mut self, naplet: Naplet) {
        let now = self.now();
        let outputs = self.server.launch(naplet, now);
        self.enact(outputs, now);
    }

    /// Post an owner/console message from this node to a naplet.
    pub fn owner_post(&mut self, to: NapletId, payload: Payload) {
        let now = self.now();
        let outputs = self.server.owner_post(to, payload, now);
        self.enact(outputs, now);
    }

    /// Replay the server's write-ahead journal: retransmitted
    /// handshakes go out over the transport, acknowledgement and lease
    /// timers are re-armed.
    pub fn recover(&mut self) -> RecoveryStats {
        let now = self.now();
        let outputs = self.server.recover(now);
        self.enact(outputs, now);
        self.server.recovery_stats()
    }

    /// Send one wire value to `to`, stamped and traced like any send
    /// the server itself asks for.
    pub fn send(&mut self, to: &str, wire: Wire) {
        let now = self.now();
        self.transmit(to, wire, now);
    }

    /// Handle everything that is ready — due timers and delivered
    /// frames — without blocking. Due timers are re-checked before
    /// every frame, so a backlog cannot hold a deadline up.
    pub fn pump(&mut self) {
        loop {
            self.fire_due();
            let Ok(frame) = self.inbox.try_recv() else {
                return;
            };
            self.receive(frame);
        }
    }

    /// Fire what is due, then sleep on the inbox until a frame arrives
    /// (it is handled before returning), the earliest armed timer
    /// comes due, or `until` passes — indefinitely when there is
    /// neither a timer nor an `until`. Returns `false` once the
    /// endpoint has been registered again and the old inbox is
    /// drained (see [`Transport::register`]): nothing will arrive here
    /// any more.
    pub fn wait(&mut self, until: Option<Instant>) -> bool {
        self.fire_due();
        let now = Instant::now();
        let until = until.map(|at| at.saturating_duration_since(now));
        let sleep = match (self.timers.until_next(now), until) {
            (Some(timer), Some(until)) => Some(timer.min(until)),
            (timer, until) => timer.or(until),
        };
        let received = match sleep {
            Some(sleep) => self.inbox.recv_timeout(sleep),
            None => self
                .inbox
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
        };
        match received {
            Ok(frame) => self.receive(frame),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return false,
        }
        true
    }

    /// Serve until `stop` is raised or the endpoint is registered
    /// again, then hand the server back for inspection. A thread
    /// sleeping in here without a deadline is woken by the second.
    pub fn run(mut self, stop: &AtomicBool) -> NapletServer {
        while !stop.load(Ordering::SeqCst) && self.wait(None) {}
        self.server
    }

    /// A timer armed while firing waits for the next round, so a
    /// self-rearming event cannot starve the inbox.
    fn fire_due(&mut self) {
        let due_by = Instant::now();
        while let Some(event) = self.timers.pop_due(due_by) {
            let now = self.now();
            // keep fault schedules in step with wall-clock-since-epoch time
            self.net.set_now(now.0);
            let outputs = self.server.handle(now, Input::Local(event));
            self.enact(outputs, now);
        }
    }

    fn receive(&mut self, frame: Frame) {
        let Ok(wire) = codec::from_bytes::<Wire>(&frame.payload) else {
            return; // corrupt frame: drop
        };
        let now = self.now();
        self.net.set_now(now.0);
        let from = frame.from;
        let obs = self.server.obs();
        if obs.ctx_enabled() {
            if let Some(ctx) = &frame.ctx {
                self.ctxs.adopt(ctx);
            }
            obs.emit_ctx(
                now,
                self.server.host(),
                wire.subject(),
                frame.ctx.as_ref(),
                || TraceKind::WireRecv {
                    from: from.clone(),
                    label: wire.label().to_string(),
                },
            );
        }
        let outputs = self.server.handle(now, Input::Wire { from, wire });
        self.enact(outputs, now);
    }

    fn enact(&mut self, outputs: Vec<Output>, now: Millis) {
        for output in outputs {
            match output {
                Output::Send { to, wire } => self.transmit(&to, wire, now),
                Output::Schedule { delay_ms, event } => self.timers.arm_in(delay_ms, event),
                Output::FetchCode { from, bytes, id } => {
                    let delay = self
                        .net
                        .fetch(&from, self.server.host(), TrafficClass::Code, bytes)
                        .ok()
                        .flatten()
                        .unwrap_or(0);
                    self.timers.arm_in(delay, LocalEvent::CodeReady { id });
                }
            }
        }
    }

    fn transmit(&mut self, to: &str, wire: Wire, now: Millis) {
        let attempt = wire.retry_attempt();
        if attempt > 1 {
            self.net.stats().record_retransmit();
        }
        // sizing is a counting walk (O(1) over a Transfer's cached
        // image), so the frame's own buffer is allocated once, exactly,
        // and encoded into
        let Ok(size) = codec::encoded_size(&wire) else {
            return;
        };
        let mut payload = Vec::with_capacity(size as usize);
        if codec::to_bytes_into(&wire, &mut payload).is_err() {
            return;
        }
        let host = self.server.host();
        let mut frame = Frame::new(host, to, wire.traffic_class(), payload);
        let obs = self.server.obs();
        if obs.ctx_enabled() {
            let ctx = wire
                .subject()
                .map(|id| self.ctxs.on_send(&id.to_string(), host, wire.opens_hop()));
            frame = frame.with_ctx(ctx.clone());
            let bytes = frame.wire_len();
            obs.emit_ctx(now, host, wire.subject(), ctx.as_ref(), || {
                TraceKind::WireSend {
                    to: to.to_string(),
                    label: wire.label().to_string(),
                    class: wire.traffic_class().label().to_string(),
                    bytes,
                    attempt,
                }
            });
        }
        let _ = self.net.send(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{OpsPage, OpsRead};
    use crate::repl::ReplConfig;
    use crate::security::Policy;
    use crate::server::LocationMode;
    use naplet_core::credential::{Credential, SigningKey};
    use naplet_net::{Bandwidth, Fabric, LatencyModel, ThreadedNet};
    use std::time::Duration;

    /// A net that delivers at once: a sent frame is in the receiver's
    /// inbox when `send` returns.
    fn net() -> Arc<ThreadedNet> {
        let fabric = Fabric::new(LatencyModel::Constant(1), Bandwidth(None), 7);
        Arc::new(ThreadedNet::start(fabric, 0))
    }

    fn node(net: &Arc<ThreadedNet>, host: &str, obs: &ObsSink) -> Node<ThreadedNet> {
        let config = ServerConfig::open(host, LocationMode::ForwardingTrace);
        Node::new(Arc::clone(net), config, obs.clone(), Instant::now())
    }

    fn ops_request(token: u64, reply_to: &str, read: OpsRead) -> Wire {
        let key = SigningKey::new("ops", b"secret");
        let id = NapletId::new("ops", reply_to, Millis(1)).unwrap();
        Wire::OpsRequest {
            token,
            reply_to: reply_to.to_string(),
            credential: Credential::issue(&key, id, "ops-plane", vec![]),
            read,
        }
    }

    fn status_request(token: u64, reply_to: &str) -> Wire {
        ops_request(token, reply_to, OpsRead::Status)
    }

    /// How many `ReplTick`s servers recording into `obs` have handled
    /// (profiling keeps one latency histogram per event kind).
    fn ticks_handled(obs: &ObsSink) -> u64 {
        let snapshot = obs.metrics.snapshot();
        snapshot
            .histogram("handler_us.ReplTick")
            .map_or(0, |h| h.total)
    }

    /// One round trip per read kind, granted and then refused: the
    /// page that comes back is the kind that was asked for (`None` on
    /// refusal), the kind's own counter moves, and both directions are
    /// traced at both ends.
    #[test]
    fn send_and_pump_round_trip_each_kind_of_ops_read() {
        let page = OpsRead::Trace {
            from_seq: 0,
            max: 8,
        };
        let history = OpsRead::MetricsHistory {
            from_seq: 0,
            max: 8,
        };
        let cases = [
            (
                OpsRead::Status,
                "status.probes",
                "status.refused",
                "STATUS probe",
            ),
            (page, "trace.reads", "trace.refused", "TRACE read"),
            (history, "history.reads", "history.refused", "HISTORY read"),
        ];
        for (read, granted, refused, what) in cases {
            let net = net();
            let obs = ObsSink::default();
            obs.enable_tracing();
            let mut a = node(&net, "a", &obs);
            let mut b = node(&net, "b", &obs);
            let mut ask = |token: u64, a: &mut Node<ThreadedNet>| {
                b.send("a", ops_request(token, "b", read));
                a.pump();
                b.pump();
                let mut replies = std::mem::take(&mut b.server.ops_replies);
                assert_eq!(replies.len(), 1, "{what}");
                let (echoed, page) = replies.remove(0);
                assert_eq!(echoed, token);
                page
            };
            let host = match ask(7, &mut a).expect("an open policy grants the read") {
                OpsPage::Status(report) if read == OpsRead::Status => report.host,
                OpsPage::Trace(segment) if read == page => segment.host,
                OpsPage::MetricsHistory(samples) if read == history => samples.host,
                other => panic!("{what} answered with {other:?}"),
            };
            assert_eq!(host, "a");
            a.server.security_mut().set_policy(Policy::deny_all());
            assert_eq!(ask(8, &mut a), None, "{what} refused");
            let counters = obs.metrics.snapshot().counters;
            assert_eq!(counters.get(granted), Some(&1), "{what}");
            assert_eq!(counters.get(refused), Some(&1), "{what}");
            let refusal = format!("{what} from b refused");
            assert!(a.server.log().iter().any(|e| e.line.starts_with(&refusal)));
            let lines: Vec<String> = obs
                .tracer
                .events()
                .iter()
                .filter_map(|e| match &e.kind {
                    TraceKind::WireSend { label, .. } => Some(format!("{} send {label}", e.host)),
                    TraceKind::WireRecv { label, .. } => Some(format!("{} recv {label}", e.host)),
                    _ => None,
                })
                .collect();
            let one = [
                "b send OpsRequest",
                "a recv OpsRequest",
                "a send OpsReply",
                "b recv OpsReply",
            ];
            assert_eq!(lines, [one, one].concat(), "{what}");
        }
    }

    #[test]
    fn a_timer_due_while_frames_are_queued_fires_on_the_next_pump() {
        let net = net();
        let obs = ObsSink::default();
        obs.enable_profiling();
        let mut a = node(&net, "a", &obs);
        let mut b = node(&net, "b", &obs);
        for token in 0..3 {
            b.send("a", status_request(token, "b"));
        }
        // three frames wait in a's inbox when this comes due (a tick on
        // a host that is no replica does nothing but get counted)
        a.timers.arm(Instant::now(), LocalEvent::ReplTick);
        a.pump();
        assert_eq!(ticks_handled(&obs), 1, "the due timer fired");
        b.pump();
        assert_eq!(b.server.ops_replies.len(), 3, "and the backlog drained");
    }

    #[test]
    fn a_self_rearming_timer_does_not_starve_the_inbox_in_run() {
        let net = net();
        let obs = ObsSink::default();
        obs.enable_profiling();
        // a replica that can never win (its only peer does not exist)
        // and ticks every 0 ms: its ReplTick re-arms itself, already
        // due, every time it fires
        let replicas = vec!["a".to_string(), "nobody".to_string()];
        let mut config =
            ServerConfig::open("a", LocationMode::ReplicatedDirectory(replicas.clone()));
        config.repl = Some(ReplConfig {
            tick_ms: 0,
            ..ReplConfig::new(replicas)
        });
        let a = Node::new(Arc::clone(&net), config, obs.clone(), Instant::now());
        let stop = Arc::new(AtomicBool::new(false));
        let served = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || a.run(&stop))
        };

        // two round trips, one after the other: `a` must get to its
        // inbox between ticks
        let mut b = node(&net, "b", &ObsSink::default());
        let deadline = Instant::now() + Duration::from_secs(10);
        for token in 1..=2 {
            b.send("a", status_request(token, "b"));
            while b.server.ops_replies.len() < token as usize {
                assert!(Instant::now() < deadline, "status request {token} starved");
                b.wait(Some(deadline));
            }
        }
        assert!(ticks_handled(&obs) >= 2, "the tick chain kept firing");

        stop.store(true, Ordering::SeqCst);
        drop(net.register("a"));
        assert_eq!(served.join().unwrap().host(), "a");
    }

    #[test]
    fn registering_the_host_again_ends_wait_and_run() {
        let net = net();
        let obs = ObsSink::default();
        let mut a = node(&net, "a", &obs);
        let mut b = node(&net, "b", &obs);
        assert!(
            a.wait(Some(Instant::now())),
            "an idle inbox is not a closed one"
        );

        // what was delivered before the replacement is still handled
        b.send("a", status_request(1, "b"));
        drop(net.register("a"));
        assert!(a.wait(None));
        b.pump();
        assert_eq!(b.server.ops_replies.len(), 1);
        // then the inbox reads as closed, without blocking, and `run`
        // hands the server back though nobody raised `stop`
        assert!(!a.wait(None));
        let stop = AtomicBool::new(false);
        assert_eq!(a.run(&stop).host(), "a");

        // the same wakes a thread asleep in `run` with nothing armed
        let stop = Arc::new(AtomicBool::new(false));
        let served = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || b.run(&stop))
        };
        drop(net.register("b"));
        assert_eq!(served.join().unwrap().host(), "b");
    }
}
