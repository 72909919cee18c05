//! The one driver step: a [`NapletServer`] on a [`Link`].
//!
//! A server is a pure event handler. [`Host`] runs one, written once for
//! virtual time and the wall clock alike:
//!
//! * **receive** — adopt the trace context, trace `WireRecv`, `handle`;
//! * **enact** — `Send`, `Schedule`, `FetchCode`;
//! * **transmit** — stamp the context, count `wire.sent`, trace
//!   `WireSend`; on a loss count `wire.dropped` and trace `WireDrop`.
//!
//! Only the [`Link`] differs: its clock, its timers, how a wire travels
//! and how a code fetch is metered. [`Wall`] is the wall-clock link over
//! any [`Transport`], and a [`Node`] is a host on one: `LiveRuntime`'s
//! server threads ([`Node::run`]), its pre-start launch window, the
//! cluster harness's home node and the ops-plane station ([`Node::pump`]
//! / [`Node::wait`]). [`crate::runtime::SimRuntime`]'s hosts run on a
//! virtual link into one event queue.
//!
//! A node blocks on exactly one thing, its transport inbox, for no
//! longer than the earliest armed deadline. It works in rounds: the due
//! timers and up to `ROUND` waiting frames, handled back to back, then
//! one [`Link::flush`], so each peer's frames of the round leave
//! together. No public method returns with a frame still queued, and
//! nothing on the node's thread waits on a peer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crossbeam::channel::{Receiver, RecvTimeoutError};

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::id::NapletId;
use naplet_core::message::Payload;
use naplet_core::naplet::Naplet;
use naplet_core::tracectx::{CtxTable, TraceCtx};
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

/// The most frames a node handles before it flushes, so the most output
/// it holds from other hosts (why 8, not 64: docs/perf/pr42.md §6).
const ROUND: usize = 8;

/// What a link did with a wire: `Ok(bytes)` once it travels,
/// `Err(bytes)` when it was lost.
pub type Sent = Result<u64, u64>;

/// What a host's step needs from the world it runs in.
pub trait Link {
    /// The host's clock.
    fn now(&self) -> Millis;

    /// Hand `event` back to this host `delay_ms` from now.
    fn arm(&mut self, delay_ms: u64, event: LocalEvent);

    /// Put `wire` from `from` on its way to `to`, carrying `ctx`, and
    /// meter it (a retransmission too).
    fn send(&mut self, from: &str, to: &str, wire: Wire, ctx: Option<TraceCtx>) -> Sent;

    /// Meter a code fetch of `bytes` from `from` to `to`: the modelled
    /// delay, or `None` when the fetch was lost (a counted drop).
    fn fetch(&mut self, from: &str, to: &str, bytes: u64) -> Option<u64>;

    /// Put what `send` may have held on its way.
    fn flush(&mut self) {}
}

/// A server on a link: the one receive → handle → enact step.
pub struct Host<L> {
    /// The server itself; its tables stay inspectable (and its journal
    /// and policies settable) between steps.
    pub server: NapletServer,
    pub(crate) link: L,
    ctxs: CtxTable,
}

/// A host on the wall clock, over a transport.
pub type Node<T> = Host<Wall<T>>;

impl<L: Link> Host<L> {
    /// `server` on `link` as it stands, with nothing armed for it.
    pub(crate) fn on(link: L, server: NapletServer) -> Host<L> {
        let ctxs = CtxTable::new();
        Host { server, link, ctxs }
    }

    /// Build `config.host`'s server on `link`, recording into `obs`.
    /// A directory replica's consensus clock starts here: its first
    /// tick is armed now, the rest by the server's own outputs.
    pub(crate) fn boot(mut link: L, config: ServerConfig, obs: ObsSink) -> Host<L> {
        let mut server = NapletServer::new(config);
        server.set_obs(obs);
        if let Some(tick_ms) = server.arm_initial_repl_tick() {
            link.arm(tick_ms, LocalEvent::ReplTick);
        }
        Host::on(link, server)
    }

    /// The host's clock, in ms.
    pub fn now(&self) -> Millis {
        self.link.now()
    }

    /// Launch a naplet homed at this host: handshakes go out at once,
    /// acknowledgement timers are armed on the link.
    pub fn launch(&mut self, naplet: Naplet) {
        self.step(|server, now| server.launch(naplet, now));
        self.link.flush();
    }

    /// Post an owner/console message from this host to a naplet.
    pub fn owner_post(&mut self, to: NapletId, payload: Payload) {
        self.step(|server, now| server.owner_post(to, payload, now));
        self.link.flush();
    }

    /// Replay the server's write-ahead journal: retransmitted
    /// handshakes go out on the link, acknowledgement and lease timers
    /// are re-armed. A server whose journal cannot put its new life on
    /// record does not start, and nothing goes out.
    pub fn recover(&mut self) -> naplet_core::Result<RecoveryStats> {
        let outputs = self.server.recover(self.now())?;
        self.step(|_, _| outputs);
        self.link.flush();
        Ok(self.server.recovery_stats())
    }

    /// Send one wire value to `to`, stamped and traced like any send
    /// the server itself asks for.
    pub fn send(&mut self, to: &str, wire: Wire) {
        let now = self.now();
        self.transmit(to, wire, now);
        self.link.flush();
    }

    /// Handle a local event that came due.
    pub(crate) fn fire(&mut self, event: LocalEvent) {
        self.step(|server, now| server.handle(now, Input::Local(event)));
    }

    /// Receive a wire value that arrived from `from` carrying `ctx`.
    pub(crate) fn deliver(&mut self, from: String, wire: Wire, ctx: Option<&TraceCtx>) {
        self.arrive(&from, &wire, ctx);
        self.step(|server, now| server.handle(now, Input::Wire { from, wire }));
    }

    /// Adopt the context `wire` carried and trace its arrival.
    pub(crate) fn arrive(&mut self, from: &str, wire: &Wire, ctx: Option<&TraceCtx>) {
        let obs = self.server.obs();
        if let (true, Some(ctx)) = (obs.ctx_enabled(), ctx) {
            self.ctxs.adopt(ctx);
        }
        let (now, host) = (self.now(), self.server.host());
        obs.emit_ctx(now, host, wire.subject(), ctx, || TraceKind::WireRecv {
            from: from.to_string(),
            label: wire.label().to_string(),
        });
    }

    /// Count a wire lost on its way to `to` and trace the loss here.
    pub(crate) fn lost(
        &self,
        to: &str,
        label: &str,
        id: Option<&NapletId>,
        ctx: Option<&TraceCtx>,
    ) {
        let obs = self.server.obs();
        obs.metrics.incr("wire.dropped", 1);
        obs.emit_ctx(self.now(), self.server.host(), id, ctx, || {
            TraceKind::WireDrop {
                to: to.to_string(),
                label: label.to_string(),
            }
        });
    }

    /// Run one server call at the current time and enact its outputs.
    fn step(&mut self, call: impl FnOnce(&mut NapletServer, Millis) -> Vec<Output>) {
        let now = self.now();
        let outputs = call(&mut self.server, now);
        for output in outputs {
            match output {
                Output::Send { to, wire } => self.transmit(&to, wire, now),
                Output::Schedule { delay_ms, event } => self.link.arm(delay_ms, event),
                Output::FetchCode { from, bytes, id } => {
                    let host = self.server.host();
                    let delay = if bytes == 0 || from == host {
                        Some(0)
                    } else {
                        self.link.fetch(&from, host, bytes)
                    };
                    // a lost fetch is retried as an optimistic delivery
                    // a moment later, so the agent is not stranded
                    let event = LocalEvent::CodeReady { id };
                    self.link.arm(delay.unwrap_or(1), event);
                }
            }
        }
    }

    /// Stamp the trace context, put `wire` on the link, count and trace
    /// the send and, when the link lost it, the loss.
    fn transmit(&mut self, to: &str, wire: Wire, now: Millis) {
        let (host, obs) = (self.server.host(), self.server.obs());
        let (label, class, attempt) = (wire.label(), wire.traffic_class(), wire.retry_attempt());
        let id = wire.subject().cloned();
        // the context table is consulted only while a causal consumer
        // (tracer or flight recorder) is on, so the tracing-off hot
        // path allocates nothing extra
        let ctx = match &id {
            Some(id) if obs.ctx_enabled() => {
                Some(self.ctxs.on_send(&id.to_string(), host, wire.opens_hop()))
            }
            _ => None,
        };
        let sent = self.link.send(host, to, wire, ctx.clone());
        obs.metrics.incr("wire.sent", 1);
        let bytes = sent.unwrap_or_else(|bytes| bytes);
        obs.emit_ctx(now, host, id.as_ref(), ctx.as_ref(), || {
            let (to, label, class) = (to.to_string(), label.to_string(), class.label().to_string());
            TraceKind::WireSend {
                to,
                label,
                class,
                bytes,
                attempt,
            }
        });
        if sent.is_err() {
            self.lost(to, label, id.as_ref(), ctx.as_ref());
        }
    }
}

/// The wall-clock link: a transport, this host's inbox on it, its timer
/// heap and the epoch its clock counts from.
pub struct Wall<T: Transport> {
    net: Arc<T>,
    inbox: Receiver<Frame>,
    timers: Timers<LocalEvent>,
    epoch: Instant,
}

impl<T: Transport> Link for Wall<T> {
    fn now(&self) -> Millis {
        Millis(self.epoch.elapsed().as_millis() as u64)
    }

    fn arm(&mut self, delay_ms: u64, event: LocalEvent) {
        self.timers.arm_in(delay_ms, event);
    }

    fn send(&mut self, from: &str, to: &str, wire: Wire, ctx: Option<TraceCtx>) -> Sent {
        let stats = self.net.stats();
        if wire.retry_attempt() > 1 {
            stats.record_retransmit();
        }
        // sizing is a counting walk (O(1) over a Transfer's cached
        // image), so the frame's own buffer is allocated once, exactly,
        // and encoded into
        let mut payload = Vec::new();
        let encoded = codec::encoded_size(&wire).and_then(|size| {
            payload.reserve_exact(size as usize);
            codec::to_bytes_into(&wire, &mut payload)
        });
        if encoded.is_err() {
            stats.record_drop();
            return Err(0);
        }
        let frame = Frame::new(from, to, wire.traffic_class(), payload).with_ctx(ctx);
        let bytes = frame.wire_len();
        match self.net.queue(frame) {
            Ok(true) => Ok(bytes),
            _ => Err(bytes),
        }
    }

    fn fetch(&mut self, from: &str, to: &str, bytes: u64) -> Option<u64> {
        self.net
            .fetch(from, to, TrafficClass::Code, bytes)
            .unwrap_or(Some(0))
    }

    fn flush(&mut self) {
        self.net.flush();
    }
}

impl<T: Transport> Node<T> {
    /// Register `config.host` on `net` and build its server, recording
    /// into `obs` and reading time as ms since `epoch`.
    pub fn new(net: Arc<T>, config: ServerConfig, obs: ObsSink, epoch: Instant) -> Node<T> {
        let inbox = net.register(&config.host);
        let link = Wall {
            net,
            inbox,
            timers: Timers::default(),
            epoch,
        };
        Host::boot(link, config, obs)
    }

    /// The transport this node sends on (stats, peer control).
    pub fn transport(&self) -> &T {
        &self.link.net
    }

    /// Handle everything that is ready — due timers and delivered
    /// frames — without blocking, round after round.
    pub fn pump(&mut self) {
        while self.round(None) {}
    }

    /// Sleep on the inbox for the first input — a frame, the earliest
    /// armed timer coming due (no sleep at all when one is due already)
    /// or `until` passing; indefinitely when there is neither a timer
    /// nor an `until` — then run a round. Returns `false` once the
    /// endpoint has been registered again and the old inbox is
    /// drained (see [`Transport::register`]): nothing will arrive here
    /// any more.
    pub fn wait(&mut self, until: Option<Instant>) -> bool {
        let now = Instant::now();
        let until = until.map(|at| at.saturating_duration_since(now));
        let sleep = match (self.link.timers.until_next(now), until) {
            (Some(timer), Some(until)) => Some(timer.min(until)),
            (timer, until) => timer.or(until),
        };
        let inbox = &self.link.inbox;
        let received = match sleep {
            Some(sleep) => inbox.recv_timeout(sleep),
            None => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        if received == Err(RecvTimeoutError::Disconnected) {
            return false;
        }
        self.round(received.ok());
        true
    }

    /// Serve until `stop` is raised or the endpoint is registered
    /// again, then hand the server back for inspection. A thread
    /// sleeping in here without a deadline is woken by the second.
    pub fn run(mut self, stop: &AtomicBool) -> NapletServer {
        while !stop.load(Ordering::SeqCst) && self.wait(None) {}
        self.server
    }

    /// Run a round: due timers, re-checked before every frame so a
    /// backlog cannot hold a deadline up, and frames (`first`, then the
    /// inbox's) until `ROUND` or an empty inbox, then the flush. `true`
    /// when the round ended full, so more may be waiting.
    fn round(&mut self, mut first: Option<Frame>) -> bool {
        let mut handled = 0;
        while handled < ROUND {
            self.fire_due();
            let Some(frame) = first.take().or_else(|| self.link.inbox.try_recv().ok()) else {
                break;
            };
            self.receive(frame);
            handled += 1;
        }
        self.link.flush();
        handled == ROUND
    }

    /// A timer armed while firing waits for the next call, so a
    /// self-rearming event cannot starve the inbox.
    fn fire_due(&mut self) {
        let due_by = Instant::now();
        while let Some(event) = self.link.timers.pop_due(due_by) {
            self.sync();
            self.fire(event);
        }
    }

    /// Decode a frame and deliver it. A frame that does not decode is
    /// lost like any other fault: a counted drop, not a silent one.
    fn receive(&mut self, frame: Frame) {
        let Ok(wire) = codec::from_bytes::<Wire>(&frame.payload) else {
            self.link.net.stats().record_drop();
            self.server.obs().metrics.incr("wire.dropped", 1);
            return;
        };
        self.sync();
        self.deliver(frame.from, wire, frame.ctx.as_ref());
    }

    /// Keep the transport's fault schedules in step with the clock.
    fn sync(&self) {
        self.link.net.set_now(self.now().0);
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
    use naplet_net::{Bandwidth, Fabric, LatencyModel, TcpConfig, TcpTransport, ThreadedNet};
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
            assert_eq!(counters.get(refused), Some(&1), "{what} refusal counted");
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
        a.link.timers.arm(Instant::now(), LocalEvent::ReplTick);
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

    fn counter(obs: &ObsSink, name: &str) -> u64 {
        let counters = obs.metrics.snapshot().counters;
        counters.get(name).copied().unwrap_or(0)
    }

    /// A frame whose payload is no wire value is lost like any other
    /// fault: a drop in the transport's stats and in `wire.dropped`.
    #[test]
    fn an_undecodable_frame_is_a_counted_drop() {
        let net = net();
        let obs = ObsSink::default();
        let mut a = node(&net, "a", &obs);
        let _b = net.register("b");
        let garbage = Frame::new("b", "a", TrafficClass::Message, vec![0xff; 8]);
        assert!(net.send(garbage).unwrap());
        a.pump();
        assert_eq!(net.fabric().stats().snapshot().dropped, 1);
        assert_eq!(counter(&obs, "wire.dropped"), 1);
    }

    /// A `Post` whose body is a list nested 20 000 deep, 40 KB on the
    /// wire, is refused at the codec's nesting bound: a counted drop,
    /// not a stack overflow that aborts the daemon, and the node goes
    /// on answering.
    #[test]
    fn a_post_nested_20000_deep_is_a_counted_drop_and_the_node_keeps_serving() {
        use naplet_core::message::{Message, Sender};
        use naplet_core::value::Value;

        let net = net();
        let obs = ObsSink::default();
        let mut a = node(&net, "a", &obs);
        let mut b = node(&net, "b", &obs);
        let id = NapletId::new("u", "a", Millis(1)).unwrap();
        let marker = Value::Str("deep".into());
        let msg = Message::user(1, Sender::Owner("b".into()), id, Millis(1), marker.clone());
        let origin_host = "b".to_string();
        let post = codec::to_bytes(&Wire::Post { msg, origin_host }).unwrap();
        let marker = codec::to_bytes(&marker).unwrap();
        let at = post
            .windows(marker.len())
            .position(|w| w == marker)
            .unwrap();
        let mut deep = [6u8, 1].repeat(20_000); // `Value::List` of one
        deep.push(0); // `Value::Nil`
        let frame = [&post[..at], &deep, &post[at + marker.len()..]].concat();
        assert!(frame.len() > 40_000);
        assert!(net
            .send(Frame::new("b", "a", TrafficClass::Message, frame))
            .unwrap());
        a.pump();
        assert_eq!(net.fabric().stats().snapshot().dropped, 1);
        assert_eq!(counter(&obs, "wire.dropped"), 1);
        b.send("a", status_request(1, "b"));
        a.pump();
        b.pump();
        assert_eq!(b.server.ops_replies.len(), 1, "a still answers");
    }

    /// A code fetch the fabric loses still wakes the waiting naplet: the
    /// loss is counted and `CodeReady` fires a moment later.
    #[test]
    fn a_lost_code_fetch_still_delivers_code_ready() {
        let net = net();
        let obs = ObsSink::default();
        obs.enable_profiling();
        let mut a = node(&net, "a", &obs);
        let _b = net.register("b");
        net.fabric().cut_link("a", "b");
        let id = NapletId::new("czxu", "b", Millis(1)).unwrap();
        a.step(|_, _| {
            vec![Output::FetchCode {
                from: "b".into(),
                bytes: 64,
                id,
            }]
        });
        assert_eq!(
            net.fabric().stats().snapshot().dropped,
            1,
            "the loss is counted"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let code_ready = |obs: &ObsSink| {
            let snapshot = obs.metrics.snapshot();
            snapshot
                .histogram("handler_us.CodeReady")
                .map_or(0, |h| h.total)
        };
        while code_ready(&obs) == 0 {
            assert!(Instant::now() < deadline, "CodeReady never fired");
            a.wait(Some(deadline));
        }
    }

    /// Nodes `a` and `b`, each on its own TCP transport and recording
    /// into its own sink, that know each other's address.
    fn tcp_pair() -> [(Node<TcpTransport>, ObsSink); 2] {
        tcp_pair_in(LocationMode::ForwardingTrace)
    }

    /// [`tcp_pair`] under `mode`.
    fn tcp_pair_in(mode: LocationMode) -> [(Node<TcpTransport>, ObsSink); 2] {
        let listen = || TcpConfig::new("127.0.0.1:0".parse().unwrap(), Default::default());
        let nets = [(); 2].map(|_| Arc::new(TcpTransport::start(listen()).unwrap()));
        nets[0].add_peer("b", nets[1].local_addr()).unwrap();
        nets[1].add_peer("a", nets[0].local_addr()).unwrap();
        let [a, b] = nets;
        [(a, "a"), (b, "b")].map(|(net, host)| {
            let (config, obs) = (ServerConfig::open(host, mode.clone()), ObsSink::default());
            (Node::new(net, config, obs.clone(), Instant::now()), obs)
        })
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    /// `a` asks `b` for a status report, and `b` answers it in one call
    /// to `wait`: the reply is flushed before `wait` returns, so `a`
    /// gets it with `b` never called again.
    fn round_trip(
        a: &mut Node<TcpTransport>,
        b: &mut Node<TcpTransport>,
        b_obs: &ObsSink,
        token: u64,
    ) {
        let deadline = deadline();
        a.send("b", status_request(token, "a"));
        while counter(b_obs, "status.probes") < token {
            assert!(Instant::now() < deadline, "b never got request {token}");
            b.wait(Some(deadline));
        }
        while (a.server.ops_replies.len() as u64) < token {
            assert!(Instant::now() < deadline, "reply {token} never reached a");
            a.wait(Some(deadline));
        }
    }

    #[test]
    fn a_reply_made_in_wait_reaches_the_asker_without_another_call() {
        let [(mut a, _), (mut b, b_obs)] = tcp_pair();
        // the first round trip dials both connections, the second runs
        // on them
        for token in 1..=2 {
            round_trip(&mut a, &mut b, &b_obs, token);
        }
    }

    /// Once the connection is up, every wire `send` and `launch` put on
    /// it is written, and metered, before they return.
    #[test]
    fn launch_and_send_leave_nothing_queued() {
        use naplet_core::itinerary::{Itinerary, Pattern};
        use naplet_core::naplet::AgentKind;

        let [(mut a, a_obs), (mut b, b_obs)] = tcp_pair();
        round_trip(&mut a, &mut b, &b_obs, 1);
        let metered = |a: &Node<TcpTransport>| a.transport().stats().snapshot().total_messages();
        let sent = || counter(&a_obs, "wire.sent");
        // the first request went out through the peer thread's dial,
        // which meters it after its write returns
        let deadline = deadline();
        while metered(&a) < sent() {
            assert!(
                Instant::now() < deadline,
                "the dialled write was never metered"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        a.send("b", status_request(2, "a"));
        assert_eq!((metered(&a), sent()), (2, 2));
        let key = SigningKey::new("t", b"k");
        let it = Itinerary::new(Pattern::seq_of_hosts(&["b"], None)).unwrap();
        let naplet = Naplet::create(
            &key,
            "t",
            "a",
            Millis(0),
            "greeter",
            AgentKind::Native,
            it,
            vec![],
        )
        .unwrap();
        a.launch(naplet);
        assert!(sent() > 2, "the launch sent its transfer");
        assert_eq!(metered(&a), sent());
    }

    /// A launch at a home that holds the directory entry registers the
    /// arrival as the Transfer leaves: the DirAck goes out right behind
    /// it, on the same connection, so the destination reads the agent
    /// first and its ack second, and the visit opens on the ack.
    #[test]
    fn a_launch_from_home_delivers_the_transfer_then_the_dir_ack() {
        use naplet_core::itinerary::{Itinerary, Pattern};
        use naplet_core::naplet::AgentKind;
        use naplet_obs::TraceKind;

        let [(mut a, _), (mut b, b_obs)] = tcp_pair_in(LocationMode::HomeManagers);
        round_trip(&mut a, &mut b, &b_obs, 1);
        b_obs.enable_tracing();
        let key = SigningKey::new("t", b"k");
        let it = Itinerary::new(Pattern::seq_of_hosts(&["b"], None)).unwrap();
        let kind = AgentKind::Native;
        let naplet = Naplet::create(&key, "t", "a", Millis(0), "greeter", kind, it, vec![]);
        a.launch(naplet.unwrap());
        let deadline = deadline();
        let acked = |obs: &ObsSink| {
            let mut events = obs.tracer.events().into_iter();
            events.any(|e| matches!(e.kind, TraceKind::RegisterAcked { .. }))
        };
        while !acked(&b_obs) {
            assert!(Instant::now() < deadline, "the visit never opened");
            b.wait(Some(deadline));
        }
        let received: Vec<String> = (b_obs.tracer.events().into_iter())
            .filter_map(|e| match e.kind {
                TraceKind::WireRecv { from, label } if from == "a" => Some(label),
                _ => None,
            })
            .collect();
        assert_eq!(received, ["Transfer", "DirAck"]);
        let opened = b_obs
            .tracer
            .events()
            .into_iter()
            .find_map(|e| match e.kind {
                TraceKind::RegisterAcked { forced, .. } => Some(forced),
                _ => None,
            });
        assert_eq!(opened, Some(false), "opened by the ack, not the timer");
    }

    /// A flood of requests larger than a round: each round's replies
    /// are on the wire before the next round reads the inbox.
    #[test]
    fn a_flood_is_answered_round_by_round() {
        let [(mut a, _), (mut b, b_obs)] = tcp_pair();
        round_trip(&mut a, &mut b, &b_obs, 1);
        // requests to itself are delivered to b's inbox at once; their
        // replies go to a over the connection the round trip left up
        let flood = 3 * ROUND as u64;
        for token in 0..flood {
            b.send("b", status_request(100 + token, "a"));
        }
        let deadline = deadline();
        for full in 1..=3 {
            assert!(b.round(None), "round {full} ended full");
            while a.server.ops_replies.len() < 1 + full * ROUND {
                assert!(
                    Instant::now() < deadline,
                    "round {full}'s replies were held"
                );
                a.wait(Some(deadline));
            }
            assert_eq!(a.server.ops_replies.len(), 1 + full * ROUND);
        }
        assert!(!b.round(None), "the inbox is drained");
        assert_eq!(counter(&b_obs, "status.probes"), 1 + flood);
    }
}
