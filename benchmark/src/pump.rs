//! The load generator's building block: one hand-pumped `NapletServer`.
//!
//! [`Pumped`] drives a server through nothing but the public
//! `launch`/`handle`/`Transport` API — the same inputs and the same
//! output enactment as `LiveRuntime`'s server thread, minus the thread.
//! One struct serves every workload: over `TcpTransport` it is the home
//! node of a real daemon cluster, over `ThreadedNet` the home node of
//! an in-process space, and four (or more) of them joined by
//! [`QueueNet`] under a virtual clock are the single-threaded layer
//! pump of the traced run. Every call into a product layer goes
//! through [`trace::span`], which records only while tracing is on.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::error::{NapletError, Result};
use naplet_core::id::NapletId;
use naplet_core::message::Payload;
use naplet_core::naplet::Naplet;
use naplet_net::{Frame, NetStats, TrafficClass, Transport};
use naplet_server::{Input, LocalEvent, NapletServer, Output, ServerConfig, Wire};

use crate::trace::{self, Layer};

/// Where a pumped server reads time from, in microseconds.
#[derive(Clone)]
pub enum Clock {
    /// Wall clock since the given instant (real transports).
    Wall(Instant),
    /// A counter the layer pump advances when every server is idle.
    Virtual(Arc<AtomicU64>),
}

impl Clock {
    pub fn now_us(&self) -> u64 {
        match self {
            Clock::Wall(epoch) => epoch.elapsed().as_micros() as u64,
            Clock::Virtual(us) => us.load(Ordering::Relaxed),
        }
    }
}

/// A transport handle several owners can hold: `LiveRuntime::over`
/// takes its transport by value, and the home node needs the same one.
pub struct Shared<T>(pub Arc<T>);

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: Transport> Transport for Shared<T> {
    fn register(&self, host: &str) -> Receiver<Frame> {
        self.0.register(host)
    }

    fn send(&self, frame: Frame) -> Result<bool> {
        self.0.send(frame)
    }

    fn stats(&self) -> &NetStats {
        self.0.stats()
    }

    fn set_now(&self, ms: u64) {
        self.0.set_now(ms);
    }

    fn fetch(&self, from: &str, to: &str, class: TrafficClass, bytes: u64) -> Result<Option<u64>> {
        self.0.fetch(from, to, class, bytes)
    }
}

/// The benchmark's own transport for the layer pump: every frame is
/// encoded to bytes and decoded again on the sender's thread — the work
/// a TCP writer and reader do, without sockets or threads — then queued
/// on the destination's inbox.
#[derive(Default)]
pub struct QueueNet {
    registry: Mutex<HashMap<String, Sender<Frame>>>,
    /// Only retransmissions are recorded here (the trait's contract);
    /// frames are counted in the two atomics, which cost no lock and no
    /// per-link key.
    stats: NetStats,
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl QueueNet {
    pub fn new() -> QueueNet {
        QueueNet::default()
    }

    /// Frames and wire bytes carried so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.frames.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

impl Transport for QueueNet {
    fn register(&self, host: &str) -> Receiver<Frame> {
        let (tx, rx) = unbounded();
        self.registry
            .lock()
            .expect("no thread panics holding the registry")
            .insert(host.to_string(), tx);
        rx
    }

    fn send(&self, frame: Frame) -> Result<bool> {
        let len = frame.wire_len();
        let mut buf = BytesMut::with_capacity(len as usize);
        trace::span(Layer::Frame, "encode", len as usize, || {
            frame.encode_into(&mut buf)
        });
        let decoded = trace::span(Layer::Frame, "decode", len as usize, || {
            Frame::decode_limited(&mut buf, 16 * 1024 * 1024)
        })?
        .ok_or_else(|| NapletError::Internal("frame did not survive its own encoding".into()))?;
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len, Ordering::Relaxed);
        let registry = self
            .registry
            .lock()
            .expect("no thread panics holding the registry");
        let tx = registry
            .get(&decoded.to)
            .ok_or_else(|| NapletError::NotFound(format!("unknown host `{}`", decoded.to)))?;
        // a closed inbox means that server was dropped; the frame is lost
        let _ = tx.send(decoded);
        Ok(true)
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn fetch(&self, _: &str, _: &str, _: TrafficClass, bytes: u64) -> Result<Option<u64>> {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok(Some(0))
    }
}

struct Timer {
    due_us: u64,
    seq: u64,
    event: LocalEvent,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        (self.due_us, self.seq) == (other.due_us, other.seq)
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_us, self.seq).cmp(&(other.due_us, other.seq))
    }
}

/// The journey a wire value belongs to, as a span label: the naplet's
/// creation stamp (the harness issues them from one counter).
fn journey_of(id: Option<&NapletId>) -> u32 {
    id.map_or(0, |id| id.created().0 as u32)
}

/// One `NapletServer` pumped by its caller over transport `T`.
pub struct Pumped<T: Transport> {
    /// The server itself: tables, reports and counters stay inspectable
    /// between pumps.
    pub server: NapletServer,
    host: String,
    net: T,
    rx: Receiver<Frame>,
    clock: Clock,
    timers: BinaryHeap<Reverse<Timer>>,
    timer_seq: u64,
    scratch: Vec<u8>,
    /// Wall time spent doing work (decode, handle, encode, send) as
    /// opposed to waiting for a frame.
    pub busy: Duration,
    /// Inputs handled so far (wire values and local events).
    pub handled: u64,
}

impl<T: Transport> Pumped<T> {
    /// Build the server from `config` and register its host on `net`.
    pub fn new(config: ServerConfig, net: T, clock: Clock) -> Pumped<T> {
        let host = config.host.clone();
        let rx = net.register(&host);
        let mut pumped = Pumped {
            server: NapletServer::new(config),
            host,
            net,
            rx,
            clock,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            scratch: Vec::new(),
            busy: Duration::ZERO,
            handled: 0,
        };
        // a directory replica needs its consensus clock running before
        // any input arrives, or no leader is ever elected
        if let Some(tick_ms) = pumped.server.arm_initial_repl_tick() {
            pumped.schedule(tick_ms, LocalEvent::ReplTick);
        }
        pumped
    }

    pub fn net(&self) -> &T {
        &self.net
    }

    fn now(&self) -> Millis {
        Millis(self.clock.now_us() / 1000)
    }

    fn schedule(&mut self, delay_ms: u64, event: LocalEvent) {
        self.timer_seq += 1;
        self.timers.push(Reverse(Timer {
            due_us: self.clock.now_us() + delay_ms * 1000,
            seq: self.timer_seq,
            event,
        }));
    }

    /// When the earliest armed timer comes due, in clock microseconds.
    pub fn next_due_us(&self) -> Option<u64> {
        self.timers.peek().map(|Reverse(t)| t.due_us)
    }

    /// Launch `naplet` from this (its home) server.
    pub fn launch(&mut self, naplet: Naplet) {
        let t0 = Instant::now();
        let now = self.now();
        trace::set_journey(journey_of(Some(naplet.id())));
        let outputs = trace::span(Layer::Handle, "Launch", 0, || {
            self.server.launch(naplet, now)
        });
        self.enact(outputs);
        self.busy += t0.elapsed();
    }

    /// Post an owner message to `to` through the post-office protocol.
    pub fn owner_post(&mut self, to: NapletId, payload: Payload) {
        let t0 = Instant::now();
        let now = self.now();
        trace::set_journey(journey_of(Some(&to)));
        let outputs = trace::span(Layer::Handle, "OwnerPost", 0, || {
            self.server.owner_post(to, payload, now)
        });
        self.enact(outputs);
        self.busy += t0.elapsed();
    }

    /// One pump round: handle every frame that has arrived and every
    /// timer that is due. Returns how many inputs were handled.
    pub fn pump(&mut self) -> usize {
        let t0 = Instant::now();
        let mut n = 0;
        while let Ok(frame) = self.rx.try_recv() {
            self.on_frame(frame);
            n += 1;
        }
        n += self.fire_due();
        if n > 0 {
            self.busy += t0.elapsed();
            self.handled += n as u64;
        }
        n
    }

    /// Block until a frame arrives, the next timer is due, or `max`
    /// passes, then run one pump round. Wall-clock transports only.
    pub fn wait(&mut self, max: Duration) -> usize {
        let until_timer = self
            .next_due_us()
            .map(|due| Duration::from_micros(due.saturating_sub(self.clock.now_us())));
        let timeout = until_timer.map_or(max, |d| d.min(max));
        if let Ok(frame) = self.rx.recv_timeout(timeout) {
            let t0 = Instant::now();
            self.on_frame(frame);
            self.busy += t0.elapsed();
            self.handled += 1;
            return 1 + self.pump();
        }
        self.pump()
    }

    fn fire_due(&mut self) -> usize {
        let mut n = 0;
        while self
            .next_due_us()
            .is_some_and(|due| due <= self.clock.now_us())
        {
            let Reverse(timer) = self.timers.pop().expect("peeked above");
            let now = self.now();
            let label = timer.event.label();
            trace::set_journey(match &timer.event {
                LocalEvent::VisitDone { id }
                | LocalEvent::CodeReady { id }
                | LocalEvent::RegisterTimeout { id, .. }
                | LocalEvent::LeaseCheck { id } => journey_of(Some(id)),
                _ => 0,
            });
            let outputs = trace::span(Layer::Handle, label, 0, || {
                self.server.handle(now, Input::Local(timer.event))
            });
            self.enact(outputs);
            n += 1;
        }
        n
    }

    fn on_frame(&mut self, frame: Frame) {
        let len = frame.payload.len();
        let decoded = trace::span(Layer::Codec, "decode", len, || {
            codec::from_bytes::<Wire>(&frame.payload)
        });
        // a corrupt frame is dropped, as the live server loop does
        let Ok(wire) = decoded else { return };
        let now = self.now();
        trace::set_journey(journey_of(wire.subject()));
        let label = wire.label();
        let from = frame.from;
        let outputs = trace::span(Layer::Handle, label, len, || {
            self.server.handle(now, Input::Wire { from, wire })
        });
        self.enact(outputs);
    }

    fn enact(&mut self, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::Send { to, wire } => {
                    if wire.retry_attempt() > 1 {
                        self.net.stats().record_retransmit();
                    }
                    if let Some(id) = wire.subject() {
                        trace::set_journey(journey_of(Some(id)));
                    }
                    let scratch = &mut self.scratch;
                    let encoded = trace::span_sized(Layer::Codec, "encode", || {
                        let r = codec::to_bytes_into(&wire, scratch);
                        (r, scratch.len())
                    });
                    if encoded.is_ok() {
                        let (host, net, scratch) = (&self.host, &self.net, &self.scratch);
                        // framing the payload and handing it over is the
                        // transport's share; an unknown destination is a
                        // harness bug, not load
                        trace::span(Layer::Transport, "send", scratch.len(), || {
                            let frame =
                                Frame::new(host, &to, wire.traffic_class(), scratch.clone());
                            net.send(frame)
                        })
                        .unwrap_or_else(|e| panic!("{host}: send to {to}: {e}"));
                    }
                }
                Output::Schedule { delay_ms, event } => self.schedule(delay_ms, event),
                Output::FetchCode { from, bytes, id } => {
                    let delay = self
                        .net
                        .fetch(&from, &self.host, TrafficClass::Code, bytes)
                        .ok()
                        .flatten()
                        .unwrap_or(0);
                    self.schedule(delay, LocalEvent::CodeReady { id });
                }
            }
        }
    }
}
