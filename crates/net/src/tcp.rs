//! Real-socket transport: length-prefixed [`Frame`]s over TCP.
//!
//! [`TcpTransport`] is the multi-process deployment shape of the
//! paper: one `napletd` process per host, each hosting one
//! NapletServer, exchanging the already-byte-stable [`Frame`] codec
//! over persistent per-peer connections. The design mirrors the
//! in-process fabric's fault semantics so the reliable-transfer layer
//! above needs no changes:
//!
//! * every fault — an unreachable peer, a mid-write connection drop, a
//!   reset, a short read, a malformed or oversized length prefix — is
//!   a *counted drop* in [`NetStats`], never a panic, exactly like an
//!   injected fault-schedule loss on the fabric;
//! * outbound connections are persistent and reconnect on drop with
//!   the capped, deterministically-jittered backoff of
//!   [`crate::backoff`] (the same machinery the acknowledgement timers
//!   use), so a restarted peer is re-reached by the very next
//!   retransmission after the backoff window;
//! * frames arrive byte-identical to what was sent — the loopback
//!   parity suite holds this transport to the in-process fabric frame
//!   for frame.
//!
//! Peers are static (the cluster-bootstrap config's peer list);
//! discovery is future work tracked in ROADMAP.md.
//!
//! # Threads
//!
//! **Who writes.** [`Transport::queue`] holds a remote frame on its
//! peer's queue; [`Transport::flush`] writes each peer's queue in one
//! non-blocking write on the caller's thread (in a daemon, the node's,
//! once per round), and [`TcpTransport::send`] is both for one frame. A
//! frame is metered once it is fully written. What the socket does not
//! take, and what is flushed while there is no connection, is handed to
//! the peer's own thread. It takes the connection out of the shared
//! state while it writes all of it in one blocking `write_all` under the
//! write deadline; frames flushed meanwhile are handed to it next, so
//! each peer's frames keep their order and the caller never waits.
//!
//! **Who dials.** Only the peer thread, lazily, when a frame is handed
//! to it and there is no connection. Frames it finds queued inside the
//! backoff window are counted drops; a failed dial or write, on either
//! route, counts its frames and arms the next window in
//! [`PeerState::give_up`] and nowhere else, which also counts what is
//! still queued when a peer is re-pointed or the transport dropped.
//!
//! **What blocks on what, and how it stops.** A peer thread sleeps on
//! its condition variable until frames are left to it or the peer is
//! closed. The acceptor sleeps in `accept`; dropping the transport
//! raises the stop flag and connects to its own listener to wake it.
//! A reader sleeps in `read`; the acceptor shuts each inbound socket
//! down on its way out. Nothing polls, and `Drop` joins every thread.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use naplet_core::error::{NapletError, Result};

use crate::backoff::jittered_backoff_ms;
use crate::frame::Frame;
use crate::stats::{NetStats, TrafficClass};
use crate::transport::Transport;

/// Static configuration of one TCP transport endpoint.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Address to listen on (`0.0.0.0:port`, or port `0` for tests).
    pub listen: SocketAddr,
    /// Static peer list: node name → address.
    pub peers: BTreeMap<String, SocketAddr>,
    /// Reject frames whose length prefix claims a body larger than
    /// this (a malformed or hostile peer costs one drop, not a hang).
    pub max_frame_bytes: usize,
    /// Timeout for one outbound connection attempt.
    pub connect_timeout_ms: u64,
    /// Deadline for one write by the peer's thread: a peer that accepted
    /// the connection but stopped draining it (wedged process, full socket
    /// buffers) would stall it forever; with it the frames are counted
    /// drops and the peer re-dials after the backoff. `0` disables it.
    pub write_timeout_ms: u64,
    /// First-attempt reconnect backoff (doubles per failed attempt).
    pub reconnect_base_ms: u64,
    /// Reconnect backoff cap.
    pub reconnect_max_ms: u64,
}

impl TcpConfig {
    /// Config listening on `listen` with the given peer list and
    /// defaults for everything else.
    pub fn new(listen: SocketAddr, peers: BTreeMap<String, SocketAddr>) -> TcpConfig {
        TcpConfig {
            listen,
            peers,
            max_frame_bytes: 16 * 1024 * 1024,
            connect_timeout_ms: 500,
            write_timeout_ms: 2_000,
            reconnect_base_ms: 100,
            reconnect_max_ms: 3_200,
        }
    }
}

type Registry = Mutex<HashMap<String, Sender<Frame>>>;

struct Shared {
    registry: Registry,
    /// Peers holding frames for the next flush.
    held: Mutex<Vec<Arc<Peer>>>,
    stats: NetStats,
    stop: AtomicBool,
    config: TcpConfig,
}

/// A live TCP transport: one listener, persistent per-peer outbound
/// connections, shared [`NetStats`].
pub struct TcpTransport {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    peers: Mutex<HashMap<String, Arc<Peer>>>,
    acceptor: Option<JoinHandle<()>>,
    peer_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Bind the listener and start the accept loop plus one thread per
    /// configured peer. With port `0` the OS picks; see
    /// [`TcpTransport::local_addr`].
    pub fn start(config: TcpConfig) -> Result<TcpTransport> {
        let listener = TcpListener::bind(config.listen)
            .map_err(|e| NapletError::Internal(format!("bind {}: {e}", config.listen)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NapletError::Internal(format!("local_addr: {e}")))?;
        let shared = Arc::new(Shared {
            registry: Mutex::new(HashMap::new()),
            held: Mutex::new(Vec::new()),
            stats: NetStats::new(),
            stop: AtomicBool::new(false),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("naplet-tcp-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| NapletError::Internal(format!("spawn accept thread: {e}")))?;
        let transport = TcpTransport {
            shared: Arc::clone(&shared),
            local_addr,
            peers: Mutex::new(HashMap::new()),
            acceptor: Some(acceptor),
            peer_threads: Mutex::new(Vec::new()),
        };
        for (name, addr) in &shared.config.peers {
            transport.add_peer(name, *addr)?;
        }
        Ok(transport)
    }

    /// The bound listen address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Register a local endpoint; inbound frames addressed to `host`
    /// arrive on the returned receiver.
    pub fn register(&self, host: &str) -> Receiver<Frame> {
        let (tx, rx) = unbounded();
        self.shared.registry.lock().insert(host.to_string(), tx);
        rx
    }

    /// [`Transport::queue`] and a flush of the frame's peer, so it leaves
    /// at once behind what that peer held. `Err` only for destinations in
    /// neither the local registry nor the peer list.
    pub fn send(&self, frame: Frame) -> Result<bool> {
        let Some((peer, frame)) = self.route(frame)? else {
            return Ok(true);
        };
        let queued = peer.queue(frame, &self.shared, false);
        peer.flush(&self.shared);
        Ok(queued)
    }

    /// Deliver `frame` to a local endpoint (free and unmetered, like the
    /// fabric's local delivery), or hand it back with its peer.
    fn route(&self, frame: Frame) -> Result<Option<(Arc<Peer>, Frame)>> {
        if let Some(tx) = self.shared.registry.lock().get(&frame.to) {
            let _ = tx.send(frame);
            return Ok(None);
        }
        let Some(peer) = self.peers.lock().get(&frame.to).cloned() else {
            let unknown = format!("unknown destination host `{}`", frame.to);
            return Err(NapletError::NotFound(unknown));
        };
        Ok(Some((peer, frame)))
    }

    /// Shared transport statistics.
    pub fn stats(&self) -> &NetStats {
        &self.shared.stats
    }

    /// Add (or re-point) an outbound peer, with its thread. Used at
    /// start, by tests and by drivers that learn addresses late.
    pub fn add_peer(&self, name: &str, addr: SocketAddr) -> Result<()> {
        let peer = Arc::new(Peer {
            state: std::sync::Mutex::new(PeerState {
                conn: None,
                queue: VecDeque::new(),
                head_sent: 0,
                handed: false,
                scratch: Vec::new(),
                jitter_key: name_key(name),
                attempt: 0,
                next_attempt: Instant::now(),
                closed: false,
            }),
            wake: Condvar::new(),
        });
        if let Some(replaced) = self
            .peers
            .lock()
            .insert(name.to_string(), Arc::clone(&peer))
        {
            replaced.close();
        }
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("naplet-tcp-peer-{name}"))
            .spawn(move || peer_loop(&peer, addr, &shared))
            .map_err(|e| NapletError::Internal(format!("spawn peer thread: {e}")))?;
        self.peer_threads.lock().push(handle);
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn register(&self, host: &str) -> Receiver<Frame> {
        TcpTransport::register(self, host)
    }

    fn send(&self, frame: Frame) -> Result<bool> {
        TcpTransport::send(self, frame)
    }

    fn queue(&self, frame: Frame) -> Result<bool> {
        let routed = self.route(frame)?;
        Ok(routed.is_none_or(|(peer, frame)| peer.queue(frame, &self.shared, true)))
    }

    fn flush(&self) {
        let held = std::mem::take(&mut *self.shared.held.lock());
        held.iter().for_each(|peer| peer.flush(&self.shared));
    }

    fn stats(&self) -> &NetStats {
        TcpTransport::stats(self)
    }

    fn fetch(&self, from: &str, to: &str, class: TrafficClass, bytes: u64) -> Result<Option<u64>> {
        // a real fetch has no modelled delay; meter the bytes so code
        // traffic still shows in the per-class accounting
        self.shared.stats.record(from, to, class, bytes, 0);
        Ok(Some(0))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for (_, peer) in self.peers.lock().drain() {
            peer.close();
        }
        // the acceptor sleeps in `accept`: a connection to our own
        // listener wakes it to see the flag (a wildcard listen address
        // is reached through loopback)
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        // an acceptor that cannot be woken is left behind rather than
        // hanging the drop
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
            }
        }
        for handle in self.peer_threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Stable per-peer jitter key so concurrent reconnect loops
/// de-synchronize deterministically (FNV-1a over the peer name).
fn name_key(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    // every live reader, with a second handle on its socket so the
    // socket can be shut down under it at stop
    let mut readers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                readers.retain(|(_, reader)| !reader.is_finished());
                let Ok(socket) = stream.try_clone() else {
                    continue;
                };
                let conn_shared = Arc::clone(&shared);
                if let Ok(reader) = std::thread::Builder::new()
                    .name("naplet-tcp-read".into())
                    .spawn(move || reader_loop(stream, conn_shared))
                {
                    readers.push((socket, reader));
                }
            }
            // out of descriptors or the like: wait for it to pass
            // rather than spin on the error
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for (socket, reader) in readers {
        let _ = socket.shutdown(Shutdown::Both);
        let _ = reader.join();
    }
}

fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let mut buf = BytesMut::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF (or shut down at stop); data short of a full
                // frame is a counted loss
                if !buf.is_empty() {
                    shared.stats.record_drop();
                }
                return;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    match Frame::decode_limited(&mut buf, shared.config.max_frame_bytes) {
                        Ok(Some(frame)) => deliver(&shared, frame),
                        Ok(None) => break,
                        Err(_) => {
                            // malformed length prefix or body: count
                            // one drop and cut the connection — the
                            // stream cannot be resynchronized
                            shared.stats.record_drop();
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                // ECONNRESET and friends: fault-schedule-equivalent drop
                shared.stats.record_drop();
                return;
            }
        }
    }
}

fn deliver(shared: &Shared, frame: Frame) {
    let tx = shared.registry.lock().get(&frame.to).cloned();
    match tx {
        Some(tx) => {
            // a closed inbox means the endpoint's pump exited
            let _ = tx.send(frame);
        }
        None => shared.stats.record_drop(),
    }
}

/// One outbound peer: its connection and the frames waiting for a flush
/// or for its thread, shared between that thread and every sender.
struct Peer {
    state: std::sync::Mutex<PeerState>,
    /// Signalled when the queue is handed over or the peer is closed.
    wake: Condvar,
}

struct PeerState {
    /// The connected socket, non-blocking while it sits here. `None`
    /// both when there is no connection and while the peer thread has
    /// it out to write; either way a flush hands the queue over.
    conn: Option<TcpStream>,
    /// Frames not yet written, in queue order.
    queue: VecDeque<Frame>,
    /// Bytes of `queue[0]` a flush put on the wire before the socket
    /// pushed back; the peer thread writes the rest.
    head_sent: usize,
    /// A flush left the queue to the peer thread.
    handed: bool,
    /// Encode scratch for flushes, reused across rounds.
    scratch: Vec<u8>,
    jitter_key: u64,
    /// Consecutive failures since the last successful dial.
    attempt: u32,
    /// No dial before this instant; frames queued earlier are lost.
    next_attempt: Instant,
    /// The transport is going away or the peer was re-pointed.
    closed: bool,
}

impl PeerState {
    /// The one place a connection is given up, whichever thread found
    /// out: count the `lost` frames and everything still queued, forget
    /// the socket, arm the next reconnect window. The next send past the
    /// window re-dials the (possibly restarted) peer.
    fn give_up(&mut self, lost: usize, shared: &Shared) {
        shared.stats.record_drops((lost + self.queue.len()) as u64);
        self.queue.clear();
        self.handed = false;
        self.conn = None;
        self.attempt = self.attempt.saturating_add(1);
        let wait = jittered_backoff_ms(
            shared.config.reconnect_base_ms,
            shared.config.reconnect_max_ms,
            self.jitter_key,
            self.attempt,
        );
        self.next_attempt = Instant::now() + Duration::from_millis(wait);
    }
}

impl Peer {
    /// Every update leaves the state consistent between statements, so
    /// a panicked holder does not make it unusable.
    fn lock(&self) -> MutexGuard<'_, PeerState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_one();
    }

    /// Queue `frame`. With `hold` the peer is marked, under its lock, for
    /// the next transport flush, which so finds every held queue; `send`
    /// flushes the peer itself and leaves no mark that nothing drains. A
    /// closed peer takes nothing more: the frame is a counted drop.
    fn queue(self: &Arc<Peer>, frame: Frame, shared: &Shared, hold: bool) -> bool {
        let mut st = self.lock();
        if st.closed {
            shared.stats.record_drop();
            return false;
        }
        st.queue.push_back(frame);
        if hold && st.queue.len() == 1 {
            shared.held.lock().push(Arc::clone(self));
        }
        true
    }

    /// Encode everything queued and write it in one non-blocking write,
    /// metering each frame once it is fully written. What the socket
    /// does not take, or everything when there is no connection, is
    /// handed to the peer thread, which dials or finishes it under the
    /// write deadline.
    fn flush(&self, shared: &Shared) {
        let mut guard = self.lock();
        let st = &mut *guard;
        if st.handed || st.closed || st.queue.is_empty() {
            return;
        }
        let mut sent = 0;
        if let Some(conn) = st.conn.as_mut() {
            st.scratch.clear();
            for frame in &st.queue {
                frame.encode_into(&mut st.scratch);
            }
            sent = match conn.write(&st.scratch) {
                Ok(n) => n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
                Err(_) => return st.give_up(0, shared),
            };
        }
        while let Some(f) = st.queue.front().filter(|f| f.wire_len() as usize <= sent) {
            sent -= f.wire_len() as usize;
            shared
                .stats
                .record(&f.from, &f.to, f.class, f.wire_len(), 0);
            st.queue.pop_front();
        }
        if !st.queue.is_empty() {
            st.head_sent = sent;
            st.handed = true;
            drop(guard);
            self.wake.notify_one();
        }
    }
}

/// `write_all` with the socket switched to blocking, so that its write
/// deadline applies, and back to non-blocking for flushes. A peer
/// that accepted the connection but stopped draining it ends here as an
/// error instead of wedging the thread.
fn write_blocking(mut conn: &TcpStream, buf: &[u8]) -> std::io::Result<()> {
    conn.set_nonblocking(false)?;
    conn.write_all(buf)?;
    conn.set_nonblocking(true)
}

fn dial(addr: SocketAddr, config: &TcpConfig) -> std::io::Result<TcpStream> {
    let timeout = Duration::from_millis(config.connect_timeout_ms);
    let conn = TcpStream::connect_timeout(&addr, timeout)?;
    let _ = conn.set_nodelay(true);
    if config.write_timeout_ms > 0 {
        let deadline = Duration::from_millis(config.write_timeout_ms);
        let _ = conn.set_write_timeout(Some(deadline));
    }
    Ok(conn)
}

fn peer_loop(peer: &Peer, addr: SocketAddr, shared: &Shared) {
    // everything queued is encoded here and leaves in one write
    let mut bytes: Vec<u8> = Vec::new();
    let mut st = peer.lock();
    loop {
        while !st.handed && !st.closed {
            st = peer.wake.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.closed {
            // re-pointed or going away: the connection is given up for
            // good, and with it what is still queued
            return st.give_up(0, shared);
        }
        st.handed = false;
        let batch = std::mem::take(&mut st.queue);
        let skip = std::mem::take(&mut st.head_sent);
        // the connection stays out of the shared state while this
        // thread writes, so what is queued meanwhile is handed to it
        let conn = match st.conn.take() {
            Some(conn) => conn,
            None if Instant::now() < st.next_attempt => {
                // inside the backoff window: the frames are lost, the
                // reliability layer above will retransmit past it
                shared.stats.record_drops(batch.len() as u64);
                continue;
            }
            None => {
                drop(st);
                let dialled = dial(addr, &shared.config);
                st = peer.lock();
                let Ok(conn) = dialled else {
                    st.give_up(batch.len(), shared);
                    continue;
                };
                st.attempt = 0;
                conn
            }
        };
        drop(st);
        bytes.clear();
        for frame in &batch {
            frame.encode_into(&mut bytes);
        }
        let wrote = write_blocking(&conn, &bytes[skip..]);
        st = peer.lock();
        match wrote {
            Ok(()) => {
                for f in &batch {
                    shared
                        .stats
                        .record(&f.from, &f.to, f.class, f.wire_len(), 0);
                }
                st.conn = Some(conn);
            }
            // dropped mid-write, or the write deadline passed
            Err(_) => st.give_up(batch.len(), shared),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpTransport, TcpTransport) {
        // bootstrap two endpoints on OS-assigned ports, then teach
        // each the other's real address
        let a = TcpTransport::start(TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            BTreeMap::new(),
        ))
        .unwrap();
        let b = TcpTransport::start(TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            BTreeMap::new(),
        ))
        .unwrap();
        a.add_peer("b", b.local_addr()).unwrap();
        b.add_peer("a", a.local_addr()).unwrap();
        (a, b)
    }

    fn recv(rx: &Receiver<Frame>) -> Frame {
        rx.recv_timeout(Duration::from_secs(5)).expect("frame")
    }

    #[test]
    fn frames_cross_the_wire() {
        let (a, b) = pair();
        let _ain = a.register("a");
        let bin = b.register("b");
        a.send(Frame::new(
            "a",
            "b",
            TrafficClass::Migration,
            vec![1u8, 2, 3],
        ))
        .unwrap();
        let f = recv(&bin);
        assert_eq!(f.from, "a");
        assert_eq!(f.class, TrafficClass::Migration);
        assert_eq!(&f.payload[..], &[1, 2, 3]);
        // sender-side metering, fabric parity
        let snap = a.stats().snapshot();
        assert_eq!(snap.messages(TrafficClass::Migration), 1);
        assert_eq!(snap.bytes(TrafficClass::Migration), f.wire_len());
    }

    #[test]
    fn local_delivery_bypasses_the_socket() {
        let (a, _b) = pair();
        let ain = a.register("a");
        a.send(Frame::new("a", "a", TrafficClass::Message, vec![9u8]))
            .unwrap();
        assert_eq!(&recv(&ain).payload[..], &[9]);
        assert_eq!(a.stats().snapshot().total_messages(), 0, "unmetered");
    }

    #[test]
    fn unknown_destination_errors() {
        let (a, _b) = pair();
        assert!(a
            .send(Frame::new("a", "ghost", TrafficClass::Message, vec![]))
            .is_err());
    }

    #[test]
    fn unreachable_peer_counts_drops_not_panics() {
        let a = TcpTransport::start(TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            BTreeMap::new(),
        ))
        .unwrap();
        // a port nobody listens on
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        a.add_peer("void", addr).unwrap();
        a.send(Frame::new("a", "void", TrafficClass::Control, vec![1]))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.stats().snapshot().dropped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(a.stats().snapshot().dropped >= 1);
    }

    #[test]
    fn stalled_peer_write_times_out_and_counts_a_drop() {
        // a listener that never accepts: connections land in the
        // kernel backlog, so connect succeeds but nothing ever drains
        // the socket — without a write deadline the peer thread
        // wedges forever once the buffers fill
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sink.local_addr().unwrap();
        let config = TcpConfig {
            write_timeout_ms: 100,
            ..TcpConfig::new("127.0.0.1:0".parse().unwrap(), BTreeMap::new())
        };
        let a = TcpTransport::start(config).unwrap();
        a.add_peer("stall", addr).unwrap();
        // enough bytes to overrun loopback send+receive buffers
        let mut slowest_send = Duration::ZERO;
        for _ in 0..64 {
            let frame = Frame::new("a", "stall", TrafficClass::Message, vec![0u8; 256 * 1024]);
            let t0 = Instant::now();
            a.send(frame).unwrap();
            slowest_send = slowest_send.max(t0.elapsed());
        }
        assert!(
            slowest_send < Duration::from_millis(50),
            "a sender must never wait on a stalled peer; slowest send took {slowest_send:?}"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while a.stats().snapshot().dropped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            a.stats().snapshot().dropped >= 1,
            "write deadline must turn a stalled peer into counted drops"
        );
        // the peer thread armed its reconnect backoff instead of wedging:
        // dropping the transport joins every thread, so reaching the
        // end of this test at all proves the loop came back
        drop(a);
        drop(sink);
    }

    /// Whether `from`'s connection to `peer` is up and nothing is left
    /// to the peer thread, i.e. whether a flush writes on the caller's
    /// thread.
    fn flushes_directly(from: &TcpTransport, peer: &str) -> bool {
        let peer = Arc::clone(from.peers.lock().get(peer).expect("known peer"));
        let st = peer.lock();
        st.conn.is_some() && !st.handed
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn numbered(n: u32) -> Frame {
        Frame::new("a", "b", TrafficClass::Message, n.to_be_bytes().to_vec())
    }

    fn metered(t: &TcpTransport) -> u64 {
        t.stats().snapshot().messages(TrafficClass::Message)
    }

    /// A pair whose `a → b` connection is up and idle, and `b`'s inbox.
    fn connected() -> (TcpTransport, TcpTransport, Receiver<Frame>) {
        let (a, b) = pair();
        let bin = b.register("b");
        a.send(numbered(0)).unwrap();
        assert_eq!(recv(&bin), numbered(0));
        wait_until("the connection is handed back", || {
            flushes_directly(&a, "b")
        });
        (a, b, bin)
    }

    #[test]
    fn held_frames_stay_off_the_wire_until_one_flush_sends_them_in_order() {
        let (a, _b, bin) = connected();
        for n in 1..=50 {
            assert!(a.queue(numbered(n)).unwrap());
        }
        assert!(bin.recv_timeout(Duration::from_millis(100)).is_err());
        assert_eq!(metered(&a), 1, "nothing held is metered");
        a.flush();
        // an idle loopback socket takes them all at once, so each is
        // metered once before `flush` returns
        assert_eq!(metered(&a), 51);
        for n in 1..=50 {
            assert_eq!(recv(&bin), numbered(n));
        }
        a.flush();
        assert_eq!(metered(&a), 51, "a second flush has nothing to write");
        assert_eq!(a.stats().snapshot().dropped, 0);
    }

    #[test]
    fn a_send_after_held_frames_keeps_per_peer_order() {
        let (a, _b, bin) = connected();
        for n in 1..10 {
            a.queue(numbered(n)).unwrap();
        }
        a.send(numbered(10)).unwrap();
        for n in 1..=10 {
            assert_eq!(recv(&bin), numbered(n));
        }
        assert_eq!(metered(&a), 11);
    }

    #[test]
    fn send_order_holds_across_queued_and_direct_writes() {
        let (a, b) = pair();
        let bin = b.register("b");
        // no connection yet: these are left to the peer thread's dial
        assert!(!flushes_directly(&a, "b"));
        for n in 0..100 {
            a.send(numbered(n)).unwrap();
        }
        // once the peer thread has handed the connection back, sends
        // from this thread go straight to the socket
        wait_until("the queue has drained", || flushes_directly(&a, "b"));
        for n in 100..200 {
            a.send(numbered(n)).unwrap();
            assert!(
                flushes_directly(&a, "b"),
                "frame {n} was left to the thread"
            );
        }
        // and leave no peer marked for a transport flush that may never come
        assert!(a.shared.held.lock().is_empty());
        // a frame big enough to overrun the socket buffer, held between
        // small ones, goes back to the peer thread part-written with the
        // small ones behind it, and so do frames queued after the flush
        for n in 200..250 {
            a.queue(numbered(n)).unwrap();
        }
        let big = Frame::new("a", "b", TrafficClass::Message, vec![7u8; 8 * 1024 * 1024]);
        a.queue(big).unwrap();
        for n in 250..300 {
            a.queue(numbered(n)).unwrap();
        }
        a.flush();
        for n in 300..350 {
            a.queue(numbered(n)).unwrap();
        }
        a.flush();
        let mut got = Vec::new();
        while got.len() < 350 {
            let f = recv(&bin);
            if f.payload.len() == 4 {
                got.push(u32::from_be_bytes(f.payload[..].try_into().unwrap()));
            } else {
                assert_eq!(got.len(), 250, "the big frame keeps its place");
                assert!(f.payload.len() == 8 * 1024 * 1024 && f.payload.iter().all(|b| *b == 7));
            }
        }
        assert_eq!(got, (0..350).collect::<Vec<u32>>());
        // a frame is metered after its write returns, which the receiver
        // does not wait for
        wait_until("every frame is metered", || metered(&a) == 351);
        assert_eq!(a.stats().snapshot().dropped, 0);
    }

    /// Re-pointing a peer whose thread is stuck writing to a host that
    /// never reads loses the frames queued behind the write: each is
    /// counted, as every other fault is.
    #[test]
    fn frames_queued_on_a_re_pointed_peer_are_counted_drops() {
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = TcpConfig {
            write_timeout_ms: 100,
            ..TcpConfig::new("127.0.0.1:0".parse().unwrap(), BTreeMap::new())
        };
        let a = TcpTransport::start(config).unwrap();
        a.add_peer("b", sink.local_addr().unwrap()).unwrap();
        let sent = 64;
        for _ in 0..sent {
            let frame = Frame::new("a", "b", TrafficClass::Message, vec![0u8; 256 * 1024]);
            a.send(frame).unwrap();
        }
        let b = TcpTransport::start(TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            BTreeMap::new(),
        ))
        .unwrap();
        a.add_peer("b", b.local_addr()).unwrap();
        let stats = a.shared.stats.clone();
        // dropping the transport joins every peer thread
        drop(a);
        let snap = stats.snapshot();
        assert_eq!(snap.messages(TrafficClass::Message) + snap.dropped, sent);
        drop(sink);
    }

    #[test]
    fn drop_joins_idle_peers_and_open_inbound_connections_promptly() {
        let (a, b) = pair();
        let ain = a.register("a");
        let bin = b.register("b");
        a.send(Frame::new("a", "b", TrafficClass::Message, vec![1u8]))
            .unwrap();
        b.send(Frame::new("b", "a", TrafficClass::Message, vec![2u8]))
            .unwrap();
        recv(&bin);
        recv(&ain);
        // `a` now has an idle connected peer thread, a reader blocked on
        // `b`'s connection and its acceptor; each holds the shared state
        let shared = Arc::clone(&a.shared);
        assert!(Arc::strong_count(&shared) >= 4);
        let t0 = Instant::now();
        drop(a);
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(200), "drop took {took:?}");
        assert_eq!(Arc::strong_count(&shared), 1, "a thread outlived the drop");
    }

    #[test]
    fn oversized_frame_is_dropped_and_connection_cut() {
        let config = TcpConfig {
            max_frame_bytes: 1024,
            ..TcpConfig::new("127.0.0.1:0".parse().unwrap(), BTreeMap::new())
        };
        let b = TcpTransport::start(config).unwrap();
        let bin = b.register("b");
        // raw client writes a malformed (huge) length prefix
        let mut raw = TcpStream::connect(b.local_addr()).unwrap();
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        raw.write_all(&[0u8; 64]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.stats().snapshot().dropped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(b.stats().snapshot().dropped, 1, "one counted drop");
        assert!(
            bin.recv_timeout(Duration::from_millis(100)).is_err(),
            "nothing delivered"
        );
        // a well-formed connection still works afterwards
        let f = Frame::new("x", "b", TrafficClass::Message, vec![5u8]);
        let mut ok = TcpStream::connect(b.local_addr()).unwrap();
        ok.write_all(&f.encode()).unwrap();
        assert_eq!(recv(&bin), f);
    }

    #[test]
    fn short_read_counts_a_drop() {
        let b = TcpTransport::start(TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            BTreeMap::new(),
        ))
        .unwrap();
        let _bin = b.register("b");
        let f = Frame::new("x", "b", TrafficClass::Message, vec![7u8; 100]);
        let encoded = f.encode();
        let mut raw = TcpStream::connect(b.local_addr()).unwrap();
        // half a frame, then a clean close: the truncated frame is lost
        raw.write_all(&encoded[..encoded.len() / 2]).unwrap();
        drop(raw);
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.stats().snapshot().dropped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(b.stats().snapshot().dropped, 1);
    }

    #[test]
    fn frame_to_unregistered_local_host_is_dropped() {
        let (a, b) = pair();
        let _ain = a.register("a");
        // "b" endpoint never registered on transport b
        a.send(Frame::new("a", "b", TrafficClass::Message, vec![1]))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.stats().snapshot().dropped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(b.stats().snapshot().dropped, 1);
    }
}
