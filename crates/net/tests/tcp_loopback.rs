//! TCP ↔ in-process parity and fault-recovery integration tests.
//!
//! The contract under test: for arbitrary wire messages, the TCP
//! backend delivers [`Frame`]s byte-identical to what the in-process
//! fabric delivers — same payload, same names, same class — and a
//! peer that restarts (new process, same address) is transparently
//! re-reached by the writer's reconnect backoff.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use proptest::collection::vec;
use proptest::prelude::*;

use naplet_net::tcp::{TcpConfig, TcpTransport};
use naplet_net::{Bandwidth, Fabric, Frame, LatencyModel, ThreadedNet, TrafficClass, Transport};

fn class_strategy() -> impl Strategy<Value = TrafficClass> {
    prop_oneof![
        Just(TrafficClass::Migration),
        Just(TrafficClass::Code),
        Just(TrafficClass::Message),
        Just(TrafficClass::Control),
        Just(TrafficClass::Snmp),
        Just(TrafficClass::Other),
    ]
}

/// One threaded net and one TCP pair shared by all generated cases —
/// the parity property is per frame, so reusing the sockets keeps the
/// cases fast.
struct Harness {
    threaded: ThreadedNet,
    threaded_rx: Receiver<Frame>,
    tcp_a: TcpTransport,
    _tcp_b: TcpTransport,
    tcp_rx: Receiver<Frame>,
}

unsafe impl Sync for Harness {}

fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let fabric = Fabric::new(LatencyModel::Constant(0), Bandwidth(None), 7);
        let threaded = ThreadedNet::start(fabric, 0);
        let _src = threaded.register("src");
        let threaded_rx = threaded.register("dst");
        let tcp_a = TcpTransport::start(TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            BTreeMap::new(),
        ))
        .unwrap();
        let tcp_b = TcpTransport::start(TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            BTreeMap::new(),
        ))
        .unwrap();
        tcp_a.add_peer("dst", tcp_b.local_addr()).unwrap();
        let tcp_rx = tcp_b.register("dst");
        Harness {
            threaded,
            threaded_rx,
            tcp_a,
            _tcp_b: tcp_b,
            tcp_rx,
        }
    })
}

proptest! {
    /// A generated round of frames, sent one by one or queued and then
    /// flushed together, arrives over TCP as over the fabric.
    #[test]
    fn tcp_delivers_byte_identical_frames_to_the_fabric(
        round in vec((class_strategy(), vec(any::<u8>(), 0..2048)), 1..8),
        held in any::<bool>(),
    ) {
        let h = harness();
        let sent: Vec<Frame> = round
            .into_iter()
            .map(|(class, payload)| Frame::new("src", "dst", class, payload))
            .collect();

        for frame in &sent {
            h.threaded.send(frame.clone()).unwrap();
            if held {
                h.tcp_a.queue(frame.clone()).unwrap();
            } else {
                h.tcp_a.send(frame.clone()).unwrap();
            }
        }
        h.tcp_a.flush();

        for sent in &sent {
            let via_fabric = h
                .threaded_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("fabric delivery");
            let via_tcp = h
                .tcp_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("tcp delivery");
            // both backends must hand the receiver the identical frame…
            prop_assert_eq!(&via_tcp, &via_fabric);
            prop_assert_eq!(&via_tcp, sent);
            // …and agree byte for byte on the wire encoding
            prop_assert_eq!(via_tcp.encode().to_vec(), sent.encode().to_vec());
            prop_assert_eq!(via_tcp.wire_len(), sent.wire_len());
        }
    }
}

/// A peer process that dies and comes back on the same address is
/// re-reached: sends during the outage are counted drops (the
/// reliability layer's retransmissions absorb them), and the first
/// send past the reconnect backoff lands on the restarted listener.
#[test]
fn reconnects_after_peer_restart() {
    let sender = TcpTransport::start(TcpConfig {
        connect_timeout_ms: 200,
        reconnect_base_ms: 50,
        reconnect_max_ms: 400,
        ..TcpConfig::new("127.0.0.1:0".parse().unwrap(), BTreeMap::new())
    })
    .unwrap();

    // incarnation one of the peer
    let peer1 = TcpTransport::start(TcpConfig::new(
        "127.0.0.1:0".parse().unwrap(),
        BTreeMap::new(),
    ))
    .unwrap();
    let addr = peer1.local_addr();
    sender.add_peer("peer", addr).unwrap();
    let rx1 = peer1.register("peer");

    let frame = |n: u8| Frame::new("me", "peer", TrafficClass::Message, vec![n]);
    sender.send(frame(1)).unwrap();
    assert_eq!(
        &rx1.recv_timeout(Duration::from_secs(5)).unwrap().payload[..],
        &[1],
        "pre-restart delivery"
    );

    // the peer process dies
    drop(rx1);
    drop(peer1);
    std::thread::sleep(Duration::from_millis(50));

    // sends during the outage become counted drops, never panics (the
    // first write after a peer death can still land in the socket
    // buffer before the RST arrives, so keep sending as the
    // reliability layer would)
    let drops_before = sender.stats().snapshot().dropped;
    let deadline = Instant::now() + Duration::from_secs(5);
    while sender.stats().snapshot().dropped == drops_before && Instant::now() < deadline {
        sender.send(frame(2)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        sender.stats().snapshot().dropped > drops_before,
        "outage send must be a counted drop"
    );

    // incarnation two on the very same address
    let peer2 = TcpTransport::start(TcpConfig::new(addr, BTreeMap::new())).unwrap();
    let rx2 = peer2.register("peer");

    // keep retransmitting like the reliability layer would; the writer
    // reconnects once its backoff window has passed
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut delivered = None;
    while Instant::now() < deadline {
        sender.send(frame(3)).unwrap();
        if let Ok(f) = rx2.recv_timeout(Duration::from_millis(100)) {
            delivered = Some(f);
            break;
        }
    }
    let f = delivered.expect("a retransmission reached the restarted peer");
    assert_eq!(&f.payload[..], &[3]);
    assert_eq!(f.from, "me");
}
