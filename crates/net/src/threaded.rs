//! Live threaded transport.
//!
//! [`ThreadedNet`] runs the fabric with real concurrency: every virtual
//! host owns a crossbeam channel, and a timer thread applies the
//! modelled link delay (scaled by a configurable factor) before
//! delivering each frame. This is the "autonomously running servers"
//! deployment shape of the paper; the deterministic discrete-event
//! runtime in `naplet-server` is the measurement shape.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use naplet_core::error::{NapletError, Result};

use crate::fabric::Fabric;
use crate::frame::Frame;

enum TimerCmd {
    Deliver { due: Instant, frame: Frame },
    Shutdown,
}

type Registry = Arc<Mutex<HashMap<String, Sender<Frame>>>>;

/// A live, threaded network over a [`Fabric`].
pub struct ThreadedNet {
    fabric: Fabric,
    registry: Registry,
    timer_tx: Sender<TimerCmd>,
    timer: Option<JoinHandle<()>>,
    /// Real microseconds of sleep per modelled millisecond of delay.
    /// `0` delivers immediately (tests), `1000` is real time.
    us_per_ms: u64,
}

impl ThreadedNet {
    /// Start a threaded net over `fabric`. `us_per_ms` scales modelled
    /// delay into real sleep (0 = immediate delivery).
    pub fn start(fabric: Fabric, us_per_ms: u64) -> ThreadedNet {
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let (timer_tx, timer_rx) = unbounded::<TimerCmd>();
        let reg = Arc::clone(&registry);
        let timer = std::thread::Builder::new()
            .name("naplet-net-timer".into())
            .spawn(move || timer_loop(timer_rx, reg))
            .expect("spawn timer thread");
        ThreadedNet {
            fabric,
            registry,
            timer_tx,
            timer: Some(timer),
            us_per_ms,
        }
    }

    /// The underlying fabric (topology control, stats).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Register a host and obtain its inbox.
    pub fn register(&self, host: &str) -> Receiver<Frame> {
        self.fabric.add_host(host);
        let (tx, rx) = unbounded();
        self.registry.lock().insert(host.to_string(), tx);
        rx
    }

    /// A modelled delay of `delay_ms` on this net's clock: scaled as
    /// [`ThreadedNet::send`] scales a frame's, rounded up to whole ms.
    pub(crate) fn scaled_ms(&self, delay_ms: u64) -> u64 {
        (delay_ms * self.us_per_ms).div_ceil(1000)
    }

    /// Send a frame. Returns `Ok(true)` when delivery was scheduled,
    /// `Ok(false)` when the fabric dropped it (loss/partition), and an
    /// error for unknown hosts.
    pub fn send(&self, frame: Frame) -> Result<bool> {
        let delay = self
            .fabric
            .transfer(&frame.from, &frame.to, frame.class, frame.wire_len())?;
        let Some(delay_ms) = delay else {
            return Ok(false);
        };
        let sleep_us = delay_ms * self.us_per_ms;
        if sleep_us == 0 {
            deliver(&self.registry, frame);
        } else {
            let due = Instant::now() + Duration::from_micros(sleep_us);
            self.timer_tx
                .send(TimerCmd::Deliver { due, frame })
                .map_err(|_| NapletError::Internal("timer thread gone".into()))?;
        }
        Ok(true)
    }
}

impl Drop for ThreadedNet {
    fn drop(&mut self) {
        let _ = self.timer_tx.send(TimerCmd::Shutdown);
        if let Some(h) = self.timer.take() {
            let _ = h.join();
        }
    }
}

fn deliver(registry: &Registry, frame: Frame) {
    let tx = registry.lock().get(&frame.to).cloned();
    if let Some(tx) = tx {
        // a closed inbox means the host handler exited; frame is lost
        let _ = tx.send(frame);
    }
}

fn timer_loop(rx: Receiver<TimerCmd>, registry: Registry) {
    // min-heap of (due, seq) with payloads kept alongside
    let mut heap: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut payloads: HashMap<u64, Frame> = HashMap::new();
    let mut seq = 0u64;
    loop {
        // deliver everything due
        let now = Instant::now();
        while let Some(&Reverse((due, s))) = heap.peek() {
            if due > now {
                break;
            }
            heap.pop();
            if let Some(frame) = payloads.remove(&s) {
                deliver(&registry, frame);
            }
        }
        // wait for the next command or the next due instant
        let timeout = heap
            .peek()
            .map(|&Reverse((due, _))| due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(TimerCmd::Deliver { due, frame }) => {
                heap.push(Reverse((due, seq)));
                payloads.insert(seq, frame);
                seq += 1;
            }
            Ok(TimerCmd::Shutdown) => return,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{Bandwidth, LatencyModel};
    use crate::stats::TrafficClass;

    fn net(latency_ms: u64, us_per_ms: u64) -> ThreadedNet {
        let fabric = Fabric::new(LatencyModel::Constant(latency_ms), Bandwidth(None), 3);
        ThreadedNet::start(fabric, us_per_ms)
    }

    #[test]
    fn immediate_delivery() {
        let net = net(5, 0);
        let _a = net.register("a");
        let b = net.register("b");
        assert!(net
            .send(Frame::new("a", "b", TrafficClass::Message, vec![1u8, 2]))
            .unwrap());
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(f.from, "a");
        assert_eq!(&f.payload[..], &[1, 2]);
    }

    #[test]
    fn delayed_delivery_orders_by_due_time() {
        let fabric = Fabric::new(LatencyModel::Constant(10), Bandwidth(None), 3);
        let net = ThreadedNet::start(fabric, 200); // 10ms modelled → 2ms real
        let _a = net.register("a");
        let b = net.register("b");
        let t0 = Instant::now();
        net.send(Frame::new("a", "b", TrafficClass::Message, vec![7u8]))
            .unwrap();
        let f = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(1),
            "should be delayed"
        );
        assert_eq!(&f.payload[..], &[7]);
    }

    #[test]
    fn drops_respect_fabric_state() {
        let net = net(1, 0);
        let _a = net.register("a");
        let b = net.register("b");
        net.fabric().cut_link("a", "b");
        assert!(!net
            .send(Frame::new("a", "b", TrafficClass::Message, vec![]))
            .unwrap());
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(net.fabric().stats().snapshot().dropped, 1);
    }

    #[test]
    fn unknown_destination_errors() {
        let net = net(1, 0);
        let _a = net.register("a");
        assert!(net
            .send(Frame::new("a", "ghost", TrafficClass::Message, vec![]))
            .is_err());
    }

    #[test]
    fn stats_metered_by_wire_len() {
        let net = net(1, 0);
        let _a = net.register("a");
        let _b = net.register("b");
        let frame = Frame::new("a", "b", TrafficClass::Code, vec![0u8; 100]);
        let expect = frame.wire_len();
        net.send(frame).unwrap();
        assert_eq!(
            net.fabric().stats().snapshot().bytes(TrafficClass::Code),
            expect
        );
    }

    #[test]
    fn concurrent_senders_all_deliver() {
        let net = Arc::new(net(1, 0));
        let hub = net.register("hub");
        let mut handles = Vec::new();
        for i in 0..8 {
            let net = Arc::clone(&net);
            let name = format!("w{i}");
            net.register(&name);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    net.send(Frame::new(&name, "hub", TrafficClass::Message, vec![1u8]))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while hub.recv_timeout(Duration::from_millis(200)).is_ok() {
            got += 1;
            if got == 400 {
                break;
            }
        }
        assert_eq!(got, 400);
    }
}
