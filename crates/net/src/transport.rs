//! The pluggable transport abstraction.
//!
//! Every live driver (the threaded `LiveRuntime` in `naplet-server`,
//! the `napletd` daemon) pumps frames through a [`Transport`] instead
//! of a concrete network, so the very same event-handler servers run
//! over the in-process fabric ([`crate::threaded::ThreadedNet`]) and
//! over real sockets ([`crate::tcp::TcpTransport`]) without a line of
//! server code changing. The sim's hosts take the same driver step on
//! a virtual link instead, which drives the fabric directly in virtual
//! time and moves wire values unencoded: simulation outputs stay
//! byte-identical however the live transports evolve.

use crossbeam::channel::Receiver;

use naplet_core::error::Result;

use crate::frame::Frame;
use crate::stats::{NetStats, TrafficClass};
use crate::threaded::ThreadedNet;

/// A live frame transport between named hosts.
///
/// Semantics shared by every backend:
///
/// * [`Transport::send`] returns `Ok(true)` when delivery was
///   scheduled, `Ok(false)` when the transport dropped the frame
///   (loss, partition, dead peer — the reliable-transfer layer above
///   retransmits), and `Err` only for frames addressed to a host the
///   transport has never heard of (a driver programming error);
/// * faults never panic the transport: a broken connection or an
///   injected loss becomes a counted drop in [`Transport::stats`];
/// * frames between two registered endpoints arrive byte-identical to
///   what was sent — the loopback parity suite in
///   `crates/net/tests/tcp_loopback.rs` holds the TCP backend to the
///   in-process fabric's behavior frame for frame.
pub trait Transport: Send + Sync + 'static {
    /// Register a local endpoint named `host` and obtain its inbox.
    /// Frames addressed to `host` arrive on the returned receiver.
    ///
    /// Registering a name again replaces the endpoint: the transport
    /// lets go of the previous inbox's sender, so whoever is blocked on
    /// that inbox drains what was already delivered and then sees it
    /// disconnect. Drivers stop a server thread this way instead of
    /// making it poll a flag.
    fn register(&self, host: &str) -> Receiver<Frame>;

    /// Send a frame toward `frame.to`. See the trait docs for the
    /// `Ok(true)` / `Ok(false)` / `Err` contract.
    fn send(&self, frame: Frame) -> Result<bool>;

    /// [`Transport::send`], except that the frame may wait for the next
    /// [`Transport::flush`], so that a peer's frames can leave together.
    /// Same contract; the default sends at once.
    fn queue(&self, frame: Frame) -> Result<bool> {
        self.send(frame)
    }

    /// Put every frame [`Transport::queue`] is holding on its way.
    fn flush(&self) {}

    /// Shared transport statistics (bytes by class, drops,
    /// retransmits, crash/recovery counters).
    fn stats(&self) -> &NetStats;

    /// Advance the transport's fault clock to `ms` since the driver's
    /// epoch. Fabric-backed transports evaluate scheduled fault
    /// windows against it; socket transports, whose faults are real,
    /// ignore it.
    fn set_now(&self, _ms: u64) {}

    /// Meter a bulk side-channel fetch (lazy code loading) of `bytes`
    /// from `from` to `to` and return the one-way delay to wait out, in
    /// real ms, or `Ok(None)` when the fetch was lost. The threaded net
    /// scales the modelled delay as it scales a frame's, rounded up to
    /// whole ms (0 when it delivers immediately). Socket transports
    /// return `Ok(Some(0))`: a real fetch has no modelled delay.
    fn fetch(&self, from: &str, to: &str, class: TrafficClass, bytes: u64) -> Result<Option<u64>>;
}

impl Transport for ThreadedNet {
    fn register(&self, host: &str) -> Receiver<Frame> {
        ThreadedNet::register(self, host)
    }

    fn send(&self, frame: Frame) -> Result<bool> {
        ThreadedNet::send(self, frame)
    }

    fn stats(&self) -> &NetStats {
        self.fabric().stats()
    }

    fn set_now(&self, ms: u64) {
        self.fabric().set_now(ms);
    }

    fn fetch(&self, from: &str, to: &str, class: TrafficClass, bytes: u64) -> Result<Option<u64>> {
        let delay = self.fabric().transfer(from, to, class, bytes)?;
        Ok(delay.map(|ms| self.scaled_ms(ms)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::latency::{Bandwidth, LatencyModel};

    fn threaded() -> ThreadedNet {
        scaled(0)
    }

    fn scaled(us_per_ms: u64) -> ThreadedNet {
        let fabric = Fabric::new(LatencyModel::Constant(3), Bandwidth(None), 3);
        ThreadedNet::start(fabric, us_per_ms)
    }

    #[test]
    fn threaded_net_honors_the_trait_contract() {
        let net = threaded();
        let t: &dyn Transport = &net;
        let _a = t.register("a");
        let b = t.register("b");
        assert!(t
            .send(Frame::new("a", "b", TrafficClass::Message, vec![1u8, 2]))
            .unwrap());
        let f = b.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
        assert_eq!(&f.payload[..], &[1, 2]);
        assert!(t
            .send(Frame::new("a", "ghost", TrafficClass::Message, vec![]))
            .is_err());
        assert_eq!(t.stats().snapshot().messages(TrafficClass::Message), 1);
    }

    #[test]
    fn registering_again_disconnects_the_previous_inbox() {
        use crossbeam::channel::RecvTimeoutError;
        let threaded = threaded();
        let tcp = crate::tcp::TcpTransport::start(crate::tcp::TcpConfig::new(
            "127.0.0.1:0".parse().unwrap(),
            Default::default(),
        ))
        .unwrap();
        for t in [&threaded as &dyn Transport, &tcp] {
            let old = t.register("a");
            t.send(Frame::new("a", "a", TrafficClass::Message, vec![1u8]))
                .unwrap();
            let new = t.register("a");
            // what was delivered before the replacement is still there
            let wait = std::time::Duration::from_secs(1);
            assert_eq!(&old.recv_timeout(wait).unwrap().payload[..], &[1]);
            assert_eq!(old.recv_timeout(wait), Err(RecvTimeoutError::Disconnected));
            t.send(Frame::new("a", "a", TrafficClass::Message, vec![2u8]))
                .unwrap();
            assert_eq!(&new.recv_timeout(wait).unwrap().payload[..], &[2]);
        }
    }

    #[test]
    fn threaded_fetch_meters_through_the_fabric() {
        let net = threaded();
        let t: &dyn Transport = &net;
        t.register("a");
        t.register("b");
        let delay = t.fetch("a", "b", TrafficClass::Code, 100).unwrap();
        assert!(delay.is_some());
        assert_eq!(t.stats().snapshot().bytes(TrafficClass::Code), 100);
    }

    #[test]
    fn a_fetch_waits_out_the_delay_scaled_as_a_frame_is() {
        for (us_per_ms, want) in [(0, 0), (1000, 3)] {
            let net = scaled(us_per_ms);
            let t: &dyn Transport = &net;
            t.register("a");
            t.register("b");
            let modelled = net.fabric().transfer("a", "b", TrafficClass::Code, 100);
            assert_eq!(modelled.unwrap(), Some(3));
            let delay = t.fetch("a", "b", TrafficClass::Code, 100).unwrap();
            assert_eq!(delay, Some(want), "us_per_ms = {us_per_ms}");
        }
    }
}
