//! The world a simulated space's hosts share, and the virtual link
//! each of them runs on.
//!
//! A [`Virtual`] link keeps what makes a [`crate::runtime::SimRuntime`]
//! run reproducible. Every host's frames and timers go into the world's
//! one queue, so same-time events pop in global push order. Each timer
//! carries its host's crash epoch, so a crash voids what the dead
//! process armed. And wires travel as values, unencoded, metered by
//! their encoded size.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

use naplet_core::clock::Millis;
use naplet_core::codec;
use naplet_core::tracectx::TraceCtx;
use naplet_net::{frame, EventQueue, Fabric, TrafficClass};

use crate::events::{LocalEvent, Wire};
use crate::node::{Link, Sent};

/// Host names in frames and timers are the world's shared copies
/// ([`World::names`]): queueing one clones a handle, not a string.
#[allow(clippy::large_enum_variant)] // Deliver carries whole agents
pub(crate) enum SimEvent {
    /// A wire value arriving, with the trace context it carries.
    Deliver {
        from: Arc<str>,
        to: Arc<str>,
        wire: Wire,
        ctx: Option<TraceCtx>,
    },
    /// A timer, void once `epoch` is no longer its host's crash epoch.
    Local {
        host: Arc<str>,
        event: LocalEvent,
        epoch: u64,
    },
    /// Crash `host`, optionally scheduling its restart.
    Crash {
        host: String,
        restart_at: Option<u64>,
    },
    /// Bring a crashed `host` back and replay its journal.
    Restart { host: String },
    /// The watchdog sweep: at most one is queued, and only while the
    /// watchdog tracks an unalerted journey, so a space still drains.
    WatchdogTick,
}

impl SimEvent {
    /// The host this event happens at (`None` for the watchdog tick).
    pub(crate) fn target(&self) -> Option<&str> {
        match self {
            SimEvent::Deliver { to: host, .. } | SimEvent::Local { host, .. } => Some(host),
            SimEvent::Crash { host, .. } | SimEvent::Restart { host } => Some(host),
            SimEvent::WatchdogTick => None,
        }
    }
}

/// The one event queue, and one copy of every host's name.
#[derive(Default)]
pub(crate) struct World {
    pub(crate) queue: EventQueue<SimEvent>,
    names: HashSet<Arc<str>>,
}

impl World {
    /// Put `host` on `fabric` and in `world`, on a fresh link.
    pub(crate) fn join(world: &Rc<RefCell<World>>, fabric: &Fabric, host: &str) -> Virtual {
        fabric.add_host(host);
        let mut shared = world.borrow_mut();
        let name = shared.names.get(host).cloned();
        let host = name.unwrap_or_else(|| host.into());
        shared.names.insert(Arc::clone(&host));
        Virtual {
            host,
            epoch: 0,
            down: false,
            fabric: fabric.clone(),
            world: Rc::clone(world),
        }
    }
}

/// A host's link into the world.
pub(crate) struct Virtual {
    host: Arc<str>,
    /// The crash epoch stamped on every timer armed here.
    pub(crate) epoch: u64,
    /// Crashed and not yet restarted: frames to it die at its NIC.
    pub(crate) down: bool,
    fabric: Fabric,
    world: Rc<RefCell<World>>,
}

impl Link for Virtual {
    fn now(&self) -> Millis {
        Millis(self.world.borrow().queue.now())
    }

    fn arm(&mut self, delay_ms: u64, event: LocalEvent) {
        let (host, epoch) = (Arc::clone(&self.host), self.epoch);
        let local = SimEvent::Local { host, event, epoch };
        self.world.borrow_mut().queue.push_after(delay_ms, local);
    }

    fn send(&mut self, from: &str, to: &str, wire: Wire, ctx: Option<TraceCtx>) -> Sent {
        // the counting serializer walks the value, materializing nothing
        let payload_len = codec::encoded_size(&wire).unwrap_or(0) as usize;
        let bytes = frame::bare_len(from, to, payload_len);
        if wire.retry_attempt() > 1 {
            self.fabric.stats().record_retransmit();
        }
        let class = wire.traffic_class();
        let Ok(Some(delay)) = self.fabric.transfer(from, to, class, bytes) else {
            return Err(bytes);
        };
        let mut world = self.world.borrow_mut();
        // the fabric rejected hosts that never joined
        let to = world.names.get(to).cloned().unwrap_or_else(|| to.into());
        let from = Arc::clone(&self.host);
        let deliver = SimEvent::Deliver {
            from,
            to,
            wire,
            ctx,
        };
        world.queue.push_after(delay, deliver);
        Ok(bytes)
    }

    fn fetch(&mut self, from: &str, to: &str, bytes: u64) -> Option<u64> {
        let fetched = self.fabric.transfer(from, to, TrafficClass::Code, bytes);
        fetched.unwrap_or(Some(0))
    }
}
