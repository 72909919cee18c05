//! Time sources for the framework.
//!
//! Naplet IDs embed creation timestamps and the navigation log records
//! arrival/departure instants. Real deployments use wall-clock time;
//! tests and deterministic experiments use a manually advanced virtual
//! clock. Everything in the framework that needs "now" takes a
//! [`Clock`], never `SystemTime` directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::codec::{Decode, Encode};

/// A timestamp in milliseconds. For the real clock this is milliseconds
/// since the Unix epoch; for virtual clocks it is milliseconds since an
/// arbitrary origin. Only differences and ordering are meaningful to
/// the framework itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Encode, Decode)]
pub struct Millis(pub u64);

impl Millis {
    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: Millis) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Timestamp advanced by `ms` milliseconds.
    pub fn plus(self, ms: u64) -> Millis {
        Millis(self.0.saturating_add(ms))
    }
}

impl std::fmt::Display for Millis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A source of time. Cheap to clone; clones observe the same clock.
#[derive(Clone, Default)]
pub enum Clock {
    /// Wall-clock time from the OS.
    #[default]
    System,
    /// A virtual clock advanced explicitly (deterministic tests and
    /// discrete-event experiments).
    Virtual(Arc<AtomicU64>),
}

impl Clock {
    /// A fresh virtual clock starting at 0.
    pub fn virtual_at(start: Millis) -> Clock {
        Clock::Virtual(Arc::new(AtomicU64::new(start.0)))
    }

    /// Current time on this clock.
    pub fn now(&self) -> Millis {
        match self {
            Clock::System => {
                let ms = SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0);
                Millis(ms)
            }
            Clock::Virtual(v) => Millis(v.load(Ordering::SeqCst)),
        }
    }

    /// Advance a virtual clock by `ms`. No-op (and a logic error worth
    /// catching in tests) on the system clock.
    ///
    /// # Panics
    /// Panics when called on [`Clock::System`]: advancing wall time is
    /// always a bug.
    pub fn advance(&self, ms: u64) {
        match self {
            Clock::System => panic!("cannot advance the system clock"),
            Clock::Virtual(v) => {
                v.fetch_add(ms, Ordering::SeqCst);
            }
        }
    }

    /// Move a virtual clock forward to `to` if `to` is later than now.
    /// Used by discrete-event drivers which jump to the next event time.
    pub fn advance_to(&self, to: Millis) {
        match self {
            Clock::System => panic!("cannot advance the system clock"),
            Clock::Virtual(v) => {
                // fetch_max keeps the clock monotone even with racing drivers
                v.fetch_max(to.0, Ordering::SeqCst);
            }
        }
    }

    /// True for virtual clocks.
    pub fn is_virtual(&self) -> bool {
        matches!(self, Clock::Virtual(_))
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Clock::System => write!(f, "Clock::System"),
            Clock::Virtual(v) => write!(f, "Clock::Virtual({}ms)", v.load(Ordering::SeqCst)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances() {
        let c = Clock::virtual_at(Millis(100));
        assert_eq!(c.now(), Millis(100));
        c.advance(50);
        assert_eq!(c.now(), Millis(150));
        c.advance_to(Millis(300));
        assert_eq!(c.now(), Millis(300));
        // advance_to never goes backwards
        c.advance_to(Millis(10));
        assert_eq!(c.now(), Millis(300));
    }

    #[test]
    fn clones_share_time() {
        let c = Clock::virtual_at(Millis(0));
        let c2 = c.clone();
        c.advance(7);
        assert_eq!(c2.now(), Millis(7));
    }

    #[test]
    fn system_clock_monotonic_enough() {
        let c = Clock::System;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(a.0 > 1_000_000_000_000); // after 2001, sanity
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn system_clock_cannot_advance() {
        Clock::System.advance(1);
    }

    #[test]
    fn millis_arithmetic() {
        assert_eq!(Millis(10).since(Millis(3)), 7);
        assert_eq!(Millis(3).since(Millis(10)), 0);
        assert_eq!(Millis(3).plus(4), Millis(7));
        assert_eq!(format!("{}", Millis(12)), "12ms");
    }
}
