//! The wall-clock link's timer queue.
//!
//! A server arms a timer for nearly every frame it handles (handoff
//! and registration acknowledgement timeouts, lease checks, dwell) and
//! almost all of them are still far in the future whenever the driver
//! looks. [`Timers`] keeps them in a binary heap ordered by deadline,
//! then by arm order, so a driver pays `O(log n)` to arm, looks at
//! nothing but the head to learn how long it may sleep, and pops only
//! what is due. The wall-clock link under every [`crate::node::Node`]
//! is its one user (the sim's timers are events in its one queue).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

struct Armed<E> {
    deadline: Instant,
    /// Arm order; breaks deadline ties so equal deadlines fire FIFO.
    seq: u64,
    event: E,
}

// reversed, so `BinaryHeap` (a max-heap) keeps the earliest on top
impl<E> Ord for Armed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}
impl<E> PartialOrd for Armed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Armed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Armed<E> {}

/// Pending timers, earliest deadline first.
pub struct Timers<E> {
    heap: BinaryHeap<Armed<E>>,
    armed: u64,
}

impl<E> Default for Timers<E> {
    fn default() -> Self {
        Timers {
            heap: BinaryHeap::new(),
            armed: 0,
        }
    }
}

impl<E> Timers<E> {
    /// Arm `event` to fire at `deadline`.
    pub fn arm(&mut self, deadline: Instant, event: E) {
        self.heap.push(Armed {
            deadline,
            seq: self.armed,
            event,
        });
        self.armed += 1;
    }

    /// Arm `event` to fire `delay_ms` from now.
    pub fn arm_in(&mut self, delay_ms: u64, event: E) {
        self.arm(Instant::now() + Duration::from_millis(delay_ms), event);
    }

    /// The earliest event whose deadline is at or before `now`, if any.
    /// Equal deadlines come out in arm order.
    pub fn pop_due(&mut self, now: Instant) -> Option<E> {
        if self.heap.peek()?.deadline > now {
            return None;
        }
        self.heap.pop().map(|armed| armed.event)
    }

    /// How long after `now` the earliest deadline falls (zero when it
    /// has passed); `None` when nothing is armed.
    pub fn until_next(&self, now: Instant) -> Option<Duration> {
        self.heap
            .peek()
            .map(|armed| armed.deadline.saturating_duration_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_by_deadline_then_arm_order() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut timers = Timers::default();
        timers.arm(at(30), "late");
        timers.arm(at(10), "first-armed");
        timers.arm(at(10), "second-armed");
        timers.arm(at(10), "third-armed");
        timers.arm(at(5), "early");
        let mut fired = Vec::new();
        while let Some(event) = timers.pop_due(at(10)) {
            fired.push(event);
        }
        assert_eq!(
            fired,
            ["early", "first-armed", "second-armed", "third-armed"]
        );
        assert_eq!(timers.heap.len(), 1, "the 30 ms timer is not due at 10 ms");
        assert_eq!(timers.pop_due(at(30)), Some("late"));
    }

    #[test]
    fn one_due_among_ten_thousand_pops_alone() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        for i in 0..10_000u64 {
            timers.arm(t0 + Duration::from_secs(3_600 + i), i);
        }
        timers.arm(t0 + Duration::from_millis(1), u64::MAX);
        let now = t0 + Duration::from_millis(2);
        assert_eq!(timers.pop_due(now), Some(u64::MAX));
        assert_eq!(timers.pop_due(now), None);
        assert_eq!(timers.heap.len(), 10_000);
        assert_eq!(
            timers.until_next(now),
            Some(Duration::from_secs(3_600) - Duration::from_millis(2))
        );
    }

    #[test]
    fn time_to_next_deadline() {
        let t0 = Instant::now();
        let mut timers = Timers::default();
        assert_eq!(timers.until_next(t0), None, "nothing armed");
        timers.arm(t0 + Duration::from_millis(40), ());
        assert_eq!(timers.until_next(t0), Some(Duration::from_millis(40)));
        // a deadline in the past is due now, not a negative wait
        assert_eq!(
            timers.until_next(t0 + Duration::from_millis(50)),
            Some(Duration::ZERO)
        );
        assert_eq!(timers.pop_due(t0 + Duration::from_millis(50)), Some(()));
        assert_eq!(timers.until_next(t0), None);
    }
}
