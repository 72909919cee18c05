//! Deterministic discrete-event core.
//!
//! [`EventQueue`] orders events by virtual time with FIFO tie-breaking,
//! which makes every simulation run bit-for-bit reproducible for a
//! given fabric seed. The naplet-server runtime drives its whole
//! multi-server world off one such queue.
//!
//! The queue is *bucketed* — a `BTreeMap` from virtual time to a FIFO
//! of payloads — which fits the workload's shape: most events land in
//! a handful of near-future time buckets (link latency plus dwell), so
//! scheduling is an O(log #distinct-times) map probe plus a `VecDeque`
//! push instead of a heap sift over every pending event. Insertion
//! order within a bucket is the global push order, so pops come out in
//! (time, insertion) order; the unit tests hold it to a binary-heap
//! reference model.

use std::collections::{BTreeMap, VecDeque};

/// An event queue over virtual milliseconds.
#[derive(Debug)]
pub struct EventQueue<T> {
    buckets: BTreeMap<u64, VecDeque<T>>,
    len: usize,
    now: u64,
}

impl<T> EventQueue<T> {
    /// Empty queue at time 0.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            buckets: BTreeMap::new(),
            len: 0,
            now: 0,
        }
    }

    /// Current virtual time (the time of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedule at an absolute virtual time. Times in the past are
    /// clamped to `now` (events never travel backwards).
    pub fn push_at(&mut self, time: u64, payload: T) {
        let time = time.max(self.now);
        self.len += 1;
        self.buckets.entry(time).or_default().push_back(payload);
    }

    /// Schedule `delay` ms after the current time.
    pub fn push_after(&mut self, delay: u64, payload: T) {
        self.push_at(self.now.saturating_add(delay), payload);
    }

    /// Time of the earliest pending event, without popping it.
    pub fn peek_time(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// The earliest pending event's payload, without popping it
    /// (drivers use this to aim fault injection at the next event).
    pub fn peek(&self) -> Option<&T> {
        self.buckets.first_key_value().and_then(|(_, q)| q.front())
    }

    /// Pop the earliest event, advancing virtual time to it.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let mut entry = self.buckets.first_entry()?;
        let time = *entry.key();
        let payload = entry.get_mut().pop_front().expect("bucket never empty");
        if entry.get().is_empty() {
            entry.remove();
        }
        self.len -= 1;
        self.now = time;
        Some((time, payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending (quiescence).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push_at(30, "c");
        q.push_at(10, "a");
        q.push_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.now(), 20);
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_time() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push_at(5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn push_after_uses_now() {
        let mut q = EventQueue::new();
        q.push_at(100, "x");
        q.pop();
        q.push_after(5, "y");
        assert_eq!(q.pop(), Some((105, "y")));
    }

    #[test]
    fn past_times_clamped() {
        let mut q = EventQueue::new();
        q.push_at(50, "a");
        q.pop();
        q.push_at(10, "late");
        assert_eq!(q.pop(), Some((50, "late")));
        assert_eq!(q.now(), 50);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::<()>::new();
        assert!(q.is_empty());
        q.push_at(1, ());
        q.push_at(2, ());
        assert_eq!(q.len(), 2);
        q.peek();
        q.peek_time();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    /// The ordering contract: for any interleaving of pushes and pops
    /// the bucketed queue emits the (time, payload) stream of the
    /// reference model, a binary heap ordered by (time, push sequence).
    #[test]
    fn bucketed_and_heap_pop_identically() {
        let mut fast = EventQueue::new();
        let mut slow: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        // deterministic LCG drives a mixed push/pop schedule
        let mut rng: u64 = 0x5eed_cafe;
        let mut step = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let pop_slow = |slow: &mut BinaryHeap<_>| slow.pop().map(|Reverse((t, _, p))| (t, p));
        for _ in 0..2_000 {
            let op = step() % 4;
            if op < 3 {
                let delay = step() % 17; // heavy tie collisions
                let payload = step() % 100; // unordered, so only seq breaks ties
                slow.push(Reverse((fast.now() + delay, seq, payload)));
                seq += 1;
                fast.push_after(delay, payload);
            } else {
                assert_eq!(fast.pop(), pop_slow(&mut slow));
            }
            assert_eq!(fast.len(), slow.len());
            let head = slow.peek().map(|Reverse(e)| *e);
            assert_eq!(fast.peek_time(), head.map(|(t, _, _)| t));
            assert_eq!(fast.peek().copied(), head.map(|(_, _, p)| p));
        }
        loop {
            let (a, b) = (fast.pop(), pop_slow(&mut slow));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
