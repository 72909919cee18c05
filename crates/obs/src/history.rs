//! Per-daemon metrics time-series: a black box of recent metric
//! deltas.
//!
//! The [`crate::MetricsRegistry`] answers "what are the totals right
//! now"; the [`MetricsHistory`] answers "what happened in the last N
//! sweep intervals". The daemon sweep thread calls
//! [`MetricsHistory::sample`] on every tick, which snapshots the
//! registry, diffs it against the previous snapshot, and pushes the
//! timestamped delta into a bounded [`Ring`] — so the retained record
//! is a sequence of interval deltas, cheap to keep permanently and
//! trivially convertible to rates. Remote readers page it out over
//! the privileged ops request (the same gate and frames as status
//! reports and trace segments) as [`MetricsHistoryPage`]s, and
//! `napletd` dumps it next to the flight recorder on SIGUSR1, clean
//! shutdown, and panic — "what happened in the 60s before the crash"
//! is always answerable.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use naplet_core::clock::Millis;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::ring::Ring;

/// Default ring capacity a daemon enables the metrics history with:
/// at the watchdog's default 1 s sweep tick this retains ~4 minutes.
pub const DEFAULT_HISTORY_CAPACITY: usize = 256;

/// One sampled interval: the metric activity between the previous
/// sweep tick and `at` (event-clock ms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSample {
    /// Event-clock instant the sample was taken (interval end).
    pub at: u64,
    /// Registry delta since the previous sample (counter increments,
    /// gauge values at sample time, histogram bucket increments).
    pub delta: MetricsSnapshot,
}

/// One paged-out slice of a node's metrics history, self-describing
/// the same way a [`crate::TraceSegment`] is: absolute sample
/// sequences, completeness counters, and the node's UNIX clock anchor.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsHistoryPage {
    /// Node the page came from.
    pub host: String,
    /// Absolute sequence of `samples[0]` (equals `next_seq` when
    /// empty).
    pub start_seq: u64,
    /// Absolute sequence one past the last returned sample; poll again
    /// from here.
    pub next_seq: u64,
    /// Total samples ever recorded at the node.
    pub total: u64,
    /// Samples evicted from the ring (non-zero means the retained
    /// record is truncated at the front).
    pub dropped: u64,
    /// UNIX ms corresponding to the node's event-clock zero.
    pub epoch_unix_ms: u64,
    /// The samples, oldest first.
    pub samples: Vec<MetricsSample>,
}

struct HistoryState {
    ring: Ring<MetricsSample>,
    last: MetricsSnapshot,
}

struct HistoryInner {
    enabled: AtomicBool,
    epoch_unix_ms: AtomicU64,
    state: Mutex<HistoryState>,
}

/// Clone-shared bounded ring of timestamped [`MetricsSnapshot`]
/// deltas. Disabled by default; when off, [`MetricsHistory::sample`]
/// is one atomic load.
#[derive(Clone)]
pub struct MetricsHistory {
    inner: Arc<HistoryInner>,
}

impl Default for MetricsHistory {
    fn default() -> MetricsHistory {
        MetricsHistory {
            inner: Arc::new(HistoryInner {
                enabled: AtomicBool::new(false),
                epoch_unix_ms: AtomicU64::new(0),
                state: Mutex::new(HistoryState {
                    ring: Ring::with_capacity(DEFAULT_HISTORY_CAPACITY),
                    last: MetricsSnapshot::default(),
                }),
            }),
        }
    }
}

impl MetricsHistory {
    /// A fresh, disabled history.
    pub fn new() -> MetricsHistory {
        MetricsHistory::default()
    }

    /// Is sampling on?
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn sampling on with a ring of `capacity` samples.
    pub fn enable(&self, capacity: usize) {
        let mut state = self.inner.state.lock();
        state.ring = Ring::with_capacity(capacity);
        state.last = MetricsSnapshot::default();
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Turn sampling off (retained samples stay readable).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Anchor this history's sample clock to the UNIX timeline:
    /// `unix_ms` is the wall-clock instant at which the node's event
    /// clock read zero. Virtual-time sources leave it at 0.
    pub fn set_epoch_unix_ms(&self, unix_ms: u64) {
        self.inner.epoch_unix_ms.store(unix_ms, Ordering::Relaxed);
    }

    /// The configured clock anchor.
    pub fn epoch_unix_ms(&self) -> u64 {
        self.inner.epoch_unix_ms.load(Ordering::Relaxed)
    }

    /// Take one sample: snapshot `metrics`, store the delta against
    /// the previous sample, remember the snapshot as the new baseline.
    /// No-op while disabled.
    pub fn sample(&self, at: Millis, metrics: &MetricsRegistry) {
        if !self.enabled() {
            return;
        }
        let snap = metrics.snapshot();
        let mut state = self.inner.state.lock();
        let delta = snap.diff(&state.last);
        state.last = snap;
        state.ring.push(MetricsSample { at: at.0, delta });
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.inner.state.lock().ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.state.lock().ring.dropped()
    }

    /// Page out retained samples with absolute sequence ≥ `from_seq`,
    /// at most `max` of them, stamped with `host`.
    pub fn page(&self, host: &str, from_seq: u64, max: usize) -> MetricsHistoryPage {
        let state = self.inner.state.lock();
        let (start_seq, samples) = state.ring.page(from_seq, max);
        MetricsHistoryPage {
            host: host.to_string(),
            start_seq,
            next_seq: start_seq + samples.len() as u64,
            total: state.ring.pushed(),
            dropped: state.ring.dropped(),
            epoch_unix_ms: self.epoch_unix_ms(),
            samples,
        }
    }

    /// The whole retained record as one page (what a dump writes).
    pub fn dump(&self, host: &str) -> MetricsHistoryPage {
        self.page(host, 0, usize::MAX)
    }
}

impl std::fmt::Debug for MetricsHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHistory")
            .field("enabled", &self.enabled())
            .field("samples", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_history_samples_nothing() {
        let h = MetricsHistory::new();
        let m = MetricsRegistry::default();
        m.incr("x", 1);
        h.sample(Millis(1), &m);
        assert!(h.is_empty());
    }

    #[test]
    fn samples_are_interval_deltas_not_totals() {
        let h = MetricsHistory::new();
        h.enable(8);
        let m = MetricsRegistry::default();
        m.incr("sent", 3);
        h.sample(Millis(10), &m);
        m.incr("sent", 4);
        h.sample(Millis(20), &m);
        // no activity in the third interval
        h.sample(Millis(30), &m);
        let page = h.dump("n1");
        assert_eq!(page.samples.len(), 3);
        assert_eq!(page.samples[0].at, 10);
        assert_eq!(page.samples[0].delta.counter("sent"), 3);
        assert_eq!(page.samples[1].delta.counter("sent"), 4);
        assert_eq!(page.samples[2].delta.counter("sent"), 0);
    }

    #[test]
    fn ring_bounds_and_paging() {
        let h = MetricsHistory::new();
        h.enable(3);
        let m = MetricsRegistry::default();
        for i in 0..5u64 {
            m.incr("tick", 1);
            h.sample(Millis(i), &m);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.dropped(), 2);
        let page = h.page("n1", 0, 2);
        assert_eq!(page.start_seq, 2);
        assert_eq!(page.next_seq, 4);
        assert_eq!(page.total, 5);
        assert_eq!(page.dropped, 2);
        let rest = h.page("n1", page.next_seq, 16);
        assert_eq!(rest.samples.len(), 1);
        assert_eq!(rest.next_seq, 5);
    }

    #[test]
    fn page_round_trips_through_the_codec() {
        let h = MetricsHistory::new();
        h.enable(4);
        h.set_epoch_unix_ms(1_700_000_000_000);
        let m = MetricsRegistry::default();
        m.incr("sent", 2);
        m.observe("rtt_ms", crate::metrics::LATENCY_BOUNDS_MS, 7);
        h.sample(Millis(5), &m);
        let page = h.dump("n1");
        let bytes = naplet_core::codec::to_bytes(&page).unwrap();
        let back: MetricsHistoryPage = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, page);
        assert_eq!(back.epoch_unix_ms, 1_700_000_000_000);
    }
}
