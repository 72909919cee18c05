//! The per-daemon black boxes: bounded rings of recent trace events
//! and of recent metric deltas, cheap enough to leave on permanently.
//!
//! The [`crate::Tracer`] keeps *everything* and is therefore opt-in and
//! test/bench-oriented; a [`BlackBox`] keeps only the last
//! [`Page::CAPACITY`] entries in a [`Ring`]. A daemon runs two: the
//! [`FlightRecorder`] of [`TraceEvent`]s and the [`MetricsHistory`] of
//! sweep-interval [`MetricsSample`]s. `napletd` dumps both on SIGUSR1,
//! on clean shutdown and from a panic hook, so a crash always leaves
//! evidence. Remote readers page them out over the privileged ops
//! request as [`TraceSegment`]s, which `naplet-ops trace` stitches into
//! one merged timeline, and as [`MetricsHistoryPage`]s.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use naplet_core::codec::{Decode, Encode};
use parking_lot::Mutex;

use crate::metrics::MetricsSnapshot;
use crate::ring::Ring;
use crate::trace::TraceEvent;

/// What a [`BlackBox`] keeps and pages out.
pub trait Page {
    /// One retained entry.
    type Entry: Clone;
    /// How many entries a box retains.
    const CAPACITY: usize;
    /// The page of `entries` from `host`, described by
    /// `[start_seq, next_seq, total, dropped, epoch_unix_ms]`.
    fn from_parts(host: String, counts: [u64; 5], entries: Vec<Self::Entry>) -> Self;
}

/// One paged-out slice of a node's flight recorder, self-describing
/// enough for a remote merger: `start_seq`/`next_seq` are absolute
/// event sequences (see [`Ring::page`]), `total`/`dropped` tell the
/// reader whether the record is complete, and `epoch_unix_ms` anchors
/// the node's event clock to the shared UNIX timeline (0 for
/// virtual-time sources, whose clocks already agree).
#[derive(Debug, Clone, PartialEq, Default, Encode, Decode)]
pub struct TraceSegment {
    /// Node the segment came from.
    pub host: String,
    /// Absolute sequence of `events[0]` (equals `next_seq` when empty).
    pub start_seq: u64,
    /// Absolute sequence one past the last returned event; poll again
    /// from here.
    pub next_seq: u64,
    /// Total events ever recorded at the node.
    pub total: u64,
    /// Events evicted from the ring (a non-zero value means the
    /// retained record is truncated at the front).
    pub dropped: u64,
    /// UNIX ms corresponding to the node's event-clock zero.
    pub epoch_unix_ms: u64,
    /// The events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl Page for TraceSegment {
    type Entry = TraceEvent;
    const CAPACITY: usize = 4096;

    fn from_parts(host: String, counts: [u64; 5], events: Vec<TraceEvent>) -> Self {
        let [start_seq, next_seq, total, dropped, epoch_unix_ms] = counts;
        TraceSegment {
            host,
            start_seq,
            next_seq,
            total,
            dropped,
            epoch_unix_ms,
            events,
        }
    }
}

/// One sampled interval: the metric activity between the previous
/// sweep tick and `at` (event-clock ms).
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct MetricsSample {
    /// Event-clock instant the sample was taken (interval end).
    pub at: u64,
    /// Registry delta since the previous sample (counter increments,
    /// gauge values at sample time, histogram bucket increments).
    pub delta: MetricsSnapshot,
}

/// One paged-out slice of a node's metrics history, self-describing
/// the same way a [`TraceSegment`] is.
#[derive(Debug, Clone, PartialEq, Default, Encode, Decode)]
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

impl Page for MetricsHistoryPage {
    type Entry = MetricsSample;
    /// At the watchdog's default 1 s sweep tick this retains ~4 minutes.
    const CAPACITY: usize = 256;

    fn from_parts(host: String, counts: [u64; 5], samples: Vec<MetricsSample>) -> Self {
        let [start_seq, next_seq, total, dropped, epoch_unix_ms] = counts;
        MetricsHistoryPage {
            host,
            start_seq,
            next_seq,
            total,
            dropped,
            epoch_unix_ms,
            samples,
        }
    }
}

/// The flight recorder: a black box of recent trace events.
pub type FlightRecorder = BlackBox<TraceSegment>;

/// The metrics history: a black box of sweep-interval metric deltas.
pub type MetricsHistory = BlackBox<MetricsHistoryPage>;

struct Inner<E> {
    enabled: AtomicBool,
    // the epoch sits under the ring's lock, so a page never pairs a
    // ring with another enable's anchor
    state: Mutex<(Ring<E>, u64)>,
}

/// Clone-shared bounded ring of recent `P::Entry`s. Disabled by
/// default; when off, [`BlackBox::record`] is one atomic load.
pub struct BlackBox<P: Page> {
    inner: Arc<Inner<P::Entry>>,
}

// manual impls: `P` itself need not be Clone or Default
impl<P: Page> Clone for BlackBox<P> {
    fn clone(&self) -> Self {
        BlackBox {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<P: Page> Default for BlackBox<P> {
    fn default() -> Self {
        BlackBox {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                state: Mutex::new((Ring::with_capacity(P::CAPACITY), 0)),
            }),
        }
    }
}

impl<P: Page> BlackBox<P> {
    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on, anchoring the box's clock to the UNIX
    /// timeline: `epoch_unix_ms` is the wall-clock instant at which the
    /// node's event clock read zero (0 for virtual-time sources).
    pub fn enable(&self, epoch_unix_ms: u64) {
        self.inner.state.lock().1 = epoch_unix_ms;
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Record one entry (no-op while disabled).
    pub fn record(&self, entry: P::Entry) {
        if self.enabled() {
            self.inner.state.lock().0.push(entry);
        }
    }

    /// Page out retained entries with absolute sequence ≥ `from_seq`,
    /// at most `max` of them, stamped with `host`.
    pub fn page(&self, host: &str, from_seq: u64, max: usize) -> P {
        let (ring, epoch) = &*self.inner.state.lock();
        let (start, entries) = ring.page(from_seq, max);
        let next = start + entries.len() as u64;
        let counts = [start, next, ring.pushed(), ring.dropped(), *epoch];
        P::from_parts(host.to_string(), counts, entries)
    }

    /// The whole retained record as one page (what a dump writes).
    pub fn dump(&self, host: &str) -> P {
        self.page(host, 0, usize::MAX)
    }
}

impl<P: Page> std::fmt::Debug for BlackBox<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ring, _) = &*self.inner.state.lock();
        f.debug_struct("BlackBox")
            .field("enabled", &self.enabled())
            .field("retained", &ring.len())
            .field("dropped", &ring.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, LATENCY_BOUNDS_MS};
    use crate::trace::TraceKind;
    use naplet_core::clock::Millis;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at: Millis(at),
            host: "n1".into(),
            naplet: None,
            ctx: None,
            kind: TraceKind::Crash,
        }
    }

    fn sample(at: u64) -> MetricsSample {
        MetricsSample {
            at,
            delta: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn a_disabled_box_records_nothing() {
        let r = FlightRecorder::default();
        r.record(ev(1));
        assert_eq!(
            r.dump("n1"),
            TraceSegment::from_parts("n1".into(), [0; 5], vec![])
        );
    }

    #[test]
    fn a_full_ring_evicts_the_oldest_and_counts_it_dropped() {
        let h = MetricsHistory::default();
        h.enable(0);
        let n = MetricsHistoryPage::CAPACITY as u64 + 2;
        for at in 0..n {
            h.record(sample(at));
        }
        let page = h.dump("n1");
        assert_eq!(
            (page.start_seq, page.next_seq, page.total, page.dropped),
            (2, n, n, 2)
        );
        assert_eq!(page.samples.len(), MetricsHistoryPage::CAPACITY);
        assert_eq!(page.samples[0].at, 2);
    }

    #[test]
    fn paging_walks_the_ring_to_completion() {
        let r = FlightRecorder::default();
        r.enable(0);
        for i in 0..7 {
            r.record(ev(i));
        }
        let mut from = 0;
        let mut got = Vec::new();
        loop {
            let seg = r.page("n1", from, 3);
            if seg.events.is_empty() {
                break;
            }
            assert_eq!(seg.start_seq, from);
            from = seg.next_seq;
            got.extend(seg.events);
        }
        assert_eq!(got, (0..7).map(ev).collect::<Vec<_>>());
    }

    /// The sweep thread's recipe: diff each snapshot against the last,
    /// so the retained record is interval deltas, not totals.
    #[test]
    fn samples_are_interval_deltas_not_totals() {
        let h = MetricsHistory::default();
        h.enable(0);
        let m = MetricsRegistry::default();
        let mut last = MetricsSnapshot::default();
        for (at, sent) in [(10, 3), (20, 4), (30, 0)] {
            m.incr("sent", sent);
            let snap = m.snapshot();
            h.record(MetricsSample {
                at,
                delta: snap.diff(&last),
            });
            last = snap;
        }
        let sent: Vec<u64> = h
            .dump("n1")
            .samples
            .iter()
            .map(|s| s.delta.counter("sent"))
            .collect();
        assert_eq!(sent, [3, 4, 0]);
    }

    #[test]
    fn both_page_types_round_trip_through_the_codec() {
        let epoch = 1_700_000_000_000;
        let r = FlightRecorder::default();
        r.enable(epoch);
        r.record(ev(9));
        let seg = r.dump("n1");
        let bytes = naplet_core::codec::to_bytes(&seg).unwrap();
        assert_eq!(
            naplet_core::codec::from_bytes::<TraceSegment>(&bytes).unwrap(),
            seg
        );
        assert_eq!(seg.epoch_unix_ms, epoch);

        let h = MetricsHistory::default();
        h.enable(epoch);
        let m = MetricsRegistry::default();
        m.incr("sent", 2);
        m.observe("rtt_ms", LATENCY_BOUNDS_MS, 7);
        h.record(MetricsSample {
            at: 5,
            delta: m.snapshot(),
        });
        let page = h.dump("n1");
        let bytes = naplet_core::codec::to_bytes(&page).unwrap();
        let back: MetricsHistoryPage = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, page);
        assert_eq!(back.epoch_unix_ms, epoch);
    }
}
