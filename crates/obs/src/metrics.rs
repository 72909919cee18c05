//! Counters and fixed-bucket histograms.
//!
//! The registry is string-keyed and deliberately simple: a counter is
//! a `u64`, a histogram is a fixed set of upper bounds plus an
//! overflow bucket. Everything lives behind `BTreeMap`s so snapshots
//! iterate in one deterministic order regardless of insertion order —
//! the text tables and napcode snapshot are byte-stable across runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use naplet_core::codec::{Decode, Encode};
use parking_lot::Mutex;

/// Millisecond bounds suitable for latencies in the simulated space:
/// clean handoffs land in the ≤ 10/20 ms buckets, backoff retries in
/// the ≥ 200 ms ones.
pub const LATENCY_BOUNDS_MS: &[u64] = &[
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000,
];

/// Small-count bounds (retry attempts, queue depths, journal sizes).
pub const COUNT_BOUNDS: &[u64] = &[1, 2, 3, 4, 5, 8, 12, 16, 24, 32, 64];

/// Microsecond bounds for wall-clock hot-path profiling (handler and
/// journal latencies): protocol steps are typically single-digit µs,
/// fsync-class work lands in the ms-range tail.
pub const HANDLER_BOUNDS_US: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 100_000,
];

#[derive(Debug, Clone, PartialEq, Encode, Decode)]
struct Histogram {
    bounds: Vec<u64>,
    /// One count per bound, plus a trailing overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// The metric under `name`, created by `init` on first use. Looked up
/// by `&str`: only that first use allocates a key, and every later
/// call — under the registry lock all servers share — allocates nothing.
fn slot<'a, V>(
    map: &'a mut BTreeMap<String, V>,
    name: &str,
    init: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), init());
    }
    map.get_mut(name)
        .expect("present: inserted above if absent")
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, u64>,
}

/// Clone-shared registry of counters, max-gauges, and histograms.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `by` to counter `name` (created at zero on first use).
    pub fn incr(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock();
        *slot(&mut inner.counters, name, || 0) += by;
    }

    /// Record `value` into histogram `name`, creating it with `bounds`
    /// on first use (later calls keep the original bounds).
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        let mut inner = self.inner.lock();
        slot(&mut inner.histograms, name, || Histogram::new(bounds)).observe(value);
    }

    /// Raise max-gauge `name` to `value` if it is higher (high-water
    /// marks for queue depths).
    pub fn gauge_max(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock();
        let g = slot(&mut inner.gauges, name, || 0);
        *g = (*g).max(value);
    }

    /// Current value of counter `name` (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts: h.counts.clone(),
                            total: h.total,
                            sum: h.sum,
                            min: if h.total == 0 { 0 } else { h.min },
                            max: h.max,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Drop every metric.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.counters.clear();
        inner.histograms.clear();
        inner.gauges.clear();
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .field("gauges", &inner.gauges.len())
            .finish()
    }
}

/// Frozen copy of one histogram.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive); a final overflow bucket
    /// follows the last bound.
    pub bounds: Vec<u64>,
    /// Per-bucket counts, `bounds.len() + 1` long.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Index of the highest bucket holding at least one observation;
    /// `None` when empty. `bounds.len()` means the overflow bucket.
    pub fn highest_nonzero_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Bucketed quantile estimate: the upper bound of the bucket in
    /// which the `q`-quantile observation falls (`q` in `0.0..=1.0`;
    /// out-of-range values clamp). Bench reporting (p50/p95/p99) reads
    /// latencies through this, so the resolution is the bucket grid —
    /// deterministic and conservative (never under-reports).
    ///
    /// Edge cases, all documented and tested:
    /// - **empty histogram** → `0` for every `q` (there is no
    ///   observation to bound);
    /// - **`q = 0.0`** → the upper bound of the first non-empty bucket
    ///   (the rank clamps to 1, i.e. the smallest observation's
    ///   bucket);
    /// - **mass in the overflow bucket** → the exact recorded `max`,
    ///   not a fabricated bound — an all-overflow histogram answers
    ///   `max` for every `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// Upper bound of bucket `idx` rendered for humans.
    pub fn bucket_label(&self, idx: usize) -> String {
        if idx < self.bounds.len() {
            format!("<= {}", self.bounds[idx])
        } else {
            format!("> {}", self.bounds.last().copied().unwrap_or(0))
        }
    }
}

/// Frozen copy of every metric, ready for export.
#[derive(Debug, Clone, PartialEq, Default, Encode, Decode)]
pub struct MetricsSnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges, sorted by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms, sorted by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Per-interval view: everything accumulated since `earlier`.
    ///
    /// Counters, gauges, and histogram counts/totals/sums subtract
    /// saturating — a metric absent from `earlier` contributes its
    /// full value; a metric that shrank (registry cleared between
    /// snapshots) contributes zero, never wraps. Histogram `min`/`max`
    /// are not recoverable per-interval from cumulative buckets, so a
    /// delta with surviving observations keeps the later snapshot's
    /// values and an empty delta reports 0/0 — which makes
    /// `snap.diff(&snap)` all-zero everywhere. `naplet-ops watch` and the
    /// CI perf job render rates from this instead of cumulative
    /// totals.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(before))
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(name, &v)| {
                let before = earlier.gauges.get(name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let delta = match earlier.histograms.get(name) {
                    Some(e) if e.bounds == h.bounds => {
                        let counts = h
                            .counts
                            .iter()
                            .zip(&e.counts)
                            .map(|(&a, &b)| a.saturating_sub(b))
                            .collect();
                        let total = h.total.saturating_sub(e.total);
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            counts,
                            total,
                            sum: h.sum.saturating_sub(e.sum),
                            min: if total == 0 { 0 } else { h.min },
                            max: if total == 0 { 0 } else { h.max },
                        }
                    }
                    // unseen (or re-bucketed) histogram: the whole
                    // thing is new this interval
                    _ => h.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Counter by name (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Plain-text tables (counters, gauges, then one table per
    /// histogram) for the `figures` binary and EXPERIMENTS.md.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges (high-water)\n");
            let width = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {v}");
            }
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name}: n={} min={} mean={:.1} max={}",
                h.total,
                h.min,
                h.mean(),
                h.max
            );
            for (idx, &count) in h.counts.iter().enumerate() {
                if count > 0 {
                    let _ = writeln!(out, "  {:>10}  {count}", h.bucket_label(idx));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn histogram_buckets_split_clean_from_retried_latencies() {
        let m = MetricsRegistry::new();
        m.observe("rtt", LATENCY_BOUNDS_MS, 9); // clean handoff
        m.observe("rtt", LATENCY_BOUNDS_MS, 210); // one backoff later
        let snap = m.snapshot();
        let h = snap.histogram("rtt").unwrap();
        assert_eq!(h.total, 2);
        assert_eq!(h.min, 9);
        assert_eq!(h.max, 210);
        // 9 ≤ 10 → bucket 3; 210 ≤ 500 → bucket 8
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.counts[8], 1);
        assert_eq!(h.highest_nonzero_bucket(), Some(8));
    }

    #[test]
    fn histogram_overflow_bucket_catches_everything_above_the_last_bound() {
        let m = MetricsRegistry::new();
        m.observe("d", COUNT_BOUNDS, 1_000);
        let snap = m.snapshot();
        let h = snap.histogram("d").unwrap();
        assert_eq!(h.counts[COUNT_BOUNDS.len()], 1);
        assert_eq!(h.highest_nonzero_bucket(), Some(COUNT_BOUNDS.len()));
        assert!(h.bucket_label(COUNT_BOUNDS.len()).starts_with("> "));
    }

    #[test]
    fn quantiles_walk_the_bucket_grid() {
        let m = MetricsRegistry::new();
        // 90 fast (≤5ms), 9 slow (≤500ms), 1 in overflow (max 20s)
        for _ in 0..90 {
            m.observe("lat", LATENCY_BOUNDS_MS, 4);
        }
        for _ in 0..9 {
            m.observe("lat", LATENCY_BOUNDS_MS, 400);
        }
        m.observe("lat", LATENCY_BOUNDS_MS, 20_000);
        let snap = m.snapshot();
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.95), 500);
        // p99 = 99th of 100 observations: still the ≤500 bucket
        assert_eq!(h.quantile(0.99), 500);
        // p100 lands in the overflow bucket → exact max
        assert_eq!(h.quantile(1.0), 20_000);
        let empty = HistogramSnapshot {
            bounds: LATENCY_BOUNDS_MS.to_vec(),
            counts: vec![0; LATENCY_BOUNDS_MS.len() + 1],
            total: 0,
            sum: 0,
            min: 0,
            max: 0,
        };
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn quantile_edge_cases_are_pinned() {
        // empty histogram: 0 for every q, including the extremes
        let empty = HistogramSnapshot {
            bounds: LATENCY_BOUNDS_MS.to_vec(),
            counts: vec![0; LATENCY_BOUNDS_MS.len() + 1],
            total: 0,
            sum: 0,
            min: 0,
            max: 0,
        };
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), 0, "empty histogram at q={q}");
        }

        // q=0.0 clamps to rank 1: the first non-empty bucket's bound
        let m = MetricsRegistry::new();
        m.observe("lat", LATENCY_BOUNDS_MS, 4); // bucket "<= 5"
        m.observe("lat", LATENCY_BOUNDS_MS, 400); // bucket "<= 500"
        let snap = m.snapshot();
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.quantile(0.0), 5);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 500);

        // all observations in the overflow bucket: every quantile
        // answers the exact recorded max, not a fabricated bound
        let m = MetricsRegistry::new();
        m.observe("big", COUNT_BOUNDS, 500);
        m.observe("big", COUNT_BOUNDS, 700);
        let snap = m.snapshot();
        let h = snap.histogram("big").unwrap();
        assert_eq!(h.counts[COUNT_BOUNDS.len()], 2, "all mass in overflow");
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 700, "all-overflow histogram at q={q}");
        }

        // out-of-range q clamps rather than panicking
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn diff_of_a_snapshot_with_itself_is_all_zero() {
        let m = MetricsRegistry::new();
        m.incr("c", 7);
        m.gauge_max("g", 5);
        m.observe("h", COUNT_BOUNDS, 2);
        m.observe("h", COUNT_BOUNDS, 90); // overflow mass too
        let snap = m.snapshot();
        let zero = snap.diff(&snap);
        assert!(zero.counters.values().all(|&v| v == 0), "{zero:?}");
        assert!(zero.gauges.values().all(|&v| v == 0), "{zero:?}");
        for (name, h) in &zero.histograms {
            assert!(h.counts.iter().all(|&c| c == 0), "{name}: {h:?}");
            assert_eq!((h.total, h.sum, h.min, h.max), (0, 0, 0, 0), "{name}");
        }
    }

    #[test]
    fn diff_reports_only_the_interval() {
        let m = MetricsRegistry::new();
        m.incr("c", 3);
        m.observe("h", COUNT_BOUNDS, 2);
        let before = m.snapshot();
        m.incr("c", 4);
        m.incr("new", 1);
        m.observe("h", COUNT_BOUNDS, 10);
        let after = m.snapshot();
        let delta = after.diff(&before);
        assert_eq!(delta.counter("c"), 4);
        assert_eq!(delta.counter("new"), 1, "unseen counter counts in full");
        let h = delta.histogram("h").unwrap();
        assert_eq!(h.total, 1, "one new observation this interval");
        assert_eq!(h.sum, 10);
        // saturating: a cleared registry never wraps
        let wrapped = before.diff(&after);
        assert_eq!(wrapped.counter("c"), 0);
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let m = MetricsRegistry::new();
        m.gauge_max("depth", 3);
        m.gauge_max("depth", 1);
        assert_eq!(m.snapshot().gauges["depth"], 3);
    }

    #[test]
    fn snapshot_renders_deterministic_text() {
        let m = MetricsRegistry::new();
        // insertion order b-then-a must not leak into the rendering
        m.incr("b.second", 1);
        m.incr("a.first", 1);
        m.observe("lat", LATENCY_BOUNDS_MS, 4);
        let a = m.snapshot().render_text();
        let b = m.snapshot().render_text();
        assert_eq!(a, b);
        let first = a.find("a.first").unwrap();
        let second = a.find("b.second").unwrap();
        assert!(first < second, "names must render sorted:\n{a}");
        assert!(a.contains("histogram lat: n=1 min=4 mean=4.0 max=4"));
    }

    #[test]
    fn snapshot_codec_round_trip() {
        let m = MetricsRegistry::new();
        m.incr("c", 7);
        m.observe("h", COUNT_BOUNDS, 2);
        m.gauge_max("g", 5);
        let snap = m.snapshot();
        let bytes = naplet_core::codec::to_bytes(&snap).unwrap();
        let back: MetricsSnapshot = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }
}
