//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of the public API — one
//! around each call into a layer — and kept in a thread-local vector
//! until the run ends. The traced run is single-threaded (the layer
//! pump), so a thread-local needs no lock and the parent of a span is
//! simply whichever span was open when it started. A counting global
//! allocator gives allocations per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use naplet_core::error::Result;
use naplet_server::JournalStore;

/// The layer (product module) a span's time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `naplet_core::codec`
    Codec,
    /// `naplet_net::frame`
    Frame,
    /// `Transport::send` net of the frame codec: for the layer pump
    /// that is the benchmark's own `QueueNet`
    Transport,
    /// `naplet_server::server` (`NapletServer::handle` / `launch`)
    Handle,
    /// `naplet_server::journal` (`JournalStore::put` / `remove`)
    Journal,
}

impl Layer {
    fn label(self) -> &'static str {
        match self {
            Layer::Codec => "core::codec",
            Layer::Frame => "net::frame",
            Layer::Transport => "net::transport",
            Layer::Handle => "server::server",
            Layer::Journal => "server::journal",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    /// Operation within the layer: `encode`, `decode`, `put`, `remove`,
    /// or the `Wire`/`LocalEvent` label for a `handle` call.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The journey the call served (creation stamp of the naplet; 0
    /// when the wire concerns no single naplet).
    pub journey: u32,
    /// Allocations made between start and end, children included.
    pub allocs: u32,
    /// Payload size the call worked on, where one exists.
    pub bytes: u32,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static JOURNEY: Cell<u32> = const { Cell::new(0) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread with room for `capacity` spans, so
/// the recorder's own growth stays out of the allocation counts.
pub fn start(capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        })
    });
    ENABLED.with(|e| e.set(true));
}

/// Stop recording and hand the spans back.
pub fn finish() -> Vec<Span> {
    ENABLED.with(|e| e.set(false));
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|r| r.spans)
        .unwrap_or_default()
}

/// Attribute the spans that follow to `journey` until the next call.
pub fn set_journey(journey: u32) {
    JOURNEY.with(|j| j.set(journey));
}

/// Run `f` inside a span when this thread is recording; otherwise just
/// run it — the untraced pump pays one thread-local read per call.
#[inline]
pub fn span<R>(layer: Layer, name: &'static str, bytes: usize, f: impl FnOnce() -> R) -> R {
    span_sized(layer, name, || (f(), bytes))
}

/// [`span`] for calls whose payload size is only known afterwards
/// (an encode): `f` returns its result and the size.
#[inline]
pub fn span_sized<R>(layer: Layer, name: &'static str, f: impl FnOnce() -> (R, usize)) -> R {
    if !ENABLED.with(Cell::get) {
        return f().0;
    }
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("enabled implies a recorder");
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied();
        r.open.push(idx);
        r.spans.push(Span {
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            journey: JOURNEY.with(Cell::get),
            allocs: 0,
            bytes: 0,
        });
        idx
    });
    let allocs0 = allocations();
    let t0 = Instant::now();
    let (out, bytes) = f();
    let t1 = Instant::now();
    let allocs = allocations() - allocs0;
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("enabled implies a recorder");
        r.open.pop();
        let epoch = r.epoch;
        let s = &mut r.spans[idx as usize];
        s.start_ns = t0.duration_since(epoch).as_nanos() as u64;
        s.end_ns = t1.duration_since(epoch).as_nanos() as u64;
        s.allocs = allocs as u32;
        s.bytes = bytes as u32;
    });
    out
}

// ---------------------------------------------------------------------
// counting allocator
// ---------------------------------------------------------------------

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `System` plus one relaxed counter increment per allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the counter is
// a statistic that guards no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (and reallocations) made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// journal store wrapper
// ---------------------------------------------------------------------

/// A [`JournalStore`] that records a span around every `put`, `remove`
/// and `count` of the store it wraps. Handed to `Journal::with_store`, so
/// the spans open inside the server's `handle` span and handle self
/// time excludes journal time. It also counts records and bytes, which
/// stay available when recording is off.
#[derive(Debug)]
pub struct TimedStore {
    inner: Box<dyn JournalStore>,
    counts: std::sync::Arc<StoreCounts>,
}

/// Write counters of one [`TimedStore`], shared with the harness.
#[derive(Debug, Default)]
pub struct StoreCounts {
    pub puts: AtomicU64,
    pub removes: AtomicU64,
    pub bytes: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Box<dyn JournalStore>, counts: std::sync::Arc<StoreCounts>) -> TimedStore {
        TimedStore { inner, counts }
    }
}

impl JournalStore for TimedStore {
    fn put(&mut self, key: &str, value: &[u8]) -> Result<()> {
        self.counts.puts.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        span(Layer::Journal, "put", value.len(), || {
            self.inner.put(key, value)
        })
    }

    fn remove(&mut self, key: &str) -> Result<()> {
        self.counts.removes.fetch_add(1, Ordering::Relaxed);
        span(Layer::Journal, "remove", 0, || self.inner.remove(key))
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    fn keys(&self) -> Result<Vec<String>> {
        self.inner.keys()
    }

    fn count(&self) -> usize {
        // polled on every journal write for a gauge, so it is journal
        // time like the write itself
        span(Layer::Journal, "count", 0, || self.inner.count())
    }
}

// ---------------------------------------------------------------------
// aggregation
// ---------------------------------------------------------------------

/// Totals of one (layer, name) group of spans.
#[derive(Debug, Clone, Default)]
pub struct Group {
    pub calls: u64,
    /// Sum of durations, children included.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part child spans cover.
    pub self_ns: u64,
    /// Allocations net of child spans.
    pub self_allocs: u64,
    pub bytes: u64,
}

impl Group {
    fn add(&mut self, other: &Group) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.self_allocs += other.self_allocs;
        self.bytes += other.bytes;
    }

    /// Mean duration of one call in ns (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// Mean self time of one call in ns (0 without calls).
    pub fn self_ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Spans folded by layer and by (layer, name).
#[derive(Debug, Default)]
pub struct Summary {
    pub by_name: BTreeMap<(Layer, &'static str), Group>,
}

impl Summary {
    /// Fold `spans`: a span's self time is its duration minus its
    /// direct children's durations (children never overlap: the pump
    /// is single-threaded).
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        let mut child_allocs = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
                child_allocs[p as usize] += u64::from(s.allocs);
            }
        }
        let mut by_name: BTreeMap<(Layer, &'static str), Group> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let g = by_name.entry((s.layer, s.name)).or_default();
            g.calls += 1;
            g.total_ns += dur;
            g.self_ns += dur.saturating_sub(child_ns[i]);
            g.self_allocs += u64::from(s.allocs).saturating_sub(child_allocs[i]);
            g.bytes += u64::from(s.bytes);
        }
        Summary { by_name }
    }

    pub fn get(&self, layer: Layer, name: &str) -> Group {
        self.by_name
            .iter()
            .find(|((l, n), _)| *l == layer && *n == name)
            .map(|(_, g)| g.clone())
            .unwrap_or_default()
    }

    pub fn layer(&self, layer: Layer) -> Group {
        let mut total = Group::default();
        for ((l, _), g) in &self.by_name {
            if *l == layer {
                total.add(g);
            }
        }
        total
    }

    /// Self time over every layer.
    pub fn self_ns(&self) -> u64 {
        self.by_name.values().map(|g| g.self_ns).sum()
    }
}

/// Write spans as one JSON document: a `columns` header and one array
/// per span, compact enough for a few hundred thousand spans.
pub fn write_json(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(64 + spans.len() * 72);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"columns\":[\"layer\",\"name\",\"start_ns\",\"end_ns\",\
         \"parent\",\"journey\",\"allocs\",\"bytes\"],\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n[\"{}\",\"{}\",{},{},{},{},{},{}]",
            s.layer.label(),
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or(-1, i64::from),
            s.journey,
            s.allocs,
            s.bytes
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        start(16);
        span(Layer::Handle, "Transfer", 0, || {
            span(Layer::Journal, "put", 10, || {
                std::hint::black_box(vec![0u8; 32]);
            });
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[1].allocs >= 1);
        let sum = Summary::of(&spans);
        let handle = sum.get(Layer::Handle, "Transfer");
        let put = sum.get(Layer::Journal, "put");
        assert_eq!(handle.total_ns, handle.self_ns + put.total_ns);
        assert_eq!(put.bytes, 10);
        // recording is off again: no recorder, no spans
        span(Layer::Codec, "encode", 0, || {});
        assert!(finish().is_empty());
    }
}
