//! # naplet-obs — journey tracing and metrics
//!
//! The paper's NapletServer is built around components that *watch*
//! agents: the NavigationLog records every hop (§2.1) and the
//! NapletMonitor tracks consumed CPU time, memory, and bandwidth
//! (§5.2). This crate turns those observations into structure:
//!
//! - a typed [`TraceEvent`] stream with causal correlation — the
//!   naplet id is the trace id of its journey; visits and handoffs
//!   are spans, wire/journal/recovery activity are instants;
//! - a [`MetricsRegistry`] of counters and fixed-bucket histograms
//!   (handoff RTT, landing latency, visit dwell, retries, journal
//!   size, mailbox depth, per-naplet resource usage);
//! - deterministic exporters: Chrome trace-event JSON for
//!   `chrome://tracing`/Perfetto, a serde snapshot, and text tables.
//!
//! Both halves hang off one cloneable [`ObsSink`] that the drivers
//! thread through every server. Metrics are always on (a handful of
//! map updates per protocol step); tracing is off until
//! [`ObsSink::enable_tracing`] and costs one atomic load when off.

#![warn(missing_docs)]

pub mod analyze;
pub mod export;
pub mod history;
pub mod metrics;
pub mod prometheus;
pub mod recorder;
pub mod ring;
pub mod trace;
pub mod watchdog;

pub use analyze::{
    analyze_events, analyze_segments, check_slo, diff_analyses, parse_analysis, AnalysisDiff,
    DiffRow, JourneyBreakdown, SegmentStats, SloConfig, TraceAnalysis, ANALYZE_SCHEMA,
    SEGMENT_NAMES,
};
pub use export::{
    chrome_trace_json, chrome_trace_json_flat, flatten_events, flight_dump_json,
    flight_dump_json_with, merge_cluster_trace, merge_flat_events, metrics_history_json,
    parse_flight_dump, parse_json, parse_metrics_history, render_event_log, validate_chrome_trace,
    FlatEvent, FlatSegment, Json, MergedTrace, ObsSnapshot,
};
pub use history::{MetricsHistory, MetricsHistoryPage, MetricsSample, DEFAULT_HISTORY_CAPACITY};
pub use metrics::{
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, COUNT_BOUNDS, HANDLER_BOUNDS_US,
    LATENCY_BOUNDS_MS,
};
pub use prometheus::{prometheus_text, prometheus_text_full, BuildInfo};
pub use recorder::{FlightRecorder, TraceSegment, DEFAULT_RECORDER_CAPACITY};
pub use ring::Ring;
pub use trace::{ArgValue, TraceEvent, TraceKind, Tracer};
pub use watchdog::{StallAlert, Watchdog, WatchdogConfig};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use naplet_core::clock::Millis;
use naplet_core::id::NapletId;
use naplet_core::tracectx::TraceCtx;

/// The shared observation endpoint: one per runtime, cloned into
/// every server it drives.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    /// The trace recorder (disabled until [`ObsSink::enable_tracing`]).
    pub tracer: Tracer,
    /// The always-on metrics registry.
    pub metrics: MetricsRegistry,
    /// The journey stall watchdog (disabled until
    /// [`ObsSink::enable_watchdog`]).
    pub watchdog: Watchdog,
    /// The bounded flight recorder (disabled until
    /// [`ObsSink::enable_recorder`]).
    pub recorder: FlightRecorder,
    /// The metrics time-series ring (disabled until
    /// [`ObsSink::enable_metrics_history`]).
    pub history: MetricsHistory,
    /// Wall-clock profiling switch (see [`ObsSink::enable_profiling`]).
    profiling: Arc<AtomicBool>,
}

impl ObsSink {
    /// A fresh sink: metrics on, tracing/watchdog/recorder off.
    pub fn new() -> ObsSink {
        ObsSink::default()
    }

    /// Start recording trace events.
    pub fn enable_tracing(&self) {
        self.tracer.set_enabled(true);
    }

    /// Arm the journey watchdog; every event emitted through this
    /// sink then feeds its progress tracker.
    pub fn enable_watchdog(&self, config: WatchdogConfig) {
        self.watchdog.enable(config);
    }

    /// Start the bounded flight recorder with a ring of `capacity`
    /// recent events.
    pub fn enable_recorder(&self, capacity: usize) {
        self.recorder.enable(capacity);
    }

    /// Start sampling metrics deltas into a ring of `capacity` recent
    /// samples (the daemon sweep thread calls
    /// [`MetricsHistory::sample`] on every tick).
    pub fn enable_metrics_history(&self, capacity: usize) {
        self.history.enable(capacity);
    }

    /// Turn on wall-clock hot-path profiling (handler-latency
    /// histograms). Off by default: wall-clock readings are
    /// nondeterministic, so the simulation's byte-stable exports must
    /// never see them — only live daemons opt in.
    pub fn enable_profiling(&self) {
        self.profiling.store(true, Ordering::Relaxed);
    }

    /// Is wall-clock profiling on?
    pub fn profiling_enabled(&self) -> bool {
        self.profiling.load(Ordering::Relaxed)
    }

    /// Should drivers compute and propagate [`TraceCtx`] on sends?
    /// True while any consumer of wire-level causality (tracer or
    /// flight recorder) is on — when both are off, senders skip the
    /// context table entirely and frames stay byte-identical to the
    /// pre-tracing encoding.
    pub fn ctx_enabled(&self) -> bool {
        self.tracer.enabled() || self.recorder.enabled()
    }

    /// Record one event; the `kind` closure runs only when the tracer,
    /// the watchdog, or the flight recorder wants it, so instrumented
    /// hot paths allocate nothing when all are off (three atomic
    /// loads).
    pub fn emit(
        &self,
        at: Millis,
        host: &str,
        naplet: Option<&NapletId>,
        kind: impl FnOnce() -> TraceKind,
    ) {
        self.emit_ctx(at, host, naplet, None, kind);
    }

    /// [`ObsSink::emit`] with a wire-propagated [`TraceCtx`] attached
    /// to the recorded event — drivers use this for wire send/recv/drop
    /// events so merged cluster traces can pair them across nodes.
    pub fn emit_ctx(
        &self,
        at: Millis,
        host: &str,
        naplet: Option<&NapletId>,
        ctx: Option<&TraceCtx>,
        kind: impl FnOnce() -> TraceKind,
    ) {
        let want_trace = self.tracer.enabled();
        let want_rec = self.recorder.enabled();
        if !want_trace && !want_rec && !self.watchdog.enabled() {
            return;
        }
        let kind = kind();
        if self.watchdog.enabled() {
            let id = naplet.map(|id| id.to_string());
            self.watchdog.observe(at, host, id.as_deref(), &kind);
        }
        if !want_trace && !want_rec {
            return;
        }
        let event = TraceEvent {
            at,
            host: host.to_string(),
            naplet: naplet.map(|id| id.to_string()),
            ctx: ctx.cloned(),
            kind,
        };
        if want_rec {
            if want_trace {
                self.recorder.record(event.clone());
            } else {
                self.recorder.record(event);
                return;
            }
        }
        self.tracer.push(event);
    }

    /// Record an already-built event with every enabled consumer
    /// (tracer and flight recorder) — used for watchdog alerts, which
    /// are constructed by the watchdog itself rather than through
    /// [`ObsSink::emit`].
    pub fn push_event(&self, event: TraceEvent) {
        if self.recorder.enabled() {
            self.recorder.record(event.clone());
        }
        self.tracer.push(event);
    }

    /// Account one journey-stall alert the watchdog raised: the
    /// `alerts.raised` total, its `alerts.orphan` / `alerts.stalled`
    /// kind, and the alert event to every enabled consumer. Both the
    /// sim's sweep and the live sweeper thread report through here.
    pub fn record_stall_alert(&self, alert: &StallAlert) {
        self.metrics.incr("alerts.raised", 1);
        let kind = if alert.orphan {
            "alerts.orphan"
        } else {
            "alerts.stalled"
        };
        self.metrics.incr(kind, 1);
        self.push_event(alert.event.clone());
    }

    /// Freeze everything observed so far into one exportable value.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            events: self.tracer.events(),
            metrics: self.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_emits_only_when_enabled() {
        let sink = ObsSink::new();
        sink.emit(Millis(1), "h", None, || TraceKind::Crash);
        assert!(sink.tracer.is_empty());
        sink.enable_tracing();
        sink.emit(Millis(2), "h", None, || TraceKind::Crash);
        assert_eq!(sink.tracer.len(), 1);
    }

    #[test]
    fn sink_feeds_the_watchdog_even_with_tracing_off() {
        let sink = ObsSink::new();
        let id = NapletId::new("czxu", "home", Millis(1)).unwrap();
        sink.emit(Millis(2), "s1", Some(&id), || TraceKind::VisitEnd {
            started: Millis(1),
            epoch: 1,
            gas: 0,
            msg_bytes: 0,
        });
        assert_eq!(sink.watchdog.tracked(), 0, "disabled watchdog sees nothing");
        sink.enable_watchdog(WatchdogConfig {
            deadline_ms: 100,
            ..WatchdogConfig::default()
        });
        sink.emit(Millis(3), "s1", Some(&id), || TraceKind::VisitEnd {
            started: Millis(2),
            epoch: 1,
            gas: 0,
            msg_bytes: 0,
        });
        assert_eq!(sink.watchdog.tracked(), 1);
        assert!(sink.tracer.is_empty(), "tracing stays off independently");
        assert_eq!(sink.watchdog.check(Millis(500)).len(), 1);
    }

    #[test]
    fn sink_snapshot_carries_events_and_metrics() {
        let sink = ObsSink::new();
        sink.enable_tracing();
        let id = NapletId::new("czxu", "home", Millis(1)).unwrap();
        sink.emit(Millis(2), "home", Some(&id), || TraceKind::JourneyDone {
            status: "completed".into(),
        });
        sink.metrics.incr("done", 1);
        let snap = sink.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(
            snap.events[0].naplet.as_deref(),
            Some(id.to_string().as_str())
        );
        assert_eq!(snap.metrics.counter("done"), 1);
    }
}
