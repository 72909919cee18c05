//! The trace and dump formats, each writer next to its reader, and the
//! cluster merger that stitches dumps into one trace:
//!
//! - **Chrome trace-event JSON** ([`chrome_trace_json`] /
//!   [`validate_chrome_trace`]) for `chrome://tracing` and Perfetto:
//!   hosts are processes, naplets threads, spans complete (`"X"`) events;
//! - **flight dumps** ([`FlatSegment::to_json`] / [`parse_flight_dump`])
//!   and **metrics-history dumps** ([`metrics_history_json`] /
//!   [`parse_metrics_history`]), the files `napletd` leaves behind;
//! - a serde [`ObsSnapshot`] and a text log ([`render_event_log`]).
//!
//! All JSON goes through [`crate::json`]. Output is deterministic: field
//! order is call order, pids/tids come from sorted name tables, and no
//! clock or random value is read.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use naplet_core::tracectx::TraceCtx;

use crate::blackbox::{MetricsHistoryPage, MetricsSample, Page, TraceSegment};
use crate::json::{self, parse_json, Json, Obj};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::trace::{ArgValue, TraceEvent};

/// Everything one run observed, as one serde-codable value.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Recorded events in processing order.
    pub events: Vec<TraceEvent>,
    /// Frozen metrics.
    pub metrics: MetricsSnapshot,
}

/// One trace event lowered to its export form: the kind replaced by
/// its stable name and pre-rendered arguments. This is the shape
/// flight-recorder dumps serialize and the cluster merger consumes —
/// a dump written by one build can be merged by another even if the
/// [`crate::trace::TraceKind`] taxonomy grew in between.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatEvent {
    /// Event instant, ms (for spans: the closing instant).
    pub at: u64,
    /// Host the event happened at.
    pub host: String,
    /// The journey the event concerns, if any.
    pub naplet: Option<String>,
    /// Stable kind name (`wire.send`, `handoff.commit`, …).
    pub name: String,
    /// For span-like events, the opening instant, ms.
    pub started: Option<u64>,
    /// Pre-rendered arguments in kind order.
    pub args: Vec<(String, ArgValue)>,
    /// Wire-propagated causal context, if the event carried one.
    pub ctx: Option<TraceCtx>,
}

impl FlatEvent {
    /// Lower one typed event.
    pub fn from_event(event: &TraceEvent) -> FlatEvent {
        FlatEvent {
            at: event.at.0,
            host: event.host.clone(),
            naplet: event.naplet.clone(),
            name: event.kind.name().to_string(),
            started: event.kind.span_start().map(|m| m.0),
            args: event
                .kind
                .args()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            ctx: event.ctx.clone(),
        }
    }

    /// The string value of argument `key`, if present.
    pub fn arg_str(&self, key: &str) -> Option<&str> {
        self.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| {
            if let ArgValue::Str(s) = v {
                Some(s.as_str())
            } else {
                None
            }
        })
    }

    fn write_json(&self, o: &mut Obj) {
        o.u64("at", self.at).str("host", &self.host);
        if let Some(naplet) = &self.naplet {
            o.str("naplet", naplet);
        }
        o.str("name", &self.name);
        if let Some(started) = self.started {
            o.u64("started", started);
        }
        if let Some(ctx) = &self.ctx {
            o.obj("ctx", |c| {
                c.str("journey", &ctx.journey)
                    .str("origin", &ctx.origin)
                    .u64("hop", ctx.hop.into())
                    .u64("seq", ctx.seq);
            });
        }
        o.obj("args", |a| {
            for (key, value) in &self.args {
                a.arg(key, value);
            }
        });
    }

    fn read_json(doc: &Json) -> Result<FlatEvent, String> {
        let arg = |value: &Json| match value {
            Json::Str(s) => Ok(ArgValue::Str(s.clone())),
            Json::Num(n) => Ok(ArgValue::Int(*n as u64)),
            Json::Bool(b) => Ok(ArgValue::Bool(*b)),
            _ => Err("expected a string, number or bool".to_string()),
        };
        let ctx = |ctx: &Json| -> Result<TraceCtx, String> {
            Ok(TraceCtx {
                journey: ctx.str("journey")?.to_string(),
                origin: ctx.str("origin")?.to_string(),
                hop: ctx.u64("hop")? as u32,
                seq: ctx.u64("seq")?,
            })
        };
        Ok(FlatEvent {
            at: doc.u64("at")?,
            host: doc.str("host")?.to_string(),
            naplet: doc.get("naplet").and_then(Json::as_str).map(str::to_string),
            name: doc.str("name")?.to_string(),
            started: doc.get("started").and_then(Json::as_num).map(|n| n as u64),
            args: doc.obj("args", arg)?,
            ctx: doc.get("ctx").map(ctx).transpose()?,
        })
    }
}

/// Lower a typed event slice for export or merging.
pub fn flatten_events(events: &[TraceEvent]) -> Vec<FlatEvent> {
    events.iter().map(FlatEvent::from_event).collect()
}

/// Render `events` as Chrome trace-event JSON.
///
/// `pid` is the sorted index of the host, `tid` the sorted index of
/// the naplet id within that host's events (tid 0 is the host's own
/// lane for events with no naplet). Timestamps are the simulation's
/// milliseconds expressed in microseconds, as the format requires.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_flat(&flatten_events(events))
}

/// [`chrome_trace_json`] over already-lowered events (the merged
/// cluster trace renders through this). Events carrying a
/// [`TraceCtx`] gain `journey`/`origin`/`hop`/`seq` arguments after
/// the kind's own, so cross-node handoffs are visibly linked.
pub fn chrome_trace_json_flat(events: &[FlatEvent]) -> String {
    let hosts: BTreeSet<&str> = events.iter().map(|e| e.host.as_str()).collect();
    let host_pid = |host: &str| hosts.iter().position(|h| *h == host).unwrap_or(0) as u64 + 1;
    let naplets: BTreeSet<&str> = events.iter().filter_map(|e| e.naplet.as_deref()).collect();
    let naplet_tid = |naplet: Option<&str>| match naplet {
        Some(id) => naplets.iter().position(|n| *n == id).unwrap_or(0) as u64 + 1,
        None => 0,
    };
    // process and thread names are metadata records
    let meta = |list: &mut json::Arr, kind: &str, pid: u64, tid: u64, name: &str| {
        list.obj(|o| {
            o.str("name", kind)
                .str("ph", "M")
                .u64("pid", pid)
                .u64("tid", tid)
                .obj("args", |a| {
                    a.str("name", name);
                });
        });
    };

    json::object(|doc| {
        doc.arr("traceEvents", |list| {
            for host in &hosts {
                meta(list, "process_name", host_pid(host), 0, host);
            }
            for naplet in &naplets {
                for host in &hosts {
                    let tid = naplet_tid(Some(naplet));
                    meta(list, "thread_name", host_pid(host), tid, naplet);
                }
            }
            for event in events {
                list.obj(|o| {
                    o.str("name", &event.name);
                    match event.started {
                        Some(started) => o
                            .str("ph", "X")
                            .u64("ts", started * 1_000)
                            .u64("dur", event.at.saturating_sub(started) * 1_000),
                        None => o.str("ph", "i").str("s", "t").u64("ts", event.at * 1_000),
                    };
                    o.u64("pid", host_pid(&event.host))
                        .u64("tid", naplet_tid(event.naplet.as_deref()))
                        .obj("args", |a| {
                            for (key, value) in &event.args {
                                a.arg(key, value);
                            }
                            // ctx keys are prefixed: several kinds already
                            // have their own `seq`/`origin` arguments
                            if let Some(ctx) = &event.ctx {
                                a.str("ctx_journey", &ctx.journey)
                                    .str("ctx_origin", &ctx.origin)
                                    .u64("ctx_hop", ctx.hop.into())
                                    .u64("ctx_seq", ctx.seq);
                            }
                        });
                });
            }
        })
        .str("displayTimeUnit", "ms");
    })
}

/// Check that `text` is valid Chrome trace-event JSON: a JSON object
/// whose `traceEvents` member is an array of objects each carrying
/// `name`/`ph`/`pid`/`tid`, with `ts` (and `dur` for `"X"`) on
/// non-metadata events. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let events = parse_json(text)?.arr("traceEvents", |event| {
        let ph = event.str("ph")?;
        for key in ["name", "pid", "tid"] {
            event.field(key, Ok)?;
        }
        if ph != "M" {
            event.u64("ts")?;
        }
        if ph == "X" {
            event.u64("dur")?;
        }
        Ok(())
    })?;
    Ok(events.len())
}

/// One-line-per-event text rendering of the trace.
pub fn render_event_log(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        let _ = write!(out, "{:>8}ms  {:<8}", event.at.0, event.host);
        let _ = write!(out, "  {:<18}", event.kind.name());
        if let Some(naplet) = &event.naplet {
            let _ = write!(out, "  {naplet}");
        }
        for (key, value) in event.kind.args() {
            match value {
                ArgValue::Str(s) => {
                    if !s.is_empty() {
                        let _ = write!(out, "  {key}={s}");
                    }
                }
                ArgValue::Int(n) => {
                    let _ = write!(out, "  {key}={n}");
                }
                ArgValue::Bool(b) => {
                    let _ = write!(out, "  {key}={b}");
                }
            }
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Flight-recorder dumps, metrics-history dumps and the merged cluster
// trace.
// ---------------------------------------------------------------------

/// A flight-recorder segment in export form: the same accounting as
/// [`TraceSegment`], with events lowered to [`FlatEvent`]s. This is
/// what a dump file parses back into and what the cluster merger
/// consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatSegment {
    /// Node the segment came from.
    pub host: String,
    /// Absolute sequence of `events[0]`.
    pub start_seq: u64,
    /// Absolute sequence one past the last event.
    pub next_seq: u64,
    /// Total events ever recorded at the node.
    pub total: u64,
    /// Events evicted from the node's ring.
    pub dropped: u64,
    /// UNIX ms at the node's event-clock zero (0 for virtual time).
    pub epoch_unix_ms: u64,
    /// The node's metrics totals at dump time, when the dump embedded
    /// them (daemon dumps do; paged live segments don't).
    pub metrics: Option<MetricsSnapshot>,
    /// The events, oldest first.
    pub events: Vec<FlatEvent>,
}

impl FlatSegment {
    /// Lower a typed segment.
    pub fn from_segment(segment: &TraceSegment) -> FlatSegment {
        FlatSegment {
            host: segment.host.clone(),
            start_seq: segment.start_seq,
            next_seq: segment.next_seq,
            total: segment.total,
            dropped: segment.dropped,
            epoch_unix_ms: segment.epoch_unix_ms,
            metrics: None,
            events: flatten_events(&segment.events),
        }
    }

    /// Split one shared event stream (the sim's hosts share one sink)
    /// into one complete, epoch-0 segment per host, sorted by host:
    /// exactly what each host's own recorder would have captured.
    pub fn per_host(events: &[TraceEvent]) -> Vec<FlatSegment> {
        let mut hosts: BTreeMap<&str, Vec<FlatEvent>> = BTreeMap::new();
        for event in events {
            hosts
                .entry(&event.host)
                .or_default()
                .push(FlatEvent::from_event(event));
        }
        hosts
            .into_iter()
            .map(|(host, events)| FlatSegment {
                host: host.to_string(),
                next_seq: events.len() as u64,
                total: events.len() as u64,
                events,
                ..FlatSegment::default()
            })
            .collect()
    }

    /// The segment as a self-describing, newline-terminated JSON dump,
    /// read back by [`parse_flight_dump`]. Field order is fixed, so
    /// identical segments dump byte-identically.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            let counts = [
                self.start_seq,
                self.next_seq,
                self.total,
                self.dropped,
                self.epoch_unix_ms,
            ];
            json::write_page(o, &self.host, counts);
            if let Some(metrics) = &self.metrics {
                o.obj("metrics", |m| metrics.write_json(m));
            }
            o.arr("events", |list| {
                for event in &self.events {
                    list.obj(|e| event.write_json(e));
                }
            });
        }) + "\n"
    }
}

/// Render a flight-recorder segment as a JSON dump
/// ([`FlatSegment::to_json`]), with the node's [`MetricsSnapshot`] at
/// dump time embedded when given, keeping trace and metrics evidence in
/// one artifact.
pub fn flight_dump_json_with(segment: &TraceSegment, metrics: Option<&MetricsSnapshot>) -> String {
    FlatSegment {
        metrics: metrics.cloned(),
        ..FlatSegment::from_segment(segment)
    }
    .to_json()
}

/// Parse a [`FlatSegment::to_json`] dump back.
pub fn parse_flight_dump(text: &str) -> Result<FlatSegment, String> {
    let doc = parse_json(text.trim_end())?;
    let (host, [start_seq, next_seq, total, dropped, epoch_unix_ms]) = json::read_page(&doc)?;
    Ok(FlatSegment {
        host,
        start_seq,
        next_seq,
        total,
        dropped,
        epoch_unix_ms,
        metrics: doc
            .get("metrics")
            .map(MetricsSnapshot::read_json)
            .transpose()?,
        events: doc.arr("events", FlatEvent::read_json)?,
    })
}

impl MetricsSnapshot {
    fn write_json(&self, o: &mut Obj) {
        o.u64_map("counters", &self.counters)
            .u64_map("gauges", &self.gauges)
            .obj("histograms", |m| {
                for (name, h) in &self.histograms {
                    m.obj(name, |o| {
                        o.u64s("bounds", &h.bounds)
                            .u64s("counts", &h.counts)
                            .u64("total", h.total)
                            .u64("sum", h.sum)
                            .u64("min", h.min)
                            .u64("max", h.max);
                    });
                }
            });
    }

    fn read_json(doc: &Json) -> Result<MetricsSnapshot, String> {
        let histogram = |h: &Json| {
            Ok(HistogramSnapshot {
                bounds: h.u64s("bounds")?,
                counts: h.u64s("counts")?,
                total: h.u64("total")?,
                sum: h.u64("sum")?,
                min: h.u64("min")?,
                max: h.u64("max")?,
            })
        };
        Ok(MetricsSnapshot {
            counters: doc.u64_map("counters")?,
            gauges: doc.u64_map("gauges")?,
            histograms: doc.obj("histograms", histogram)?.into_iter().collect(),
        })
    }
}

/// Render a node's paged-out metrics history as a self-describing
/// JSON dump (the `{node}.metrics.json` artifact `napletd` writes next
/// to the flight recorder), parseable back by
/// [`parse_metrics_history`]. Field order is fixed.
pub fn metrics_history_json(page: &MetricsHistoryPage) -> String {
    json::object(|o| {
        let counts = [
            page.start_seq,
            page.next_seq,
            page.total,
            page.dropped,
            page.epoch_unix_ms,
        ];
        json::write_page(o, &page.host, counts);
        o.arr("samples", |list| {
            for sample in &page.samples {
                list.obj(|s| {
                    s.u64("at", sample.at)
                        .obj("delta", |d| sample.delta.write_json(d));
                });
            }
        });
    }) + "\n"
}

/// Parse a [`metrics_history_json`] document back.
pub fn parse_metrics_history(text: &str) -> Result<MetricsHistoryPage, String> {
    let doc = parse_json(text.trim_end())?;
    let (host, counts) = json::read_page(&doc)?;
    let sample = |s: &Json| -> Result<MetricsSample, String> {
        Ok(MetricsSample {
            at: s.u64("at")?,
            delta: s.field("delta", MetricsSnapshot::read_json)?,
        })
    };
    let samples = doc.arr("samples", sample)?;
    Ok(MetricsHistoryPage::from_parts(host, counts, samples))
}

/// The stitched cluster-wide trace plus everything the stitching
/// learned about it.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedTrace {
    /// The merged Chrome trace-event JSON (pid = node lane).
    pub json: String,
    /// Causality violations found while merging, sorted and deduped;
    /// empty on a healthy cluster.
    pub violations: Vec<String>,
    /// Events in the merged trace (metadata records excluded).
    pub event_count: usize,
}

/// Stitch per-node flight-recorder segments into one cluster trace.
///
/// Every event is shifted onto the shared timeline (`at +
/// epoch_unix_ms`), then the union is sorted by the fixed tie-break
/// `(at, host, journey, ctx seq, kind name)` — so identically-seeded
/// virtual-time runs merge byte-identically regardless of segment
/// arrival order. While merging, wire-level causality is checked:
///
/// - **recv-before-send**: a `wire.recv` whose matching `wire.send`
///   (same journey, ctx seq, and sending host) is timestamped later
///   than `skew_tolerance_ms` after it. Live nodes stamp real clocks,
///   so a small tolerance absorbs ms-level skew between daemons on
///   one machine; virtual-time merges use 0.
/// - **missing-send**: a `wire.recv` naming a sender whose segment is
///   present and complete (`dropped == 0`) yet holds no matching send.
/// - **missing-hop**: a journey whose observed hop counters have a
///   gap (checked only when every segment is complete — a truncated
///   ring legitimately loses early hops).
pub fn merge_cluster_trace(segments: &[FlatSegment], skew_tolerance_ms: u64) -> MergedTrace {
    let mut truncated = false;
    let mut complete_hosts: BTreeSet<&str> = BTreeSet::new();
    for seg in segments {
        if seg.dropped > 0 {
            truncated = true;
        } else {
            complete_hosts.insert(seg.host.as_str());
        }
    }
    let events = merge_flat_events(segments);
    let violations = check_causality(&events, &complete_hosts, skew_tolerance_ms, truncated);
    MergedTrace {
        json: chrome_trace_json_flat(&events),
        violations,
        event_count: events.len(),
    }
}

/// Merge per-node segments onto the shared timeline without
/// rendering: every event is shifted by its segment's
/// `epoch_unix_ms`, then the union is sorted by the fixed cluster
/// tie-break `(at, host, journey, ctx seq, kind name)`. This is the
/// event stream [`merge_cluster_trace`] renders and
/// [`crate::analyze::analyze_segments`] partitions.
pub fn merge_flat_events(segments: &[FlatSegment]) -> Vec<FlatEvent> {
    let mut ordered: Vec<&FlatSegment> = segments.iter().collect();
    ordered.sort_by(|a, b| a.host.cmp(&b.host));

    let mut events: Vec<FlatEvent> = Vec::new();
    for seg in &ordered {
        for event in &seg.events {
            let mut event = event.clone();
            event.at += seg.epoch_unix_ms;
            if let Some(s) = event.started {
                event.started = Some(s + seg.epoch_unix_ms);
            }
            events.push(event);
        }
    }
    // the fixed tie-break (stable sort over host-sorted segments)
    events.sort_by(|a, b| {
        let ka = (
            a.at,
            a.host.as_str(),
            a.naplet.as_deref().unwrap_or(""),
            a.ctx.as_ref().map(|c| c.seq).unwrap_or(0),
            a.name.as_str(),
        );
        let kb = (
            b.at,
            b.host.as_str(),
            b.naplet.as_deref().unwrap_or(""),
            b.ctx.as_ref().map(|c| c.seq).unwrap_or(0),
            b.name.as_str(),
        );
        ka.cmp(&kb)
    });
    events
}

fn check_causality(
    events: &[FlatEvent],
    complete_hosts: &BTreeSet<&str>,
    skew_tolerance_ms: u64,
    truncated: bool,
) -> Vec<String> {
    // (journey, ctx seq, sending host) -> send instants. A host that
    // crashed and restarted may reuse sequences, hence the Vec.
    let mut sends: BTreeMap<(&str, u64, &str), Vec<u64>> = BTreeMap::new();
    for event in events {
        if event.name != "wire.send" {
            continue;
        }
        let Some(ctx) = &event.ctx else { continue };
        sends
            .entry((ctx.journey.as_str(), ctx.seq, event.host.as_str()))
            .or_default()
            .push(event.at);
    }

    let mut violations: BTreeSet<String> = BTreeSet::new();
    for event in events {
        if event.name != "wire.recv" {
            continue;
        }
        let Some(ctx) = &event.ctx else { continue };
        let Some(from) = event.arg_str("from") else {
            continue;
        };
        match sends.get(&(ctx.journey.as_str(), ctx.seq, from)) {
            Some(times) => {
                if times
                    .iter()
                    .all(|&sent| sent > event.at + skew_tolerance_ms)
                {
                    violations.insert(format!(
                        "recv-before-send journey={} seq={} {}->{} sent_at={}ms received_at={}ms",
                        ctx.journey,
                        ctx.seq,
                        from,
                        event.host,
                        times.iter().min().copied().unwrap_or(0),
                        event.at
                    ));
                }
            }
            None => {
                if complete_hosts.contains(from) {
                    violations.insert(format!(
                        "missing-send journey={} seq={} expected at {} for recv at {}",
                        ctx.journey, ctx.seq, from, event.host
                    ));
                }
            }
        }
    }

    if !truncated {
        let mut hops: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
        for event in events {
            if let Some(ctx) = &event.ctx {
                hops.entry(ctx.journey.as_str())
                    .or_default()
                    .insert(ctx.hop);
            }
        }
        for (journey, seen) in &hops {
            let lo = seen.iter().next().copied().unwrap_or(0);
            let hi = seen.iter().next_back().copied().unwrap_or(0);
            for hop in lo..=hi {
                if !seen.contains(&hop) {
                    violations.insert(format!("missing-hop journey={journey} hop={hop}"));
                }
            }
        }
    }

    violations.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use naplet_core::clock::Millis;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at: Millis(3),
                host: "home".into(),
                naplet: Some("naplet://czxu@home/1".into()),
                ctx: None,
                kind: TraceKind::TransferSent {
                    dest: "s0".into(),
                    transfer_id: 1,
                },
            },
            TraceEvent {
                at: Millis(9),
                host: "home".into(),
                naplet: Some("naplet://czxu@home/1".into()),
                ctx: None,
                kind: TraceKind::HandoffCommit {
                    dest: "s0".into(),
                    transfer_id: 1,
                    started: Millis(3),
                    attempts: 1,
                },
            },
            TraceEvent {
                at: Millis(12),
                host: "s0".into(),
                naplet: None,
                ctx: None,
                kind: TraceKind::Crash,
            },
        ]
    }

    #[test]
    fn chrome_export_is_valid_and_deterministic() {
        let events = sample_events();
        let a = chrome_trace_json(&events);
        let b = chrome_trace_json(&events);
        assert_eq!(a, b, "same events must export byte-identically");
        let count = validate_chrome_trace(&a).expect("export must validate");
        // 2 process_name + 2 thread_name + 3 events
        assert_eq!(count, 7);
    }

    #[test]
    fn spans_render_as_complete_events_with_duration() {
        let json = chrome_trace_json(&sample_events());
        let doc = parse_json(&json).unwrap();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            _ => panic!("no traceEvents"),
        };
        let commit = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("handoff.commit"))
            .expect("commit span present");
        assert_eq!(commit.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(commit.get("ts").and_then(Json::as_num), Some(3_000.0));
        assert_eq!(commit.get("dur").and_then(Json::as_num), Some(6_000.0));
    }

    #[test]
    fn string_escaping_survives_validation() {
        let events = vec![TraceEvent {
            at: Millis(1),
            host: "we\"ird\\host\n".into(),
            naplet: None,
            ctx: None,
            kind: TraceKind::JourneyDone {
                status: "tab\there".into(),
            },
        }];
        let json = chrome_trace_json(&events);
        validate_chrome_trace(&json).expect("escaped output must parse");
        let doc = parse_json(&json).unwrap();
        let arr = match doc.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            _ => panic!(),
        };
        let meta = &arr[0];
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("we\"ird\\host\n")
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{}extra").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":7}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\"}]}").is_err(),
            "events missing name/pid/tid must fail"
        );
    }

    #[test]
    fn text_rendering_lists_every_event() {
        let text = render_event_log(&sample_events());
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("transfer.sent"));
        assert!(text.contains("transfer_id=1"));
        assert!(text.contains("crash"));
    }

    #[test]
    fn obs_snapshot_codec_round_trip() {
        let snap = ObsSnapshot {
            events: sample_events(),
            metrics: MetricsSnapshot::default(),
        };
        let bytes = naplet_core::codec::to_bytes(&snap).unwrap();
        let back: ObsSnapshot = naplet_core::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    fn ctx(journey: &str, hop: u32, seq: u64) -> TraceCtx {
        TraceCtx {
            journey: journey.into(),
            origin: "home".into(),
            hop,
            seq,
        }
    }

    fn wire_event(at: u64, host: &str, send: bool, peer: &str, c: TraceCtx) -> TraceEvent {
        TraceEvent {
            at: Millis(at),
            host: host.into(),
            naplet: Some(c.journey.clone()),
            ctx: Some(c),
            kind: if send {
                TraceKind::WireSend {
                    to: peer.into(),
                    label: "transfer".into(),
                    class: "migration".into(),
                    bytes: 64,
                    attempt: 1,
                }
            } else {
                TraceKind::WireRecv {
                    from: peer.into(),
                    label: "transfer".into(),
                }
            },
        }
    }

    fn segment(host: &str, epoch: u64, events: Vec<TraceEvent>) -> TraceSegment {
        TraceSegment {
            host: host.into(),
            start_seq: 0,
            next_seq: events.len() as u64,
            total: events.len() as u64,
            dropped: 0,
            epoch_unix_ms: epoch,
            events,
        }
    }

    #[test]
    fn flight_dump_round_trips_and_is_deterministic() {
        let j = "naplet://czxu@home/1";
        let mut events = sample_events();
        events.push(wire_event(20, "home", true, "s0", ctx(j, 1, 1)));
        let seg = segment("home", 1_700_000_000_000, events);
        let a = flight_dump_json_with(&seg, None);
        let b = flight_dump_json_with(&seg, None);
        assert_eq!(a, b, "dumps must be byte-stable");
        let back = parse_flight_dump(&a).expect("dump must parse");
        assert_eq!(back, FlatSegment::from_segment(&seg));
        assert_eq!(back.epoch_unix_ms, 1_700_000_000_000);
        assert_eq!(back.events.len(), 4);
        assert_eq!(back.events[3].ctx.as_ref().unwrap().seq, 1);
        assert_eq!(back.events[3].arg_str("to"), Some("s0"));
    }

    #[test]
    fn flight_dump_embeds_and_round_trips_a_metrics_snapshot() {
        let seg = segment("home", 0, sample_events());
        let registry = crate::metrics::MetricsRegistry::default();
        registry.incr("handoff.commits", 3);
        registry.gauge_max("mailbox.depth", 7);
        registry.observe("handoff_rtt_ms", crate::metrics::LATENCY_BOUNDS_MS, 42);
        let snap = registry.snapshot();
        let a = flight_dump_json_with(&seg, Some(&snap));
        assert_eq!(a, flight_dump_json_with(&seg, Some(&snap)));
        let back = parse_flight_dump(&a).expect("dump with metrics must parse");
        assert_eq!(back.metrics.as_ref(), Some(&snap));
        assert_eq!(back.events, FlatSegment::from_segment(&seg).events);
        // a metrics-less dump parses to None, keeping old dumps valid
        let plain = parse_flight_dump(&flight_dump_json_with(&seg, None)).unwrap();
        assert_eq!(plain.metrics, None);
    }

    #[test]
    fn names_and_keys_read_from_a_dump_are_escaped_on_the_way_out() {
        // a dump is outside input: its kind names and argument keys may
        // hold anything a JSON string can
        let dump = concat!(
            r#"{"host":"n1","start_seq":0,"next_seq":1,"total":1,"dropped":0,"epoch_unix_ms":0,"#,
            r#""events":[{"at":4,"host":"n1","naplet":"a\"b","name":"we\"ird\\kind","started":1,"#,
            r#""args":{"k\"e\\y":"v\\","n":2}}]}"#
        );
        let seg = parse_flight_dump(dump).expect("the dump parses");
        assert_eq!(seg.events[0].name, "we\"ird\\kind");
        assert_eq!(seg.events[0].args[0].0, "k\"e\\y");
        let merged = merge_cluster_trace(std::slice::from_ref(&seg), 0);
        // process name + thread name + the event
        assert_eq!(validate_chrome_trace(&merged.json), Ok(3));
        let redump = parse_flight_dump(&seg.to_json()).expect("the re-dump parses");
        assert_eq!(redump, seg);
    }

    #[test]
    fn metrics_history_dump_round_trips() {
        let history = crate::MetricsHistory::default();
        history.enable(1_700_000_000_000);
        let registry = crate::metrics::MetricsRegistry::default();
        registry.incr("wire.sent", 5);
        let first = registry.snapshot();
        history.record(MetricsSample {
            at: 100,
            delta: first.clone(),
        });
        registry.incr("wire.sent", 2);
        registry.observe("sweep_ms", crate::metrics::LATENCY_BOUNDS_MS, 3);
        history.record(MetricsSample {
            at: 200,
            delta: registry.snapshot().diff(&first),
        });
        let page = history.dump("n1");
        let a = metrics_history_json(&page);
        assert_eq!(a, metrics_history_json(&page), "dump must be byte-stable");
        let back = parse_metrics_history(&a).expect("history dump must parse");
        assert_eq!(back, page);
        assert_eq!(back.samples[0].delta.counter("wire.sent"), 5);
        assert_eq!(back.samples[1].delta.counter("wire.sent"), 2);
    }

    #[test]
    fn merged_trace_links_sends_to_recvs_across_nodes() {
        let j = "naplet://czxu@home/1";
        let home = segment(
            "home",
            0,
            vec![wire_event(5, "home", true, "n1", ctx(j, 1, 1))],
        );
        let n1 = segment(
            "n1",
            0,
            vec![wire_event(9, "n1", false, "home", ctx(j, 1, 1))],
        );
        // segment order must not matter
        let fwd = merge_cluster_trace(
            &[
                FlatSegment::from_segment(&home),
                FlatSegment::from_segment(&n1),
            ],
            0,
        );
        let rev = merge_cluster_trace(
            &[
                FlatSegment::from_segment(&n1),
                FlatSegment::from_segment(&home),
            ],
            0,
        );
        assert_eq!(fwd, rev, "merge must be order-insensitive");
        assert!(fwd.violations.is_empty(), "{:?}", fwd.violations);
        assert_eq!(fwd.event_count, 2);
        validate_chrome_trace(&fwd.json).expect("merged trace must validate");
        assert!(fwd.json.contains("\"ctx_seq\":1"));
    }

    #[test]
    fn merge_normalizes_per_node_epochs() {
        let j = "naplet://czxu@home/1";
        // home's clock started 100ms before n1's: a recv at local 2ms
        // on n1 is actually *after* a send at local 90ms on home.
        let home = segment(
            "home",
            1_000,
            vec![wire_event(90, "home", true, "n1", ctx(j, 1, 1))],
        );
        let n1 = segment(
            "n1",
            1_100,
            vec![wire_event(2, "n1", false, "home", ctx(j, 1, 1))],
        );
        let merged = merge_cluster_trace(
            &[
                FlatSegment::from_segment(&home),
                FlatSegment::from_segment(&n1),
            ],
            0,
        );
        assert!(merged.violations.is_empty(), "{:?}", merged.violations);
    }

    #[test]
    fn merge_flags_causality_violations() {
        let j = "naplet://czxu@home/1";
        // recv strictly before its matching send on the shared timeline
        let home = segment(
            "home",
            0,
            vec![wire_event(50, "home", true, "n1", ctx(j, 1, 1))],
        );
        let n1 = segment(
            "n1",
            0,
            vec![wire_event(10, "n1", false, "home", ctx(j, 1, 1))],
        );
        let merged = merge_cluster_trace(
            &[
                FlatSegment::from_segment(&home),
                FlatSegment::from_segment(&n1),
            ],
            0,
        );
        assert_eq!(merged.violations.len(), 1);
        assert!(
            merged.violations[0].starts_with("recv-before-send"),
            "{:?}",
            merged.violations
        );
        // ...but a skew tolerance ≥ the gap absorbs it
        let tolerant = merge_cluster_trace(
            &[
                FlatSegment::from_segment(&home),
                FlatSegment::from_segment(&n1),
            ],
            40,
        );
        assert!(tolerant.violations.is_empty());

        // a recv whose sender's complete segment holds no send
        let lonely = merge_cluster_trace(
            &[
                FlatSegment::from_segment(&segment("home", 0, vec![])),
                FlatSegment::from_segment(&n1),
            ],
            0,
        );
        assert!(lonely
            .violations
            .iter()
            .any(|v| v.starts_with("missing-send")));

        // a hop gap: hops 1 and 3 observed, 2 never recorded anywhere
        let gap = merge_cluster_trace(
            &[FlatSegment::from_segment(&segment(
                "home",
                0,
                vec![
                    wire_event(1, "home", true, "n1", ctx(j, 1, 1)),
                    wire_event(9, "home", true, "n1", ctx(j, 3, 3)),
                ],
            ))],
            0,
        );
        assert!(
            gap.violations.iter().any(|v| v.starts_with("missing-hop")),
            "{:?}",
            gap.violations
        );
    }

    #[test]
    fn truncated_segments_suppress_hop_gap_checks() {
        let j = "naplet://czxu@home/1";
        let mut seg = segment(
            "home",
            0,
            vec![
                wire_event(1, "home", true, "n1", ctx(j, 1, 1)),
                wire_event(9, "home", true, "n1", ctx(j, 3, 3)),
            ],
        );
        seg.dropped = 5; // the ring lost the front of the record
        let merged = merge_cluster_trace(&[FlatSegment::from_segment(&seg)], 0);
        assert!(
            merged.violations.is_empty(),
            "a truncated record cannot prove a hop gap: {:?}",
            merged.violations
        );
    }
}
