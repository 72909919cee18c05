//! Journey critical-path analysis over merged cluster traces.
//!
//! The tracer and the cluster merger answer "what happened"; this
//! module answers "where did the time go". It partitions every
//! journey's wall-clock into a fixed set of named segments —
//!
//! - `dwell` — the agent executing inside a visit span;
//! - `wire` — frames and state transfers in flight between nodes;
//! - `queue` — waiting on the destination's landing decision;
//! - `stall` — retransmit/backoff windows and recovery replay;
//! - `directory` — registration and location-forwarding work;
//! - `other` — residue no rule claimed (kept explicit, never hidden);
//!
//! — using a *timeline partition*: overlapping evidence (spans, send →
//! recv pairs, retransmit backoff windows) is lowered to prioritized
//! interval claims, the journey's timeline is cut at every claim
//! boundary and event instant, and each elementary slice is awarded to
//! the highest-priority claim covering it (unclaimed slices are
//! classified by the event that terminates them). By construction the
//! per-segment durations of a journey sum to its wall-clock *exactly*,
//! so blame percentages are lossless and byte-stable across runs.
//!
//! The output [`TraceAnalysis`] carries per-journey breakdowns (ranked
//! slowest first), cluster-wide per-segment p50/p95/p99 tables, a
//! deterministic fixed-field-order JSON export ([`ANALYZE_SCHEMA`]),
//! a regression differ ([`diff_analyses`]), and SLO evaluation
//! ([`SloConfig`], [`check_slo`]) for the bootstrap `[slo]` section.

use std::collections::BTreeMap;

use crate::export::{merge_flat_events, FlatEvent, FlatSegment};
use crate::json::{self, parse_json, Json};
use crate::trace::ArgValue;

/// Schema tag stamped on every analysis JSON document.
pub const ANALYZE_SCHEMA: &str = "naplet-analyze/v1";

/// The fixed segment taxonomy, in render and JSON order.
pub const SEGMENT_NAMES: [&str; 6] = ["dwell", "wire", "queue", "stall", "directory", "other"];

const DWELL: usize = 0;
const WIRE: usize = 1;
const QUEUE: usize = 2;
const STALL: usize = 3;
const DIRECTORY: usize = 4;
const OTHER: usize = 5;

/// One journey's wall-clock, partitioned. `segments[i]` is the total
/// milliseconds awarded to `SEGMENT_NAMES[i]`; the six entries sum to
/// `wall_ms` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JourneyBreakdown {
    /// The journey id (the naplet id string).
    pub journey: String,
    /// Origin host of the journey (from the wire context, falling
    /// back to the host of the earliest event).
    pub origin: String,
    /// Merged-timeline instant the journey started, ms.
    pub start_ms: u64,
    /// End-to-end wall-clock of the journey, ms.
    pub wall_ms: u64,
    /// Migration hops the journey took.
    pub hops: u32,
    /// Milliseconds per segment, indexed like [`SEGMENT_NAMES`].
    pub segments: [u64; 6],
    /// Tenths of a percent of `wall_ms` attributed to a segment other
    /// than `other` (1000 = fully attributed).
    pub attributed_pct_tenths: u64,
    /// The critical-path segment: the largest share of `wall_ms`
    /// (first in taxonomy order on ties; `none` for zero-length
    /// journeys).
    pub critical: String,
}

impl JourneyBreakdown {
    /// Milliseconds awarded to the named segment (0 for unknown
    /// names).
    pub fn segment_ms(&self, name: &str) -> u64 {
        SEGMENT_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| self.segments[i])
            .unwrap_or(0)
    }
}

/// Cluster-wide distribution of one segment across journeys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment name (one of [`SEGMENT_NAMES`]).
    pub name: String,
    /// Sum over journeys, ms.
    pub total_ms: u64,
    /// Median per-journey milliseconds.
    pub p50_ms: u64,
    /// 95th-percentile per-journey milliseconds (nearest rank).
    pub p95_ms: u64,
    /// 99th-percentile per-journey milliseconds (nearest rank).
    pub p99_ms: u64,
    /// Largest per-journey milliseconds.
    pub max_ms: u64,
}

/// The full analysis of one merged trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAnalysis {
    /// Events the analysis consumed.
    pub event_count: u64,
    /// Per-journey breakdowns, slowest first (ties by journey id).
    pub journeys: Vec<JourneyBreakdown>,
    /// Per-segment distributions, in [`SEGMENT_NAMES`] order.
    pub segments: Vec<SegmentStats>,
    /// Median journey wall-clock, ms.
    pub wall_p50_ms: u64,
    /// 95th-percentile journey wall-clock, ms.
    pub wall_p95_ms: u64,
    /// 99th-percentile journey wall-clock, ms.
    pub wall_p99_ms: u64,
    /// Sum of journey wall-clocks, ms.
    pub total_wall_ms: u64,
    /// Tenths of a percent of total wall-clock spent stalled.
    pub stall_pct_tenths: u64,
    /// The worst journey's attribution, in tenths of a percent (1000
    /// when every journey is fully attributed or there are none).
    pub min_attributed_pct_tenths: u64,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], q_num: u64, q_den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = ((n * q_num).div_ceil(q_den)).max(1);
    sorted[(rank - 1) as usize]
}

fn arg_u64(event: &FlatEvent, key: &str) -> Option<u64> {
    event
        .args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| {
            if let ArgValue::Int(n) = v {
                Some(*n)
            } else {
                None
            }
        })
}

/// A prioritized interval claim on a journey's timeline. Lower
/// `priority` wins when claims overlap.
struct Claim {
    start: u64,
    end: u64,
    cat: usize,
    priority: u8,
}

/// The fallback taxonomy for timeline slices no claim covers: the
/// slice is classified by the event that terminates it.
fn fallback_category(name: &str) -> usize {
    match name {
        "visit" => DWELL,
        "wire.send" | "wire.recv" | "wire.drop" | "transfer.sent" | "transfer.recv"
        | "handoff.commit" | "handoff.failed" | "handoff.parked" => WIRE,
        "landing.decision" | "journey.done" => QUEUE,
        "handoff.retransmit" | "recovery.replay" | "recovery.done" | "lease.expired" | "crash" => {
            STALL
        }
        name if name.starts_with("alert.") => STALL,
        "register.gated" | "register.acked" | "post.forward" | "post.redeliver" => DIRECTORY,
        // journal writes are resident-side bookkeeping; consensus
        // traffic is the directory plane replicating itself
        name if name.starts_with("journal.") => DWELL,
        name if name.starts_with("repl.") => DIRECTORY,
        _ => OTHER,
    }
}

/// Lower one journey's events (merged order preserved) to interval
/// claims. See the module docs for the rules.
fn journey_claims(events: &[&FlatEvent], jstart: u64, jend: u64) -> Vec<Claim> {
    let mut claims: Vec<Claim> = Vec::new();
    let mut push = |start: u64, end: u64, cat: usize, priority: u8| {
        let start = start.max(jstart);
        let end = end.min(jend);
        if start < end {
            claims.push(Claim {
                start,
                end,
                cat,
                priority,
            });
        }
    };

    // stall: each retransmit blames the backoff window since the
    // previous attempt (or the original send) on the hop that had to
    // retransmit
    let mut last_attempt: BTreeMap<u64, u64> = BTreeMap::new();
    for event in events {
        let Some(tid) = arg_u64(event, "transfer_id") else {
            continue;
        };
        match event.name.as_str() {
            "transfer.sent" => {
                last_attempt.insert(tid, event.at);
            }
            "handoff.retransmit" => {
                if let Some(prev) = last_attempt.insert(tid, event.at) {
                    push(prev, event.at, STALL, 0);
                }
            }
            _ => {}
        }
    }

    // wire: transfer.sent -> first matching transfer.recv, and
    // ctx-paired wire.send -> wire.recv (earliest unmatched send wins)
    let mut unmatched_transfers: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut unmatched_frames: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for event in events {
        match event.name.as_str() {
            "transfer.sent" => {
                if let Some(tid) = arg_u64(event, "transfer_id") {
                    unmatched_transfers.entry(tid).or_default().push(event.at);
                }
            }
            "transfer.recv" => {
                if let Some(tid) = arg_u64(event, "transfer_id") {
                    if let Some(sends) = unmatched_transfers.get_mut(&tid) {
                        if !sends.is_empty() {
                            push(sends.remove(0), event.at, WIRE, 1);
                        }
                    }
                }
            }
            "wire.send" => {
                if let Some(ctx) = &event.ctx {
                    unmatched_frames.entry(ctx.seq).or_default().push(event.at);
                }
            }
            "wire.recv" => {
                if let Some(ctx) = &event.ctx {
                    if let Some(sends) = unmatched_frames.get_mut(&ctx.seq) {
                        if !sends.is_empty() {
                            push(sends.remove(0), event.at, WIRE, 1);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // spans: registrations are directory work, visits are dwell, and
    // the whole handoff span is a low-priority wire claim that soaks up
    // whatever the sharper rules above left uncovered
    for event in events {
        let Some(started) = event.started else {
            continue;
        };
        match event.name.as_str() {
            "register.acked" => push(started, event.at, DIRECTORY, 3),
            "visit" => push(started, event.at, DWELL, 4),
            "handoff.commit" => push(started, event.at, WIRE, 5),
            _ => {}
        }
    }
    claims
}

/// Partition one journey's timeline. Returns per-segment totals that
/// sum to `jend - jstart` exactly.
fn partition_journey(events: &[&FlatEvent], jstart: u64, jend: u64) -> [u64; 6] {
    let claims = journey_claims(events, jstart, jend);
    let mut bounds: Vec<u64> = Vec::with_capacity(2 + claims.len() * 2 + events.len());
    bounds.push(jstart);
    bounds.push(jend);
    for claim in &claims {
        bounds.push(claim.start);
        bounds.push(claim.end);
    }
    for event in events {
        bounds.push(event.at.clamp(jstart, jend));
    }
    bounds.sort_unstable();
    bounds.dedup();

    // events sorted by instant for the fallback lookup; merged order
    // breaks ties deterministically because the sort is stable
    let mut by_at: Vec<&FlatEvent> = events.to_vec();
    by_at.sort_by_key(|e| e.at);

    let mut totals = [0u64; 6];
    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let mut winner: Option<(u8, usize)> = None;
        for claim in &claims {
            if claim.start <= a && claim.end >= b {
                let key = (claim.priority, claim.cat);
                if winner.map(|w| key < w).unwrap_or(true) {
                    winner = Some(key);
                }
            }
        }
        let cat = match winner {
            Some((_, cat)) => cat,
            None => {
                // unclaimed: blame the first event at (or after) the
                // slice end — the activity this time was leading up to
                let next = by_at.partition_point(|e| e.at < b);
                by_at
                    .get(next)
                    .map(|e| fallback_category(&e.name))
                    .unwrap_or(OTHER)
            }
        };
        totals[cat] += b - a;
    }
    totals
}

/// Analyze pre-merged flat events (already on the shared timeline).
pub fn analyze_events(events: &[FlatEvent]) -> TraceAnalysis {
    // group by journey, preserving merged order
    let mut journeys: BTreeMap<String, Vec<&FlatEvent>> = BTreeMap::new();
    for event in events {
        let key = event
            .ctx
            .as_ref()
            .map(|c| c.journey.clone())
            .or_else(|| event.naplet.clone());
        if let Some(key) = key {
            journeys.entry(key).or_default().push(event);
        }
    }

    let mut breakdowns: Vec<JourneyBreakdown> = Vec::with_capacity(journeys.len());
    for (journey, evs) in &journeys {
        let jstart = evs
            .iter()
            .map(|e| e.started.unwrap_or(e.at))
            .min()
            .unwrap_or(0);
        let jend = evs.iter().map(|e| e.at).max().unwrap_or(jstart);
        let wall = jend - jstart;
        let segments = partition_journey(evs, jstart, jend);
        debug_assert_eq!(segments.iter().sum::<u64>(), wall);
        let origin = evs
            .iter()
            .find_map(|e| e.ctx.as_ref().map(|c| c.origin.clone()))
            .unwrap_or_else(|| evs[0].host.clone());
        let hops = evs
            .iter()
            .filter_map(|e| e.ctx.as_ref().map(|c| c.hop))
            .max()
            .unwrap_or_else(|| evs.iter().filter(|e| e.name == "visit").count() as u32);
        let attributed = wall - segments[OTHER];
        let attributed_pct_tenths = (attributed * 1000).checked_div(wall).unwrap_or(1000);
        let critical = if wall == 0 {
            "none".to_string()
        } else {
            let best = (0..6).max_by_key(|i| (segments[*i], 5 - i)).unwrap_or(0);
            SEGMENT_NAMES[best].to_string()
        };
        breakdowns.push(JourneyBreakdown {
            journey: journey.clone(),
            origin,
            start_ms: jstart,
            wall_ms: wall,
            hops,
            segments,
            attributed_pct_tenths,
            critical,
        });
    }
    breakdowns.sort_by(|a, b| {
        b.wall_ms
            .cmp(&a.wall_ms)
            .then_with(|| a.journey.cmp(&b.journey))
    });

    let mut walls: Vec<u64> = breakdowns.iter().map(|j| j.wall_ms).collect();
    walls.sort_unstable();
    let total_wall_ms: u64 = walls.iter().sum();

    let mut segments = Vec::with_capacity(6);
    for (i, name) in SEGMENT_NAMES.iter().enumerate() {
        let mut values: Vec<u64> = breakdowns.iter().map(|j| j.segments[i]).collect();
        values.sort_unstable();
        segments.push(SegmentStats {
            name: name.to_string(),
            total_ms: values.iter().sum(),
            p50_ms: percentile(&values, 50, 100),
            p95_ms: percentile(&values, 95, 100),
            p99_ms: percentile(&values, 99, 100),
            max_ms: values.last().copied().unwrap_or(0),
        });
    }

    let stall_total = segments[STALL].total_ms;
    TraceAnalysis {
        event_count: events.len() as u64,
        wall_p50_ms: percentile(&walls, 50, 100),
        wall_p95_ms: percentile(&walls, 95, 100),
        wall_p99_ms: percentile(&walls, 99, 100),
        total_wall_ms,
        stall_pct_tenths: (stall_total * 1000).checked_div(total_wall_ms).unwrap_or(0),
        min_attributed_pct_tenths: breakdowns
            .iter()
            .map(|j| j.attributed_pct_tenths)
            .min()
            .unwrap_or(1000),
        journeys: breakdowns,
        segments,
    }
}

/// Analyze per-node flight segments: merge them onto the shared
/// timeline with the cluster tie-break (same ordering as
/// [`crate::merge_cluster_trace`]) and partition every journey.
pub fn analyze_segments(segments: &[FlatSegment]) -> TraceAnalysis {
    analyze_events(&merge_flat_events(segments))
}

fn pct_tenths(t: u64) -> String {
    format!("{}.{}", t / 10, t % 10)
}

impl TraceAnalysis {
    /// Deterministic fixed-field-order JSON (schema
    /// [`ANALYZE_SCHEMA`]), one line, newline-terminated. Byte-stable
    /// across identically-seeded runs; read back by [`parse_analysis`].
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("schema", ANALYZE_SCHEMA)
                .u64("event_count", self.event_count)
                .u64("journey_count", self.journeys.len() as u64)
                .u64("total_wall_ms", self.total_wall_ms)
                .u64("wall_p50_ms", self.wall_p50_ms)
                .u64("wall_p95_ms", self.wall_p95_ms)
                .u64("wall_p99_ms", self.wall_p99_ms)
                .u64("stall_pct_tenths", self.stall_pct_tenths)
                .u64("min_attributed_pct_tenths", self.min_attributed_pct_tenths)
                .arr("segments", |list| {
                    for seg in &self.segments {
                        list.obj(|o| {
                            o.str("name", &seg.name)
                                .u64("total_ms", seg.total_ms)
                                .u64("p50_ms", seg.p50_ms)
                                .u64("p95_ms", seg.p95_ms)
                                .u64("p99_ms", seg.p99_ms)
                                .u64("max_ms", seg.max_ms);
                        });
                    }
                })
                .arr("journeys", |list| {
                    for j in &self.journeys {
                        list.obj(|o| {
                            o.str("journey", &j.journey)
                                .str("origin", &j.origin)
                                .u64("start_ms", j.start_ms)
                                .u64("wall_ms", j.wall_ms)
                                .u64("hops", j.hops.into())
                                .u64("attributed_pct_tenths", j.attributed_pct_tenths)
                                .str("critical", &j.critical)
                                .obj("segments", |segs| {
                                    for (name, ms) in SEGMENT_NAMES.iter().zip(j.segments) {
                                        segs.u64(name, ms);
                                    }
                                });
                        });
                    }
                });
        }) + "\n"
    }

    /// Human tables: the per-segment distribution, then the `top_k`
    /// slowest journeys with critical-path blame.
    pub fn render_text(&self, top_k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "journeys {} · events {} · wall p50 {} ms · p95 {} ms · p99 {} ms · stalled {}% · min attribution {}%\n",
            self.journeys.len(),
            self.event_count,
            self.wall_p50_ms,
            self.wall_p95_ms,
            self.wall_p99_ms,
            pct_tenths(self.stall_pct_tenths),
            pct_tenths(self.min_attributed_pct_tenths),
        ));
        out.push_str(&format!(
            "{:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>7}\n",
            "segment", "total_ms", "p50", "p95", "p99", "max", "share"
        ));
        for seg in &self.segments {
            let share = (seg.total_ms * 1000)
                .checked_div(self.total_wall_ms)
                .unwrap_or(0);
            out.push_str(&format!(
                "{:<10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>6}%\n",
                seg.name,
                seg.total_ms,
                seg.p50_ms,
                seg.p95_ms,
                seg.p99_ms,
                seg.max_ms,
                pct_tenths(share),
            ));
        }
        if top_k > 0 && !self.journeys.is_empty() {
            out.push_str(&format!(
                "top {} slowest journeys:\n",
                top_k.min(self.journeys.len())
            ));
            for j in self.journeys.iter().take(top_k) {
                let blame = (j.segment_ms(&j.critical) * 1000)
                    .checked_div(j.wall_ms)
                    .unwrap_or(0);
                let parts: Vec<String> = SEGMENT_NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, n)| format!("{n} {}", j.segments[i]))
                    .collect();
                out.push_str(&format!(
                    "  {} wall {} ms · hops {} · critical {} ({}%) · {}\n",
                    j.journey,
                    j.wall_ms,
                    j.hops,
                    j.critical,
                    pct_tenths(blame),
                    parts.join(" · "),
                ));
            }
        }
        out
    }
}

/// Parse a [`TraceAnalysis::to_json`] document back (for `--diff`).
pub fn parse_analysis(text: &str) -> Result<TraceAnalysis, String> {
    let doc = parse_json(text.trim_end())?;
    let schema = doc.str("schema")?;
    if schema != ANALYZE_SCHEMA {
        return Err(format!(
            "unsupported analysis schema `{schema}` (want `{ANALYZE_SCHEMA}`)"
        ));
    }
    let segment = |s: &Json| -> Result<SegmentStats, String> {
        Ok(SegmentStats {
            name: s.str("name")?.to_string(),
            total_ms: s.u64("total_ms")?,
            p50_ms: s.u64("p50_ms")?,
            p95_ms: s.u64("p95_ms")?,
            p99_ms: s.u64("p99_ms")?,
            max_ms: s.u64("max_ms")?,
        })
    };
    let journey = |j: &Json| -> Result<JourneyBreakdown, String> {
        let mut segments = [0u64; 6];
        for (ms, name) in segments.iter_mut().zip(SEGMENT_NAMES) {
            *ms = j.field("segments", |segs| segs.u64(name))?;
        }
        Ok(JourneyBreakdown {
            journey: j.str("journey")?.to_string(),
            origin: j.str("origin")?.to_string(),
            start_ms: j.u64("start_ms")?,
            wall_ms: j.u64("wall_ms")?,
            hops: j.u64("hops")? as u32,
            segments,
            attributed_pct_tenths: j.u64("attributed_pct_tenths")?,
            critical: j.str("critical")?.to_string(),
        })
    };
    Ok(TraceAnalysis {
        event_count: doc.u64("event_count")?,
        journeys: doc.arr("journeys", journey)?,
        segments: doc.arr("segments", segment)?,
        wall_p50_ms: doc.u64("wall_p50_ms")?,
        wall_p95_ms: doc.u64("wall_p95_ms")?,
        wall_p99_ms: doc.u64("wall_p99_ms")?,
        total_wall_ms: doc.u64("total_wall_ms")?,
        stall_pct_tenths: doc.u64("stall_pct_tenths")?,
        min_attributed_pct_tenths: doc.u64("min_attributed_pct_tenths")?,
    })
}

/// One compared metric in a regression report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// What was compared (`wall` or a segment name).
    pub name: String,
    /// The metric (`p99` for wall, `p95` for segments).
    pub metric: String,
    /// Baseline value, ms.
    pub before_ms: u64,
    /// Candidate value, ms.
    pub after_ms: u64,
    /// True when the candidate regressed past the noise floor
    /// (`after > before + max(before / 10, 1)`).
    pub regressed: bool,
}

/// A per-segment regression report between two analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisDiff {
    /// Every compared metric, report order.
    pub rows: Vec<DiffRow>,
}

impl AnalysisDiff {
    /// Did any metric regress?
    pub fn has_regressions(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// Human regression table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<7} {:>10} {:>10} {:>8}\n",
            "metric", "stat", "before_ms", "after_ms", "verdict"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<7} {:>10} {:>10} {:>8}\n",
                row.name,
                row.metric,
                row.before_ms,
                row.after_ms,
                if row.regressed { "REGRESS" } else { "ok" }
            ));
        }
        out
    }
}

fn regressed(before: u64, after: u64) -> bool {
    after > before + (before / 10).max(1)
}

/// Compare a candidate analysis against a baseline: journey wall p99
/// plus every segment's p95, with a 10% (min 1 ms) noise floor.
pub fn diff_analyses(before: &TraceAnalysis, after: &TraceAnalysis) -> AnalysisDiff {
    let mut rows = vec![DiffRow {
        name: "wall".into(),
        metric: "p99".into(),
        before_ms: before.wall_p99_ms,
        after_ms: after.wall_p99_ms,
        regressed: regressed(before.wall_p99_ms, after.wall_p99_ms),
    }];
    for name in SEGMENT_NAMES {
        let b = before
            .segments
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.p95_ms)
            .unwrap_or(0);
        let a = after
            .segments
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.p95_ms)
            .unwrap_or(0);
        rows.push(DiffRow {
            name: name.to_string(),
            metric: "p95".into(),
            before_ms: b,
            after_ms: a,
            regressed: regressed(b, a),
        });
    }
    AnalysisDiff { rows }
}

/// Service-level objectives from the bootstrap `[slo]` section. All
/// budgets are optional; an absent key is simply not checked.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SloConfig {
    /// Journey wall-clock p99 budget, ms.
    pub journey_p99_ms: Option<u64>,
    /// Per-journey dwell p99 budget, ms.
    pub dwell_p99_ms: Option<u64>,
    /// Per-journey wire p99 budget, ms.
    pub wire_p99_ms: Option<u64>,
    /// Per-journey queue-wait p99 budget, ms.
    pub queue_p99_ms: Option<u64>,
    /// Per-journey stall p99 budget, ms.
    pub stall_p99_ms: Option<u64>,
    /// Per-journey directory p99 budget, ms.
    pub directory_p99_ms: Option<u64>,
    /// Ceiling on the cluster-wide stalled share of wall-clock,
    /// integer percent.
    pub max_stall_pct: Option<u64>,
}

/// Evaluate an analysis against its SLOs. Each breach is one
/// human-readable line; empty means every objective held.
pub fn check_slo(analysis: &TraceAnalysis, slo: &SloConfig) -> Vec<String> {
    let mut breaches = Vec::new();
    if let Some(budget) = slo.journey_p99_ms {
        if analysis.wall_p99_ms > budget {
            breaches.push(format!(
                "journey wall p99 {} ms exceeds budget {} ms",
                analysis.wall_p99_ms, budget
            ));
        }
    }
    let budgets = [
        ("dwell", slo.dwell_p99_ms),
        ("wire", slo.wire_p99_ms),
        ("queue", slo.queue_p99_ms),
        ("stall", slo.stall_p99_ms),
        ("directory", slo.directory_p99_ms),
    ];
    for (name, budget) in budgets {
        let Some(budget) = budget else { continue };
        let p99 = analysis
            .segments
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.p99_ms)
            .unwrap_or(0);
        if p99 > budget {
            breaches.push(format!(
                "segment {name} p99 {p99} ms exceeds budget {budget} ms"
            ));
        }
    }
    if let Some(ceiling) = slo.max_stall_pct {
        if analysis.stall_pct_tenths > ceiling * 10 {
            breaches.push(format!(
                "stalled share {}% exceeds ceiling {}%",
                pct_tenths(analysis.stall_pct_tenths),
                ceiling
            ));
        }
    }
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;
    use naplet_core::tracectx::TraceCtx;

    fn ev(at: u64, host: &str, naplet: Option<&str>, name: &str) -> FlatEvent {
        FlatEvent {
            at,
            host: host.into(),
            naplet: naplet.map(String::from),
            name: name.into(),
            started: None,
            args: Vec::new(),
            ctx: None,
        }
    }

    fn span(mut e: FlatEvent, started: u64) -> FlatEvent {
        e.started = Some(started);
        e
    }

    fn with_tid(mut e: FlatEvent, tid: u64) -> FlatEvent {
        e.args.push(("transfer_id".into(), ArgValue::Int(tid)));
        e
    }

    fn with_ctx(mut e: FlatEvent, journey: &str, hop: u32, seq: u64) -> FlatEvent {
        e.ctx = Some(TraceCtx {
            journey: journey.into(),
            origin: "home".into(),
            hop,
            seq,
        });
        e
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50, 100), 50);
        assert_eq!(percentile(&v, 95, 100), 95);
        assert_eq!(percentile(&v, 99, 100), 99);
        assert_eq!(percentile(&[7], 99, 100), 7);
        assert_eq!(percentile(&[], 50, 100), 0);
    }

    #[test]
    fn partition_is_lossless_and_prioritized() {
        let j = "czxu@home:1";
        let events = vec![
            span(ev(10, "home", Some(j), "visit"), 0),
            with_tid(ev(10, "home", Some(j), "transfer.sent"), 1),
            with_tid(ev(40, "s1", Some(j), "transfer.recv"), 1),
            ev(45, "s1", Some(j), "landing.decision"),
            span(ev(100, "s1", Some(j), "visit"), 45),
            ev(100, "home", Some(j), "journey.done"),
        ];
        let analysis = analyze_events(&events);
        assert_eq!(analysis.journeys.len(), 1);
        let journey = &analysis.journeys[0];
        assert_eq!(journey.wall_ms, 100);
        assert_eq!(journey.segments.iter().sum::<u64>(), 100);
        // 0-10 dwell, 10-40 wire, 40-45 queue, 45-100 dwell
        assert_eq!(journey.segment_ms("dwell"), 65);
        assert_eq!(journey.segment_ms("wire"), 30);
        assert_eq!(journey.segment_ms("queue"), 5);
        assert_eq!(journey.segment_ms("other"), 0);
        assert_eq!(journey.critical, "dwell");
        assert_eq!(journey.attributed_pct_tenths, 1000);
    }

    #[test]
    fn retransmit_backoff_is_blamed_on_stall() {
        let j = "czxu@home:1";
        let events = vec![
            with_tid(ev(0, "home", Some(j), "transfer.sent"), 1),
            with_tid(ev(200, "home", Some(j), "handoff.retransmit"), 1),
            with_tid(ev(210, "s1", Some(j), "transfer.recv"), 1),
            span(with_tid(ev(210, "home", Some(j), "handoff.commit"), 1), 0),
        ];
        let analysis = analyze_events(&events);
        let journey = &analysis.journeys[0];
        // the 0-200 backoff window outranks the wire pair and the
        // handoff span; only the 200-210 tail is wire
        assert_eq!(journey.segment_ms("stall"), 200);
        assert_eq!(journey.segment_ms("wire"), 10);
        assert_eq!(journey.critical, "stall");
        assert!(analysis.stall_pct_tenths > 900);
    }

    #[test]
    fn unclaimed_slices_fall_back_to_the_terminating_event() {
        let j = "czxu@home:1";
        let events = vec![
            with_tid(ev(0, "home", Some(j), "transfer.sent"), 1),
            ev(30, "home", Some(j), "landing.decision"),
            span(ev(80, "s1", Some(j), "register.acked"), 50),
        ];
        let analysis = analyze_events(&events);
        let journey = &analysis.journeys[0];
        // 0-30 queue (decision terminates), 30-50 directory (the
        // register span's opening is next at 50 — nothing at 50
        // exactly, the span event sits at 80, so the slice blames the
        // register event), 50-80 directory (span claim)
        assert_eq!(journey.segment_ms("queue"), 30);
        assert_eq!(journey.segment_ms("directory"), 50);
        assert_eq!(journey.segments.iter().sum::<u64>(), 80);
    }

    #[test]
    fn json_round_trips_and_is_stable() {
        let j = "czxu@home:1";
        let events = vec![
            span(ev(10, "home", Some(j), "visit"), 0),
            with_ctx(ev(10, "home", None, "wire.send"), j, 1, 3),
            with_ctx(ev(25, "s1", None, "wire.recv"), j, 1, 3),
            span(ev(60, "s1", Some(j), "visit"), 25),
        ];
        let analysis = analyze_events(&events);
        let json = analysis.to_json();
        assert_eq!(json, analyze_events(&events).to_json());
        let back = parse_analysis(&json).expect("round trip");
        assert_eq!(back, analysis);
    }

    #[test]
    fn diff_flags_regressions_past_the_noise_floor() {
        let j = "czxu@home:1";
        let fast = vec![
            span(ev(50, "home", Some(j), "visit"), 0),
            with_tid(ev(50, "home", Some(j), "transfer.sent"), 1),
            with_tid(ev(60, "s1", Some(j), "transfer.recv"), 1),
        ];
        let slow = vec![
            span(ev(50, "home", Some(j), "visit"), 0),
            with_tid(ev(50, "home", Some(j), "transfer.sent"), 1),
            with_tid(ev(200, "s1", Some(j), "transfer.recv"), 1),
        ];
        let a = analyze_events(&fast);
        let b = analyze_events(&slow);
        assert!(!diff_analyses(&a, &a).has_regressions());
        let diff = diff_analyses(&a, &b);
        assert!(diff.has_regressions());
        assert!(diff
            .rows
            .iter()
            .any(|r| r.name == "wire" && r.regressed && r.after_ms == 150));
        assert!(diff.render_text().contains("REGRESS"));
    }

    #[test]
    fn slo_breaches_name_the_budget() {
        let j = "czxu@home:1";
        let events = vec![
            with_tid(ev(0, "home", Some(j), "transfer.sent"), 1),
            with_tid(ev(400, "home", Some(j), "handoff.retransmit"), 1),
            with_tid(ev(410, "s1", Some(j), "transfer.recv"), 1),
        ];
        let analysis = analyze_events(&events);
        let clean = check_slo(&analysis, &SloConfig::default());
        assert!(clean.is_empty(), "no budgets, no breaches: {clean:?}");
        let slo = SloConfig {
            journey_p99_ms: Some(100),
            stall_p99_ms: Some(50),
            max_stall_pct: Some(10),
            ..SloConfig::default()
        };
        let breaches = check_slo(&analysis, &slo);
        assert_eq!(breaches.len(), 3, "{breaches:?}");
        assert!(breaches[0].contains("journey wall p99"));
        assert!(breaches[1].contains("segment stall"));
        assert!(breaches[2].contains("stalled share"));
    }

    #[test]
    fn render_text_ranks_slowest_journeys() {
        let a = "a@home:1";
        let b = "b@home:1";
        let events = vec![
            span(ev(10, "home", Some(a), "visit"), 0),
            span(ev(500, "home", Some(b), "visit"), 0),
        ];
        let analysis = analyze_events(&events);
        assert_eq!(analysis.journeys[0].journey, b);
        let text = analysis.render_text(1);
        assert!(text.contains("top 1 slowest"), "{text}");
        assert!(text.contains(b), "{text}");
    }
}
