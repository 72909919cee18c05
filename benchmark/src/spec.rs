//! The benchmark's declared surface: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`--print-manifest`) and a test holds the committed file to them, so
//! the names a run emits and the names the manifest promises cannot
//! drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one measured run lasts; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// (name, why it is here)
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tcp_ring_w1",
        "3 napletd processes on loopback, memory journals, window 1: unloaded journey latency, where every poll interval, timer tick and per-frame write is on the blocking path",
    ),
    (
        "tcp_ring_w16",
        "same cluster, window 16: both cores busy, so CPU per journey, idle polling and syscalls per frame set the rate; capacity where tcp_ring_w1 is latency",
    ),
    (
        "live_ring_w16",
        "same closed loop over LiveRuntime threads and ThreadedNet with memory journals: bypasses net::tcp, processes and FileStore",
    ),
    (
        "live_ring_64k",
        "as live_ring_w16 with 64 KiB agents at window 4: per-byte cost (codec, snapshot clones, journal) instead of per-message cost",
    ),
    (
        "sim_ring",
        "SimRuntime, 16 hosts, 64 naplets, 3 laps: single thread, virtual time, pure CPU of handle + codec + journal + sim queue, exact counts",
    ),
    (
        "sim_chase",
        "SimRuntime with a 3-replica directory, owner posts chasing moving naplets and a leader crash: repl, locator and messenger do the work",
    ),
];

/// One declared metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen.
    pub bound: Option<f64>,
}

fn m(name: &str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics. Every workload reports every one of them.
pub fn end_to_end() -> Vec<Metric> {
    let bounded = |name, unit, better, bound| Metric {
        bound: Some(bound),
        ..m(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", "lower", 0.25),
        bounded("journeys_per_s", "1/s", "higher", 0.25),
        bounded("journey_ms_p50", "ms", "lower", 0.25),
        bounded("cpu_ms_per_journey", "ms", "lower", 0.25),
    ]
}

/// `Wire`/`LocalEvent` labels with a `server.handle.<K>_ns` row each.
pub const HANDLE_KINDS: &[&str] = &[
    "LandingRequest",
    "LandingReply",
    "Transfer",
    "TransferAck",
    "DirRegister",
    "DirAck",
    "Report",
    "Notify",
    "VisitDone",
    "CodeReady",
    "Post",
    "PostConfirm",
    "DirQuery",
    "DirReply",
    "Repl",
    "ReplTick",
];

/// Per-layer metrics, grouped by the module they measure. No bounds.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        // core::codec
        m("core.codec.encode_ns", "ns", "lower"),
        m("core.codec.decode_ns", "ns", "lower"),
        m("core.codec.encode_ns_per_kib", "ns/KiB", "lower"),
        m("core.codec.decode_ns_per_kib", "ns/KiB", "lower"),
        m("core.codec.calls_per_journey", "count", "lower"),
        m("core.codec.self_us_per_journey", "us", "lower"),
        m("core.codec.allocs_per_call", "count", "lower"),
        // net::frame
        m("net.frame.encode_ns", "ns", "lower"),
        m("net.frame.decode_ns", "ns", "lower"),
        m("net.frame.self_us_per_journey", "us", "lower"),
        // Transport::send net of the frame codec (the pump's QueueNet)
        m("net.queue.self_us_per_journey", "us", "lower"),
        // server::server
        m("server.handle.ns", "ns", "lower"),
        m("server.handle.calls_per_journey", "count", "lower"),
        m("server.handle.self_us_per_journey", "us", "lower"),
        m("server.handle.allocs_per_call", "count", "lower"),
    ];
    for kind in HANDLE_KINDS {
        v.push(m(&format!("server.handle.{kind}_ns"), "ns", "lower"));
    }
    v.extend([
        // server::journal
        m("server.journal.put_ns", "ns", "lower"),
        m("server.journal.remove_ns", "ns", "lower"),
        m("server.journal.count_ns", "ns", "lower"),
        m("server.journal.puts_per_journey", "count", "lower"),
        m("server.journal.bytes_per_journey", "B", "lower"),
        m("server.journal.self_us_per_journey", "us", "lower"),
        // net::tcp
        m("net.tcp.send_call_ns", "ns", "lower"),
        m("net.tcp.oneway_us_p50", "us", "lower"),
        m("net.tcp.oneway_us_p99", "us", "lower"),
        m("net.tcp.stream_frames_per_s", "1/s", "higher"),
        m("net.tcp.msgs_per_journey", "count", "lower"),
        m("net.tcp.bytes_per_journey", "B", "lower"),
        m("net.tcp.dropped", "count", "lower"),
        m("net.tcp.retransmits", "count", "lower"),
        // net::threaded
        m("net.threaded.send_call_ns", "ns", "lower"),
        m("net.threaded.oneway_us_p50", "us", "lower"),
        // server::live / napletd
        m("napletd.idle_cpu_ms_per_s", "cpu_ms/s", "lower"),
        m("napletd.cpu_ms_per_journey", "cpu_ms", "lower"),
        m("ctl.cpu_ms_per_journey", "cpu_ms", "lower"),
        m("ctl.pump_busy_share", "share", "lower"),
        m("proc.peak_rss_mb", "MiB", "lower"),
        // server::runtime / net::sim
        m("server.runtime.events_per_s", "1/s", "higher"),
        m("server.runtime.events_per_journey", "count", "lower"),
        m("server.runtime.allocs_per_event", "count", "lower"),
        m("server.runtime.virtual_ms", "virt_ms", "lower"),
        m("wire.bytes_per_hop", "B", "lower"),
        m("wire.msgs_per_hop", "count", "lower"),
        // server::repl
        m("server.repl.commits", "count", "higher"),
        m("server.repl.msgs_per_commit", "count", "lower"),
        m("server.repl.commit_lag_ms_p99", "virt_ms", "lower"),
        m("server.repl.elections", "count", "lower"),
        // server::locator, server::messenger
        m("server.locator.hit_rate", "share", "higher"),
        m("server.locator.stale_hit_rate", "share", "lower"),
        m("server.messenger.forwards_per_post", "count", "lower"),
        m("server.messenger.post_confirm_ms_p50", "virt_ms", "lower"),
        m("server.messenger.post_confirm_ms_p99", "virt_ms", "lower"),
        // the trace itself, and the sample behind the percentiles
        m("trace.overhead_pct", "%", "lower"),
        m("trace.attributed_pct", "%", "higher"),
        // the tail is reported, not gated: see the README
        m("journey_ms_p99", "ms", "lower"),
        m("journey.samples", "count", "higher"),
    ]);
    v
}

/// The metrics a run of the given mode reports: the untraced run owns
/// the end-to-end ones, the traced run the per-layer ones.
pub fn declared(trace: bool) -> Vec<Metric> {
    if trace {
        per_layer()
    } else {
        end_to_end()
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Set `name` unless the workload's own run already did.
    pub fn set_default(&mut self, name: &str, value: f64) {
        self.metrics.entry(name.to_string()).or_insert(value);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON: every digit it was measured with, never `NaN`/`inf`
/// (which JSON cannot carry and a measurement must not produce).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(name),
            json_str(why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, metric) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(&metric.name),
            json_str(metric.unit),
            json_str(metric.better),
            json_num(metric.bound.expect("end-to-end metrics are bounded"))
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, metric) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(&metric.name),
            json_str(metric.unit),
            json_str(metric.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The result line of one run: exactly the declared metrics of its
/// mode, or an error naming what is missing, extra or malformed.
pub fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let declared = declared(trace);
    let mut problems = Vec::new();
    for name in outcome.metrics.keys() {
        if !declared.iter().any(|m| m.name == *name) {
            problems.push(format!("metric `{name}` is emitted but not declared"));
        }
    }
    let mut fields = Vec::new();
    for Metric { name, unit, .. } in &declared {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )),
            Some(v) => problems.push(format!("metric `{name}` is {v}")),
            None => problems.push(format!("metric `{name}` is declared but not emitted")),
        }
    }
    if outcome.attempted == 0 {
        problems.push("no operation was attempted".into());
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn declared_surface_meets_the_contract() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(e2e.iter().map(|m| m.name.as_str()));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for metric in e2e.iter().chain(layers.iter()) {
            assert!(unit_ok(metric.unit), "bad unit {}", metric.unit);
            assert!(matches!(metric.better, "lower" | "higher"));
        }
        for metric in &e2e {
            assert!(metric.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with: benchmark/run.sh --print-manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn result_line_rejects_missing_and_extra_metrics() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(result_json(&o, false).unwrap_err().contains("setup_s"));
        for m in end_to_end() {
            o.set(&m.name, 1.5);
        }
        let line = result_json(&o, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.set("trace.overhead_pct", 1.0);
        assert!(result_json(&o, false).unwrap_err().contains("not declared"));
    }
}
