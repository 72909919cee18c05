//! Observability acceptance: trace exports are deterministic and
//! Chrome-loadable, fault signatures are visible in the metrics
//! histograms, and the event stream is causally consistent — every
//! committed handoff pairs with exactly one admission, retransmits
//! carry attempt ≥ 2, and recovery replay never duplicates a visit
//! span.

use naplet_bench::{traced_chaos_experiment, traced_crash_chaos_experiment};
use naplet_obs::{
    analyze_segments, merge_cluster_trace, validate_chrome_trace, FlatSegment, TraceEvent,
    TraceKind,
};
use proptest::prelude::*;

const WINDOWS: [(&str, u64, u64); 2] = [("s1", 10, 700), ("s3", 10, 2_500)];

#[test]
fn trace_exports_are_byte_identical_across_runs() {
    let a = traced_chaos_experiment(0.05, &WINDOWS, 42);
    let b = traced_chaos_experiment(0.05, &WINDOWS, 42);
    assert!(!a.obs.events.is_empty(), "tracing must record events");
    assert_eq!(
        a.chrome_json, b.chrome_json,
        "two identical runs must export byte-identical traces"
    );
    assert_eq!(a.obs.metrics.render_text(), b.obs.metrics.render_text());
    let entries = validate_chrome_trace(&a.chrome_json).expect("well-formed Chrome trace");
    assert!(
        entries > a.obs.events.len(),
        "process/thread metadata must ride on top of the {} events",
        a.obs.events.len()
    );
}

#[test]
fn retransmitted_handoffs_land_in_higher_rtt_buckets() {
    let clean = traced_chaos_experiment(0.0, &[], 7);
    let lossy = traced_chaos_experiment(0.05, &WINDOWS, 42);
    assert_eq!(clean.obs.metrics.counter("handoff.retransmits"), 0);
    assert!(
        lossy.obs.metrics.counter("handoff.retransmits") >= 1,
        "fault schedule must force at least one retransmit"
    );
    let clean_rtt = clean
        .obs
        .metrics
        .histogram("handoff_rtt_ms")
        .expect("clean run records handoff RTTs");
    let lossy_rtt = lossy
        .obs
        .metrics
        .histogram("handoff_rtt_ms")
        .expect("lossy run records handoff RTTs");
    // a retransmitted handoff pays at least one ~200 ms backoff, so it
    // must populate a strictly higher bucket than any clean handoff
    assert!(
        lossy_rtt.highest_nonzero_bucket().unwrap() > clean_rtt.highest_nonzero_bucket().unwrap(),
        "clean {clean_rtt:?} vs lossy {lossy_rtt:?}"
    );
}

#[test]
fn untraced_runs_keep_metrics_but_no_events() {
    let out = naplet_bench::chaos_experiment(0.0, &[], 7);
    assert_eq!(out.completed, 1, "scenario sanity");
    // the traced twin of the same scenario must agree on the outcome:
    // recording is observational only
    let traced = traced_chaos_experiment(0.0, &[], 7);
    assert_eq!(traced.chaos.completed, out.completed);
    assert_eq!(traced.chaos.visits, out.visits);
    assert_eq!(traced.chaos.migration_bytes, out.migration_bytes);
    assert_eq!(traced.chaos.completion_ms, out.completion_ms);
}

/// The causal-correlation invariants of the event stream.
fn check_causality(events: &[TraceEvent], require_commits: bool) -> Result<(), String> {
    use std::collections::HashMap;
    // (origin host, transfer id) -> non-duplicate admissions
    let mut admitted: HashMap<(String, u64), u32> = HashMap::new();
    let mut commits: Vec<(String, u64)> = Vec::new();
    let mut visit_spans: HashMap<(String, u64), u32> = HashMap::new();
    for e in events {
        match &e.kind {
            TraceKind::TransferReceived {
                origin,
                transfer_id,
                duplicate: false,
            } => {
                *admitted.entry((origin.clone(), *transfer_id)).or_default() += 1;
            }
            TraceKind::HandoffCommit { transfer_id, .. } => {
                commits.push((e.host.clone(), *transfer_id));
            }
            TraceKind::Retransmit { attempt, .. } if *attempt < 2 => {
                return Err(format!("retransmit with attempt {attempt} < 2"));
            }
            TraceKind::VisitEnd { epoch, .. } => {
                let naplet = e.naplet.clone().unwrap_or_default();
                *visit_spans.entry((naplet, *epoch)).or_default() += 1;
            }
            _ => {}
        }
    }
    for key in &commits {
        match admitted.get(key) {
            Some(1) => {}
            Some(n) => return Err(format!("transfer {key:?} admitted {n} times")),
            None => return Err(format!("commit {key:?} without a matching admission")),
        }
    }
    if require_commits {
        for key in admitted.keys() {
            let n = commits.iter().filter(|k| *k == key).count();
            if n != 1 {
                return Err(format!("admission {key:?} committed {n} times"));
            }
        }
    }
    for ((naplet, epoch), n) in &visit_spans {
        if *n > 1 {
            return Err(format!(
                "visit span ({naplet}, epoch {epoch}) recorded {n} times — \
                 recovery replay duplicated a visit"
            ));
        }
    }
    Ok(())
}

proptest! {
    // each case is a full chaos simulation; PROPTEST_CASES scales the
    // count (default 64)
    #[test]
    fn causality_invariants_hold_under_loss(seed in 0u64..1024) {
        let out = traced_chaos_experiment(0.04, &[("s1", 10, 400)], seed);
        prop_assert_eq!(out.chaos.completed, 1, "journey lost (seed {})", seed);
        if let Err(msg) = check_causality(&out.obs.events, true) {
            prop_assert!(false, "seed {}: {}", seed, msg);
        }
    }

    #[test]
    fn causality_invariants_hold_under_crashes(seed in 0u64..1024) {
        // crash instants from the boundary schedule of tests/chaos.rs;
        // under varying seeds they land at arbitrary protocol points
        let crashes = [("s1", 27, Some(40u64)), ("s1", 274, Some(40)), ("s3", 308, Some(40))];
        let (out, obs) = traced_crash_chaos_experiment(0.03, &crashes, None, None, seed);
        prop_assert_eq!(out.chaos.completed, 1, "journey lost (seed {})", seed);
        prop_assert_eq!(out.chaos.duplicate_visits, 0);
        if let Err(msg) = check_causality(&obs.events, true) {
            prop_assert!(false, "seed {}: {}", seed, msg);
        }
    }

    // The wire-context hop counter counts *migrations*, not
    // transmissions: per journey it must be monotone along the causal
    // seq order, contiguous from the first hop, and a retransmitted
    // frame (attempt ≥ 2) must never introduce a hop the journey
    // hasn't already been seen at.
    #[test]
    fn hop_counters_are_monotone_per_journey_under_loss(seed in 0u64..1024) {
        let out = traced_chaos_experiment(0.04, &[("s1", 10, 400)], seed);
        prop_assert_eq!(out.chaos.completed, 1, "journey lost (seed {})", seed);

        let mut per_journey: std::collections::BTreeMap<&str, Vec<(u64, u32, bool)>> =
            Default::default();
        for e in &out.obs.events {
            if let Some(ctx) = &e.ctx {
                let retransmit = matches!(&e.kind, TraceKind::WireSend { attempt, .. } if *attempt >= 2);
                per_journey
                    .entry(ctx.journey.as_str())
                    .or_default()
                    .push((ctx.seq, ctx.hop, retransmit));
            }
        }
        prop_assert!(!per_journey.is_empty(), "run must stamp wire contexts");
        for (journey, mut steps) in per_journey {
            steps.sort_unstable();
            let mut hops_seen = std::collections::BTreeSet::new();
            let mut last_hop = 0u32;
            for (seq, hop, retransmit) in &steps {
                prop_assert!(
                    *hop >= last_hop,
                    "journey {}: hop regressed {} -> {} at seq {} (seed {})",
                    journey, last_hop, hop, seq, seed
                );
                if *retransmit {
                    prop_assert!(
                        hops_seen.contains(hop),
                        "journey {}: retransmit at seq {} minted new hop {} (seed {})",
                        journey, seq, hop, seed
                    );
                }
                hops_seen.insert(*hop);
                last_hop = *hop;
            }
            // contiguous: every hop between first and last was observed
            let lo = *hops_seen.iter().next().unwrap();
            let hi = *hops_seen.iter().next_back().unwrap();
            prop_assert_eq!(
                hops_seen.len() as u32, hi - lo + 1,
                "journey {}: hop gap between {} and {} (seed {})", journey, lo, hi, seed
            );
        }
    }

    // Two identically-seeded sim runs, split into per-host flight
    // segments and stitched by the cluster merger, must produce
    // byte-identical merged traces — and a complete (untruncated)
    // merge of a healthy run must be causally clean even under loss.
    #[test]
    fn merged_sim_traces_are_byte_identical_across_seeded_runs(seed in 0u64..1024) {
        let a = traced_chaos_experiment(0.05, &WINDOWS, seed);
        let b = traced_chaos_experiment(0.05, &WINDOWS, seed);
        let merged_a = merge_cluster_trace(&FlatSegment::per_host(&a.obs.events), 0);
        let merged_b = merge_cluster_trace(&FlatSegment::per_host(&b.obs.events), 0);
        prop_assert!(
            merged_a.violations.is_empty(),
            "seed {}: merged trace not causally clean: {:?}",
            seed, merged_a.violations
        );
        prop_assert!(merged_a.event_count > 0, "merge must carry events");
        prop_assert_eq!(
            merged_a.json, merged_b.json,
            "seed {}: identically-seeded merges diverged", seed
        );
        validate_chrome_trace(&merged_a.json).expect("merged trace is Chrome-loadable");
    }

    // The critical-path analyzer is as deterministic as the merger it
    // reads: two identically-seeded sim runs must analyze to
    // byte-identical JSON reports.
    #[test]
    fn analyze_output_is_byte_identical_across_seeded_runs(seed in 0u64..1024) {
        let a = traced_chaos_experiment(0.05, &WINDOWS, seed);
        let b = traced_chaos_experiment(0.05, &WINDOWS, seed);
        let report_a = analyze_segments(&FlatSegment::per_host(&a.obs.events)).to_json();
        let report_b = analyze_segments(&FlatSegment::per_host(&b.obs.events)).to_json();
        prop_assert!(!report_a.is_empty());
        prop_assert_eq!(
            report_a, report_b,
            "seed {}: identically-seeded analyses diverged", seed
        );
    }

    // The segment model is a lossless partition of each journey's
    // timeline: per-journey segment durations must sum to the
    // journey's wall-clock exactly, and the named (non-`other`)
    // segments must claim at least 99% of it.
    #[test]
    fn segment_model_is_a_lossless_partition(seed in 0u64..1024) {
        let out = traced_chaos_experiment(0.05, &WINDOWS, seed);
        let analysis = analyze_segments(&FlatSegment::per_host(&out.obs.events));
        prop_assert!(!analysis.journeys.is_empty(), "seed {}: no journeys", seed);
        for j in &analysis.journeys {
            let total: u64 = j.segments.iter().sum();
            prop_assert_eq!(
                total, j.wall_ms,
                "seed {}: journey {} segments sum to {} but wall-clock is {}",
                seed, &j.journey, total, j.wall_ms
            );
            prop_assert!(
                j.attributed_pct_tenths >= 990,
                "seed {}: journey {} only {}.{}% attributed",
                seed, &j.journey,
                j.attributed_pct_tenths / 10, j.attributed_pct_tenths % 10
            );
        }
        prop_assert!(analysis.min_attributed_pct_tenths >= 990);
    }
}
