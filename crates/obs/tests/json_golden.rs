//! Golden bytes for every JSON artifact the crate writes: a flight
//! dump, a metrics-history dump and an analysis report must keep their
//! exact field order and layout, so dumps written by one build read in
//! another and the committed attribution baseline stays comparable.

use naplet_core::clock::Millis;
use naplet_core::tracectx::TraceCtx;
use naplet_obs::{
    flight_dump_json_with, metrics_history_json, parse_analysis, MetricsHistory, MetricsRegistry,
    MetricsSample, MetricsSnapshot, TraceEvent, TraceKind, TraceSegment, COUNT_BOUNDS,
};

#[test]
fn flight_dump_bytes_are_pinned() {
    let events = vec![
        TraceEvent {
            at: Millis(9),
            host: "home".into(),
            naplet: Some("naplet://czxu@home/1".into()),
            ctx: None,
            kind: TraceKind::HandoffCommit {
                dest: "s0".into(),
                transfer_id: 1,
                started: Millis(3),
                attempts: 2,
            },
        },
        TraceEvent {
            at: Millis(12),
            host: "home".into(),
            naplet: None,
            ctx: Some(TraceCtx {
                journey: "naplet://czxu@home/1".into(),
                origin: "home".into(),
                hop: 1,
                seq: 4,
            }),
            kind: TraceKind::TransferReceived {
                origin: "s0".into(),
                transfer_id: 1,
                duplicate: false,
            },
        },
    ];
    let segment = TraceSegment {
        host: "home".into(),
        start_seq: 5,
        next_seq: 7,
        total: 7,
        dropped: 5,
        epoch_unix_ms: 1_700_000_000_000,
        events,
    };
    let registry = MetricsRegistry::default();
    registry.incr("handoff.commits", 1);
    registry.gauge_max("mailbox_depth", 3);
    registry.observe("retries", COUNT_BOUNDS, 2);
    let dump = flight_dump_json_with(&segment, Some(&registry.snapshot()));
    let want = concat!(
        r#"{"host":"home","start_seq":5,"next_seq":7,"total":7,"dropped":5,"epoch_unix_ms":1700000000000,"#,
        r#""metrics":{"counters":{"handoff.commits":1},"gauges":{"mailbox_depth":3},"#,
        r#""histograms":{"retries":{"bounds":[1,2,3,4,5,8,12,16,24,32,64],"counts":[0,1,0,0,0,0,0,0,0,0,0,0],"total":1,"sum":2,"min":2,"max":2}}},"#,
        r#""events":[{"at":9,"host":"home","naplet":"naplet://czxu@home/1","name":"handoff.commit","started":3,"#,
        r#""args":{"dest":"s0","transfer_id":1,"attempts":2}},"#,
        r#"{"at":12,"host":"home","name":"transfer.recv","#,
        r#""ctx":{"journey":"naplet://czxu@home/1","origin":"home","hop":1,"seq":4},"#,
        r#""args":{"origin":"s0","transfer_id":1,"duplicate":false}}]}"#,
        "\n"
    );
    assert_eq!(dump, want);
}

#[test]
fn metrics_history_bytes_are_pinned() {
    let history = MetricsHistory::default();
    history.enable(1_700_000_000_000);
    let registry = MetricsRegistry::default();
    let mut last = MetricsSnapshot::default();
    let mut sample = |at: u64| {
        let snap = registry.snapshot();
        let delta = snap.diff(&last);
        history.record(MetricsSample { at, delta });
        last = snap;
    };
    registry.incr("wire.sent", 5);
    registry.incr("q\"uote", 1);
    sample(100);
    registry.incr("wire.sent", 2);
    registry.observe("retries", COUNT_BOUNDS, 70);
    sample(200);
    let dump = metrics_history_json(&history.dump("n1"));
    let want = concat!(
        r#"{"host":"n1","start_seq":0,"next_seq":2,"total":2,"dropped":0,"epoch_unix_ms":1700000000000,"samples":["#,
        r#"{"at":100,"delta":{"counters":{"q\"uote":1,"wire.sent":5},"gauges":{},"histograms":{}}},"#,
        r#"{"at":200,"delta":{"counters":{"q\"uote":0,"wire.sent":2},"gauges":{},"#,
        r#""histograms":{"retries":{"bounds":[1,2,3,4,5,8,12,16,24,32,64],"counts":[0,0,0,0,0,0,0,0,0,0,0,1],"total":1,"sum":70,"min":70,"max":70}}}}]}"#,
        "\n"
    );
    assert_eq!(dump, want);
}

#[test]
fn analysis_report_reprints_the_committed_baseline_byte_for_byte() {
    let fixture = include_str!("fixtures/analyze-sim-baseline.json");
    let analysis = parse_analysis(fixture).expect("the baseline parses");
    assert_eq!(analysis.to_json(), fixture);
}
