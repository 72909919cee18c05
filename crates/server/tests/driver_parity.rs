//! One driver step under both clocks: the same exchange between two
//! hosts, run on a `SimRuntime` and on two `Node`s over a `ThreadedNet`
//! that delivers at once, counts the same `wire.*` metrics and traces
//! the same sends, receipts and drops in the same order.

use std::sync::Arc;
use std::time::Instant;

use naplet_core::clock::Millis;
use naplet_core::credential::{Credential, SigningKey};
use naplet_core::id::NapletId;
use naplet_net::{Bandwidth, Fabric, LatencyModel, ThreadedNet};
use naplet_obs::{ObsSink, TraceKind};
use naplet_server::{LocationMode, Node, OpsRead, ServerConfig, SimRuntime, Wire};

fn fabric() -> Fabric {
    Fabric::new(LatencyModel::Constant(1), Bandwidth(None), 7)
}

fn config(host: &str) -> ServerConfig {
    ServerConfig::open(host, LocationMode::ForwardingTrace)
}

fn status_request(token: u64) -> Wire {
    let key = SigningKey::new("ops", b"secret");
    let id = NapletId::new("ops", "a", Millis(1)).unwrap();
    Wire::OpsRequest {
        token,
        reply_to: "a".to_string(),
        credential: Credential::issue(&key, id, "ops-plane", vec![]),
        read: OpsRead::Status,
    }
}

/// The `wire.*` counters and the wire events traced, one line each.
fn wire_record(obs: &ObsSink) -> (Vec<(String, u64)>, Vec<String>) {
    let counters = obs.metrics.snapshot().counters;
    let counters = counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("wire."));
    let events = obs.tracer.events().into_iter().filter_map(|e| {
        let (what, label) = match e.kind {
            TraceKind::WireSend { label, .. } => ("send", label),
            TraceKind::WireRecv { label, .. } => ("recv", label),
            TraceKind::WireDrop { label, .. } => ("drop", label),
            _ => return None,
        };
        Some(format!("{} {what} {label}", e.host))
    });
    (counters.collect(), events.collect())
}

/// `a` asks `b` for its status and gets the answer; then the link is
/// cut and the second request is lost on the way out.
#[test]
fn the_sim_and_a_wall_clock_node_count_and_trace_the_wire_alike() {
    let mut rt = SimRuntime::new(fabric());
    rt.enable_tracing();
    rt.add_server(config("a"));
    rt.add_server(config("b"));
    rt.station_send("a", "b", status_request(1)).unwrap();
    rt.run_to_quiescence(100);
    rt.fabric().cut_link("a", "b");
    rt.station_send("a", "b", status_request(2)).unwrap();
    rt.run_to_quiescence(100);
    assert_eq!(rt.server("a").unwrap().ops_replies.len(), 1);
    let sim = wire_record(rt.obs());

    let net = Arc::new(ThreadedNet::start(fabric(), 0));
    let obs = ObsSink::default();
    obs.enable_tracing();
    let node = |host: &str| Node::new(Arc::clone(&net), config(host), obs.clone(), Instant::now());
    let (mut a, mut b) = (node("a"), node("b"));
    a.send("b", status_request(1));
    b.pump();
    a.pump();
    net.fabric().cut_link("a", "b");
    a.send("b", status_request(2));
    b.pump();
    a.pump();
    assert_eq!(a.server.ops_replies.len(), 1);
    let wall = wire_record(&obs);

    let (counters, events) = &sim;
    assert_eq!(
        counters,
        &[
            ("wire.dropped".to_string(), 1),
            ("wire.sent".to_string(), 3)
        ]
    );
    let expected = [
        "a send OpsRequest",
        "b recv OpsRequest",
        "b send OpsReply",
        "a recv OpsReply",
        "a send OpsRequest",
        "a drop OpsRequest",
    ];
    assert_eq!(events, &expected);
    assert_eq!(wall, sim);
}
