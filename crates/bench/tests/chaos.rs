//! Acceptance tests for the reliable-transfer layer and the
//! crash-consistency layer on top of it: a multi-hop journey must
//! survive frame loss, scheduled host outages, and whole-server
//! crashes without losing or duplicating the agent, and neither
//! protocol may add traffic when the network is healthy.

use naplet_bench::{chaos_experiment, crash_chaos_experiment};
use naplet_core::itinerary::Pattern;
use naplet_server::LeasePolicy;

const ROUTE: [&str; 6] = ["s0", "s1", "s2", "s3", "s4", "home"];

/// Crash schedule hitting each commit-point window of the handoff, at
/// instants read off a loss-free pilot timeline (latency 2 ms, dwell
/// 5 ms, seed 42), each with the crashes before it applied:
/// * `s1@12` — destination crash while the Transfer to it is in flight
///   (sent t=11, due t=14): the frame dies with the process, the origin
///   must retry into a cold server;
/// * `s1@256` — origin crash between sending Transfer (t=254) and
///   receiving TransferAck (t=260): recovery must re-drive the
///   in-flight handoff from the journal and the destination must
///   re-ack the duplicate without re-admitting;
/// * `s3@278` — mid-visit crash after the visit effect applied (t≈277,
///   visit ends t=282): the journal must rehydrate the naplet and
///   suppress the replay.
///
/// (A hop takes 11 ms from arrival to the next departure: the arrival
/// ack leaves with the Transfer instead of a round trip after it.)
const BOUNDARY_CRASHES: [(&str, u64, Option<u64>); 3] = [
    ("s1", 12, Some(40)),
    ("s1", 256, Some(40)),
    ("s3", 278, Some(40)),
];

#[test]
fn journey_survives_loss_and_down_windows() {
    // 5% frame loss plus two hosts on the route down for scheduled
    // windows that overlap the agent's arrival
    let out = chaos_experiment(0.05, &[("s1", 10, 700), ("s3", 10, 2_500)], 42);
    assert_eq!(out.completed, 1, "naplet lost: {out:?}");
    assert_eq!(out.visits, ROUTE, "journey must visit every hop in order");
    assert_eq!(
        out.duplicate_visits, 0,
        "retries must never duplicate execution"
    );
    assert_eq!(
        out.parked, 0,
        "all destinations recover within the retry horizon"
    );
    assert!(
        out.retransmits >= 1,
        "retries must be visible in NetStats: {out:?}"
    );
    assert!(
        out.dropped >= 1,
        "the fault schedule must actually drop frames"
    );
}

/// The fixed-seed tests above pin one schedule each; retry gaps show
/// up only across many loss patterns, so sweep the seed at each loss
/// rate (256 runs, well under a second in release).
#[test]
fn journey_completes_across_a_seed_and_loss_sweep() {
    for loss in [0.0, 0.02, 0.05, 0.10] {
        for seed in 2..66 {
            let out = chaos_experiment(loss, &[], seed);
            assert_eq!(out.completed, 1, "loss {loss} seed {seed}: {out:?}");
        }
    }
}

#[test]
fn healthy_run_adds_no_migration_traffic() {
    let out = chaos_experiment(0.0, &[], 7);
    assert_eq!(out.completed, 1);
    assert_eq!(out.visits, ROUTE);
    assert_eq!(out.duplicate_visits, 0);
    assert_eq!(out.parked, 0);
    assert_eq!(out.retransmits, 0, "no faults, no retries");
    assert_eq!(out.dropped, 0);
    // exactly one Transfer frame per hop: ack/commit overhead rides in
    // the Control class and never inflates migration byte counts
    assert_eq!(out.migrations, 6);
    assert!(
        out.migration_bytes / out.migrations > 0,
        "sanity: transfers are metered"
    );
}

#[test]
fn journey_survives_crashes_at_protocol_boundaries() {
    // loss-free so the pilot-derived instants land in the exact windows
    let out = crash_chaos_experiment(0.0, &BOUNDARY_CRASHES, None, None, 42);
    assert_eq!(out.chaos.completed, 1, "naplet lost: {out:?}");
    assert_eq!(
        out.chaos.visits, ROUTE,
        "journey must visit every hop in order"
    );
    assert_eq!(
        out.chaos.duplicate_visits, 0,
        "recovery replay must never duplicate a visit effect"
    );
    assert_eq!(out.chaos.parked, 0);
    assert_eq!(out.crashes, 3);
    assert_eq!(out.recoveries, 3);
    assert!(
        out.rehydrated >= 2,
        "s1's in-flight handoff and s3's resident agent must come back \
         from the journal: {out:?}"
    );
    assert!(
        out.replays_suppressed >= 1,
        "s3's applied visit must not re-execute: {out:?}"
    );
    assert!(
        out.handoffs_resumed >= 1,
        "s1's un-acked transfer must be re-driven: {out:?}"
    );
    assert!(out.chaos.retransmits >= 2);
}

#[test]
fn journey_survives_crashes_under_loss() {
    // the same crash schedule with 5% frame loss on top; the instants
    // no longer align with exact protocol windows on the shifted
    // timeline, but the end-to-end invariants must hold regardless
    let out = crash_chaos_experiment(0.05, &BOUNDARY_CRASHES, None, None, 42);
    assert_eq!(out.chaos.completed, 1, "naplet lost: {out:?}");
    assert_eq!(out.chaos.visits, ROUTE);
    assert_eq!(out.chaos.duplicate_visits, 0);
    assert_eq!(out.chaos.parked, 0);
    assert_eq!(out.crashes, 3);
    assert_eq!(out.recoveries, 3);
    assert!(
        out.chaos.dropped >= 1,
        "the loss schedule must actually drop frames"
    );
}

#[test]
fn journaling_and_leases_stay_off_the_wire() {
    // with crashes disabled, a journaling + leasing space must put
    // exactly the same bytes on the wire as the plain PR-1 protocol:
    // durability is local, leases piggyback on existing traffic
    let plain = chaos_experiment(0.0, &[], 7);
    let out = crash_chaos_experiment(0.0, &[], Some(LeasePolicy::default()), None, 7);
    assert_eq!(out.chaos.completed, 1);
    assert_eq!(out.chaos.visits, ROUTE);
    assert_eq!(out.crashes, 0);
    assert_eq!(out.chaos.retransmits, 0);
    assert_eq!(out.chaos.migrations, plain.migrations);
    assert_eq!(
        out.chaos.migration_bytes, plain.migration_bytes,
        "journaling must not inflate migration traffic"
    );
    assert_eq!(
        out.chaos.control_bytes, plain.control_bytes,
        "leases must not add control traffic"
    );
}

#[test]
fn dead_host_agents_recovered_by_lease() {
    // s1 crashes while the agent is resident (t=14..25 on the pilot
    // timeline) and never comes back; the
    // journal at s1 is unreachable forever, so only the home-side
    // lease can save the journey. The re-dispatched incarnation walks
    // the route from the start and the Alt fallback steers it around
    // the dead host.
    let route = Pattern::seq(vec![
        Pattern::singleton("s0"),
        Pattern::alt(Pattern::singleton("s1"), Pattern::singleton("s4")),
        Pattern::singleton("s2"),
        Pattern::singleton("s3"),
        Pattern::singleton("home"),
    ]);
    let lease = LeasePolicy {
        duration_ms: 20_000,
        redispatch: true,
        max_redispatches: 1,
    };
    let out = crash_chaos_experiment(0.0, &[("s1", 16, None)], Some(lease), Some(route), 42);
    assert_eq!(out.chaos.completed, 1, "orphan not recovered: {out:?}");
    assert_eq!(
        out.chaos.visits,
        ["s0", "s4", "s2", "s3", "home"],
        "re-dispatched incarnation must route around the dead host"
    );
    assert_eq!(out.chaos.duplicate_visits, 0);
    assert_eq!(out.crashes, 1);
    assert_eq!(out.recoveries, 0, "s1 must never restart in this scenario");
    assert_eq!(out.leases_expired, 1);
    assert_eq!(out.orphans_redispatched, 1);
    assert_eq!(out.lost, 0);
}

#[test]
fn permanent_outage_parks_instead_of_looping() {
    // s1 never comes back: the Seq itinerary has no fallback, so the
    // naplet must park at s0 with a navigation-log failure instead of
    // retrying forever or vanishing
    let out = chaos_experiment(0.0, &[("s1", 0, u64::MAX)], 11);
    assert_eq!(out.completed, 0);
    assert_eq!(out.parked, 1, "agent must be parked, not lost: {out:?}");
    assert!(out.retransmits >= 1);
}
