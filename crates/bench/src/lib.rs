//! # naplet-bench
//!
//! Experiment drivers, the multi-process cluster harness and the ops
//! client: every table/figure row in EXPERIMENTS.md regenerates through
//! the `figures` binary (`cargo run -p naplet-bench --bin figures`), and
//! the `naplet-ops` binary reads a cluster's status, metrics, traces
//! and critical paths ([`ops`]). Performance is measured by the
//! standalone `benchmark/` package.

#![warn(missing_docs)]

pub mod cluster;
pub mod experiments;
pub mod ops;
pub mod scenarios;

pub use experiments::{
    exp_e1_crossover, exp_e2_latency, exp_e2_walk, exp_f3_devices, exp_filtering, render_man_table,
    ManRow,
};
pub use scenarios::{
    accumulation_experiment, bench_key, chaos_experiment, code_loading_experiment,
    crash_chaos_experiment, itinerary_experiment, messaging_experiment, probe_registry,
    scheduling_experiment, traced_chaos_experiment, traced_crash_chaos_experiment,
    watched_chaos_experiment, AccumulationOutcome, ChaosOutcome, CodeLoadingOutcome,
    CrashChaosOutcome, ItineraryOutcome, MessagingOutcome, Probe, RingWorld, TracedChaosOutcome,
    PROBE_CODEBASE, PROBE_CODE_SIZE,
};
