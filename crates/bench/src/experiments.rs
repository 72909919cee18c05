//! The MAN-based experiments (F3, E1, E2) and table rendering.

use naplet_net::{Bandwidth, LatencyModel, TrafficClass};

use naplet_man::{health_oids, ManWorld};

/// One row of the MAN-vs-SNMP comparison (F3).
#[derive(Debug, Clone)]
pub struct ManRow {
    /// Device count.
    pub devices: usize,
    /// Variables polled per device.
    pub vars: usize,
    /// Mobile-agent bytes on the wire.
    pub agent_bytes: u64,
    /// Centralized (fine-grained) bytes.
    pub central_bytes: u64,
    /// Mobile-agent completion (virtual ms).
    pub agent_ms: u64,
    /// Centralized completion (virtual ms).
    pub central_ms: u64,
    /// Station-side operations, agent paradigm.
    pub agent_ops: u64,
    /// Station-side operations, centralized paradigm.
    pub central_ops: u64,
}

fn man_world(devices: usize, latency: LatencyModel, seed: u64) -> ManWorld {
    let mut w = ManWorld::build(devices, 4, latency, Bandwidth::fast_ethernet(), seed);
    w.tick_devices(30_000);
    // steady-state periodic management: code caches are warm (E7
    // measures the cold-start cost separately)
    w.warm().expect("warm round");
    w
}

/// F3: sweep device counts at fixed variables/device; broadcast agents
/// vs fine-grained centralized polling.
pub fn exp_f3_devices(device_counts: &[usize], vars: usize, seed: u64) -> Vec<ManRow> {
    device_counts
        .iter()
        .map(|&devices| {
            let oids = health_oids(vars, 4);
            let mut w = man_world(devices, LatencyModel::lan(), seed);
            let agent = w.agent_poll(&oids, true, None).expect("agent poll");
            let central = w.centralized_poll(&oids, true).expect("central poll");
            row(devices, vars, &agent, &central)
        })
        .collect()
}

/// E1: sweep variables/device at fixed device count — locates the
/// crossover where shipping the computation (broadcast clones that
/// filter on site) beats per-variable polling on wire bytes.
pub fn exp_e1_crossover(var_counts: &[usize], devices: usize, seed: u64) -> Vec<ManRow> {
    var_counts
        .iter()
        .map(|&vars| {
            let oids = health_oids(vars, 4);
            let mut w = man_world(devices, LatencyModel::lan(), seed);
            let agent = w.agent_poll(&oids, true, Some(0)).expect("agent poll");
            let central = w.centralized_poll(&oids, true).expect("central poll");
            row(devices, vars, &agent, &central)
        })
        .collect()
}

/// E2b: the table-retrieval task — a sequential get-next walk of the
/// interface table per device (round-trip-bound) vs broadcast agents
/// walking locally. This is where "overcoming network latency" shows.
pub fn exp_e2_walk(latencies_ms: &[u64], devices: usize, seed: u64) -> Vec<(u64, ManRow)> {
    latencies_ms
        .iter()
        .map(|&lat| {
            let mut w = man_world(devices, LatencyModel::Constant(lat), seed);
            let root = naplet_snmp::oids::if_entry();
            let agent = w.agent_walk(&root).expect("agent walk");
            let central = w.centralized_walk(&root).expect("central walk");
            let vars = agent
                .per_device
                .values()
                .next()
                .and_then(|v| v.as_list().ok().map(|l| l.len()))
                .unwrap_or(0);
            (lat, row(devices, vars, &agent, &central))
        })
        .collect()
}

/// E2: sweep link latency at fixed size — "overcoming network latency".
pub fn exp_e2_latency(
    latencies_ms: &[u64],
    devices: usize,
    vars: usize,
    seed: u64,
) -> Vec<(u64, ManRow)> {
    latencies_ms
        .iter()
        .map(|&lat| {
            let oids = health_oids(vars, 4);
            let mut w = man_world(devices, LatencyModel::Constant(lat), seed);
            let agent = w.agent_poll(&oids, true, None).expect("agent poll");
            let central = w.centralized_poll(&oids, true).expect("central poll");
            (lat, row(devices, vars, &agent, &central))
        })
        .collect()
}

/// E1b: the threshold-diagnosis ablation — raw collection vs on-site
/// filtering, measuring report (Message-class) bytes.
pub fn exp_filtering(devices: usize, seed: u64) -> (u64, u64) {
    let oids = naplet_man::diagnosis_oids(4);
    let mut w = man_world(devices, LatencyModel::lan(), seed);
    let raw = w.agent_poll(&oids, false, None).expect("raw poll");
    let filtered = w
        .agent_poll(&oids, false, Some(1_000_000_000))
        .expect("filtered poll");
    (
        raw.stats.bytes(TrafficClass::Message),
        filtered.stats.bytes(TrafficClass::Message),
    )
}

fn row(
    devices: usize,
    vars: usize,
    agent: &naplet_man::PollOutcome,
    central: &naplet_man::PollOutcome,
) -> ManRow {
    ManRow {
        devices,
        vars,
        agent_bytes: agent.total_bytes(),
        central_bytes: central.total_bytes(),
        agent_ms: agent.completion_ms,
        central_ms: central.completion_ms,
        agent_ops: agent.station_ops,
        central_ops: central.station_ops,
    }
}

/// Render rows as an aligned text table.
pub fn render_man_table(title: &str, rows: &[ManRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!("== {title} ==\n"));
    s.push_str(&format!(
        "{:>8} {:>6} | {:>14} {:>14} {:>7} | {:>12} {:>12} | {:>10} {:>11}\n",
        "devices",
        "vars",
        "agent bytes",
        "central bytes",
        "ratio",
        "agent ms",
        "central ms",
        "agent ops",
        "central ops"
    ));
    for r in rows {
        let ratio = if r.agent_bytes == 0 {
            0.0
        } else {
            r.central_bytes as f64 / r.agent_bytes as f64
        };
        s.push_str(&format!(
            "{:>8} {:>6} | {:>14} {:>14} {:>6.2}x | {:>12} {:>12} | {:>10} {:>11}\n",
            r.devices,
            r.vars,
            r.agent_bytes,
            r.central_bytes,
            ratio,
            r.agent_ms,
            r.central_ms,
            r.agent_ops,
            r.central_ops
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_shapes_hold_small() {
        let rows = exp_f3_devices(&[2, 4], 8, 3);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // the centralized station does one PDU per var per device;
            // the broadcast agent launches once and gets one report per
            // device
            assert_eq!(r.central_ops, (r.devices * r.vars) as u64);
            assert_eq!(r.agent_ops, 1 + r.devices as u64);
            assert!(r.agent_bytes > 0 && r.central_bytes > 0);
        }
        // centralized traffic grows linearly with device count
        assert!(rows[1].central_bytes > rows[0].central_bytes);
    }

    #[test]
    fn e1_centralized_grows_with_vars_faster() {
        let rows = exp_e1_crossover(&[2, 16], 3, 5);
        let growth_central = rows[1].central_bytes as f64 / rows[0].central_bytes as f64;
        let growth_agent = rows[1].agent_bytes as f64 / rows[0].agent_bytes as f64;
        // per-variable polling scales ~8x going 2→16 vars; the agent
        // only grows by the extra payload it carries
        assert!(
            growth_central > growth_agent * 1.5,
            "central {growth_central:.2}x vs agent {growth_agent:.2}x"
        );
    }

    #[test]
    fn filtering_reduces_report_traffic() {
        let (raw, filtered) = exp_filtering(3, 9);
        assert!(filtered < raw, "filtered {filtered} < raw {raw}");
    }

    #[test]
    fn table_renders() {
        let rows = exp_f3_devices(&[2], 4, 1);
        let t = render_man_table("t", &rows);
        assert!(t.contains("devices"));
        assert!(t.lines().count() >= 3);
    }
}
