//! Cluster-bootstrap configuration for `napletd` daemons.
//!
//! A cluster is described by one TOML file shared by every node: each
//! daemon is started with the same file plus `--node <name>` and works
//! out its own listen address and its static peer list from it. The
//! parser is a deliberate TOML subset (tables, array-of-tables
//! `[[node]]`, string/integer/boolean values, `#` comments) so the
//! workspace stays dependency-free; anything outside the subset is a
//! line-numbered parse error, not a silent skip.
//!
//! ```toml
//! [cluster]
//! lease_ms = 60000
//!
//! [[node]]
//! name = "alpha"
//! listen = "127.0.0.1:7401"
//! journal = "/var/lib/naplet/alpha"
//! ```
//!
//! [`BootstrapConfig::parse`] validates as it goes — duplicate node
//! names, duplicate or unparseable listen addresses, missing keys —
//! and reports *all* problems in one error so `napletd
//! --check-config` fixes a config in one pass instead of one error
//! per run.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use naplet_core::error::{NapletError, Result};
use naplet_net::tcp::TcpConfig;

/// One `[[node]]` entry: a daemon's identity in the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// Host name this node's NapletServer answers to (frame `to`).
    pub name: String,
    /// TCP listen address for the node's transport.
    pub listen: SocketAddr,
    /// Write-ahead journal directory; `None` keeps the journal in
    /// memory: a restart recovers no agent, but numbers its ids past
    /// the earlier boot's by its boot second.
    pub journal: Option<PathBuf>,
}

/// The `[directory]` section: which nodes replicate the naplet
/// directory, plus optional consensus-timer overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryConfig {
    /// Names of the replica-set members (each must be a declared
    /// `[[node]]`), in the order written.
    pub replicas: Vec<String>,
    /// `ReplConfig::tick_ms` override.
    pub tick_ms: Option<u64>,
    /// `ReplConfig::lease_ms` override (leader lease).
    pub lease_ms: Option<u64>,
    /// `ReplConfig::heartbeat_ms` override.
    pub heartbeat_ms: Option<u64>,
    /// `ReplConfig::election_ms` override.
    pub election_ms: Option<u64>,
    /// `ReplConfig::snapshot_keep` override.
    pub snapshot_keep: Option<u64>,
}

impl DirectoryConfig {
    /// Materialize the consensus-core configuration.
    pub fn repl_config(&self) -> crate::repl::ReplConfig {
        let mut cfg = crate::repl::ReplConfig::new(self.replicas.clone());
        if let Some(v) = self.tick_ms {
            cfg.tick_ms = v;
        }
        if let Some(v) = self.lease_ms {
            cfg.lease_ms = v;
        }
        if let Some(v) = self.heartbeat_ms {
            cfg.heartbeat_ms = v;
        }
        if let Some(v) = self.election_ms {
            cfg.election_ms = v;
        }
        if let Some(v) = self.snapshot_keep {
            cfg.snapshot_keep = v;
        }
        cfg
    }
}

/// The whole cluster as one parsed, validated bootstrap file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootstrapConfig {
    /// Every node in the cluster, in file order.
    pub nodes: Vec<NodeConfig>,
    /// Home-side lease duration for launched naplets (ms); `None`
    /// disables leases on daemon-hosted home servers.
    pub lease_ms: Option<u64>,
    /// Modelled native-visit dwell applied on every node (ms); `None`
    /// keeps each server's default. Cluster tests raise this to open a
    /// window in which an agent is resident across a crash.
    pub dwell_ms: Option<u64>,
    /// Transport frame-size ceiling override (bytes).
    pub max_frame_bytes: Option<usize>,
    /// Directory daemons write flight-recorder dumps into (on SIGUSR1,
    /// clean shutdown, and panic) as `<trace_dir>/<node>.trace.json`;
    /// `None` falls back to the OS temp directory.
    pub trace_dir: Option<PathBuf>,
    /// Replicated-directory configuration; `None` keeps every node in
    /// the default home-manager location mode.
    pub directory: Option<DirectoryConfig>,
    /// Service-level objectives from the `[slo]` section, evaluated by
    /// `naplet-ops analyze --slo`; `None` means no budgets are declared.
    pub slo: Option<naplet_obs::SloConfig>,
}

impl BootstrapConfig {
    /// Parse and validate bootstrap TOML. Every problem found is
    /// reported in the single returned error, one per line.
    pub fn parse(text: &str) -> Result<BootstrapConfig> {
        let raw = parse_toml_subset(text)?;
        let mut errors = Vec::new();
        // each parsed node keeps the line of its `[[node]]` header so
        // cross-node errors can point at both definitions
        let mut nodes: Vec<(NodeConfig, usize)> = Vec::new();
        for (i, entry) in raw.nodes.iter().enumerate() {
            let header_line = raw.node_lines[i];
            let label = entry
                .get("name")
                .map(|v| format!("node `{}`", v.as_str_lossy()))
                .unwrap_or_else(|| format!("node #{}", i + 1));
            let name = match entry.get("name") {
                Some(RawValue::Str(s)) if !s.is_empty() => s.clone(),
                Some(RawValue::Str(_)) => {
                    errors.push(format!("{label}: `name` must not be empty"));
                    continue;
                }
                Some(_) => {
                    errors.push(format!("{label}: `name` must be a string"));
                    continue;
                }
                None => {
                    errors.push(format!("{label}: missing required key `name`"));
                    continue;
                }
            };
            let listen = match entry.get("listen") {
                Some(RawValue::Str(s)) => match s.parse::<SocketAddr>() {
                    Ok(addr) => addr,
                    Err(e) => {
                        errors.push(format!(
                            "node `{name}`: listen address `{s}` does not parse: {e}"
                        ));
                        continue;
                    }
                },
                Some(_) => {
                    errors.push(format!("node `{name}`: `listen` must be a string"));
                    continue;
                }
                None => {
                    errors.push(format!("node `{name}`: missing required key `listen`"));
                    continue;
                }
            };
            let journal = match entry.get("journal") {
                Some(RawValue::Str(s)) => Some(PathBuf::from(s)),
                Some(_) => {
                    errors.push(format!("node `{name}`: `journal` must be a string path"));
                    continue;
                }
                None => None,
            };
            for key in entry.keys() {
                if !matches!(key.as_str(), "name" | "listen" | "journal") {
                    errors.push(format!("node `{name}`: unknown key `{key}`"));
                }
            }
            nodes.push((
                NodeConfig {
                    name,
                    listen,
                    journal,
                },
                header_line,
            ));
        }

        // cross-node validation: names and listen addresses must be
        // cluster-unique, else two daemons would claim one identity.
        // Every collision is reported with both definition sites so a
        // large config is fixable in one pass.
        for (i, (a, a_line)) in nodes.iter().enumerate() {
            for (b, b_line) in &nodes[i + 1..] {
                if a.name == b.name {
                    errors.push(format!(
                        "line {b_line}: duplicate node name `{}` (first defined at line {a_line})",
                        a.name
                    ));
                }
                if a.listen == b.listen {
                    errors.push(format!(
                        "line {b_line}: nodes `{}` and `{}` both listen on {} \
                         (first defined at line {a_line})",
                        a.name, b.name, a.listen
                    ));
                }
            }
        }
        let nodes: Vec<NodeConfig> = nodes.into_iter().map(|(n, _)| n).collect();
        if nodes.is_empty() && errors.is_empty() {
            errors.push("config defines no [[node]] entries".to_string());
        }

        let mut lease_ms = None;
        let mut dwell_ms = None;
        let mut max_frame_bytes = None;
        let mut trace_dir = None;
        for (key, value) in &raw.cluster {
            match (key.as_str(), value) {
                ("trace_dir", RawValue::Str(s)) if !s.is_empty() => {
                    trace_dir = Some(PathBuf::from(s))
                }
                ("trace_dir", _) => {
                    errors.push("[cluster] `trace_dir` must be a non-empty string path".into())
                }
                ("lease_ms", RawValue::Int(n)) if *n >= 0 => lease_ms = Some(*n as u64),
                ("lease_ms", _) => {
                    errors.push("[cluster] `lease_ms` must be a non-negative integer".into())
                }
                ("dwell_ms", RawValue::Int(n)) if *n >= 0 => dwell_ms = Some(*n as u64),
                ("dwell_ms", _) => {
                    errors.push("[cluster] `dwell_ms` must be a non-negative integer".into())
                }
                ("max_frame_bytes", RawValue::Int(n)) if *n > 0 => {
                    max_frame_bytes = Some(*n as usize)
                }
                ("max_frame_bytes", _) => {
                    errors.push("[cluster] `max_frame_bytes` must be a positive integer".into())
                }
                (other, _) => errors.push(format!("[cluster] unknown key `{other}`")),
            }
        }

        let mut directory = None;
        if let Some(table) = &raw.directory {
            let mut dir = DirectoryConfig {
                replicas: Vec::new(),
                tick_ms: None,
                lease_ms: None,
                heartbeat_ms: None,
                election_ms: None,
                snapshot_keep: None,
            };
            let mut saw_replicas = false;
            for (key, value) in table {
                // the TOML subset has no arrays, so the replica set is
                // a comma-separated string of node names
                match (key.as_str(), value) {
                    ("replicas", RawValue::Str(s)) => {
                        saw_replicas = true;
                        dir.replicas = s
                            .split(',')
                            .map(|p| p.trim().to_string())
                            .filter(|p| !p.is_empty())
                            .collect();
                    }
                    ("replicas", _) => errors.push(
                        "[directory] `replicas` must be a comma-separated string of node names"
                            .into(),
                    ),
                    (
                        k @ ("tick_ms" | "lease_ms" | "heartbeat_ms" | "election_ms"
                        | "snapshot_keep"),
                        RawValue::Int(n),
                    ) if *n > 0 => {
                        let v = Some(*n as u64);
                        match k {
                            "tick_ms" => dir.tick_ms = v,
                            "lease_ms" => dir.lease_ms = v,
                            "heartbeat_ms" => dir.heartbeat_ms = v,
                            "election_ms" => dir.election_ms = v,
                            _ => dir.snapshot_keep = v,
                        }
                    }
                    (
                        k @ ("tick_ms" | "lease_ms" | "heartbeat_ms" | "election_ms"
                        | "snapshot_keep"),
                        _,
                    ) => errors.push(format!("[directory] `{k}` must be a positive integer")),
                    (other, _) => errors.push(format!("[directory] unknown key `{other}`")),
                }
            }
            if !saw_replicas {
                errors.push("[directory] missing required key `replicas`".into());
            } else if dir.replicas.is_empty() {
                errors.push("[directory] `replicas` names no nodes".into());
            }
            for (i, r) in dir.replicas.iter().enumerate() {
                if !nodes.iter().any(|n| n.name == *r) {
                    errors.push(format!(
                        "[directory] replica `{r}` is not a declared [[node]]"
                    ));
                }
                if dir.replicas[..i].contains(r) {
                    errors.push(format!("[directory] replica `{r}` listed twice"));
                }
            }
            directory = Some(dir);
        }

        let mut slo = None;
        if let Some(table) = &raw.slo {
            let mut cfg = naplet_obs::SloConfig::default();
            for (key, value) in table {
                match (key.as_str(), value) {
                    (
                        k @ ("journey_p99_ms" | "dwell_p99_ms" | "wire_p99_ms" | "queue_p99_ms"
                        | "stall_p99_ms" | "directory_p99_ms"),
                        RawValue::Int(n),
                    ) if *n > 0 => {
                        let v = Some(*n as u64);
                        match k {
                            "journey_p99_ms" => cfg.journey_p99_ms = v,
                            "dwell_p99_ms" => cfg.dwell_p99_ms = v,
                            "wire_p99_ms" => cfg.wire_p99_ms = v,
                            "queue_p99_ms" => cfg.queue_p99_ms = v,
                            "stall_p99_ms" => cfg.stall_p99_ms = v,
                            _ => cfg.directory_p99_ms = v,
                        }
                    }
                    (
                        k @ ("journey_p99_ms" | "dwell_p99_ms" | "wire_p99_ms" | "queue_p99_ms"
                        | "stall_p99_ms" | "directory_p99_ms"),
                        _,
                    ) => errors.push(format!("[slo] `{k}` must be a positive integer")),
                    ("max_stall_pct", RawValue::Int(n)) if (0..=100).contains(n) => {
                        cfg.max_stall_pct = Some(*n as u64)
                    }
                    ("max_stall_pct", _) => errors
                        .push("[slo] `max_stall_pct` must be an integer percent (0-100)".into()),
                    (other, _) => errors.push(format!("[slo] unknown key `{other}`")),
                }
            }
            slo = Some(cfg);
        }

        if errors.is_empty() {
            Ok(BootstrapConfig {
                nodes,
                lease_ms,
                dwell_ms,
                max_frame_bytes,
                trace_dir,
                directory,
                slo,
            })
        } else {
            Err(NapletError::Parse(errors.join("\n")))
        }
    }

    /// Read and parse a bootstrap file from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<BootstrapConfig> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            NapletError::Parse(format!("cannot read config `{}`: {e}", path.display()))
        })?;
        BootstrapConfig::parse(&text)
    }

    /// Look up one node by name.
    pub fn node(&self, name: &str) -> Option<&NodeConfig> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Static peer map for one node: every *other* node's name and
    /// listen address.
    pub fn peers_for(&self, name: &str) -> BTreeMap<String, SocketAddr> {
        self.nodes
            .iter()
            .filter(|n| n.name != name)
            .map(|n| (n.name.clone(), n.listen))
            .collect()
    }

    /// Build the transport configuration for one named node.
    pub fn tcp_config(&self, name: &str) -> Result<TcpConfig> {
        let node = self
            .node(name)
            .ok_or_else(|| NapletError::NotFound(format!("no node `{name}` in config")))?;
        let mut cfg = TcpConfig::new(node.listen, self.peers_for(name));
        if let Some(max) = self.max_frame_bytes {
            cfg.max_frame_bytes = max;
        }
        Ok(cfg)
    }
}

/// A parsed value from the TOML subset.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RawValue {
    Str(String),
    Int(i64),
    Bool(bool),
}

impl RawValue {
    fn as_str_lossy(&self) -> String {
        match self {
            RawValue::Str(s) => s.clone(),
            RawValue::Int(n) => n.to_string(),
            RawValue::Bool(b) => b.to_string(),
        }
    }
}

#[derive(Debug, Default)]
struct RawConfig {
    cluster: BTreeMap<String, RawValue>,
    nodes: Vec<BTreeMap<String, RawValue>>,
    /// Line number of each `[[node]]` header, parallel to `nodes` —
    /// lets validation point at the offending definition.
    node_lines: Vec<usize>,
    directory: Option<BTreeMap<String, RawValue>>,
    slo: Option<BTreeMap<String, RawValue>>,
}

/// Which table subsequent `key = value` lines land in.
enum Section {
    None,
    Cluster,
    Node,
    Directory,
    Slo,
}

fn parse_toml_subset(text: &str) -> Result<RawConfig> {
    let mut raw = RawConfig::default();
    let mut section = Section::None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line == "[[node]]" {
            raw.nodes.push(BTreeMap::new());
            raw.node_lines.push(lineno);
            section = Section::Node;
        } else if line == "[cluster]" {
            section = Section::Cluster;
        } else if line == "[directory]" {
            if raw.directory.is_some() {
                return Err(NapletError::Parse(format!(
                    "line {lineno}: [directory] defined twice"
                )));
            }
            raw.directory = Some(BTreeMap::new());
            section = Section::Directory;
        } else if line == "[slo]" {
            if raw.slo.is_some() {
                return Err(NapletError::Parse(format!(
                    "line {lineno}: [slo] defined twice"
                )));
            }
            raw.slo = Some(BTreeMap::new());
            section = Section::Slo;
        } else if line.starts_with('[') {
            return Err(NapletError::Parse(format!(
                "line {lineno}: unknown section `{line}` (expected [cluster], [directory], [slo], or [[node]])"
            )));
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_string();
            let value = parse_value(value.trim())
                .map_err(|e| NapletError::Parse(format!("line {lineno}: {e}")))?;
            let table = match section {
                Section::Cluster => &mut raw.cluster,
                Section::Node => raw.nodes.last_mut().expect("section implies a node"),
                Section::Directory => raw.directory.as_mut().expect("section implies directory"),
                Section::Slo => raw.slo.as_mut().expect("section implies slo"),
                Section::None => {
                    return Err(NapletError::Parse(format!(
                        "line {lineno}: `{key}` appears before any [cluster] or [[node]] header"
                    )))
                }
            };
            if table.insert(key.clone(), value).is_some() {
                return Err(NapletError::Parse(format!(
                    "line {lineno}: key `{key}` set twice in the same table"
                )));
            }
        } else {
            return Err(NapletError::Parse(format!(
                "line {lineno}: cannot parse `{line}`"
            )));
        }
    }
    Ok(raw)
}

/// Drop a trailing `# comment`, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> std::result::Result<RawValue, String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{s}`"))?;
        if inner.contains('"') {
            return Err(format!("embedded quote in `{s}`"));
        }
        return Ok(RawValue::Str(inner.to_string()));
    }
    match s {
        "true" => return Ok(RawValue::Bool(true)),
        "false" => return Ok(RawValue::Bool(false)),
        _ => {}
    }
    let digits: String = s.chars().filter(|c| *c != '_').collect();
    digits
        .parse::<i64>()
        .map(RawValue::Int)
        .map_err(|_| format!("cannot parse value `{s}` (expected \"string\", integer, or bool)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# a three-node localhost cluster
[cluster]
lease_ms = 60000
max_frame_bytes = 1048576  # 1 MiB

[[node]]
name = "alpha"
listen = "127.0.0.1:7401"
journal = "/tmp/naplet/alpha"

[[node]]
name = "beta"
listen = "127.0.0.1:7402"

[[node]]
name = "gamma"
listen = "127.0.0.1:7403"
"#;

    #[test]
    fn parses_a_full_cluster() {
        let cfg = BootstrapConfig::parse(GOOD).unwrap();
        assert_eq!(cfg.nodes.len(), 3);
        assert_eq!(cfg.lease_ms, Some(60_000));
        assert_eq!(cfg.max_frame_bytes, Some(1_048_576));
        let alpha = cfg.node("alpha").unwrap();
        assert_eq!(alpha.listen, "127.0.0.1:7401".parse().unwrap());
        assert_eq!(
            alpha.journal.as_deref(),
            Some(Path::new("/tmp/naplet/alpha"))
        );
        assert_eq!(cfg.node("beta").unwrap().journal, None);
        let peers = cfg.peers_for("alpha");
        assert_eq!(peers.len(), 2);
        assert!(peers.contains_key("beta") && peers.contains_key("gamma"));
    }

    #[test]
    fn tcp_config_carries_peers_and_limits() {
        let cfg = BootstrapConfig::parse(GOOD).unwrap();
        let tcp = cfg.tcp_config("beta").unwrap();
        assert_eq!(tcp.listen, "127.0.0.1:7402".parse().unwrap());
        assert_eq!(tcp.peers.len(), 2);
        assert_eq!(tcp.max_frame_bytes, 1_048_576);
        assert!(cfg.tcp_config("nobody").is_err());
    }

    #[test]
    fn duplicate_names_and_addresses_are_both_reported() {
        let bad = r#"
[[node]]
name = "a"
listen = "127.0.0.1:7401"
[[node]]
name = "a"
listen = "127.0.0.1:7401"
"#;
        let err = BootstrapConfig::parse(bad).unwrap_err().to_string();
        assert!(err.contains("duplicate node name `a`"), "{err}");
        assert!(err.contains("both listen on"), "{err}");
    }

    #[test]
    fn duplicate_errors_point_at_both_definitions() {
        // headers at lines 2, 6 and 10; `b` collides with `a` on the
        // listen address, `c` reuses the name `a`
        let bad = "\n\
[[node]]\n\
name = \"a\"\n\
listen = \"127.0.0.1:7401\"\n\
\n\
[[node]]\n\
name = \"b\"\n\
listen = \"127.0.0.1:7401\"\n\
\n\
[[node]]\n\
name = \"a\"\n\
listen = \"127.0.0.1:7403\"\n";
        let err = BootstrapConfig::parse(bad).unwrap_err().to_string();
        assert!(
            err.contains("line 10: duplicate node name `a` (first defined at line 2)"),
            "{err}"
        );
        assert!(
            err.contains("line 6: nodes `a` and `b` both listen on 127.0.0.1:7401"),
            "{err}"
        );
        assert!(err.contains("(first defined at line 2)"), "{err}");
        // both problems in the one error: fixable in a single pass
        assert_eq!(err.lines().count(), 2, "{err}");
    }

    #[test]
    fn directory_section_parses_and_maps_to_repl_config() {
        let text =
            format!("{GOOD}\n[directory]\nreplicas = \"alpha, beta, gamma\"\nheartbeat_ms = 250\n");
        let cfg = BootstrapConfig::parse(&text).unwrap();
        let dir = cfg.directory.as_ref().unwrap();
        assert_eq!(dir.replicas, vec!["alpha", "beta", "gamma"]);
        let repl = dir.repl_config();
        assert_eq!(repl.heartbeat_ms, 250);
        assert_eq!(
            repl.tick_ms,
            crate::repl::ReplConfig::new(Vec::new()).tick_ms
        );
        assert_eq!(repl.majority(), 2);
    }

    #[test]
    fn directory_validation_reports_every_problem() {
        let text = format!(
            "{GOOD}\n[directory]\nreplicas = \"alpha, ghost, alpha\"\ntick_ms = -5\nwat = 1\n"
        );
        let err = BootstrapConfig::parse(&text).unwrap_err().to_string();
        assert!(
            err.contains("replica `ghost` is not a declared [[node]]"),
            "{err}"
        );
        assert!(err.contains("replica `alpha` listed twice"), "{err}");
        assert!(
            err.contains("`tick_ms` must be a positive integer"),
            "{err}"
        );
        assert!(err.contains("unknown key `wat`"), "{err}");

        let err = BootstrapConfig::parse(&format!("{GOOD}\n[directory]\n"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing required key `replicas`"), "{err}");

        let err = BootstrapConfig::parse(&format!("{GOOD}\n[directory]\nreplicas = \", ,\"\n"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("`replicas` names no nodes"), "{err}");
    }

    #[test]
    fn slo_section_parses_into_budgets() {
        let text = format!(
            "{GOOD}\n[slo]\njourney_p99_ms = 5000\nstall_p99_ms = 1500\nmax_stall_pct = 40\n"
        );
        let cfg = BootstrapConfig::parse(&text).unwrap();
        let slo = cfg.slo.as_ref().unwrap();
        assert_eq!(slo.journey_p99_ms, Some(5_000));
        assert_eq!(slo.stall_p99_ms, Some(1_500));
        assert_eq!(slo.max_stall_pct, Some(40));
        assert_eq!(slo.dwell_p99_ms, None, "undeclared budgets stay unchecked");
        assert_eq!(
            BootstrapConfig::parse(GOOD).unwrap().slo,
            None,
            "no [slo] section, no budgets"
        );
    }

    #[test]
    fn slo_validation_reports_every_problem() {
        let text =
            format!("{GOOD}\n[slo]\njourney_p99_ms = \"fast\"\nmax_stall_pct = 250\nwat = 1\n");
        let err = BootstrapConfig::parse(&text).unwrap_err().to_string();
        assert!(
            err.contains("`journey_p99_ms` must be a positive integer"),
            "{err}"
        );
        assert!(
            err.contains("`max_stall_pct` must be an integer percent (0-100)"),
            "{err}"
        );
        assert!(err.contains("[slo] unknown key `wat`"), "{err}");

        let err = BootstrapConfig::parse(&format!("{GOOD}\n[slo]\n[slo]\n"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("[slo] defined twice"), "{err}");
        assert!(err.contains("line"), "{err}");
    }

    #[test]
    fn unparseable_listen_address_is_a_clear_error() {
        let bad = "[[node]]\nname = \"a\"\nlisten = \"not-an-addr\"\n";
        let err = BootstrapConfig::parse(bad).unwrap_err().to_string();
        assert!(err.contains("`not-an-addr` does not parse"), "{err}");
    }

    #[test]
    fn missing_keys_unknown_keys_and_empty_config_are_errors() {
        let err = BootstrapConfig::parse("[[node]]\nname = \"a\"\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing required key `listen`"), "{err}");

        let err = BootstrapConfig::parse(
            "[[node]]\nname = \"a\"\nlisten = \"127.0.0.1:1\"\ncolor = \"red\"\n",
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown key `color`"), "{err}");

        let err = BootstrapConfig::parse("# empty\n").unwrap_err().to_string();
        assert!(err.contains("no [[node]] entries"), "{err}");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = BootstrapConfig::parse("[[node]]\nname = \"a\"\nwhat even is this\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 3"), "{err}");

        let err = BootstrapConfig::parse("stray = 1\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("before any"), "{err}");

        let err = BootstrapConfig::parse("[mystery]\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown section"), "{err}");
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = BootstrapConfig::parse(
            "[[node]]\nname = \"a#1\"  # the name really has a hash\nlisten = \"127.0.0.1:7409\"\n",
        )
        .unwrap();
        assert_eq!(cfg.nodes[0].name, "a#1");
    }
}
