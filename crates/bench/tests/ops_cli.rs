//! The two command lines as a user runs them: `naplet-ops` reads every
//! dump it is given, and both binaries refuse a word they do not know
//! rather than print nothing and exit 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary runs")
}

/// Every non-flag argument after `--dumps` is a dump, even one that
/// follows another flag: both hosts' events reach the report.
#[test]
fn dumps_split_by_a_flag_are_all_analyzed() {
    let out = naplet_bench::traced_chaos_experiment(0.05, &[("s1", 10, 700)], 42);
    let segments = naplet_obs::FlatSegment::per_host(&out.obs.events);
    let dir = std::env::temp_dir().join(format!("naplet-ops-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<String> = segments[..2]
        .iter()
        .map(|seg| {
            let path = dir.join(format!("{}.trace.json", seg.host));
            std::fs::write(&path, seg.to_json()).unwrap();
            path.display().to_string()
        })
        .collect();

    let args = [
        "analyze", "--dumps", &paths[0], "--top", "5", &paths[1], "--out", "-",
    ];
    let got = run(env!("CARGO_BIN_EXE_naplet-ops"), &args);
    assert_eq!(got.status.code(), Some(0), "{got:?}");
    let report = naplet_obs::parse_analysis(&String::from_utf8(got.stdout).unwrap()).unwrap();
    let both = segments[0].events.len() + segments[1].events.len();
    assert_eq!(
        report.event_count, both as u64,
        "one host's dump was dropped"
    );

    // a bootstrap file beside dumps is two sources: a usage error
    let mixed = run(
        env!("CARGO_BIN_EXE_naplet-ops"),
        &["analyze", "cluster.toml", "--dumps", &paths[0]],
    );
    assert_eq!(mixed.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn naplet_ops_refuses_an_unknown_command_and_flag_and_helps_in_one_screen() {
    let bin = env!("CARGO_BIN_EXE_naplet-ops");
    for args in [&["prm", "--sim"][..], &["prom", "--sim", "--bogus"]] {
        let got = run(bin, args);
        assert_eq!(got.status.code(), Some(2), "{args:?}");
        assert!(got.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&got.stderr).contains("usage: naplet-ops"));
    }
    let help = run(bin, &["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let lines = String::from_utf8(help.stdout).unwrap().lines().count();
    assert!(lines <= 24, "--help takes {lines} lines");
}

#[test]
fn figures_refuses_an_unknown_figure() {
    let got = run(env!("CARGO_BIN_EXE_figures"), &["e11"]);
    assert_eq!(got.status.code(), Some(2));
    assert!(got.stdout.is_empty());
    assert!(String::from_utf8_lossy(&got.stderr).contains("usage: figures"));
}
