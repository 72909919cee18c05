//! The one command, end to end, with every workload shrunk to well
//! under a second: builds `napletd` and the benchmark, runs all six
//! workloads untraced and traced, and checks what they print. Schema,
//! names and output checks only — nothing here asserts a timing.

use std::process::Command;

fn run_sh(args: &[&str]) -> (bool, String) {
    let script = concat!(env!("CARGO_MANIFEST_DIR"), "/run.sh");
    let out = Command::new("bash")
        .arg(script)
        .args(args)
        // the test harness's own target dir would deadlock on cargo's
        // build lock only while compiling; tests run after that
        .output()
        .expect("run.sh starts");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn smoke_set_emits_every_declared_metric() {
    let (ok, text) = run_sh(&["--smoke", "--repeat", "1"]);
    assert!(ok, "run.sh --smoke failed:\n{text}");
    assert!(text.contains("all checks passed"), "{text}");
    let (ok, manifest) = run_sh(&["--print-manifest"]);
    assert!(ok);
    // every name the manifest declares shows up in the printed table
    for line in manifest.lines().filter(|l| l.contains("\"unit\"")) {
        let name = line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("a metric line has a name");
        assert!(
            name.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
            "bad metric name {name}"
        );
        assert!(
            text.lines().any(|l| l.starts_with(name)),
            "metric {name} is declared but was not printed"
        );
    }
}

#[test]
fn single_run_ends_with_one_result_object() {
    let (ok, text) = run_sh(&[
        "--workload",
        "sim_ring",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(ok, "{text}");
    let last = text.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for key in [
        "\"failed\": 0",
        "\"metrics\": {",
        "\"setup_s\": {\"value\": ",
    ] {
        assert!(last.contains(key), "{key} missing in {last}");
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let (ok, text) = run_sh(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!ok);
    assert!(!text.contains("\"correct\""), "{text}");
}
