//! What the benchmark reads from `/proc` and the toolchain: CPU time
//! and peak memory of itself and the daemons, and the environment
//! block printed with every run.

use std::path::Path;
use std::process::Command;

/// `utime + stime` of a `/proc/.../stat` file in milliseconds. The
/// kernel reports clock ticks of `USER_HZ`, which is 100 on every
/// Linux ABI this runs on. Returns 0 for a process that is gone.
fn stat_cpu_ms(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // the command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3, so utime (14) and stime (15) sit at 11, 12
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// CPU time consumed so far by process `pid`, all threads.
pub fn process_cpu_ms(pid: u32) -> f64 {
    stat_cpu_ms(&format!("/proc/{pid}/stat"))
}

/// CPU time consumed so far by this process's main thread (its thread
/// id equals the process id) — the pump thread in every workload.
pub fn main_thread_cpu_ms() -> f64 {
    let pid = std::process::id();
    stat_cpu_ms(&format!("/proc/{pid}/task/{pid}/stat"))
}

/// Peak resident set of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path`: the `mountinfo` entry
/// with the longest mount point that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next())
        else {
            continue;
        };
        if path.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() >= b.0) {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |b| b.1)
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The environment block: everything a reader needs to judge whether
/// two result sets are comparable.
pub fn environment(journal_dir: &Path) -> Vec<String> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        "env network loopback only (127.0.0.1); no real link is crossed".into(),
        format!("env nproc {cpus}"),
        format!("env rustc {}", first_line("rustc", &["--version"])),
        // a driver's checkout is not a git repository
        format!("env commit {}", first_line("git", &["rev-parse", "HEAD"])),
        format!("env journal_fs {}", fs_type(journal_dir)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid) > 0.0);
        // burn a few ticks so both readings are non-zero
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 50 {
            std::hint::black_box(0u64);
        }
        assert!(main_thread_cpu_ms() <= process_cpu_ms(pid));
        assert!(process_cpu_ms(pid) > 0.0);
        assert_eq!(process_cpu_ms(u32::MAX), 0.0);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
