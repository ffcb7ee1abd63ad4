//! Host facts read from `/proc` and the checkout: std has no `getrusage`,
//! and no profiler is assumed to be installed.

use std::path::Path;

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/self/stat`
/// (`sysconf(_SC_CLK_TCK)`, 100 on every Linux architecture this runs on).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, from `/proc/self/stat` (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; the fields after it
    // start past its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line, so 11 and 12
    // of the remainder, which starts at field 3.
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("stat CPU fields are integers") as f64
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SECOND
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("/proc/self/status reports VmHWM");
    kib as f64 / 1024.0
}

/// Usable cores, as the simulator's `ShardPolicy::Auto` sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was built from, read from `.git` without running
/// git; `"unknown"` when the checkout is not a git repository.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
