//! What the benchmark asks of the host: one CPU, a scratch directory,
//! and the process's own resource counters from `/proc`.

use std::path::{Path, PathBuf};

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this process (and every thread it later spawns) to the CPU it is
/// running on. Client, connection thread and engine thread of a `serve-*`
/// workload then share one CPU in every run; left to the scheduler they
/// land on one vCPU or two, and the same binary reads 5.4 k or 19.8 k
/// cmd/s depending on which (cross-vCPU wake-ups are VM exits).
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> bool {
    // SAFETY: `sched_getcpu` takes no arguments. `sched_setaffinity`
    // reads `cpusetsize` bytes from `mask`, which points at a live
    // 128-byte array (the size of glibc's `cpu_set_t`); pid 0 names the
    // calling thread.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return false;
        }
        let mut mask = [0u64; 16];
        mask[cpu as usize / 64] = 1 << (cpu as usize % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> bool {
    false
}

/// `benchmark/out`, inside the checkout the binary was built from: the
/// only place the benchmark writes (daemon state dirs, trace files).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Whether `dir` lives on a tmpfs, per the longest matching mount point
/// in `/proc/mounts`. Snapshot writes `sync_all`; off tmpfs that is the
/// host disk's latency, which the per-position floors have to absorb.
pub fn on_tmpfs(dir: &Path) -> bool {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .is_some_and(|(_, fstype)| fstype == "tmpfs")
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in clock ticks (100 Hz on Linux).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}
