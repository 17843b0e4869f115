//! Host-side counters read from `/proc`: CPU time, page faults, peak
//! resident memory, run-queue wait — plus the description of the host a
//! result was measured on.

use crate::json::Json;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/self/stat`. Linux reports
/// these fields in `USER_HZ`, which is 100 on every supported
/// architecture; reading it properly needs `sysconf`, i.e. libc.
const TICKS_PER_S: f64 = 100.0;

/// A snapshot of this process's cumulative host counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostCounters {
    /// User-mode CPU seconds over all threads, live and joined.
    pub user_s: f64,
    /// Kernel-mode CPU seconds over all threads.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: f64,
    /// Seconds the main thread sat runnable on a run queue.
    pub runqueue_wait_s: f64,
}

impl HostCounters {
    /// Read the counters now. Unreadable files (not Linux) read as zero.
    pub fn now() -> HostCounters {
        let mut c = HostCounters::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // The command name (field 2) may hold spaces; the numbered
            // fields resume after its closing parenthesis at field 3.
            let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
            let field = |n: usize| -> f64 {
                rest.split_ascii_whitespace()
                    .nth(n - 3)
                    .and_then(|f| f.parse().ok())
                    .unwrap_or(0.0)
            };
            c.minor_faults = field(10);
            c.user_s = field(14) / TICKS_PER_S;
            c.sys_s = field(15) / TICKS_PER_S;
        }
        if let Ok(s) = std::fs::read_to_string("/proc/self/schedstat") {
            let wait_ns: f64 = s
                .split_ascii_whitespace()
                .nth(1)
                .and_then(|f| f.parse().ok())
                .unwrap_or(0.0);
            c.runqueue_wait_s = wait_ns / 1e9;
        }
        c
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &HostCounters) -> HostCounters {
        HostCounters {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            runqueue_wait_s: self.runqueue_wait_s - earlier.runqueue_wait_s,
        }
    }

    /// User plus kernel CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB; 0 when
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_ascii_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nanoseconds since the Unix epoch: the one clock a parent and its
/// child processes share, used to tell how late a child started.
pub fn epoch_ns() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_nanos() as f64)
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What a result file records about where it was measured.
pub fn describe() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj()
        .with("nproc", nproc() as u64)
        .with("cpu_model", cpu)
        .with("rustc", first_line_of("rustc", &["--version"]))
        .with("git_revision", first_line_of("git", &["rev-parse", "HEAD"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_grow_with_work() {
        let a = HostCounters::now();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let d = HostCounters::now().since(&a);
        assert!(d.cpu_s() >= 0.03, "cpu time did not advance: {d:?}");
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
