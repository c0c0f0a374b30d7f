//! CPU and memory accounting from `/proc`, in safe Rust.
//!
//! - `/proc/self/stat` `cutime`+`cstime`: CPU of every child this
//!   process has waited for (and, transitively, of the grandchildren
//!   those children waited for) — read before and after a workload, the
//!   difference is the CPU of the whole process tree.
//! - `/proc/<pid>/status` `VmHWM`: a process's peak resident set.
//! - `/proc/thread-self/stat` `utime`+`stime`: the calling thread's CPU.
//!
//! Times in `stat` are in clock ticks of `USER_HZ`, which Linux fixes at
//! 100 for every architecture's user-space ABI; reading it through
//! `sysconf` would need `libc` and `unsafe`.

use std::fs;

/// Seconds per `/proc/*/stat` clock tick (`USER_HZ` = 100).
pub const TICK_S: f64 = 0.01;

/// The fields of a `stat` line after the `(comm)` field, which may
/// itself contain spaces and parentheses.
fn stat_fields(stat: &str) -> Vec<&str> {
    stat.rsplit_once(')').map(|(_, rest)| rest.split_whitespace().collect()).unwrap_or_default()
}

/// `(utime + stime, cutime + cstime)` of a `stat` line, in seconds.
pub fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let f = stat_fields(stat);
    // Post-comm index = 1-based field number − 3: utime 14, stime 15,
    // cutime 16, cstime 17.
    let tick = |i: usize| f.get(i)?.parse::<u64>().ok();
    let own = tick(11)? + tick(12)?;
    let children = tick(13)? + tick(14)?;
    Some((own as f64 * TICK_S, children as f64 * TICK_S))
}

/// `VmHWM` of a `status` document, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse().ok())
}

/// CPU seconds of all waited-for children of this process.
pub fn children_cpu_s() -> Option<f64> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?).map(|(_, c)| c)
}

/// CPU seconds this whole process has used so far (all threads).
pub fn process_cpu_s() -> Option<f64> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?).map(|(own, _)| own)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> Option<f64> {
    parse_stat_cpu(&fs::read_to_string("/proc/thread-self/stat").ok()?).map(|(own, _)| own)
}

/// Peak resident set of `pid` in KiB; `None` once the process is gone.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    parse_vm_hwm_kib(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `pid` plus every live descendant, found through
/// `/proc/<pid>/task/<tid>/children` (empty beyond `pid` on kernels
/// built without that file).
pub fn process_tree(pid: u32) -> Vec<u32> {
    let mut all = vec![pid];
    let mut next = 0;
    while next < all.len() {
        let p = all[next];
        next += 1;
        let Ok(tasks) = fs::read_dir(format!("/proc/{p}/task")) else { continue };
        for task in tasks.flatten() {
            let Ok(kids) = fs::read_to_string(task.path().join("children")) else { continue };
            for kid in kids.split_whitespace().filter_map(|k| k.parse().ok()) {
                if !all.contains(&kid) {
                    all.push(kid);
                }
            }
        }
    }
    all
}

/// 1-minute load average, from `/proc/loadavg`.
pub fn load_average() -> Option<f64> {
    fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_parses_around_an_awkward_comm() {
        // A comm with spaces and a `)`; utime=250 stime=50 cutime=1200 cstime=34.
        let stat = "4242 (dx bench) x) S 1 4242 4242 0 -1 4194304 100 200 0 0 \
                    250 50 1200 34 20 0 3 0 12345 1000000 256 18446744073709551615";
        let (own, children) = parse_stat_cpu(stat).unwrap();
        assert!((own - 3.0).abs() < 1e-9);
        assert!((children - 12.34).abs() < 1e-9);
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_document_yields_vm_hwm() {
        let status =
            "Name:\tdeepxplore\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51234));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(process_cpu_s().unwrap() >= 0.0);
        assert!(thread_cpu_s().unwrap() >= 0.0);
        assert!(children_cpu_s().unwrap() >= 0.0);
        assert!(vm_hwm_kib(std::process::id()).unwrap() > 0);
        assert_eq!(process_tree(std::process::id())[0], std::process::id());
    }
}
