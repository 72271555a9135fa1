//! Readers for the host conditions and per-process resource use the
//! benchmark records beside its numbers (Linux procfs).

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU milliseconds from the text of a `/proc/<pid>/stat`
/// file. The command name (field 2) may contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

/// Peak resident set (`VmHWM`) in MiB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted inside user time.
    let steal = *vals.get(7)?;
    let total = vals.iter().take(8).sum();
    Some((steal, total))
}

fn proc_file(pid: Option<u32>, file: &str) -> io::Result<String> {
    match pid {
        None => std::fs::read_to_string(format!("/proc/self/{file}")),
        Some(p) => std::fs::read_to_string(format!("/proc/{p}/{file}")),
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

/// CPU milliseconds used so far by this process (`None`) or by `pid`,
/// over all of its threads.
pub fn cpu_ms(pid: Option<u32>) -> io::Result<f64> {
    parse_cpu_ms(&proc_file(pid, "stat")?).ok_or_else(|| malformed("stat"))
}

/// Peak resident set in MiB of this process (`None`) or of `pid`.
pub fn peak_rss_mb(pid: Option<u32>) -> io::Result<f64> {
    parse_vm_hwm_mb(&proc_file(pid, "status")?).ok_or_else(|| malformed("status"))
}

/// CPU milliseconds of this process plus the given worker processes.
pub fn cpu_ms_total(workers: &[u32]) -> io::Result<f64> {
    let mut total = cpu_ms(None)?;
    for &pid in workers {
        total += cpu_ms(Some(pid))?;
    }
    Ok(total)
}

/// Peak resident set in MiB of this process plus the given workers.
pub fn peak_rss_mb_total(workers: &[u32]) -> io::Result<f64> {
    let mut total = peak_rss_mb(None)?;
    for &pid in workers {
        total += peak_rss_mb(Some(pid))?;
    }
    Ok(total)
}

/// A reading of the host-wide steal counters, to difference over a run.
#[derive(Debug, Clone, Copy)]
pub struct StealClock {
    steal: u64,
    total: u64,
}

impl StealClock {
    /// Reads `/proc/stat` now.
    pub fn now() -> io::Result<StealClock> {
        let text = std::fs::read_to_string("/proc/stat")?;
        let (steal, total) = parse_steal(&text).ok_or_else(|| malformed("/proc/stat"))?;
        Ok(StealClock { steal, total })
    }

    /// Percentage of all CPU time since `self` that the hypervisor stole.
    pub fn pct_until(&self, later: &StealClock) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64 * 100.0
    }
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
