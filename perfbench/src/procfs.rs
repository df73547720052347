//! Process accounting read from `/proc/self`: CPU time, minor faults and
//! peak resident set size; and the CPU the process is pinned to.

use std::time::Duration;

/// Kernel clock ticks per second used by `/proc/<pid>/stat` (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// One reading of the process's cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User plus system CPU time of every thread, live or exited.
    pub cpu: Duration,
    /// Minor page faults.
    pub minflt: u64,
}

impl ProcSample {
    /// Reads `/proc/self/stat`.
    pub fn now() -> Result<ProcSample, String> {
        let stat = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
        parse_stat(&stat)
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu: self.cpu.saturating_sub(earlier.cpu),
            minflt: self.minflt.saturating_sub(earlier.minflt),
        }
    }
}

/// Parses the fields this crate needs out of a `/proc/<pid>/stat` line.
pub fn parse_stat(stat: &str) -> Result<ProcSample, String> {
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat field {n} missing"))
    };
    let ticks = field(14)? + field(15)?;
    Ok(ProcSample {
        cpu: Duration::from_secs_f64(ticks as f64 / USER_HZ),
        minflt: field(10)?,
    })
}

/// Host CPU time of the whole machine, in clock ticks, from the first line
/// of `/proc/stat`: all of it, and the part the hypervisor gave to other
/// guests while this machine's CPUs wanted to run (steal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostSample {
    /// Ticks of every kind.
    pub total: u64,
    /// Steal ticks.
    pub steal: u64,
}

impl HostSample {
    /// Reads `/proc/stat`.
    pub fn now() -> Result<HostSample, String> {
        let stat = std::fs::read_to_string("/proc/stat")
            .map_err(|e| format!("reading /proc/stat: {e}"))?;
        parse_host(&stat)
    }

    /// Share of the machine's CPU time stolen between `earlier` and `self`.
    pub fn steal_since(&self, earlier: &HostSample) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        let steal = self.steal.saturating_sub(earlier.steal);
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host(stat: &str) -> Result<HostSample, String> {
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().map_err(|_| format!("bad /proc/stat field {t}")))
        .collect::<Result<_, _>>()?;
    Ok(HostSample {
        total: ticks.iter().sum(),
        steal: ticks.get(7).copied().unwrap_or(0),
    })
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the first CPU it may run on; returns that CPU. Call it before the first
/// thread starts and it pins the whole process, which then sizes its
/// default pools for one CPU.
///
/// On a virtual machine whose host is shared, a wake-up sent to an idle
/// virtual CPU waits until the host runs that CPU again. The layers of a
/// call hand off between threads, so on two virtual CPUs of a busy host the
/// 1 MiB echo's median call took 2.6–3.8 ms (90th percentile 9–11 ms) with
/// the steal counter near zero; pinned to one CPU in between those runs, it
/// took 1.5 ms. On one CPU the hand-offs are context switches on a running
/// CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or("sched_getaffinity: empty CPU set")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_found_after_a_command_with_spaces() {
        let line = "42 (a b) c) S 1 2 3 4 5 6 777 8 9 10 250 50 0 0 20 0 1";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minflt, 777);
        assert_eq!(s.cpu, Duration::from_secs(3));
    }

    #[test]
    fn steal_is_the_eighth_tick_column() {
        let a = parse_host("cpu  100 0 20 300 5 0 4 7 0 0\ncpu0 1 2\n").unwrap();
        let b = parse_host("cpu  150 0 30 330 5 0 4 17 0 0\n").unwrap();
        assert_eq!(
            a,
            HostSample {
                total: 436,
                steal: 7
            }
        );
        assert_eq!(b.steal_since(&a), 0.1);
        assert!(parse_host("intr 1 2\n").is_err());
    }

    #[test]
    fn live_process_reads() {
        assert!(ProcSample::now().is_ok());
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(HostSample::now().unwrap().total > 0);
    }
}
