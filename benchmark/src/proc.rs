//! What the kernel reports about this process and machine.

use std::fs;
use std::time::Instant;

fn status_kb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
}

impl Usage {
    /// CPU time and page faults of this process so far. Fields 10, 14
    /// and 15 of `/proc/self/stat`, counted after the `(comm)` field;
    /// times are in clock ticks, 100 per second on Linux.
    pub fn now() -> Usage {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<f64> = after_comm
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0.0))
            .collect();
        let field = |n: usize| fields.get(n - 3).copied().unwrap_or(0.0);
        Usage {
            user_s: field(14) / 100.0,
            sys_s: field(15) / 100.0,
            minor_faults: field(10),
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }

    /// Share of CPU time spent in the kernel.
    pub fn sys_share(self) -> f64 {
        let total = self.user_s + self.sys_s;
        if total > 0.0 {
            self.sys_s / total
        } else {
            0.0
        }
    }
}

/// CPU time this process has used so far, all its threads together, in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`). Time the process spent
/// waiting — for the disk, or for the hypervisor to give its CPU back —
/// is not in it.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live `struct timespec` (two 64-bit fields on
    // 64-bit Linux) that the call only writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// What a stretch of the run cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spent {
    /// CPU seconds of the whole process: what the run's timings are
    /// taken in (README, *What a timing is*).
    pub cpu_s: f64,
    /// Seconds on the wall clock, kept beside it.
    pub wall_s: f64,
}

/// Started before a timed stretch, stopped after it.
pub struct Stopwatch {
    wall: Instant,
    cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    pub fn stop(&self) -> Spent {
        Spent {
            cpu_s: (process_cpu_ns() - self.cpu_ns) as f64 / 1e9,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Clock ticks (1/100 s), over all CPUs, in which this machine had work
/// to run and the hypervisor ran something else: the eighth counter of
/// the first line of `/proc/stat`. Zero where the kernel keeps none.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|ticks| ticks.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `f` and returns its result with the share of the run's one
/// CPU's time (`pin_to_one_cpu`) that was stolen meanwhile. The ticks
/// are the machine's: its other CPUs idle through a run and lose none.
pub fn stolen_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (before, started) = (steal_ticks(), Instant::now());
    let out = f();
    let ticks = (steal_ticks() - before) as f64;
    let capacity = started.elapsed().as_secs_f64() * 100.0;
    (out, ticks / capacity.max(1.0))
}

/// The machine's CPUs and the one the run has.
#[derive(Debug, Clone, Copy)]
pub struct Cpus {
    pub online: usize,
    pub pinned: Option<usize>,
}

/// Confines this thread, and every thread it starts from now on, to
/// one CPU: the highest-numbered one, away from CPU 0's interrupts.
/// The sandbox's two virtual CPUs are sometimes two cores and sometimes
/// two threads of one, minutes at a time, and anything that keeps two
/// threads busy or passes work between them runs up to 2.3 times slower
/// or faster with the host's choice (README, *Known noise*); on one CPU
/// it does not. `pinned` is `None` where the kernel refuses.
pub fn pin_to_one_cpu() -> Cpus {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let online = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = online - 1;
    // The kernel's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return Cpus {
            online,
            pinned: None,
        };
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of `size_of_val(&mask)`
    // bytes that the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    let pinned = (rc == 0).then_some(cpu);
    Cpus { online, pinned }
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit when run inside a git work tree.
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".to_string()
    } else {
        id.to_string()
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests run beside this one in the same process, so only the
    /// lower bounds can be asserted.
    #[test]
    fn a_stopwatch_counts_cpu_time_beside_wall_time() {
        let watch = Stopwatch::start();
        let mut x = 1u64;
        while watch.wall.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = watch.stop();
        assert!(busy.wall_s >= 0.03);
        assert!(busy.cpu_s > 0.005, "spun for {} CPU-s", busy.cpu_s);
        assert!(process_cpu_ns() >= watch.cpu_ns);
    }
}
