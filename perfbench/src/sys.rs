//! Probes of this process and its host: on-CPU time, peak resident memory,
//! stolen CPU.
//!
//! Times are on-CPU nanoseconds of the process's own threads. On a small
//! shared host, hypervisor steal and cross-thread wake-ups swing wall-clock
//! rates of identical code by up to a third between runs; rates per CPU
//! second move less (one run's serve passes: 0.72–1.35 M queries per wall
//! second, 1.13–1.49 M per CPU second). Wall time is kept beside it for
//! reference.
//!
//! The CPU clock is `CLOCK_PROCESS_CPUTIME_ID`, the sum over every thread
//! of the process, joined ones included. The per-thread
//! `/proc/self/task/*/schedstat` counters hold the same sum, but only as of
//! the running thread's last scheduler tick: a 0.6 ms busy loop read there
//! as 3.4 ms, and a 1 ms stage as 0.

use std::fs;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux's /proc and calls libc with a 64-bit timespec");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin this thread, and every thread it starts later, to the CPU it runs
/// on now. Returns that CPU, or `None` (and stays unpinned) where the
/// kernel refuses.
pub fn pin_here() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only returns a number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 CPUs, one bit each.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live CPU set of the size passed for the whole
    // call, which only reads it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU nanoseconds of every thread this process has run.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, the only targets this benchmark runs on) for the
    // whole call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib as f64 / 1024.0
}

/// Host-wide stolen CPU in clock ticks (the `steal` column of the `cpu`
/// line of `/proc/stat`), or 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            let line = t.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Seconds per `/proc/stat` tick (`USER_HZ`, 100 on every Linux ABI).
pub const TICK_S: f64 = 0.01;

/// Wall and on-CPU seconds of one measured interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// On-CPU seconds of the process's threads.
    pub cpu_s: f64,
}

/// A running measurement.
pub struct Meter {
    wall: Instant,
    cpu_ns: u64,
}

impl Meter {
    /// Start measuring now.
    pub fn start() -> Meter {
        Meter {
            wall: Instant::now(),
            cpu_ns: cpu_ns(),
        }
    }

    /// Wall and CPU seconds since [`Meter::start`].
    pub fn stop(&self) -> Span {
        let cpu = cpu_ns().saturating_sub(self.cpu_ns);
        Span {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu as f64 * 1e-9,
        }
    }

    /// Wall seconds since [`Meter::start`], for stage deadlines.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}
