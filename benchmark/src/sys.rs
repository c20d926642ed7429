//! The few operating-system readings the benchmark needs, taken through
//! the C library `std` already links: CPU pinning, thread and process CPU
//! clocks, and the memory lines of `/proc/self/status`.
//! Linux only; everything degrades to a neutral value elsewhere so the
//! package still builds.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const MASK_WORDS: usize = 16;

/// Pin the whole process to the lowest CPU of its current affinity mask.
/// Must run before any thread is started: threads inherit the mask at
/// creation. Returns the CPU chosen, or `None` when pinning failed (the
/// run goes on unpinned and says so on its details line).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let got = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let set = unsafe { sched_setaffinity(0, MASK_WORDS * 8, one.as_ptr()) };
    (set == 0).then_some(cpu)
}

fn clock_ns(id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread, user + system, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process, all threads, user + system.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// Resident set of this process now (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    fgl_obs::current_rss_bytes() as f64 / (1 << 20) as f64
}

/// Nanoseconds since the first call in this process: the one clock every
/// span and latency sample is read from.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
