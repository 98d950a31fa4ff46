//! Process resource readings: CPU time and peak resident set size, for
//! this process (`getrusage`) and for a child daemon (`/proc/<pid>`).
//! Linux only, like the rest of the benchmark.

use std::mem::MaybeUninit;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

fn rusage_self() -> Rusage {
    let mut usage = MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` is a properly sized, zeroed `struct rusage` buffer.
    unsafe {
        getrusage(RUSAGE_SELF, usage.as_mut_ptr());
        usage.assume_init()
    }
}

/// User plus system CPU seconds this process has consumed so far.
pub fn self_cpu_s() -> f64 {
    let u = rusage_self();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// This process's peak resident set size in MiB.
pub fn self_peak_rss_mb() -> f64 {
    rusage_self().maxrss_kb as f64 / 1024.0
}

/// User plus system CPU seconds process `pid` has consumed so far.
pub fn proc_cpu_s(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed stat".to_string())
    };
    // SAFETY: sysconf has no memory-safety preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Ok((ticks(11)? + ticks(12)?) / hz)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn proc_peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_string())
}
