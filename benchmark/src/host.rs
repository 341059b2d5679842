//! Facts about the host that every result records, and the process's own
//! peak memory. Both come from libc calls rather than from files, so the
//! benchmark reads nothing outside its checkout.

use std::os::raw::{c_int, c_long};

/// Logical CPUs this process may run on (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `struct rusage` as glibc lays it out on 64-bit Linux: two `timeval`s,
/// then fourteen `long` counters, the first of which is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss_kb: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const RUSAGE_SELF: c_int = 0;
// <bits/confname.h> in glibc.
const SC_LEVEL2_CACHE_SIZE: c_int = 191;
const SC_LEVEL3_CACHE_SIZE: c_int = 194;

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the C
    // `struct rusage` on this platform, and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0 && usage.maxrss_kb > 0).then(|| usage.maxrss_kb as f64 / 1024.0)
}

fn cache_bytes(name: c_int) -> Option<u64> {
    // SAFETY: sysconf takes a plain integer and touches no caller memory.
    let v = unsafe { sysconf(name) };
    u64::try_from(v).ok().filter(|&b| b > 0)
}

/// L2 cache size per core in bytes, when the C library reports it.
pub fn l2_bytes() -> Option<u64> {
    cache_bytes(SC_LEVEL2_CACHE_SIZE)
}

/// Last-level (L3) cache size in bytes, when the C library reports it.
pub fn llc_bytes() -> Option<u64> {
    cache_bytes(SC_LEVEL3_CACHE_SIZE)
}
