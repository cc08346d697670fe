//! Host time of the calling thread.
//!
//! The serial workloads (sim-deep, tune-space) and every set-up run on
//! one thread, so their host time is that thread's CPU time: on an idle
//! host it equals wall time, and on a shared host it leaves out the time
//! the host ran other tenants instead, which is noise the code under test
//! did not cause.

use std::time::Instant;

/// CPU time the calling thread has run, in ns, from the first field of
/// `/proc/thread-self/schedstat`; `None` where that file is missing.
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A stopwatch over the calling thread's CPU time, falling back to wall
/// time where the kernel does not report it.
pub struct Stopwatch {
    cpu: Option<u64>,
    wall: Instant,
}

impl Stopwatch {
    /// Starts now.
    pub fn start() -> Self {
        Self { cpu: thread_cpu_ns(), wall: Instant::now() }
    }

    /// Host seconds since start (thread CPU time when available).
    pub fn secs(&self) -> f64 {
        match (self.cpu, thread_cpu_ns()) {
            (Some(a), Some(b)) => (b - a) as f64 / 1e9,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }

    /// Wall seconds since start.
    pub fn wall_secs(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}
