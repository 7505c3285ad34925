//! The benchmark's only wall-clock source.
//!
//! Every host-time read in this package goes through [`now`], so the
//! repository's determinism lint sees exactly one audited read.

use std::time::{Duration, Instant};

/// A point on the host's monotonic clock.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(Instant);

/// Reads the host clock.
pub fn now() -> Stamp {
    Stamp(Instant::now()) // lint:allow(wallclock-ban) the benchmark's one timing helper
}

impl Stamp {
    /// Nanoseconds from `earlier` to `self` (0 if `earlier` is later).
    pub fn ns_since(self, earlier: Stamp) -> u64 {
        u64::try_from(self.0.saturating_duration_since(earlier.0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds elapsed since `self`.
    pub fn elapsed_ns(self) -> u64 {
        now().ns_since(self)
    }

    /// Seconds elapsed since `self`.
    pub fn elapsed_s(self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }

    /// The stamp `ns` nanoseconds after `self`.
    pub fn after_ns(self, ns: u64) -> Stamp {
        Stamp(self.0 + Duration::from_nanos(ns))
    }
}

/// Runs `f` and returns its result with the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now();
    let out = f();
    (out, start.elapsed_ns())
}

/// Sleeps until `t`; returns at once if `t` has passed.
pub fn sleep_until(t: Stamp) {
    let ns = t.ns_since(now());
    if ns > 0 {
        std::thread::sleep(Duration::from_nanos(ns)); // lint:allow(wallclock-ban) open-loop pacing
    }
}
