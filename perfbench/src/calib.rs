//! Host-speed calibration of the reported host times.
//!
//! The benchmark runs on hosts shared with other tenants.  Their load can
//! slow the same code by up to 2x for minutes at a time, with no steal time
//! or other sign inside the guest; medians over a run do not hide a slow
//! stretch that lasts the whole run.  So every host time the benchmark
//! reports (set-up, segments of the timed phase, ops) is measured against a
//! fixed *calibration kernel* run on the same thread just before it: B-tree
//! inserts with small allocations, then float formatting and parsing, the
//! kind of branchy, allocating code the simulator runs.  A time `t` measured
//! after a kernel run of `k` ns is reported as `t * REFERENCE_NS / k`:
//! host time on a host where the kernel takes [`REFERENCE_NS`].  The kernel
//! calls no code of the repository, so a change to the program cannot move
//! it.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::metrics::median;
use crate::probe::now_ns;

/// The kernel's time on the reference host, ns.  Between pieces of work on
/// the 2-CPU Xeon container the README's baselines come from, the kernel
/// took about 240 us while no other tenant contended and up to 480 us while
/// one did, so reference times read close to that container's uncontended
/// host seconds.
pub const REFERENCE_NS: f64 = 250_000.0;

/// Run the calibration kernel once; its host time in ns (at least 1).
pub fn kernel_ns() -> u64 {
    let start = now_ns();
    let mut map = BTreeMap::new();
    for i in 0..1000u64 {
        map.insert(
            i.wrapping_mul(0x9e37_79b9) % 100_003,
            vec![i; (i % 17) as usize],
        );
    }
    black_box(&map);
    let mut text = String::new();
    let mut x = 0.5f64;
    for i in 0..400u64 {
        x = x * 1.000_1 + (i as f64).sqrt();
        text.push_str(&format!("{{\"k{i}\": {x:.6}}},"));
    }
    let sum: f64 = text
        .split(',')
        .filter_map(|part| part.split(": ").nth(1))
        .filter_map(|v| v.trim_end_matches('}').parse::<f64>().ok())
        .sum();
    black_box(sum);
    (now_ns() - start).max(1)
}

/// `ns` of host time measured after a kernel run of `kernel_ns`, in
/// reference ns.
pub fn scale(ns: u64, kernel_ns: u64) -> f64 {
    ns as f64 * REFERENCE_NS / kernel_ns as f64
}

/// Median of a pass's kernel times, ns.
pub fn median_ns(kernels: &[u64]) -> f64 {
    median(&kernels.iter().map(|&k| k as f64).collect::<Vec<_>>())
}

/// The timed phase of a pass as the sum of its pieces.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wall {
    /// Calibrated total, reference ns.
    pub reference_ns: f64,
    /// Uncalibrated total, host ns (the clock of the traced spans).
    pub host_ns: u64,
}

impl Wall {
    /// End the piece `timer` timed and add it; its reference ns.
    pub fn add(&mut self, timer: &Timer) -> f64 {
        let host_ns = now_ns() - timer.start;
        let reference_ns = timer.scale(host_ns);
        self.host_ns += host_ns;
        self.reference_ns += reference_ns;
        reference_ns
    }
}

/// A stopwatch calibrated when it starts.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    /// The calibration kernel's time just before the start.
    pub kernel_ns: u64,
    start: u64,
}

impl Timer {
    /// Run the kernel, then start timing.
    pub fn start() -> Self {
        let kernel_ns = kernel_ns();
        Timer {
            kernel_ns,
            start: now_ns(),
        }
    }

    /// Reference ns since the start.
    pub fn elapsed(&self) -> f64 {
        self.scale(now_ns() - self.start)
    }

    /// `ns` of host time measured after this timer's kernel run, in
    /// reference ns.
    pub fn scale(&self, ns: u64) -> f64 {
        scale(ns, self.kernel_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_reference_kernel_time() {
        assert_eq!(scale(1_000, 250_000), 1_000.0);
        assert_eq!(scale(1_000, 500_000), 500.0);
        assert!(kernel_ns() > 0);
    }
}
