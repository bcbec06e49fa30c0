//! Host facts the benchmark reports beside its numbers: a compute probe that
//! shares no code with the repository (so a host swing is told apart from a
//! regression), the process's peak resident set, and the core count.

use std::hint::black_box;
use std::time::Instant;

/// A probe reading this far below the run's median reading marks the
/// workload's numbers as taken on an unstable host.
pub const PROBE_TOLERANCE: f64 = 0.15;

/// GFLOP/s of eight independent scalar multiply-add chains run for `iters`
/// rounds. The chains are latency-bound, so the number tracks core clock
/// and contention, not memory.
pub fn probe_gflops(iters: u64) -> f64 {
    let a = black_box(0.999_999_9_f64);
    let b = black_box(1e-7_f64);
    let mut x = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7_f64];
    let t = Instant::now();
    for _ in 0..iters {
        for v in &mut x {
            *v = *v * a + b;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(x);
    (iters * 8 * 2) as f64 / secs / 1e9
}

/// True when the slowest probe reading is more than [`PROBE_TOLERANCE`]
/// below the median one. Fast readings do not count: with its neighbour idle
/// a core boosts its clock by a fifth for a few hundred milliseconds, which
/// disturbs nothing.
pub fn unstable(probes: &[f64]) -> bool {
    let slowest = probes.iter().copied().fold(f64::MAX, f64::min);
    slowest < crate::stats::median(probes) * (1.0 - PROBE_TOLERANCE)
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_flag_trips_past_fifteen_percent() {
        assert!(!unstable(&[10.0, 9.0, 9.5]));
        assert!(unstable(&[10.0, 9.9, 8.0]));
        assert!(unstable(&[8.3, 6.9, 8.3]));
        // A boosted reading above the rest is not a disturbance.
        assert!(!unstable(&[10.1, 8.3, 8.2]));
        assert!(!unstable(&[7.0]));
    }

    #[test]
    fn rss_and_cores_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
