//! Dependency-free wall-clock measurement for the `benches/`
//! microbenchmarks (`cargo bench -p secsim-bench`).
//!
//! # Examples
//!
//! ```
//! use secsim_bench::timing::measure;
//!
//! let mut x = 0u64;
//! let m = measure("noop", 0.01, || x = x.wrapping_add(1));
//! assert!(m.iters > 0 && m.total_secs > 0.0);
//! assert!(m.per_iter_secs() > 0.0);
//! ```

use std::time::Instant;

/// One timed measurement: `iters` executions of the workload took
/// `total_secs` of wall clock.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// What was measured.
    pub label: String,
    /// Number of executions timed.
    pub iters: u64,
    /// Total wall-clock seconds across all executions.
    pub total_secs: f64,
}

impl Measurement {
    /// Mean seconds per execution.
    pub fn per_iter_secs(&self) -> f64 {
        self.total_secs / self.iters as f64
    }

    /// Throughput in `units`/second given `units` of work per execution
    /// (e.g. simulated instructions, bytes).
    pub fn rate(&self, units_per_iter: f64) -> f64 {
        units_per_iter * self.iters as f64 / self.total_secs
    }
}

/// Times `f` repeatedly for at least `min_secs` of wall clock (after one
/// untimed warmup call) and returns the measurement.
pub fn measure(label: &str, min_secs: f64, mut f: impl FnMut()) -> Measurement {
    f(); // warmup: cold caches and lazy init don't pollute the numbers
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return Measurement { label: label.to_string(), iters, total_secs: elapsed };
        }
    }
}

/// Formats a rate with an SI-ish suffix (`12.3M/s`).
pub fn fmt_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G/s", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M/s", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2}k/s", rate / 1e3)
    } else {
        format!("{rate:.2}/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_iters() {
        let mut n = 0u32;
        let m = measure("spin", 0.001, || n += 1);
        assert_eq!(u64::from(n), m.iters + 1); // +1 warmup
        assert!(m.total_secs >= 0.001);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(1.5e9), "1.50G/s");
        assert_eq!(fmt_rate(2.5e6), "2.50M/s");
        assert_eq!(fmt_rate(3.5e3), "3.50k/s");
        assert_eq!(fmt_rate(12.0), "12.00/s");
    }
}
