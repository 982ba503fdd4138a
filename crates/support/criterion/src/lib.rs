//! Offline stand-in for `criterion`.
//!
//! Provides the subset of the criterion API the workspace's benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], [`BenchmarkId`], and the `criterion_group!` /
//! `criterion_main!` macros — backed by a simple calibrated wall-clock
//! loop instead of criterion's statistical machinery. Each benchmark
//! prints `name ... median ns/iter (iters/s)` on stdout.
//!
//! Tuning knobs (environment):
//! * `BENCH_TARGET_MS` — sampling time budget per benchmark (default 300).

#![deny(missing_docs)]
#![allow(clippy::disallowed_methods, reason = "a timing harness reads clocks")]
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub use std::hint::black_box;

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    target: Duration,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("BENCH_TARGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);
        Self {
            target: Duration::from_millis(ms),
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Runs `f` as a named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(id, self.target, self.default_sample_size, f);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
        }
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Overrides the sampling time budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.target = d;
        self
    }

    /// Runs `f` as `group_name/id`.
    pub fn bench_function<I: Display, F>(&mut self, id: I, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let samples = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        run_benchmark(&full, self.criterion.target, samples, f);
        self
    }

    /// Ends the group (kept for API compatibility; no-op).
    pub fn finish(self) {}
}

/// Identifies a parameterized benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// An id rendered as `function_name/parameter`.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        Self {
            text: format!("{function_name}/{parameter}"),
        }
    }

    /// An id rendered as just the parameter.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self {
            text: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.text)
    }
}

/// Hands the routine under test to the timing loop.
#[derive(Debug)]
pub struct Bencher {
    target: Duration,
    samples: usize,
    /// Median nanoseconds per iteration, filled by [`Bencher::iter`].
    result_ns: Option<f64>,
}

impl Bencher {
    /// Times `f`, storing the median of several samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: how many iterations fit in one sample slice?
        let calib_start = Instant::now();
        black_box(f());
        let one = calib_start.elapsed().max(Duration::from_nanos(1));
        let slice = self.target / self.samples.max(1) as u32;
        let iters_per_sample = (slice.as_nanos() / one.as_nanos()).clamp(1, 1_000_000) as usize;

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        self.result_ns = Some(per_iter[per_iter.len() / 2]);
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, target: Duration, samples: usize, mut f: F) {
    let mut b = Bencher {
        target,
        samples,
        result_ns: None,
    };
    f(&mut b);
    match b.result_ns {
        Some(ns) => {
            let throughput = 1e9 / ns;
            println!("{id:<48} {ns:>14.1} ns/iter  ({throughput:>12.1} iter/s)");
        }
        None => println!("{id:<48} (no measurement: Bencher::iter was not called)"),
    }
}

/// Declares a group of benchmark functions, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark entry point, as in criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_prints() {
        std::env::set_var("BENCH_TARGET_MS", "5");
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        let mut group = c.benchmark_group("grp");
        group.sample_size(5);
        group.bench_function(BenchmarkId::from_parameter("p"), |b| {
            b.iter(|| black_box(2 * 2))
        });
        group.finish();
    }

    #[test]
    fn benchmark_id_renders() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
