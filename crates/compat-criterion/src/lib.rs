//! Offline stand-in for the slice of `criterion` the ledger bench
//! harnesses use: `Criterion`, `benchmark_group`/`bench_function`,
//! `Bencher::iter`, and [`Criterion::take_results`].
//!
//! The measurement model is deliberately simple: a short calibration run
//! sizes the iteration count to a fixed measurement window, a warm-up
//! pass primes caches/branch predictors/lazy init, then the window is
//! split into several timed samples so each measurement carries a mean,
//! a min (the least-noisy point estimate on a busy machine) and a
//! standard deviation across samples. There are no HTML reports — the
//! workspace's benches compare alternatives within one process, where
//! these summary statistics are enough signal.
//!
//! Results are also recorded in-process so callers (e.g. the gemm bench)
//! can read back timings via [`Criterion::take_results`] and emit their
//! own JSON summaries.

use std::time::{Duration, Instant};

use std::hint::black_box;

/// One recorded measurement: benchmark id → per-iteration time statistics
/// over the sampled measurement window.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/function` identifier.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration, over all samples.
    pub mean_ns: f64,
    /// Fastest sample's nanoseconds per iteration (least scheduler noise).
    pub min_ns: f64,
    /// Standard deviation of the per-sample means, in nanoseconds.
    pub stddev_ns: f64,
    /// Total iterations measured across every sample.
    pub iters: u64,
}

/// The benchmark driver (a far smaller cousin of `criterion::Criterion`).
#[derive(Debug)]
pub struct Criterion {
    measurement_window: Duration,
    results: Vec<Measurement>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measurement_window: Duration::from_millis(300),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Shrinks or grows the per-benchmark measurement window.
    pub fn measurement_time(mut self, window: Duration) -> Self {
        self.measurement_window = window;
        self
    }

    /// Starts a named group; benchmark ids become `group/function`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let m = run_bench(&id, self.measurement_window, &mut f);
        self.results.push(m);
        self
    }

    /// Drains every measurement recorded so far (used by benches that
    /// emit their own JSON summary).
    pub fn take_results(&mut self) -> Vec<Measurement> {
        std::mem::take(&mut self.results)
    }
}

/// A named group of benchmarks sharing an id prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        let window = self.criterion.measurement_window;
        let m = run_bench(&id, window, &mut f);
        self.criterion.results.push(m);
        self
    }

    /// Ends the group (upstream finalises reports here; the shim has
    /// nothing to flush).
    pub fn finish(self) {}
}

/// Timed samples per benchmark; the measurement window is split evenly
/// across them so mean/min/stddev come from independent timings.
const SAMPLES: u32 = 5;

fn run_bench<F: FnMut(&mut Bencher)>(id: &str, window: Duration, f: &mut F) -> Measurement {
    let mut b = Bencher {
        mode: Mode::Calibrate,
        per_iter_ns: 0.0,
        iters_done: 0,
        window,
    };
    // Calibration pass: run once to find the per-iteration cost…
    f(&mut b);
    // …then a warm-up pass (caches, branch predictors, lazy init, pool
    // spin-up) whose timing is discarded…
    b.mode = Mode::Warmup;
    f(&mut b);
    // …then the timed samples, each sized to an equal share of the
    // measurement window (the calibration estimate is refreshed from the
    // latest sample, so later samples track the warmed-up cost).
    b.mode = Mode::Measure;
    let mut sample_means = Vec::with_capacity(SAMPLES as usize);
    let mut total_iters = 0u64;
    for _ in 0..SAMPLES {
        f(&mut b);
        sample_means.push(b.per_iter_ns);
        total_iters += b.iters_done;
    }
    let mean_ns = sample_means.iter().sum::<f64>() / sample_means.len() as f64;
    let min_ns = sample_means.iter().copied().fold(f64::INFINITY, f64::min);
    let var = sample_means
        .iter()
        .map(|s| (s - mean_ns).powi(2))
        .sum::<f64>()
        / sample_means.len() as f64;
    let m = Measurement {
        id: id.to_string(),
        mean_ns,
        min_ns,
        stddev_ns: var.sqrt(),
        iters: total_iters,
    };
    println!(
        "bench {id:<48} {:>14.1} ns/iter (min {:.1}, sd {:.1}, {} iters)",
        m.mean_ns, m.min_ns, m.stddev_ns, m.iters
    );
    m
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Calibrate,
    Warmup,
    Measure,
}

/// Passed to every benchmark closure; `iter` times the routine.
#[derive(Debug)]
pub struct Bencher {
    mode: Mode,
    per_iter_ns: f64,
    iters_done: u64,
    window: Duration,
}

impl Bencher {
    fn target_iters(&self) -> u64 {
        if self.mode == Mode::Calibrate {
            return 1;
        }
        // Warm-up runs one sample's worth of iterations, discarded.
        let per_iter = self.per_iter_ns.max(1.0);
        let sample_ns = self.window.as_nanos() as f64 / f64::from(SAMPLES);
        ((sample_ns / per_iter).ceil() as u64).clamp(1, 1_000_000)
    }

    /// Times `routine` over an adaptively-chosen number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let iters = self.target_iters();
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        let total = start.elapsed().as_nanos() as f64;
        self.per_iter_ns = total / iters as f64;
        self.iters_done = iters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_add(black_box(i));
        }
        acc
    }

    #[test]
    fn iter_reports_positive_time() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        c.bench_function("spin", |b| b.iter(|| spin(1000)));
        let results = c.take_results();
        assert_eq!(results.len(), 1);
        assert!(results[0].mean_ns > 0.0);
        assert!(results[0].iters >= 1);
    }

    #[test]
    fn groups_prefix_ids() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(2));
        let mut g = c.benchmark_group("g");
        g.bench_function("f", |b| b.iter(|| spin(10)));
        g.finish();
        assert_eq!(c.take_results()[0].id, "g/f");
    }
}
