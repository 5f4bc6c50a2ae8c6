//! A small self-contained benchmark harness (criterion replacement).
//!
//! The workspace builds with zero registry dependencies so the tier-1
//! verify runs offline; this module supplies the subset of the
//! criterion API the bench targets need: named groups, per-benchmark
//! timing loops with warmup and automatic iteration scaling, and
//! element/byte throughput reporting.
//!
//! Timing model: each benchmark warms up for a short fixed budget,
//! estimates the per-iteration cost, then measures batches sized to
//! fill the measurement budget and reports the mean and best batch
//! average. Set `IPD_BENCH_FAST=1` to shrink both budgets (used by CI
//! smoke runs, where only "does it run" matters).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-iteration work amount, for derived throughput lines.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// `n` logical elements processed per iteration.
    Elements(u64),
    /// `n` bytes produced/consumed per iteration.
    Bytes(u64),
}

/// Measurement budgets (warmup, measure) per benchmark.
fn budgets() -> (Duration, Duration) {
    if std::env::var_os("IPD_BENCH_FAST").is_some() {
        (Duration::from_millis(5), Duration::from_millis(20))
    } else {
        (Duration::from_millis(60), Duration::from_millis(300))
    }
}

/// The timing loop handed to each benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    total: Duration,
    iters: u64,
    best: Option<Duration>,
}

impl Bencher {
    /// Runs `f` repeatedly — warmup, then timed batches — recording
    /// elapsed wall-clock per iteration.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let (warmup, measure) = budgets();

        // Warmup + cost estimate.
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < warmup || warm_iters < 3 {
            black_box(f());
            warm_iters += 1;
        }
        let est = start.elapsed() / u32::try_from(warm_iters).unwrap_or(u32::MAX);

        // Batch size targeting ~10 batches inside the budget.
        let per_batch = (measure.as_nanos() / 10).max(1);
        let batch = (per_batch / est.as_nanos().max(1)).clamp(1, 1 << 20) as u64;

        let deadline = Instant::now() + measure;
        while Instant::now() < deadline {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            let avg = dt / u32::try_from(batch).unwrap_or(u32::MAX);
            self.total += dt;
            self.iters += batch;
            self.best = Some(self.best.map_or(avg, |b| b.min(avg)));
        }
    }

    fn mean(&self) -> Duration {
        if self.iters == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(self.iters).unwrap_or(u32::MAX)
        }
    }
}

/// A named collection of benchmarks printed as one block.
#[derive(Debug)]
pub struct Group {
    name: String,
    throughput: Option<Throughput>,
}

impl Group {
    /// Sets the per-iteration work amount for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Runs one benchmark, prints its report line and returns its mean
    /// time per iteration.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> Duration {
        let mut b = Bencher::default();
        f(&mut b);
        let mean = b.mean();
        let best = b.best.unwrap_or(mean);
        let mut line = format!(
            "{:<52} {:>12}/iter (best {:>10}, {} iters)",
            format!("{}/{}", self.name, id.as_ref()),
            fmt_duration(mean),
            fmt_duration(best),
            b.iters,
        );
        if let Some(t) = self.throughput {
            let secs = mean.as_secs_f64().max(1e-12);
            match t {
                Throughput::Elements(n) => {
                    line.push_str(&format!("  {:>12.0} elem/s", n as f64 / secs));
                }
                Throughput::Bytes(n) => {
                    line.push_str(&format!("  {:>9.2} MB/s", n as f64 / secs / 1e6));
                }
            }
        }
        println!("{line}");
        mean
    }

    /// Ends the group (printing nothing extra; kept for call-site
    /// symmetry with criterion).
    pub fn finish(self) {}
}

/// Entry point: construct one per bench target.
#[derive(Debug, Default)]
pub struct Harness {}

impl Harness {
    /// Creates a harness.
    #[must_use]
    pub fn new() -> Self {
        Self {}
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group {
        let name = name.into();
        println!("\n-- {name} --");
        Group {
            name,
            throughput: None,
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        std::env::set_var("IPD_BENCH_FAST", "1");
        let mut b = Bencher::default();
        b.iter(|| 1 + 1);
        assert!(b.iters >= 3);
        assert!(b.total > Duration::ZERO);
    }

    #[test]
    fn group_reports_without_panicking() {
        std::env::set_var("IPD_BENCH_FAST", "1");
        let mut h = Harness::new();
        let mut g = h.benchmark_group("selftest");
        g.throughput(Throughput::Elements(10));
        g.bench_function("noop", |b| b.iter(|| black_box(42)));
        g.finish();
    }
}
