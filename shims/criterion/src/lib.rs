//! In-tree stand-in for the Criterion benchmark harness.
//!
//! The build environment is fully offline, so the workspace cannot pull
//! the real `criterion` from crates.io. This shim implements the API
//! subset the workspace's benches use — `criterion_group!` /
//! `criterion_main!`, `Criterion::bench_function`, benchmark groups with
//! element throughput, and `Bencher::iter` — with a calibrated sampling
//! loop: it warms the benchmark up, sizes iterations-per-sample so one
//! sample costs roughly 50 ms, then reports `[min mean max]` over the
//! samples plus throughput when configured. Positional CLI arguments act
//! as substring filters, so `cargo bench -- femux_train` works as with
//! the real harness.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a benchmark harness times with the wall clock"
)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Top-level harness state: CLI filters plus measurement settings.
pub struct Criterion {
    filters: Vec<String>,
    warmup: Duration,
    sample_count: usize,
    target_sample: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            filters: Vec::new(),
            warmup: Duration::from_millis(300),
            sample_count: 15,
            target_sample: Duration::from_millis(50),
        }
    }
}

impl Criterion {
    /// Reads positional CLI arguments as benchmark-name substring
    /// filters (flags are ignored, as are cargo's `--bench` markers).
    pub fn configure_from_args(mut self) -> Self {
        self.filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        self
    }

    /// Prints the closing line (kept for API compatibility).
    pub fn final_summary(&self) {}

    fn matches(&self, id: &str) -> bool {
        self.filters.is_empty()
            || self.filters.iter().any(|f| id.contains(f.as_str()))
    }

    /// Runs one benchmark under the sampling loop.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(id, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }

    fn run_one<F>(&self, id: &str, throughput: Option<Throughput>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if !self.matches(id) {
            return;
        }
        // Warm up and calibrate: how many iterations fit in one sample?
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let warmup_start = Instant::now();
        let (mut warm_elapsed, mut warm_iters) = (Duration::ZERO, 0u64);
        while warmup_start.elapsed() < self.warmup {
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            warm_elapsed += bencher.elapsed;
            warm_iters += bencher.iters;
        }
        let iters_per_sample =
            iters_per_sample(self.target_sample, warm_elapsed, warm_iters);

        let mut samples = Vec::with_capacity(self.sample_count);
        for _ in 0..self.sample_count {
            bencher.iters = iters_per_sample;
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            samples.push(
                bencher.elapsed.as_secs_f64() / iters_per_sample as f64,
            );
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let min = samples[0];
        let max = *samples.last().expect("non-empty samples");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let mut line = format!(
            "{id:<40} time: [{} {} {}]",
            fmt_time(min),
            fmt_time(mean),
            fmt_time(max)
        );
        if let Some(t) = throughput {
            let (count, unit) = match t {
                Throughput::Elements(n) => (n as f64, "elem/s"),
                Throughput::Bytes(n) => (n as f64, "B/s"),
            };
            line.push_str(&format!(
                "  thrpt: {:.3e} {unit}",
                count / mean
            ));
        }
        println!("{line}");
    }
}

/// Iterations per sample so that one sample lasts about `target`, from
/// the warm-up's `iters` iterations taking `elapsed` in total: the mean
/// cost of an iteration, not the cost of whichever call came last.
fn iters_per_sample(target: Duration, elapsed: Duration, iters: u64) -> u64 {
    let per_iter = (elapsed.as_nanos() / u128::from(iters.max(1))).max(1);
    (target.as_nanos() / per_iter).clamp(1, 1_000_000) as u64
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.4} s")
    } else if secs >= 1e-3 {
        format!("{:.4} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.4} µs", secs * 1e6)
    } else {
        format!("{:.4} ns", secs * 1e9)
    }
}

/// A group of related benchmarks sharing a name prefix and an optional
/// throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: AsRef<str>,
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.as_ref());
        self.criterion.run_one(&full, self.throughput, f);
        self
    }

    /// Closes the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; accumulates timed iterations.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this sample's iteration count.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declares a group of benchmark functions, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion =
                $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::Criterion::default().final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion {
            warmup: Duration::from_millis(5),
            sample_count: 3,
            target_sample: Duration::from_millis(2),
            ..Criterion::default()
        };
        let mut runs = 0u64;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    #[test]
    fn samples_are_sized_from_the_mean_warmup_iteration() {
        // Alternating cheap and costly calls average 50 µs, so a 50 ms
        // sample takes 1,000 iterations whichever call came last.
        let target = Duration::from_millis(50);
        let cheap = Duration::from_micros(1);
        let costly = Duration::from_micros(99);
        for last in [cheap, costly] {
            let first = if last == cheap { costly } else { cheap };
            let calls = [first, last].repeat(10);
            let elapsed = calls.iter().sum::<Duration>();
            assert_eq!(iters_per_sample(target, elapsed, 20), 1_000);
        }
        // No warm-up iteration, or an immeasurably fast one, still gives
        // a bounded, positive size.
        assert_eq!(iters_per_sample(target, Duration::ZERO, 0), 1_000_000);
        assert_eq!(iters_per_sample(target, Duration::from_secs(1), 1), 1);
    }

    #[test]
    fn filters_skip_non_matching() {
        let mut c = Criterion {
            filters: vec!["only-this".into()],
            warmup: Duration::from_millis(1),
            sample_count: 1,
            target_sample: Duration::from_millis(1),
        };
        let mut ran = false;
        c.bench_function("other", |b| b.iter(|| ran = true));
        assert!(!ran);
        c.bench_function("only-this-one", |b| b.iter(|| ran = true));
        assert!(ran);
    }

    #[test]
    fn groups_prefix_names_and_take_throughput() {
        let mut c = Criterion {
            warmup: Duration::from_millis(1),
            sample_count: 2,
            target_sample: Duration::from_millis(1),
            ..Criterion::default()
        };
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(10));
        let mut runs = 0u64;
        group.bench_function("inner", |b| b.iter(|| runs += 1));
        group.finish();
        assert!(runs > 0);
    }
}
