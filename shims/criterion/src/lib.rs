//! Vendored minimal stand-in for `criterion`.
//!
//! Provides the API the workspace's benches use — [`Criterion`],
//! [`criterion_group!`], [`criterion_main!`], [`BenchmarkId`],
//! [`black_box`], benchmark groups, and `Bencher::iter` — backed by a
//! simple calibrated timing loop instead of criterion's full statistical
//! machinery.
//!
//! Each benchmark is calibrated to a per-sample iteration count, timed over
//! `sample_size` samples, and reported as the median ns/iteration on
//! stdout. When the `VERITAS_BENCH_JSON` environment variable names a file,
//! one JSON line per benchmark is appended to it (`{"id": ..., "median_ns":
//! ..., "samples": [...]}`), which is what `bench_compare` checks against
//! the committed perf gates.

#![deny(missing_docs)]

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benchmark
/// bodies. Re-exported from `std::hint`.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// Creates an id like `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// Creates an id from a function name alone.
    pub fn from_function(function: impl Into<String>) -> Self {
        Self {
            function: function.into(),
            parameter: None,
        }
    }

    fn render(&self) -> String {
        match &self.parameter {
            Some(p) => format!("{}/{}", self.function, p),
            None => self.function.clone(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        Self::from_function(name)
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        Self::from_function(name)
    }
}

/// Drives timed iterations of one benchmark body.
pub struct Bencher {
    samples_target: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `f`, first calibrating an iteration count so each sample takes
    /// a measurable slice of wall-clock time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: find an iteration count that takes ~5 ms.
        let mut iters: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || iters >= 1 << 24 {
                break elapsed.as_nanos() as f64 / iters as f64;
            }
            iters *= 4;
        };
        let sample_iters = ((5e6 / per_iter_ns.max(0.1)) as u64).clamp(1, 1 << 24);
        for _ in 0..self.samples_target {
            let start = Instant::now();
            for _ in 0..sample_iters {
                black_box(f());
            }
            self.samples_ns
                .push(start.elapsed().as_nanos() as f64 / sample_iters as f64);
        }
    }
}

/// The benchmark harness entry point.
pub struct Criterion {
    sample_size: usize,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            filter: None,
        }
    }
}

impl Criterion {
    /// Sets how many timing samples each benchmark records.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Applies command-line arguments. Cargo invokes bench binaries with
    /// `--bench`; a bare (non-flag) argument is treated as a substring
    /// filter on benchmark ids, mirroring criterion's CLI.
    pub fn configure_from_args(mut self) -> Self {
        for arg in std::env::args().skip(1) {
            if !arg.starts_with('-') {
                self.filter = Some(arg);
            }
        }
        self
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run(BenchmarkId::from_function(id), f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: BenchmarkId, mut f: F) {
        let rendered = id.render();
        if let Some(filter) = &self.filter {
            if !rendered.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            samples_target: self.sample_size,
            samples_ns: Vec::with_capacity(self.sample_size),
        };
        f(&mut bencher);
        let mut samples = bencher.samples_ns;
        if samples.is_empty() {
            println!("bench {rendered:<50} (no samples)");
            return;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        let median = samples[samples.len() / 2];
        println!("bench {rendered:<50} median {:>12}/iter", format_ns(median));
        if let Ok(path) = std::env::var("VERITAS_BENCH_JSON") {
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let sample_list = samples
                    .iter()
                    .map(|s| format!("{s:.1}"))
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = writeln!(
                    file,
                    "{{\"id\":\"{rendered}\",\"median_ns\":{median:.1},\"samples\":[{sample_list}]}}"
                );
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}us", ns / 1e3)
    } else {
        format!("{ns:.1}ns")
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = self.scoped(id.into());
        self.criterion.run(id, f);
        self
    }

    /// Runs one parameterized benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = self.scoped(id.into());
        self.criterion.run(id, |b| f(b, input));
        self
    }

    /// Finishes the group. (Statistics finalization in real criterion;
    /// a no-op consume here.)
    pub fn finish(self) {}

    fn scoped(&self, id: BenchmarkId) -> BenchmarkId {
        BenchmarkId {
            function: format!("{}/{}", self.name, id.function),
            parameter: id.parameter,
        }
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, running each group.
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
    fn bench_ids_render_with_parameters() {
        assert_eq!(BenchmarkId::new("f", 10).render(), "f/10");
        assert_eq!(BenchmarkId::from_function("g").render(), "g");
    }

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::default().sample_size(3);
        // Runs to completion and prints one line; mostly a smoke test that
        // calibration terminates for a near-zero-cost body.
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    }
}
