//! An offline, dependency-free subset of the [criterion](https://docs.rs/criterion)
//! benchmarking API, vendored so `cargo bench` compiles and runs without
//! network access.
//!
//! No statistics are collected: each registered benchmark runs its routine a
//! small fixed number of times and reports wall-clock time per iteration.
//! This keeps benches useful as smoke tests (they exercise the same code
//! paths) and keeps the harness interface identical, so swapping the real
//! criterion back in is a one-line Cargo.toml change.

use std::time::Instant;

/// Iterations run per benchmark (the real criterion samples adaptively).
const ITERS: u32 = 3;

/// The benchmark harness handle passed to `criterion_group!` functions.
#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<S: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        run_one(&id.into(), &mut f);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _parent: self,
        }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the sample count (accepted for API compatibility; ignored).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs a benchmark within this group.
    pub fn bench_function<S: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id.into()), &mut f);
        self
    }

    /// Finishes the group (no-op; present for API compatibility).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, f: &mut F) {
    let mut bencher = Bencher { total_iters: 0 };
    let start = Instant::now();
    f(&mut bencher);
    let elapsed = start.elapsed();
    let per = if bencher.total_iters > 0 {
        elapsed / bencher.total_iters
    } else {
        elapsed
    };
    println!("bench: {id:<60} {per:>12.2?}/iter ({} iters)", bencher.total_iters);
}

/// Runs the measured routine; passed to each benchmark closure.
pub struct Bencher {
    total_iters: u32,
}

impl Bencher {
    /// Times `routine`, running it a fixed number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..ITERS {
            std::hint::black_box(routine());
            self.total_iters += 1;
        }
    }

    /// Times `routine` with a fresh input from `setup` each iteration.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        for _ in 0..ITERS {
            let input = setup();
            std::hint::black_box(routine(input));
            self.total_iters += 1;
        }
    }
}

/// Batch sizing hints (accepted for API compatibility; ignored).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// Opaque value barrier, re-exported for parity with the real crate.
pub use std::hint::black_box;

/// Defines a benchmark group function that runs each listed benchmark.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Defines `main` to run the listed benchmark groups.
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
    fn bench_function_runs_routine() {
        let mut c = Criterion::default();
        let mut count = 0;
        c.bench_function("counting", |b| b.iter(|| count += 1));
        assert_eq!(count, ITERS);
    }

    #[test]
    fn group_runs_batched() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(10);
        let mut seen = Vec::new();
        g.bench_function(format!("case-{}", 1), |b| {
            b.iter_batched(|| 7u32, |v| seen.push(v), BatchSize::SmallInput)
        });
        g.finish();
        assert_eq!(seen, vec![7; ITERS as usize]);
    }
}
