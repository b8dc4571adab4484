//! Offline, from-scratch drop-in for the subset of the `criterion` API the
//! workspace's benches use.
//!
//! The build container has no crates-io access, so the workspace vendors a
//! minimal timing harness with the same call surface: [`Criterion`] with
//! `bench_function` / `benchmark_group`, [`Bencher::iter`], [`black_box`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros. Statistics
//! are simple — per-sample mean plus a median across samples — with none
//! of criterion's outlier analysis, HTML reports, or baseline storage.
//!
//! This is benchmarking *tooling*, not simulation code: it reads the
//! monotonic clock, which the workspace lints ban in simulation crates.
//! Its `clippy.toml` and `tests/lint.rs` classify this crate as tooling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Passes a value through while defeating constant-folding, forwarding to
/// [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

static SMOKE: AtomicBool = AtomicBool::new(false);

/// True when the harness runs in smoke mode (`--test` on the command line,
/// matching `cargo bench -- --test` with real criterion): every benchmark
/// executes once to prove it still runs, with no timing loops. CI uses
/// this to keep benches compiling and running without paying for a full
/// measurement session.
pub fn is_smoke() -> bool {
    SMOKE.load(Ordering::Relaxed)
}

/// Parses harness arguments; called by [`criterion_main!`]. Currently the
/// only recognized flag is `--test` (smoke mode); everything else is
/// ignored, like criterion ignores filters it cannot match.
pub fn configure_from_args<I: IntoIterator<Item = String>>(args: I) {
    for arg in args {
        if arg == "--test" {
            SMOKE.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs the timed closure for one sample.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Nanoseconds per iteration measured for the most recent `iter` call.
    last_ns_per_iter: f64,
}

impl Bencher {
    /// Times `f`, auto-scaling the iteration count so a sample takes a few
    /// milliseconds, and records the mean time per iteration. In smoke mode
    /// the closure runs exactly once and only that single time is recorded.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and estimate the cost of one call.
        let warmup_start = Instant::now();
        black_box(f());
        let once = warmup_start.elapsed().max(Duration::from_nanos(1));
        if is_smoke() {
            self.last_ns_per_iter = once.as_nanos() as f64;
            return;
        }

        let target = Duration::from_millis(5);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;

        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let total = start.elapsed();
        self.last_ns_per_iter = total.as_nanos() as f64 / iters as f64;
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.2} s ", ns / 1_000_000_000.0)
    }
}

#[expect(
    clippy::print_stdout,
    reason = "the bench reporter's whole job is printing results to stdout"
)]
fn run_samples<F: FnMut(&mut Bencher)>(name: &str, samples: usize, mut f: F) {
    let samples = if is_smoke() { 1 } else { samples };
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher::default();
        f(&mut b);
        per_iter.push(b.last_ns_per_iter);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[per_iter.len() / 2];
    let best = per_iter.first().copied().unwrap_or(0.0);
    println!(
        "{name:<44} median {}   best {}   ({} samples)",
        format_ns(median),
        format_ns(best),
        samples
    );
}

/// Top-level benchmark driver; one per bench binary.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Registers and immediately runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_samples(name, self.sample_size, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { prefix: name.to_string(), sample_size: self.sample_size, _parent: self }
    }
}

/// A named group of benchmarks sharing a sample-size setting.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    prefix: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of samples taken per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Registers and immediately runs a benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_samples(&format!("{}/{}", self.prefix, name), self.sample_size, f);
        self
    }

    /// Ends the group. (Present for API compatibility; drop does the work.)
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running each group in order.
/// Command-line flags are parsed first, so `cargo bench -- --test` runs
/// every registered benchmark once in smoke mode.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::configure_from_args(std::env::args().skip(1));
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_positive_time() {
        let mut b = Bencher::default();
        b.iter(|| black_box((0..100u64).sum::<u64>()));
        assert!(b.last_ns_per_iter > 0.0);
    }

    #[test]
    fn group_prefixes_names_and_sets_sample_size() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("grp");
        g.sample_size(2);
        g.bench_function("fast", |b| b.iter(|| black_box(1 + 1)));
        g.finish();
    }

    #[test]
    fn smoke_flag_is_parsed_from_args() {
        // Note: SMOKE is process-global, so this test sets and unsets it;
        // the other tests here don't depend on timing-loop iteration
        // counts, so ordering doesn't matter.
        configure_from_args(["--bench".to_string(), "--test".to_string()]);
        assert!(is_smoke());
        let mut b = Bencher::default();
        let mut calls = 0u32;
        b.iter(|| {
            calls += 1;
            black_box(calls)
        });
        assert_eq!(calls, 1, "smoke mode must run the closure exactly once");
        SMOKE.store(false, Ordering::Relaxed);
    }

    #[test]
    fn format_ns_picks_sane_units() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("µs"));
        assert!(format_ns(12_000_000.0).contains("ms"));
        assert!(format_ns(12_000_000_000.0).contains('s'));
    }
}
