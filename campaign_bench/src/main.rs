//! Campaign benchmark: three named workloads, end-to-end metrics with
//! tracing off, and a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload <oracle-scale|identified-paper|resumable-ckpt|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each run prints a human-readable report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--workload all` runs every workload in a fresh child process of its
//! own, so peak memory and set-up time never carry over between workloads.
//! `--smoke` shrinks every workload to a few terminals and slots. See
//! `README.md` in this directory for the workloads and how to read the
//! traced report.

mod e2e;
mod report;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{valid_name, RunResult};
use workload::Workload;

const USAGE: &str =
    "usage: campaign-bench --workload <oracle-scale|identified-paper|resumable-ckpt|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if parsed.seconds.is_nan() || parsed.seconds < 0.0 {
        return Err(format!("--seconds must be non-negative, got {}", parsed.seconds));
    }
    Ok(parsed)
}

/// Runs one workload in this process.
fn run_one(workload: Workload, args: &Args) -> Result<RunResult, String> {
    let size = workload.size(args.smoke);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let result = if args.trace {
        trace::run(workload, size, args.seed, threads, &work_dir)
    } else {
        e2e::run(workload, size, args.seed, args.seconds, threads, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    // Removes the parent only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    let result = result?;
    if let Some(m) = result.metrics.iter().find(|m| !valid_name(m.name) || !m.value.is_finite()) {
        return Err(format!("metric {} = {} is not reportable", m.name, m.value));
    }
    for m in &result.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    Ok(result)
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        println!("== {} ==", workload.name());
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{} exited with {status}", workload.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("cannot start {}: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    match run_one(workload, &args) {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{} failed: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&args("--workload oracle-scale --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "oracle-scale".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                smoke: false
            }
        );
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload x --bogus 1")).is_err());
    }

    #[test]
    fn workload_names_are_valid_and_round_trip() {
        for w in workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    /// Every metric a smoke run emits — end-to-end and traced — has a
    /// legal name, a finite value, and the name `BENCHMARK.json` declares.
    fn smoke(workload: Workload, trace: bool) -> RunResult {
        let size = workload.size(true);
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_work"))
            .join(format!("test-{}-{trace}", workload.name()));
        std::fs::create_dir_all(&dir).unwrap();
        let result = if trace {
            trace::run(workload, size, 3, 2, &dir)
        } else {
            e2e::run(workload, size, 3, 0.0, 2, &dir)
        };
        let _ = std::fs::remove_dir_all(&dir);
        let result = result.unwrap_or_else(|e| panic!("{} smoke run failed: {e}", workload.name()));
        assert!(result.correct, "{}: {result:?}", workload.name());
        assert!(result.attempted >= 1);
        assert_eq!(result.failed, 0);
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for m in &result.metrics {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                declared.contains(&entry),
                "{} ({}) is not declared in BENCHMARK.json",
                m.name,
                m.unit
            );
        }
        result
    }

    #[test]
    fn smoke_oracle_scale() {
        let e2e = smoke(Workload::OracleScale, false);
        assert_eq!(e2e.metrics.len(), 5);
        smoke(Workload::OracleScale, true);
    }

    #[test]
    fn smoke_identified_paper() {
        smoke(Workload::IdentifiedPaper, false);
        smoke(Workload::IdentifiedPaper, true);
    }

    #[test]
    fn smoke_resumable_ckpt() {
        smoke(Workload::ResumableCkpt, false);
        let traced = smoke(Workload::ResumableCkpt, true);
        let count = traced.metrics.iter().find(|m| m.name == "checkpoint.count").unwrap();
        assert_eq!(count.value, 3.0, "8 slots every 3 write 3 checkpoints");
    }
}
