//! Regenerates every figure and table of the paper's evaluation in one
//! run: prints each section as markdown, writes the CSV/PGM artifacts
//! under `results/`, and splices each section into `EXPERIMENTS.md`
//! between its `<!-- BEGIN reproduce:<id> -->` / `<!-- END reproduce:<id> -->`
//! markers.
//!
//! Run from the repository root:
//! `cargo run --release -p starsense-experiments --bin reproduce`.
//! `STARSENSE_SLOTS` overrides every section's campaign length for a
//! quick look; `EXPERIMENTS.md` records the defaults, so it is left as
//! is when the knob is set.
//!
//! On Linux the run ends by printing its peak resident set to stderr, as
//! `reproduce peak RSS (VmHWM): <n> kB`; it never enters `EXPERIMENTS.md`.
//! CI fails the run above 512 MB.

use starsense_experiments::{paper_results, slots_from_env, splice, write_artifact};

const DOC: &str = "EXPERIMENTS.md";

fn main() {
    run();
    #[cfg(target_os = "linux")]
    if let Some(kb) = peak_rss_kb() {
        eprintln!("reproduce peak RSS (VmHWM): {kb} kB");
    }
}

/// The process's peak resident set (`VmHWM`) in kB, if the kernel reports
/// it.
#[cfg(target_os = "linux")]
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn run() {
    let slots = slots_from_env();
    let results = paper_results(slots);
    for section in &results.sections {
        println!("## {}\n\n{}", section.id, section.markdown);
        for (name, contents) in &section.artifacts {
            write_artifact(name, contents);
        }
        println!();
    }
    if slots.is_some() {
        println!("STARSENSE_SLOTS is set: {DOC} records the defaults and is left as is");
        return;
    }
    let doc = std::fs::read_to_string(DOC).unwrap_or_else(|e| panic!("read {DOC}: {e}"));
    let spliced = splice(&doc, &results).unwrap_or_else(|e| panic!("{e}"));
    if spliced != doc {
        std::fs::write(DOC, spliced).unwrap_or_else(|e| panic!("write {DOC}: {e}"));
    }
    println!("[spliced {} sections into {DOC}]", results.sections.len());
}
