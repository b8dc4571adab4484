//! The paper's evaluation, regenerated against the simulated system.
//!
//! [`paper_results`] runs every figure and table of the paper once and
//! returns them as markdown [`Section`]s plus their CSV/PGM artifacts.
//! The `reproduce` binary prints the sections, writes the artifacts under
//! `results/` and splices each section into `EXPERIMENTS.md` between its
//! markers (see [`splice`]):
//!
//! | section | reproduces |
//! |---|---|
//! | `fig2` | Figure 2 (RTT time series) + the §3 Mann-Whitney window test |
//! | `fig3` | Figure 3 (obstruction maps, XOR) + the §4.1 calibration table |
//! | `tab_ident` | §4.1 validation (identification accuracy, staleness sweep) |
//! | `fig4` | Figure 4 (angle-of-elevation CDFs) |
//! | `fig5` | Figure 5 (azimuth CDFs and quadrant shares) |
//! | `fig6` | Figure 6 (launch-date preference) |
//! | `fig7` | Figure 7 + §5.3 (sunlit preference) |
//! | `fig8` | Figure 8 (model vs baseline top-k accuracy) |
//! | `tab_importance` | §6 feature-importance table |
//! | `tab_ablation` | which scheduler term drives which §5 finding |
//! | `tab_southern` | §8 future work: a southern-hemisphere vantage point |
//! | `tab_margin` | DTW-margin precision vs coverage |
//! | `tab_capacity` | §3 iPerf side: per-slot capacity and handover loss |
//!
//! The robustness checks (seeded fault tiers, kill/resume across real
//! process boundaries) are the root package's `tests/chaos.rs`.
//!
//! Everything shares one deterministic world: seed 42, the constellation
//! and campaign window below.

mod paper;

pub use paper::paper_results;

use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::report::text_table;
use std::path::PathBuf;

/// The seed every experiment derives its world from.
pub const WORLD_SEED: u64 = 42;

/// Campaign start: 2023-06-01 00:00 UTC (mid-constellation-era, matching
/// the paper's measurement period).
pub fn campaign_start() -> JulianDate {
    JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0)
}

/// The standard full-scale constellation.
pub fn standard_constellation() -> Constellation {
    ConstellationBuilder::starlink_gen1().seed(WORLD_SEED).build()
}

/// The campaign length `STARSENSE_SLOTS` asks for, `None` when it is
/// unset.
///
/// # Panics
///
/// Panics with a message naming the variable and its value when it is
/// set to anything but a positive integer, so a typo never silently runs
/// the defaults.
pub fn slots_from_env() -> Option<usize> {
    let value = std::env::var_os("STARSENSE_SLOTS").map(|v| v.to_string_lossy().into_owned());
    match parse_slots(value.as_deref()) {
        Ok(slots) => slots,
        #[expect(
            clippy::panic,
            reason = "the reproduce bin has no recovery path for a malformed knob; stopping beats running the defaults"
        )]
        Err(message) => panic!("{message}"),
    }
}

/// The parse behind [`slots_from_env`], as a pure function of the
/// variable's value (`None` when unset).
fn parse_slots(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(value) = value else { return Ok(None) };
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("STARSENSE_SLOTS={value:?}: expected an integer of at least 1")),
    }
}

/// Output directory for CSV/PGM artifacts (`results/`, created on demand).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    #[expect(
        clippy::expect_used,
        reason = "experiment harness helper; the bins have no recovery path for an unwritable working directory"
    )]
    std::fs::create_dir_all(&dir).expect("create results/");
    dir
}

/// Writes an artifact under `results/` and logs the path.
#[expect(
    clippy::print_stdout,
    reason = "experiment bins report artifact paths on stdout by design"
)]
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    #[expect(
        clippy::expect_used,
        reason = "experiment harness helper; losing an artifact silently would invalidate the run"
    )]
    std::fs::write(&path, contents).expect("write artifact");
    println!("[wrote {}]", path.display());
}

/// Every section of the paper's evaluation, in `EXPERIMENTS.md` order.
pub struct PaperResults {
    /// One section per figure or table.
    pub sections: Vec<Section>,
}

/// One figure or table: its markdown and the artifacts behind it.
pub struct Section {
    /// The section's marker id in `EXPERIMENTS.md` (`fig2`, `tab_ident`, …).
    pub id: &'static str,
    /// Markdown tables and one-line summaries, newline-terminated.
    pub markdown: String,
    /// `(file name, contents)` of each CSV/PGM artifact for `results/`.
    pub artifacts: Vec<(&'static str, String)>,
}

impl Section {
    fn new(id: &'static str) -> Section {
        Section { id, markdown: String::new(), artifacts: Vec::new() }
    }

    /// Appends a markdown block, separated from the previous one by a
    /// blank line.
    fn text(&mut self, block: impl AsRef<str>) {
        if !self.markdown.is_empty() {
            self.markdown.push('\n');
        }
        self.markdown.push_str(block.as_ref().trim_end_matches('\n'));
        self.markdown.push('\n');
    }

    fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        self.text(text_table(header, rows));
    }

    fn artifact(&mut self, name: &'static str, contents: String) {
        self.artifacts.push((name, contents));
    }
}

/// Replaces the text between each section's `<!-- BEGIN reproduce:<id> -->`
/// and `<!-- END reproduce:<id> -->` markers in `doc` with the section's
/// markdown, leaving everything outside the markers untouched. Splicing
/// the same results twice gives the same document.
///
/// # Errors
///
/// A section whose markers are missing, duplicated or out of order, and
/// a `BEGIN` marker naming no section, are errors: a block nothing
/// regenerates would keep stale numbers.
pub fn splice(doc: &str, results: &PaperResults) -> Result<String, String> {
    let mut out = doc.to_string();
    for section in &results.sections {
        let begin = format!("<!-- BEGIN reproduce:{} -->", section.id);
        let end = format!("<!-- END reproduce:{} -->", section.id);
        let find = |marker: &str| match out.match_indices(marker).collect::<Vec<_>>()[..] {
            [(at, _)] => Ok(at),
            [] => Err(format!("EXPERIMENTS.md has no `{marker}` marker")),
            _ => Err(format!("EXPERIMENTS.md has more than one `{marker}` marker")),
        };
        let (from, to) = (find(&begin)? + begin.len(), find(&end)?);
        if from > to {
            return Err(format!("`{end}` comes before `{begin}`"));
        }
        out.replace_range(from..to, &format!("\n\n{}\n", section.markdown));
    }
    let begins = out.matches("<!-- BEGIN reproduce:").count();
    if begins != results.sections.len() {
        return Err(format!(
            "EXPERIMENTS.md has {begins} reproduce blocks but there are {} sections",
            results.sections.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knob_takes_the_default() {
        assert_eq!(parse_slots(None), Ok(None));
    }

    #[test]
    fn set_knob_overrides_the_default() {
        assert_eq!(parse_slots(Some("12")), Ok(Some(12)));
    }

    #[test]
    fn malformed_knob_is_rejected_by_name_and_value() {
        for bad in ["1e3", "", " 5", "-1", "twelve", "2.5"] {
            let err = parse_slots(Some(bad))
                .expect_err("a malformed value must not fall back to the defaults");
            assert!(err.contains("STARSENSE_SLOTS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn zero_count_is_rejected() {
        let err = parse_slots(Some("0")).expect_err("zero is not a campaign length");
        assert_eq!(err, "STARSENSE_SLOTS=\"0\": expected an integer of at least 1");
    }

    fn results(blocks: &[(&'static str, &str)]) -> PaperResults {
        let sections = blocks
            .iter()
            .map(|&(id, md)| Section { id, markdown: md.to_string(), artifacts: Vec::new() })
            .collect();
        PaperResults { sections }
    }

    const DOC: &str = "# Title\n\nprose before\n\n<!-- BEGIN reproduce:a -->\nstale a\n\
                       <!-- END reproduce:a -->\n\nprose between\n\n\
                       <!-- BEGIN reproduce:b --><!-- END reproduce:b -->\ntail\n";

    #[test]
    fn splice_replaces_only_the_marked_blocks() {
        let spliced = splice(DOC, &results(&[("a", "| x |\n"), ("b", "fresh b\n")])).unwrap();
        assert_eq!(
            spliced,
            "# Title\n\nprose before\n\n<!-- BEGIN reproduce:a -->\n\n| x |\n\n\
             <!-- END reproduce:a -->\n\nprose between\n\n\
             <!-- BEGIN reproduce:b -->\n\nfresh b\n\n<!-- END reproduce:b -->\ntail\n"
        );
    }

    #[test]
    fn splicing_twice_is_idempotent() {
        let r = results(&[("a", "| x |\n|---|\n| 1 |\n"), ("b", "line\n")]);
        let once = splice(DOC, &r).unwrap();
        assert_eq!(splice(&once, &r).unwrap(), once);
    }

    #[test]
    fn missing_or_duplicated_markers_are_errors() {
        let missing = splice(DOC, &results(&[("a", "x\n"), ("c", "y\n")])).unwrap_err();
        assert!(missing.contains("<!-- BEGIN reproduce:c -->"), "{missing}");

        let no_end = DOC.replace("<!-- END reproduce:b -->", "");
        let err = splice(&no_end, &results(&[("a", "x\n"), ("b", "y\n")])).unwrap_err();
        assert!(err.contains("no `<!-- END reproduce:b -->`"), "{err}");

        let twice = format!("{DOC}<!-- BEGIN reproduce:a -->\n");
        let err = splice(&twice, &results(&[("a", "x\n"), ("b", "y\n")])).unwrap_err();
        assert!(err.contains("more than one `<!-- BEGIN reproduce:a -->`"), "{err}");

        let swapped = "<!-- END reproduce:a -->\n<!-- BEGIN reproduce:a -->\n";
        let err = splice(swapped, &results(&[("a", "x\n")])).unwrap_err();
        assert!(err.contains("comes before"), "{err}");
    }

    #[test]
    fn a_block_no_section_regenerates_is_an_error() {
        let err = splice(DOC, &results(&[("a", "x\n")])).unwrap_err();
        assert!(err.contains("2 reproduce blocks but there are 1 sections"), "{err}");
    }

    #[test]
    fn section_blocks_are_blank_line_separated() {
        let mut s = Section::new("t");
        s.text("one line");
        s.table(&["k"], &[vec!["1".into()]]);
        assert_eq!(s.markdown, "one line\n\n| k |\n|---|\n| 1 |\n");
    }
}
