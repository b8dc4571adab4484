//! The three campaign workloads and their set-up.
//!
//! Each workload is chosen so that one ROADMAP phase does most of its work
//! (see `README.md` in this directory for the rationale and the predicted
//! layer shares). A workload's inputs are a pure function of the
//! benchmark's `--seed`: the seed builds the catalog, seeds the campaign,
//! and rotates the terminal lattice. The program under test only ever sees
//! the generated catalog, terminals and campaign config.

use std::path::{Path, PathBuf};
use std::time::Instant;

use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::campaign::{Campaign, CampaignConfig, SlotObservation};
use starsense_core::resume::ResumeConfig;
use starsense_core::vantage::paper_terminals;
use starsense_scheduler::Terminal;

/// Which campaign a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many lattice terminals in oracle mode: Schedule dominates.
    OracleScale,
    /// The paper's four terminals in identified mode: Observe dominates.
    IdentifiedPaper,
    /// Lattice terminals through the resumable engine with a short
    /// checkpoint cadence: Checkpoint dominates.
    ResumableCkpt,
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Workload; 3] =
    [Workload::OracleScale, Workload::IdentifiedPaper, Workload::ResumableCkpt];

/// The size of one workload's campaign.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Terminals (lattice count; the paper workload always has four).
    pub terminals: usize,
    /// Consecutive 15-second slots.
    pub slots: usize,
    /// Slots per checkpoint segment; `0` for the one-shot engine.
    pub checkpoint_every: usize,
    /// Lattice terminals of the traced first-slot/steady-slot Schedule
    /// probe (ROADMAP item 1's 100k question); `0` skips it.
    pub probe_terminals: usize,
}

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OracleScale => "oracle-scale",
            Workload::IdentifiedPaper => "identified-paper",
            Workload::ResumableCkpt => "resumable-ckpt",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the campaign observes through the identification pipeline.
    pub fn identified(self) -> bool {
        self == Workload::IdentifiedPaper
    }

    /// Campaign size; `smoke` selects the tiny size the self-tests use.
    pub fn size(self, smoke: bool) -> Size {
        match (self, smoke) {
            (Workload::OracleScale, false) => {
                Size { terminals: 10_000, slots: 12, checkpoint_every: 0, probe_terminals: 100_000 }
            }
            (Workload::OracleScale, true) => {
                Size { terminals: 64, slots: 3, checkpoint_every: 0, probe_terminals: 256 }
            }
            (Workload::IdentifiedPaper, false) => {
                Size { terminals: 4, slots: 240, checkpoint_every: 0, probe_terminals: 0 }
            }
            (Workload::IdentifiedPaper, true) => {
                Size { terminals: 4, slots: 12, checkpoint_every: 0, probe_terminals: 0 }
            }
            (Workload::ResumableCkpt, false) => {
                Size { terminals: 500, slots: 96, checkpoint_every: 8, probe_terminals: 0 }
            }
            (Workload::ResumableCkpt, true) => {
                Size { terminals: 16, slots: 8, checkpoint_every: 3, probe_terminals: 0 }
            }
        }
    }
}

/// Start of every campaign: 2023-06-01 16:00 UTC.
pub fn campaign_start() -> JulianDate {
    JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0)
}

/// Campaign seed derived from the benchmark seed (kept distinct from the
/// catalog seed so the two streams never coincide).
pub fn campaign_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_CA4E
}

/// `n` unobstructed terminals on a Fibonacci lattice over the populated
/// latitudes (the lattice the terminal-scaling sweep uses), rotated in
/// longitude by a seed-derived phase so each seed sees a different but
/// statistically equivalent terminal set.
pub fn lattice_terminals(n: usize, seed: u64) -> Vec<Terminal> {
    let phase = 360.0 * ((seed as f64 * 0.381_966_011_250_105).fract());
    (0..n)
        .map(|i| {
            let lat = -55.0 + 110.0 * ((i as f64 * 0.618_033_988_749_895).fract());
            let lon =
                (phase + 360.0 * ((i as f64 * 0.754_877_666_246_693).fract())) % 360.0 - 180.0;
            Terminal::new(i, format!("lattice{i}"), Geodetic::new(lat, lon, 0.1))
        })
        .collect()
}

/// Everything a workload run needs before its timed campaign call.
pub struct Setup {
    /// The seeded gen1 catalog.
    pub constellation: Constellation,
    /// The terminal set.
    pub terminals: Vec<Terminal>,
    /// Snapshot path of the resumable engine (unused by one-shot runs).
    pub checkpoint: PathBuf,
}

/// Builds a workload's inputs and resets its checkpoint files. This is the
/// work `setup_s` times; nothing here runs inside the timed call.
pub fn setup(workload: Workload, size: Size, seed: u64, work_dir: &Path) -> Setup {
    let constellation = ConstellationBuilder::starlink_gen1().seed(seed).build();
    let terminals = match workload {
        Workload::IdentifiedPaper => paper_terminals(),
        Workload::OracleScale | Workload::ResumableCkpt => lattice_terminals(size.terminals, seed),
    };
    let checkpoint = work_dir.join("campaign.ckpt");
    reset_checkpoint(&checkpoint);
    Setup { constellation, terminals, checkpoint }
}

/// Removes a snapshot and its `.prev` / `.tmp` companions.
pub fn reset_checkpoint(path: &Path) {
    for suffix in ["", ".prev", ".tmp"] {
        let mut os = path.as_os_str().to_os_string();
        os.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(os));
    }
}

/// The campaign config of a run at `threads` workers.
pub fn config(threads: usize) -> CampaignConfig {
    CampaignConfig { threads, ..CampaignConfig::default() }
}

/// Builds the workload's campaign over `setup`'s inputs.
pub fn campaign<'a>(
    workload: Workload,
    setup: &'a Setup,
    threads: usize,
    seed: u64,
) -> Campaign<'a> {
    let terminals = setup.terminals.clone();
    let seed = campaign_seed(seed);
    if workload.identified() {
        Campaign::identified(&setup.constellation, terminals, config(threads), seed)
    } else {
        Campaign::oracle(&setup.constellation, terminals, config(threads), seed)
    }
}

/// Resume options for the checkpointing workload.
pub fn resume_config(setup: &Setup, checkpoint_every: usize) -> ResumeConfig {
    ResumeConfig { checkpoint_every, ..ResumeConfig::new(&setup.checkpoint) }
}

/// One timed campaign call: the observation stream and the wall time of
/// `Campaign::run` (or `Campaign::run_resumable` for a checkpointing
/// size). The checkpoint files are reset before the clock starts.
pub fn run_campaign(
    workload: Workload,
    size: Size,
    setup: &Setup,
    threads: usize,
    seed: u64,
) -> Result<(Vec<SlotObservation>, f64), String> {
    let campaign = campaign(workload, setup, threads, seed);
    if size.checkpoint_every == 0 {
        let start = Instant::now();
        let obs = campaign.run(campaign_start(), size.slots);
        return Ok((obs, start.elapsed().as_secs_f64()));
    }
    reset_checkpoint(&setup.checkpoint);
    let opts = resume_config(setup, size.checkpoint_every);
    let start = Instant::now();
    let result = campaign.run_resumable(campaign_start(), size.slots, &opts);
    let elapsed = start.elapsed().as_secs_f64();
    let (obs, _, report) = result.map_err(|e| format!("run_resumable failed: {e}"))?;
    if !report.completed || report.resumed_at_slot.is_some() {
        return Err(format!("resumable run did not complete from a fresh start: {report:?}"));
    }
    Ok((obs, elapsed))
}
