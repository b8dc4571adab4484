//! # starsense
//!
//! A full Rust reproduction of *"Making Sense of Constellations:
//! Methodologies for Understanding Starlink's Scheduling Algorithms"*
//! (CoNEXT Companion '23).
//!
//! The paper reverse-engineers Starlink's hierarchical traffic controllers
//! from the outside: a global scheduler that re-assigns satellites to user
//! terminals every 15 seconds, and an on-satellite MAC scheduler that
//! round-robins radio frames. Because the real study is gated on Starlink
//! hardware and the live constellation, this workspace rebuilds the whole
//! measurement environment as a deterministic simulation — and then runs
//! the paper's methodology against it:
//!
//! * [`astro`] — vectors, time scales, reference frames, solar ephemeris;
//! * [`sgp4`] — TLE parsing/formatting and the SGP4 propagator;
//! * [`constellation`] — synthetic Walker-delta Starlink shells with
//!   launch batches and stale published TLEs;
//! * [`scheduler`] — the *hidden* ground-truth global + MAC schedulers;
//! * [`netemu`] — bent-pipe RTT emulation with 20 ms probing (§3);
//! * [`obstruction`] — the dish's 123×123 obstruction-map raster (§4.1);
//! * [`dtw`] — dynamic time warping for trajectory matching (§4.1);
//! * [`ident`] — the XOR + DTW satellite-identification pipeline (§4);
//! * [`stats`] — Mann-Whitney U, ECDFs, Pearson correlation;
//! * [`forest`] — from-scratch random forests with CV and grid search (§6);
//! * [`faults`] — seeded deterministic fault injection (dropped frames,
//!   corrupt TLEs, propagation failures, probe bursts, worker panics) for
//!   chaos testing;
//! * [`checkpoint`] — the versioned, checksummed snapshot container and
//!   atomic persistence behind crash-resilient campaigns;
//! * [`core`] — campaigns, the §5 characterizations and the §6 model.
//!
//! # Quickstart
//!
//! ```no_run
//! use starsense::prelude::*;
//!
//! // A synthetic Starlink-like constellation and the hidden scheduler.
//! let constellation = ConstellationBuilder::starlink_gen1().seed(7).build();
//! let campaign = Campaign::oracle(
//!     &constellation,
//!     paper_terminals(),
//!     CampaignConfig::default(),
//!     7,
//! );
//!
//! // Re-derive Figure 4 (angle-of-elevation preference) from scratch.
//! let from = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
//! let observations = campaign.run(from, 240);
//! let fig4 = aoe_analysis(&observations, 0);
//! println!(
//!     "chosen median AOE {:.1}° vs available {:.1}°",
//!     fig4.chosen_median_deg, fig4.available_median_deg
//! );
//! ```
//!
//! Run `cargo run --release -p starsense-experiments --bin fig4` (and
//! `fig2`…`fig8`, `tab_*`) to regenerate every figure and table of the
//! paper; see `EXPERIMENTS.md` for the recorded results.

pub use starsense_astro as astro;
pub use starsense_checkpoint as checkpoint;
pub use starsense_constellation as constellation;
pub use starsense_core as core;
pub use starsense_dtw as dtw;
pub use starsense_faults as faults;
pub use starsense_forest as forest;
pub use starsense_ident as ident;
pub use starsense_netemu as netemu;
pub use starsense_obstruction as obstruction;
pub use starsense_scheduler as scheduler;
pub use starsense_sgp4 as sgp4;
pub use starsense_stats as stats;

/// The most common imports, bundled.
pub mod prelude {
    pub use starsense_astro::frames::Geodetic;
    pub use starsense_astro::time::JulianDate;
    pub use starsense_constellation::{Constellation, ConstellationBuilder};
    pub use starsense_core::campaign::{Campaign, CampaignConfig, SlotObservation};
    pub use starsense_core::characterize::{
        aoe_analysis, azimuth_analysis, launch_analysis, sunlit_analysis,
    };
    pub use starsense_core::degrade::{DegradationStats, DegradeReason, SlotOutcome};
    pub use starsense_core::model::train_and_evaluate;
    pub use starsense_core::resume::{fingerprint_observations, ResumeConfig, ResumeReport};
    pub use starsense_core::vantage::paper_terminals;
    pub use starsense_faults::{FaultPlan, FaultRates};
    pub use starsense_ident::{run_validation, verdict_slot_tracked, DishSimulator, TrackCache};
    pub use starsense_netemu::{Emulator, EmulatorConfig};
    pub use starsense_scheduler::{GlobalScheduler, MacScheduler, SchedulerPolicy, Terminal};
}
