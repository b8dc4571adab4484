//! `starsense-core`: the paper's analyses, end to end.
//!
//! This crate sits on top of every substrate and implements the study
//! itself:
//!
//! * [`vantage`] — the four measurement sites (Iowa, Ithaca NY, Madrid,
//!   Seattle WA) with Ithaca's tree-obstructed north-west sky,
//! * [`campaign`] — running a measurement campaign against the hidden
//!   scheduler, either with oracle ground truth or through the §4
//!   obstruction-map identification pipeline,
//! * [`characterize`] — the §5 analyses: angle-of-elevation (Figure 4),
//!   azimuth (Figure 5), launch date (Figure 6), sunlit status (Figure 7),
//! * [`features`] + [`model`] — the §6 scheduler model: z-score cluster
//!   features, random-forest training with grid search and 5-fold CV, the
//!   most-available-cluster baseline, and top-k evaluation (Figure 8),
//! * [`report`] — plain-text/CSV table rendering shared by the experiment
//!   binaries.
//!
//! # Quickstart
//!
//! ```no_run
//! use starsense_core::campaign::{Campaign, CampaignConfig};
//! use starsense_core::vantage::paper_terminals;
//! use starsense_core::characterize::aoe_analysis;
//! use starsense_constellation::ConstellationBuilder;
//! use starsense_astro::time::JulianDate;
//!
//! let constellation = ConstellationBuilder::starlink_gen1().seed(1).build();
//! let campaign = Campaign::oracle(&constellation, paper_terminals(), CampaignConfig::default(), 1);
//! let from = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
//! let observations = campaign.run(from, 240);
//! let fig4 = aoe_analysis(&observations, 0);
//! println!("median chosen AOE: {:.1}°", fig4.chosen_median_deg);
//! ```

pub mod campaign;
pub mod characterize;
pub mod degrade;
pub mod features;
pub mod model;
pub mod report;
pub mod resume;
pub mod vantage;

pub use campaign::{Campaign, CampaignConfig, CampaignError, SatObs, SlotObservation};
pub use degrade::{DegradationStats, DegradeReason, SlotOutcome};
pub use features::{ClusterKey, ClusterVocabulary, FeatureExtractor};
pub use model::{train_and_evaluate, ModelEvaluation};
pub use resume::{fingerprint_observations, ResumeConfig, ResumeReport};
pub use vantage::paper_terminals;
