//! Satellite identification from obstruction maps — the paper's §4.
//!
//! "Our approach involves correlating the publicly known positions of the
//! Starlink satellites with observations of connected satellites recorded
//! \[in\] the obstruction maps of each terminal."
//!
//! The pipeline has four stages, each its own module:
//!
//! 1. [`dish`] — a simulated dish that paints the serving satellite's sky
//!    track onto its obstruction map each slot and snapshots the map every
//!    15 seconds, with the 10-minute reset policy the authors used to keep
//!    trajectories from overlapping;
//! 2. [`candidates`] — for each slot, the set of satellites in the
//!    terminal's field of view according to the *published* (stale, noisy)
//!    TLEs, each with its SGP4-propagated sky track over the slot;
//! 3. [`pipeline`] — XOR isolation of the new trajectory, pixel → polar →
//!    Cartesian conversion, and DTW matching against the candidates (the
//!    candidate with the lowest DTW distance wins);
//! 4. [`validate`] — the end-to-end harness that replays a measurement
//!    campaign against the hidden scheduler and scores the production
//!    identifier ([`verdict_slot_tracked`]) against ground truth,
//!    reproducing the paper's 500-sample pilot validation (>99%
//!    agreement).

pub mod candidates;
pub mod dish;
pub mod pipeline;
pub mod track_cache;
pub mod validate;

pub use candidates::{candidate_tracks, slot_boundary_epochs, CandidateTrack};
pub use dish::{DishSimulator, DishState, FrameFetch, FrameStatus, SlotCapture};
pub use pipeline::{
    classify_identification, identify_from_trajectory_counted, verdict_slot_tracked, IdentVerdict,
    IdentifiedSat, NoDataReason, CANDIDATE_SAMPLES_PER_SLOT, DEFAULT_MIN_MARGIN,
    MIN_CANDIDATE_ELEVATION_DEG,
};
pub use track_cache::{prefilter_margin_deg, TrackCache, TrackCacheStats};
pub use validate::{run_validation, ValidationReport};
