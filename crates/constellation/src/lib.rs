//! Synthetic LEO constellations.
//!
//! The paper studies the live Starlink constellation; this crate builds its
//! stand-in. A [`Constellation`] is a catalog of satellites generated from
//! Walker-delta [`Shell`]s matching Starlink's publicly filed shell
//! parameters, each satellite carrying:
//!
//! * mean orbital elements and an initialized SGP4 propagator (the *truth*
//!   used by the hidden scheduler and the network emulator),
//! * a *published* TLE whose epoch lags the truth by a configurable
//!   staleness and whose elements carry small fit noise — reproducing the
//!   CelesTrak-TLE error source the paper's identification pipeline works
//!   against (§4: "these files only indicate satellite positions every six
//!   hours"),
//! * a launch batch (year/month), so the launch-date preference analysis of
//!   §5.2 has ground truth to recover.
//!
//! [`Constellation::field_of_view`] returns every satellite above a minimum
//! angle of elevation for a terminal, with look angles and sunlit status —
//! the "available satellites" set that every analysis in §5 compares
//! against.
//!
//! [`PropagationCache`] holds a prepared, immutable table of per-epoch
//! propagation (true snapshots and published-TLE positions) that worker
//! threads read without locks, so campaign engines propagate the
//! constellation once per slot regardless of terminal count or
//! worker-thread count.

mod builder;
mod cache;
mod catalog;
mod feed;
mod index;
mod shell;

pub use builder::ConstellationBuilder;
pub use cache::{CacheStats, PropagationCache};
pub use catalog::{Constellation, LaunchBatch, Satellite, Snapshot, SnapshotEntry, VisibleSat};
pub use feed::{defect_kind, load_catalog_text, CatalogLoad};
pub use index::VisibilityIndex;
pub use shell::{Shell, WalkerSlot};
