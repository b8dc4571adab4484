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
//! angle of elevation for a terminal in a [`Snapshot`], with look angles and
//! sunlit status — the "available satellites" set that every analysis in §5
//! compares against. It tests a list of candidate catalog indices: the
//! whole catalog, or the superset a [`VisibilityIndex`] gathers.
//!
//! [`PropagationCache`] holds a prepared, immutable table of per-epoch
//! propagation (true snapshots and published-TLE positions) that worker
//! threads read without locks, so campaign engines propagate the
//! constellation once per slot regardless of terminal count or
//! worker-thread count. Built for a campaign's observers, it skips the
//! satellites provably below all of their skies.

mod builder;
mod cache;
mod catalog;
mod envelope;
mod feed;
mod index;
mod shell;

pub use builder::ConstellationBuilder;
pub use cache::{CacheStats, PropagationCache, PublishedRow, KEY_REACH_S, OMEGA_EARTH_RAD_S};
pub use catalog::{
    Constellation, LaunchBatch, Satellite, Snapshot, SnapshotEntry, VisibleSat, DECAY_ALTITUDE_KM,
};
pub use envelope::{Envelope, Envelopes};
pub use feed::{load_catalog_text, CatalogLoad};
pub use index::VisibilityIndex;
pub use shell::{Shell, WalkerSlot};
