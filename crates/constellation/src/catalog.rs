//! The satellite catalog: per-satellite state and field-of-view queries.

use crate::index::VisibilityIndex;
use starsense_astro::frames::{teme_to_ecef, Geodetic, LookAngles, Topocentric};
use starsense_astro::sun::{is_sunlit_given_sun, sun_position_teme};
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use starsense_sgp4::{Elements, Sgp4, Sgp4Batch, Tle};
use std::sync::OnceLock;

/// A launch batch: satellites launched together share a date, as Starlink
/// satellites do (§5.2 bins satellites "by the year and month of their
/// launch batch").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchBatch {
    /// Launch sequence number within the synthetic history (0-based).
    pub index: u32,
    /// Launch date.
    pub date: JulianDate,
    /// Launch year (for binning).
    pub year: i32,
    /// Launch month, 1–12 (for binning).
    pub month: u32,
}

impl LaunchBatch {
    /// `"YYYY-MM"` label used by Figure 6's x axis.
    pub fn label(&self) -> String {
        format!("{:04}-{:02}", self.year, self.month)
    }
}

/// One satellite of the synthetic constellation.
#[derive(Debug, Clone)]
pub struct Satellite {
    /// NORAD-style catalog number (unique).
    pub norad_id: u32,
    /// Display name, e.g. `"STARSENSE-1042"`.
    pub name: String,
    /// Launch batch the satellite belongs to.
    pub launch: LaunchBatch,
    /// True mean elements (the state the operator knows).
    pub elements: Elements,
    /// Published TLE: stale epoch + fit noise (the state the public knows).
    pub published: Tle,
    truth: Sgp4,
    published_sgp4: Sgp4,
}

impl Satellite {
    /// Builds a satellite from truth elements and its published TLE.
    ///
    /// # Errors
    ///
    /// Propagates SGP4 initialization failures (unphysical elements).
    pub fn new(
        name: String,
        launch: LaunchBatch,
        elements: Elements,
        published: Tle,
    ) -> Result<Satellite, starsense_sgp4::Sgp4Error> {
        let truth = Sgp4::new(&elements)?;
        let published_sgp4 = Sgp4::new(&published.elements())?;
        Ok(Satellite {
            norad_id: elements.norad_id,
            name,
            launch,
            elements,
            published,
            truth,
            published_sgp4,
        })
    }

    /// True TEME position at `at` (what the operator's scheduler sees).
    ///
    /// Returns `None` if propagation fails (decay) — callers treat such a
    /// satellite as unavailable.
    pub fn true_position(&self, at: JulianDate) -> Option<Vec3> {
        self.truth.propagate(at).ok().map(|s| s.position_km)
    }

    /// TEME position predicted from the *published* TLE (what the paper's
    /// measurement methodology has access to).
    pub fn published_position(&self, at: JulianDate) -> Option<Vec3> {
        self.published_sgp4.propagate(at).ok().map(|s| s.position_km)
    }

    /// Age of the satellite at `at`, in days since launch.
    pub fn age_days(&self, at: JulianDate) -> f64 {
        at.seconds_since(self.launch.date) / 86_400.0
    }

    /// The initialized **truth** propagator (operator-side state).
    ///
    /// Exposed so operator-side engines — the netemu slot-cohort loop —
    /// can transpose the serving set into an [`Sgp4Batch`] instead of
    /// propagating satellite-by-satellite. Measurement-side code must keep
    /// using [`Satellite::published_position`].
    pub fn truth_propagator(&self) -> &Sgp4 {
        &self.truth
    }
}

/// A satellite visible from a terminal at one instant, with everything the
/// scheduler and the analyses need about it.
#[derive(Debug, Clone)]
pub struct VisibleSat {
    /// Catalog number.
    pub norad_id: u32,
    /// Position of the satellite in the catalog (index into
    /// [`Constellation::sats`] and [`Snapshot::entries`]) — the key
    /// per-slot satellite tables are indexed by.
    pub catalog_index: u32,
    /// Look angles from the terminal (true positions).
    pub look: LookAngles,
    /// True TEME position, km.
    pub teme: Vec3,
    /// Whether the satellite is in sunlight.
    pub sunlit: bool,
    /// Age in days since launch.
    pub age_days: f64,
    /// Launch batch (for §5.2 binning).
    pub launch: LaunchBatch,
}

/// One satellite's propagated state within a [`Snapshot`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotEntry {
    /// True TEME position, km.
    pub teme: Vec3,
    /// The same position rotated to ECEF — cached here so that per-terminal
    /// look-angle queries share one rotation per satellite per instant
    /// instead of redoing it for every terminal.
    pub ecef: Vec3,
    /// Whether the satellite is in sunlight.
    pub sunlit: bool,
}

/// True positions (and sunlit flags) of every catalog satellite at one
/// instant — the shared input for several same-instant field-of-view
/// queries. Entries are `None` for unlaunched or decayed satellites.
#[derive(Debug)]
pub struct Snapshot {
    at: JulianDate,
    positions: Vec<Option<SnapshotEntry>>,
    /// Spatial index over the entries, built lazily by the first
    /// field-of-view query that wants it and shared by every later one
    /// (snapshots travel between terminals and worker threads as `Arc`s).
    index: OnceLock<VisibilityIndex>,
}

impl Clone for Snapshot {
    fn clone(&self) -> Snapshot {
        let index = OnceLock::new();
        if let Some(built) = self.index.get() {
            let _ = index.set(built.clone());
        }
        Snapshot { at: self.at, positions: self.positions.clone(), index }
    }
}

impl Snapshot {
    /// The instant the snapshot was taken at.
    pub fn at(&self) -> JulianDate {
        self.at
    }

    /// Number of catalog entries (including unavailable ones).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the snapshot covers no satellites.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Per-satellite entries, indexed like [`Constellation::sats`].
    pub fn entries(&self) -> &[Option<SnapshotEntry>] {
        &self.positions
    }

    /// The snapshot's [`VisibilityIndex`], built on first use and reused
    /// by every subsequent caller (and thread) sharing the snapshot.
    pub fn visibility_index(&self) -> &VisibilityIndex {
        self.index.get_or_init(|| VisibilityIndex::build(self))
    }
}

/// A complete satellite catalog.
#[derive(Debug, Clone)]
pub struct Constellation {
    sats: Vec<Satellite>,
    /// Struct-of-arrays transposes of every satellite's propagators, built
    /// once at construction so whole-catalog propagation (snapshots,
    /// published rows) runs through the batched SGP4 path. Lane `i`
    /// corresponds to `sats[i]`.
    truth_batch: Sgp4Batch,
    published_batch: Sgp4Batch,
}

impl Constellation {
    /// Wraps a list of satellites. IDs must be unique.
    ///
    /// # Panics
    ///
    /// Panics if two satellites share a NORAD id (a generation bug).
    pub fn new(sats: Vec<Satellite>) -> Constellation {
        let mut ids: Vec<u32> = sats.iter().map(|s| s.norad_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sats.len(), "duplicate NORAD ids in catalog");
        let truth_batch = Sgp4Batch::from_propagators(sats.iter().map(|s| &s.truth));
        let published_batch = Sgp4Batch::from_propagators(sats.iter().map(|s| &s.published_sgp4));
        Constellation { sats, truth_batch, published_batch }
    }

    /// All satellites.
    pub fn sats(&self) -> &[Satellite] {
        &self.sats
    }

    /// Number of satellites.
    pub fn len(&self) -> usize {
        self.sats.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.sats.is_empty()
    }

    /// Looks a satellite up by catalog number.
    pub fn get(&self, norad_id: u32) -> Option<&Satellite> {
        self.sats.iter().find(|s| s.norad_id == norad_id)
    }

    /// Every satellite above `min_elevation_deg` as seen from `observer` at
    /// `at`, using **true** positions — this is the scheduler's view and the
    /// ground truth for "available satellites".
    ///
    /// The paper: "terminals can connect to any satellite at an angle of
    /// elevation higher than 25°" and "on average, there are ∼40 satellites
    /// in the field of view of a user terminal during a 15 second slot".
    pub fn field_of_view(
        &self,
        observer: Geodetic,
        at: JulianDate,
        min_elevation_deg: f64,
    ) -> Vec<VisibleSat> {
        let snap = self.snapshot(at);
        self.field_of_view_from(&snap, observer, min_elevation_deg)
    }

    /// Propagates the whole catalog once at `at` (true positions), so that
    /// several field-of-view queries at the same instant — one per terminal
    /// every slot — share the propagation work.
    ///
    /// Runs through the struct-of-arrays [`Sgp4Batch`] path; each entry is
    /// bit-identical to what per-satellite [`Satellite::true_position`]
    /// calls would produce (the batch propagator's contract).
    pub fn snapshot(&self, at: JulianDate) -> Snapshot {
        let sun = sun_position_teme(at);
        let mut teme = Vec::new();
        self.truth_batch.positions_into(at, &mut teme);
        let positions = self
            .sats
            .iter()
            .zip(&teme)
            .map(|(sat, lane)| {
                if sat.launch.date > at {
                    return None; // not yet in orbit
                }
                let teme = (*lane)?;
                Some(SnapshotEntry {
                    teme,
                    ecef: teme_to_ecef(teme, at),
                    sunlit: is_sunlit_given_sun(teme, sun),
                })
            })
            .collect();
        Snapshot { at, positions, index: OnceLock::new() }
    }

    /// Published-TLE TEME positions of the whole catalog at `at`, through
    /// the batched path — bit-identical, entry for entry, to calling
    /// [`Satellite::published_position`] per satellite. Indexed like
    /// [`Constellation::sats`].
    pub fn published_row(&self, at: JulianDate) -> Vec<Option<Vec3>> {
        self.published_batch.positions_at(at)
    }

    /// Field-of-view query against a prepared [`Snapshot`].
    ///
    /// # Panics
    ///
    /// Panics when `snap` was taken from a different catalog (length
    /// mismatch).
    pub fn field_of_view_from(
        &self,
        snap: &Snapshot,
        observer: Geodetic,
        min_elevation_deg: f64,
    ) -> Vec<VisibleSat> {
        assert_eq!(snap.positions.len(), self.sats.len(), "snapshot/catalog mismatch");
        let topo = Topocentric::new(observer);
        let mut out = Vec::new();
        for (si, entry) in snap.positions.iter().enumerate() {
            let Some(entry) = entry else { continue };
            self.admit(snap, si, entry, &topo, min_elevation_deg, &mut out);
        }
        out
    }

    /// Field-of-view query answered through the snapshot's
    /// [`VisibilityIndex`]: only the candidate bucket neighborhood is
    /// tested instead of the whole catalog. The index returns a provable
    /// superset in catalog order and this method applies the *same*
    /// per-satellite test as [`Constellation::field_of_view_from`], so the
    /// result is bit-identical to the linear scan (property-tested in
    /// `tests/properties.rs`).
    ///
    /// `scratch` holds the candidate indices between calls so a per-slot,
    /// per-terminal caller allocates nothing here; pass any `Vec` (it is
    /// cleared first).
    ///
    /// # Panics
    ///
    /// Panics when `snap` was taken from a different catalog (length
    /// mismatch).
    pub fn field_of_view_indexed(
        &self,
        snap: &Snapshot,
        observer: Geodetic,
        min_elevation_deg: f64,
        scratch: &mut Vec<u32>,
    ) -> Vec<VisibleSat> {
        assert_eq!(snap.positions.len(), self.sats.len(), "snapshot/catalog mismatch");
        snap.visibility_index().candidates_into(observer, min_elevation_deg, scratch);
        self.field_of_view_from_candidates(snap, observer, min_elevation_deg, scratch)
    }

    /// Field-of-view query over an explicit candidate list (ascending
    /// catalog indices) — the exact-test half the cohort fast path runs
    /// after its shared superset + prefilter stage. Applies the same
    /// per-satellite `Constellation::admit` test as the linear scan, so
    /// as long as `candidates` is a superset of the satellites above the
    /// cutoff the result is bit-identical to
    /// [`Constellation::field_of_view_from`].
    ///
    /// # Panics
    ///
    /// Panics when `snap` was taken from a different catalog (length
    /// mismatch) or a candidate index is out of range.
    pub fn field_of_view_from_candidates(
        &self,
        snap: &Snapshot,
        observer: Geodetic,
        min_elevation_deg: f64,
        candidates: &[u32],
    ) -> Vec<VisibleSat> {
        assert_eq!(snap.positions.len(), self.sats.len(), "snapshot/catalog mismatch");
        let topo = Topocentric::new(observer);
        // The candidate list is a tight superset (tens of entries), so
        // sizing the result to it up front turns the ~log2(len) grow-and-
        // copy reallocations per call into one allocation — measurable at
        // 10⁴–10⁵ retained per-terminal lists per slot.
        let mut out = Vec::with_capacity(candidates.len());
        for &si in candidates {
            let si = si as usize;
            let Some(entry) = &snap.positions[si] else { continue };
            self.admit(snap, si, entry, &topo, min_elevation_deg, &mut out);
        }
        out
    }

    /// The one per-satellite visibility test every field-of-view path
    /// shares: compute exact look angles (through the caller's cached
    /// [`Topocentric`] frame — bit-identical to the free `look_angles`)
    /// and admit the satellite when it clears the cutoff. Keeping this in
    /// one place is what makes the indexed and cohort paths bit-identical
    /// to the linear scan by construction.
    #[inline]
    fn admit(
        &self,
        snap: &Snapshot,
        si: usize,
        entry: &SnapshotEntry,
        topo: &Topocentric,
        min_elevation_deg: f64,
        out: &mut Vec<VisibleSat>,
    ) {
        let sat = &self.sats[si];
        let look = topo.look_angles(entry.ecef);
        if look.elevation_deg >= min_elevation_deg {
            out.push(VisibleSat {
                norad_id: sat.norad_id,
                catalog_index: si as u32,
                look,
                teme: entry.teme,
                sunlit: entry.sunlit,
                age_days: sat.age_days(snap.at),
                launch: sat.launch,
            });
        }
    }

    /// Renders the published catalog as CelesTrak-style 3LE text, exercising
    /// the TLE formatting path end-to-end.
    pub fn published_catalog_text(&self) -> String {
        let mut out = String::new();
        for sat in &self.sats {
            let (l1, l2) = sat.published.format_lines();
            out.push_str(&sat.name);
            out.push('\n');
            out.push_str(&l1);
            out.push('\n');
            out.push_str(&l2);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ConstellationBuilder;

    fn mini() -> Constellation {
        ConstellationBuilder::starlink_mini().seed(42).build()
    }

    #[test]
    fn mini_constellation_has_expected_size() {
        let c = mini();
        assert!(c.len() > 300, "len = {}", c.len());
        assert!(!c.is_empty());
    }

    #[test]
    fn get_finds_each_satellite() {
        let c = mini();
        let first = &c.sats()[0];
        assert_eq!(c.get(first.norad_id).unwrap().norad_id, first.norad_id);
        assert!(c.get(999_999).is_none());
    }

    #[test]
    fn field_of_view_contains_tens_of_sats_for_full_constellation() {
        // Full-scale constellation: paper reports ~40 sats above 25°.
        let c = ConstellationBuilder::starlink_gen1().seed(1).build();
        let iowa = Geodetic::new(41.66, -91.53, 0.2);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let fov = c.field_of_view(iowa, at, 25.0);
        assert!(
            (15..=90).contains(&fov.len()),
            "expected tens of visible satellites, got {}",
            fov.len()
        );
        for v in &fov {
            assert!(v.look.elevation_deg >= 25.0);
            assert!((0.0..360.0).contains(&v.look.azimuth_deg));
            assert!(v.age_days >= 0.0);
        }
    }

    #[test]
    fn unlaunched_satellites_are_invisible() {
        let c = mini();
        // Before the first launch date nothing should be visible.
        let earliest = c.sats().iter().map(|s| s.launch.date.0).fold(f64::INFINITY, f64::min);
        let before = JulianDate(earliest - 10.0);
        let iowa = Geodetic::new(41.66, -91.53, 0.2);
        assert!(c.field_of_view(iowa, before, 25.0).is_empty());
    }

    #[test]
    fn published_position_differs_from_truth_but_not_wildly() {
        let c = mini();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let mut diffs = Vec::new();
        for sat in c.sats().iter().take(50) {
            let (Some(t), Some(p)) = (sat.true_position(at), sat.published_position(at)) else {
                continue;
            };
            diffs.push(t.distance(p));
        }
        assert!(!diffs.is_empty());
        let max = diffs.iter().copied().fold(0.0, f64::max);
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        assert!(mean > 0.001, "published TLEs should not be exact (mean diff {mean} km)");
        assert!(max < 500.0, "published TLEs should stay useful (max diff {max} km)");
    }

    #[test]
    fn catalog_text_round_trips_through_parser() {
        let c = mini();
        let text = c.published_catalog_text();
        let parsed = Tle::parse_catalog(&text).expect("catalog must re-parse");
        assert_eq!(parsed.len(), c.len());
        assert_eq!(parsed[0].norad_id, c.sats()[0].norad_id);
    }

    #[test]
    fn snapshot_fov_matches_direct_fov() {
        let c = mini();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0);
        let iowa = Geodetic::new(41.66, -91.53, 0.2);
        let direct = c.field_of_view(iowa, at, 25.0);
        let snap = c.snapshot(at);
        assert_eq!(snap.len(), c.len());
        assert!(!snap.is_empty());
        assert!((snap.at().0 - at.0).abs() < 1e-12);
        let via_snap = c.field_of_view_from(&snap, iowa, 25.0);
        assert_eq!(direct.len(), via_snap.len());
        for (a, b) in direct.iter().zip(&via_snap) {
            assert_eq!(a.norad_id, b.norad_id);
            assert_eq!(a.look, b.look);
            assert_eq!(a.sunlit, b.sunlit);
        }
    }

    #[test]
    #[should_panic(expected = "snapshot/catalog mismatch")]
    fn snapshot_from_other_catalog_panics() {
        let a = mini();
        let b = ConstellationBuilder::starlink_gen1().seed(1).build();
        let snap = a.snapshot(JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0));
        let _ = b.field_of_view_from(&snap, Geodetic::new(0.0, 0.0, 0.0), 25.0);
    }

    #[test]
    #[should_panic(expected = "duplicate NORAD ids")]
    fn duplicate_ids_panic() {
        let c = mini();
        let mut sats = c.sats().to_vec();
        let dup = sats[0].clone();
        sats.push(dup);
        let _ = Constellation::new(sats);
    }

    #[test]
    fn age_days_is_positive_after_launch() {
        let c = mini();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        for s in c.sats().iter().take(20) {
            assert!(s.age_days(at) > 0.0);
        }
    }
}
