//! The satellite catalog: per-satellite state and field-of-view queries.

use crate::envelope::Envelopes;
use crate::index::VisibilityIndex;
use starsense_astro::frames::{Geodetic, LookAngles, Topocentric};
use starsense_astro::mat3::Mat3;
use starsense_astro::sun::EarthShadow;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use starsense_sgp4::{wgs72, Elements, Sgp4, Tle};
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

/// Altitude floor (km) of a propagated position: one whose radius is
/// below the WGS-72 equatorial radius plus this reads as decayed. SGP4
/// reports decay only once the radius drops below one Earth radius, so
/// under heavy drag it can hold a satellite a few km up for hours,
/// succeeding and failing from one slot to the next; nothing orbits
/// below ~100 km.
pub const DECAY_ALTITUDE_KM: f64 = 100.0;

/// `teme` if it lies at or above [`DECAY_ALTITUDE_KM`], else `None`.
fn above_decay_floor(teme: Vec3) -> Option<Vec3> {
    const FLOOR_RADIUS_KM: f64 = wgs72::EARTH_RADIUS_KM + DECAY_ALTITUDE_KM;
    (teme.dot(teme) >= FLOOR_RADIUS_KM * FLOOR_RADIUS_KM).then_some(teme)
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
    /// Returns `None` if propagation fails or the position lies below
    /// [`DECAY_ALTITUDE_KM`] (decay) — callers treat such a satellite as
    /// unavailable.
    pub fn true_position(&self, at: JulianDate) -> Option<Vec3> {
        self.truth.position(at).ok().and_then(above_decay_floor)
    }

    /// TEME position predicted from the *published* TLE (what the paper's
    /// measurement methodology has access to); `None` as for
    /// [`Satellite::true_position`].
    pub fn published_position(&self, at: JulianDate) -> Option<Vec3> {
        self.published_sgp4.position(at).ok().and_then(above_decay_floor)
    }

    /// The truth propagator.
    pub(crate) fn truth_sgp4(&self) -> &Sgp4 {
        &self.truth
    }

    /// The published-TLE propagator.
    pub(crate) fn published_sgp4(&self) -> &Sgp4 {
        &self.published_sgp4
    }

    /// Age of the satellite at `at`, in days since launch.
    pub fn age_days(&self, at: JulianDate) -> f64 {
        at.seconds_since(self.launch.date) / 86_400.0
    }
}

/// A satellite visible from a terminal at one instant, with everything the
/// scheduler and the analyses need about it.
#[derive(Debug, Clone)]
pub struct VisibleSat {
    /// Catalog number.
    pub norad_id: u32,
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
    /// Spatial index over the entries, built by `PropagationCache::prepare`
    /// for prepared rows, else lazily by the first field-of-view query that
    /// wants it, and shared by every later one (snapshots travel between
    /// terminals and worker threads as `Arc`s).
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

    /// Whether the index has been built.
    #[cfg(test)]
    pub(crate) fn has_index(&self) -> bool {
        self.index.get().is_some()
    }
}

/// A complete satellite catalog.
#[derive(Debug, Clone)]
pub struct Constellation {
    sats: Vec<Satellite>,
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
        Constellation { sats }
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

    /// Propagates the whole catalog once at `at` (true positions), so that
    /// several field-of-view queries at the same instant — one per terminal
    /// every slot — share the propagation work. Each entry's position is
    /// [`Satellite::true_position`], its `ecef` is `teme_to_ecef(teme, at)`
    /// and its `sunlit` is `is_sunlit(teme, at)`, bit for bit; the rotation
    /// and the sun geometry behind both are computed once per instant.
    pub fn snapshot(&self, at: JulianDate) -> Snapshot {
        self.snapshot_keeping(at, None)
    }

    /// [`Constellation::snapshot`] propagating only the satellites `keep`
    /// marks (all of them for `None`); the others read `None`.
    pub(crate) fn snapshot_keeping(&self, at: JulianDate, keep: Option<&[bool]>) -> Snapshot {
        let rotation = Mat3::rot_z(at.gmst_rad());
        let shadow = EarthShadow::at(at);
        let positions = self
            .sats
            .iter()
            .enumerate()
            .map(|(i, sat)| {
                if sat.launch.date > at || keep.is_some_and(|keep| !keep[i]) {
                    return None; // not yet in orbit, or culled
                }
                let teme = sat.true_position(at)?;
                Some(SnapshotEntry { teme, ecef: rotation * teme, sunlit: shadow.is_sunlit(teme) })
            })
            .collect();
        Snapshot { at, positions, index: OnceLock::new() }
    }

    /// Published-TLE TEME positions of the whole catalog at `at`: one
    /// [`Satellite::published_position`] per satellite, indexed like
    /// [`Constellation::sats`].
    pub fn published_row(&self, at: JulianDate) -> Vec<Option<Vec3>> {
        self.sats.iter().map(|sat| sat.published_position(at)).collect()
    }

    /// Every satellite's truth-orbit [`Envelope`](crate::Envelope) over
    /// `[from, to]`.
    pub fn true_envelopes(&self, from: JulianDate, to: JulianDate) -> Envelopes {
        Envelopes::new(self.sats.iter().map(Satellite::truth_sgp4), from, to)
    }

    /// Every satellite's published-TLE [`Envelope`](crate::Envelope) over
    /// `[from, to]`.
    pub fn published_envelopes(&self, from: JulianDate, to: JulianDate) -> Envelopes {
        Envelopes::new(self.sats.iter().map(Satellite::published_sgp4), from, to)
    }

    /// Every satellite among `candidates` above `min_elevation_deg` as seen
    /// from `observer` at the snapshot's instant, using **true** positions —
    /// this is the scheduler's view and the ground truth for "available
    /// satellites".
    ///
    /// The paper: "terminals can connect to any satellite at an angle of
    /// elevation higher than 25°" and "on average, there are ∼40 satellites
    /// in the field of view of a user terminal during a 15 second slot".
    ///
    /// `candidates` are ascending catalog indices (indices into
    /// [`Constellation::sats`] and [`Snapshot::entries`]); each one gets
    /// the exact look-angle test, so any superset of the satellites above
    /// the cutoff gives the same result, in catalog order:
    ///
    /// * every index `0..len` is the full-catalog scan;
    /// * [`VisibilityIndex::candidates`] narrows the scan to the observer's
    ///   visibility cap;
    /// * the scheduler's cohort path passes each member's prefiltered share
    ///   of its cohort's superset.
    ///
    /// # Panics
    ///
    /// Panics when `snap` was taken from a different catalog (length
    /// mismatch) or a candidate index is out of range.
    pub fn field_of_view(
        &self,
        snap: &Snapshot,
        observer: Geodetic,
        min_elevation_deg: f64,
        candidates: &[u32],
    ) -> Vec<VisibleSat> {
        assert_eq!(snap.positions.len(), self.sats.len(), "snapshot/catalog mismatch");
        // Look angles go through one cached observer frame, bit-identical
        // to the free `look_angles`.
        let topo = Topocentric::new(observer);
        // On the cohort path the candidate list is a tight superset (tens
        // of entries), so sizing the result to it up front turns the
        // ~log2(len) grow-and-copy reallocations per call into one
        // allocation — measurable at 10⁴–10⁵ retained per-terminal lists
        // per slot.
        let mut out = Vec::with_capacity(candidates.len());
        for &si in candidates {
            let si = si as usize;
            let Some(entry) = &snap.positions[si] else { continue };
            let sat = &self.sats[si];
            let look = topo.look_angles(entry.ecef);
            if look.elevation_deg >= min_elevation_deg {
                out.push(VisibleSat {
                    norad_id: sat.norad_id,
                    look,
                    teme: entry.teme,
                    sunlit: entry.sunlit,
                    age_days: sat.age_days(snap.at),
                    launch: sat.launch,
                });
            }
        }
        out
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

    /// The full-catalog scan: every satellite above the cutoff at `at`.
    fn scan(c: &Constellation, observer: Geodetic, at: JulianDate) -> Vec<VisibleSat> {
        let all: Vec<u32> = (0..c.len() as u32).collect();
        c.field_of_view(&c.snapshot(at), observer, 25.0, &all)
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
        let fov = scan(&c, iowa, at);
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
        assert!(scan(&c, iowa, before).is_empty());
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
    fn snapshot_reports_its_instant_and_catalog_length() {
        let c = mini();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0);
        let snap = c.snapshot(at);
        assert_eq!(snap.len(), c.len());
        assert!(!snap.is_empty());
        assert!((snap.at().0 - at.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "snapshot/catalog mismatch")]
    fn snapshot_from_other_catalog_panics() {
        let a = mini();
        let b = ConstellationBuilder::starlink_gen1().seed(1).build();
        let snap = a.snapshot(JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0));
        let _ = b.field_of_view(&snap, Geodetic::new(0.0, 0.0, 0.0), 25.0, &[]);
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
    fn decayed_satellite_reads_none_without_disturbing_neighbors() {
        let epoch = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let launch =
            LaunchBatch { index: 0, date: JulianDate(epoch.0 - 30.0), year: 2023, month: 5 };
        let sat = |id: u32, raan: f64, argp: f64, ma: f64, bstar: f64| {
            let elements =
                Elements::from_catalog_units(id, epoch, 15.06, 0.0001, 53.0, raan, argp, ma, bstar);
            let published = Tle {
                name: None,
                norad_id: id,
                classification: 'U',
                intl_designator: "23001A".to_string(),
                epoch,
                ndot: 0.0,
                nddot: 0.0,
                bstar,
                element_set_no: 999,
                inclination_deg: 53.0,
                raan_deg: raan,
                eccentricity: 0.0001,
                arg_perigee_deg: argp,
                mean_anomaly_deg: ma,
                mean_motion_rev_day: 15.06,
                rev_number: 1,
            };
            Satellite::new(format!("TEST-{id}"), launch, elements, published).unwrap()
        };
        // Healthy, absurd drag (decays within days), healthy.
        let c = Constellation::new(vec![
            sat(1, 10.0, 20.0, 30.0, 0.00012),
            sat(2, 40.0, 50.0, 60.0, 0.1),
            sat(3, 10.0, 20.0, 30.0, 0.00012),
        ]);
        let all = [0, 1, 2];
        let (mut truth_decayed, mut published_decayed) = (false, false);
        for day in 1..60 {
            let at = epoch.plus_minutes(day as f64 * 1440.0);
            let snap = c.snapshot(at);
            let row = c.published_row(at);
            let entries = snap.entries();
            assert!(entries[0].is_some() && entries[2].is_some(), "day {day}");
            assert!(row[0].is_some() && row[2].is_some(), "day {day}");
            truth_decayed |= entries[1].is_none();
            published_decayed |= row[1].is_none();
            // A cutoff below the horizon admits every available satellite.
            let fov = c.field_of_view(&snap, Geodetic::new(0.0, 0.0, 0.0), -90.0, &all);
            let ids: Vec<u32> = fov.iter().map(|v| v.norad_id).collect();
            if entries[1].is_none() {
                assert_eq!(ids, [1, 3], "day {day}");
            } else {
                assert_eq!(ids, [1, 2, 3], "day {day}");
            }
        }
        assert!(truth_decayed, "expected the draggy satellite's truth to decay");
        assert!(published_decayed, "expected the draggy satellite's published TLE to decay");
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
