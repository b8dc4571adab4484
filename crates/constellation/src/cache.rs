//! Per-epoch propagation table shared by a campaign's workers.
//!
//! A measurement campaign asks for the same instants over and over: every
//! terminal's field-of-view query hits the slot's epoch, and every
//! terminal's candidate generator hits the slot's two boundary epochs.
//! [`PropagationCache`] holds both the **true** catalog snapshot
//! (scheduler side) and the **published**-TLE positions (identification
//! side) per exact epoch, so the constellation is SGP4-propagated once per
//! instant no matter how many terminals — or worker threads — observe it.
//!
//! The table is built once by [`PropagationCache::prepare`] (a single,
//! optionally parallel fill: one position-only SGP4 call per satellite
//! per epoch) and never changes after that. Lookups are a binary search
//! over a frozen `Vec` behind a `OnceLock`: **no lock, no write, no
//! contention**, which is what lets the sharded campaign workers scale
//! with cores. The campaign engine prepares every slot epoch (and, in identified mode,
//! every slot boundary epoch) up front. A lookup of an epoch nobody
//! prepared propagates the row directly and returns it without storing
//! it; it counts as a miss.
//!
//! Determinism: an epoch is keyed by the exact bit pattern of its Julian
//! date, and a row is a pure function of (catalog, epoch), so a prepared
//! row is bit-identical to recomputation and results cannot depend on
//! which thread filled it, nor on whether the epoch was prepared.
//!
//! # Observer culling
//!
//! A cache built with [`PropagationCache::for_observers`] knows the
//! campaign's observers and the lowest elevation cutoff any consumer
//! applies. Most of the catalog is then far below every observer's sky,
//! and `prepare` skips it. It fills a full-width **key row** at some
//! epochs, placed so that every other prepared epoch of the same kind
//! (truth or published) lies within [`KEY_REACH_S`] of its key. It checks
//! each satellite of a key row against the bound below, once; every other
//! row served by that key propagates only the satellites the key keeps.
//! A skipped satellite is **culled**: a truth snapshot holds `None` for
//! it (the same as an unlaunched satellite, which every field-of-view path
//! already skips), and a [`PublishedRow`] marks it apart from a failed
//! propagation. A kept satellite's entry is bit-identical to a full row's,
//! so culling changes which entries exist, never their bits.
//!
//! Keys sit at most `2 · KEY_REACH_S` apart wherever the epochs allow, so
//! the reaches of consecutive keys touch: an instant between two prepared
//! epochs lies within the reach of one of their keys.
//! A [`PublishedRow`] names the satellites its key dismissed — culled in
//! the rows the key serves, propagated anyway in the key row — and
//! [`PublishedRow::dismissed_below_at`] tells a consumer whether they are
//! proven below the cutoff at an instant.
//!
//! A keep set is a pure function of (catalog, key epoch, observers,
//! cutoff), so it cannot depend on threads or shards.
//! [`PropagationCache::new`] culls nothing.
//!
//! # Soundness
//!
//! Let `p_k` be a satellite's ECEF position in the key row at epoch `k`,
//! `r_k = |p_k|`, `F` = [`R_FLOOR_KM`], `v_esc(F) = sqrt(2μ/F)`,
//! `T` = [`KEY_REACH_S`] and `r_top` the largest radius in the key row
//! plus `v_esc(F) · T`. Let `ψ_o(r)` be the visibility cap of observer
//! `o` over satellites no higher than `r`: the ψ_max bound of
//! [`VisibilityIndex`](crate::VisibilityIndex), with its 0.25°
//! zenith-deflection margin and its 0.02° rounding guard. The satellite is
//! culled only when all of the following hold:
//!
//! * `r_k − v_esc(F) · T ≥ F`, and `r_k − v_esc(F) · T` is above every
//!   observer's geocentric radius;
//! * for every observer `o`, `angle(p_k, o) > ψ_o(r_top) + (v_esc(F)/F +
//!   ω⊕) · T`, with `ω⊕` = [`OMEGA_EARTH_RAD_S`].
//!
//! Then, at every instant `t` with `|t − k| ≤ T`, its elevation is below
//! the cutoff from every observer:
//!
//! 1. **Radius.** While a bound orbit's radius is at least `F`, its speed
//!    is below `v_esc(F)`. Its radius therefore moves by less than
//!    `v_esc(F) · T` over the reach, so it stays in
//!    `[r_k − v_esc(F)·T, r_k + v_esc(F)·T]`: at least `F`, above every
//!    observer, and at most `r_top`.
//! 2. **Direction.** The ECEF velocity is the TEME velocity less
//!    `ω⊕ × r`, so the position's direction turns at most at
//!    `|v|/r + ω⊕ ≤ v_esc(F)/F + ω⊕` radians per second. Over the reach
//!    it moves at most `(v_esc(F)/F + ω⊕) · T` from `p_k`'s direction.
//! 3. **Cap.** By the triangle inequality on the sphere,
//!    `angle(p(t), o) > ψ_o(r_top)`. The cap grows with satellite radius
//!    (`acos((R_o/r) cos e) − e` rises with `r` while `R_o < r`), and
//!    `|p(t)| ≤ r_top`, so `angle(p(t), o) > ψ_o(|p(t)|)`: the satellite
//!    is below the cutoff less the zenith-deflection margin in geocentric
//!    elevation, hence below the cutoff in geodetic elevation.
//!
//! The per-observer test is not run per satellite. Each key row marks a
//! direction grid of 1.5° cells (the visibility index's finest) with
//! every cell that can intersect some observer's widened cap, using the
//! index's conservative row/column cover: a few runs of cells per grid
//! row per observer. Each satellite then costs one cell lookup, whatever
//! the observer count. A satellite in an unmarked cell is farther from
//! every observer than that observer's widened cap, as the bound
//! requires.
//!
//! A satellite with no key-row entry (unlaunched, or failed to propagate)
//! is always kept. A cutoff outside [0°, 90°), no observers, a
//! non-finite observer, or a NaN or ≥ 60° widened cap (where the grid
//! cover is not drawn) keeps everything. The bound only speaks for the
//! cache's own observers at or above its cutoff:
//! [`PropagationCache::culls_for`] says whether a consumer may rely on it.

use crate::catalog::{Constellation, Snapshot};
use crate::index::{cap_radius_deg, direction_deg, DirectionGrid, FULL_SCAN_CAP_DEG, MIN_CELL_DEG};
use starsense_astro::frames::{geodetic_to_ecef, Geodetic};
use starsense_astro::mat3::Mat3;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use starsense_sgp4::wgs72;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// How far (s) a prepared epoch may lie from the key row whose keep set
/// it uses: two 15-second slot periods, so one key serves the epochs two
/// slots either side of it, plus 0.1 s for float epoch rounding.
pub const KEY_REACH_S: f64 = 30.1;

/// Lowest orbital-radius floor (km) the speed and turn-rate bounds are
/// drawn for: ~120 km altitude, far below anything that completes an
/// orbit.
pub const R_FLOOR_KM: f64 = 6500.0;

/// Earth rotation rate (rad/s), bounding how fast the ECEF frame turns
/// under a TEME direction.
pub const OMEGA_EARTH_RAD_S: f64 = 7.292_115_9e-5;

/// Hit/miss counters, for benches and capacity planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the prepared table.
    pub hits: usize,
    /// Lookups of unprepared epochs, each of which propagated a full
    /// catalog row or snapshot.
    pub misses: usize,
    /// Prepared true-snapshot epochs.
    pub truth_entries: usize,
    /// Prepared published-position epochs.
    pub published_entries: usize,
    /// Satellite-rows the prepared table skipped by observer culling,
    /// summed over both kinds of row.
    pub culled: usize,
}

/// Published-TLE TEME positions of the catalog at one epoch, indexed like
/// [`Constellation::sats`].
#[derive(Debug)]
pub struct PublishedRow {
    /// `None` where propagation failed or the satellite was culled.
    positions: Vec<Option<Vec3>>,
    /// The satellites the keep test of the row's key dismissed; empty for
    /// a full-width row. A key row propagates them anyway, a row it
    /// serves culls them.
    dismissed: Vec<bool>,
    /// The key epoch whose keep set the row used, if any.
    key: Option<JulianDate>,
}

impl PublishedRow {
    /// Per-satellite positions: `None` where propagation failed or the
    /// satellite was culled ([`PublishedRow::is_culled`] tells which).
    pub fn positions(&self) -> &[Option<Vec3>] {
        &self.positions
    }

    /// Whether the keep test of the row's key dismissed satellite `index`:
    /// it is proven below the cutoff wherever
    /// [`PublishedRow::dismissed_below_at`] holds.
    pub fn is_dismissed(&self, index: usize) -> bool {
        self.dismissed.get(index).copied().unwrap_or(false)
    }

    /// Whether satellite `index` was culled: dismissed, and therefore not
    /// propagated at this epoch (a key row propagates what it dismisses).
    pub fn is_culled(&self, index: usize) -> bool {
        self.is_dismissed(index) && self.positions[index].is_none()
    }

    /// The key epoch whose keep set this row used — the row's own epoch
    /// for a key row — or `None` for a full-width row of a cache that
    /// culls nothing.
    pub fn cull_key(&self) -> Option<JulianDate> {
        self.key
    }

    /// Whether every dismissed satellite of this row is proven below the
    /// cache's cutoff, from every one of its observers, at `at`: true
    /// within [`KEY_REACH_S`] of the row's key epoch (module docs,
    /// *Soundness*).
    pub fn dismissed_below_at(&self, at: JulianDate) -> bool {
        self.key.is_some_and(|k| at.seconds_since(k).abs() <= KEY_REACH_S)
    }
}

/// The immutable epoch table: sorted epoch keys with their propagated
/// rows, built once and never mutated, so readers need no synchronization
/// beyond the `OnceLock` publication.
#[derive(Debug, Default)]
struct PreparedEpochs {
    truth_keys: Vec<u64>,
    truth_rows: Vec<Arc<Snapshot>>,
    published_keys: Vec<u64>,
    published_rows: Vec<Arc<PublishedRow>>,
    culled: usize,
}

/// One observer of a culling cache.
#[derive(Debug, Clone, Copy)]
struct CullObserver {
    /// Geocentric latitude and longitude, degrees.
    direction: (f64, f64),
    radius_km: f64,
}

/// What a culling cache culls for: its observers and cutoff.
#[derive(Debug)]
struct CullSpec {
    observers: Vec<CullObserver>,
    /// The observers' geodetic bit patterns, sorted, for
    /// [`PropagationCache::culls_for`].
    observer_bits: Vec<[u64; 3]>,
    /// Largest observer geocentric radius, km.
    max_observer_radius_km: f64,
    min_elevation_deg: f64,
    grid: DirectionGrid,
}

/// A geodetic position's exact bit pattern.
fn geodetic_bits(g: Geodetic) -> [u64; 3] {
    [g.lat_deg.to_bits(), g.lon_deg.to_bits(), g.alt_km.to_bits()]
}

impl CullSpec {
    /// The spec for `observers` at `min_elevation_deg`, or `None` when it
    /// could cull nothing soundly (module docs).
    fn new(observers: &[Geodetic], min_elevation_deg: f64) -> Option<CullSpec> {
        let finite =
            |g: &Geodetic| g.lat_deg.is_finite() && g.lon_deg.is_finite() && g.alt_km.is_finite();
        if !(0.0..90.0).contains(&min_elevation_deg)
            || observers.is_empty()
            || !observers.iter().all(finite)
        {
            return None;
        }
        let mut observer_bits: Vec<[u64; 3]> =
            observers.iter().map(|&g| geodetic_bits(g)).collect();
        observer_bits.sort_unstable();
        observer_bits.dedup();
        let observers: Vec<CullObserver> = observers
            .iter()
            .map(|&g| {
                let ecef = geodetic_to_ecef(g);
                CullObserver { direction: direction_deg(ecef), radius_km: ecef.norm() }
            })
            .collect();
        let max_observer_radius_km = observers.iter().map(|o| o.radius_km).fold(0.0, f64::max);
        Some(CullSpec {
            observers,
            observer_bits,
            max_observer_radius_km,
            min_elevation_deg,
            grid: DirectionGrid::new(MIN_CELL_DEG),
        })
    }

    /// The keep set of a key row with ECEF positions `ecef` (module docs,
    /// *Soundness*), or `None` to keep every satellite.
    fn keep_set(&self, ecef: &[Option<Vec3>]) -> Option<Vec<bool>> {
        let speed = (2.0 * wgs72::MU / R_FLOOR_KM).sqrt();
        let drift_km = speed * KEY_REACH_S;
        let turn_deg = ((speed / R_FLOOR_KM + OMEGA_EARTH_RAD_S) * KEY_REACH_S).to_degrees();
        let r_top = ecef.iter().flatten().map(|p| p.norm()).fold(0.0, f64::max) + drift_km;
        let mut marked = vec![false; self.grid.len()];
        for o in &self.observers {
            let cap = cap_radius_deg(o.radius_km, r_top, self.min_elevation_deg)? + turn_deg;
            if cap.is_nan() || cap >= FULL_SCAN_CAP_DEG {
                return None;
            }
            self.grid.cap_runs(o.direction, cap, |from, to| marked[from..to].fill(true));
        }
        let keep = ecef.iter().map(|p| {
            let Some(p) = p else { return true };
            let r_low = p.norm() - drift_km;
            let eligible = r_low >= R_FLOOR_KM && r_low > self.max_observer_radius_km;
            !eligible || marked[self.grid.cell(*p)]
        });
        Some(keep.collect())
    }
}

/// A lock-free table of per-epoch propagation results for one
/// [`Constellation`].
#[derive(Debug)]
pub struct PropagationCache<'a> {
    constellation: &'a Constellation,
    /// Observers and cutoff to cull for; `None` culls nothing.
    cull: Option<CullSpec>,
    /// The prepared epoch table (see module docs).
    prepared: OnceLock<PreparedEpochs>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Sorted, deduplicated bit-pattern keys for a list of epochs.
fn sorted_keys(epochs: &[JulianDate]) -> Vec<u64> {
    let mut keys: Vec<u64> = epochs.iter().map(|at| at.0.to_bits()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

fn epoch(bits: u64) -> JulianDate {
    JulianDate(f64::from_bits(bits))
}

/// For sorted epoch keys, the index of each epoch's key epoch (module
/// docs): every epoch lies within [`KEY_REACH_S`] of its key, and a key
/// sits at most `2 · KEY_REACH_S` after the previous one whenever the
/// first epoch the previous key does not reach allows it. An epoch within
/// reach of two keys uses the earlier.
fn place_keys(keys: &[u64]) -> Vec<usize> {
    let gap = |a: usize, b: usize| epoch(keys[b]).seconds_since(epoch(keys[a]));
    let mut key_of = Vec::with_capacity(keys.len());
    let mut previous: Option<usize> = None;
    while key_of.len() < keys.len() {
        // The first epoch no key reaches yet.
        let first = key_of.len();
        let touching = previous.filter(|&p| gap(p, first) <= 2.0 * KEY_REACH_S);
        let mut key = first;
        while key + 1 < keys.len()
            && gap(first, key + 1) <= KEY_REACH_S
            && touching.is_none_or(|p| gap(p, key + 1) <= 2.0 * KEY_REACH_S)
        {
            key += 1;
        }
        while key_of.len() < keys.len() && gap(key, key_of.len()) <= KEY_REACH_S {
            key_of.push(key);
        }
        previous = Some(key);
    }
    key_of
}

/// Computes `make(item)` for every item across up to `threads` scoped
/// workers. Workers take interleaved indices and return `(index, row)`
/// pairs that are merged by index, so the output order — and therefore
/// everything downstream — is independent of scheduling.
fn fill<T: Sync, R: Send>(items: &[T], threads: usize, make: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(make).collect();
    }
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..threads {
            let make = &make;
            handles.push(scope.spawn(move || {
                items
                    .iter()
                    .enumerate()
                    .skip(worker)
                    .step_by(threads)
                    .map(|(i, item)| (i, make(item)))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            let part = handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            indexed.extend(part);
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// One kind of row (truth or published) for [`PropagationCache::prepare`].
trait RowKind: Sized + Send + Sync {
    /// The full-width row at `at`.
    fn full(c: &Constellation, at: JulianDate) -> Self;
    /// The row at `at` propagating only the satellites `keep` marks,
    /// whose keep set came from the key row at `key`.
    fn kept(c: &Constellation, at: JulianDate, keep: &[bool], key: JulianDate) -> Self;
    /// The row's ECEF positions, for a keep set.
    fn ecef(&self, at: JulianDate) -> Vec<Option<Vec3>>;
    /// Records, on a key row at `at`, the keep set computed from it.
    fn mark_key(&mut self, _keep: &[bool], _at: JulianDate) {}
}

impl RowKind for Snapshot {
    fn full(c: &Constellation, at: JulianDate) -> Snapshot {
        c.snapshot(at)
    }

    fn kept(c: &Constellation, at: JulianDate, keep: &[bool], _key: JulianDate) -> Snapshot {
        c.snapshot_keeping(at, Some(keep))
    }

    fn ecef(&self, _at: JulianDate) -> Vec<Option<Vec3>> {
        self.entries().iter().map(|e| e.map(|e| e.ecef)).collect()
    }
}

impl RowKind for PublishedRow {
    fn full(c: &Constellation, at: JulianDate) -> PublishedRow {
        PublishedRow { positions: c.published_row(at), dismissed: Vec::new(), key: None }
    }

    fn kept(c: &Constellation, at: JulianDate, keep: &[bool], key: JulianDate) -> PublishedRow {
        let positions = c
            .sats()
            .iter()
            .zip(keep)
            .map(|(sat, &kept)| if kept { sat.published_position(at) } else { None })
            .collect();
        PublishedRow { positions, dismissed: keep.iter().map(|&k| !k).collect(), key: Some(key) }
    }

    fn mark_key(&mut self, keep: &[bool], at: JulianDate) {
        self.dismissed = keep.iter().map(|&k| !k).collect();
        self.key = Some(at);
    }

    fn ecef(&self, at: JulianDate) -> Vec<Option<Vec3>> {
        let rotation = Mat3::rot_z(at.gmst_rad());
        self.positions.iter().map(|p| p.map(|teme| rotation * teme)).collect()
    }
}

impl<'a> PropagationCache<'a> {
    /// Creates an empty cache over `constellation` that culls nothing.
    pub fn new(constellation: &'a Constellation) -> PropagationCache<'a> {
        PropagationCache {
            constellation,
            cull: None,
            prepared: OnceLock::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Creates an empty cache over `constellation` whose prepared rows
    /// cull the satellites provably below `min_elevation_deg` from every
    /// one of `observers` (module docs, *Observer culling*). Its rows
    /// speak only for those observers at or above that cutoff.
    pub fn for_observers(
        constellation: &'a Constellation,
        observers: &[Geodetic],
        min_elevation_deg: f64,
    ) -> PropagationCache<'a> {
        PropagationCache {
            cull: CullSpec::new(observers, min_elevation_deg),
            ..PropagationCache::new(constellation)
        }
    }

    /// The catalog this cache propagates.
    pub fn constellation(&self) -> &'a Constellation {
        self.constellation
    }

    /// Whether culled entries of this cache's rows are proven below
    /// `min_elevation_deg` from `observer`: the observer is one of the
    /// cache's and the cutoff is at least the cache's. Without culling
    /// there is nothing to rely on, and the answer is `false`.
    pub fn culls_for(&self, observer: Geodetic, min_elevation_deg: f64) -> bool {
        self.cull.as_ref().is_some_and(|cull| {
            min_elevation_deg >= cull.min_elevation_deg
                && cull.observer_bits.binary_search(&geodetic_bits(observer)).is_ok()
        })
    }

    /// Builds the immutable epoch table: true snapshots for every
    /// epoch in `truth_epochs` and published-TLE rows for every epoch in
    /// `published_epochs`, filled by passes fanned across up to `threads`
    /// scoped workers (≤ 1 fills serially). A culling cache fills its key
    /// rows first, then the rows they serve (module docs).
    ///
    /// Returns `false` (and changes nothing) if the table was already
    /// built — the table is write-once by design, so callers prepare every
    /// epoch they need in one call before the hot loops start. Epochs are
    /// deduplicated.
    pub fn prepare(
        &self,
        truth_epochs: &[JulianDate],
        published_epochs: &[JulianDate],
        threads: usize,
    ) -> bool {
        if self.prepared.get().is_some() {
            return false;
        }
        let truth_keys = sorted_keys(truth_epochs);
        let published_keys = sorted_keys(published_epochs);
        let (truth_rows, truth_culled) = self.fill_kind::<Snapshot>(&truth_keys, threads);
        let (published_rows, published_culled) =
            self.fill_kind::<PublishedRow>(&published_keys, threads);
        let table = PreparedEpochs {
            truth_keys,
            truth_rows,
            published_keys,
            published_rows,
            culled: truth_culled + published_culled,
        };
        self.prepared.set(table).is_ok()
    }

    /// The rows of one kind at sorted epoch `keys`, and how many
    /// satellite-rows culling skipped.
    fn fill_kind<R: RowKind>(&self, keys: &[u64], threads: usize) -> (Vec<Arc<R>>, usize) {
        let c = self.constellation;
        let Some(cull) = &self.cull else {
            return (fill(keys, threads, |&k| Arc::new(R::full(c, epoch(k)))), 0);
        };
        let key_of = place_keys(keys);
        // Key rows first, at full width, each with its keep set.
        let mut key_indices = key_of.clone();
        key_indices.dedup();
        let key_rows = fill(&key_indices, threads, |&i| {
            let at = epoch(keys[i]);
            let mut row = R::full(c, at);
            let keep = cull.keep_set(&row.ecef(at));
            if let Some(keep) = &keep {
                row.mark_key(keep, at);
            }
            (Arc::new(row), keep)
        });
        // Then every other row, through its key's keep set.
        let indices: Vec<usize> = (0..keys.len()).collect();
        let rows = fill(&indices, threads, |&i| {
            let key = key_of[i];
            let (key_row, keep) = &key_rows[key_indices.partition_point(|&k| k < key)];
            match keep {
                _ if i == key => (Arc::clone(key_row), 0),
                Some(keep) => {
                    let row = R::kept(c, epoch(keys[i]), keep, epoch(keys[key]));
                    (Arc::new(row), keep.iter().filter(|&&k| !k).count())
                }
                None => (Arc::new(R::full(c, epoch(keys[i]))), 0),
            }
        });
        let culled = rows.iter().map(|(_, n)| n).sum();
        (rows.into_iter().map(|(row, _)| row).collect(), culled)
    }

    /// Looks `at` up in one half of the prepared table, counting the hit
    /// or miss; a miss propagates the row with `make` and does not store it.
    fn lookup<R>(
        &self,
        at: JulianDate,
        table: impl FnOnce(&PreparedEpochs) -> (&[u64], &[Arc<R>]),
        make: impl FnOnce() -> R,
    ) -> Arc<R> {
        let hit = self.prepared.get().and_then(|p| {
            let (keys, rows) = table(p);
            keys.binary_search(&at.0.to_bits()).ok().map(|i| Arc::clone(&rows[i]))
        });
        match hit {
            Some(row) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                row
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(make())
            }
        }
    }

    /// True-position snapshot at `at` (bit-exact key), from the prepared
    /// table or, for an unprepared epoch, propagated on the spot. A
    /// culling cache's prepared snapshot holds `None` for culled
    /// satellites.
    pub fn snapshot(&self, at: JulianDate) -> Arc<Snapshot> {
        self.lookup(at, |p| (&p.truth_keys, &p.truth_rows), || self.constellation.snapshot(at))
    }

    /// Published-TLE TEME positions of the catalog at `at`, from the
    /// prepared table or, for an unprepared epoch, propagated on the spot
    /// at full width.
    pub fn published_positions(&self, at: JulianDate) -> Arc<PublishedRow> {
        self.lookup(
            at,
            |p| (&p.published_keys, &p.published_rows),
            || PublishedRow::full(self.constellation, at),
        )
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let (truth_entries, published_entries, culled) = match self.prepared.get() {
            Some(p) => (p.truth_keys.len(), p.published_keys.len(), p.culled),
            None => (0, 0, 0),
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            truth_entries,
            published_entries,
            culled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ConstellationBuilder;

    fn mini() -> Constellation {
        ConstellationBuilder::starlink_mini().seed(42).build()
    }

    fn vec_bits(v: Vec3) -> [u64; 3] {
        [v.x, v.y, v.z].map(f64::to_bits)
    }

    /// The TEME bits, ECEF bits and sunlit flag of one snapshot entry.
    type EntryBits = Option<([u64; 3], [u64; 3], bool)>;

    /// Every bit of a snapshot, entry by entry.
    fn snapshot_bits(s: &Snapshot) -> Vec<EntryBits> {
        let entries = s.entries().iter();
        entries
            .map(|e| e.as_ref().map(|e| (vec_bits(e.teme), vec_bits(e.ecef), e.sunlit)))
            .collect()
    }

    fn row_bits(row: &[Option<Vec3>]) -> Vec<Option<[u64; 3]>> {
        row.iter().map(|p| p.map(vec_bits)).collect()
    }

    #[test]
    fn snapshot_through_cache_matches_direct() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0);
        let iowa = Geodetic::new(41.66, -91.53, 0.2);

        let all: Vec<u32> = (0..c.len() as u32).collect();
        let direct = c.field_of_view(&c.snapshot(at), iowa, 25.0, &all);
        let cached = c.field_of_view(&cache.snapshot(at), iowa, 25.0, &all);
        assert_eq!(direct.len(), cached.len());
        for (a, b) in direct.iter().zip(&cached) {
            assert_eq!(a.norad_id, b.norad_id);
            assert_eq!(a.look, b.look);
            assert_eq!(a.sunlit, b.sunlit);
        }
    }

    #[test]
    fn published_positions_match_satellite_calls() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let row = cache.published_positions(at);
        assert_eq!(row.positions().len(), c.len());
        assert!(!row.is_dismissed(0) && !row.dismissed_below_at(at) && row.cull_key().is_none());
        for (sat, pos) in c.sats().iter().zip(row.positions()) {
            assert_eq!(*pos, sat.published_position(at));
        }
    }

    #[test]
    fn unprepared_rows_are_bit_identical_to_prepared_and_direct() {
        let c = mini();
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let epochs: Vec<JulianDate> = (0..3).map(|k| t0.plus_seconds(15.0 * k as f64)).collect();
        let prepared = PropagationCache::new(&c);
        assert!(prepared.prepare(&epochs, &epochs, 2));
        let unprepared = PropagationCache::new(&c);
        for &at in &epochs {
            let direct = snapshot_bits(&c.snapshot(at));
            assert_eq!(snapshot_bits(&unprepared.snapshot(at)), direct);
            assert_eq!(snapshot_bits(&prepared.snapshot(at)), direct);
            let direct = row_bits(&c.published_row(at));
            assert_eq!(row_bits(unprepared.published_positions(at).positions()), direct);
            assert_eq!(row_bits(prepared.published_positions(at).positions()), direct);
        }
        assert_eq!(prepared.stats().misses, 0);
    }

    #[test]
    fn unprepared_lookups_count_one_miss_and_store_nothing() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let t1 = t0.plus_seconds(15.0);
        assert!(cache.prepare(&[t0], &[t0], 1));
        let prepared =
            CacheStats { truth_entries: 1, published_entries: 1, ..CacheStats::default() };
        assert_eq!(cache.stats(), prepared);

        for k in 1..=3 {
            let _ = cache.snapshot(t1);
            let _ = cache.published_positions(t1);
            assert_eq!(cache.stats(), CacheStats { misses: 2 * k, ..prepared });
        }
        let _ = cache.snapshot(t0);
        let _ = cache.published_positions(t0);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 6, ..prepared });
    }

    #[test]
    fn parallel_readers_of_a_prepared_epoch_share_one_row() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        assert!(cache.prepare(&[at], &[at], 1));
        let (snap, row) = (cache.snapshot(at), cache.published_positions(at));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    assert!(Arc::ptr_eq(&snap, &cache.snapshot(at)));
                    assert!(Arc::ptr_eq(&row, &cache.published_positions(at)));
                });
            }
        });
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (10, 0));
    }

    #[test]
    fn prepare_is_write_once() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        assert!(cache.prepare(&[t0], &[], 1));
        assert!(!cache.prepare(&[t0.plus_seconds(15.0)], &[], 1));
        // The second call changed nothing: the extra epoch is a miss.
        let _ = cache.snapshot(t0.plus_seconds(15.0));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn prepare_deduplicates_epochs_and_matches_direct_propagation() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let epochs = [t0, t0.plus_seconds(15.0), t0, t0.plus_seconds(15.0)];
        assert!(cache.prepare(&epochs, &epochs, 2));
        let s = cache.stats();
        assert_eq!((s.truth_entries, s.published_entries), (2, 2));

        // Prepared rows are bit-identical to direct propagation.
        assert_eq!(snapshot_bits(&cache.snapshot(t0)), snapshot_bits(&c.snapshot(t0)));
    }

    /// Four ground sites like the paper's, for culling tests.
    fn sites() -> Vec<Geodetic> {
        vec![
            Geodetic::new(41.66, -91.53, 0.2),
            Geodetic::new(40.42, -3.70, 0.65),
            Geodetic::new(-33.87, 151.21, 0.05),
            Geodetic::new(47.61, -122.33, 0.1),
        ]
    }

    /// `n` slot starts 15 s apart, as the campaign engine spaces them.
    fn slot_epochs(n: usize) -> Vec<JulianDate> {
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 12.0);
        (0..n).map(|k| t0.plus_seconds(15.0 * k as f64)).collect()
    }

    #[test]
    fn keys_reach_every_epoch_and_their_reaches_touch() {
        let spaced = |gaps: &[f64]| {
            let mut at = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 12.0);
            let mut out = vec![at];
            for &g in gaps {
                at = at.plus_seconds(g);
                out.push(at);
            }
            sorted_keys(&out)
        };
        let cases = [
            spaced(&[15.0; 39]),
            spaced(&[15.0, 0.5, 14.5, 1.0, 40.0, 15.0, 15.0, 100.0, 3.0, 15.0, 15.0, 15.0]),
            spaced(&[29.0, 31.0, 61.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0]),
            spaced(&[]),
        ];
        for keys in &cases {
            let key_of = place_keys(keys);
            assert_eq!(key_of.len(), keys.len());
            let gap = |a: usize, b: usize| epoch(keys[b]).seconds_since(epoch(keys[a]));
            for (i, &k) in key_of.iter().enumerate() {
                assert!(
                    gap(k, i).abs() <= KEY_REACH_S,
                    "epoch {i} is {} s from its key",
                    gap(k, i)
                );
                assert_eq!(key_of[k], k, "a key serves itself");
            }
            // Consecutive keys' reaches touch unless the epochs leave a
            // hole that no key could bridge.
            for w in key_of.windows(2).filter(|w| w[0] != w[1]) {
                let (k0, k1) = (w[0], w[1]);
                let first_unreached = key_of.iter().position(|&k| k == k1).unwrap_or(0);
                assert!(
                    gap(k0, k1) <= 2.0 * KEY_REACH_S + 1e-9
                        || gap(k0, first_unreached) > 2.0 * KEY_REACH_S,
                    "keys {} s apart",
                    gap(k0, k1)
                );
            }
        }
        // On the engine's 15-s grid one key serves four epochs.
        let keys = &cases[0];
        let mut distinct = place_keys(keys);
        distinct.dedup();
        assert_eq!(distinct.len(), 10, "{distinct:?}");
    }

    #[test]
    fn culled_rows_keep_the_bits_of_every_kept_entry() {
        let c = ConstellationBuilder::starlink_gen1().seed(1).build();
        let epochs = slot_epochs(12);
        let culled = PropagationCache::for_observers(&c, &sites(), 25.0);
        assert!(culled.prepare(&epochs, &epochs, 2));
        let stats = culled.stats();
        let rows = stats.truth_entries + stats.published_entries;
        assert_eq!(rows, 24);
        assert!(
            stats.culled > rows * c.len() / 2,
            "culled only {} of {}",
            stats.culled,
            rows * c.len()
        );
        let mut culled_truth = 0;
        for &at in &epochs {
            let full = c.snapshot(at);
            let snap = culled.snapshot(at);
            for (a, b) in full.entries().iter().zip(snap.entries()) {
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(vec_bits(a.teme), vec_bits(b.teme));
                        assert_eq!(vec_bits(a.ecef), vec_bits(b.ecef));
                        assert_eq!(a.sunlit, b.sunlit);
                    }
                    (Some(_), None) => culled_truth += 1,
                    (None, b) => assert!(b.is_none()),
                }
            }
            let row = culled.published_positions(at);
            for (i, (a, b)) in c.published_row(at).iter().zip(row.positions()).enumerate() {
                if row.is_culled(i) {
                    assert!(b.is_none());
                } else {
                    assert_eq!(a.map(vec_bits), b.map(vec_bits));
                }
            }
        }
        assert!(culled_truth > 0);
        assert_eq!(culled.stats().misses, 0);
    }

    /// The documented keep test, written out independently of the cache:
    /// whether the key-row position `p_k` (ECEF) may be culled for
    /// `observers` at `cutoff`, given the key row's largest radius.
    fn documented_cull(p_k: Vec3, row_max_km: f64, observers: &[Geodetic], cutoff: f64) -> bool {
        let speed = (2.0 * wgs72::MU / R_FLOOR_KM).sqrt();
        let t = KEY_REACH_S;
        let r_top = row_max_km + speed * t;
        let r_low = p_k.norm() - speed * t;
        let turn = (speed / R_FLOOR_KM + OMEGA_EARTH_RAD_S) * t;
        observers.iter().all(|&o| {
            let o = geodetic_to_ecef(o);
            let e = (cutoff - 0.25).to_radians();
            let psi = ((o.norm() / r_top) * e.cos()).acos() - e + 0.02f64.to_radians();
            let angle = p_k.unit().dot(o.unit()).clamp(-1.0, 1.0).acos();
            r_low >= R_FLOOR_KM && r_low > o.norm() && angle > psi + turn
        })
    }

    #[test]
    fn every_culled_satellite_meets_the_documented_bound() {
        // Each culled entry is checked against the documented condition at
        // its key, and — against direct propagation — the premises the
        // argument rests on: within the reach the radius stays in
        // [r_k − v·T, r_k + v·T] and the direction turns no faster than
        // v_esc(F)/F + ω⊕.
        let c = ConstellationBuilder::starlink_gen1().seed(3).build();
        let epochs = slot_epochs(24);
        let observers = sites();
        let speed = (2.0 * wgs72::MU / R_FLOOR_KM).sqrt();
        let rate = speed / R_FLOOR_KM + OMEGA_EARTH_RAD_S;
        for cutoff in [25.0, 0.0, 60.0] {
            let cache = PropagationCache::for_observers(&c, &observers, cutoff);
            assert!(cache.prepare(&epochs, &epochs, 1));
            let keys = sorted_keys(&epochs);
            let key_of = place_keys(&keys);
            let (mut checked, mut premises) = (0, 0);
            for (i, &k) in key_of.iter().enumerate() {
                let (at, key) = (epoch(keys[i]), epoch(keys[k]));
                assert!(at.seconds_since(key).abs() <= KEY_REACH_S);
                let truth_key = c.snapshot(key);
                let truth_max = truth_key.entries().iter().flatten().map(|e| e.ecef.norm());
                let truth_max = truth_max.fold(0.0, f64::max);
                let published_key: Vec<Option<Vec3>> = PublishedRow::full(&c, key).ecef(key);
                let published_max =
                    published_key.iter().flatten().map(|p| p.norm()).fold(0.0, f64::max);
                let snap = cache.snapshot(at);
                let row = cache.published_positions(at);
                assert_eq!(row.cull_key().map(|k| k.0.to_bits()), Some(keys[k]));
                for (si, sat) in c.sats().iter().enumerate() {
                    let truth_culled =
                        snap.entries()[si].is_none() && truth_key.entries()[si].is_some();
                    if truth_culled {
                        let p_k = truth_key.entries()[si].map(|e| e.ecef).unwrap_or(Vec3::ZERO);
                        assert!(
                            documented_cull(p_k, truth_max, &observers, cutoff),
                            "truth {si} at {i}"
                        );
                        checked += 1;
                    }
                    if !row.is_dismissed(si) {
                        continue;
                    }
                    let p_k = published_key[si].unwrap_or(Vec3::ZERO);
                    assert!(
                        documented_cull(p_k, published_max, &observers, cutoff),
                        "published {si} at {i}"
                    );
                    checked += 1;
                    // Premises, on a sample of satellites and instants.
                    if si % 97 != 0 || i != k + 1 {
                        continue;
                    }
                    for step in -6..=6 {
                        let dt = KEY_REACH_S * step as f64 / 6.0;
                        let t = key.plus_seconds(dt);
                        let Some(teme) = sat.published_position(t) else { continue };
                        let p = Mat3::rot_z(t.gmst_rad()) * teme;
                        assert!(
                            p.norm() >= R_FLOOR_KM && p.norm() >= p_k.norm() - speed * dt.abs()
                        );
                        assert!(p.norm() <= p_k.norm() + speed * dt.abs());
                        let turned = p.cross(p_k).norm().atan2(p.dot(p_k));
                        assert!(turned <= rate * dt.abs(), "turned {turned} in {dt} s");
                        premises += 1;
                    }
                }
            }
            assert!(checked > 10_000, "cutoff {cutoff}: {checked} culled entries checked");
            assert!(premises > 100, "cutoff {cutoff}: {premises} premise samples");
        }
    }

    #[test]
    fn the_keep_test_keeps_everything_just_inside_the_documented_cap() {
        // Synthetic key rows: satellites at two radii on rings just inside
        // and outside one observer's documented cap, every 10° of azimuth.
        // Everything inside must be kept; the grid may keep some of what
        // lies outside, but not all of it. The observers step through one
        // grid row of latitude, so for some of them a row boundary falls
        // just inside the cap due north and south, where the grid cover is
        // exact in latitude: a cap drawn even slightly narrower than the
        // documented one culls a satellite there.
        let cutoff = 25.0;
        let speed = (2.0 * wgs72::MU / R_FLOOR_KM).sqrt();
        let (low, high) = (6900.0, 6960.0);
        let r_top = high + speed * KEY_REACH_S;
        let e = (cutoff - 0.25f64).to_radians();
        for j in 0..30 {
            let site = Geodetic::new(40.0 + 0.05 * j as f64, -91.53, 0.2);
            let spec = CullSpec::new(&[site], cutoff).expect("a usable spec");
            let o = geodetic_to_ecef(site);
            let up = o.unit();
            let east = Vec3::new(-up.y, up.x, 0.0).unit();
            let north = up.cross(east);
            let psi = ((o.norm() / r_top) * e.cos()).acos() - e + 0.02f64.to_radians();
            let cap = psi + (speed / R_FLOOR_KM + OMEGA_EARTH_RAD_S) * KEY_REACH_S;
            let offsets =
                (1..=40).map(|k| -0.005 * k as f64).chain((1..=60).map(|k| 0.05 * k as f64));
            let offsets: Vec<f64> = offsets.collect();
            let (mut row, mut inside) = (Vec::new(), Vec::new());
            for az in (0..36).map(|k| (10.0 * k as f64).to_radians()) {
                for &offset in &offsets {
                    let theta = cap + offset.to_radians();
                    let d = up * theta.cos() + (north * az.cos() + east * az.sin()) * theta.sin();
                    for r in [low, high] {
                        row.push(Some(d * r));
                        inside.push(offset < 0.0);
                    }
                }
            }
            let keep = spec.keep_set(&row).expect("a finite cap");
            for (i, (&keep, &inside)) in keep.iter().zip(&inside).enumerate() {
                assert!(keep || !inside, "{site:?}: satellite {i} inside the cap was culled");
            }
            let outside_culled = keep.iter().zip(&inside).filter(|&(&k, &i)| !k && !i).count();
            assert!(outside_culled > 0, "{site:?}: nothing outside the cap was culled");
        }
    }

    #[test]
    fn new_and_unusable_specs_cull_nothing() {
        let c = mini();
        let epochs = slot_epochs(8);
        let iowa = sites()[0];
        let nan = Geodetic::new(f64::NAN, 0.0, 0.0);
        let caches = [
            PropagationCache::new(&c),
            PropagationCache::for_observers(&c, &[], 25.0),
            PropagationCache::for_observers(&c, &[iowa], -1.0),
            PropagationCache::for_observers(&c, &[iowa], 90.0),
            PropagationCache::for_observers(&c, &[iowa], f64::NAN),
            PropagationCache::for_observers(&c, &[iowa, nan], 25.0),
        ];
        for cache in &caches {
            assert!(cache.prepare(&epochs, &epochs, 1));
            assert_eq!(cache.stats().culled, 0);
            assert!(!cache.culls_for(iowa, 25.0));
            for &at in &epochs {
                assert_eq!(snapshot_bits(&cache.snapshot(at)), snapshot_bits(&c.snapshot(at)));
                assert!(cache.published_positions(at).cull_key().is_none());
            }
        }
        // A usable spec speaks for its own observers at or above its cutoff.
        let cache = PropagationCache::for_observers(&c, &sites(), 25.0);
        assert!(cache.culls_for(iowa, 25.0) && cache.culls_for(iowa, 40.0));
        assert!(!cache.culls_for(iowa, 24.9));
        assert!(!cache.culls_for(Geodetic::new(41.66, -91.53, 0.3), 25.0));
    }
}
