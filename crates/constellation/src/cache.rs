//! Per-epoch propagation table shared by a campaign's workers.
//!
//! [`PropagationCache`] holds the **true** snapshot and the
//! **published**-TLE positions per exact epoch, so the catalog is
//! SGP4-propagated once per instant however many terminals or threads read
//! it. [`PropagationCache::prepare`] builds the table once; lookups are a
//! binary search over a frozen `Vec` behind a `OnceLock`, with no lock. A
//! lookup of an unprepared epoch propagates the row without storing it
//! (a miss). Epochs are keyed by their bits and a row is a pure function
//! of (catalog, epoch), so no result depends on threads or on what was
//! prepared.
//!
//! # Observer culling
//!
//! A cache built with [`PropagationCache::for_observers`] skips what is
//! provably below every observer's cutoff. `prepare` fills a full-width
//! **key row** at some epochs, so that every other epoch of the same kind
//! lies within [`KEY_REACH_S`] of its key and consecutive keys' reaches
//! touch wherever the epochs allow; the rows a key serves propagate only
//! what its keep test keeps. A **culled** truth entry is `None`, like an
//! unlaunched satellite; a [`PublishedRow`] names what its key dismissed
//! and [`PublishedRow::dismissed_below_at`] where that is proven below the
//! cutoff. Kept entries are the full row's bits. [`PropagationCache::new`]
//! culls nothing.
//!
//! # Soundness
//!
//! The keep test and the identification prefilter
//! (`starsense_ident::TrackCache`) rest on one premise: each satellite's
//! [`Envelope`](crate::Envelope), a radius floor `r_min`, ceiling `r_max`
//! and speed ceiling `v_max` its SGP4 orbit obeys throughout a window.
//! `prepare` computes one per satellite and kind of row over the prepared
//! epochs widened by [`KEY_REACH_S`]. No bounded envelope: never culled,
//! never prefiltered.
//!
//! **Keep test.** Let `p_k` be the ECEF key-row position at epoch `k`, `T`
//! = [`KEY_REACH_S`], `r_top` the highest ceiling and `ρ` the fastest
//! `v_max / r_min` of any envelope of either kind, and `ψ_o(r)` observer
//! `o`'s cap over satellites no higher than `r` (the
//! [`VisibilityIndex`](crate::VisibilityIndex) bound, with its 0.25°
//! zenith-deflection margin and 0.02° guard). A satellite is culled only
//! when `r_min` is above every observer's radius and `angle(p_k, o) >
//! ψ_o(r_top) + (ρ + ω⊕)·T` for every observer (`ω⊕` =
//! [`OMEGA_EARTH_RAD_S`]). For `|t − k| ≤ T` its radius stays in `[r_min,
//! r_top]` and its ECEF direction (velocity: TEME less `ω⊕ × r`) turns at
//! most `(ρ + ω⊕)·T`, so `angle(p(t), o) > ψ_o(r_top) ≥ ψ_o(|p(t)|)`: the
//! cap grows with radius while `R_o < r`. It is below the cutoff less the
//! margin in geocentric elevation, hence below it in geodetic elevation.
//!
//! **Prefilter.** An observer at radius `r_o < r_min` sees the satellite
//! at elevation `el` no nearer than `d(el) = sqrt(r_min² − r_o² cos²el) −
//! r_o sin el`, which shrinks as `el` grows; its own TEME speed is at most
//! `ω⊕·r_o`. So at or below a cutoff `c` the elevation changes no faster
//! than `(v_max + ω⊕·r_o)/d(c)` rad/s, and a satellite below `c − margin`,
//! `margin = (v_max + ω⊕·r_o)/d(c)·h` plus a zenith slack, stays below `c`
//! for `h` seconds either way. The margin grows with `v_max` and shrinks
//! as `r_min` grows.
//!
//! **Path bound.** The identifier's deferred candidate tracks rest on the
//! same envelope: from `r_o < r_min` a satellite is at least `r_min − r_o`
//! away, so its line of sight turns no faster than `(v_max + ω⊕·r_o)/(r_min
//! − r_o) + ω⊕`, which bounds the length of its obstruction-plot track
//! over a slot (`starsense_ident::track_cache`, *Soundness of the path
//! bound*).
//!
//! `prepare` marks each observer's widened cap once on a grid of 1.5°
//! cells with the index's conservative cover, so a key-row satellite costs
//! one cell lookup. No key-row entry, a cutoff outside [0°, 90°), no or
//! non-finite observers, or a NaN or ≥ 60° cap keeps everything. The bound
//! speaks only for the cache's own observers at or above its cutoff
//! ([`PropagationCache::culls_for`]).

use crate::catalog::{Constellation, Snapshot};
use crate::envelope::Envelopes;
use crate::index::{cap_radius_deg, direction_deg, DirectionGrid, FULL_SCAN_CAP_DEG, MIN_CELL_DEG};
use starsense_astro::frames::{geodetic_to_ecef, Geodetic};
use starsense_astro::mat3::Mat3;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// How far (s) a prepared epoch may lie from its key row: six 15-s slots
/// plus 0.1 s for rounding, sized by SGP4 calls per epoch `(W + (n −
/// 1)·W·f(T))/n` (width `W`, `n = 2T/15 s` epochs per key, non-key keep
/// share `f`); past 90 s a wider cap costs what fewer key rows save.
pub const KEY_REACH_S: f64 = 90.1;

/// Earth rotation rate (rad/s), bounding how fast the ECEF frame turns
/// under a TEME direction.
pub const OMEGA_EARTH_RAD_S: f64 = 7.292_115_9e-5;

/// Hit/miss counters, for benches and capacity planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the prepared table.
    pub hits: usize,
    /// Lookups of unprepared epochs, each propagating a full row.
    pub misses: usize,
    /// Prepared true-snapshot epochs.
    pub truth_entries: usize,
    /// Prepared published-position epochs.
    pub published_entries: usize,
    /// Satellite-rows observer culling skipped, over both kinds of row.
    pub culled: usize,
}

/// Published-TLE TEME positions of the catalog at one epoch, indexed like
/// [`Constellation::sats`].
#[derive(Debug)]
pub struct PublishedRow {
    /// `None` where propagation failed or the satellite was culled.
    positions: Vec<Option<Vec3>>,
    /// What the row's key dismissed (empty at full width): propagated in
    /// the key row, culled in the rows it serves.
    dismissed: Vec<bool>,
    /// The key epoch whose keep set the row used, if any.
    key: Option<JulianDate>,
}

impl PublishedRow {
    /// Per-satellite positions: `None` where propagation failed or the
    /// satellite was culled (dismissed in a row that is not its key).
    pub fn positions(&self) -> &[Option<Vec3>] {
        &self.positions
    }

    /// Whether the row's key dismissed satellite `index`, proving it below
    /// the cutoff wherever [`PublishedRow::dismissed_below_at`] holds.
    pub fn is_dismissed(&self, index: usize) -> bool {
        self.dismissed.get(index).copied().unwrap_or(false)
    }

    /// The key epoch whose keep set this row used (its own for a key row),
    /// or `None` for a cache that culls nothing.
    pub fn cull_key(&self) -> Option<JulianDate> {
        self.key
    }

    /// Whether every dismissed satellite is proven below the cutoff from
    /// every observer at `at`: within [`KEY_REACH_S`] of the row's key.
    pub fn dismissed_below_at(&self, at: JulianDate) -> bool {
        self.key.is_some_and(|k| at.seconds_since(k).abs() <= KEY_REACH_S)
    }
}

/// The immutable epoch table: sorted epoch keys and their rows.
#[derive(Debug, Default)]
struct PreparedEpochs {
    truth_keys: Vec<u64>,
    truth_rows: Vec<Arc<Snapshot>>,
    published_keys: Vec<u64>,
    published_rows: Vec<Arc<PublishedRow>>,
    /// Published-orbit envelopes over the published epochs' window.
    published_envelopes: Option<Arc<Envelopes>>,
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
    /// The observers' sorted geodetic bits, for `culls_for`.
    observer_bits: Vec<[u64; 3]>,
    min_elevation_deg: f64,
}

/// A prepare's keep test: the grid marked with every widened cap.
#[derive(Debug)]
struct Cull {
    grid: DirectionGrid,
    marked: Vec<bool>,
    max_observer_radius_km: f64,
}

/// A geodetic position's exact bit pattern.
fn geodetic_bits(g: Geodetic) -> [u64; 3] {
    [g.lat_deg.to_bits(), g.lon_deg.to_bits(), g.alt_km.to_bits()]
}

impl CullSpec {
    /// The spec, or `None` when it could cull nothing soundly.
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
        let observers = observers.iter().map(|&g| geodetic_to_ecef(g));
        let observers = observers
            .map(|ecef| CullObserver { direction: direction_deg(ecef), radius_km: ecef.norm() })
            .collect();
        Some(CullSpec { observers, observer_bits, min_elevation_deg })
    }

    /// The keep test for orbits inside `envelopes`, or `None` to keep all.
    fn mark(&self, envelopes: &[&Envelopes]) -> Option<Cull> {
        let all = envelopes.iter().flat_map(|e| e.sats()).flatten();
        let r_top = all.clone().map(|e| e.r_max_km).fold(0.0, f64::max);
        let rate = all.map(|e| e.speed_max_km_s / e.r_min_km).fold(0.0, f64::max);
        let turn_deg = ((rate + OMEGA_EARTH_RAD_S) * KEY_REACH_S).to_degrees();
        let grid = DirectionGrid::new(MIN_CELL_DEG);
        let mut marked = vec![false; grid.len()];
        for o in &self.observers {
            let cap = cap_radius_deg(o.radius_km, r_top, self.min_elevation_deg)? + turn_deg;
            if cap.is_nan() || cap >= FULL_SCAN_CAP_DEG {
                return None;
            }
            grid.cap_runs(o.direction, cap, |from, to| marked[from..to].fill(true));
        }
        let max_observer_radius_km = self.observers.iter().map(|o| o.radius_km).fold(0.0, f64::max);
        Some(Cull { grid, marked, max_observer_radius_km })
    }
}

impl Cull {
    /// The keep set of a key row with ECEF positions `ecef`.
    fn keep_set(&self, envelopes: &Envelopes, ecef: &[Option<Vec3>]) -> Vec<bool> {
        let keep = ecef.iter().zip(envelopes.sats()).map(|(p, envelope)| match (p, envelope) {
            (Some(p), Some(e)) if e.r_min_km > self.max_observer_radius_km => {
                self.marked[self.grid.cell(*p)]
            }
            _ => true,
        });
        keep.collect()
    }
}

/// A lock-free table of per-epoch propagation for one [`Constellation`].
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

/// The window of sorted epoch `keys` widened by [`KEY_REACH_S`] each
/// side: every instant a key row speaks for.
fn reach_window(keys: &[u64]) -> Option<(JulianDate, JulianDate)> {
    let (first, last) = (epoch(*keys.first()?), epoch(*keys.last()?));
    Some((first.plus_seconds(-KEY_REACH_S), last.plus_seconds(KEY_REACH_S)))
}

/// For sorted epoch keys, the index of each epoch's key: within
/// [`KEY_REACH_S`] of it, and at most `2 · KEY_REACH_S` after the previous
/// key whenever the epochs allow. Ties go to the earlier key.
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
/// workers, merged by index so the output cannot depend on scheduling.
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
    /// Finishes a row inside the worker that built it, before it is
    /// shared.
    fn finish(self) -> Self {
        self
    }
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

    /// Builds the visibility index every field-of-view query of the row
    /// reads, so no reader waits on another's build.
    fn finish(self) -> Snapshot {
        self.visibility_index();
        self
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

    /// Creates an empty cache whose prepared rows cull what is provably
    /// below `min_elevation_deg` from every one of `observers` (module
    /// docs), speaking only for them at or above that cutoff.
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

    /// Whether culled entries are proven below `min_elevation_deg` from
    /// `observer`: one of the cache's observers, at or above its cutoff.
    pub fn culls_for(&self, observer: Geodetic, min_elevation_deg: f64) -> bool {
        self.cull.as_ref().is_some_and(|cull| {
            min_elevation_deg >= cull.min_elevation_deg
                && cull.observer_bits.binary_search(&geodetic_bits(observer)).is_ok()
        })
    }

    /// The published-orbit envelopes `prepare` computed over the published
    /// epochs widened by [`KEY_REACH_S`], if any.
    pub fn published_envelopes(&self) -> Option<&Arc<Envelopes>> {
        self.prepared.get()?.published_envelopes.as_ref()
    }

    /// Builds the write-once epoch table: true snapshots at
    /// `truth_epochs`, each with its visibility index, and published rows
    /// at `published_epochs` (deduplicated), across up to `threads` scoped
    /// workers, plus the envelopes. A culling cache marks its grid, then fills its key rows,
    /// then the rows they serve. Returns `false`, changing nothing, if the
    /// table was already built.
    pub fn prepare(
        &self,
        truth_epochs: &[JulianDate],
        published_epochs: &[JulianDate],
        threads: usize,
    ) -> bool {
        if self.prepared.get().is_some() {
            return false;
        }
        let c = self.constellation;
        let truth_keys = sorted_keys(truth_epochs);
        let published_keys = sorted_keys(published_epochs);
        let published_envelopes = reach_window(&published_keys)
            .map(|(from, to)| Arc::new(c.published_envelopes(from, to)));
        let truth_envelopes = self.cull.as_ref().and_then(|_| reach_window(&truth_keys));
        let truth_envelopes = truth_envelopes.map(|(from, to)| c.true_envelopes(from, to));
        let kinds: Vec<&Envelopes> =
            truth_envelopes.iter().chain(published_envelopes.as_deref()).collect();
        let cull = self.cull.as_ref().and_then(|spec| spec.mark(&kinds));
        let (truth_rows, truth_culled) = self.fill_kind::<Snapshot>(
            &truth_keys,
            threads,
            cull.as_ref(),
            truth_envelopes.as_ref(),
        );
        let (published_rows, published_culled) = self.fill_kind::<PublishedRow>(
            &published_keys,
            threads,
            cull.as_ref(),
            published_envelopes.as_deref(),
        );
        let table = PreparedEpochs {
            truth_keys,
            truth_rows,
            published_keys,
            published_rows,
            published_envelopes,
            culled: truth_culled + published_culled,
        };
        self.prepared.set(table).is_ok()
    }

    /// The rows of one kind at sorted epoch `keys`, culled when there is a
    /// keep test, and how many satellite-rows culling skipped.
    fn fill_kind<R: RowKind>(
        &self,
        keys: &[u64],
        threads: usize,
        cull: Option<&Cull>,
        envelopes: Option<&Envelopes>,
    ) -> (Vec<Arc<R>>, usize) {
        let c = self.constellation;
        let (Some(cull), Some(envelopes)) = (cull, envelopes) else {
            return (fill(keys, threads, |&k| Arc::new(R::full(c, epoch(k)).finish())), 0);
        };
        let key_of = place_keys(keys);
        // Key rows first, at full width, each with its keep set.
        let mut key_indices = key_of.clone();
        key_indices.dedup();
        let key_rows = fill(&key_indices, threads, |&i| {
            let at = epoch(keys[i]);
            let mut row = R::full(c, at);
            let keep = cull.keep_set(envelopes, &row.ecef(at));
            row.mark_key(&keep, at);
            (Arc::new(row.finish()), keep)
        });
        // Then every other row, through its key's keep set.
        let indices: Vec<usize> = (0..keys.len()).collect();
        let rows = fill(&indices, threads, |&i| {
            let key = key_of[i];
            let (key_row, keep) = &key_rows[key_indices.partition_point(|&k| k < key)];
            if i == key {
                return (Arc::clone(key_row), 0);
            }
            let row = R::kept(c, epoch(keys[i]), keep, epoch(keys[key])).finish();
            (Arc::new(row), keep.iter().filter(|&&k| !k).count())
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

    /// True-position snapshot at `at` (bit-exact key), prepared or
    /// propagated on the spot; culled satellites read `None`.
    pub fn snapshot(&self, at: JulianDate) -> Arc<Snapshot> {
        self.lookup(at, |p| (&p.truth_keys, &p.truth_rows), || self.constellation.snapshot(at))
    }

    /// Published-TLE TEME positions at `at`, prepared or propagated on the
    /// spot at full width.
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
    use crate::envelope::Envelope;

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

    #[test]
    fn prepared_truth_rows_come_with_their_index() {
        // Full-width and culled rows alike are indexed inside `prepare`,
        // and the index is the one a reader would have built; an
        // unprepared lookup builds nothing ahead of its first query.
        let c = mini();
        let epochs = slot_epochs(12);
        let site = sites()[0];
        let culled = PropagationCache::for_observers(&c, &sites(), 25.0);
        for (cache, full) in [(PropagationCache::new(&c), true), (culled, false)] {
            assert!(cache.prepare(&epochs, &[], 2));
            for &t in &epochs {
                let row = cache.snapshot(t);
                assert!(row.has_index(), "{t:?}");
                if full {
                    let direct = c.snapshot(t).visibility_index().candidates(site, 25.0);
                    assert_eq!(row.visibility_index().candidates(site, 25.0), direct);
                }
            }
            assert!(!cache.snapshot(epochs[0].plus_seconds(1.0)).has_index());
        }
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
        // On the engine's 15-s grid one key serves twelve epochs.
        let keys = &spaced(&[15.0; 119]);
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
                if row.is_dismissed(i) && b.is_none() {
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
    /// whether the key-row position `p_k` (ECEF) of a satellite with
    /// envelope `env` may be culled for `observers` at `cutoff`, given the
    /// highest ceiling `r_top` and fastest `v_max / r_min` `rate` of any
    /// envelope of either kind.
    fn documented_cull(
        p_k: Vec3,
        env: Option<Envelope>,
        (r_top, rate): (f64, f64),
        observers: &[Geodetic],
        cutoff: f64,
    ) -> bool {
        let Some(env) = env else { return false };
        let turn = (rate + OMEGA_EARTH_RAD_S) * KEY_REACH_S;
        observers.iter().all(|&o| {
            let o = geodetic_to_ecef(o);
            let e = (cutoff - 0.25).to_radians();
            let psi = ((o.norm() / r_top) * e.cos()).acos() - e + 0.02f64.to_radians();
            let angle = p_k.unit().dot(o.unit()).clamp(-1.0, 1.0).acos();
            env.r_min_km > o.norm() && angle > psi + turn
        })
    }

    /// The envelopes `prepare` computes for `epochs` of both kinds, and
    /// their highest ceiling and fastest turn rate.
    fn prepared_envelopes(c: &Constellation, epochs: &[JulianDate]) -> [Envelopes; 2] {
        let (from, to) = reach_window(&sorted_keys(epochs)).expect("epochs");
        [c.true_envelopes(from, to), c.published_envelopes(from, to)]
    }

    fn extremes(kinds: &[Envelopes]) -> (f64, f64) {
        let all = kinds.iter().flat_map(|e| e.sats()).flatten();
        let r_top = all.clone().map(|e| e.r_max_km).fold(0.0, f64::max);
        (r_top, all.map(|e| e.speed_max_km_s / e.r_min_km).fold(0.0, f64::max))
    }

    #[test]
    fn every_culled_satellite_meets_the_documented_bound() {
        // Each culled entry is checked against the documented condition at
        // its key, and — against direct propagation — the premises the
        // argument rests on: within the reach the radius stays inside the
        // satellite's envelope and the direction turns no faster than
        // v_max/r_min + ω⊕.
        let c = ConstellationBuilder::starlink_gen1().seed(3).build();
        let epochs = slot_epochs(24);
        let observers = sites();
        let kinds = prepared_envelopes(&c, &epochs);
        let extremes = extremes(&kinds);
        let [truth_env, published_env] = &kinds;
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
                let published_key: Vec<Option<Vec3>> = PublishedRow::full(&c, key).ecef(key);
                let snap = cache.snapshot(at);
                let row = cache.published_positions(at);
                assert_eq!(row.cull_key().map(|k| k.0.to_bits()), Some(keys[k]));
                for (si, sat) in c.sats().iter().enumerate() {
                    let truth_culled =
                        snap.entries()[si].is_none() && truth_key.entries()[si].is_some();
                    if truth_culled {
                        let p_k = truth_key.entries()[si].map(|e| e.ecef).unwrap_or(Vec3::ZERO);
                        let env = truth_env.sats()[si];
                        assert!(
                            documented_cull(p_k, env, extremes, &observers, cutoff),
                            "truth {si} at {i}"
                        );
                        checked += 1;
                    }
                    if !row.is_dismissed(si) {
                        continue;
                    }
                    let p_k = published_key[si].unwrap_or(Vec3::ZERO);
                    let env = published_env.sats()[si];
                    assert!(
                        documented_cull(p_k, env, extremes, &observers, cutoff),
                        "published {si} at {i}"
                    );
                    checked += 1;
                    // Premises, on a sample of satellites and instants.
                    let Some(env) = env else { continue };
                    if si % 97 != 0 || i != k + 1 {
                        continue;
                    }
                    let rate = env.speed_max_km_s / env.r_min_km + OMEGA_EARTH_RAD_S;
                    for step in -6..=6 {
                        let dt = KEY_REACH_S * step as f64 / 6.0;
                        let t = key.plus_seconds(dt);
                        let Some(teme) = sat.published_position(t) else { continue };
                        let p = Mat3::rot_z(t.gmst_rad()) * teme;
                        assert!(p.norm() >= env.r_min_km && p.norm() <= env.r_max_km);
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
        let (low, high) = (6900.0, 6960.0);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0);
        let envelope =
            |r: f64| Envelope { r_min_km: r - 8.0, r_max_km: r + 8.0, speed_max_km_s: 7.7 };
        let e = (cutoff - 0.25f64).to_radians();
        for j in 0..30 {
            let site = Geodetic::new(40.0 + 0.05 * j as f64, -91.53, 0.2);
            let spec = CullSpec::new(&[site], cutoff).expect("a usable spec");
            let o = geodetic_to_ecef(site);
            let up = o.unit();
            let east = Vec3::new(-up.y, up.x, 0.0).unit();
            let north = up.cross(east);
            let offsets =
                (1..=40).map(|k| -0.005 * k as f64).chain((1..=60).map(|k| 0.05 * k as f64));
            let offsets: Vec<f64> = offsets.collect();
            let (mut row, mut inside, mut sats) = (Vec::new(), Vec::new(), Vec::new());
            for r in [low, high] {
                sats.push(Some(envelope(r)));
            }
            let envelopes = Envelopes { from: t0, to: t0, sats: sats.clone() };
            let (r_top, rate) = extremes(std::slice::from_ref(&envelopes));
            let psi = ((o.norm() / r_top) * e.cos()).acos() - e + 0.02f64.to_radians();
            let cap = psi + (rate + OMEGA_EARTH_RAD_S) * KEY_REACH_S;
            let mut row_sats = Vec::new();
            for az in (0..36).map(|k| (10.0 * k as f64).to_radians()) {
                for &offset in &offsets {
                    let theta = cap + offset.to_radians();
                    let d = up * theta.cos() + (north * az.cos() + east * az.sin()) * theta.sin();
                    for (r, env) in [low, high].into_iter().zip(&sats) {
                        row.push(Some(d * r));
                        row_sats.push(*env);
                        inside.push(offset < 0.0);
                    }
                }
            }
            let envelopes = Envelopes { from: t0, to: t0, sats: row_sats };
            let cull = spec.mark(&[&envelopes]).expect("a finite cap");
            let keep = cull.keep_set(&envelopes, &row);
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
