//! Two-tier per-epoch propagation cache.
//!
//! A measurement campaign asks for the same instants over and over: every
//! terminal's field-of-view query hits the slot's epoch, and every
//! terminal's candidate generator hits the same 16 sample epochs inside the
//! slot. [`PropagationCache`] memoizes both the **true** catalog snapshot
//! (scheduler side) and the **published**-TLE positions (identification
//! side) per exact epoch, so the constellation is SGP4-propagated once per
//! instant no matter how many terminals — or worker threads — observe it.
//!
//! The cache has two tiers:
//!
//! 1. **Prepared table** — an immutable, sorted epoch table built once by
//!    [`PropagationCache::prepare`] (a single batched, optionally parallel
//!    fill through the struct-of-arrays SGP4 path). Lookups against it are
//!    a binary search over a frozen `Vec` behind a `OnceLock`: **no lock,
//!    no write, no contention** on the hot read path, which is what lets
//!    the sharded campaign workers scale with cores. The campaign engine
//!    prepares every slot epoch (and, in identified mode, every slot
//!    boundary epoch) up front.
//! 2. **Fallback maps** — `RwLock<HashMap>` read-through maps for epochs
//!    nobody prepared. The campaign engine never reaches them: it prepares
//!    every epoch it reads. What does reach them is the ident crate's
//!    direct `candidate_tracks_through` (the reference `TrackCache` is
//!    tested against) and any `TrackCache` over an unprepared cache, the
//!    hot-path bench's warm-lookup timing, and this module's tests. Netemu
//!    and the experiment binaries propagate through
//!    [`Constellation::snapshot`] and never touch the cache. This is the
//!    cold path; correctness never depends on reaching it.
//!
//! Determinism: an epoch is keyed by the exact bit pattern of its Julian
//! date, and the cached value is a pure function of (catalog, epoch), so a
//! cache hit is bit-identical to recomputation and results cannot depend
//! on which thread populated an entry first — nor on whether an epoch was
//! served by the prepared table or a fallback map.

use crate::catalog::{Constellation, Snapshot};
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Hit/miss counters, for benches and capacity planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a warm entry (prepared table or fallback map).
    pub hits: usize,
    /// Lookups that had to propagate (a full catalog row or snapshot).
    pub misses: usize,
    /// True-snapshot entries currently cached (prepared + fallback).
    pub truth_entries: usize,
    /// Published-position entries currently cached (prepared + fallback).
    pub published_entries: usize,
}

/// The immutable tier-1 epoch table: sorted epoch keys with their
/// propagated rows, built once and never mutated, so readers need no
/// synchronization beyond the `OnceLock` publication.
#[derive(Debug, Default)]
struct PreparedEpochs {
    truth_keys: Vec<u64>,
    truth_rows: Vec<Arc<Snapshot>>,
    published_keys: Vec<u64>,
    published_rows: Vec<Arc<Vec<Option<Vec3>>>>,
}

/// A thread-safe, read-through memo of per-epoch propagation results for
/// one [`Constellation`].
#[derive(Debug)]
pub struct PropagationCache<'a> {
    constellation: &'a Constellation,
    /// Tier 1: immutable prepared epoch table (see module docs).
    prepared: OnceLock<PreparedEpochs>,
    // Tier 2 fallback. Determinism audit: these maps are accessed by key
    // only — `get`, `entry().or_insert`, `len`, `clear`. Hash order is
    // never observed, so `HashMap`'s O(1) lookups are safe on the
    // terminal-scale hot path. Any future iteration over them must switch
    // to `BTreeMap` or sort the keys first (starlint D201/X103 will flag
    // it).
    truth: RwLock<HashMap<u64, Arc<Snapshot>>>,
    published: RwLock<HashMap<u64, Arc<Vec<Option<Vec3>>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Locks can only be poisoned by a panicking writer; the cached values are
/// write-once and valid even then, so recover the guard instead of
/// propagating the poison.
fn read_unpoisoned<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_unpoisoned<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sorted, deduplicated bit-pattern keys for a list of epochs.
fn sorted_keys(epochs: &[JulianDate]) -> Vec<u64> {
    let mut keys: Vec<u64> = epochs.iter().map(|at| at.0.to_bits()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Computes `rows[i] = make(keys[i])` across up to `threads` scoped
/// workers. Workers take interleaved indices and return `(index, row)`
/// pairs that are merged by index, so the output order — and therefore
/// everything downstream — is independent of scheduling.
fn fill_rows<R: Send>(
    keys: &[u64],
    threads: usize,
    make: impl Fn(JulianDate) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(keys.len().max(1));
    if threads <= 1 {
        return keys.iter().map(|&k| make(JulianDate(f64::from_bits(k)))).collect();
    }
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(keys.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..threads {
            let make = &make;
            handles.push(scope.spawn(move || {
                keys.iter()
                    .enumerate()
                    .skip(worker)
                    .step_by(threads)
                    .map(|(i, &k)| (i, make(JulianDate(f64::from_bits(k)))))
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

impl<'a> PropagationCache<'a> {
    /// Creates an empty cache over `constellation`.
    pub fn new(constellation: &'a Constellation) -> PropagationCache<'a> {
        PropagationCache {
            constellation,
            prepared: OnceLock::new(),
            truth: RwLock::new(HashMap::new()),
            published: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The catalog this cache propagates.
    pub fn constellation(&self) -> &'a Constellation {
        self.constellation
    }

    /// Builds the immutable tier-1 epoch table: true snapshots for every
    /// epoch in `truth_epochs` and published-TLE rows for every epoch in
    /// `published_epochs`, filled by one batched pass fanned across up to
    /// `threads` scoped workers (≤ 1 fills serially).
    ///
    /// Returns `false` (and changes nothing) if the table was already
    /// built — the table is write-once by design, so callers prepare every
    /// epoch they need in one call before the hot loops start. Epochs are
    /// deduplicated; later lookups of a prepared epoch touch no lock.
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
        let truth_rows =
            fill_rows(&truth_keys, threads, |at| Arc::new(self.constellation.snapshot(at)));
        let published_rows = fill_rows(&published_keys, threads, |at| {
            Arc::new(self.constellation.published_row(at))
        });
        let table = PreparedEpochs { truth_keys, truth_rows, published_keys, published_rows };
        self.prepared.set(table).is_ok()
    }

    /// Tier-1 lookup of a prepared true snapshot (no locks).
    fn prepared_truth(&self, key: u64) -> Option<&Arc<Snapshot>> {
        let p = self.prepared.get()?;
        let i = p.truth_keys.binary_search(&key).ok()?;
        Some(&p.truth_rows[i])
    }

    /// Tier-1 lookup of a prepared published row (no locks).
    fn prepared_published(&self, key: u64) -> Option<&Arc<Vec<Option<Vec3>>>> {
        let p = self.prepared.get()?;
        let i = p.published_keys.binary_search(&key).ok()?;
        Some(&p.published_rows[i])
    }

    /// True-position snapshot at `at`, computed at most once per distinct
    /// epoch (bit-exact key). Prepared epochs are answered lock-free.
    pub fn snapshot(&self, at: JulianDate) -> Arc<Snapshot> {
        let key = at.0.to_bits();
        if let Some(hit) = self.prepared_truth(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        if let Some(hit) = read_unpoisoned(&self.truth).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Propagate outside the lock: epochs are pure functions of the
        // catalog, so a racing duplicate computation is wasted work at
        // worst, never a wrong answer.
        let snap = Arc::new(self.constellation.snapshot(at));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = write_unpoisoned(&self.truth);
        Arc::clone(map.entry(key).or_insert(snap))
    }

    /// Published-TLE TEME positions of every catalog satellite at `at`
    /// (`None` where propagation fails), computed at most once per epoch.
    /// Indexed like [`Constellation::sats`]. Prepared epochs are answered
    /// lock-free.
    pub fn published_positions(&self, at: JulianDate) -> Arc<Vec<Option<Vec3>>> {
        let key = at.0.to_bits();
        if let Some(hit) = self.prepared_published(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        if let Some(hit) = read_unpoisoned(&self.published).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let positions = self.constellation.published_row(at);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = write_unpoisoned(&self.published);
        Arc::clone(map.entry(key).or_insert(Arc::new(positions)))
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let (prepared_truth, prepared_published) = match self.prepared.get() {
            Some(p) => (p.truth_keys.len(), p.published_keys.len()),
            None => (0, 0),
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            truth_entries: prepared_truth + read_unpoisoned(&self.truth).len(),
            published_entries: prepared_published + read_unpoisoned(&self.published).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ConstellationBuilder;
    use starsense_astro::frames::Geodetic;

    fn mini() -> Constellation {
        ConstellationBuilder::starlink_mini().seed(42).build()
    }

    #[test]
    fn snapshot_through_cache_matches_direct() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0);
        let iowa = Geodetic::new(41.66, -91.53, 0.2);

        let direct = c.field_of_view(iowa, at, 25.0);
        let cached = c.field_of_view_from(&cache.snapshot(at), iowa, 25.0);
        assert_eq!(direct.len(), cached.len());
        for (a, b) in direct.iter().zip(&cached) {
            assert_eq!(a.norad_id, b.norad_id);
            assert_eq!(a.look, b.look);
            assert_eq!(a.sunlit, b.sunlit);
        }
    }

    #[test]
    fn repeat_lookups_hit() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0);
        let first = cache.snapshot(at);
        let second = cache.snapshot(at);
        assert!(Arc::ptr_eq(&first, &second), "same epoch must share one snapshot");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.truth_entries), (1, 1, 1));
    }

    #[test]
    fn published_positions_match_satellite_calls() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let cached = cache.published_positions(at);
        assert_eq!(cached.len(), c.len());
        for (sat, pos) in c.sats().iter().zip(cached.iter()) {
            assert_eq!(*pos, sat.published_position(at));
        }
        // Second lookup is a hit.
        let again = cache.published_positions(at);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn distinct_epochs_get_distinct_entries() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let t1 = t0.plus_seconds(15.0);
        let _ = cache.snapshot(t0);
        let _ = cache.snapshot(t1);
        assert_eq!(cache.stats().truth_entries, 2);
    }

    #[test]
    fn prepared_epochs_answer_without_touching_fallback_maps() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let t0 = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let truth: Vec<JulianDate> = (0..6).map(|k| t0.plus_seconds(15.0 * k as f64)).collect();
        let published: Vec<JulianDate> = (0..3).map(|k| t0.plus_seconds(5.0 * k as f64)).collect();
        assert!(cache.prepare(&truth, &published, 3));

        let s = cache.stats();
        assert_eq!((s.truth_entries, s.published_entries), (6, 3));

        for &at in &truth {
            let snap = cache.snapshot(at);
            assert_eq!(snap.len(), c.len());
        }
        for &at in &published {
            let row = cache.published_positions(at);
            for (sat, pos) in c.sats().iter().zip(row.iter()) {
                assert_eq!(*pos, sat.published_position(at));
            }
        }
        let s = cache.stats();
        // Every lookup above was a prepared hit: no misses, and the
        // fallback maps stayed empty.
        assert_eq!(s.misses, 0);
        assert_eq!(read_unpoisoned(&cache.truth).len(), 0);
        assert_eq!(read_unpoisoned(&cache.published).len(), 0);
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
        let direct = c.snapshot(t0);
        let prepared = cache.snapshot(t0);
        assert_eq!(direct.len(), prepared.len());
        for (a, b) in direct.entries().iter().zip(prepared.entries()) {
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.teme.x.to_bits(), b.teme.x.to_bits());
                    assert_eq!(a.ecef.y.to_bits(), b.ecef.y.to_bits());
                    assert_eq!(a.sunlit, b.sunlit);
                }
                other => panic!("entry mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_readers_share_one_propagation_per_epoch() {
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let warm = cache.snapshot(at);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let snap = cache.snapshot(at);
                    assert_eq!(snap.len(), cache.constellation().len());
                });
            }
        });
        assert_eq!(cache.stats().truth_entries, 1);
        assert!(Arc::ptr_eq(&warm, &cache.snapshot(at)));
    }

    #[test]
    fn poisoned_writer_does_not_wedge_readers() {
        // A panicking thread holding the write lock poisons it; the
        // `read_unpoisoned`/`write_unpoisoned` helpers must recover, so a
        // campaign survives a worker panic without deadlocking or
        // propagating the poison to unrelated readers.
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let _ = cache.snapshot(at);

        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.truth.write().expect("first writer sees no poison");
                    panic!("poison the truth map while holding the write lock");
                })
                .join()
        });
        assert!(result.is_err(), "the writer thread must have panicked");
        assert!(cache.truth.is_poisoned(), "the panic must actually poison the lock");

        // Reads (warm and cold) and writes still work, and return what a
        // fresh cache reads.
        let warm = cache.snapshot(at);
        let cold = cache.snapshot(at.plus_seconds(15.0));
        assert_eq!(cache.stats().truth_entries, 2);
        let fresh = PropagationCache::new(&c);
        let bits = |s: &Snapshot| -> Vec<Option<[u64; 3]>> {
            let entries = s.entries().iter();
            entries
                .map(|e| e.as_ref().map(|e| [e.ecef.x, e.ecef.y, e.ecef.z].map(f64::to_bits)))
                .collect()
        };
        assert_eq!(bits(&warm), bits(&fresh.snapshot(at)));
        assert_eq!(bits(&cold), bits(&fresh.snapshot(at.plus_seconds(15.0))));
    }

    #[test]
    fn poisoned_published_map_recovers_bit_identically() {
        // Same recovery contract for the published-TLE fallback map, with
        // the stronger assertion the resumable engine depends on: values
        // read through a poisoned lock are bit-identical to a fresh
        // cache's, because the entries are write-once pure functions of
        // the catalog.
        let c = mini();
        let cache = PropagationCache::new(&c);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
        let _ = cache.published_positions(at);

        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.published.write().expect("first writer sees no poison");
                    panic!("poison the published map while holding the write lock");
                })
                .join()
        });
        assert!(result.is_err(), "the writer thread must have panicked");
        assert!(cache.published.is_poisoned(), "the panic must actually poison the lock");

        let later = at.plus_seconds(15.0);
        let poisoned_warm = cache.published_positions(at);
        let poisoned_cold = cache.published_positions(later);

        let fresh = PropagationCache::new(&c);
        for (a, b) in [
            (&poisoned_warm, &fresh.published_positions(at)),
            (&poisoned_cold, &fresh.published_positions(later)),
        ] {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                match (x, y) {
                    (Some(p), Some(q)) => {
                        assert_eq!(p.x.to_bits(), q.x.to_bits());
                        assert_eq!(p.y.to_bits(), q.y.to_bits());
                        assert_eq!(p.z.to_bits(), q.z.to_bits());
                    }
                    (None, None) => {}
                    _ => panic!("propagation success must not depend on lock state"),
                }
            }
        }
    }
}
