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

use crate::catalog::{Constellation, Snapshot};
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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
}

/// The immutable epoch table: sorted epoch keys with their propagated
/// rows, built once and never mutated, so readers need no synchronization
/// beyond the `OnceLock` publication.
#[derive(Debug, Default)]
struct PreparedEpochs {
    truth_keys: Vec<u64>,
    truth_rows: Vec<Arc<Snapshot>>,
    published_keys: Vec<u64>,
    published_rows: Vec<Arc<Vec<Option<Vec3>>>>,
}

/// A lock-free table of per-epoch propagation results for one
/// [`Constellation`].
#[derive(Debug)]
pub struct PropagationCache<'a> {
    constellation: &'a Constellation,
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
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The catalog this cache propagates.
    pub fn constellation(&self) -> &'a Constellation {
        self.constellation
    }

    /// Builds the immutable epoch table: true snapshots for every
    /// epoch in `truth_epochs` and published-TLE rows for every epoch in
    /// `published_epochs`, filled by one pass fanned across up to
    /// `threads` scoped workers (≤ 1 fills serially).
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
        let truth_rows =
            fill_rows(&truth_keys, threads, |at| Arc::new(self.constellation.snapshot(at)));
        let published_rows = fill_rows(&published_keys, threads, |at| {
            Arc::new(self.constellation.published_row(at))
        });
        let table = PreparedEpochs { truth_keys, truth_rows, published_keys, published_rows };
        self.prepared.set(table).is_ok()
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
    /// table or, for an unprepared epoch, propagated on the spot.
    pub fn snapshot(&self, at: JulianDate) -> Arc<Snapshot> {
        self.lookup(at, |p| (&p.truth_keys, &p.truth_rows), || self.constellation.snapshot(at))
    }

    /// Published-TLE TEME positions of every catalog satellite at `at`
    /// (`None` where propagation fails), indexed like
    /// [`Constellation::sats`]: from the prepared table or, for an
    /// unprepared epoch, propagated on the spot.
    pub fn published_positions(&self, at: JulianDate) -> Arc<Vec<Option<Vec3>>> {
        self.lookup(
            at,
            |p| (&p.published_keys, &p.published_rows),
            || self.constellation.published_row(at),
        )
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let (truth_entries, published_entries) = match self.prepared.get() {
            Some(p) => (p.truth_keys.len(), p.published_keys.len()),
            None => (0, 0),
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            truth_entries,
            published_entries,
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
        assert_eq!(row.len(), c.len());
        for (sat, pos) in c.sats().iter().zip(row.iter()) {
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
            assert_eq!(row_bits(&unprepared.published_positions(at)), direct);
            assert_eq!(row_bits(&prepared.published_positions(at)), direct);
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
}
