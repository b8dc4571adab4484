//! Dynamic time warping (DTW) for trajectory matching.
//!
//! §4.1 of the paper matches the trajectory isolated from an obstruction map
//! against the SGP4-propagated trajectories of every candidate satellite by
//! computing DTW distances (after converting both to Cartesian coordinates)
//! and picking the candidate with the smallest distance.
//!
//! DTW is the right tool there because the two sequences are sampled
//! differently — the obstruction map paints a pixel trail with no timestamps
//! while the candidate tracks are sampled uniformly in time — so a point-wise
//! (lockstep) distance would be meaningless. DTW finds the monotone alignment
//! between the sequences that minimizes total point distance.
//!
//! This crate implements:
//!
//! * [`dtw_distance`] — classic O(n·m) DTW with an O(min(n,m)) rolling row,
//!   the exhaustive reference,
//! * [`dtw_distance_early_abandon`] — DTW that gives up as soon as every
//!   alignment provably exceeds a cutoff (the 1-NN pruning workhorse),
//! * [`dtw_lower_bound`] — an O(1) endpoint lower bound used to order and
//!   prune candidates before any matrix work,
//! * [`ellipse_lower_bound`] — a bound that needs only a candidate's two
//!   endpoints and an ellipse known to hold its other points, so a caller
//!   can order and prune candidates it has not built yet,
//! * [`best_match_by`] — the 1-nearest-neighbour search over DTW that is
//!   exactly the matching rule of §4.1, in bound/measure form: the caller
//!   gives every candidate's lower bound and a closure that measures one
//!   candidate against a cutoff. The search visits candidates in ascending
//!   (bound, index) order, stops at the first whose bound exceeds the
//!   running runner-up, and has the rest measured with early abandoning
//!   against that runner-up; the result stays **bit-identical** to the
//!   exhaustive scan for any valid bounds. A closure may build a candidate
//!   only when it is first measured, so candidates the bound prunes cost
//!   nothing past their bound,
//! * [`best_match`] — the same search over materialized groups of
//!   alternative sequences (the identifier passes a track and its
//!   reversal), each scored by the smallest of their distances.
//!
//! Distances are Euclidean over fixed-size points (`[f64; N]`), covering the
//! 2-D Cartesian sky tracks the paper uses as well as 3-D variants.

/// Euclidean distance between two `N`-dimensional points.
pub fn euclidean<const N: usize>(a: &[f64; N], b: &[f64; N]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Dynamic time warping distance between two sequences of `N`-dimensional
/// points, with no warping-window constraint.
///
/// Returns `f64::INFINITY` when either sequence is empty (nothing aligns).
/// Memory is O(min-length); time is O(n·m).
pub fn dtw_distance<const N: usize>(a: &[[f64; N]], b: &[[f64; N]]) -> f64 {
    // Keep the shorter sequence as the row to minimize memory.
    let (rows, cols) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if rows.is_empty() || cols.is_empty() {
        return f64::INFINITY;
    }

    let n = rows.len();
    let mut prev = vec![f64::INFINITY; n + 1];
    let mut curr = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;

    for col in cols {
        curr[0] = f64::INFINITY;
        for (i, row) in rows.iter().enumerate() {
            let cost = euclidean(row, col);
            curr[i + 1] = cost + prev[i + 1].min(curr[i]).min(prev[i]);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// Outcome of an early-abandoning DTW evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbandonableDtw {
    /// The exact DTW distance, or `f64::INFINITY` when the evaluation was
    /// abandoned (the true distance is then provably `> cutoff`).
    pub distance: f64,
    /// Matrix cells actually evaluated (the full matrix would be n·m).
    pub cells: usize,
    /// True when the evaluation stopped early.
    pub abandoned: bool,
}

/// A cheap O(1) lower bound on [`dtw_distance`]: every warping path aligns
/// the two first points and the two last points, so their distances bound
/// the total from below. Returns `f64::INFINITY` for empty input (matching
/// [`dtw_distance`]'s convention).
pub fn dtw_lower_bound<const N: usize>(a: &[[f64; N]], b: &[[f64; N]]) -> f64 {
    let (Some(a_first), Some(b_first)) = (a.first(), b.first()) else {
        return f64::INFINITY;
    };
    let first = euclidean(a_first, b_first);
    if a.len() == 1 && b.len() == 1 {
        // First and last are the same single cell; count it once.
        return first;
    }
    first + euclidean(&a[a.len() - 1], &b[b.len() - 1])
}

/// DTW distance with early abandoning: as soon as *every* alignment is
/// provably more expensive than `cutoff`, the evaluation stops.
///
/// The abandon test is exact, not heuristic: each warping path visits at
/// least one cell in every column of the cost matrix (paths are monotone
/// and single-step), so once a whole column's minimum cumulative cost
/// exceeds `cutoff`, no path can finish below it. Consequently, when
/// `abandoned` is false the returned distance equals [`dtw_distance`]
/// bit-for-bit, and when it is true the true distance is strictly greater
/// than `cutoff` — which is all a best-so-far 1-NN search needs.
///
/// A `cutoff` of `f64::INFINITY` never abandons.
pub fn dtw_distance_early_abandon<const N: usize>(
    a: &[[f64; N]],
    b: &[[f64; N]],
    cutoff: f64,
) -> AbandonableDtw {
    // Keep the shorter sequence as the row to minimize memory, exactly as
    // dtw_distance does (DTW is symmetric, so results are unaffected).
    let (rows, cols) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if rows.is_empty() || cols.is_empty() {
        return AbandonableDtw { distance: f64::INFINITY, cells: 0, abandoned: false };
    }

    let n = rows.len();
    let mut prev = vec![f64::INFINITY; n + 1];
    let mut curr = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;

    let mut cells = 0usize;
    for col in cols {
        curr[0] = f64::INFINITY;
        let mut col_min = f64::INFINITY;
        for (i, row) in rows.iter().enumerate() {
            let cost = euclidean(row, col);
            let value = cost + prev[i + 1].min(curr[i]).min(prev[i]);
            curr[i + 1] = value;
            col_min = col_min.min(value);
        }
        cells += n;
        if col_min > cutoff {
            return AbandonableDtw { distance: f64::INFINITY, cells, abandoned: true };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    AbandonableDtw { distance: prev[n], cells, abandoned: false }
}

/// Relative guard a bound from [`ellipse_lower_bound`] gives up to the
/// rounding of its own sums and of the DTW sums it is compared with.
const BOUND_GUARD: f64 = 1e-9;

/// A lower bound on the smaller of `dtw_distance(query, c)` and
/// `dtw_distance(query, c reversed)` for every sequence `c` that starts at
/// `first`, ends at `last`, and whose every point `p` lies in the ellipse
/// `|p − first| + |p − last| ≤ major_axis` (an infinite or NaN axis bounds
/// nothing). Needs no point of `c` but its two ends.
///
/// Every warping path aligns the first and last query points with the
/// two ends of `c` (in either orientation) and every other query point `q`
/// with at least one point `p` of `c`, in its own row of the matrix. By
/// the triangle inequality `|q − first| + |q − last| ≤ 2|q − p| + |p −
/// first| + |p − last|`, so that cell costs at least `(|q − first| + |q −
/// last| − major_axis) / 2`. The sum of these terms, less a relative
/// rounding guard of 1e-9, is the bound; with a query of one point it is
/// the larger endpoint distance (its cells may be one). Returns
/// `f64::INFINITY` for an empty query.
pub fn ellipse_lower_bound<const N: usize>(
    query: &[[f64; N]],
    first: &[f64; N],
    last: &[f64; N],
    major_axis: f64,
) -> f64 {
    let (Some(q0), Some(qm)) = (query.first(), query.last()) else {
        return f64::INFINITY;
    };
    let ends = if query.len() == 1 {
        euclidean(q0, first).max(euclidean(q0, last))
    } else {
        let forward = euclidean(q0, first) + euclidean(qm, last);
        forward.min(euclidean(q0, last) + euclidean(qm, first))
    };
    let mut raw = ends;
    if major_axis.is_finite() && query.len() > 2 {
        for q in &query[1..query.len() - 1] {
            let outside = euclidean(q, first) + euclidean(q, last) - major_axis;
            if outside > 0.0 {
                raw += outside / 2.0;
            }
        }
    }
    (raw - BOUND_GUARD * (1.0 + raw)).max(0.0)
}

/// Result of a [`best_match`] query.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Index of the best-matching candidate.
    pub index: usize,
    /// Its DTW distance.
    pub distance: f64,
    /// Distance of the runner-up (`f64::INFINITY` with a single candidate).
    ///
    /// The gap between `distance` and `runner_up` is a practical confidence
    /// signal: the identification pipeline reports matches with a small gap
    /// as ambiguous.
    pub runner_up: f64,
}

/// Work counters for a [`best_match`] query, for benches and regression
/// tests of pruning effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// DTW matrix cells actually evaluated across all candidates.
    pub cells_evaluated: usize,
    /// Cells an exhaustive scan would have evaluated (Σ n·mᵢ over every
    /// member of every candidate). [`best_match`] fills it in;
    /// [`best_match_by`] cannot know it and leaves it 0.
    pub cells_full: usize,
    /// Candidates whose DTW evaluation was started.
    pub evaluated: usize,
    /// Candidates skipped outright by the lower bound (no matrix work).
    pub pruned: usize,
    /// Always 0: [`best_match`] has no coarse pass. The field stays only
    /// because the campaign benchmark's traced pass
    /// (`campaign_bench/src/trace.rs`) reads it.
    pub coarse_cells: usize,
}

/// The smallest DTW distance from `query` to any of `members`, each
/// measured with [`dtw_distance_early_abandon`] against `cutoff` or the
/// best member so far, whichever is smaller, and the cells evaluated. The
/// distance is exact when it is at most `cutoff`, and `> cutoff` (often
/// `f64::INFINITY`) otherwise; no members give `f64::INFINITY`.
pub fn group_distance<const N: usize, M: AsRef<[[f64; N]]>>(
    query: &[[f64; N]],
    members: &[M],
    cutoff: f64,
) -> (f64, usize) {
    let mut distance = f64::INFINITY;
    let mut cells = 0;
    for member in members {
        let result = dtw_distance_early_abandon(query, member.as_ref(), cutoff.min(distance));
        cells += result.cells;
        distance = distance.min(result.distance);
    }
    (distance, cells)
}

/// The 1-NN search of §4.1 in bound/measure form: candidate `i` has lower
/// bound `bounds[i]`, and `measure(i, cutoff)` returns its distance —
/// exact when at most `cutoff`, anything above `cutoff` otherwise — and
/// the DTW cells that took ([`group_distance`] is such a measure).
/// Returns `None` with no candidates; `cells_full` stays 0.
///
/// The result is bit-identical to an exhaustive scan (every candidate
/// measured exactly, in index order, strict `<` updates): same winning
/// index (ties broken by lowest index), same `distance`, same exact
/// `runner_up`. The search gets there with less work:
///
/// * candidates are visited in ascending (bound, index) order, so the true
///   best and runner-up are usually measured first;
/// * once a bound exceeds the running runner-up the scan stops, counting
///   that candidate and every later one as `pruned`: each is never
///   measured;
/// * each visited candidate is measured against the running runner-up.
///
/// Exactness argument: the runner-up only ever decreases, every
/// candidate's distance is at least its bound, and a measure is exact up
/// to its cutoff; a skipped candidate therefore has distance `> runner_up
/// ≥ best` and a cut-off one a distance `> runner_up` — neither can change
/// the winner *or* the runner-up, for any valid bounds and any visit
/// order. Cutting against the runner-up rather than the best keeps
/// distances in `(best, runner_up]` measured exactly. Minimal-distance
/// candidates can never be skipped (their bound never exceeds the
/// runner-up), so ties still resolve on the full set of minima, by lowest
/// index.
pub fn best_match_by(
    bounds: &[f64],
    mut measure: impl FnMut(usize, f64) -> (f64, usize),
) -> Option<(Match, PruneStats)> {
    if bounds.is_empty() {
        return None;
    }
    let mut stats = PruneStats::default();
    let mut order: Vec<(f64, usize)> = bounds.iter().copied().zip(0..).collect();
    order.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));

    let mut best_index = usize::MAX;
    let mut best = f64::INFINITY;
    let mut runner = f64::INFINITY;
    for (visited, &(bound, index)) in order.iter().enumerate() {
        if bound > runner {
            // Sorted by bound, so every later candidate is skipped too.
            stats.pruned = order.len() - visited;
            break;
        }
        stats.evaluated += 1;
        let (distance, cells) = measure(index, runner);
        stats.cells_evaluated += cells;
        #[expect(
            clippy::float_cmp,
            reason = "exact tie: equal distances keep the lowest index, as the exhaustive oracle does"
        )]
        if distance < best || (distance == best && index < best_index) {
            runner = best;
            best = distance;
            best_index = index;
        } else if distance < runner {
            runner = distance;
        }
    }
    Some((Match { index: best_index, distance: best, runner_up: runner }, stats))
}

/// Finds the candidate with the lowest DTW distance to `query` — the
/// matching rule of §4.1 ("the available satellite with the lowest DTW
/// distance is chosen as the current serving satellite") — plus counters
/// describing how much work the pruning saved.
///
/// Each candidate is a group of one or more alternative sequences and
/// scores the smallest of their distances (an empty group scores
/// `f64::INFINITY`). Returns `None` when `query` or `candidates` is empty.
///
/// This is [`best_match_by`] with each candidate's bound the minimum
/// [`dtw_lower_bound`] over its members and [`group_distance`] as the
/// measure, so the result is bit-identical to the exhaustive scan (every
/// member measured with [`dtw_distance`], candidates in index order,
/// strict `<` updates); see [`best_match_by`] for the argument. An
/// abandoned member's distance is `> runner_up` or above a sibling it
/// cannot undercut.
pub fn best_match<const N: usize, G: AsRef<[Vec<[f64; N]>]>>(
    query: &[[f64; N]],
    candidates: &[G],
) -> Option<(Match, PruneStats)> {
    if query.is_empty() {
        return None;
    }
    let members = |index: usize| candidates[index].as_ref();
    let bounds: Vec<f64> = (0..candidates.len())
        .map(|i| members(i).iter().map(|m| dtw_lower_bound(query, m)).fold(f64::INFINITY, f64::min))
        .collect();
    let (found, mut stats) =
        best_match_by(&bounds, |index, cutoff| group_distance(query, members(index), cutoff))?;
    stats.cells_full =
        (0..candidates.len()).flat_map(|i| members(i).iter().map(|m| query.len() * m.len())).sum();
    Some((found, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq1d(xs: &[f64]) -> Vec<[f64; 1]> {
        xs.iter().map(|&x| [x]).collect()
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = seq1d(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(dtw_distance(&a, &a), 0.0);
    }

    #[test]
    fn dtw_absorbs_time_stretch() {
        // Same shape, one sampled twice as densely: lockstep distance would
        // be large, DTW should be exactly zero (every point has an equal).
        let a = seq1d(&[0.0, 1.0, 2.0, 3.0]);
        let b = seq1d(&[0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        assert_eq!(dtw_distance(&a, &b), 0.0);
    }

    #[test]
    fn dtw_is_symmetric() {
        let a = seq1d(&[0.0, 2.0, 4.0, 3.0]);
        let b = seq1d(&[1.0, 2.0, 2.5, 5.0, 3.0]);
        assert_eq!(dtw_distance(&a, &b), dtw_distance(&b, &a));
    }

    #[test]
    fn known_small_example() {
        // D matrix by hand: a=[1,2,3], b=[2,2,2,3,4].
        // Optimal alignment: |1-2| + 0 + 0 + 0(2?)... compute: path cost 1 (1→2)
        // then 2→2 zero (twice), 3→3 zero, 3→4 one ⇒ total 2.
        let a = seq1d(&[1.0, 2.0, 3.0]);
        let b = seq1d(&[2.0, 2.0, 2.0, 3.0, 4.0]);
        assert_eq!(dtw_distance(&a, &b), 2.0);
    }

    #[test]
    fn empty_sequence_gives_infinity() {
        let a = seq1d(&[1.0]);
        let empty: Vec<[f64; 1]> = Vec::new();
        assert_eq!(dtw_distance(&a, &empty), f64::INFINITY);
        assert_eq!(dtw_distance(&empty, &a), f64::INFINITY);
        assert_eq!(dtw_lower_bound(&a, &empty), f64::INFINITY);
        let ea = dtw_distance_early_abandon(&a, &empty, f64::INFINITY);
        assert_eq!((ea.distance, ea.cells, ea.abandoned), (f64::INFINITY, 0, false));
    }

    #[test]
    fn early_abandon_without_cutoff_matches_plain_dtw() {
        let a = seq1d(&[0.0, 2.0, 4.0, 3.0]);
        let b = seq1d(&[1.0, 2.0, 2.5, 5.0, 3.0]);
        let ea = dtw_distance_early_abandon(&a, &b, f64::INFINITY);
        assert!(!ea.abandoned);
        assert_eq!(ea.distance, dtw_distance(&a, &b));
        assert_eq!(ea.cells, a.len() * b.len());
    }

    #[test]
    fn early_abandon_stops_under_tight_cutoff() {
        let a = seq1d(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let b = seq1d(&[100.0, 100.0, 100.0, 100.0, 100.0, 100.0]);
        let ea = dtw_distance_early_abandon(&a, &b, 1.0);
        assert!(ea.abandoned);
        assert_eq!(ea.distance, f64::INFINITY);
        assert!(ea.cells < a.len() * b.len(), "should abandon before the full matrix");
        // The true distance really is above the cutoff.
        assert!(dtw_distance(&a, &b) > 1.0);
    }

    #[test]
    fn lower_bound_never_exceeds_distance() {
        let a = seq1d(&[1.0, 5.0, 2.0]);
        let b = seq1d(&[2.0, 4.0, 4.0, 1.0]);
        assert!(dtw_lower_bound(&a, &b) <= dtw_distance(&a, &b));
        // Single-point sequences: first and last are one cell, counted once.
        let p = seq1d(&[3.0]);
        let q = seq1d(&[7.0]);
        assert_eq!(dtw_lower_bound(&p, &q), 4.0);
        assert_eq!(dtw_lower_bound(&p, &q), dtw_distance(&p, &q));
    }

    #[test]
    fn two_dimensional_points_work() {
        let a: Vec<[f64; 2]> = vec![[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]];
        let b: Vec<[f64; 2]> = vec![[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]];
        assert_eq!(dtw_distance(&a, &b), 0.0);
    }

    /// Wraps each sequence as a single-member candidate group.
    fn singles<const N: usize>(seqs: Vec<Vec<[f64; N]>>) -> Vec<[Vec<[f64; N]>; 1]> {
        seqs.into_iter().map(|s| [s]).collect()
    }

    /// A match as (index, distance bits, runner-up bits), for bit-exact
    /// comparison.
    fn bits(m: &Match) -> (usize, u64, u64) {
        (m.index, m.distance.to_bits(), m.runner_up.to_bits())
    }

    /// The exhaustive scan, kept as the test oracle: every member measured
    /// with the full matrix, a candidate scoring the smallest of its
    /// members' distances, candidates scanned forward with strict `<`.
    fn exhaustive_best_match<const N: usize, G: AsRef<[Vec<[f64; N]>]>>(
        query: &[[f64; N]],
        candidates: &[G],
    ) -> Option<Match> {
        if query.is_empty() {
            return None;
        }
        let mut best: Option<Match> = None;
        for (index, group) in candidates.iter().enumerate() {
            let distance =
                group.as_ref().iter().map(|m| dtw_distance(query, m)).fold(f64::INFINITY, f64::min);
            best = Some(match best {
                None => Match { index, distance, runner_up: f64::INFINITY },
                Some(b) if distance < b.distance => {
                    Match { index, distance, runner_up: b.distance }
                }
                Some(mut b) => {
                    if distance < b.runner_up {
                        b.runner_up = distance;
                    }
                    b
                }
            });
        }
        best
    }

    #[test]
    fn nearest_sequence_picks_the_closest_track() {
        let candidates = singles(vec![
            vec![[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], // along +x
            vec![[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]], // along +y
        ]);
        let query = vec![[0.1, 0.0], [1.1, 0.05], [2.0, -0.1]];
        let (m, _) = best_match(&query, &candidates).unwrap();
        assert_eq!(m.index, 0);
        assert!(m.distance < m.runner_up);
    }

    #[test]
    fn nearest_sequence_handles_edge_cases() {
        let none: Vec<[Vec<[f64; 1]>; 1]> = Vec::new();
        assert!(best_match(&seq1d(&[1.0]), &none).is_none());

        let candidates = singles(vec![seq1d(&[5.0])]);
        assert!(best_match(&[], &candidates).is_none());
        let (m, _) = best_match(&seq1d(&[5.0]), &candidates).unwrap();
        assert_eq!(m.runner_up, f64::INFINITY);
    }

    #[test]
    fn pruned_best_match_is_bit_identical_on_ties() {
        // Two candidates at the exact same distance: the winner must be the
        // lower index, and the runner-up must equal the winning distance —
        // exactly what a forward exhaustive scan reports.
        let candidates = singles(vec![
            seq1d(&[10.0, 11.0, 12.0]),
            seq1d(&[0.0, 1.0, 2.0]),
            seq1d(&[0.0, 1.0, 2.0]),
        ]);
        let query = seq1d(&[0.5, 1.5, 2.5]);
        let (pruned, _) = best_match(&query, &candidates).unwrap();
        let full = exhaustive_best_match(&query, &candidates).unwrap();
        assert_eq!(bits(&pruned), bits(&full));
        assert_eq!(pruned.index, 1);
        assert_eq!(pruned.distance, pruned.runner_up);
    }

    #[test]
    fn pruned_best_match_evaluates_fewer_cells() {
        // One near candidate and many far ones: the far ones should be
        // abandoned early or skipped outright by the lower bound.
        let mut seqs = vec![seq1d(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])];
        for k in 1..=12 {
            let off = 1000.0 * k as f64;
            seqs.push(seq1d(&[off, off + 1.0, off + 2.0, off + 3.0, off + 4.0, off + 5.0]));
        }
        let candidates = singles(seqs);
        let query = seq1d(&[0.1, 1.1, 2.1, 3.1, 4.1, 5.1, 6.1, 7.1]);
        let (m, stats) = best_match(&query, &candidates).unwrap();
        assert_eq!(m.index, 0);
        assert!(
            stats.cells_evaluated < stats.cells_full / 2,
            "pruning saved too little: {} of {} cells",
            stats.cells_evaluated,
            stats.cells_full
        );
        assert!(stats.pruned > 0, "lower bound should skip distant candidates outright");
        assert_eq!(bits(&m), bits(&exhaustive_best_match(&query, &candidates).unwrap()));
    }

    #[test]
    fn pruned_best_match_handles_empty_candidates() {
        // Empty candidate sequences and an empty group have infinite
        // distance; the scan must still agree with the exhaustive oracle
        // (first index wins).
        let candidates: Vec<Vec<Vec<[f64; 1]>>> = vec![vec![Vec::new()], vec![Vec::new()], vec![]];
        let query = seq1d(&[1.0]);
        let (pruned, _) = best_match(&query, &candidates).unwrap();
        assert_eq!(bits(&pruned), bits(&exhaustive_best_match(&query, &candidates).unwrap()));
        assert_eq!(pruned.index, 0);
        assert_eq!(pruned.distance, f64::INFINITY);
    }

    #[test]
    fn cascade_orders_far_candidates_out_of_the_exact_pass() {
        // The best candidate and its close runner-up are placed LAST by
        // index, so index-ordered visiting would evaluate every far
        // candidate exactly first; lower-bound order must instead surface
        // the two of them immediately, after which the tight runner-up
        // cutoff stops the scan before any far candidate's matrix work.
        let n = 32;
        let mut seqs = Vec::new();
        for k in 0..12 {
            let off = 500.0 + 40.0 * k as f64;
            seqs.push(seq1d(&(0..n).map(|i| off + i as f64).collect::<Vec<_>>()));
        }
        seqs.push(seq1d(&(0..n).map(|i| i as f64).collect::<Vec<_>>()));
        seqs.push(seq1d(&(0..n).map(|i| i as f64 + 1.0).collect::<Vec<_>>()));
        let candidates = singles(seqs);
        let query = seq1d(&(0..n).map(|i| i as f64 + 0.25).collect::<Vec<_>>());
        let (m, stats) = best_match(&query, &candidates).unwrap();
        assert_eq!(m.index, 12);
        assert_eq!(bits(&m), bits(&exhaustive_best_match(&query, &candidates).unwrap()));
        assert!(
            stats.cells_evaluated < stats.cells_full / 4,
            "cascade saved too little: {} of {} cells",
            stats.cells_evaluated,
            stats.cells_full
        );
    }

    #[test]
    fn ellipse_bound_counts_interior_rows_outside_the_ellipse() {
        // A candidate from (0,0) to (2,0) inside the ellipse of axis 4; the
        // query shares its ends and passes (1,10), whose cell costs at
        // least (|q − first| + |q − last| − 4)/2 = (2√101 − 4)/2.
        let query = vec![[0.0, 0.0], [1.0, 10.0], [2.0, 0.0]];
        let candidate = vec![[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]];
        let (first, last) = (candidate[0], candidate[2]);
        let interior = (101.0f64.sqrt() * 2.0 - 4.0) / 2.0;
        let bound = ellipse_lower_bound(&query, &first, &last, 4.0);
        assert!((bound - interior).abs() < 1e-6, "{bound} against {interior}");
        assert!(bound <= dtw_distance(&query, &candidate));
        // An unbounded axis leaves the endpoint bound, less the guard.
        let ends = ellipse_lower_bound(&query, &first, &last, f64::INFINITY);
        assert!(ends <= dtw_lower_bound(&query, &candidate) && ends >= 0.0);
        assert_eq!(ellipse_lower_bound(&query, &first, &last, f64::NAN), ends);
        assert_eq!(ellipse_lower_bound(&[], &first, &last, 4.0), f64::INFINITY);
        // One query point: the larger endpoint distance.
        let one = ellipse_lower_bound(&[[0.0, 3.0]], &first, &last, 4.0);
        assert!((one - 13.0f64.sqrt()).abs() < 1e-6);
        assert!(one <= dtw_distance(&[[0.0, 3.0]], &candidate));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn dtw_is_nonnegative(
                a in prop::collection::vec(-100.0f64..100.0, 1..20),
                b in prop::collection::vec(-100.0f64..100.0, 1..20),
            ) {
                let a = seq1d(&a);
                let b = seq1d(&b);
                prop_assert!(dtw_distance(&a, &b) >= 0.0);
            }

            #[test]
            fn dtw_symmetry(
                a in prop::collection::vec(-50.0f64..50.0, 1..15),
                b in prop::collection::vec(-50.0f64..50.0, 1..15),
            ) {
                let a = seq1d(&a);
                let b = seq1d(&b);
                prop_assert!((dtw_distance(&a, &b) - dtw_distance(&b, &a)).abs() < 1e-9);
            }

            #[test]
            fn self_distance_is_zero(a in prop::collection::vec(-50.0f64..50.0, 1..15)) {
                let a = seq1d(&a);
                prop_assert_eq!(dtw_distance(&a, &a), 0.0);
            }

            #[test]
            fn dtw_bounded_by_lockstep(
                pairs in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..15),
            ) {
                // DTW minimizes over alignments that include the lockstep
                // diagonal, so it can never exceed the lockstep cost.
                let a: Vec<[f64;1]> = pairs.iter().map(|&(x, _)| [x]).collect();
                let b: Vec<[f64;1]> = pairs.iter().map(|&(_, y)| [y]).collect();
                let lockstep: f64 = pairs.iter().map(|&(x, y)| (x - y).abs()).sum();
                prop_assert!(dtw_distance(&a, &b) <= lockstep + 1e-9);
            }

            #[test]
            fn early_abandon_agrees_with_plain_dtw(
                a in prop::collection::vec(-50.0f64..50.0, 1..15),
                b in prop::collection::vec(-50.0f64..50.0, 1..15),
                cutoff in 0.0f64..200.0,
            ) {
                let a = seq1d(&a);
                let b = seq1d(&b);
                let full = dtw_distance(&a, &b);
                let ea = dtw_distance_early_abandon(&a, &b, cutoff);
                if ea.abandoned {
                    // Abandoning is only legal when the true distance
                    // strictly exceeds the cutoff.
                    prop_assert!(full > cutoff);
                } else {
                    prop_assert_eq!(ea.distance, full);
                }
                prop_assert!(ea.cells <= a.len() * b.len());
            }

            #[test]
            fn lower_bound_is_a_lower_bound(
                a in prop::collection::vec(-50.0f64..50.0, 1..15),
                b in prop::collection::vec(-50.0f64..50.0, 1..15),
            ) {
                let a = seq1d(&a);
                let b = seq1d(&b);
                prop_assert!(dtw_lower_bound(&a, &b) <= dtw_distance(&a, &b) + 1e-12);
            }

            #[test]
            fn ellipse_bound_is_a_lower_bound_in_both_orientations(
                points in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
                query in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
                slack in 0.0f64..5.0,
            ) {
                // The tightest axis that holds every candidate point, and a
                // looser one: both must bound the exact distance.
                let cand: Vec<[f64; 2]> = points.iter().map(|&(x, y)| [x, y]).collect();
                let query: Vec<[f64; 2]> = query.iter().map(|&(x, y)| [x, y]).collect();
                let (first, last) = (cand[0], cand[cand.len() - 1]);
                let axis = cand
                    .iter()
                    .map(|p| euclidean(p, &first) + euclidean(p, &last))
                    .fold(0.0, f64::max);
                let mut rev = cand.clone();
                rev.reverse();
                let exact = dtw_distance(&query, &cand).min(dtw_distance(&query, &rev));
                for axis in [axis, axis + slack] {
                    prop_assert!(ellipse_lower_bound(&query, &first, &last, axis) <= exact);
                }
            }

            #[test]
            fn best_match_by_is_exact_for_any_valid_bounds(
                cands in prop::collection::vec(
                    (prop::collection::vec(-4i32..5, 1..8), 0.0f64..=1.0), 1..8),
                query in prop::collection::vec(-4i32..5, 1..8),
            ) {
                // Each bound is a random fraction of the exact distance, so
                // the visit order is arbitrary; small integer points make
                // ties common.
                let ints = |xs: &[i32]| -> Vec<[f64; 1]> { xs.iter().map(|&x| [f64::from(x)]).collect() };
                let candidates = singles(cands.iter().map(|(xs, _)| ints(xs)).collect());
                let query = ints(&query);
                let bounds: Vec<f64> = candidates
                    .iter()
                    .zip(&cands)
                    .map(|(c, (_, share))| dtw_distance(&query, &c[0]) * share)
                    .collect();
                let (found, _) = best_match_by(&bounds, |i, cutoff| {
                    group_distance(&query, &candidates[i], cutoff)
                })
                .expect("non-empty candidates");
                let full = exhaustive_best_match(&query, &candidates)
                    .expect("non-empty query and candidates");
                prop_assert_eq!(bits(&found), bits(&full));
            }

            #[test]
            fn pruned_best_match_equals_exhaustive_scan(
                cands in prop::collection::vec(
                    prop::collection::vec(-50.0f64..50.0, 1..10), 1..8),
                query in prop::collection::vec(-50.0f64..50.0, 1..10),
            ) {
                let candidates = singles(cands.iter().map(|c| seq1d(c)).collect());
                let query = seq1d(&query);
                let (pruned, stats) = best_match(&query, &candidates)
                    .expect("non-empty query and candidates");
                let full = exhaustive_best_match(&query, &candidates)
                    .expect("non-empty query and candidates");
                // Bit-identical, not approximately equal: same index, same
                // distance bits, same runner-up bits.
                prop_assert_eq!(bits(&pruned), bits(&full));
                prop_assert!(stats.cells_evaluated <= stats.cells_full);
            }

            #[test]
            fn grouped_best_match_equals_exhaustive_scan(
                specs in prop::collection::vec(
                    (prop::collection::vec(-4i32..5, 1..8), 1usize..4, 0usize..4), 1..8),
                query in prop::collection::vec(-4i32..5, 1..8),
            ) {
                // Small integer points make equal distances common. Each
                // spec is a fresh group (the sequence, its reversal and the
                // sequence again, cut to 1–3 members), a duplicate of an
                // earlier group, or an earlier group with every member
                // reversed — so ties occur within a group, across
                // orientations and across candidates.
                let ints = |xs: &[i32]| -> Vec<[f64; 1]> { xs.iter().map(|&x| [f64::from(x)]).collect() };
                let mut candidates: Vec<Vec<Vec<[f64; 1]>>> = Vec::new();
                for (i, (xs, members, kind)) in specs.iter().enumerate() {
                    let earlier = if i > 0 { candidates.get(xs.len() % i).cloned() } else { None };
                    let group = match (kind, earlier) {
                        (0, Some(g)) => g,
                        (1, Some(g)) => g
                            .into_iter()
                            .rev()
                            .map(|mut m| {
                                m.reverse();
                                m
                            })
                            .collect(),
                        _ => {
                            let seq = ints(xs);
                            let mut rev = seq.clone();
                            rev.reverse();
                            [seq.clone(), rev, seq].into_iter().take(*members).collect()
                        }
                    };
                    candidates.push(group);
                }
                let query = ints(&query);
                let (pruned, stats) = best_match(&query, &candidates)
                    .expect("non-empty query and candidates");
                let full = exhaustive_best_match(&query, &candidates)
                    .expect("non-empty query and candidates");
                prop_assert_eq!(bits(&pruned), bits(&full));
                prop_assert!(stats.cells_evaluated <= stats.cells_full);
            }
        }
    }
}
