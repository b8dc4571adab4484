//! Identification-pipeline benchmarks: the §4 stages and the statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::{ConstellationBuilder, PropagationCache};
use starsense_dtw::{best_match, dtw_distance, dtw_distance_early_abandon};
use starsense_ident::{
    candidate_tracks, slot_boundary_epochs, verdict_slot_tracked, DishSimulator, TrackCache,
};
use starsense_obstruction::{extract_trajectory, isolate, paint, ObstructionMap};
use starsense_scheduler::slots::slot_start;
use starsense_stats::{mann_whitney_u, pearson, Ecdf};
use std::hint::black_box;

fn track(n: usize, phase: f64) -> Vec<[f64; 2]> {
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            [30.0 * (t + phase).sin(), 30.0 * t - 15.0]
        })
        .collect()
}

fn bench_dtw(c: &mut Criterion) {
    let a = track(16, 0.0);
    let b = track(16, 0.2);
    c.bench_function("dtw/16x16_2d", |bch| {
        bch.iter(|| black_box(dtw_distance(black_box(&a), black_box(&b))))
    });
    let a64 = track(64, 0.0);
    let b64 = track(64, 0.15);
    c.bench_function("dtw/64x64_2d", |bch| {
        bch.iter(|| black_box(dtw_distance(black_box(&a64), black_box(&b64))))
    });
    // Early abandoning with a cutoff a 1-NN search would actually carry:
    // the distance of a nearby competitor.
    let cutoff = dtw_distance(&a64, &track(64, 0.05));
    c.bench_function("dtw/64x64_early_abandon", |bch| {
        bch.iter(|| black_box(dtw_distance_early_abandon(black_box(&a64), black_box(&b64), cutoff)))
    });

    // Full-vs-pruned 1-NN over a candidate pool shaped like a slot's
    // candidate set (a couple dozen tracks, one close, the rest spread).
    let candidates: Vec<[Vec<[f64; 2]>; 1]> =
        (0..24).map(|i| [track(16, 0.05 + 0.3 * i as f64)]).collect();
    let query = track(16, 0.1);
    c.bench_function("dtw/1nn_24cands_exhaustive", |bch| {
        bch.iter(|| {
            let mut best = (usize::MAX, f64::INFINITY);
            for (i, [cand]) in candidates.iter().enumerate() {
                let d = dtw_distance(black_box(&query), cand);
                if d < best.1 {
                    best = (i, d);
                }
            }
            black_box(best)
        })
    });
    c.bench_function("dtw/1nn_24cands_pruned", |bch| {
        bch.iter(|| black_box(best_match(black_box(&query), &candidates)))
    });
}

fn pass(el0: f64, az0: f64, el1: f64, az1: f64, n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            (el0 + (el1 - el0) * t, az0 + (az1 - az0) * t)
        })
        .collect()
}

fn bench_obstruction(c: &mut Criterion) {
    let samples = pass(30.0, 100.0, 75.0, 160.0, 16);
    c.bench_function("obstruction/paint_slot", |b| {
        b.iter(|| {
            let mut m = ObstructionMap::new();
            paint(&mut m, black_box(&samples));
            black_box(m)
        })
    });

    let mut prev = ObstructionMap::new();
    paint(&mut prev, &pass(30.0, 10.0, 70.0, 60.0, 16));
    let mut curr = prev.clone();
    paint(&mut curr, &samples);
    c.bench_function("obstruction/xor_isolate", |b| {
        b.iter(|| black_box(isolate(black_box(&prev), black_box(&curr))))
    });

    let iso = isolate(&prev, &curr);
    c.bench_function("obstruction/extract_trajectory", |b| {
        b.iter(|| black_box(extract_trajectory(black_box(&iso))))
    });
}

fn bench_identification(c: &mut Criterion) {
    let constellation = ConstellationBuilder::starlink_mini().seed(7).build();
    let iowa = Geodetic::new(41.66, -91.53, 0.2);
    let start = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));

    c.bench_function("ident/candidate_tracks_mini", |b| {
        b.iter(|| black_box(candidate_tracks(&constellation, iowa, start, 25.0, 16)))
    });

    // A realistic production identification against the mini
    // constellation: a fresh track cache over the slot's prepared boundary
    // rows, as the campaign engine's first slot for a terminal sees it.
    let fov = constellation.field_of_view(iowa, start, 35.0);
    if let Some(serving) = fov.first() {
        let mut dish = DishSimulator::new(iowa);
        let prev = dish.map().clone();
        let cap = dish.play_slot(&constellation, 0, start, Some(serving.norad_id));
        let cache = PropagationCache::new(&constellation);
        cache.prepare(&[], &slot_boundary_epochs(start, 16), 1);
        c.bench_function("ident/verdict_slot_tracked_mini", |b| {
            b.iter(|| {
                let mut tracks = TrackCache::new(&cache, iowa, 25.0, 16);
                black_box(verdict_slot_tracked(&mut tracks, &prev, &cap.map, start, 0.0))
            })
        });
    }
}

fn bench_stats(c: &mut Criterion) {
    let a: Vec<f64> = (0..750).map(|i| 20.0 + (i % 37) as f64 * 0.1).collect();
    let b: Vec<f64> = (0..750).map(|i| 23.0 + (i % 41) as f64 * 0.1).collect();
    c.bench_function("stats/mann_whitney_750x750", |bch| {
        bch.iter(|| black_box(mann_whitney_u(black_box(&a), black_box(&b))))
    });
    c.bench_function("stats/ecdf_build_and_eval", |bch| {
        bch.iter(|| {
            let e = Ecdf::new(black_box(&a));
            black_box(e.eval(21.0))
        })
    });
    let xs: Vec<f64> = (0..37).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 0.02 + 0.001 * x).collect();
    c.bench_function("stats/pearson_37", |bch| {
        bch.iter(|| black_box(pearson(black_box(&xs), black_box(&ys))))
    });
}

criterion_group!(benches, bench_dtw, bench_obstruction, bench_identification, bench_stats);
criterion_main!(benches);
