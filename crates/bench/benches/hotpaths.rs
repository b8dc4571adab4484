//! Hot-path micro-benchmarks: the primitives every experiment leans on.
//!
//! These are the per-call costs that determine how large a campaign the
//! reproduction can run: SGP4 propagation (thousands of calls per slot),
//! TLE parsing/formatting, sidereal time, constellation snapshots and
//! field-of-view queries, and the solar ephemeris.

use criterion::{criterion_group, criterion_main, Criterion};
use starsense_astro::frames::Geodetic;
use starsense_astro::sun::sun_position_teme;
use starsense_astro::time::JulianDate;
use starsense_constellation::{ConstellationBuilder, PropagationCache};
use starsense_sgp4::{Sgp4, Tle};
use std::hint::black_box;

const TLE1: &str = "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
const TLE2: &str = "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";

fn bench_sgp4(c: &mut Criterion) {
    let tle = Tle::parse_lines(TLE1, TLE2).unwrap();
    let sgp4 = Sgp4::new(&tle.elements()).unwrap();
    c.bench_function("sgp4/propagate_one_step", |b| {
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            black_box(sgp4.propagate_minutes(black_box(t % 1440.0)).unwrap())
        })
    });
    // The production call: catalog rows and probe positions need no
    // velocity.
    c.bench_function("sgp4/position_one_step", |b| {
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            black_box(sgp4.position(black_box(sgp4.epoch().plus_minutes(t % 1440.0))).unwrap())
        })
    });
    c.bench_function("sgp4/init", |b| {
        let elements = tle.elements();
        b.iter(|| black_box(Sgp4::new(black_box(&elements)).unwrap()))
    });
}

fn bench_tle(c: &mut Criterion) {
    c.bench_function("tle/parse", |b| {
        b.iter(|| black_box(Tle::parse_lines(black_box(TLE1), black_box(TLE2)).unwrap()))
    });
    let tle = Tle::parse_lines(TLE1, TLE2).unwrap();
    c.bench_function("tle/format", |b| b.iter(|| black_box(tle.format_lines())));
}

fn bench_time_and_sun(c: &mut Criterion) {
    let jd = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
    c.bench_function("time/gmst", |b| b.iter(|| black_box(black_box(jd).gmst_rad())));
    c.bench_function("time/to_civil", |b| b.iter(|| black_box(black_box(jd).to_civil())));
    c.bench_function("sun/position", |b| b.iter(|| black_box(sun_position_teme(black_box(jd)))));
}

fn bench_constellation(c: &mut Criterion) {
    let mini = ConstellationBuilder::starlink_mini().seed(1).build();
    let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 0.0);
    let iowa = Geodetic::new(41.66, -91.53, 0.2);

    c.bench_function("constellation/snapshot_mini_384sats", |b| {
        b.iter(|| black_box(mini.snapshot(black_box(at))))
    });

    let snap = mini.snapshot(at);
    let all: Vec<u32> = (0..mini.len() as u32).collect();
    c.bench_function("constellation/fov_from_snapshot", |b| {
        b.iter(|| black_box(mini.field_of_view(black_box(&snap), iowa, 25.0, &all)))
    });

    // One published-TLE row of the full first-generation catalog: the
    // per-row cost of the campaign's Prepare phase.
    let gen1 = ConstellationBuilder::starlink_gen1().seed(1).build();
    c.bench_function("constellation/published_row_gen1", |b| {
        b.iter(|| black_box(gen1.published_row(black_box(at))))
    });
    // One true-position snapshot of the same catalog: the row an
    // identified campaign's Prepare phase builds once per slot.
    c.bench_function("constellation/snapshot_gen1", |b| {
        b.iter(|| black_box(gen1.snapshot(black_box(at))))
    });

    c.bench_function("constellation/build_mini", |b| {
        b.iter(|| black_box(ConstellationBuilder::starlink_mini().seed(1).build()))
    });

    // The campaign engine's shared cache: a prepared hit versus
    // re-propagating the same epoch — the per-terminal saving of the
    // per-slot snapshot.
    let cache = PropagationCache::new(&mini);
    cache.prepare(&[at], &[], 1);
    c.bench_function("constellation/snapshot_cached_hit", |b| {
        b.iter(|| black_box(cache.snapshot(black_box(at))))
    });
}

criterion_group!(benches, bench_sgp4, bench_tle, bench_time_and_sun, bench_constellation);
criterion_main!(benches);
