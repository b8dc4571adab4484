//! Ablation cost benches: the per-slot cost of the hidden global scheduler
//! under each policy variant DESIGN.md calls out, plus the cost of the GSO
//! geometry itself.
//!
//! (The *effect* of each ablation on the paper's findings is measured by
//! the `tab_ablation` experiment binary; these benches track what each
//! policy term costs in scheduler time.)

use criterion::{criterion_group, criterion_main, Criterion};
use starsense_astro::frames::{Geodetic, LookAngles};
use starsense_astro::time::JulianDate;
use starsense_constellation::ConstellationBuilder;
use starsense_core::vantage::paper_terminals;
use starsense_scheduler::{GlobalScheduler, GsoExclusion, SchedulerPolicy};
use std::hint::black_box;

fn bench_scheduler_variants(c: &mut Criterion) {
    let constellation = ConstellationBuilder::starlink_mini().seed(5).build();
    let at = JulianDate::from_ymd_hms(2023, 6, 1, 12, 0, 5.0);

    let variants: Vec<(&str, SchedulerPolicy)> = vec![
        ("full", SchedulerPolicy::default()),
        (
            "no_gso",
            SchedulerPolicy {
                gso_half_angle_deg: None,
                w_gso_margin: 0.0,
                ..SchedulerPolicy::default()
            },
        ),
        ("no_elevation", SchedulerPolicy { w_elevation: 0.0, ..SchedulerPolicy::default() }),
    ];

    let mut g = c.benchmark_group("scheduler_allocate_mini");
    for (name, policy) in variants {
        g.bench_function(name, |b| {
            let mut sched = GlobalScheduler::new(policy.clone(), paper_terminals(), 5);
            b.iter(|| black_box(sched.allocate(&constellation, black_box(at))))
        });
    }
    g.finish();
}

fn bench_gso(c: &mut Criterion) {
    let iowa = Geodetic::new(41.66, -91.53, 0.2);
    // Seen from 10°E the visible arc spans belt longitude 0°: the case
    // where storing the samples from the belt gap on reorders them.
    let wrap = Geodetic::new(40.0, 10.0, 0.1);
    for (name, site) in [("gso/build_site_zone", iowa), ("gso/build_site_zone_wrap", wrap)] {
        c.bench_function(name, |b| {
            b.iter(|| black_box(GsoExclusion::for_site(black_box(site), 12.0)))
        });
    }
    let zone = GsoExclusion::for_site(iowa, 12.0);
    // The reference queries beside the scheduler's production query
    // (exclusion and separation from one pruned scan), on a look inside
    // the zone and on a clear one, where the separation fold runs too.
    let looks = [
        ("", LookAngles { elevation_deg: 42.0, azimuth_deg: 180.0, range_km: 900.0 }),
        ("_clear", LookAngles { elevation_deg: 60.0, azimuth_deg: 20.0, range_km: 900.0 }),
    ];
    for (suffix, look) in looks {
        c.bench_function(&format!("gso/excludes_query{suffix}"), |b| {
            b.iter(|| black_box(zone.excludes(black_box(&look))))
        });
        c.bench_function(&format!("gso/separation_query{suffix}"), |b| {
            b.iter(|| black_box(zone.separation_deg(black_box(&look))))
        });
        c.bench_function(&format!("gso/separation_if_clear_query{suffix}"), |b| {
            b.iter(|| black_box(zone.separation_if_clear(black_box(&look))))
        });
    }
}

/// The first `n` sites of the campaign benchmark's seed-1 terminal
/// lattice: a Fibonacci lattice over ±55° latitude, rotated in longitude
/// by the seed's phase, at 0.1 km altitude.
fn lattice_sites(n: usize) -> Vec<Geodetic> {
    let phase = 360.0 * 0.381_966_011_250_105_f64.fract();
    (0..n)
        .map(|i| {
            let lat = -55.0 + 110.0 * ((i as f64 * 0.618_033_988_749_895).fract());
            let lon =
                (phase + 360.0 * ((i as f64 * 0.754_877_666_246_693).fract())) % 360.0 - 180.0;
            Geodetic::new(lat, lon, 0.1)
        })
        .collect()
}

fn bench_gso_lattice_mix(c: &mut Criterion) {
    // The query mix a lattice campaign asks: every satellite in each of
    // 500 sites' fields of view at one slot, inside the zone or clear.
    let constellation = ConstellationBuilder::starlink_gen1().seed(1).build();
    let snap = constellation.snapshot(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 12.0));
    let queries: Vec<(GsoExclusion, Vec<LookAngles>)> = lattice_sites(500)
        .into_iter()
        .map(|site| {
            let candidates = snap.visibility_index().candidates(site, 25.0);
            let sky = constellation.field_of_view(&snap, site, 25.0, &candidates);
            (GsoExclusion::for_site(site, 12.0), sky.into_iter().map(|v| v.look).collect())
        })
        .collect();
    c.bench_function("gso/separation_if_clear_lattice_mix", |b| {
        b.iter(|| {
            let mut clear = 0usize;
            for (zone, looks) in &queries {
                for look in looks {
                    clear += usize::from(zone.separation_if_clear(black_box(look)).is_some());
                }
            }
            black_box(clear)
        })
    });
}

criterion_group!(benches, bench_scheduler_variants, bench_gso, bench_gso_lattice_mix);
criterion_main!(benches);
