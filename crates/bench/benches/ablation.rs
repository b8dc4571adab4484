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

criterion_group!(benches, bench_scheduler_variants, bench_gso);
criterion_main!(benches);
