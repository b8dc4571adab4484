//! Per-figure regeneration benches: one harness per table/figure of the
//! paper's evaluation, at reduced (mini-constellation) scale so the suite
//! completes quickly. The full-scale regeneration is the
//! `starsense-experiments` `reproduce` run; these benches track the cost of each
//! figure's pipeline and guard it against regressions.

use criterion::{criterion_group, criterion_main, Criterion};
use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::campaign::{Campaign, CampaignConfig, SlotObservation};
use starsense_core::characterize::{
    aoe_analysis, azimuth_analysis, launch_analysis, sunlit_analysis,
};
use starsense_core::model::build_dataset;
use starsense_core::vantage::paper_terminals;
use starsense_faults::FaultPlan;
use starsense_forest::{ForestParams, MaxFeatures, RandomForest, TreeParams};
use starsense_ident::run_validation;
use starsense_netemu::groundstation::paper_pops;
use starsense_netemu::Emulator;
use starsense_scheduler::{GlobalScheduler, SchedulerPolicy};
use starsense_stats::mann_whitney_u;
use std::hint::black_box;

fn mini() -> Constellation {
    ConstellationBuilder::starlink_mini().seed(3).build()
}

fn mini_campaign(slots: usize) -> Vec<SlotObservation> {
    let constellation = mini();
    let campaign =
        Campaign::oracle(&constellation, paper_terminals(), CampaignConfig::default(), 3);
    campaign.run(JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0), slots)
}

fn fig2_benches(c: &mut Criterion) {
    let constellation = mini();
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 5, 37, 30.0);

    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("rtt_series_10s", |b| {
        b.iter(|| {
            let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), paper_terminals(), 3);
            let mut emu =
                Emulator::new(&constellation, scheduler, paper_pops(), FaultPlan::none(), 3);
            black_box(emu.probe_trace(0, from, 10.0))
        })
    });
    g.finish();

    // The Mann-Whitney window test on realistic window sizes.
    let a: Vec<f64> = (0..750).map(|i| 20.0 + (i % 37) as f64 * 0.08).collect();
    let b: Vec<f64> = (0..750).map(|i| 24.0 + (i % 29) as f64 * 0.08).collect();
    c.bench_function("fig2/window_test", |bch| {
        bch.iter(|| black_box(mann_whitney_u(black_box(&a), black_box(&b))))
    });
}

fn fig3_bench(c: &mut Criterion) {
    use starsense_ident::DishSimulator;
    use starsense_obstruction::{extract_trajectory, isolate};
    let constellation = mini();
    let iowa = Geodetic::new(41.66, -91.53, 0.2);
    let start =
        starsense_scheduler::slots::slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
    let snap = constellation.snapshot(start);
    let fov = constellation.field_of_view(
        &snap,
        iowa,
        30.0,
        &snap.visibility_index().candidates(iowa, 30.0),
    );
    let serving: Vec<u32> = fov.iter().map(|v| v.norad_id).collect();

    c.bench_function("fig3/obstruction_xor", |b| {
        b.iter(|| {
            let mut dish = DishSimulator::new(iowa);
            let cap1 = dish.play_slot(&constellation, 0, start, serving.first().copied());
            let cap2 = dish.play_slot(
                &constellation,
                1,
                start.plus_seconds(15.0),
                serving.get(1).copied().or_else(|| serving.first().copied()),
            );
            let iso = isolate(&cap1.map, &cap2.map);
            black_box(extract_trajectory(&iso))
        })
    });
}

fn characterization_benches(c: &mut Criterion) {
    let obs = mini_campaign(120);
    c.bench_function("fig4/aoe_cdf", |b| b.iter(|| black_box(aoe_analysis(black_box(&obs), 0))));
    c.bench_function("fig5/azimuth_cdf", |b| {
        b.iter(|| black_box(azimuth_analysis(black_box(&obs), 0)))
    });
    c.bench_function("fig6/launch_pref", |b| {
        b.iter(|| black_box(launch_analysis(black_box(&obs), 0)))
    });
    c.bench_function("fig7/sunlit", |b| b.iter(|| black_box(sunlit_analysis(black_box(&obs), 0))));
}

fn fig8_bench(c: &mut Criterion) {
    let obs = mini_campaign(300);
    let (_fx, data) = build_dataset(&obs, 0);
    let params = ForestParams {
        n_trees: 15,
        tree: TreeParams {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
        },
        bootstrap: true,
    };

    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.bench_function("model_fit", |b| {
        b.iter(|| black_box(RandomForest::fit(black_box(&data), &params, 1)))
    });
    let forest = RandomForest::fit(&data, &params, 1);
    g.bench_function("model_topk_predict", |b| {
        b.iter(|| {
            let hits: usize = (0..data.len())
                .filter(|&i| forest.predict_top_k(data.row(i).0, 5).contains(&data.row(i).1))
                .count();
            black_box(hits)
        })
    });
    g.finish();
}

fn ident_bench(c: &mut Criterion) {
    let constellation = mini();
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0);

    let mut g = c.benchmark_group("tab_ident");
    g.sample_size(10);
    g.bench_function("accuracy_10_slots", |b| {
        b.iter(|| {
            let terminals = vec![starsense_scheduler::Terminal::new(
                0,
                "Iowa",
                Geodetic::new(41.66, -91.53, 0.2),
            )];
            let mut sched = GlobalScheduler::new(SchedulerPolicy::default(), terminals, 3);
            black_box(run_validation(&constellation, &mut sched, 0, from, 10))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    fig2_benches,
    fig3_bench,
    characterization_benches,
    fig8_bench,
    ident_bench
);
criterion_main!(benches);
