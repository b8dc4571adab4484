//! Cross-crate integration: the paper's full loop — hidden scheduler →
//! dish → identification → characterization → model features — executed
//! end to end through the public facade.

use starsense::prelude::*;

fn world() -> (Constellation, Vec<Terminal>) {
    let constellation = ConstellationBuilder::starlink_gen1().seed(99).build();
    (constellation, paper_terminals())
}

#[test]
fn identification_pipeline_recovers_scheduler_assignments() {
    let (constellation, terminals) = world();
    let mut scheduler = GlobalScheduler::new(SchedulerPolicy::default(), terminals, 99);
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 14, 0, 0.0);

    let report = run_validation(&constellation, &mut scheduler, 0, from, 40);
    assert_eq!(report.slots_played, 40);
    assert!(report.attempted >= 25, "attempted {}", report.attempted);
    assert!(
        report.accuracy() > 0.85,
        "end-to-end identification accuracy {:.3}",
        report.accuracy()
    );
}

#[test]
fn campaign_feeds_every_section_five_analysis() {
    let (constellation, terminals) = world();
    let campaign = Campaign::oracle(&constellation, terminals, CampaignConfig::default(), 99);
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 14, 0, 0.0);
    let obs = campaign.run(from, 120);

    for tid in 0..4 {
        let aoe = aoe_analysis(&obs, tid);
        assert!(aoe.median_shift_deg > 5.0, "terminal {tid}: shift {}", aoe.median_shift_deg);

        let az = azimuth_analysis(&obs, tid);
        let total: f64 = az.chosen_quadrants.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "terminal {tid}: quadrants sum {total}");

        let launch = launch_analysis(&obs, tid);
        assert!(launch.bins.len() > 5, "terminal {tid}: {} bins", launch.bins.len());

        let sun = sunlit_analysis(&obs, tid);
        assert!(sun.n_sunlit_chosen + sun.n_dark_chosen > 0, "terminal {tid}: no picks at all");
    }
}

#[test]
fn emulated_probes_expose_the_fifteen_second_regime() {
    use starsense::netemu::groundstation::paper_pops;
    use starsense::stats::mann_whitney_u;

    let (constellation, terminals) = world();
    let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), terminals, 99);
    let mut emulator =
        Emulator::new(&constellation, scheduler, paper_pops(), FaultPlan::none(), 99);
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 14, 0, 0.0);
    let trace = emulator.probe_trace(0, from, 65.0);

    let windows = trace.windows();
    assert!(windows.len() >= 4, "{} windows in 65 s", windows.len());

    // Boundaries must land on the :12/:27/:42/:57 anchors.
    for w in windows.iter().skip(1) {
        let sec = w.start.to_civil().second.round() as u32 % 60;
        assert!([12, 27, 42, 57].contains(&sec), "boundary at :{sec}");
    }

    // Consecutive full windows with a satellite change are distinct.
    let mut distinct = 0;
    let mut tested = 0;
    for pair in windows.windows(2) {
        if pair[0].rtts.len() > 300
            && pair[1].rtts.len() > 300
            && pair[0].serving_sat != pair[1].serving_sat
        {
            tested += 1;
            if mann_whitney_u(&pair[0].rtts, &pair[1].rtts)
                .map(|t| t.is_significant(0.05))
                .unwrap_or(false)
            {
                distinct += 1;
            }
        }
    }
    assert!(tested >= 1, "no testable window pairs");
    assert!(distinct >= tested - 1, "{distinct}/{tested} distinct");
}

#[test]
fn model_features_build_from_campaign_observations() {
    use starsense::core::model::build_dataset;

    let (constellation, terminals) = world();
    let campaign = Campaign::oracle(&constellation, terminals, CampaignConfig::default(), 99);
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 14, 0, 0.0);
    let obs = campaign.run(from, 80);

    let (fx, data) = build_dataset(&obs, 0);
    assert!(data.len() >= 70, "labeled rows {}", data.len());
    assert_eq!(data.width(), 1 + fx.vocabulary().len());
    // Count features must account for every available satellite.
    for o in obs.iter().filter(|o| o.terminal_id == 0).take(10) {
        let row = fx.features(o);
        let total: f64 = row[1..].iter().sum();
        assert_eq!(total as usize, o.available.len());
    }
}
