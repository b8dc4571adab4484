//! Reproducibility: every stochastic component must be a pure function of
//! its seed, so figures regenerate identically run to run.

use starsense::netemu::groundstation::paper_pops;
use starsense::prelude::*;

#[test]
fn constellations_are_identical_across_builds() {
    let a = ConstellationBuilder::starlink_mini().seed(5).build();
    let b = ConstellationBuilder::starlink_mini().seed(5).build();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.sats().iter().zip(b.sats()) {
        assert_eq!(x.norad_id, y.norad_id);
        assert_eq!(x.elements, y.elements);
        assert_eq!(x.published.format_lines(), y.published.format_lines());
        assert_eq!(x.launch.date, y.launch.date);
    }
}

#[test]
fn campaigns_are_identical_across_runs() {
    let constellation = ConstellationBuilder::starlink_mini().seed(5).build();
    let run = || {
        let campaign =
            Campaign::oracle(&constellation, paper_terminals(), CampaignConfig::default(), 5);
        campaign.run(JulianDate::from_ymd_hms(2023, 6, 1, 8, 0, 0.0), 40)
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.slot, y.slot);
        assert_eq!(x.truth_id, y.truth_id);
        assert_eq!(x.available.len(), y.available.len());
        assert_eq!(x.local_hour, y.local_hour);
    }
}

/// Golden stream fingerprints: the full bit pattern of three small
/// campaigns on the mini catalog from the paper's terminals, recorded
/// once and pinned. Run-to-run and layout-invariance tests only compare
/// the engine with itself; these catch a refactor that changes what the
/// engine computes.
#[test]
fn campaign_streams_match_golden_fingerprints() {
    let constellation = ConstellationBuilder::starlink_mini().seed(5).build();
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 8, 0, 0.0);
    let faulted = CampaignConfig {
        faults: FaultPlan::new(13, FaultRates::uniform(0.2)),
        min_margin: starsense::ident::DEFAULT_MIN_MARGIN,
        ..CampaignConfig::default()
    };
    let cases = [
        (
            "oracle",
            Campaign::oracle(&constellation, paper_terminals(), CampaignConfig::default(), 5),
            40,
            0x37a3_6d27_ba56_acf7u64,
        ),
        (
            "identified",
            Campaign::identified(&constellation, paper_terminals(), CampaignConfig::default(), 5),
            24,
            0xfa8b_a596_619d_f647,
        ),
        (
            "faulted",
            Campaign::identified(&constellation, paper_terminals(), faulted, 5),
            24,
            0x715e_dfe8_ca79_f2c7,
        ),
    ];
    for (name, campaign, slots, golden) in cases {
        let got = fingerprint_observations(&campaign.run(from, slots));
        assert_eq!(got, golden, "{name} campaign stream moved: got {got:#018x}");
    }
}

/// Golden stream fingerprints of one-shot campaigns long enough to span
/// more than two of the engine's 96-slot segment windows (2·96 + 17
/// slots), recorded while a run without checkpoints was still one
/// segment: the run now takes three segments, and its stream must not
/// move.
#[test]
fn window_spanning_streams_match_golden_fingerprints() {
    let constellation = ConstellationBuilder::starlink_mini().seed(5).build();
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 8, 0, 0.0);
    let slots = 2 * 96 + 17;
    let cases = [
        (
            "oracle",
            Campaign::oracle(&constellation, paper_terminals(), CampaignConfig::default(), 5),
            0x4760_0616_c0bc_421fu64,
        ),
        (
            "identified",
            Campaign::identified(&constellation, paper_terminals(), CampaignConfig::default(), 5),
            0x2825_be39_b95e_5e9d,
        ),
    ];
    for (name, campaign, golden) in cases {
        let (obs, _, report) = campaign
            .run_resumable(from, slots, &ResumeConfig::default())
            .expect("a plain run completes");
        assert_eq!(obs.len(), slots * 4, "{name}");
        assert_eq!(report.segments_run, 3, "{name}: one segment per started window");
        let got = fingerprint_observations(&obs);
        assert_eq!(got, golden, "{name} window-spanning stream moved: got {got:#018x}");
    }
}

/// Terminal ids seed the scheduler's RNG streams, but two terminals that
/// share an id are still two terminals: every position keeps its own
/// observation stream, and that stream is the one the terminal produces
/// when run alone (apart from its position index).
#[test]
fn terminals_sharing_an_id_keep_separate_streams() {
    let constellation = ConstellationBuilder::starlink_mini().seed(5).build();
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 8, 0, 0.0);
    let slots = 10;
    let pair: Vec<Terminal> = paper_terminals()
        .into_iter()
        .filter(|t| t.name == "Iowa" || t.name == "Madrid")
        .map(|t| Terminal { id: 0, ..t })
        .collect();
    for identified in [false, true] {
        let run = |terminals: Vec<Terminal>, shards: usize| {
            let config = CampaignConfig { shards, ..CampaignConfig::default() };
            let campaign = if identified {
                Campaign::identified(&constellation, terminals, config, 5)
            } else {
                Campaign::oracle(&constellation, terminals, config, 5)
            };
            campaign.run(from, slots)
        };
        let alone: Vec<u64> =
            pair.iter().map(|t| fingerprint_observations(&run(vec![t.clone()], 1))).collect();
        for shards in [1, 2] {
            let obs = run(pair.clone(), shards);
            assert_eq!(obs.len(), slots * pair.len(), "{shards} shard(s) lost observations");
            for (position, solo) in alone.iter().enumerate() {
                // Slot-major, terminal-minor: every `pair.len()`-th row. It
                // records its position, not the shared id, and otherwise
                // equals the solo run, which records position 0.
                let rows: Vec<SlotObservation> = obs
                    .iter()
                    .skip(position)
                    .step_by(pair.len())
                    .map(|o| {
                        assert_eq!(o.terminal_id, position, "identified {identified}");
                        SlotObservation { terminal_id: 0, ..o.clone() }
                    })
                    .collect();
                assert_eq!(
                    fingerprint_observations(&rows),
                    *solo,
                    "identified {identified}, {shards} shard(s): position {position} differs \
                     from its solo run"
                );
            }
        }
    }
}

#[test]
fn probe_traces_are_identical_across_runs() {
    let constellation = ConstellationBuilder::starlink_mini().seed(5).build();
    let run = || {
        let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), paper_terminals(), 5);
        let mut emulator =
            Emulator::new(&constellation, scheduler, paper_pops(), FaultPlan::none(), 5);
        emulator.probe_trace(0, JulianDate::from_ymd_hms(2023, 6, 1, 8, 0, 0.0), 8.0)
    };
    let a = run();
    let b = run();
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.rtt_ms, y.rtt_ms);
        assert_eq!(x.owd_up_ms, y.owd_up_ms);
        assert_eq!(x.serving_sat, y.serving_sat);
    }
}

#[test]
fn trained_models_are_identical_across_runs() {
    use starsense::forest::{Dataset, ForestParams, RandomForest};

    let rows: Vec<Vec<f64>> =
        (0..120).map(|i| vec![(i % 7) as f64, (i % 13) as f64, (i % 3) as f64]).collect();
    let labels: Vec<usize> = (0..120).map(|i| i % 4).collect();
    let data = Dataset::unnamed(rows, labels, 4);

    let a = RandomForest::fit(&data, &ForestParams::default(), 9);
    let b = RandomForest::fit(&data, &ForestParams::default(), 9);
    for i in 0..data.len() {
        assert_eq!(a.predict_proba(data.row(i).0), b.predict_proba(data.row(i).0));
    }
    assert_eq!(a.feature_importances(), b.feature_importances());
}

#[test]
fn different_seeds_give_different_worlds() {
    let a = ConstellationBuilder::starlink_mini().seed(1).build();
    let b = ConstellationBuilder::starlink_mini().seed(2).build();
    let identical = a
        .sats()
        .iter()
        .zip(b.sats())
        .all(|(x, y)| x.published.mean_anomaly_deg == y.published.mean_anomaly_deg);
    assert!(!identical);
}
