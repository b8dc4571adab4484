//! Property-based tests for the scheduler crate.

use proptest::prelude::*;
use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder, VisibleSat};
use starsense_scheduler::slots::{next_boundary, slot_index, slot_start, SLOT_PERIOD_SECONDS};
use starsense_scheduler::{GlobalScheduler, LoadModel, MacScheduler, SchedulerPolicy, Terminal};
use std::sync::OnceLock;

/// One shared catalog across cases — the properties quantify over epochs,
/// sites, and permutations, not over seeds.
fn catalog() -> &'static Constellation {
    static CATALOG: OnceLock<Constellation> = OnceLock::new();
    CATALOG.get_or_init(|| ConstellationBuilder::starlink_mini().seed(42).build())
}

fn fov_bits(v: &VisibleSat) -> (u32, u64, u64, u64) {
    (
        v.norad_id,
        v.look.elevation_deg.to_bits(),
        v.look.azimuth_deg.to_bits(),
        v.look.range_km.to_bits(),
    )
}

proptest! {
    #[test]
    fn slot_start_is_idempotent(seconds in 0.0f64..864_000.0) {
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0).plus_seconds(seconds);
        let s = slot_start(at);
        // The start of a slot belongs to that slot (probe just after it to
        // dodge boundary float rounding).
        prop_assert_eq!(slot_index(s.plus_seconds(0.001)), slot_index(s.plus_seconds(7.0)));
    }

    #[test]
    fn boundaries_land_on_paper_anchors(seconds in 0.0f64..86_400.0) {
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0).plus_seconds(seconds);
        let b = next_boundary(at);
        let sec = b.to_civil().second.round() as u32 % 60;
        prop_assert!([12, 27, 42, 57].contains(&sec), "boundary at :{sec}");
        // Strictly in the future, at most one period away.
        let dt = b.seconds_since(at);
        prop_assert!(dt > 0.0 && dt <= SLOT_PERIOD_SECONDS + 1e-6);
    }

    #[test]
    fn mac_wait_is_positive_and_bounded(
        n in 1usize..12,
        frame in 0.5f64..3.0,
        t in 0.0f64..15_000.0,
        term in 0usize..12,
    ) {
        let term = term % n;
        let mut mac = MacScheduler::new(frame);
        mac.set_attached((0..n).collect());
        let w = mac.wait_ms(term, t).unwrap();
        prop_assert!(w > 0.0);
        prop_assert!(w <= mac.cycle_ms() + 1e-9);
        // The landing frame belongs to the terminal.
        let frame_idx = ((t + w) / frame).round() as i64;
        prop_assert_eq!(frame_idx.rem_euclid(n as i64) as usize, term);
    }

    #[test]
    fn mac_band_offsets_are_distinct_multiples_of_frame(
        n in 2usize..8,
        // Bands are only quantized when the probe period is commensurate
        // with the frame length; with an irrational ratio the arrival phase
        // is dense in the cycle and the "bands" smear out (which is also
        // physical — the real system uses a fixed frame grid).
        frame in prop::sample::select(vec![0.5f64, 1.0, 1.25, 2.0, 2.5, 4.0, 5.0]),
    ) {
        let mut mac = MacScheduler::new(frame);
        mac.set_attached((0..n).collect());
        let bands = mac.band_offsets_ms(0, 20.0, 400);
        prop_assert!(!bands.is_empty());
        prop_assert!(bands.len() <= n, "{} bands with {n} terminals", bands.len());
        for pair in bands.windows(2) {
            let gap = pair[1] - pair[0];
            // Gaps between bands are integer multiples of the frame length.
            let ratio = gap / frame;
            prop_assert!((ratio - ratio.round()).abs() < 1e-6, "gap {gap} frame {frame}");
        }
    }

    #[test]
    fn load_is_deterministic_and_bounded(
        seed in 0u64..1000,
        sat in 44_000u32..48_000,
        slot in -1_000i64..1_000_000,
    ) {
        let m = LoadModel::new(seed, 0.5);
        let a = m.utilization(sat, slot);
        prop_assert_eq!(a, m.utilization(sat, slot));
        prop_assert!((0.0..1.0).contains(&a));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cohort_fov_is_invariant_under_terminal_input_order(
        hours in 0.0f64..96.0,
        lat in -60.0f64..60.0,
        lon in -179.0f64..179.0,
        rot in 1usize..9,
        rev in prop::sample::select(vec![false, true]),
    ) {
        // Cohort membership is a pure function of terminal position and
        // the snapshot's grid: permuting the terminal input order permutes
        // the cohorts' member lists but must not move a single bit of any
        // terminal's field of view. The fixture clusters terminals within
        // a fraction of a grid cell so cohorts genuinely form.
        let c = catalog();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0).plus_seconds(hours * 3600.0);
        let snap = c.snapshot(at);

        let terminals: Vec<Terminal> = (0..9)
            .map(|i| {
                let t = i as f64;
                Terminal::new(
                    i,
                    format!("t{i}"),
                    Geodetic::new(
                        (lat + 0.4 * (t * 0.7).sin()).clamp(-89.0, 89.0),
                        lon + 0.4 * (t * 1.3).cos(),
                        0.05 * t,
                    ),
                )
            })
            .collect();
        let mut shuffled = terminals.clone();
        let n = shuffled.len();
        shuffled.rotate_left(rot % n);
        if rev {
            shuffled.reverse();
        }

        let policy = SchedulerPolicy::default();
        let a = GlobalScheduler::new(policy.clone(), terminals.clone(), 7)
            .fields_of_view_cohort(c, &snap);
        let b = GlobalScheduler::new(policy, shuffled.clone(), 7)
            .fields_of_view_cohort(c, &snap);
        for (i, t) in terminals.iter().enumerate() {
            let j = shuffled.iter().position(|s| s.id == t.id).unwrap();
            prop_assert_eq!(a[i].len(), b[j].len(), "terminal {}", t.id);
            for (x, y) in a[i].iter().zip(&b[j]) {
                prop_assert_eq!(fov_bits(x), fov_bits(y), "terminal {}", t.id);
            }
        }
    }
}
