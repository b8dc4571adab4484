//! A campaign's stream is a prefix of any longer run from the same start:
//! the `n`-slot run equals the first `n × terminals` observations of an
//! `m`-slot run, `m > n`. The paper reproduction relies on it to read
//! every figure's campaign off the head of one long run.

use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::ConstellationBuilder;
use starsense_core::campaign::{Campaign, CampaignConfig};
use starsense_core::resume::fingerprint_observations;
use starsense_scheduler::Terminal;

#[test]
fn shorter_runs_are_prefixes_of_longer_ones() {
    let constellation = ConstellationBuilder::starlink_mini().seed(33).build();
    let terminals = vec![
        Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
        Terminal::new(1, "Seattle", Geodetic::new(47.61, -122.33, 0.1)),
    ];
    let start = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0);
    for identified in [false, true] {
        for threads in [1, 2] {
            let config = CampaignConfig { threads, ..CampaignConfig::default() };
            let campaign = if identified {
                Campaign::identified(&constellation, terminals.clone(), config, 33)
            } else {
                Campaign::oracle(&constellation, terminals.clone(), config, 33)
            };
            let long = campaign.run(start, 12);
            assert_eq!(long.len(), 12 * terminals.len());
            for n in [1, 5, 11] {
                let short = campaign.run(start, n);
                assert_eq!(
                    fingerprint_observations(&short),
                    fingerprint_observations(&long[..n * terminals.len()]),
                    "identified {identified}, {threads} threads: {n} slots are not a prefix of 12"
                );
            }
        }
    }
}
