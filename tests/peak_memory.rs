//! Memory is bounded by the campaign engine's segment window, not by the
//! campaign's length. Peak RSS is process-wide, so this check has a test
//! binary, and a test, of its own.

use starsense::prelude::*;

/// The process's peak resident set (`VmHWM`) in KB.
#[cfg(target_os = "linux")]
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("a VmHWM line");
    line.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()).expect("VmHWM in kB")
}

#[cfg(target_os = "linux")]
#[test]
fn peak_rss_does_not_grow_with_campaign_length() {
    // An oracle campaign of the paper's terminals on gen1 holds one
    // full-catalog row (~250 KB) per slot of a segment. A run of one
    // 96-slot window, then a run four times as long: a campaign held as
    // one segment adds ~70 MB of peak for the longer run, a windowed one
    // only its longer observation stream (a few MB).
    const WINDOW: usize = 96;
    const BOUND_MB: u64 = 16;
    let c = ConstellationBuilder::starlink_gen1().seed(1).build();
    let campaign = Campaign::oracle(&c, paper_terminals(), CampaignConfig::default(), 1);
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0);
    let mut peaks = Vec::new();
    for slots in [WINDOW, 4 * WINDOW] {
        let obs = campaign.run(from, slots);
        assert_eq!(obs.len(), 4 * slots);
        drop(obs);
        peaks.push(peak_rss_kb());
    }
    let growth_mb = peaks[1].saturating_sub(peaks[0]) / 1024;
    assert!(
        growth_mb < BOUND_MB,
        "peak RSS grew {growth_mb} MB from {WINDOW} to {} slots (peaks {peaks:?} kB)",
        4 * WINDOW
    );
}
