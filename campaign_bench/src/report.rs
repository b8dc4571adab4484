//! The benchmark's result line, its parser round-trip, and small
//! statistics helpers.
//!
//! The last line of every run's standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name:
//! {"value": .., "unit": ..}, ..}}`. It is written by hand (the workspace
//! vendors no JSON crate) and read back with the repository's own
//! `starsense_bench::json_number` in the self-tests.

use starsense_checkpoint::fnv1a;
use starsense_core::campaign::SlotObservation;
use starsense_core::resume::fingerprint_observations;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The run's outcome: correctness, operation counts and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Campaign runs attempted (timed repeats, or the traced pass's runs).
    pub attempted: usize,
    /// Runs that failed a correctness check.
    pub failed: usize,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
}

/// Whether `name` is a legal metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Formats a value with all its digits; non-finite values become `0`
/// (JSON has no NaN) and are flagged by the caller's checks instead.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl RunResult {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (`0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (`0` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest order statistic with at least ten samples beyond it, and
/// the percentile it sits at — but never below the median, so a short
/// sample reports its median rather than its minimum.
pub fn high_percentile(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let i = v.len().saturating_sub(11).max((v.len() - 1) / 2);
    (v[i], 100.0 * (i + 1) as f64 / v.len() as f64)
}

/// Observations per fingerprint chunk: bounds the encoding buffer so the
/// check itself never shows up in `peak_rss_mb`.
const FINGERPRINT_CHUNK: usize = 2_048;

/// Fingerprint of a whole observation stream, folded from
/// `fingerprint_observations` over fixed-size chunks. Two streams agree
/// iff every chunk is byte-identical under the snapshot encoding.
pub fn stream_fingerprint(obs: &[SlotObservation]) -> u64 {
    let mut folded = Vec::with_capacity(8 * (obs.len() / FINGERPRINT_CHUNK + 2));
    folded.extend_from_slice(&(obs.len() as u64).to_le_bytes());
    for chunk in obs.chunks(FINGERPRINT_CHUNK) {
        folded.extend_from_slice(&fingerprint_observations(chunk).to_le_bytes());
    }
    fnv1a(&folded)
}

/// Share of slot·terminals that did not resolve to an observation.
pub fn degraded_share(obs: &[SlotObservation]) -> f64 {
    let degraded = obs.iter().filter(|o| !o.outcome.is_observed()).count();
    degraded as f64 / obs.len().max(1) as f64
}

/// Share of observed slots whose `chosen` satellite is the scheduler's
/// real pick.
pub fn ident_agreement(obs: &[SlotObservation]) -> f64 {
    let observed: Vec<&SlotObservation> = obs.iter().filter(|o| o.outcome.is_observed()).collect();
    let agree =
        observed.iter().filter(|o| o.chosen.as_ref().map(|c| c.norad_id) == o.truth_id).count();
    agree as f64 / observed.len().max(1) as f64
}

/// The process's peak resident set (`VmHWM`) in MB, from
/// `/proc/self/status`; `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_bench::json_number;

    #[test]
    fn result_line_round_trips_through_the_repository_parser() {
        let result = RunResult {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![
                Metric::new("slot_terms_per_s", "1/s", 48_123.456_789_012),
                Metric::new("setup_s", "s", 0.012_345_678_9),
                Metric::new("schedule.fov_s", "s", 1.5e-7),
            ],
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(json_number(&line, &["attempted"]), Some(7.0));
        assert_eq!(json_number(&line, &["failed"]), Some(0.0));
        for m in &result.metrics {
            assert_eq!(
                json_number(&line, &["metrics", m.name, "value"]),
                Some(m.value),
                "{}",
                m.name
            );
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
        assert!(line.starts_with("{\"correct\": true,"));
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("schedule.steady_slot_ms"));
        assert!(valid_name("oracle-scale"));
        assert!(!valid_name(""));
        assert!(!valid_name("slot terms"));
        assert!(!valid_name("slot·terms"));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(high_percentile(&many), (30.0, 75.0));
        assert_eq!(high_percentile(&[1.0, 5.0, 3.0]), (3.0, 200.0 / 3.0));
        assert_eq!(high_percentile(&[2.0]), (2.0, 100.0));
    }
}
