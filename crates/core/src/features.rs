//! The §6 feature engineering: z-score clusters.
//!
//! "Given a set of satellites S available at time t for location l, the
//! satellite s ∈ S with parameters (θₛ, φₛ, aₛ, Lₛ) is placed in the
//! cluster ((θₛ−μ(θ))/σ(θ), (φₛ−μ(φ))/σ(φ), (aₛ−μ(a))/σ(a), L)" — i.e.
//! each satellite is described by how many standard deviations its
//! azimuth, angle of elevation and age sit from the mean of the satellites
//! currently in view, plus its sunlit bit. The model's features are the
//! local time and the count of available satellites per cluster; the label
//! is the chosen satellite's cluster.

use crate::campaign::{SatObs, SlotObservation};
use starsense_stats::describe::{mean, std_dev_population};
use std::collections::BTreeMap;

/// A quantized z-score cluster: (azimuth, AOE, age) z-scores rounded to
/// integers and clamped to ±2, plus the sunlit flag — the "(1, 0, 2, 1)"
/// tuples of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterKey {
    /// Quantized azimuth z-score, −2..=2.
    pub az: i8,
    /// Quantized angle-of-elevation z-score, −2..=2.
    pub aoe: i8,
    /// Quantized age z-score, −2..=2.
    pub age: i8,
    /// Sunlit flag.
    pub sunlit: bool,
}

impl ClusterKey {
    /// Renders the tuple the way the paper prints it, e.g. `(1,-1,-1,1)`.
    pub fn label(&self) -> String {
        format!("({},{},{},{})", self.az, self.aoe, self.age, u8::from(self.sunlit))
    }
}

/// Per-slot z-score context: the mean and population σ of each feature
/// over the slot's available set.
#[derive(Debug, Clone, Copy)]
struct SlotStats {
    az: (f64, f64),
    aoe: (f64, f64),
    age: (f64, f64),
}

fn slot_stats(available: &[SatObs]) -> SlotStats {
    let azs: Vec<f64> = available.iter().map(|s| s.azimuth_deg).collect();
    let aoes: Vec<f64> = available.iter().map(|s| s.elevation_deg).collect();
    let ages: Vec<f64> = available.iter().map(|s| s.age_days).collect();
    SlotStats {
        az: (mean(&azs), std_dev_population(&azs)),
        aoe: (mean(&aoes), std_dev_population(&aoes)),
        age: (mean(&ages), std_dev_population(&ages)),
    }
}

fn quantize(value: f64, (mu, sigma): (f64, f64)) -> i8 {
    if !sigma.is_finite() || sigma < 1e-9 {
        return 0;
    }
    ((value - mu) / sigma).round().clamp(-2.0, 2.0) as i8
}

/// Assigns a satellite to its cluster within a slot's available set.
pub fn cluster_of(sat: &SatObs, available: &[SatObs]) -> ClusterKey {
    let stats = slot_stats(available);
    ClusterKey {
        az: quantize(sat.azimuth_deg, stats.az),
        aoe: quantize(sat.elevation_deg, stats.aoe),
        age: quantize(sat.age_days, stats.age),
        sunlit: sat.sunlit,
    }
}

/// The set of clusters seen in a training corpus, with a stable index per
/// cluster (labels and count features refer to these indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterVocabulary {
    index: BTreeMap<ClusterKey, usize>,
}

impl ClusterVocabulary {
    /// Builds the vocabulary from observations: every cluster that appears
    /// in any slot's available set.
    pub fn build(observations: &[SlotObservation]) -> ClusterVocabulary {
        let mut keys = std::collections::BTreeSet::new();
        for o in observations {
            for s in &o.available {
                keys.insert(cluster_of(s, &o.available));
            }
        }
        ClusterVocabulary { index: keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect() }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no clusters were observed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Index of a cluster, if it is in the vocabulary.
    pub fn index_of(&self, key: &ClusterKey) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// Cluster keys in index order.
    pub fn keys(&self) -> Vec<ClusterKey> {
        let mut v: Vec<(usize, ClusterKey)> = self.index.iter().map(|(k, &i)| (i, *k)).collect();
        v.sort_by_key(|(i, _)| *i);
        v.into_iter().map(|(_, k)| k).collect()
    }
}

/// Turns slot observations into model rows.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    vocab: ClusterVocabulary,
}

impl FeatureExtractor {
    /// Creates an extractor over a vocabulary.
    pub fn new(vocab: ClusterVocabulary) -> FeatureExtractor {
        FeatureExtractor { vocab }
    }

    /// The vocabulary in use.
    pub fn vocabulary(&self) -> &ClusterVocabulary {
        &self.vocab
    }

    /// Feature names: `local_hour` followed by one count feature per
    /// cluster, named with the paper's tuple notation.
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = vec!["local_hour".to_string()];
        names.extend(self.vocab.keys().iter().map(|k| k.label()));
        names
    }

    /// Feature vector for one slot: `[local_hour, count per cluster…]`.
    pub fn features(&self, o: &SlotObservation) -> Vec<f64> {
        let mut row = vec![0.0; 1 + self.vocab.len()];
        row[0] = o.local_hour;
        for s in &o.available {
            if let Some(i) = self.vocab.index_of(&cluster_of(s, &o.available)) {
                row[1 + i] += 1.0;
            }
        }
        row
    }

    /// Label for one slot: the chosen satellite's cluster index. `None`
    /// when the slot has no chosen satellite or its cluster is unseen.
    pub fn label(&self, o: &SlotObservation) -> Option<usize> {
        let chosen = o.chosen.as_ref()?;
        self.vocab.index_of(&cluster_of(chosen, &o.available))
    }

    /// The baseline's ranked guesses for a slot: cluster indices by
    /// descending available count ("the baseline model... simply returns
    /// the (top-k) cluster(s) with the most number of available
    /// satellites").
    pub fn baseline_ranking(&self, features: &[f64]) -> Vec<usize> {
        let counts = &features[1..];
        let mut idx: Vec<usize> = (0..counts.len()).collect();
        idx.sort_by(|&a, &b| counts[b].total_cmp(&counts[a]));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_astro::time::JulianDate;

    fn sat(az: f64, el: f64, age: f64, sunlit: bool) -> SatObs {
        SatObs {
            norad_id: (az * 10.0) as u32 + 44_000,
            elevation_deg: el,
            azimuth_deg: az,
            age_days: age,
            sunlit,
            launch_year: 2021,
            launch_month: 6,
        }
    }

    fn slot(available: Vec<SatObs>, chosen: Option<SatObs>) -> SlotObservation {
        SlotObservation {
            terminal_id: 0,
            slot: 1,
            slot_start: JulianDate::J2000,
            local_hour: 13.5,
            available,
            chosen,
            truth_id: None,
            outcome: crate::degrade::SlotOutcome::Observed { confidence: 1.0 },
        }
    }

    #[test]
    fn cluster_of_mean_satellite_is_zero_tuple() {
        let avail = vec![
            sat(0.0, 30.0, 100.0, true),
            sat(120.0, 60.0, 500.0, true),
            sat(240.0, 90.0, 900.0, true),
        ];
        // The middle satellite is exactly at the mean of every feature.
        let k = cluster_of(&avail[1], &avail);
        assert_eq!((k.az, k.aoe, k.age), (0, 0, 0));
        assert!(k.sunlit);
    }

    #[test]
    fn clusters_clamp_at_two_sigma() {
        let mut avail: Vec<SatObs> =
            (0..20).map(|i| sat(100.0 + i as f64, 50.0, 300.0, true)).collect();
        avail.push(sat(359.0, 50.0, 300.0, true)); // extreme azimuth outlier
        let k = cluster_of(avail.last().unwrap(), &avail);
        assert_eq!(k.az, 2);
    }

    #[test]
    fn zero_variance_features_quantize_to_zero() {
        let avail = vec![sat(10.0, 50.0, 300.0, false), sat(10.0, 50.0, 300.0, false)];
        let k = cluster_of(&avail[0], &avail);
        assert_eq!((k.az, k.aoe, k.age, k.sunlit), (0, 0, 0, false));
    }

    #[test]
    fn label_format_matches_paper_notation() {
        let k = ClusterKey { az: 1, aoe: -1, age: -1, sunlit: true };
        assert_eq!(k.label(), "(1,-1,-1,1)");
    }

    #[test]
    fn vocabulary_indexes_every_observed_cluster() {
        let obs =
            vec![slot(vec![sat(0.0, 30.0, 100.0, true), sat(180.0, 80.0, 900.0, false)], None)];
        let vocab = ClusterVocabulary::build(&obs);
        assert!(!vocab.is_empty());
        assert_eq!(vocab.len(), vocab.keys().len());
        for k in vocab.keys() {
            assert!(vocab.index_of(&k).is_some());
        }
    }

    #[test]
    fn features_count_per_cluster_and_lead_with_local_hour() {
        let available = vec![
            sat(0.0, 30.0, 100.0, true),
            sat(120.0, 60.0, 500.0, true),
            sat(240.0, 90.0, 900.0, true),
        ];
        let o = slot(available.clone(), Some(available[1].clone()));
        let vocab = ClusterVocabulary::build(std::slice::from_ref(&o));
        let fx = FeatureExtractor::new(vocab);
        let row = fx.features(&o);
        assert_eq!(row.len(), 1 + fx.vocabulary().len());
        assert_eq!(row[0], 13.5);
        let total: f64 = row[1..].iter().sum();
        assert_eq!(total, 3.0, "every available satellite lands in a cluster");
        // Label exists and is a valid index.
        let label = fx.label(&o).expect("chosen cluster in vocab");
        assert!(label < fx.vocabulary().len());
    }

    #[test]
    fn label_is_none_without_chosen() {
        let o = slot(vec![sat(0.0, 30.0, 100.0, true)], None);
        let vocab = ClusterVocabulary::build(std::slice::from_ref(&o));
        let fx = FeatureExtractor::new(vocab);
        assert!(fx.label(&o).is_none());
    }

    #[test]
    fn baseline_ranking_orders_by_count() {
        let available = vec![
            sat(10.0, 30.0, 100.0, true),
            sat(11.0, 30.5, 101.0, true),
            sat(200.0, 80.0, 900.0, false),
        ];
        let o = slot(available, None);
        let vocab = ClusterVocabulary::build(std::slice::from_ref(&o));
        let fx = FeatureExtractor::new(vocab);
        let row = fx.features(&o);
        let ranking = fx.baseline_ranking(&row);
        assert_eq!(ranking.len(), fx.vocabulary().len());
        // The top-ranked cluster holds the most satellites.
        let counts = &row[1..];
        assert!(counts[ranking[0]] >= counts[ranking[ranking.len() - 1]]);
    }

    #[test]
    fn feature_names_align_with_width() {
        let o = slot(vec![sat(0.0, 30.0, 100.0, true)], None);
        let vocab = ClusterVocabulary::build(std::slice::from_ref(&o));
        let fx = FeatureExtractor::new(vocab);
        assert_eq!(fx.feature_names().len(), fx.features(&o).len());
        assert_eq!(fx.feature_names()[0], "local_hour");
    }
}
