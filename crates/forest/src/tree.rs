//! CART decision trees with gini impurity.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How many features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaxFeatures {
    /// All features (classic CART).
    All,
    /// ⌈√width⌉ random features per split (the random-forest default).
    Sqrt,
    /// A fixed count (clamped to the width).
    Fixed(usize),
}

impl MaxFeatures {
    fn resolve(self, width: usize) -> usize {
        match self {
            MaxFeatures::All => width,
            MaxFeatures::Sqrt => (width as f64).sqrt().ceil() as usize,
            MaxFeatures::Fixed(n) => n.clamp(1, width),
        }
        .max(1)
    }
}

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// A node with fewer samples becomes a leaf.
    pub min_samples_split: usize,
    /// A split may not create a child smaller than this.
    pub min_samples_leaf: usize,
    /// Feature subsetting per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Class probabilities (training-count normalized).
        probs: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
    /// Un-normalized gini importance accumulated per feature.
    importances: Vec<f64>,
}

/// Gini impurity of a class-count vector.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

impl DecisionTree {
    /// Fits a tree on `data` (uses every row).
    pub fn fit(data: &Dataset, params: &TreeParams, seed: u64) -> DecisionTree {
        let indices: Vec<usize> = (0..data.len()).collect();
        Self::fit_on(data, &indices, params, seed)
    }

    /// Fits a tree on a subset of rows of `data` (the bootstrap entry
    /// point used by [`crate::RandomForest`]).
    pub fn fit_on(
        data: &Dataset,
        indices: &[usize],
        params: &TreeParams,
        seed: u64,
    ) -> DecisionTree {
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut importances = vec![0.0; data.width()];
        let mut idx = indices.to_vec();
        let root = grow(data, &mut idx, params, 0, indices.len(), &mut rng, &mut importances);
        DecisionTree { root, n_classes: data.n_classes(), importances }
    }

    /// Class-probability vector for one feature row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { probs } => return probs.clone(),
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Most likely class for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        argmax(&self.predict_proba(row))
    }

    /// Number of classes the tree was trained with.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Raw (un-normalized) gini importances, one per feature.
    pub fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Tree depth (root = 0; a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn c(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => c(left) + c(right),
            }
        }
        c(&self.root)
    }
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)
}

fn class_counts(data: &Dataset, indices: &[usize]) -> Vec<usize> {
    let mut counts = vec![0usize; data.n_classes()];
    for &i in indices {
        counts[data.labels()[i]] += 1;
    }
    counts
}

fn leaf(data: &Dataset, indices: &[usize]) -> Node {
    let counts = class_counts(data, indices);
    let total = indices.len() as f64;
    Node::Leaf { probs: counts.iter().map(|&c| c as f64 / total).collect() }
}

/// The best split found for a node.
struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
    /// Weighted child impurity, for the importance bookkeeping.
    n_left: usize,
}

fn grow(
    data: &Dataset,
    indices: &mut [usize],
    params: &TreeParams,
    depth: usize,
    n_total: usize,
    rng: &mut StdRng,
    importances: &mut [f64],
) -> Node {
    let counts = class_counts(data, indices);
    let node_impurity = gini(&counts, indices.len());

    // Stopping conditions.
    // Gini impurity is non-negative in exact arithmetic; `<=` makes the
    // pure-node stop robust to float rounding without an exact `==`.
    if depth >= params.max_depth || indices.len() < params.min_samples_split || node_impurity <= 0.0
    {
        return leaf(data, indices);
    }

    let Some(best) = find_best_split(data, indices, params, rng) else {
        return leaf(data, indices);
    };

    // Partition indices in place around the split.
    indices.sort_by(|&a, &b| {
        data.features()[a][best.feature].total_cmp(&data.features()[b][best.feature])
    });

    // Mean-decrease-impurity bookkeeping: weight by node share of the tree.
    importances[best.feature] += indices_weight(indices.len(), n_total) * best.gain;

    let (left_idx, right_idx) = indices.split_at_mut(best.n_left);

    let left = grow(data, left_idx, params, depth + 1, n_total, rng, importances);
    let right = grow(data, right_idx, params, depth + 1, n_total, rng, importances);
    Node::Split {
        feature: best.feature,
        threshold: best.threshold,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn indices_weight(n_node: usize, n_total: usize) -> f64 {
    n_node as f64 / n_total as f64
}

fn find_best_split(
    data: &Dataset,
    indices: &[usize],
    params: &TreeParams,
    rng: &mut StdRng,
) -> Option<BestSplit> {
    let width = data.width();
    if width == 0 {
        return None;
    }
    let k = params.max_features.resolve(width);
    let mut feats: Vec<usize> = (0..width).collect();
    feats.shuffle(rng);
    feats.truncate(k);

    let parent_counts = class_counts(data, indices);
    let parent_impurity = gini(&parent_counts, indices.len());
    let n = indices.len();

    let mut best: Option<BestSplit> = None;
    let mut sorted = indices.to_vec();

    for &f in &feats {
        sorted.sort_by(|&a, &b| data.features()[a][f].total_cmp(&data.features()[b][f]));

        // Incremental left/right class counts while sweeping the sorted
        // order; candidate thresholds sit between distinct values.
        let mut left_counts = vec![0usize; data.n_classes()];
        let mut right_counts = parent_counts.clone();

        for cut in 1..n {
            let prev = sorted[cut - 1];
            let label = data.labels()[prev];
            left_counts[label] += 1;
            right_counts[label] -= 1;

            let v_prev = data.features()[prev][f];
            let v_next = data.features()[sorted[cut]][f];
            #[expect(clippy::float_cmp, reason = "only a strict increase separates two samples")]
            if v_prev == v_next {
                continue; // cannot split between equal values
            }
            if cut < params.min_samples_leaf || n - cut < params.min_samples_leaf {
                continue;
            }

            let gl = gini(&left_counts, cut);
            let gr = gini(&right_counts, n - cut);
            let weighted = (cut as f64 * gl + (n - cut) as f64 * gr) / n as f64;
            let gain = parent_impurity - weighted;
            if gain > 1e-12 && best.as_ref().map(|b| gain > b.gain).unwrap_or(true) {
                best = Some(BestSplit {
                    feature: f,
                    threshold: (v_prev + v_next) / 2.0,
                    gain,
                    n_left: cut,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated 2-D blobs.
    fn blobs() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let jitter = (i % 7) as f64 * 0.05;
            if i % 2 == 0 {
                features.push(vec![0.0 + jitter, 1.0 - jitter]);
                labels.push(0);
            } else {
                features.push(vec![5.0 + jitter, -3.0 + jitter]);
                labels.push(1);
            }
        }
        Dataset::unnamed(features, labels, 2)
    }

    #[test]
    fn separable_data_is_classified_perfectly() {
        let d = blobs();
        let t = DecisionTree::fit(&d, &TreeParams::default(), 1);
        for i in 0..d.len() {
            let (row, label) = d.row(i);
            assert_eq!(t.predict(row), label);
        }
    }

    #[test]
    fn depth_zero_tree_is_a_single_leaf_majority_vote() {
        let d = blobs();
        let params = TreeParams { max_depth: 0, ..TreeParams::default() };
        let t = DecisionTree::fit(&d, &params, 1);
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.depth(), 0);
        let p = t.predict_proba(&[0.0, 0.0]);
        assert!((p[0] - 0.5).abs() < 1e-12, "balanced data → 50/50 leaf");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = blobs();
        let t = DecisionTree::fit(&d, &TreeParams::default(), 1);
        for i in 0..d.len() {
            let p = t.predict_proba(d.row(i).0);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn xor_needs_depth_two() {
        // XOR: not linearly separable per feature; depth 1 cannot fit it,
        // depth 2 can. A deterministic jitter breaks the exact gini ties
        // that would otherwise stop greedy CART at the root (with perfectly
        // balanced XOR data every marginal split has exactly zero gain).
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = (i / 2) % 2;
            let b = i % 2;
            let jitter = ((i * 13) % 11) as f64 * 0.004;
            features.push(vec![a as f64 + jitter, b as f64 - jitter]);
            labels.push(a ^ b);
        }
        let d = Dataset::unnamed(features, labels, 2);
        let shallow = DecisionTree::fit(
            &d,
            &TreeParams { max_depth: 1, min_samples_split: 2, ..TreeParams::default() },
            1,
        );
        let deep = DecisionTree::fit(
            &d,
            &TreeParams { max_depth: 8, min_samples_split: 2, ..TreeParams::default() },
            1,
        );
        let acc = |t: &DecisionTree| {
            (0..d.len()).filter(|&i| t.predict(d.row(i).0) == d.row(i).1).count() as f64
                / d.len() as f64
        };
        assert!(acc(&shallow) < 0.8, "depth-1 cannot solve XOR: {}", acc(&shallow));
        // Greedy CART needs a few imbalance-creating splits before the XOR
        // structure becomes visible to gini gain; depth 8 is ample.
        assert!(acc(&deep) >= 0.95, "deep tree should solve XOR: {}", acc(&deep));
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let d = blobs();
        let params = TreeParams { min_samples_leaf: 10, ..TreeParams::default() };
        let t = DecisionTree::fit(&d, &params, 1);
        // 40 rows with 10-minimum leaves allows at most 4 leaves.
        assert!(t.n_leaves() <= 4, "{} leaves", t.n_leaves());
    }

    #[test]
    fn importances_concentrate_on_informative_features() {
        // Feature 0 carries all the signal; feature 1 is noise.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let noise = ((i * 37) % 100) as f64 / 100.0;
            features.push(vec![if i % 2 == 0 { 0.0 } else { 1.0 }, noise]);
            labels.push(i % 2);
        }
        let d = Dataset::unnamed(features, labels, 2);
        let t = DecisionTree::fit(&d, &TreeParams::default(), 1);
        let imp = t.raw_importances();
        assert!(imp[0] > 10.0 * imp[1].max(1e-12), "importances {imp:?}");
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(9), 9);
        assert_eq!(MaxFeatures::Sqrt.resolve(9), 3);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Fixed(100).resolve(5), 5);
        assert_eq!(MaxFeatures::Fixed(0).resolve(5), 1);
    }

    #[test]
    fn single_class_data_yields_pure_leaf() {
        let d = Dataset::unnamed(vec![vec![1.0], vec![2.0], vec![3.0]], vec![0, 0, 0], 1);
        let t = DecisionTree::fit(&d, &TreeParams::default(), 1);
        assert_eq!(t.n_leaves(), 1);
        assert_eq!(t.predict(&[10.0]), 0);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let d = Dataset::unnamed(vec![vec![1.0]], vec![0], 1);
        let _ = DecisionTree::fit_on(&d, &[], &TreeParams::default(), 1);
    }

    #[test]
    fn gini_values() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert!((gini(&[1, 1, 1, 1], 4) - 0.75).abs() < 1e-12);
        assert_eq!(gini(&[0, 0], 0), 0.0);
    }
}
