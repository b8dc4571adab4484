//! From-scratch decision trees and random forests.
//!
//! §6 of the paper: "We train a random forest model because of its
//! robustness to over-fitting and the explainability of its predictions.
//! We got the parameters of this model using grid-search and five-fold
//! cross-validation." The evaluation uses a top-k accuracy metric and gini
//! feature-importance scores.
//!
//! This crate provides everything that sentence needs, with no external ML
//! dependency:
//!
//! * [`Dataset`] — feature matrix + class labels, with train/test splitting
//!   and stratified k-fold,
//! * [`DecisionTree`] — CART with gini impurity, depth/leaf limits, and
//!   per-split random feature subsetting,
//! * [`RandomForest`] — bootstrap-aggregated trees with probability
//!   averaging, top-k prediction and mean-decrease-impurity importances,
//! * [`cv`] — k-fold cross-validation and grid search,
//! * [`metrics`] — accuracy and top-k accuracy.

pub mod cv;
pub mod dataset;
pub mod forest;
pub mod metrics;
pub mod tree;

pub use cv::{grid_search, k_fold_cv, GridSearchResult};
pub use dataset::Dataset;
pub use forest::{ForestParams, RandomForest};
pub use metrics::{accuracy, top_k_accuracy};
pub use tree::{DecisionTree, MaxFeatures, TreeParams};
