//! Statistics used throughout the reproduction.
//!
//! The paper's analyses lean on a small set of classical tools:
//!
//! * the **Mann-Whitney U test** to show consecutive 15-second RTT windows
//!   are statistically distinct (§3),
//! * **empirical CDFs** for Figures 4, 5 and 7,
//! * **Pearson correlation** for the launch-date preference of Figure 6,
//! * descriptive summaries (medians, quantiles) quoted in the text.
//!
//! Everything is implemented from scratch over `&[f64]` slices.

pub mod describe;
pub mod ecdf;
pub mod mannwhitney;
pub mod pearson;

pub use describe::{mean, median, quantile, std_dev, Summary};
pub use ecdf::Ecdf;
pub use mannwhitney::{mann_whitney_u, MannWhitney};
pub use pearson::pearson;
