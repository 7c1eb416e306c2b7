//! Machine-learning substrate: Sherlock-style features, classifiers,
//! cross-validation, and metrics.
//!
//! The paper uses the Sherlock feature extractor (1 188 column-level
//! features: character-distribution aggregates, word-embedding aggregates,
//! and global statistics) with
//!
//! * a deep model for semantic type detection (§5.1, Table 7) — here a
//!   [`RandomForest`] or [`LogisticRegression`] stands in; the experiment
//!   measures feature separability, not architecture;
//! * a Random Forest domain classifier for data-shift detection between
//!   GitTables and VizNet (§4.2, 93 % accuracy).
//!
//! Everything is implemented from scratch on the offline crate set and is
//! deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cv;
mod dataset;
mod features;
mod forest;
mod linear;
mod metrics;
mod mlp;
mod tree;

pub use cv::{cross_validate, CvReport};
pub use dataset::Dataset;
pub use features::{FeatureExtractor, FEATURE_COUNT};
pub use forest::{ForestConfig, RandomForest};
pub use linear::{LogisticConfig, LogisticRegression};
pub use metrics::Metrics;
pub use mlp::{Mlp, MlpConfig};
pub use tree::TreeConfig;

/// Common classifier interface.
pub trait Classifier {
    /// Fits the model to a dataset.
    fn fit(&mut self, data: &Dataset);
    /// Predicts the class index of one feature vector.
    fn predict(&self, x: &[f32]) -> usize;
    /// Predicts class indices for many feature vectors.
    fn predict_all(&self, xs: &[Vec<f32>]) -> Vec<usize> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}
