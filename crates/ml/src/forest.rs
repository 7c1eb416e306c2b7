//! Random Forest: bagged decision trees with majority vote.
//!
//! Used as the domain classifier of §4.2 ("we train a Random Forest
//! classifier with default settings") and as the semantic-type detector
//! stand-in of §5.1.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, TreeConfig};
use crate::Classifier;

/// Forest hyperparameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration (the per-tree seed is derived from `seed`).
    pub tree: TreeConfig,
    /// Bootstrap sample fraction.
    pub bootstrap_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 40,
            tree: TreeConfig::default(),
            bootstrap_fraction: 1.0,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Hyperparameters.
    pub config: ForestConfig,
    trees: Vec<DecisionTree>,
    num_classes: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    #[must_use]
    pub fn new(config: ForestConfig) -> Self {
        RandomForest {
            trees: Vec::new(),
            num_classes: 0,
            config,
        }
    }

    /// Mean impurity-based feature importance across trees, normalized to
    /// sum to 1 (all-zero if nothing was split on). Empty before `fit`.
    #[must_use]
    pub fn feature_importance(&self) -> Vec<f64> {
        let Some(first) = self.trees.first() else {
            return Vec::new();
        };
        let dim = first.feature_importance().len();
        let mut acc = vec![0.0f64; dim];
        for t in &self.trees {
            for (a, v) in acc.iter_mut().zip(t.feature_importance()) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }

    /// Class-vote distribution for one sample (normalized to sum 1).
    #[must_use]
    pub fn predict_proba(&self, x: &[f32]) -> Vec<f64> {
        let mut votes = vec![0usize; self.num_classes.max(1)];
        for t in &self.trees {
            let c = t.predict(x);
            if c < votes.len() {
                votes[c] += 1;
            }
        }
        let total = self.trees.len().max(1) as f64;
        votes.into_iter().map(|v| v as f64 / total).collect()
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        self.num_classes = data.num_classes().max(1);
        self.trees.clear();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = data.len();
        let sample_n = ((n as f64) * self.config.bootstrap_fraction).round() as usize;
        for t in 0..self.config.n_trees {
            // Bootstrap sample (with replacement).
            let idx: Vec<usize> = if n == 0 {
                Vec::new()
            } else {
                (0..sample_n.max(1)).map(|_| rng.gen_range(0..n)).collect()
            };
            let sample = data.subset(&idx);
            let mut tree = DecisionTree::new(TreeConfig {
                seed: self.config.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ..self.config.tree.clone()
            });
            tree.fit(&sample);
            self.trees.push(tree);
        }
    }

    fn predict(&self, x: &[f32]) -> usize {
        let proba = self.predict_proba(x);
        proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec![], vec![], vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..n {
            let y = i % 3;
            let (cx, cy) = [(0.0, 3.0), (-3.0, -2.0), (3.0, -2.0)][y];
            d.push(
                vec![
                    cx + rng.gen_range(-1.0..1.0),
                    cy + rng.gen_range(-1.0..1.0f32),
                ],
                y,
            );
        }
        d
    }

    #[test]
    fn three_class_blobs() {
        let d = blobs(300, 1);
        let mut f = RandomForest::new(ForestConfig {
            n_trees: 15,
            tree: TreeConfig {
                max_features: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        f.fit(&d);
        let correct = f
            .predict_all(&d.features)
            .iter()
            .zip(&d.labels)
            .filter(|(p, y)| p == y)
            .count();
        assert!(correct as f64 / 300.0 > 0.95, "{correct}/300");
    }

    #[test]
    fn proba_sums_to_one() {
        let d = blobs(90, 2);
        let mut f = RandomForest::new(ForestConfig {
            n_trees: 7,
            ..Default::default()
        });
        f.fit(&d);
        let p = f.predict_proba(&[0.0, 3.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let d = blobs(90, 3);
        let run = || {
            let mut f = RandomForest::new(ForestConfig {
                n_trees: 9,
                seed: 4,
                ..Default::default()
            });
            f.fit(&d);
            f.predict_all(&d.features)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_dataset_does_not_panic() {
        let d = Dataset::new(vec![], vec![], vec!["a".into()]);
        let mut f = RandomForest::new(ForestConfig {
            n_trees: 3,
            ..Default::default()
        });
        f.fit(&d);
        assert_eq!(f.predict(&[1.0]), 0);
    }

    #[test]
    fn feature_importance_identifies_informative_feature() {
        // Feature 0 separates the classes; feature 1 is pure noise.
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = Dataset::new(vec![], vec![], vec!["a".into(), "b".into()]);
        for i in 0..200 {
            let y = i % 2;
            let x0 = if y == 0 { -2.0 } else { 2.0 };
            d.push(
                vec![x0 + rng.gen_range(-0.5..0.5), rng.gen_range(-1.0..1.0f32)],
                y,
            );
        }
        let mut f = RandomForest::new(ForestConfig {
            n_trees: 15,
            tree: TreeConfig {
                max_features: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        f.fit(&d);
        let imp = f.feature_importance();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "importances {imp:?}");
    }

    #[test]
    fn feature_importance_empty_before_fit() {
        let f = RandomForest::new(ForestConfig::default());
        assert!(f.feature_importance().is_empty());
    }
}
