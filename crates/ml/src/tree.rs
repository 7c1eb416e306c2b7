//! CART-style decision tree with gini impurity and random feature
//! subsampling (the building block of [`crate::RandomForest`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::Classifier;

/// Tree hyperparameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Number of random features considered per split; 0 ⇒ `sqrt(dim)`.
    pub max_features: usize,
    /// Candidate thresholds per feature (quantile cuts).
    pub thresholds_per_feature: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 14,
            min_samples_split: 4,
            max_features: 0,
            thresholds_per_feature: 8,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Hyperparameters.
    pub config: TreeConfig,
    root: Option<Node>,
    num_classes: usize,
    /// Impurity-based importance per feature (gini gain × node fraction,
    /// summed over splits); filled by `fit`.
    importance: Vec<f64>,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    #[must_use]
    pub fn new(config: TreeConfig) -> Self {
        DecisionTree {
            config,
            root: None,
            num_classes: 0,
            importance: Vec::new(),
        }
    }

    /// Impurity-based feature importances (unnormalized), one per feature.
    /// Empty before `fit`.
    #[must_use]
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    fn gini(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        1.0 - counts
            .iter()
            .map(|&c| {
                let p = c as f64 / t;
                p * p
            })
            .sum::<f64>()
    }

    fn majority(counts: &[usize]) -> usize {
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map_or(0, |(i, _)| i)
    }

    fn class_counts(&self, data: &Dataset, idx: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &i in idx {
            counts[data.labels[i]] += 1;
        }
        counts
    }

    #[allow(clippy::too_many_lines)]
    fn build(
        &self,
        data: &Dataset,
        idx: &[usize],
        depth: usize,
        rng: &mut StdRng,
        importance: &mut [f64],
        total_n: f64,
    ) -> Node {
        let counts = self.class_counts(data, idx);
        let node_gini = Self::gini(&counts, idx.len());
        if depth >= self.config.max_depth
            || idx.len() < self.config.min_samples_split
            || node_gini == 0.0
        {
            return Node::Leaf {
                class: Self::majority(&counts),
            };
        }
        let dim = data.dim();
        let n_features = if self.config.max_features == 0 {
            ((dim as f64).sqrt().ceil() as usize).clamp(1, dim)
        } else {
            self.config.max_features.min(dim)
        };
        // Sample features without replacement (partial Fisher–Yates).
        let mut feats: Vec<usize> = (0..dim).collect();
        for i in 0..n_features {
            let j = rng.gen_range(i..dim);
            feats.swap(i, j);
        }

        let mut best: Option<(f64, usize, f32)> = None;
        let parent = node_gini;
        for &f in &feats[..n_features] {
            // Quantile thresholds over the node's values of this feature.
            let mut vals: Vec<f32> = idx.iter().map(|&i| data.features[i][f]).collect();
            vals.sort_by(f32::total_cmp);
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let k = self.config.thresholds_per_feature.min(vals.len() - 1);
            for t in 1..=k {
                let pos = t * (vals.len() - 1) / (k + 1) + 1;
                let threshold = (vals[pos - 1] + vals[pos.min(vals.len() - 1)]) / 2.0;
                let mut left_counts = vec![0usize; self.num_classes];
                let mut left_n = 0usize;
                for &i in idx {
                    if data.features[i][f] <= threshold {
                        left_counts[data.labels[i]] += 1;
                        left_n += 1;
                    }
                }
                let right_n = idx.len() - left_n;
                if left_n == 0 || right_n == 0 {
                    continue;
                }
                let right_counts: Vec<usize> = counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(c, l)| c - l)
                    .collect();
                let weighted = (left_n as f64 * Self::gini(&left_counts, left_n)
                    + right_n as f64 * Self::gini(&right_counts, right_n))
                    / idx.len() as f64;
                let gain = parent - weighted;
                if gain > 1e-9 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, threshold));
                }
            }
        }
        let Some((gain, feature, threshold)) = best else {
            return Node::Leaf {
                class: Self::majority(&counts),
            };
        };
        if feature < importance.len() && total_n > 0.0 {
            importance[feature] += gain * idx.len() as f64 / total_n;
        }
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .iter()
            .partition(|&&i| data.features[i][feature] <= threshold);
        let left = self.build(data, &left_idx, depth + 1, rng, importance, total_n);
        let right = self.build(data, &right_idx, depth + 1, rng, importance, total_n);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        self.num_classes = data.num_classes().max(1);
        if data.is_empty() {
            self.root = Some(Node::Leaf { class: 0 });
            return;
        }
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut importance = vec![0.0f64; data.dim()];
        let total_n = data.len() as f64;
        self.root = Some(self.build(data, &idx, 0, &mut rng, &mut importance, total_n));
        self.importance = importance;
    }

    fn predict(&self, x: &[f32]) -> usize {
        let mut node = self.root.as_ref().expect("fit before predict");
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated gaussian-ish blobs.
    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec![], vec![], vec!["a".into(), "b".into()]);
        for i in 0..n {
            let y = i % 2;
            let cx = if y == 0 { -2.0 } else { 2.0 };
            d.push(
                vec![cx + rng.gen_range(-0.8..0.8), rng.gen_range(-1.0..1.0f32)],
                y,
            );
        }
        d
    }

    #[test]
    fn separable_data_learned() {
        let d = blobs(200, 1);
        let mut t = DecisionTree::new(TreeConfig {
            max_features: 2,
            ..Default::default()
        });
        t.fit(&d);
        let preds = t.predict_all(&d.features);
        let correct = preds.iter().zip(&d.labels).filter(|(p, y)| p == y).count();
        assert!(correct >= 195, "{correct}/200");
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let d = Dataset::new(
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![1, 1, 1],
            vec!["a".into(), "b".into()],
        );
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&d);
        assert_eq!(t.predict(&[99.0]), 1);
    }

    #[test]
    fn empty_dataset_defaults_to_class_zero() {
        let d = Dataset::new(vec![], vec![], vec!["a".into()]);
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&d);
        assert_eq!(t.predict(&[0.0]), 0);
    }

    #[test]
    fn deterministic() {
        let d = blobs(100, 2);
        let mk = || {
            let mut t = DecisionTree::new(TreeConfig {
                seed: 5,
                ..Default::default()
            });
            t.fit(&d);
            t.predict_all(&d.features)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn depth_limit_respected() {
        // max_depth 0 ⇒ a single leaf (majority class).
        let d = blobs(100, 3);
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 0,
            ..Default::default()
        });
        t.fit(&d);
        let p0 = t.predict(&[-2.0, 0.0]);
        let p1 = t.predict(&[2.0, 0.0]);
        assert_eq!(p0, p1);
    }

    #[test]
    fn missing_feature_in_query_defaults() {
        let d = blobs(50, 4);
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&d);
        // Short query vector must not panic.
        let _ = t.predict(&[]);
    }
}
