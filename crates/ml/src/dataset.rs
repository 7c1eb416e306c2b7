//! Labeled feature datasets, standardization, and stratified splitting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labeled dataset of dense feature vectors.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature vectors, all the same length.
    pub features: Vec<Vec<f32>>,
    /// Class index per sample.
    pub labels: Vec<usize>,
    /// Human-readable class names, indexed by class index.
    pub class_names: Vec<String>,
}

impl Dataset {
    /// Creates a dataset; panics in debug builds on length mismatch.
    #[must_use]
    pub fn new(features: Vec<Vec<f32>>, labels: Vec<usize>, class_names: Vec<String>) -> Self {
        debug_assert_eq!(features.len(), labels.len());
        Dataset {
            features,
            labels,
            class_names,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.class_names
            .len()
            .max(self.labels.iter().max().map_or(0, |m| m + 1))
    }

    /// Feature dimensionality (0 if empty).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Appends a sample.
    pub fn push(&mut self, x: Vec<f32>, y: usize) {
        self.features.push(x);
        self.labels.push(y);
    }

    /// Subset by sample indices.
    #[must_use]
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        Dataset {
            features: idx.iter().map(|&i| self.features[i].clone()).collect(),
            labels: idx.iter().map(|&i| self.labels[i]).collect(),
            class_names: self.class_names.clone(),
        }
    }

    /// Per-feature mean/std computed on this dataset (std floored at 1e-6).
    #[must_use]
    pub fn standardization(&self) -> (Vec<f32>, Vec<f32>) {
        let d = self.dim();
        let n = self.len().max(1) as f32;
        let mut mean = vec![0.0f32; d];
        for x in &self.features {
            for (m, v) in mean.iter_mut().zip(x) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; d];
        for x in &self.features {
            for ((v, m), xi) in var.iter_mut().zip(&mean).zip(x) {
                let c = xi - m;
                *v += c * c;
            }
        }
        let std: Vec<f32> = var.iter().map(|v| (v / n).sqrt().max(1e-6)).collect();
        (mean, std)
    }

    /// Stratified k-fold index sets: returns `k` folds, each a set of test
    /// indices, class-balanced. Deterministic given `seed`.
    #[must_use]
    pub fn stratified_folds(&self, k: usize, seed: u64) -> Vec<Vec<usize>> {
        let k = k.max(2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); self.num_classes()];
        for (i, &y) in self.labels.iter().enumerate() {
            by_class[y].push(i);
        }
        // Shuffle within class.
        for cls in &mut by_class {
            for i in (1..cls.len()).rev() {
                let j = rng.gen_range(0..=i);
                cls.swap(i, j);
            }
        }
        let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
        for cls in &by_class {
            for (pos, &i) in cls.iter().enumerate() {
                folds[pos % k].push(i);
            }
        }
        folds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let features = (0..10).map(|i| vec![i as f32, (i * 2) as f32]).collect();
        let labels = (0..10).map(|i| i % 2).collect();
        Dataset::new(features, labels, vec!["even".into(), "odd".into()])
    }

    #[test]
    fn basics() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.num_classes(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn subset() {
        let d = toy();
        let s = d.subset(&[0, 3, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels, vec![0, 1, 1]);
    }

    #[test]
    fn standardization_zero_mean_unit_var() {
        let mut d = toy();
        let (mean, std) = d.standardization();
        for x in &mut d.features {
            for ((xi, m), s) in x.iter_mut().zip(&mean).zip(&std) {
                *xi = (*xi - m) / s;
            }
        }
        let (m2, s2) = d.standardization();
        for m in m2 {
            assert!(m.abs() < 1e-5);
        }
        for s in s2 {
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn stratified_folds_balanced() {
        let d = toy();
        let folds = d.stratified_folds(5, 1);
        assert_eq!(folds.len(), 5);
        let total: usize = folds.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
        for f in &folds {
            // Each fold has one even and one odd sample.
            let evens = f.iter().filter(|&&i| d.labels[i] == 0).count();
            assert_eq!(evens, 1, "{folds:?}");
        }
    }

    #[test]
    fn folds_deterministic() {
        let d = toy();
        assert_eq!(d.stratified_folds(3, 7), d.stratified_folds(3, 7));
        assert_ne!(d.stratified_folds(3, 7), d.stratified_folds(3, 8));
    }

    #[test]
    fn constant_feature_std_floored() {
        let d = Dataset::new(
            vec![vec![5.0], vec![5.0]],
            vec![0, 1],
            vec!["a".into(), "b".into()],
        );
        let (_, std) = d.standardization();
        assert!(std[0] >= 1e-6);
    }
}
