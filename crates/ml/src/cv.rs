//! Stratified k-fold cross-validation (the paper's 5-fold / 10-fold setups).

use crate::dataset::Dataset;
use crate::metrics::Metrics;
use crate::Classifier;

/// Per-fold and aggregate cross-validation results.
#[derive(Debug, Clone)]
pub struct CvReport {
    /// Metrics of each fold.
    pub folds: Vec<Metrics>,
    /// Mean accuracy across folds.
    pub mean_accuracy: f64,
    /// Std-dev of accuracy.
    pub std_accuracy: f64,
    /// Mean macro F1.
    pub mean_macro_f1: f64,
    /// Std-dev of macro F1.
    pub std_macro_f1: f64,
}

/// Runs stratified k-fold CV with a classifier factory (a fresh model per
/// fold).
pub fn cross_validate<C: Classifier, F: FnMut() -> C>(
    data: &Dataset,
    k: usize,
    seed: u64,
    mut factory: F,
) -> CvReport {
    let folds = data.stratified_folds(k, seed);
    let mut results = Vec::with_capacity(k);
    for test_idx in &folds {
        let test_set: std::collections::HashSet<usize> = test_idx.iter().copied().collect();
        let train_idx: Vec<usize> = (0..data.len()).filter(|i| !test_set.contains(i)).collect();
        let train = data.subset(&train_idx);
        let test = data.subset(test_idx);
        let mut model = factory();
        model.fit(&train);
        let pred = model.predict_all(&test.features);
        results.push(Metrics::compute(&pred, &test.labels, data.num_classes()));
    }
    let n = results.len().max(1) as f64;
    let mean_acc = results.iter().map(|m| m.accuracy).sum::<f64>() / n;
    let mean_f1 = results.iter().map(|m| m.macro_f1).sum::<f64>() / n;
    let std_acc = (results
        .iter()
        .map(|m| (m.accuracy - mean_acc).powi(2))
        .sum::<f64>()
        / n)
        .sqrt();
    let std_f1 = (results
        .iter()
        .map(|m| (m.macro_f1 - mean_f1).powi(2))
        .sum::<f64>()
        / n)
        .sqrt();
    CvReport {
        folds: results,
        mean_accuracy: mean_acc,
        std_accuracy: std_acc,
        mean_macro_f1: mean_f1,
        std_macro_f1: std_f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{ForestConfig, RandomForest};
    use crate::tree::TreeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dataset::new(vec![], vec![], vec!["a".into(), "b".into()]);
        for i in 0..n {
            let y = i % 2;
            let cx = if y == 0 { -2.0 } else { 2.0 };
            d.push(vec![cx + rng.gen_range(-1.0..1.0f32)], y);
        }
        d
    }

    #[test]
    fn cv_on_separable_data_scores_high() {
        let d = blobs(200);
        let report = cross_validate(&d, 5, 42, || {
            RandomForest::new(ForestConfig {
                n_trees: 9,
                tree: TreeConfig {
                    max_features: 1,
                    ..Default::default()
                },
                ..Default::default()
            })
        });
        assert_eq!(report.folds.len(), 5);
        assert!(report.mean_accuracy > 0.95, "{}", report.mean_accuracy);
        assert!(report.mean_macro_f1 > 0.95);
        assert!(report.std_accuracy < 0.1);
    }

    #[test]
    fn folds_cover_all_samples_once() {
        let d = blobs(100);
        let folds = d.stratified_folds(10, 3);
        let mut seen = [false; 100];
        for f in &folds {
            for &i in f {
                assert!(!seen[i], "sample {i} in two folds");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic() {
        let d = blobs(60);
        let run = || {
            cross_validate(&d, 3, 7, || {
                RandomForest::new(ForestConfig {
                    n_trees: 5,
                    seed: 2,
                    ..Default::default()
                })
            })
            .mean_accuracy
        };
        assert_eq!(run(), run());
    }
}
