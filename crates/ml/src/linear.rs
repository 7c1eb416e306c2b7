//! Multiclass logistic regression (softmax + SGD) — the alternative
//! classifier for the Table 7 ablation (`--classifier logistic`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::Classifier;

/// Hyperparameters.
#[derive(Debug, Clone)]
pub struct LogisticConfig {
    /// SGD epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization strength.
    pub l2: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Seed for shuffling and init.
    pub seed: u64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            epochs: 30,
            lr: 0.05,
            l2: 1e-4,
            batch: 32,
            seed: 0,
        }
    }
}

/// A fitted softmax classifier. Inputs are standardized internally using the
/// training statistics.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Hyperparameters.
    pub config: LogisticConfig,
    /// `weights[c]` is the weight vector of class `c` (last entry = bias).
    weights: Vec<Vec<f32>>,
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl LogisticRegression {
    /// Creates an unfitted model.
    #[must_use]
    pub fn new(config: LogisticConfig) -> Self {
        LogisticRegression {
            config,
            weights: Vec::new(),
            mean: Vec::new(),
            std: Vec::new(),
        }
    }

    fn scores(&self, x: &[f32]) -> Vec<f32> {
        self.weights
            .iter()
            .map(|w| {
                let mut s = w[w.len() - 1]; // bias
                for i in 0..self.mean.len().min(x.len()) {
                    let xi = (x[i] - self.mean[i]) / self.std[i];
                    s += w[i] * xi;
                }
                s
            })
            .collect()
    }

    fn softmax(scores: &[f32]) -> Vec<f32> {
        let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = scores.iter().map(|s| (s - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum.max(1e-12)).collect()
    }

    /// Class probability distribution for one sample.
    #[must_use]
    pub fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        Self::softmax(&self.scores(x))
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &Dataset) {
        let k = data.num_classes().max(1);
        let d = data.dim();
        let (mean, std) = data.standardization();
        self.mean = mean;
        self.std = std;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.weights = (0..k)
            .map(|_| (0..=d).map(|_| rng.gen_range(-0.01..0.01)).collect())
            .collect();
        if data.is_empty() {
            return;
        }
        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.config.epochs {
            // Shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(self.config.batch.max(1)) {
                // Accumulate gradient over the batch.
                let mut grad: Vec<Vec<f32>> = vec![vec![0.0; d + 1]; k];
                for &i in chunk {
                    let x = &data.features[i];
                    let p = Self::softmax(&self.scores(x));
                    for (c, g) in grad.iter_mut().enumerate() {
                        let err = p[c] - f32::from(u8::from(data.labels[i] == c));
                        for j in 0..d {
                            let xi = (x[j] - self.mean[j]) / self.std[j];
                            g[j] += err * xi;
                        }
                        g[d] += err;
                    }
                }
                let scale = self.config.lr / chunk.len() as f32;
                for (w, g) in self.weights.iter_mut().zip(&grad) {
                    for (wi, gi) in w.iter_mut().zip(g) {
                        *wi -= scale * (gi + self.config.l2 * *wi);
                    }
                }
            }
        }
    }

    fn predict(&self, x: &[f32]) -> usize {
        let s = self.scores(x);
        s.iter()
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
        let mut d = Dataset::new(vec![], vec![], vec!["a".into(), "b".into()]);
        for i in 0..n {
            let y = i % 2;
            let cx = if y == 0 { -1.5 } else { 1.5 };
            d.push(
                vec![
                    cx + rng.gen_range(-1.0..1.0f32),
                    rng.gen_range(-1.0..1.0f32),
                ],
                y,
            );
        }
        d
    }

    #[test]
    fn linearly_separable_learned() {
        let d = blobs(300, 1);
        let mut m = LogisticRegression::new(LogisticConfig::default());
        m.fit(&d);
        let correct = m
            .predict_all(&d.features)
            .iter()
            .zip(&d.labels)
            .filter(|(p, y)| p == y)
            .count();
        assert!(correct >= 280, "{correct}/300");
    }

    #[test]
    fn proba_valid() {
        let d = blobs(100, 2);
        let mut m = LogisticRegression::new(LogisticConfig::default());
        m.fit(&d);
        let p = m.predict_proba(&[1.5, 0.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(p[1] > p[0]);
    }

    #[test]
    fn deterministic() {
        let d = blobs(100, 3);
        let run = || {
            let mut m = LogisticRegression::new(LogisticConfig {
                seed: 1,
                ..Default::default()
            });
            m.fit(&d);
            m.predict_all(&d.features)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_dataset_does_not_panic() {
        let d = Dataset::new(vec![], vec![], vec!["a".into()]);
        let mut m = LogisticRegression::new(LogisticConfig::default());
        m.fit(&d);
        let _ = m.predict(&[0.0]);
    }
}
