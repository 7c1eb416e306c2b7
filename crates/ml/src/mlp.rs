//! A small feed-forward neural network (one ReLU hidden layer + softmax),
//! closer to Sherlock's actual architecture than the tree models; the third
//! option of the Table 7 classifier ablation (`--classifier mlp`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::Classifier;

/// Hyperparameters of the MLP.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization.
    pub l2: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 64,
            epochs: 40,
            lr: 0.02,
            l2: 1e-4,
            batch: 32,
            seed: 0,
        }
    }
}

/// A fitted one-hidden-layer MLP. Inputs are standardized with training
/// statistics, as in Sherlock's preprocessing.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Hyperparameters.
    pub config: MlpConfig,
    /// `w1[h]` = weights of hidden unit `h` (dim inputs + bias).
    w1: Vec<Vec<f32>>,
    /// `w2[c]` = weights of output unit `c` (hidden + bias).
    w2: Vec<Vec<f32>>,
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Mlp {
    /// Creates an unfitted network.
    #[must_use]
    pub fn new(config: MlpConfig) -> Self {
        Mlp {
            config,
            w1: Vec::new(),
            w2: Vec::new(),
            mean: Vec::new(),
            std: Vec::new(),
        }
    }

    fn standardized(&self, x: &[f32]) -> Vec<f32> {
        self.mean
            .iter()
            .zip(&self.std)
            .enumerate()
            .map(|(i, (m, s))| (x.get(i).copied().unwrap_or(0.0) - m) / s)
            .collect()
    }

    /// Forward pass: returns `(hidden activations, output logits)`.
    fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let h: Vec<f32> = self
            .w1
            .iter()
            .map(|w| {
                let mut s = w[w.len() - 1];
                for (wi, xi) in w[..w.len() - 1].iter().zip(x) {
                    s += wi * xi;
                }
                s.max(0.0) // ReLU
            })
            .collect();
        let logits: Vec<f32> = self
            .w2
            .iter()
            .map(|w| {
                let mut s = w[w.len() - 1];
                for (wi, hi) in w[..w.len() - 1].iter().zip(&h) {
                    s += wi * hi;
                }
                s
            })
            .collect();
        (h, logits)
    }

    fn softmax(logits: &[f32]) -> Vec<f32> {
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
        let sum: f32 = exps.iter().sum::<f32>().max(1e-12);
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Class probabilities for one sample.
    #[must_use]
    pub fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        let xs = self.standardized(x);
        let (_, logits) = self.forward(&xs);
        Self::softmax(&logits)
    }
}

impl Classifier for Mlp {
    #[allow(clippy::too_many_lines)]
    fn fit(&mut self, data: &Dataset) {
        let d = data.dim();
        let k = data.num_classes().max(1);
        let h = self.config.hidden.max(1);
        let (mean, std) = data.standardization();
        self.mean = mean;
        self.std = std;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // He-style init scaled by fan-in.
        let scale1 = (2.0 / (d.max(1)) as f32).sqrt();
        let scale2 = (2.0 / h as f32).sqrt();
        self.w1 = (0..h)
            .map(|_| (0..=d).map(|_| rng.gen_range(-scale1..scale1)).collect())
            .collect();
        self.w2 = (0..k)
            .map(|_| (0..=h).map(|_| rng.gen_range(-scale2..scale2)).collect())
            .collect();
        if data.is_empty() {
            return;
        }
        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        let xs: Vec<Vec<f32>> = data.features.iter().map(|x| self.standardized(x)).collect();
        for _ in 0..self.config.epochs {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(self.config.batch.max(1)) {
                let mut g1 = vec![vec![0.0f32; d + 1]; h];
                let mut g2 = vec![vec![0.0f32; h + 1]; k];
                for &i in chunk {
                    let x = &xs[i];
                    let (hid, logits) = self.forward(x);
                    let p = Self::softmax(&logits);
                    // Output layer gradient.
                    let mut dh = vec![0.0f32; h];
                    for c in 0..k {
                        let err = p[c] - f32::from(u8::from(data.labels[i] == c));
                        for (j, hj) in hid.iter().enumerate() {
                            g2[c][j] += err * hj;
                            dh[j] += err * self.w2[c][j];
                        }
                        g2[c][h] += err;
                    }
                    // Hidden layer gradient through ReLU.
                    for (j, &hj) in hid.iter().enumerate() {
                        if hj <= 0.0 {
                            continue;
                        }
                        for (jj, xi) in x.iter().enumerate() {
                            g1[j][jj] += dh[j] * xi;
                        }
                        g1[j][d] += dh[j];
                    }
                }
                let scale = self.config.lr / chunk.len() as f32;
                for (w, g) in self.w1.iter_mut().zip(&g1) {
                    for (wi, gi) in w.iter_mut().zip(g) {
                        *wi -= scale * (gi + self.config.l2 * *wi);
                    }
                }
                for (w, g) in self.w2.iter_mut().zip(&g2) {
                    for (wi, gi) in w.iter_mut().zip(g) {
                        *wi -= scale * (gi + self.config.l2 * *wi);
                    }
                }
            }
        }
    }

    fn predict(&self, x: &[f32]) -> usize {
        let p = self.predict_proba(x);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR-ish data: not linearly separable, needs the hidden layer.
    fn xor(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec![], vec![], vec!["a".into(), "b".into()]);
        for _ in 0..n {
            let x = f32::from(u8::from(rng.gen_bool(0.5)));
            let y = f32::from(u8::from(rng.gen_bool(0.5)));
            let label = usize::from((x > 0.5) != (y > 0.5));
            d.push(
                vec![
                    x + rng.gen_range(-0.15..0.15),
                    y + rng.gen_range(-0.15..0.15),
                ],
                label,
            );
        }
        d
    }

    #[test]
    fn learns_xor() {
        let d = xor(400, 1);
        let mut m = Mlp::new(MlpConfig {
            hidden: 16,
            epochs: 200,
            lr: 0.1,
            ..Default::default()
        });
        m.fit(&d);
        let correct = m
            .predict_all(&d.features)
            .iter()
            .zip(&d.labels)
            .filter(|(p, y)| p == y)
            .count();
        assert!(correct as f64 / 400.0 > 0.9, "{correct}/400");
    }

    #[test]
    fn proba_valid() {
        let d = xor(100, 2);
        let mut m = Mlp::new(MlpConfig::default());
        m.fit(&d);
        let p = m.predict_proba(&[1.0, 0.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn deterministic() {
        let d = xor(100, 3);
        let run = || {
            let mut m = Mlp::new(MlpConfig {
                seed: 9,
                epochs: 20,
                ..Default::default()
            });
            m.fit(&d);
            m.predict_all(&d.features)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_dataset_safe() {
        let d = Dataset::new(vec![], vec![], vec!["a".into()]);
        let mut m = Mlp::new(MlpConfig::default());
        m.fit(&d);
        let _ = m.predict(&[0.0]);
    }

    #[test]
    fn short_query_vector_safe() {
        let d = xor(50, 4);
        let mut m = Mlp::new(MlpConfig {
            epochs: 5,
            ..Default::default()
        });
        m.fit(&d);
        let _ = m.predict(&[]);
    }
}
