//! Classification metrics: accuracy, per-class precision/recall/F1, macro F1.

/// Summary metrics over a prediction run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Overall accuracy.
    pub accuracy: f64,
    /// Macro-averaged F1 (the paper's Table 7 metric).
    pub macro_f1: f64,
    /// Per-class `(precision, recall, f1)`.
    pub per_class: Vec<(f64, f64, f64)>,
}

/// Accuracy of predictions against gold labels.
#[must_use]
pub fn accuracy(pred: &[usize], gold: &[usize]) -> f64 {
    if pred.is_empty() {
        return 0.0;
    }
    let correct = pred.iter().zip(gold).filter(|(p, g)| p == g).count();
    correct as f64 / pred.len() as f64
}

/// Confusion matrix `m[gold][pred]` over `k` classes.
#[must_use]
pub fn confusion_matrix(pred: &[usize], gold: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut m = vec![vec![0usize; k]; k];
    for (&p, &g) in pred.iter().zip(gold) {
        if p < k && g < k {
            m[g][p] += 1;
        }
    }
    m
}

impl Metrics {
    /// Full metric bundle.
    #[must_use]
    #[allow(clippy::needless_range_loop)]
    pub fn compute(pred: &[usize], gold: &[usize], k: usize) -> Self {
        let m = confusion_matrix(pred, gold, k);
        let mut per_class = Vec::with_capacity(k);
        let mut f1_sum = 0.0;
        let mut f1_count = 0usize;
        for c in 0..k {
            let tp = m[c][c] as f64;
            let fp: f64 = (0..k).filter(|&g| g != c).map(|g| m[g][c] as f64).sum();
            let fn_: f64 = (0..k).filter(|&p| p != c).map(|p| m[c][p] as f64).sum();
            let support = tp + fn_;
            let predicted = tp + fp;
            let precision = if predicted > 0.0 { tp / predicted } else { 0.0 };
            let recall = if support > 0.0 { tp / support } else { 0.0 };
            let f1 = if precision + recall > 0.0 {
                2.0 * precision * recall / (precision + recall)
            } else {
                0.0
            };
            per_class.push((precision, recall, f1));
            if support > 0.0 || predicted > 0.0 {
                f1_sum += f1;
                f1_count += 1;
            }
        }
        Metrics {
            accuracy: accuracy(pred, gold),
            macro_f1: if f1_count > 0 {
                f1_sum / f1_count as f64
            } else {
                0.0
            },
            per_class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let y = vec![0, 1, 2, 0, 1, 2];
        let m = Metrics::compute(&y, &y, 3);
        assert_eq!(m.accuracy, 1.0);
        assert!((m.macro_f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_simple() {
        assert_eq!(accuracy(&[0, 1, 1], &[0, 1, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn confusion_shape() {
        let m = confusion_matrix(&[0, 1, 1], &[0, 0, 1], 2);
        assert_eq!(m, vec![vec![1, 1], vec![0, 1]]);
    }

    #[test]
    fn macro_f1_penalizes_minority_errors() {
        // Class 1 never predicted: its F1 is 0, dragging the macro down even
        // though accuracy is high.
        let gold = vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let pred = vec![0; 10];
        let m = Metrics::compute(&pred, &gold, 2);
        assert!(m.accuracy > 0.89);
        assert!(m.macro_f1 < 0.6);
    }

    #[test]
    fn absent_class_ignored_in_macro() {
        // Class 2 appears in neither gold nor pred: macro over 2 classes.
        let gold = vec![0, 1, 0, 1];
        let pred = vec![0, 1, 0, 1];
        let m = Metrics::compute(&pred, &gold, 3);
        assert!((m.macro_f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_class_values() {
        let gold = vec![0, 0, 1, 1];
        let pred = vec![0, 1, 1, 1];
        let m = Metrics::compute(&pred, &gold, 2);
        let (p0, r0, _) = m.per_class[0];
        assert!((p0 - 1.0).abs() < 1e-12);
        assert!((r0 - 0.5).abs() < 1e-12);
        let (p1, r1, _) = m.per_class[1];
        assert!((p1 - 2.0 / 3.0).abs() < 1e-12);
        assert!((r1 - 1.0).abs() < 1e-12);
    }
}
