//! Bounded top-`k` selection under a total order — the ranking helpers
//! behind [`crate::EmbeddingIndex`], data search and schema completion:
//! [`top_k_by`] selects among collected items, [`best_k`] keeps the best
//! of a stream as it arrives.
//!
//! Every caller ranks `(entry index, score)` pairs by score with the
//! entry index as tiebreak. Because indices are distinct and ascend in
//! entry order, that order is total and its sorted prefix is exactly what
//! a *stable* sort by score alone followed by `truncate(k)` produces — so
//! the selection below can replace sort-everything without moving a
//! single result.

use std::cmp::Ordering;

/// Ascending score order that is total over all of `f64`: `partial_cmp`
/// wherever it is defined (so `-0.0` and `0.0` tie, as they do for the
/// stable sorts this replaces), and a NaN after every number (two NaNs
/// tie). Unlike `partial_cmp(..).unwrap_or(Equal)` — under which a NaN
/// "equals" both of two unequal numbers — this never hands `sort_by` an
/// inconsistent order, which it is allowed to panic on.
#[must_use]
pub fn asc_nan_last(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Descending counterpart of [`asc_nan_last`]: greatest score first, a
/// NaN still after every number.
#[must_use]
pub fn desc_nan_last(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Truncates `items` to its `k` least elements under `cmp`, sorted:
/// `select_nth_unstable_by` partitions the least `k` in O(n), then only
/// those `k` are sorted. `k == 0` clears; `k >= len` sorts everything.
///
/// `cmp` must be a total order without ties (compose a score order from
/// this module with a distinct index); the result is then identical to a
/// full sort followed by `truncate(k)`.
pub fn top_k_by<T>(items: &mut Vec<T>, k: usize, mut cmp: impl FnMut(&T, &T) -> Ordering) {
    if k == 0 {
        items.clear();
        return;
    }
    if items.len() > k {
        items.select_nth_unstable_by(k - 1, &mut cmp);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp);
}

/// `(entry, score)` under *score descending ([`desc_nan_last`]), entry
/// ascending*: the lesser is the better-ranked.
struct Ranked(usize, f64);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        desc_nan_last(self.1, other.1).then(self.0.cmp(&other.0))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The best `k` of `scored` — `(entry, score)` pairs with distinct
/// entries — under *score descending ([`desc_nan_last`]), entry
/// ascending*, best first: exactly what [`top_k_by`] keeps under that
/// order, taken as the pairs arrive instead of after collecting them.
/// A max-heap holds the best `min(k, len)` seen so far with the worst of
/// them on top; a pair enters only by beating it. O(n log k) at worst,
/// and a pair that does not beat the worst kept costs one comparison.
#[must_use]
pub fn best_k(scored: impl ExactSizeIterator<Item = (usize, f64)>, k: usize) -> Vec<(usize, f64)> {
    let keep = k.min(scored.len());
    if keep == 0 {
        return Vec::new();
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(keep);
    for (entry, score) in scored {
        let candidate = Ranked(entry, score);
        if heap.len() < keep {
            heap.push(candidate);
        } else if let Some(mut worst) = heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|Ranked(entry, score)| (entry, score))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_score_desc(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
        desc_nan_last(a.1, b.1).then(a.0.cmp(&b.0))
    }

    #[test]
    fn selection_equals_stable_sort_then_truncate() {
        // Ties (incl. -0.0 vs 0.0) must resolve in entry order.
        let scores = [0.5, 1.0, 0.5, -0.0, 0.0, 1.0, -1.0, 0.5];
        let entries: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
        let mut stable = entries.clone();
        stable.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for k in [0, 1, 3, 7, 8, 13, usize::MAX] {
            let mut picked = entries.clone();
            top_k_by(&mut picked, k, by_score_desc);
            let want = &stable[..k.min(stable.len())];
            assert_eq!(picked.len(), want.len(), "k={k}");
            for (p, w) in picked.iter().zip(want) {
                assert_eq!(p.0, w.0, "k={k}");
                assert_eq!(p.1.to_bits(), w.1.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn nan_ranks_after_every_number_in_both_directions() {
        let mut v = vec![(0, f64::NAN), (1, 2.0), (2, f64::NAN), (3, -5.0)];
        top_k_by(&mut v, 4, by_score_desc);
        assert_eq!(v.iter().map(|e| e.0).collect::<Vec<_>>(), [1, 3, 0, 2]);
        top_k_by(&mut v, 4, |a, b| asc_nan_last(a.1, b.1).then(a.0.cmp(&b.0)));
        assert_eq!(v.iter().map(|e| e.0).collect::<Vec<_>>(), [3, 1, 0, 2]);
        // Transitive where `unwrap_or(Equal)` is not: 1.0 < NaN, and
        // 2.0 < NaN, and 1.0 < 2.0 all hold together.
        assert_eq!(asc_nan_last(1.0, f64::NAN), Ordering::Less);
        assert_eq!(asc_nan_last(f64::NAN, 2.0), Ordering::Greater);
        assert_eq!(asc_nan_last(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(desc_nan_last(f64::NAN, 2.0), Ordering::Greater);
    }
}
