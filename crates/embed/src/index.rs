//! Cosine nearest-neighbour search over a fixed label set.
//!
//! The semantic annotator matches every column name against ~2.8 K ontology
//! type embeddings. [`EmbeddingIndex`] supports two strategies:
//!
//! * **brute force** — exact cosine against every label;
//! * **n-gram pruned** — an inverted index from character n-grams to labels
//!   limits the exact cosine computation to labels sharing at least one
//!   n-gram with the query, falling back to brute force when the candidate
//!   set is empty. This is the candidate-pruning ablation of DESIGN.md §4.2.
//!
//! Pruning is lossy in principle (a label with no shared n-gram can still
//! have nonzero cosine via the synonym lexicon), so lexicon synonyms of the
//! query tokens are folded into the candidate probe.
//!
//! Label embeddings live in one contiguous row-major matrix whose rows are
//! L2-pre-normalized, so scoring a candidate is a plain dot product over a
//! flat slice — no per-row pointer chasing, no norm recomputation. Top-k
//! selection is a bounded `select_nth_unstable_by` instead of a full sort,
//! and the candidate probe yields borrowed `&str` grams (no per-query
//! `Vec<String>`).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::lexicon;
use crate::ngram::{GramBuf, NgramEmbedder};
use crate::rank::{desc_nan_last, top_k_by};
use crate::vector::{dot, normalize};

/// A search hit: label index and cosine similarity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Index of the label in the order passed to [`EmbeddingIndex::build`].
    pub index: usize,
    /// Cosine similarity in `[-1, 1]`.
    pub similarity: f32,
}

/// An immutable nearest-neighbour index over label embeddings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingIndex {
    embedder: NgramEmbedder,
    labels: Vec<String>,
    /// Embedding dimensionality (the matrix row stride).
    dim: usize,
    /// Row-major L2-normalized label embeddings; row `i` occupies
    /// `matrix[i * dim .. (i + 1) * dim]`.
    matrix: Vec<f32>,
    /// n-gram → indices of labels containing it.
    inverted: HashMap<String, Vec<u32>>,
}

impl EmbeddingIndex {
    /// Builds an index over `labels` using `embedder`.
    #[must_use]
    pub fn build<S: AsRef<str>>(embedder: NgramEmbedder, labels: &[S]) -> Self {
        let labels: Vec<String> = labels.iter().map(|l| l.as_ref().to_string()).collect();
        let dim = embedder.dim;
        let mut matrix = Vec::with_capacity(labels.len() * dim);
        for label in &labels {
            let mut v = embedder.embed(label);
            // `embed` returns unit (or zero) vectors already; normalizing
            // here makes the invariant local instead of an assumption.
            normalize(&mut v);
            matrix.extend_from_slice(&v);
        }
        let mut inverted: HashMap<String, Vec<u32>> = HashMap::new();
        let mut grams = GramBuf::default();
        for (i, label) in labels.iter().enumerate() {
            let lower = label.to_lowercase();
            for tok in lower.split_whitespace() {
                grams.for_each_gram(tok, embedder.n_min, embedder.n_max.min(4), |gram| {
                    match inverted.get_mut(gram) {
                        Some(ids) => {
                            if ids.last() != Some(&(i as u32)) {
                                ids.push(i as u32);
                            }
                        }
                        None => {
                            inverted.insert(gram.to_string(), vec![i as u32]);
                        }
                    }
                });
            }
        }
        EmbeddingIndex {
            embedder,
            labels,
            dim,
            matrix,
            inverted,
        }
    }

    /// Number of indexed labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The indexed labels, in insertion order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The embedder used to build the index.
    #[must_use]
    pub fn embedder(&self) -> &NgramEmbedder {
        &self.embedder
    }

    /// The unit-normalized query embedding.
    fn query_vector(&self, query: &str) -> Vec<f32> {
        let mut q = self.embedder.embed(query);
        normalize(&mut q);
        q
    }

    /// Cosine of the (unit) query against pre-normalized row `i`: a plain
    /// dot product over the flat matrix slice.
    #[inline]
    fn score(&self, i: usize, q: &[f32]) -> f32 {
        dot(&self.matrix[i * self.dim..(i + 1) * self.dim], q).clamp(-1.0, 1.0)
    }

    /// Exact top-`k` by brute-force cosine.
    #[must_use]
    pub fn nearest_brute(&self, query: &str, k: usize) -> Vec<Neighbor> {
        let q = self.query_vector(query);
        let mut hits: Vec<Neighbor> = (0..self.labels.len())
            .map(|i| Neighbor {
                index: i,
                similarity: self.score(i, &q),
            })
            .collect();
        top_k(&mut hits, k);
        hits
    }

    /// Top-`k` using the inverted n-gram candidate filter; falls back to
    /// brute force when no candidates share an n-gram with the query.
    #[must_use]
    pub fn nearest_pruned(&self, query: &str, k: usize) -> Vec<Neighbor> {
        let candidates = self.candidates(query);
        if candidates.is_empty() {
            return self.nearest_brute(query, k);
        }
        let q = self.query_vector(query);
        let mut hits: Vec<Neighbor> = candidates
            .into_iter()
            .map(|i| Neighbor {
                index: i,
                similarity: self.score(i, &q),
            })
            .collect();
        top_k(&mut hits, k);
        hits
    }

    /// Probes the inverted index with every n-gram of `text` (lowercased,
    /// per token), appending newly seen label indices to `out`.
    fn probe_text(&self, text: &str, grams: &mut GramBuf, seen: &mut [bool], out: &mut Vec<usize>) {
        let lower = text.to_lowercase();
        let (n_min, n_max) = (self.embedder.n_min, self.embedder.n_max.min(4));
        for tok in lower.split_whitespace() {
            grams.for_each_gram(tok, n_min, n_max, |gram| {
                if let Some(ids) = self.inverted.get(gram) {
                    for &i in ids {
                        let i = i as usize;
                        if !seen[i] {
                            seen[i] = true;
                            out.push(i);
                        }
                    }
                }
            });
        }
    }

    /// The candidate label indices sharing an n-gram with the query (or with
    /// a lexicon synonym of one of its tokens), deduplicated.
    #[must_use]
    pub fn candidates(&self, query: &str) -> Vec<usize> {
        let mut grams = GramBuf::default();
        let mut seen = vec![false; self.labels.len()];
        let mut out = Vec::new();
        self.probe_text(query, &mut grams, &mut seen, &mut out);
        for tok in query.split_whitespace() {
            for syn in lexicon::synonyms(tok) {
                self.probe_text(syn, &mut grams, &mut seen, &mut out);
            }
        }
        out
    }
}

/// Truncates `hits` to the top `k` by similarity (descending, index asc
/// ties) with the bounded selection of [`top_k_by`]. Similarities are
/// never NaN and the index tiebreak makes keys distinct, so the result is
/// identical to a full sort + truncate.
fn top_k(hits: &mut Vec<Neighbor>, k: usize) {
    top_k_by(hits, k, |a, b| {
        desc_nan_last(f64::from(a.similarity), f64::from(b.similarity)).then(a.index.cmp(&b.index))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> EmbeddingIndex {
        EmbeddingIndex::build(
            NgramEmbedder::default(),
            &[
                "id",
                "name",
                "birth date",
                "country",
                "price",
                "order number",
            ],
        )
    }

    #[test]
    fn exact_match_is_top() {
        let idx = index();
        let hits = idx.nearest_brute("birth date", 2);
        assert_eq!(idx.labels()[hits[0].index], "birth date");
        assert!((hits[0].similarity - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pruned_agrees_with_brute_on_exact_match() {
        let idx = index();
        let b = idx.nearest_brute("order number", 1);
        let p = idx.nearest_pruned("order number", 1);
        assert_eq!(b[0].index, p[0].index);
    }

    #[test]
    fn pruned_falls_back_when_no_candidates() {
        let idx = index();
        // Query sharing no n-gram with any label (and no synonyms).
        let hits = idx.nearest_pruned("zzxqwv", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn k_larger_than_len() {
        let idx = index();
        let hits = idx.nearest_brute("id", 100);
        assert_eq!(hits.len(), idx.len());
    }

    #[test]
    fn candidates_cover_synonyms() {
        let idx = index();
        // "identifier" shares no 3-gram with "id" itself, but the lexicon
        // links them, so "id" must appear among candidates.
        let cands = idx.candidates("identifier");
        assert!(cands.iter().any(|&i| idx.labels()[i] == "id"));
    }

    #[test]
    fn results_sorted_descending() {
        let idx = index();
        let hits = idx.nearest_brute("date of birth", 6);
        for w in hits.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn empty_index() {
        let idx = EmbeddingIndex::build(NgramEmbedder::default(), &Vec::<String>::new());
        assert!(idx.is_empty());
        assert!(idx.nearest_brute("x", 3).is_empty());
        assert!(idx.nearest_pruned("x", 3).is_empty());
    }

    #[test]
    fn bounded_top_k_equals_full_sort() {
        let idx = index();
        for query in ["id", "birth", "ordr numbr", "pricing"] {
            for k in 1..=idx.len() {
                let bounded = idx.nearest_brute(query, k);
                // Full sort: request everything, then truncate.
                let mut full = idx.nearest_brute(query, idx.len());
                full.truncate(k);
                assert_eq!(bounded, full, "query {query}, k {k}");
            }
        }
    }

    #[test]
    fn top_k_zero_clears() {
        let idx = index();
        assert!(idx.nearest_brute("id", 0).is_empty());
    }
}
