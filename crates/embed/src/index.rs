//! Exact cosine nearest-neighbour search over a fixed label set.
//!
//! The semantic annotator matches every column name against ~2.8 K
//! ontology type embeddings and keeps the best-cosine type (§3.4).
//! [`EmbeddingIndex::nearest`] is that argmax, exactly: every label is
//! scored, every query.
//!
//! The label embeddings are L2-normalized once, at build, and packed
//! into one [`PackedRows`], so a label's cosine with a (unit) query is a
//! plain dot product, and one [`PackedRows::dots_into`] sweep scores all
//! of them, 32 rows per pass over the query — each with [`dot`]'s bits
//! (the crate docs, *Scoring kernel*). [`best_k`] keeps the top `k` as the
//! scores arrive. Word vectors, of labels at build and of query tokens at
//! search, come from the index's [`WordMemo`].
//!
//! [`dot`]: crate::vector::dot

use std::sync::Arc;

use crate::memo::WordMemo;
use crate::ngram::NgramEmbedder;
use crate::rank::best_k;
use crate::vector::{normalize, PackedRows};

/// A search hit: label index and cosine similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the label in the order passed to [`EmbeddingIndex::build`].
    pub index: usize,
    /// Cosine similarity in `[-1, 1]`.
    pub similarity: f32,
}

/// An immutable nearest-neighbour index over label embeddings.
#[derive(Debug, Clone)]
pub struct EmbeddingIndex {
    labels: Vec<String>,
    /// The L2-normalized label embeddings; row `i` is label `i`'s.
    rows: PackedRows,
    /// Word vectors of the index's embedder, shared by its clones.
    memo: Arc<WordMemo>,
}

impl EmbeddingIndex {
    /// Builds an index over `labels` using `embedder`, with a word-vector
    /// memo of its own.
    #[must_use]
    pub fn build<S: AsRef<str>>(embedder: NgramEmbedder, labels: &[S]) -> Self {
        Self::build_with_memo(Arc::new(WordMemo::new(embedder)), labels)
    }

    /// Builds an index over `labels` using `memo`'s embedder and sharing
    /// `memo` — how several indexes over one embedder (the DBpedia and
    /// Schema.org annotators of a pipeline) embed each word once between
    /// them.
    #[must_use]
    pub fn build_with_memo<S: AsRef<str>>(memo: Arc<WordMemo>, labels: &[S]) -> Self {
        let labels: Vec<String> = labels.iter().map(|l| l.as_ref().to_string()).collect();
        let unit: Vec<Vec<f32>> = labels
            .iter()
            .map(|label| {
                let mut v = memo.embed(label);
                // `embed` returns unit (or zero) vectors already;
                // normalizing here makes the invariant local instead of
                // an assumption.
                normalize(&mut v);
                v
            })
            .collect();
        let rows = PackedRows::pack(unit.len(), memo.embedder().dim, |i| &unit[i]);
        EmbeddingIndex { labels, rows, memo }
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
        self.memo.embedder()
    }

    /// The word-vector memo behind label and query embeddings.
    #[must_use]
    pub fn word_memo(&self) -> &Arc<WordMemo> {
        &self.memo
    }

    /// The top `k` labels by cosine with `query`, best first, ties in
    /// label order: the query's unit embedding
    /// ([`NgramEmbedder::embed`] over memoized word vectors) dotted with
    /// every label row, clamped to `[-1, 1]`, and selected by [`best_k`]
    /// under *similarity descending, index ascending*. Bit-identical to a
    /// per-row `dot` followed by a stable sort and `truncate(k)`.
    #[must_use]
    pub fn nearest(&self, query: &str, k: usize) -> Vec<Neighbor> {
        let mut q = self.memo.embed(query);
        normalize(&mut q);
        let mut dots = Vec::with_capacity(self.labels.len());
        self.rows.dots_into(&q, 0..self.labels.len(), &mut dots);
        let scored = dots
            .iter()
            .map(|d| f64::from(d.clamp(-1.0, 1.0)))
            .enumerate();
        best_k(scored, k)
            .into_iter()
            .map(|(index, similarity)| Neighbor {
                index,
                // Widened from an `f32` above, so this is exact.
                similarity: similarity as f32,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexicon;

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

    /// The search written per row: uncached `embed` of every label and of
    /// the query, one `dot(row, q)` per label, a stable sort by similarity
    /// and `truncate(k)`.
    fn nearest_reference(labels: &[String], query: &str, k: usize) -> Vec<Neighbor> {
        let embedder = NgramEmbedder::default();
        let mut q = embedder.embed(query);
        normalize(&mut q);
        let mut hits: Vec<Neighbor> = labels
            .iter()
            .enumerate()
            .map(|(index, label)| {
                let mut row = embedder.embed(label);
                normalize(&mut row);
                Neighbor {
                    index,
                    similarity: crate::vector::dot(&row, &q).clamp(-1.0, 1.0),
                }
            })
            .collect();
        hits.sort_by(|a, b| b.similarity.partial_cmp(&a.similarity).expect("no NaN"));
        hits.truncate(k);
        hits
    }

    fn hit_bits(hits: &[Neighbor]) -> Vec<(usize, u32)> {
        hits.iter()
            .map(|h| (h.index, h.similarity.to_bits()))
            .collect()
    }

    /// Every lexicon word, plus names dense in ties: duplicates, shared
    /// prefixes, mixed case, non-ASCII, and names sharing no n-gram with
    /// anything.
    fn tie_dense_names() -> Vec<String> {
        let mut names: Vec<String> = lexicon::SYNONYM_GROUPS
            .iter()
            .flat_map(|g| g.iter().map(|w| (*w).to_string()))
            .collect();
        names.extend(
            [
                "id",
                "id",
                "ID",
                "id id",
                "order",
                "order id",
                "order ids",
                "orders",
                "ordering",
                "order order",
                "birth",
                "birth date",
                "Birth Date",
                "date of birth",
                "birthdate",
                "state",
                "STATE",
                "status state",
                "zzxqwv",
                "qqq jjj",
                "",
                "   ",
                "x",
                "İd",
                "ΟΔΟΣ ΑΣ",
                "\u{212a}ey",
                "e-mail",
                "E-Mail address",
                "price cost amount fee",
            ]
            .map(str::to_string),
        );
        names
    }

    #[test]
    fn packed_memoized_nearest_equals_the_per_row_reference_by_bits() {
        let labels: Vec<String> = tie_dense_names()
            .into_iter()
            .filter(|n| !n.trim().is_empty())
            .collect();
        let idx = EmbeddingIndex::build(NgramEmbedder::default(), &labels);
        for query in tie_dense_names() {
            for k in [0, 1, 3, 8, 9, labels.len(), usize::MAX] {
                assert_eq!(
                    hit_bits(&idx.nearest(&query, k)),
                    hit_bits(&nearest_reference(&labels, &query, k)),
                    "{query:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn exact_match_is_top() {
        let idx = index();
        let hits = idx.nearest("birth date", 2);
        assert_eq!(idx.labels()[hits[0].index], "birth date");
        assert!((hits[0].similarity - 1.0).abs() < 1e-5);
    }

    #[test]
    fn k_larger_than_len() {
        let idx = index();
        let hits = idx.nearest("id", 100);
        assert_eq!(hits.len(), idx.len());
    }

    #[test]
    fn results_sorted_descending() {
        let idx = index();
        let hits = idx.nearest("date of birth", 6);
        for w in hits.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn empty_index() {
        let idx = EmbeddingIndex::build(NgramEmbedder::default(), &Vec::<String>::new());
        assert!(idx.is_empty());
        assert!(idx.nearest("x", 3).is_empty());
    }

    #[test]
    fn bounded_top_k_equals_full_sort() {
        let idx = index();
        for query in ["id", "birth", "ordr numbr", "pricing"] {
            for k in 1..=idx.len() {
                let bounded = idx.nearest(query, k);
                // Full sort: request everything, then truncate.
                let mut full = idx.nearest(query, idx.len());
                full.truncate(k);
                assert_eq!(bounded, full, "query {query}, k {k}");
            }
        }
    }

    #[test]
    fn top_k_zero_clears() {
        let idx = index();
        assert!(idx.nearest("id", 0).is_empty());
    }

    #[test]
    fn clones_share_the_memo() {
        let idx = index();
        assert!(Arc::ptr_eq(idx.clone().word_memo(), idx.word_memo()));
    }
}
