//! Cosine nearest-neighbour search over a fixed label set.
//!
//! The semantic annotator matches every column name against ~2.8 K ontology
//! type embeddings. [`EmbeddingIndex`] supports two strategies:
//!
//! * **brute force** — exact cosine against every label;
//! * **n-gram pruned** — an inverted index from character n-grams to labels
//!   limits the exact cosine computation to labels sharing at least one
//!   n-gram with the query, falling back to brute force when the candidate
//!   set is empty. `tests/index_equivalence.rs` pins its top hit to brute
//!   force's over both full ontologies.
//!
//! Pruning is lossy in principle (a label with no shared n-gram can still
//! have nonzero cosine via the synonym lexicon), so lexicon synonyms of the
//! query tokens are folded into the candidate probe.
//!
//! Label embeddings live in one contiguous row-major matrix whose rows are
//! L2-pre-normalized, so scoring a candidate is a plain dot product over a
//! flat slice — no per-row pointer chasing, no norm recomputation — and
//! the rows of one query are scored eight at a time by the order-preserving
//! kernel [`dot_rows`]. Top-k selection is a bounded
//! `select_nth_unstable_by` instead of a full sort. A query's tokens are
//! lower-cased once and shared by the candidate probe and the embedding;
//! word vectors (labels at build, query tokens at search) come from the
//! index's [`WordMemo`]; the probe's scratch (gram buffer, seen marks) is
//! per thread and reused across queries.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::lexicon;
use crate::memo::{MemoSlot, WordMemo};
use crate::ngram::{lowered, mean_of_words, GramBuf, NgramEmbedder};
use crate::rank::{desc_nan_last, top_k_by};
use crate::vector::{dot_rows, normalize};

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
    /// Word vectors of `embedder`, remembered (never serialized).
    #[serde(skip)]
    memo: MemoSlot,
}

/// Reusable per-thread scratch of the candidate probe.
#[derive(Default)]
struct ProbeScratch {
    grams: GramBuf,
    /// `seen[i] == stamp` ⇔ label `i` is already a candidate of the
    /// current probe; bumping `stamp` clears every mark at once.
    seen: Vec<u32>,
    stamp: u32,
}

impl ProbeScratch {
    /// Readies the marks for a new probe over `labels` labels.
    fn begin(&mut self, labels: usize) {
        if self.seen.len() < labels {
            self.seen.resize(labels, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
    }
}

thread_local! {
    static PROBE_SCRATCH: RefCell<ProbeScratch> = RefCell::default();
}

/// The whitespace tokens of `query`, each lower-cased once.
fn lower_tokens(query: &str) -> Vec<Cow<'_, str>> {
    query.split_whitespace().map(lowered).collect()
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
        let embedder = memo.embedder().clone();
        let labels: Vec<String> = labels.iter().map(|l| l.as_ref().to_string()).collect();
        let dim = embedder.dim;
        let mut matrix = Vec::with_capacity(labels.len() * dim);
        for label in &labels {
            let mut v = memo.embed(label);
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
            memo: MemoSlot::of(memo),
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

    /// The word-vector memo behind label and query embeddings.
    #[must_use]
    pub fn word_memo(&self) -> &Arc<WordMemo> {
        self.memo.get(&self.embedder)
    }

    /// The unit-normalized embedding of a query given as lower-cased
    /// tokens: [`NgramEmbedder::embed`] over memoized word vectors.
    fn query_vector(&self, tokens: &[Cow<'_, str>]) -> Vec<f32> {
        let memo = self.word_memo();
        let words = tokens.iter().map(|t| memo.embed_word_lower(t));
        let mut q = mean_of_words(self.dim, words);
        normalize(&mut q);
        q
    }

    /// Pre-normalized embedding row of label `i`.
    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        &self.matrix[i * self.dim..(i + 1) * self.dim]
    }

    /// Scores the (unit) query `q` against the pre-normalized rows of the
    /// labels `id_of(0), …, id_of(n - 1)` and keeps the top `k`. A row's
    /// cosine is a plain dot product; products commute, so [`dot_rows`]'s
    /// `q · row` has the bits of the per-row `row · q` it replaces.
    fn rank(&self, q: &[f32], n: usize, id_of: impl Fn(usize) -> usize, k: usize) -> Vec<Neighbor> {
        let mut hits: Vec<Neighbor> = dot_rows(q, n, |i| self.row(id_of(i)))
            .into_iter()
            .enumerate()
            .map(|(i, d)| Neighbor {
                index: id_of(i),
                similarity: d.clamp(-1.0, 1.0),
            })
            .collect();
        top_k(&mut hits, k);
        hits
    }

    /// [`Self::rank`] over every label.
    fn rank_all(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        self.rank(q, self.labels.len(), |i| i, k)
    }

    /// Exact top-`k` by brute-force cosine.
    #[must_use]
    pub fn nearest_brute(&self, query: &str, k: usize) -> Vec<Neighbor> {
        self.rank_all(&self.query_vector(&lower_tokens(query)), k)
    }

    /// Top-`k` using the inverted n-gram candidate filter; falls back to
    /// brute force when no candidates share an n-gram with the query.
    #[must_use]
    pub fn nearest_pruned(&self, query: &str, k: usize) -> Vec<Neighbor> {
        let tokens = lower_tokens(query);
        let candidates = self.candidates_of(&tokens);
        let q = self.query_vector(&tokens);
        if candidates.is_empty() {
            return self.rank_all(&q, k);
        }
        self.rank(&q, candidates.len(), |i| candidates[i], k)
    }

    /// Probes the inverted index with every n-gram of the lower-cased
    /// token `tok`, appending newly seen label indices to `out`.
    fn probe_token(&self, tok: &str, scratch: &mut ProbeScratch, out: &mut Vec<usize>) {
        let (n_min, n_max) = (self.embedder.n_min, self.embedder.n_max.min(4));
        let ProbeScratch { grams, seen, stamp } = scratch;
        grams.for_each_gram(tok, n_min, n_max, |gram| {
            if let Some(ids) = self.inverted.get(gram) {
                for &i in ids {
                    let i = i as usize;
                    if seen[i] != *stamp {
                        seen[i] = *stamp;
                        out.push(i);
                    }
                }
            }
        });
    }

    /// The candidate label indices sharing an n-gram with the query (or with
    /// a lexicon synonym of one of its tokens), deduplicated, in first-seen
    /// order: the query's tokens first, then each token's synonyms.
    #[must_use]
    pub fn candidates(&self, query: &str) -> Vec<usize> {
        self.candidates_of(&lower_tokens(query))
    }

    /// [`Self::candidates`] over already lower-cased tokens.
    fn candidates_of(&self, tokens: &[Cow<'_, str>]) -> Vec<usize> {
        PROBE_SCRATCH.with_borrow_mut(|scratch| {
            scratch.begin(self.labels.len());
            let mut out = Vec::new();
            for tok in tokens {
                self.probe_token(tok, scratch, &mut out);
            }
            for tok in tokens {
                // Lexicon entries are lower-case single tokens already.
                for syn in lexicon::synonyms_of_lower(tok) {
                    self.probe_token(syn, scratch, &mut out);
                }
            }
            out
        })
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

    /// The per-row bodies `nearest_brute` / `nearest_pruned` replaced:
    /// uncached `embed`, one `dot(row, q)` per row. (The candidate list
    /// has its own oracle in `tests/index_equivalence.rs`.)
    fn nearest_reference(
        idx: &EmbeddingIndex,
        query: &str,
        k: usize,
        pruned: bool,
    ) -> Vec<Neighbor> {
        let mut q = idx.embedder.embed(query);
        normalize(&mut q);
        let candidates = if pruned {
            idx.candidates(query)
        } else {
            Vec::new()
        };
        let ids = if candidates.is_empty() {
            (0..idx.labels.len()).collect()
        } else {
            candidates
        };
        let mut hits: Vec<Neighbor> = ids
            .into_iter()
            .map(|i| Neighbor {
                index: i,
                similarity: crate::vector::dot(&idx.matrix[i * idx.dim..(i + 1) * idx.dim], &q)
                    .clamp(-1.0, 1.0),
            })
            .collect();
        top_k(&mut hits, k);
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
    fn blocked_memoized_nearest_equals_the_per_row_reference_by_bits() {
        let labels: Vec<String> = tie_dense_names()
            .into_iter()
            .filter(|n| !n.trim().is_empty())
            .collect();
        let idx = EmbeddingIndex::build(NgramEmbedder::default(), &labels);
        for query in tie_dense_names() {
            for k in [0, 1, 3, 8, 9, labels.len(), usize::MAX] {
                for pruned in [true, false] {
                    let got = if pruned {
                        idx.nearest_pruned(&query, k)
                    } else {
                        idx.nearest_brute(&query, k)
                    };
                    let want = nearest_reference(&idx, &query, k, pruned);
                    assert_eq!(
                        hit_bits(&got),
                        hit_bits(&want),
                        "{query:?} k={k} pruned={pruned}"
                    );
                }
            }
        }
    }

    #[test]
    fn deserialized_index_answers_like_the_built_one() {
        let idx = index();
        let json = serde_json::to_string(&idx).expect("serializes");
        assert!(!json.contains("memo"), "the memo is never serialized");
        let back: EmbeddingIndex = serde_json::from_str(&json).expect("round trip");
        assert!(!Arc::ptr_eq(back.word_memo(), idx.word_memo()));
        assert_eq!(back.word_memo().embedder().seed, idx.embedder().seed);
        for query in ["birth date", "identifier", "zzxqwv"] {
            assert_eq!(
                hit_bits(&back.nearest_pruned(query, 3)),
                hit_bits(&idx.nearest_pruned(query, 3))
            );
        }
        // Clones of a built index share its memo.
        assert!(Arc::ptr_eq(idx.clone().word_memo(), idx.word_memo()));
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
