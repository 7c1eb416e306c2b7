//! Semantic annotation: embedding-based cosine matching of column names to
//! ontology types (§3.4, "semantic annotation method").

use std::sync::Arc;

use gittables_embed::{EmbeddingIndex, NgramEmbedder, WordMemo};
use gittables_ontology::{contains_digit, normalize_label, Ontology, TypeId};
use gittables_table::Table;

use crate::annotation::{Annotation, Method, TableAnnotations};

/// Default similarity threshold below which annotations are discarded
/// ("we discard annotations with very low similarity scores so the
/// annotations are useful out of the box", §3.4).
pub const DEFAULT_THRESHOLD: f32 = 0.45;

/// The embedding-based annotator.
#[derive(Debug, Clone)]
pub struct SemanticAnnotator {
    ontology: Arc<Ontology>,
    index: EmbeddingIndex,
    /// Label index → type id (index order equals `ontology.types()` order).
    ids: Vec<TypeId>,
    /// Minimum cosine similarity for an annotation to be kept.
    pub threshold: f32,
}

impl SemanticAnnotator {
    /// Creates an annotator with the default embedder and threshold.
    #[must_use]
    pub fn new(ontology: Arc<Ontology>) -> Self {
        Self::with_embedder(ontology, NgramEmbedder::default())
    }

    /// Creates an annotator with a custom embedder (and a word-vector memo
    /// of its own).
    #[must_use]
    pub fn with_embedder(ontology: Arc<Ontology>, embedder: NgramEmbedder) -> Self {
        Self::with_memo(ontology, Arc::new(WordMemo::new(embedder)))
    }

    /// Creates an annotator over `memo`'s embedder that shares `memo`:
    /// annotators of different ontologies embed the same column names, so
    /// handing them one memo embeds each word once for all of them.
    #[must_use]
    pub fn with_memo(ontology: Arc<Ontology>, memo: Arc<WordMemo>) -> Self {
        let labels: Vec<&str> = ontology.types().iter().map(|t| t.label.as_str()).collect();
        let ids: Vec<TypeId> = ontology.types().iter().map(|t| t.id).collect();
        let index = EmbeddingIndex::build_with_memo(memo, &labels);
        SemanticAnnotator {
            ontology,
            index,
            ids,
            threshold: DEFAULT_THRESHOLD,
        }
    }

    /// Sets the similarity threshold (builder style).
    #[must_use]
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
        self
    }

    /// The backing ontology.
    #[must_use]
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The word-vector memo behind label and column-name embeddings.
    #[must_use]
    pub fn word_memo(&self) -> &Arc<WordMemo> {
        self.index.word_memo()
    }

    /// The top-`k` candidate annotations for a column name, best first, all
    /// above the threshold. Used by the contextual re-ranker; `annotate_name`
    /// is the `k = 1` case.
    #[must_use]
    pub fn candidates_for_name(&self, column: usize, name: &str, k: usize) -> Vec<Annotation> {
        let norm = normalize_label(name);
        if norm.is_empty() || contains_digit(&norm) {
            return Vec::new();
        }
        self.index
            .nearest(&norm, k)
            .into_iter()
            .filter(|h| h.similarity >= self.threshold)
            .filter_map(|h| {
                let ty = self.ontology.get(self.ids[h.index])?;
                Some(Annotation {
                    column,
                    type_id: ty.id,
                    label: ty.label.clone(),
                    ontology: self.ontology.kind(),
                    method: Method::Semantic,
                    similarity: h.similarity,
                })
            })
            .collect()
    }

    /// Annotates a single column name: best-cosine ontology type above the
    /// threshold. Respects the digit-skipping rule.
    #[must_use]
    pub fn annotate_name(&self, column: usize, name: &str) -> Option<Annotation> {
        let norm = normalize_label(name);
        if norm.is_empty() || contains_digit(&norm) {
            return None;
        }
        let mut ann = self.annotate_norm(&norm)?;
        ann.column = column;
        Some(ann)
    }

    /// Annotates an already-normalized, digit-free, non-empty name (the
    /// annotation-cache fast path: normalization and the §3.4 skip rules run
    /// once in the caller). The returned [`Annotation::column`] is `0`.
    #[must_use]
    pub fn annotate_norm(&self, norm: &str) -> Option<Annotation> {
        let hits = self.index.nearest(norm, 1);
        let best = hits.first()?;
        if best.similarity < self.threshold {
            return None;
        }
        let ty = self.ontology.get(self.ids[best.index])?;
        Some(Annotation {
            column: 0,
            type_id: ty.id,
            label: ty.label.clone(),
            ontology: self.ontology.kind(),
            method: Method::Semantic,
            similarity: best.similarity,
        })
    }

    /// Annotates every column of `table`.
    #[must_use]
    pub fn annotate(&self, table: &Table) -> TableAnnotations {
        let annotations = table
            .columns()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| self.annotate_name(i, c.name()))
            .collect();
        TableAnnotations {
            annotations,
            num_columns: table.num_columns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_ontology::dbpedia;

    fn annotator() -> SemanticAnnotator {
        SemanticAnnotator::new(Arc::new(dbpedia()))
    }

    #[test]
    fn exact_name_gets_similarity_one() {
        let a = annotator().annotate_name(0, "species").unwrap();
        assert_eq!(a.label, "species");
        assert!((a.similarity - 1.0).abs() < 1e-5);
        assert_eq!(a.method, Method::Semantic);
    }

    #[test]
    fn near_name_matches_with_lower_similarity() {
        // "speciess" (typo) still lands on a related type via shared n-grams.
        let ann = annotator();
        if let Some(a) = ann.annotate_name(0, "speciess") {
            assert!(a.similarity < 1.0);
            assert!(a.similarity >= ann.threshold);
        }
    }

    #[test]
    fn synonym_matches_via_lexicon() {
        // "sex" has no n-gram overlap with "gender" but the lexicon links
        // them; the best match should be gender-related.
        let a = annotator().annotate_name(0, "sex");
        let label = a.map(|a| a.label);
        assert_eq!(label.as_deref(), Some("gender"));
    }

    #[test]
    fn digit_names_skipped() {
        assert!(annotator().annotate_name(0, "column7").is_none());
    }

    #[test]
    fn threshold_filters() {
        let strict = annotator().with_threshold(0.999);
        assert!(strict.annotate_name(0, "qqqq zzzz").is_none());
        assert!(strict.annotate_name(0, "country").is_some());
    }

    #[test]
    fn semantic_covers_more_than_syntactic() {
        // The paper: semantic 71 % coverage vs syntactic 26 %.
        use crate::syntactic::SyntacticAnnotator;
        let ont = Arc::new(dbpedia());
        let sem = SemanticAnnotator::new(ont.clone());
        let syn = SyntacticAnnotator::new(ont);
        let table = gittables_table::Table::from_rows(
            "t",
            &[
                "cust_name",
                "tot_price",
                "ship_city",
                "created_at",
                "nr_items",
            ],
            &[&["a", "1.0", "NY", "2020-01-01", "3"]],
        )
        .unwrap();
        let sem_cov = sem.annotate(&table).coverage();
        let syn_cov = syn.annotate(&table).coverage();
        assert!(sem_cov > syn_cov, "sem {sem_cov} vs syn {syn_cov}");
    }
}
