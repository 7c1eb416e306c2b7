//! The paper's §5 applications built on the corpus.

pub mod benchmark;
pub mod completion_eval;
pub mod schema_completion;
pub mod search;
pub mod search_benchmark;
pub mod type_detection;

pub use benchmark::{build_cta_benchmark, run_kg_benchmark, CtaBenchmark, KgBenchmarkRow};
pub use completion_eval::{evaluate_completion, CompletionEval};
pub use schema_completion::{NearestCompletion, SchemaCompletion};
pub use search::{DataSearch, SearchHit};
pub use search_benchmark::{default_queries, evaluate_search, mean_ndcg, BenchmarkQuery};
pub use type_detection::{build_type_dataset, train_sherlock, TypeDetectionConfig};

/// What [`DataSearch::word_memo_stats`] and
/// [`NearestCompletion::word_memo_stats`] return.
pub use gittables_embed::MemoStats;

/// Shared generators for the ranking proptests of [`search`] and
/// [`schema_completion`]: small random corpora dense in exact ties.
#[cfg(test)]
pub(crate) mod ranking_cases {
    use gittables_corpus::{AnnotatedTable, Corpus};
    use gittables_table::Table;
    use proptest::prelude::*;

    /// Attribute vocabulary. Small, so schemas repeat (exact score ties);
    /// the last two have no alphanumeric token and embed to zero vectors.
    pub const VOCAB: [&str; 8] = [
        "order id",
        "status",
        "price",
        "species",
        "habitat",
        "order date",
        "—",
        "!!",
    ];

    /// Schemas as vocabulary indices, plus picks of schemas to repeat
    /// verbatim at the end of the corpus.
    pub fn schemas() -> impl Strategy<Value = (Vec<Vec<usize>>, Vec<usize>)> {
        (
            collection::vec(collection::vec(0..VOCAB.len(), 1..5), 0..20),
            collection::vec(0usize..64, 0..6),
        )
    }

    /// A phrase of vocabulary entries (possibly none: a zero embedding,
    /// against which every entry ties).
    pub fn phrase() -> impl Strategy<Value = Vec<usize>> {
        collection::vec(0..VOCAB.len(), 0..4)
    }

    pub fn words(indices: &[usize]) -> Vec<&'static str> {
        indices.iter().map(|&i| VOCAB[i]).collect()
    }

    pub fn corpus((schemas, repeats): &(Vec<Vec<usize>>, Vec<usize>)) -> Corpus {
        let mut c = Corpus::new("ranking-cases");
        // (`get` on an empty corpus repeats nothing.)
        let repeated = repeats
            .iter()
            .filter_map(|&r| schemas.get(r % schemas.len().max(1)));
        for (i, schema) in schemas.iter().chain(repeated).enumerate() {
            let attrs = words(schema);
            let row: Vec<&str> = attrs.iter().map(|_| "v").collect();
            let t = Table::from_rows(format!("t{i}"), &attrs, &[row]).unwrap();
            c.push(AnnotatedTable::new(t));
        }
        c
    }

    /// The `k`s worth probing for a ranking over `len` entries.
    pub fn ks(len: usize) -> [usize; 6] {
        [0, 1, len.saturating_sub(1), len, len + 5, usize::MAX]
    }
}
