//! Data search over table schemas (§5.3, Fig. 6b): embed entire table
//! schemas and rank them against a natural-language query.

use gittables_corpus::{Corpus, F32Matrix, TableId};
use gittables_embed::{cosine_rows, desc_nan_last, norm, top_k_by, MemoStats, SentenceEncoder};
use gittables_table::Schema;
use serde::{Deserialize, Serialize};

/// One search hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Stable id of the table in the corpus (its global position).
    pub table_index: usize,
    /// The table's schema.
    pub schema: Schema,
    /// Cosine similarity between query and schema embeddings.
    pub score: f64,
}

/// A schema-embedding search index over a corpus.
///
/// Entry embeddings live in one row-major [`F32Matrix`], which is either
/// built in memory or a zero-copy view into a mapped index sidecar
/// ([`gittables_corpus::sidecar`]) — scoring reads plain `&[f32]` rows
/// either way, so both boot paths rank bit-identically.
pub struct DataSearch {
    encoder: SentenceEncoder,
    /// Stable table id per entry.
    ids: Vec<TableId>,
    /// Schema per entry, parallel to `ids`.
    schemas: Vec<Schema>,
    /// Row `n` is entry `n`'s schema embedding.
    rows: F32Matrix,
    /// `norm` of every row ([`super::row_norms`]), parallel to `ids`.
    norms: Vec<f32>,
}

impl DataSearch {
    /// Builds the index over every table in the corpus, with table ids
    /// equal to corpus positions.
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        let ids: Vec<TableId> = (0..corpus.len()).collect();
        Self::build_with_ids(corpus, &ids)
    }

    /// Builds the index over the tables at `ids`, preserving the given
    /// stable ids in [`SearchHit::table_index`]. Shared by the in-process
    /// examples and the `gittables_serve` query engine, so both rank the
    /// exact same entries in the exact same order. Ids out of range are
    /// skipped.
    #[must_use]
    pub fn build_with_ids(corpus: &Corpus, ids: &[TableId]) -> Self {
        let encoder = SentenceEncoder::default();
        let dim = encoder.embedder().dim;
        let mut kept = Vec::new();
        let mut schemas = Vec::new();
        let mut flat = Vec::new();
        for (id, t) in ids
            .iter()
            .filter_map(|&id| corpus.table_by_id(id).map(|t| (id, t)))
        {
            let schema = t.table.schema();
            let attrs: Vec<&str> = schema.iter().collect();
            flat.extend_from_slice(&encoder.embed_schema(&attrs));
            kept.push(id);
            schemas.push(schema);
        }
        let rows = F32Matrix::from_vec(flat, kept.len(), dim);
        DataSearch {
            encoder,
            ids: kept,
            schemas,
            norms: super::row_norms(&rows),
            rows,
        }
    }

    /// Reassembles an index from persisted parts (the sidecar boot path):
    /// the exact ids, schemas, and embedding rows a
    /// [`Self::build_with_ids`] call produced, in the same order. Scoring
    /// is bit-identical because the rows are (their norms are recomputed
    /// here, from the rows, as a build computes them).
    ///
    /// # Panics
    /// When `ids`, `schemas`, and `rows` are not parallel.
    #[must_use]
    pub fn from_raw_parts(ids: Vec<TableId>, schemas: Vec<Schema>, rows: F32Matrix) -> Self {
        assert_eq!(ids.len(), schemas.len(), "schema per entry");
        assert_eq!(ids.len(), rows.rows(), "embedding row per entry");
        DataSearch {
            encoder: SentenceEncoder::default(),
            ids,
            schemas,
            norms: super::row_norms(&rows),
            rows,
        }
    }

    /// The embedding dimensionality this build's default encoder
    /// produces — what a persisted matrix must match to be servable.
    #[must_use]
    pub fn encoder_dim() -> usize {
        SentenceEncoder::default().embedder().dim
    }

    /// The stable table ids, in entry order — the serialization path of
    /// the search sidecar.
    #[must_use]
    pub fn entry_ids(&self) -> &[TableId] {
        &self.ids
    }

    /// The schemas, parallel to [`Self::entry_ids`].
    #[must_use]
    pub fn entry_schemas(&self) -> &[Schema] {
        &self.schemas
    }

    /// The embedding matrix (one row per entry).
    #[must_use]
    pub fn matrix(&self) -> &F32Matrix {
        &self.rows
    }

    /// Counters of the word-vector memo behind [`Self::embed_query`] (and
    /// behind the schema embeddings, when this index was built rather
    /// than reassembled).
    #[must_use]
    pub fn word_memo_stats(&self) -> MemoStats {
        self.encoder.word_memo().stats()
    }

    /// Number of indexed tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Top-`k` tables for a natural-language `query`:
    /// [`Self::search_embedded`] over [`Self::embed_query`].
    #[must_use]
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        self.search_embedded(&self.embed_query(query), k)
    }

    /// The query half of [`Self::search`]: the embedding every entry is
    /// scored against. It depends on the encoder only, never on the
    /// entries, so one embedding serves every shard-local index of a
    /// snapshot.
    #[must_use]
    pub fn embed_query(&self, query: &str) -> Vec<f32> {
        self.encoder.embed(query)
    }

    /// The ranking half of [`Self::search`] — the hot path of the
    /// `/search` endpoint. Scores every entry against `query` (its norm
    /// computed once per call, the rows' norms once per index, when it was
    /// assembled; rows eight at a time through the order-preserving
    /// [`cosine_rows`], whose every score has `cosine_with_norm`'s bits)
    /// and keeps the best `k` under the total
    /// order *score descending, entry index ascending* by bounded
    /// selection ([`top_k_by`]); only those `k` are materialized (schemas
    /// cloned). The result is bit-identical to the original
    /// sort-everything-stably-then-truncate implementation, ties
    /// resolving in entry order.
    ///
    /// A NaN score would rank after every number ([`desc_nan_last`]); none
    /// can arise from finite embeddings, since the cosine guards zero
    /// norms and clamps.
    #[must_use]
    pub fn search_embedded(&self, query: &[f32], k: usize) -> Vec<SearchHit> {
        let (row, row_norm) = (|n| self.rows.row(n), |n| self.norms[n]);
        let mut scored: Vec<(usize, f64)> =
            cosine_rows(query, norm(query), self.ids.len(), row, row_norm)
                .into_iter()
                .map(f64::from)
                .enumerate()
                .collect();
        top_k_by(&mut scored, k, |a, b| {
            desc_nan_last(a.1, b.1).then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .map(|(n, score)| SearchHit {
                table_index: self.ids[n],
                schema: self.schemas[n].clone(),
                score,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::ranking_cases;
    use gittables_corpus::AnnotatedTable;
    use gittables_table::Table;
    use proptest::prelude::*;

    fn corpus() -> Corpus {
        let mut c = Corpus::new("t");
        let schemas: Vec<Vec<&str>> = vec![
            vec![
                "id",
                "quantity",
                "total_price",
                "status",
                "product_id",
                "order_id",
            ],
            vec!["species", "genus", "habitat", "diet"],
            vec!["player", "team", "goals", "assists"],
        ];
        for (i, s) in schemas.iter().enumerate() {
            let row: Vec<&str> = s.iter().map(|_| "1").collect();
            let rows = [row.clone(), row];
            c.push(AnnotatedTable::new(
                Table::from_rows(format!("t{i}"), s, &rows).unwrap(),
            ));
        }
        c
    }

    #[test]
    fn paper_query_retrieves_order_table() {
        // Fig. 6b: "status and sales amount per product" retrieves the
        // product-order table.
        let ds = DataSearch::build(&corpus());
        let hits = ds.search("status and sales amount per product", 1);
        assert_eq!(hits[0].table_index, 0, "{hits:?}");
    }

    #[test]
    fn biology_query_retrieves_species_table() {
        let ds = DataSearch::build(&corpus());
        let hits = ds.search("species and their habitat", 1);
        assert_eq!(hits[0].table_index, 1);
    }

    #[test]
    fn scores_sorted_and_k_respected() {
        let ds = DataSearch::build(&corpus());
        let hits = ds.search("goals per player", 2);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].score >= hits[1].score);
        assert_eq!(hits[0].table_index, 2);
    }

    #[test]
    fn empty_corpus() {
        let ds = DataSearch::build(&Corpus::new("e"));
        assert!(ds.is_empty());
        assert!(ds.search("anything", 3).is_empty());
    }

    /// The implementation `search` replaced, kept as the oracle: embed,
    /// score every entry with the plain `cosine`, sort everything stably
    /// by score, truncate.
    fn search_reference(ds: &DataSearch, query: &str, k: usize) -> Vec<SearchHit> {
        let qe = ds.encoder.embed(query);
        let mut scored: Vec<(usize, f64)> = (0..ds.ids.len())
            .map(|n| (n, f64::from(gittables_embed::cosine(&qe, ds.rows.row(n)))))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(n, score)| SearchHit {
                table_index: ds.ids[n],
                schema: ds.schemas[n].clone(),
                score,
            })
            .collect()
    }

    /// The per-row body `search_embedded` had before the blocked kernel:
    /// one `cosine_with_norm` per entry, then the same bounded selection.
    fn search_embedded_per_row(ds: &DataSearch, query: &[f32], k: usize) -> Vec<(usize, u64)> {
        let qn = norm(query);
        let mut scored: Vec<(usize, f64)> = (0..ds.ids.len())
            .map(|n| {
                let score = gittables_embed::cosine_with_norm(query, qn, ds.rows.row(n));
                (n, f64::from(score))
            })
            .collect();
        top_k_by(&mut scored, k, |a, b| {
            desc_nan_last(a.1, b.1).then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .map(|(n, score)| (ds.ids[n], score.to_bits()))
            .collect()
    }

    /// `==` on hits lets `-0.0` pass for `0.0`; the claim is bits.
    fn bits(hits: &[SearchHit]) -> Vec<(usize, u64)> {
        hits.iter()
            .map(|h| (h.table_index, h.score.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bounded_selection_is_bit_identical_to_the_stable_sort(
            schemas in ranking_cases::schemas(),
            query in ranking_cases::phrase(),
        ) {
            let ds = DataSearch::build(&ranking_cases::corpus(&schemas));
            let query = ranking_cases::words(&query).join(" ");
            let embedded = ds.embed_query(&query);
            for k in ranking_cases::ks(ds.len()) {
                let want = search_reference(&ds, &query, k);
                let got = ds.search_embedded(&embedded, k);
                prop_assert_eq!(&got, &want, "k={} query={:?}", k, query);
                prop_assert_eq!(bits(&got), bits(&want), "k={} query={:?}", k, query);
                prop_assert_eq!(
                    bits(&got),
                    search_embedded_per_row(&ds, &embedded, k),
                    "blocked != per-row, k={} query={:?}", k, query
                );
                prop_assert_eq!(ds.search(&query, k), got, "search != embed ∘ rank, k={}", k);
            }
        }

        /// The sidecar boot path: the norms `from_raw_parts` computes are
        /// the ones a build computes, and both are `cosine_with_norm`'s.
        #[test]
        fn a_reassembled_index_ranks_bit_identically_to_the_built_one(
            schemas in ranking_cases::schemas(),
            query in ranking_cases::phrase(),
        ) {
            let built = DataSearch::build(&ranking_cases::corpus(&schemas));
            let reassembled = reassembled(&built);
            let embedded = built.embed_query(&ranking_cases::words(&query).join(" "));
            for k in ranking_cases::ks(built.len()) {
                let got = bits(&reassembled.search_embedded(&embedded, k));
                prop_assert_eq!(&got, &bits(&built.search_embedded(&embedded, k)), "k={}", k);
                prop_assert_eq!(got, search_embedded_per_row(&reassembled, &embedded, k), "k={}", k);
            }
        }
    }

    /// `ds` taken apart and put together again, as the sidecar path does.
    fn reassembled(ds: &DataSearch) -> DataSearch {
        let rows = ds.matrix();
        DataSearch::from_raw_parts(
            ds.entry_ids().to_vec(),
            ds.entry_schemas().to_vec(),
            rows.slice_rows(0, rows.rows()),
        )
    }

    #[test]
    fn a_zero_row_scores_zero_on_both_assembly_paths() {
        // `—` has no alphanumeric token: its schema embeds to a zero row,
        // whose stored norm must keep tripping the cosine's guard.
        let mut c = Corpus::new("z");
        for (i, s) in [["—"], ["status"]].iter().enumerate() {
            c.push(AnnotatedTable::new(
                Table::from_rows(format!("t{i}"), s, &[["1"]]).unwrap(),
            ));
        }
        let built = DataSearch::build(&c);
        assert!(built.matrix().row(0).iter().all(|&x| x == 0.0));
        for ds in [reassembled(&built), built] {
            let hits = ds.search("status", 2);
            assert_eq!(bits(&hits)[1], (0, 0.0f64.to_bits()), "{hits:?}");
            assert!(hits[0].score > 0.9, "{hits:?}");
        }
    }
}
