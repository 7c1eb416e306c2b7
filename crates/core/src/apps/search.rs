//! Data search over table schemas (§5.3, Fig. 6b): embed entire table
//! schemas and rank them against a natural-language query.
//!
//! The search is an exact scan: every entry's schema embedding is scored
//! against the query. [`DataSearch::rank`] does that in three steps over
//! one buffer with a slot per entry: the dot products of a packed copy
//! of the rows ([`PackedRows`], 32 rows per sweep of the query); the
//! same buffer finished into cosines in place, by a plain loop over
//! [`cosine_of_dot`]; and the selection of
//! the best `k` ([`best_k`]), which turns away a score below the worst
//! one kept with a single compare. Ranking yields `(entry, score)` pairs,
//! and only [`DataSearch::hit`] turns one into a [`SearchHit`], so a
//! sharded server merges the shards' pairs first and materializes just
//! the `k` that survive the merge.
//!
//! **Memory.** The packed copy is `rows × dim × 4` bytes (152 KB at 593
//! tables and `dim` 64) held beside the index's own rows, which on the
//! sidecar boot path are a mapped view of `index.gtsc`. It is made once
//! per assembled index; the shard-local indexes [`DataSearch::slice`]
//! carves out of one share it instead of packing their rows again. The
//! schemas are shared the same way: a [`Schema`] keeps its attributes
//! behind one reference count, so a hit and a slice point at the index's
//! own lists, and a hit costs no allocation of its own. Its body reuses
//! the list's serialized text, rendered the first time any hit of that
//! entry is written and kept with the list (see [`Schema`]).

use std::sync::Arc;

use gittables_corpus::{Corpus, F32Matrix, TableId};
use gittables_embed::{best_k, cosine_of_dot, norm, MemoStats, PackedRows, SentenceEncoder};
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
/// ([`gittables_corpus::SidecarIndexes`]). Scoring reads the packed copy made
/// from those rows where the index is assembled, so both boot paths rank
/// bit-identically.
pub struct DataSearch {
    encoder: SentenceEncoder,
    /// Stable table id per entry.
    ids: Vec<TableId>,
    /// Schema per entry, parallel to `ids`.
    schemas: Vec<Schema>,
    /// Row `n` is entry `n`'s schema embedding.
    rows: F32Matrix,
    /// `norm` of every row ([`row_norms`]), parallel to `ids`.
    norms: Vec<f32>,
    /// The rows as scored: entry `n` is packed row `first + n`. Shared by
    /// every index [`Self::slice`]d from the one that packed it.
    packed: Arc<PackedRows>,
    first: usize,
}

impl DataSearch {
    /// Builds the index over every table in the corpus, with table ids
    /// equal to corpus positions. Shared by the in-process examples and
    /// the `gittables_serve` query engine, so both rank the exact same
    /// entries in the exact same order.
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        let encoder = SentenceEncoder::default();
        let dim = encoder.embedder().dim;
        let mut schemas = Vec::with_capacity(corpus.len());
        let mut flat = Vec::new();
        for t in &corpus.tables {
            let schema = t.table.schema();
            let attrs: Vec<&str> = schema.iter().collect();
            flat.extend_from_slice(&encoder.embed_schema(&attrs));
            schemas.push(schema);
        }
        let rows = F32Matrix::from_vec(flat, schemas.len(), dim);
        Self::assemble(encoder, (0..schemas.len()).collect(), schemas, rows)
    }

    /// Reassembles an index from persisted parts (the sidecar boot path):
    /// the exact ids, schemas, and embedding rows a [`Self::build`] call
    /// produced, in the same order. Scoring is bit-identical because the
    /// rows are (their norms and packed copy are made here, from the
    /// rows, as a build makes them).
    ///
    /// # Panics
    /// When `ids`, `schemas`, and `rows` are not parallel.
    #[must_use]
    pub fn from_raw_parts(ids: Vec<TableId>, schemas: Vec<Schema>, rows: F32Matrix) -> Self {
        assert_eq!(ids.len(), schemas.len(), "schema per entry");
        assert_eq!(ids.len(), rows.rows(), "embedding row per entry");
        Self::assemble(SentenceEncoder::default(), ids, schemas, rows)
    }

    /// Where both constructors assemble an index: every row normed and
    /// packed, once.
    fn assemble(
        encoder: SentenceEncoder,
        ids: Vec<TableId>,
        schemas: Vec<Schema>,
        rows: F32Matrix,
    ) -> Self {
        let packed = PackedRows::pack(rows.rows(), rows.dim(), |n| rows.row(n));
        DataSearch {
            encoder,
            ids,
            schemas,
            norms: row_norms(&rows),
            rows,
            packed: Arc::new(packed),
            first: 0,
        }
    }

    /// Entries `range` as an index of their own — a shard-local index
    /// carved out of a whole-corpus one. Nothing is re-embedded, re-normed
    /// or re-packed: the entries keep their rows (a zero-copy view when the
    /// matrix is mapped), their norms, and their place in this index's
    /// packed copy, which the two indexes share; the ids and norms are
    /// copied, and the schemas are shared (each clone is a reference
    /// count). Ranked over any `query`, its entries score with the same
    /// bits as here.
    ///
    /// # Panics
    /// When `range` reaches past the entries.
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        DataSearch {
            encoder: SentenceEncoder::default(),
            ids: self.ids[range.clone()].to_vec(),
            schemas: self.schemas[range.clone()].to_vec(),
            rows: self.rows.slice_rows(range.start, range.end),
            norms: self.norms[range.clone()].to_vec(),
            packed: Arc::clone(&self.packed),
            first: self.first + range.start,
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

    /// The ranking half of [`Self::search`]: [`Self::rank`], then each
    /// survivor materialized ([`Self::hit`]).
    #[must_use]
    pub fn search_embedded(&self, query: &[f32], k: usize) -> Vec<SearchHit> {
        self.rank(query, k)
            .into_iter()
            .map(|(entry, score)| self.hit(entry, score))
            .collect()
    }

    /// The best `k` entries for an embedded `query`, as `(entry, score)`
    /// pairs in rank order — the hot path of the `/search` endpoint. The
    /// packed rows' dot products with `query` ([`PackedRows::dots_into`],
    /// each `dot`'s bits) are finished into cosines in place, with the
    /// query's norm (once per call) and the row's (once per index), by
    /// [`cosine_of_dot`] — so every score has `cosine_with_norm`'s bits —
    /// and handed, widened to `f64`, to the bounded selection [`best_k`]
    /// under *score descending, entry ascending*. The ranking is
    /// bit-identical to the original sort-everything-stably-then-truncate
    /// implementation, ties resolving in entry order.
    ///
    /// A NaN score would rank after every number; none can arise from
    /// finite embeddings, since the cosine guards zero norms and clamps.
    #[must_use]
    pub fn rank(&self, query: &[f32], k: usize) -> Vec<(usize, f64)> {
        let mut scores = Vec::with_capacity(self.ids.len());
        self.packed
            .dots_into(query, self.first..self.first + self.ids.len(), &mut scores);
        let na = norm(query);
        for (score, &nb) in scores.iter_mut().zip(&self.norms) {
            *score = cosine_of_dot(*score, na, nb);
        }
        best_k(scores.iter().map(|&score| f64::from(score)).enumerate(), k)
    }

    /// The [`SearchHit`] for a `(entry, score)` pair of [`Self::rank`],
    /// for the hits that are kept only. Its schema shares the entry's
    /// attribute list.
    ///
    /// # Panics
    /// When `entry` is not an entry of this index.
    #[must_use]
    pub fn hit(&self, entry: usize, score: f64) -> SearchHit {
        SearchHit {
            table_index: self.ids[entry],
            schema: self.schemas[entry].clone(),
            score,
        }
    }
}

/// `norm(row)` of every row of the embedding matrix, computed in the
/// two places an index is assembled — built from a corpus, reassembled
/// from a sidecar — so a query costs one dot product per row, not two.
/// The norms are [`norm`]'s own values, which is what keeps scores
/// bit-identical to the per-row [`gittables_embed::cosine_with_norm`];
/// they are never persisted, so the sidecar format does not carry them.
fn row_norms(rows: &F32Matrix) -> Vec<f32> {
    (0..rows.rows()).map(|i| norm(rows.row(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::ranking_cases;
    use gittables_corpus::AnnotatedTable;
    use gittables_embed::desc_nan_last;
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

    /// The per-row body `search_embedded` had before the packed kernel:
    /// one `cosine_with_norm` per entry, then the same bounded selection.
    fn search_embedded_per_row(ds: &DataSearch, query: &[f32], k: usize) -> Vec<(usize, u64)> {
        let qn = norm(query);
        let scored = (0..ds.ids.len()).map(|n| {
            let score = gittables_embed::cosine_with_norm(query, qn, ds.rows.row(n));
            (n, f64::from(score))
        });
        best_k(scored, k)
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
                    "packed != per-row, k={} query={:?}", k, query
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

        /// A shard-local index ranks its entries with the per-row
        /// definition's bits for any run of entries. The corpus is
        /// repeated three times, so runs cover whole 32-row sweeps and
        /// start and end inside blocks of the shared packed copy.
        #[test]
        fn a_sliced_index_ranks_its_entries_with_the_per_row_bits(
            schemas in ranking_cases::schemas(),
            query in ranking_cases::phrase(),
            cut in (any::<usize>(), any::<usize>()),
        ) {
            let mut corpus = ranking_cases::corpus(&schemas);
            let once = corpus.tables.clone();
            for t in once.iter().chain(&once) {
                corpus.push(t.clone());
            }
            let whole = DataSearch::build(&corpus);
            let (lo, hi) = (cut.0 % (whole.len() + 1), cut.1 % (whole.len() + 1));
            let slice = whole.slice(lo.min(hi)..lo.max(hi));
            prop_assert_eq!(slice.entry_ids(), &whole.entry_ids()[lo.min(hi)..lo.max(hi)]);
            let embedded = whole.embed_query(&ranking_cases::words(&query).join(" "));
            for k in ranking_cases::ks(slice.len()) {
                let got = bits(&slice.search_embedded(&embedded, k));
                prop_assert_eq!(got, search_embedded_per_row(&slice, &embedded, k), "k={}", k);
            }
        }

        /// The streamed selection against the stable sort, over scores
        /// dense in NaNs, signed zeros and exact ties, with the entries
        /// arriving in ascending or in descending order.
        #[test]
        fn streamed_selection_equals_the_stable_sort(
            picks in collection::vec(0..SCORES.len(), 0..40),
            descending in any::<bool>(),
        ) {
            let mut scored: Vec<(usize, f64)> =
                picks.iter().enumerate().map(|(n, &p)| (n, SCORES[p])).collect();
            if descending {
                scored.reverse();
            }
            let mut stable = scored.clone();
            stable.sort_by_key(|e| e.0);
            stable.sort_by(|a, b| desc_nan_last(a.1, b.1));
            let as_bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                v.iter().map(|&(n, s)| (n, s.to_bits())).collect()
            };
            for k in ranking_cases::ks(scored.len()) {
                let got = as_bits(&best_k(scored.iter().copied(), k));
                prop_assert_eq!(&got, &as_bits(&stable[..k.min(stable.len())]), "k={}", k);
            }
        }
    }

    /// Scores the selection proptest draws from.
    const SCORES: [f64; 6] = [f64::NAN, -0.0, 0.0, 0.5, 1.0, -1.0];

    /// `ds` taken apart and put together again, as the sidecar path does.
    fn reassembled(ds: &DataSearch) -> DataSearch {
        let rows = ds.matrix();
        DataSearch::from_raw_parts(
            ds.entry_ids().to_vec(),
            ds.entry_schemas().to_vec(),
            rows.slice_rows(0, rows.rows()),
        )
    }

    /// Every hit of `ds` points at its entry's schema in `ds`: a hit
    /// costs a reference count, not a copy of the attributes.
    fn assert_hits_share(ds: &DataSearch) {
        let hits = ds.search("order status of the species", usize::MAX);
        assert_eq!(hits.len(), ds.len());
        for hit in &hits {
            let entry = ds.entry_ids().iter().position(|&id| id == hit.table_index);
            let schema = &ds.entry_schemas()[entry.expect("hit is an entry")];
            assert_eq!(
                hit.schema.attributes().as_ptr(),
                schema.attributes().as_ptr()
            );
        }
    }

    #[test]
    fn hits_and_slices_share_the_index_schemas() {
        let built = DataSearch::build(&corpus());
        let again = reassembled(&built);
        let slice = built.slice(1..3);
        for ds in [&built, &again, &slice] {
            assert_hits_share(ds);
        }
        let ptrs = |ds: &DataSearch| -> Vec<*const String> {
            ds.entry_schemas()
                .iter()
                .map(|s| s.attributes().as_ptr())
                .collect()
        };
        assert_eq!(ptrs(&again), ptrs(&built));
        assert_eq!(ptrs(&slice), ptrs(&built)[1..3]);
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
