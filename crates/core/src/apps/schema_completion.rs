//! Schema completion — Algorithm 1 of the paper (§5.2, `NearestCompletion`).
//!
//! Given a target schema *prefix* of length `N`, find the `k` corpus schemas
//! whose first `N` attributes are closest (average positional cosine
//! distance between attribute embeddings) and return them as suggested
//! completions.

use gittables_corpus::{Corpus, F32Matrix, TableId};
use gittables_embed::{
    asc_nan_last, cosine, cosine_rows, norm, top_k_by, MemoStats, SentenceEncoder,
};
use gittables_table::Schema;
use serde::{Deserialize, Serialize};

/// One suggested completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaCompletion {
    /// The full schema of the suggestion.
    pub schema: Schema,
    /// Average positional cosine *distance* of the prefix (lower = closer).
    pub prefix_distance: f64,
    /// The attributes after the prefix — the completion proper.
    pub completion: Vec<String>,
}

/// The NearestCompletion engine: pre-embeds corpus schema attributes.
///
/// Per-attribute embeddings live flat in one row-major [`F32Matrix`]
/// (schema `i`'s rows are `starts[i]..starts[i + 1]`), which is either
/// built in memory or a zero-copy view into a mapped index sidecar
/// ([`gittables_corpus::sidecar`]) — distances read plain `&[f32]` rows
/// either way, so both boot paths rank bit-identically.
pub struct NearestCompletion {
    encoder: SentenceEncoder,
    /// Distinct schemas, in first-seen order.
    schemas: Vec<Schema>,
    /// `schemas.len() + 1` cumulative row offsets into `rows`.
    starts: Vec<usize>,
    /// One embedding row per schema attribute, flat.
    rows: F32Matrix,
    /// `norm` of every row ([`super::row_norms`]).
    norms: Vec<f32>,
}

impl NearestCompletion {
    /// Builds the engine over every distinct schema in `corpus`.
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        Self::build_with_encoder(corpus, SentenceEncoder::default())
    }

    /// Builds with a custom encoder.
    #[must_use]
    pub fn build_with_encoder(corpus: &Corpus, encoder: SentenceEncoder) -> Self {
        let ids: Vec<TableId> = (0..corpus.len()).collect();
        Self::build_with_ids_and_encoder(corpus, &ids, encoder)
    }

    /// Builds the engine over the distinct schemas of the tables at `ids`,
    /// in id order. Shared by the in-process examples and the
    /// `gittables_serve` query engine, so both deduplicate and rank the
    /// exact same schemas in the exact same order. Ids out of range are
    /// skipped.
    #[must_use]
    pub fn build_with_ids(corpus: &Corpus, ids: &[TableId]) -> Self {
        Self::build_with_ids_and_encoder(corpus, ids, SentenceEncoder::default())
    }

    /// [`Self::build_with_ids`] with a custom encoder.
    #[must_use]
    pub fn build_with_ids_and_encoder(
        corpus: &Corpus,
        ids: &[TableId],
        encoder: SentenceEncoder,
    ) -> Self {
        let dim = encoder.embedder().dim;
        // A `Schema`'s one interior mutability is its rendered-body
        // cache, which its `Hash` and `Eq` ignore.
        #[allow(clippy::mutable_key_type)]
        let mut seen = std::collections::HashSet::new();
        let mut schemas = Vec::new();
        let mut starts = vec![0usize];
        let mut flat = Vec::new();
        for t in ids.iter().filter_map(|&id| corpus.table_by_id(id)) {
            let schema = t.table.schema();
            if schema.is_empty() || !seen.insert(schema.clone()) {
                continue;
            }
            for a in schema.iter() {
                flat.extend_from_slice(&encoder.embed(a));
            }
            starts.push(starts.last().expect("seeded") + schema.len());
            schemas.push(schema);
        }
        let total = *starts.last().expect("seeded");
        let rows = F32Matrix::from_vec(flat, total, dim);
        NearestCompletion {
            encoder,
            schemas,
            starts,
            norms: super::row_norms(&rows),
            rows,
        }
    }

    /// Reassembles the engine from persisted parts (the sidecar boot
    /// path): the exact schemas, row offsets, and per-attribute embedding
    /// rows a [`Self::build_with_ids`] call produced, in the same order.
    /// Ranking is bit-identical because the rows are (their norms are
    /// recomputed here, from the rows, as a build computes them).
    ///
    /// # Panics
    /// When `starts` is not a `schemas.len() + 1` cumulative offset list
    /// consistent with the schema lengths and `rows`.
    #[must_use]
    pub fn from_raw_parts(schemas: Vec<Schema>, starts: Vec<usize>, rows: F32Matrix) -> Self {
        assert_eq!(
            starts.len(),
            schemas.len() + 1,
            "offset per schema plus end"
        );
        for (i, s) in schemas.iter().enumerate() {
            assert_eq!(starts[i + 1] - starts[i], s.len(), "rows match schema {i}");
        }
        assert_eq!(*starts.last().expect("non-empty"), rows.rows(), "row total");
        NearestCompletion {
            encoder: SentenceEncoder::default(),
            schemas,
            starts,
            norms: super::row_norms(&rows),
            rows,
        }
    }

    /// The distinct schemas, in first-seen order — the serialization path
    /// of the completion sidecar.
    #[must_use]
    pub fn entry_schemas(&self) -> &[Schema] {
        &self.schemas
    }

    /// The cumulative row offsets (`schemas.len() + 1` entries).
    #[must_use]
    pub fn row_starts(&self) -> &[usize] {
        &self.starts
    }

    /// The flat per-attribute embedding matrix.
    #[must_use]
    pub fn matrix(&self) -> &F32Matrix {
        &self.rows
    }

    /// Counters of the word-vector memo behind the prefix embeddings of
    /// [`Self::complete`] (and behind the attribute embeddings, when this
    /// engine was built rather than reassembled).
    #[must_use]
    pub fn word_memo_stats(&self) -> MemoStats {
        self.encoder.word_memo().stats()
    }

    /// Number of indexed schemas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether no schemas are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// Algorithm 1: the `k` nearest completions for `prefix`.
    ///
    /// Corpus schemas shorter than the prefix are skipped (they cannot
    /// complete it). Distance is `mean_i (1 - cos(prefix[i], schema[i]))`.
    /// A NaN distance would rank after every number ([`asc_nan_last`]);
    /// none can arise from finite embeddings, since the cosine guards zero
    /// norms and clamps.
    #[must_use]
    pub fn complete(&self, prefix: &[&str], k: usize) -> Vec<SchemaCompletion> {
        let n = prefix.len();
        if n == 0 {
            return Vec::new();
        }
        // Schemas shorter than the prefix cannot complete it.
        let eligible: Vec<usize> = (0..self.schemas.len())
            .filter(|&idx| self.schemas[idx].len() > n)
            .collect();
        // Position by position: one prefix attribute (embedded and normed
        // once per call) against the attribute at that position of every
        // eligible schema (normed once per index, when it was assembled),
        // eight schemas at a time through the order-preserving
        // [`cosine_rows`] — each cosine has `cosine_with_norm`'s bits.
        let cos: Vec<Vec<f32>> = prefix
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let e = self.encoder.embed(a);
                let at = |s: usize| self.starts[eligible[s]] + i;
                let (row, row_norm) = (|s| self.rows.row(at(s)), |s| self.norms[at(s)]);
                cosine_rows(&e, norm(&e), eligible.len(), row, row_norm)
            })
            .collect();
        // Score everything, then keep the nearest `k` under the total
        // order *distance ascending, schema index ascending* by bounded
        // selection and materialize (clone schemas for) only those — the
        // hot path of the `/complete` endpoint. Bit-identical to the
        // original sort-everything-stably-then-truncate implementation,
        // ties resolving in schema order; a schema's distances are still
        // summed in position order.
        let mut scored: Vec<(usize, f64)> = eligible
            .iter()
            .enumerate()
            .map(|(s, &idx)| {
                let d: f64 =
                    cos.iter().map(|at_i| 1.0 - f64::from(at_i[s])).sum::<f64>() / n as f64;
                (idx, d)
            })
            .collect();
        top_k_by(&mut scored, k, |a, b| {
            asc_nan_last(a.1, b.1).then(a.0.cmp(&b.0))
        });
        scored
            .into_iter()
            .map(|(idx, d)| {
                let s = &self.schemas[idx];
                SchemaCompletion {
                    schema: s.clone(),
                    prefix_distance: d,
                    completion: s.suffix(n).to_vec(),
                }
            })
            .collect()
    }

    /// Relevance of a suggestion: cosine similarity between the embedding of
    /// the original full schema and the suggested full schema (the paper's
    /// Table 8 third column).
    #[must_use]
    pub fn relevance(&self, original: &[&str], suggestion: &Schema) -> f64 {
        let a = self.encoder.embed_schema(original);
        let attrs: Vec<&str> = suggestion.iter().collect();
        let b = self.encoder.embed_schema(&attrs);
        f64::from(cosine(&a, &b))
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
                "order id",
                "order date",
                "required date",
                "shipped date",
                "status",
            ],
            vec![
                "emp no",
                "birth date",
                "first name",
                "last name",
                "hire date",
            ],
            vec!["species", "genus", "family", "habitat"],
            vec!["order id", "customer", "total"],
        ];
        for (i, s) in schemas.iter().enumerate() {
            let row: Vec<&str> = s.iter().map(|_| "x").collect();
            let rows = [row.clone(), row];
            let t = Table::from_rows(format!("t{i}"), s, &rows).unwrap();
            c.push(AnnotatedTable::new(t));
        }
        c
    }

    #[test]
    fn nearest_completion_finds_related_schema() {
        let nc = NearestCompletion::build(&corpus());
        let out = nc.complete(&["order number", "order date"], 2);
        assert!(!out.is_empty());
        // The order schema should rank first.
        assert!(out[0].schema.attributes()[0].contains("order"), "{out:?}");
        assert!(!out[0].completion.is_empty());
    }

    #[test]
    fn exact_prefix_distance_zero() {
        let nc = NearestCompletion::build(&corpus());
        let out = nc.complete(&["order id", "order date"], 1);
        assert!(out[0].prefix_distance < 1e-5, "{}", out[0].prefix_distance);
        assert_eq!(out[0].completion[0], "required date");
    }

    #[test]
    fn shorter_schemas_skipped() {
        let nc = NearestCompletion::build(&corpus());
        let out = nc.complete(&["species", "genus", "family", "habitat"], 10);
        // The 4-attr species schema cannot complete a 4-attr prefix.
        assert!(out.iter().all(|c| c.schema.len() > 4));
    }

    #[test]
    fn k_truncates_and_sorted() {
        let nc = NearestCompletion::build(&corpus());
        let out = nc.complete(&["order id"], 2);
        assert!(out.len() <= 2);
        for w in out.windows(2) {
            assert!(w[0].prefix_distance <= w[1].prefix_distance);
        }
    }

    #[test]
    fn empty_prefix_empty_result() {
        let nc = NearestCompletion::build(&corpus());
        assert!(nc.complete(&[], 5).is_empty());
    }

    #[test]
    fn relevance_higher_for_related_schemas() {
        let nc = NearestCompletion::build(&corpus());
        let order = Schema::new(["order id", "order date", "status"]);
        let species = Schema::new(["species", "genus", "family"]);
        let target = ["order number", "order date", "order status"];
        assert!(nc.relevance(&target, &order) > nc.relevance(&target, &species));
    }

    /// The implementation `complete` replaced, kept as the oracle: plain
    /// `cosine` per row, sort everything stably by distance, truncate.
    fn complete_reference(
        nc: &NearestCompletion,
        prefix: &[&str],
        k: usize,
    ) -> Vec<SchemaCompletion> {
        let n = prefix.len();
        if n == 0 {
            return Vec::new();
        }
        let prefix_emb: Vec<Vec<f32>> = prefix.iter().map(|a| nc.encoder.embed(a)).collect();
        let mut scored: Vec<(usize, f64)> = nc
            .schemas
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len() > n)
            .map(|(idx, _)| {
                let base = nc.starts[idx];
                let d: f64 = (0..n)
                    .map(|i| 1.0 - f64::from(cosine(&prefix_emb[i], nc.rows.row(base + i))))
                    .sum::<f64>()
                    / n as f64;
                (idx, d)
            })
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(idx, d)| {
                let s = &nc.schemas[idx];
                SchemaCompletion {
                    schema: s.clone(),
                    prefix_distance: d,
                    completion: s.suffix(n).to_vec(),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bounded_selection_is_bit_identical_to_the_stable_sort(
            schemas in ranking_cases::schemas(),
            prefix in ranking_cases::phrase(),
        ) {
            let nc = NearestCompletion::build(&ranking_cases::corpus(&schemas));
            // The sidecar boot path: the norms `from_raw_parts` computes are
            // the ones a build computes, and both are `cosine`'s.
            let again = reassembled(&nc);
            let prefix = ranking_cases::words(&prefix);
            for k in ranking_cases::ks(nc.len()) {
                let want = complete_reference(&nc, &prefix, k);
                let got = nc.complete(&prefix, k);
                prop_assert_eq!(&got, &want, "k={} prefix={:?}", k, prefix);
                // `==` lets `-0.0` pass for `0.0`; the claim is bits.
                let bits = |out: &[SchemaCompletion]| -> Vec<u64> {
                    out.iter().map(|c| c.prefix_distance.to_bits()).collect()
                };
                prop_assert_eq!(bits(&got), bits(&want), "k={} prefix={:?}", k, prefix);
                let got = again.complete(&prefix, k);
                prop_assert_eq!(&got, &want, "reassembled, k={}", k);
                prop_assert_eq!(bits(&got), bits(&want), "reassembled, k={}", k);
            }
        }
    }

    /// `nc` taken apart and put together again, as the sidecar path does.
    fn reassembled(nc: &NearestCompletion) -> NearestCompletion {
        let rows = nc.matrix();
        NearestCompletion::from_raw_parts(
            nc.entry_schemas().to_vec(),
            nc.row_starts().to_vec(),
            rows.slice_rows(0, rows.rows()),
        )
    }

    #[test]
    fn a_zero_row_is_at_distance_one_on_both_assembly_paths() {
        // `!!` has no alphanumeric token and embeds to a zero row, whose
        // stored norm must keep tripping the cosine's guard: cosine 0.0,
        // distance exactly 1.0.
        let mut c = Corpus::new("z");
        let t = Table::from_rows("t", &["!!", "status"], &[["1", "2"]]).unwrap();
        c.push(AnnotatedTable::new(t));
        let built = NearestCompletion::build(&c);
        assert!(built.matrix().row(0).iter().all(|&x| x == 0.0));
        for nc in [reassembled(&built), built] {
            let out = nc.complete(&["status"], 1);
            assert_eq!(out[0].prefix_distance.to_bits(), 1.0f64.to_bits());
            assert_eq!(out[0].completion, ["status"]);
        }
    }

    #[test]
    fn duplicate_schemas_deduplicated() {
        let mut c = corpus();
        let before = NearestCompletion::build(&c).len();
        // Add a duplicate of an existing schema.
        let t = Table::from_rows(
            "dup",
            &["order id", "customer", "total"],
            &[&["1", "a", "2"], &["2", "b", "3"]],
        )
        .unwrap();
        c.push(AnnotatedTable::new(t));
        assert_eq!(NearestCompletion::build(&c).len(), before);
    }
}
