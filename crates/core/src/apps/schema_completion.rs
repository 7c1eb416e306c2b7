//! Schema completion — Algorithm 1 of the paper (§5.2, `NearestCompletion`).
//!
//! Given a target schema *prefix* of length `N`, find the `k` corpus schemas
//! whose first `N` attributes are closest (average positional cosine
//! distance between attribute embeddings) and return them as suggested
//! completions.

use std::cmp::Reverse;
use std::sync::OnceLock;

use gittables_corpus::{Corpus, F32Matrix};
use gittables_embed::{
    best_k, cosine, cosine_of_dot, norm, MemoStats, PackedRows, SentenceEncoder,
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
/// ([`gittables_corpus::SidecarIndexes`]). Queries score a packed copy made from
/// those rows, so both boot paths rank bit-identically.
///
/// **Memory.** The packed copy holds every attribute row, `dim × 4`
/// bytes each plus a 4-byte norm, beside the index's own rows: 1.14–1.24
/// MB at benchmark size (the 4 391–4 769 attributes of the `sql_hot`
/// corpora of seeds 1–3, `dim` 64). It is made on the first
/// [`Self::complete`] call, not where the engine is assembled, so a boot
/// or reload that answers no `/complete` never pays for it.
pub struct NearestCompletion {
    encoder: SentenceEncoder,
    /// Distinct schemas, in first-seen order.
    schemas: Vec<Schema>,
    /// `schemas.len() + 1` cumulative row offsets into `rows`.
    starts: Vec<usize>,
    /// One embedding row per schema attribute, flat.
    rows: F32Matrix,
    /// What [`Self::complete`] scores, made on its first call.
    ranking: OnceLock<Ranking>,
}

/// The attribute rows laid out for [`NearestCompletion::complete`]:
/// position-major, in one [`PackedRows`]. Run `i` holds attribute `i` of
/// every schema longer than `i`, the schemas ordered by length
/// descending, then by index. The schemas that can complete a prefix of
/// length `n` — those longer than `n` — are therefore the first
/// `runs[n + 1] - runs[n]` slots of every run `i < n`, and a prefix
/// attribute is scored against one consecutive run of packed rows.
struct Ranking {
    /// `order[j]` is the schema in slot `j` of every run.
    order: Vec<usize>,
    /// `longest + 1` cumulative run offsets into `packed`.
    runs: Vec<usize>,
    packed: PackedRows,
    /// `norm` of every packed row, in packed order.
    norms: Vec<f32>,
}

impl Ranking {
    fn new(schemas: &[Schema], starts: &[usize], rows: &F32Matrix) -> Self {
        let mut order: Vec<usize> = (0..schemas.len()).collect();
        order.sort_by_key(|&s| Reverse(schemas[s].len()));
        let longest = order.first().map_or(0, |&s| schemas[s].len());
        // The matrix row behind every packed row.
        let mut at = Vec::with_capacity(rows.rows());
        let mut runs = vec![0];
        for i in 0..longest {
            let longer = order.iter().take_while(|&&s| schemas[s].len() > i);
            at.extend(longer.map(|&s| starts[s] + i));
            runs.push(at.len());
        }
        Ranking {
            order,
            runs,
            packed: PackedRows::pack(at.len(), rows.dim(), |r| rows.row(at[r])),
            norms: at.iter().map(|&r| norm(rows.row(r))).collect(),
        }
    }

    /// How many schemas can complete a prefix of length `n`.
    fn eligible(&self, n: usize) -> usize {
        self.runs.get(n + 1).map_or(0, |end| end - self.runs[n])
    }
}

impl NearestCompletion {
    /// Builds the engine over every distinct schema in `corpus`, in
    /// corpus order. Shared by the in-process examples and the
    /// `gittables_serve` query engine, so both deduplicate and rank the
    /// exact same schemas in the exact same order.
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        let encoder = SentenceEncoder::default();
        let dim = encoder.embedder().dim;
        // A `Schema`'s one interior mutability is its rendered-body
        // cache, which its `Hash` and `Eq` ignore.
        #[allow(clippy::mutable_key_type)]
        let mut seen = std::collections::HashSet::new();
        let mut schemas = Vec::new();
        let mut starts = vec![0usize];
        let mut flat = Vec::new();
        for t in &corpus.tables {
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
            rows,
            ranking: OnceLock::new(),
        }
    }

    /// Reassembles the engine from persisted parts (the sidecar boot
    /// path): the exact schemas, row offsets, and per-attribute embedding
    /// rows a [`Self::build`] call produced, in the same order.
    /// Ranking is bit-identical because the rows are (the packed copy and
    /// its norms are made from them alike, on the first query).
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
            rows,
            ranking: OnceLock::new(),
        }
    }

    /// The distinct schemas, in first-seen order — the serialization path
    /// of the completion sidecar.
    #[must_use]
    pub fn entry_schemas(&self) -> &[Schema] {
        &self.schemas
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
    /// Corpus schemas no longer than the prefix are skipped (they cannot
    /// complete it); when none is longer, nothing is embedded. Distance is
    /// `mean_i (1 - cos(prefix[i], schema[i]))`, summed in position order.
    /// Each prefix attribute is embedded and normed once and scored
    /// against its position's run of eligible schemas by
    /// [`PackedRows::dots_into`], each dot product finished by
    /// [`cosine_of_dot`] with the row's stored norm — `cosine`'s bits.
    /// The nearest `k` are kept by [`best_k`] over the negated distances
    /// (exact), i.e. *distance ascending, schema index ascending*, and
    /// only those are materialized. The ranking is bit-identical to the
    /// original sort-everything-stably-then-truncate implementation, ties
    /// resolving in schema order. A NaN distance would rank after every
    /// number; none can arise from finite embeddings, since the cosine
    /// guards zero norms and clamps.
    #[must_use]
    pub fn complete(&self, prefix: &[&str], k: usize) -> Vec<SchemaCompletion> {
        let n = prefix.len();
        if n == 0 {
            return Vec::new();
        }
        let ranking = self
            .ranking
            .get_or_init(|| Ranking::new(&self.schemas, &self.starts, &self.rows));
        let m = ranking.eligible(n);
        if m == 0 {
            return Vec::new();
        }
        // `f64`'s `Sum` start value, as the reference's `sum` folds from.
        let mut sums = vec![std::iter::empty::<f64>().sum::<f64>(); m];
        let mut dots = Vec::with_capacity(m);
        for (i, a) in prefix.iter().enumerate() {
            let e = self.encoder.embed(a);
            let na = norm(&e);
            let run = ranking.runs[i]..ranking.runs[i] + m;
            ranking.packed.dots_into(&e, run.clone(), &mut dots);
            for ((sum, &ab), &nb) in sums.iter_mut().zip(&dots).zip(&ranking.norms[run]) {
                *sum += 1.0 - f64::from(cosine_of_dot(ab, na, nb));
            }
        }
        let scored = sums
            .iter()
            .zip(&ranking.order)
            .map(|(&sum, &idx)| (idx, -(sum / n as f64)));
        best_k(scored, k)
            .into_iter()
            .map(|(idx, neg)| {
                let s = &self.schemas[idx];
                SchemaCompletion {
                    schema: s.clone(),
                    prefix_distance: -neg,
                    completion: s.suffix(n).map(str::to_string).collect(),
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
        assert!(
            out[0].schema.iter().next().unwrap().contains("order"),
            "{out:?}"
        );
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
    fn a_prefix_no_schema_can_complete_embeds_nothing() {
        let nc = NearestCompletion::build(&corpus());
        let lookups = |nc: &NearestCompletion| {
            let stats = nc.word_memo_stats();
            stats.hits + stats.misses
        };
        // The longest schema has five attributes: a prefix of five (or
        // more) leaves no schema to complete it.
        let prefix = ["order id", "order date", "status", "total", "notes", "x"];
        for n in [5, 6] {
            let before = lookups(&nc);
            assert!(nc.complete(&prefix[..n], 10).is_empty(), "n={n}");
            assert_eq!(lookups(&nc), before, "n={n}");
        }
        // One shorter, the two five-attribute schemas can.
        let out = nc.complete(&prefix[..4], 10);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|c| c.completion.len() == 1), "{out:?}");
        assert!(nc.complete(&prefix[..4], 0).is_empty());
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
                    completion: s.suffix(n).map(str::to_string).collect(),
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
            nc.starts.clone(),
            rows.slice_rows(0, rows.rows()),
        )
    }

    #[test]
    fn a_zero_row_is_at_distance_one_on_both_assembly_paths() {
        // `!!` has no alphanumeric token and embeds to a zero row, whose
        // stored norm must keep tripping the cosine's guard: cosine 0.0,
        // distance exactly 1.0.
        let mut c = Corpus::new("z");
        for (i, s) in [["!!", "status"], ["status", "price"]].iter().enumerate() {
            let t = Table::from_rows(format!("t{i}"), s, &[["1", "2"]]).unwrap();
            c.push(AnnotatedTable::new(t));
        }
        let built = NearestCompletion::build(&c);
        assert!(built.matrix().row(0).iter().all(|&x| x == 0.0));
        for nc in [reassembled(&built), built] {
            // Ranked after the exact match: the zero row's schema.
            let out = nc.complete(&["status"], 2);
            assert_eq!(out[1].prefix_distance.to_bits(), 1.0f64.to_bits());
            assert_eq!(out[1].completion, ["status"]);
            // A prefix attribute that embeds to zero scores cosine 0.0
            // against a nonzero row and against the zero row alike.
            let out = nc.complete(&["!!"], 5);
            assert_eq!(out.len(), 2);
            for c in &out {
                assert_eq!(c.prefix_distance.to_bits(), 1.0f64.to_bits());
            }
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
