//! The nearest-type search is exact: [`EmbeddingIndex::nearest`] over
//! both full ontologies equals, by label index and similarity bits, the
//! search written per row — every label embedded uncached and
//! L2-normalized, one `dot` per label, a stable sort by similarity and
//! `truncate(k)`. The queries are every label, every distinct annotatable
//! column name of a seeded pipeline run, and messy header-style names.
//! The semantic annotator keeps exactly that argmax when it clears the
//! threshold (§3.4: the best-cosine type above 0.45).

use std::collections::BTreeSet;
use std::sync::Arc;

use gittables_annotate::SemanticAnnotator;
use gittables_core::{Pipeline, PipelineConfig};
use gittables_embed::{dot, normalize, EmbeddingIndex, Neighbor, NgramEmbedder};
use gittables_githost::GitHost;
use gittables_ontology::{contains_digit, dbpedia, normalize_label, schema_org, Ontology};

/// Messy header-style queries: abbreviations, typos, snake_case survivors.
const HEADER_QUERIES: &[&str] = &[
    "cust_name",
    "tot_price",
    "ship_city",
    "created_at",
    "birth_date",
    "order numbr",
    "speciess",
    "country code",
    "emial",
    "first name",
    "lat",
    "lon",
    "postal cd",
    "phone no",
    "user id",
];

/// The historical scoring path: cosine with norms computed per call.
fn ref_cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// The search written per row over `ontology`'s labels.
struct Reference {
    embedder: NgramEmbedder,
    /// Uncached, L2-normalized label embeddings.
    rows: Vec<Vec<f32>>,
}

impl Reference {
    fn build(ontology: &Ontology) -> Self {
        let embedder = NgramEmbedder::default();
        let rows = ontology
            .types()
            .iter()
            .map(|t| {
                let mut row = embedder.embed(&t.label);
                normalize(&mut row);
                row
            })
            .collect();
        Reference { embedder, rows }
    }

    /// Every label by similarity, best first, ties in label order.
    fn ranking(&self, query: &str) -> Vec<Neighbor> {
        let mut q = self.embedder.embed(query);
        normalize(&mut q);
        let mut hits: Vec<Neighbor> = self
            .rows
            .iter()
            .enumerate()
            .map(|(index, row)| Neighbor {
                index,
                similarity: dot(row, &q).clamp(-1.0, 1.0),
            })
            .collect();
        hits.sort_by(|a, b| b.similarity.partial_cmp(&a.similarity).expect("no NaN"));
        hits
    }
}

fn bits(hits: &[Neighbor]) -> Vec<(usize, u32)> {
    hits.iter()
        .map(|h| (h.index, h.similarity.to_bits()))
        .collect()
}

/// Every distinct normalized, digit-free, non-empty column name of the
/// corpus `PipelineConfig::sized(42, 3, 6)` builds.
fn pipeline_names() -> BTreeSet<String> {
    let pipeline = Pipeline::new(PipelineConfig::sized(42, 3, 6));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);
    corpus
        .tables
        .iter()
        .flat_map(|at| at.table.columns().iter().map(|c| normalize_label(c.name())))
        .filter(|n| !n.is_empty() && !contains_digit(n))
        .collect()
}

fn assert_exact_over(ontology: &Ontology, names: &BTreeSet<String>) {
    let labels: Vec<&str> = ontology.types().iter().map(|t| t.label.as_str()).collect();
    let index = EmbeddingIndex::build(NgramEmbedder::default(), &labels);
    let reference = Reference::build(ontology);
    let queries = labels
        .iter()
        .map(|l| normalize_label(l))
        .chain(names.iter().cloned())
        .chain(HEADER_QUERIES.iter().map(|q| normalize_label(q)));
    for q in queries {
        let want = reference.ranking(&q);
        for k in [1, 3, labels.len()] {
            assert_eq!(
                bits(&index.nearest(&q, k)),
                bits(&want[..k]),
                "{:?} {q:?} k={k}",
                ontology.kind()
            );
        }
    }
}

#[test]
fn nearest_equals_the_per_row_reference_over_dbpedia() {
    assert_exact_over(&dbpedia(), &pipeline_names());
}

#[test]
fn nearest_equals_the_per_row_reference_over_schema_org() {
    assert_exact_over(&schema_org(), &pipeline_names());
}

#[test]
fn brute_dot_product_matches_reference_cosine_on_full_dbpedia() {
    // `nearest` is a brute-force dot product over every pre-normalized
    // row; checked against the rows as they were before L2
    // pre-normalization: unnormalized, with both norms computed per call.
    let ontology = dbpedia();
    let labels: Vec<&str> = ontology.types().iter().map(|t| t.label.as_str()).collect();
    let embedder = NgramEmbedder::default();
    let rows: Vec<Vec<f32>> = labels.iter().map(|l| embedder.embed(l)).collect();
    let index = EmbeddingIndex::build(embedder, &labels);
    assert_eq!(index.len(), labels.len());
    // Every 7th label as a query keeps the quadratic reference affordable
    // while sweeping the whole alphabet of type labels.
    let queries = labels
        .iter()
        .step_by(7)
        .map(|l| normalize_label(l))
        .chain(HEADER_QUERIES.iter().map(|q| normalize_label(q)));
    for q in queries {
        let qv = index.embedder().embed(&q);
        let (ref_idx, ref_sim) = rows
            .iter()
            .map(|v| ref_cosine(&qv, v))
            .enumerate()
            .fold(None, |best: Option<(usize, f32)>, (i, sim)| {
                if best.is_none_or(|(_, b)| sim > b) {
                    Some((i, sim))
                } else {
                    best
                }
            })
            .expect("non-empty");
        let got = index.nearest(&q, 1)[0];
        // Pre-normalizing rows changes low-order float bits, so a genuine
        // near-tie may legitimately flip; anything else must agree exactly.
        assert!(
            got.index == ref_idx || (got.similarity - ref_sim).abs() < 1e-5,
            "query {q:?}: top-1 {} ({}) vs reference {} ({})",
            labels[got.index],
            got.similarity,
            labels[ref_idx],
            ref_sim,
        );
        assert!(
            (got.similarity - ref_sim).abs() < 1e-4,
            "query {q:?}: similarity drifted: {} vs {}",
            got.similarity,
            ref_sim
        );
    }
}

#[test]
fn annotation_is_the_exact_argmax_above_the_threshold() {
    // "emial" shares no 3- or 4-gram with its best DBpedia label, so a
    // search restricted to gram-sharing labels left it unannotated (its
    // best candidate, "store email", scores below 0.45).
    for ontology in [dbpedia(), schema_org()] {
        let reference = Reference::build(&ontology);
        let annotator = SemanticAnnotator::new(Arc::new(ontology.clone()));
        for q in HEADER_QUERIES {
            let best = reference.ranking(&normalize_label(q))[0];
            let want = (best.similarity >= annotator.threshold)
                .then(|| (ontology.types()[best.index].label.clone(), best.similarity));
            let got = annotator
                .annotate_name(0, q)
                .map(|a| (a.label, a.similarity));
            assert_eq!(got, want, "{:?} {q:?}", ontology.kind());
        }
    }
    let emial = SemanticAnnotator::new(Arc::new(dbpedia())).annotate_name(0, "emial");
    assert_eq!(emial.map(|a| a.label).as_deref(), Some("team quantity"));
}
