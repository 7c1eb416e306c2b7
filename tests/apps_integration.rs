//! Integration tests of the §5 applications over a pipeline-built corpus.

use gittables_annotate::{CellValueMatcher, HeaderMatcher, PatternMatcher};
use gittables_core::apps::{build_cta_benchmark, run_kg_benchmark, DataSearch, NearestCompletion};
use gittables_core::{Pipeline, PipelineConfig};
use gittables_githost::GitHost;
use gittables_ontology::OntologyKind;

fn corpus(seed: u64) -> gittables_corpus::Corpus {
    let pipeline = Pipeline::new(PipelineConfig::sized(seed, 8, 25));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    pipeline.run(&host).0
}

#[test]
fn schema_completion_returns_relevant_suggestions() {
    let c = corpus(31);
    let nc = NearestCompletion::build(&c);
    assert!(nc.len() > 10);
    // The paper's CTU "orders" prefix.
    let out = nc.complete(&["orderNumber", "orderDate", "requiredDate"], 10);
    assert!(!out.is_empty());
    // Completions sorted by prefix distance.
    for w in out.windows(2) {
        assert!(w[0].prefix_distance <= w[1].prefix_distance);
    }
    // Relevance of the best suggestion's full schema should be positive
    // (paper: ≈0.5 on [-1, 1]).
    let full = [
        "orderNumber",
        "orderDate",
        "requiredDate",
        "shippedDate",
        "status",
    ];
    let best_rel = out
        .iter()
        .map(|s| nc.relevance(&full, &s.schema))
        .fold(f64::MIN, f64::max);
    assert!(best_rel > 0.2, "best relevance {best_rel}");
}

#[test]
fn data_search_finds_topical_tables() {
    let c = corpus(32);
    let ds = DataSearch::build(&c);
    let hits = ds.search("status and sales amount per product", 5);
    assert_eq!(hits.len(), 5);
    assert!(hits[0].score > hits[4].score - 1e-9);
    // At least one of the top hits should contain a sales/order-ish
    // attribute (headers may be abbreviated by the corpus generator, so the
    // vocabulary includes the common short forms).
    let vocab = [
        "status", "stat", "price", "product", "prod", "sales", "order", "quantity", "qty",
        "amount", "amt", "total",
    ];
    let hit_ok = hits.iter().any(|h| {
        let schema = h.schema.to_string().to_lowercase();
        vocab.iter().any(|k| schema.contains(k))
    });
    assert!(
        hit_ok,
        "top schemas: {:?}",
        hits.iter()
            .map(|h| h.schema.to_string())
            .collect::<Vec<_>>()
    );
}

#[test]
fn kg_benchmark_shape_matches_fig6a() {
    let c = corpus(33);
    for ontology in [OntologyKind::DBpedia, OntologyKind::SchemaOrg] {
        let bench = build_cta_benchmark(&c, ontology, 3, 5, 1101);
        assert!(!bench.tables.is_empty());
        assert!(bench.distinct_types > 5);
        let cell = run_kg_benchmark(&bench, &CellValueMatcher::new());
        let header = run_kg_benchmark(&bench, &HeaderMatcher);
        let pattern = run_kg_benchmark(&bench, &PatternMatcher::new());
        // Fig. 6a: cell-value linking scores low on database-like tables;
        // header matching (what built the gold) scores high.
        assert!(cell.recall < 0.35, "cell recall {}", cell.recall);
        assert!(header.recall > 0.6, "header recall {}", header.recall);
        assert!(pattern.recall <= header.recall);
    }
}

#[test]
fn benchmark_respects_dimension_thresholds() {
    let c = corpus(34);
    let bench = build_cta_benchmark(&c, OntologyKind::DBpedia, 3, 5, 1101);
    for t in &bench.tables {
        assert!(t.table.num_columns() >= 3);
        assert!(t.table.num_rows() >= 5);
        assert!(!t.gold.is_empty());
    }
}
