//! The pipeline's per-name annotation cache must be a pure memoization:
//! every annotation set in the corpus must be identical to what the four
//! annotators produce when called directly on each kept table, and the
//! cache counters must reflect one miss per distinct normalized name.

use gittables_annotate::{SemanticAnnotator, SyntacticAnnotator};
use gittables_core::{Pipeline, PipelineConfig};
use gittables_githost::GitHost;

#[test]
fn cached_pipeline_annotations_match_direct_annotators() {
    let pipeline = Pipeline::new(PipelineConfig::small(33));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);
    assert!(!corpus.is_empty());

    let syn_dbp = SyntacticAnnotator::new(pipeline.dbpedia().clone());
    let syn_sch = SyntacticAnnotator::new(pipeline.schema_org().clone());
    let sem_dbp = SemanticAnnotator::new(pipeline.dbpedia().clone())
        .with_threshold(pipeline.config.semantic_threshold);
    let sem_sch = SemanticAnnotator::new(pipeline.schema_org().clone())
        .with_threshold(pipeline.config.semantic_threshold);

    for at in &corpus.tables {
        assert_eq!(at.syntactic_dbpedia, syn_dbp.annotate(&at.table));
        assert_eq!(at.syntactic_schema, syn_sch.annotate(&at.table));
        assert_eq!(at.semantic_dbpedia, sem_dbp.annotate(&at.table));
        assert_eq!(at.semantic_schema, sem_sch.annotate(&at.table));
    }
}

#[test]
fn cache_hits_dominate_and_misses_count_distinct_names() {
    use std::collections::HashSet;

    let pipeline = Pipeline::new(PipelineConfig::small(17));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);

    let stats = pipeline.annotation_cache_stats();
    // Distinct annotatable normalized names across kept tables is an upper
    // bound on misses (filtered tables may add a few more).
    let mut names: HashSet<String> = HashSet::new();
    let mut lookups = 0u64;
    for at in &corpus.tables {
        for col in at.table.columns() {
            let norm = gittables_ontology::normalize_label(col.name());
            if norm.is_empty() || gittables_ontology::contains_digit(&norm) {
                continue;
            }
            names.insert(norm);
            lookups += 1;
        }
    }
    assert!(
        stats.misses as usize >= names.len(),
        "misses {} < distinct kept-table names {}",
        stats.misses,
        names.len()
    );
    assert!(
        stats.hits + stats.misses >= lookups,
        "cache saw fewer lookups ({}) than kept-table columns ({lookups})",
        stats.hits + stats.misses
    );
    // The paper's observation: a few headers dominate — the hit rate on a
    // synth corpus must be overwhelming for the cache to be worth it.
    assert!(
        stats.hit_rate() > 0.5,
        "unexpectedly low hit rate: {:?}",
        stats
    );

    // A second run over the same host is pure hits: no new distinct names.
    let misses_before = stats.misses;
    let _ = pipeline.run(&host);
    assert_eq!(pipeline.annotation_cache_stats().misses, misses_before);
}
