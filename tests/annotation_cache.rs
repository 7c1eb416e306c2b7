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

    // Beneath it, the word-vector memo: names are made of far fewer
    // distinct words than there are names, so words mostly hit too.
    let words = pipeline.word_memo_stats();
    assert!(
        words.entries > 0 && words.entries <= words.misses,
        "{words:?}"
    );
    assert!(words.hits > words.misses, "{words:?}");

    // A second run over the same host is pure hits: no new distinct names
    // — and a cached name embeds nothing.
    let misses_before = stats.misses;
    let _ = pipeline.run(&host);
    assert_eq!(pipeline.annotation_cache_stats().misses, misses_before);
    assert_eq!(pipeline.word_memo_stats(), words);
}

/// Each distinct name misses the annotation cache once and each distinct
/// word misses the word-vector memo once, however the workers interleave:
/// both memos end a run with the same counters at one worker and at eight.
#[test]
fn memo_counters_are_the_same_at_one_and_eight_workers() {
    let config = |workers| PipelineConfig {
        workers,
        ..PipelineConfig::small(17)
    };
    let host = GitHost::new();
    Pipeline::new(config(1)).populate_host(&host);
    let [one, eight] = [1, 8].map(|workers| {
        let pipeline = Pipeline::new(config(workers));
        let (corpus, _) = pipeline.run(&host);
        assert!(!corpus.is_empty());
        (
            pipeline.annotation_cache_stats(),
            pipeline.word_memo_stats(),
        )
    });
    assert_eq!(one, eight);
}

/// FNV-1a digest over every annotation the pipeline produces for
/// `PipelineConfig::sized(42, 3, 6)`: `(column, type_id, method,
/// similarity bits)` per annotation, tables in corpus order, the four
/// `(method, ontology)` slots in a fixed order. The constants are what
/// the exact search (`nearest_brute`) already gave on commit 77be9ad,
/// the parent of the commit that made the semantic annotator exact and
/// moved the packed label rows under it, so this oracle spans that
/// change instead of comparing the new code with itself. That change
/// moved the pin on purpose: the n-gram-pruned search it replaced gave
/// `(1785, 0x21b7_e15f_12ea_df6f)` (computed on ce1d5a7), and the twelve
/// annotations it added are semantic ones the pruning had missed.
#[test]
fn annotation_bits_equal_the_digest_pinned_at_the_parent_commit() {
    const ANNOTATIONS_AT_PARENT: usize = 1797;
    const DIGEST_AT_PARENT: u64 = 0xa8ff_ea9a_c766_1da2;

    let pipeline = Pipeline::new(PipelineConfig::sized(42, 3, 6));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);

    let mut bytes = Vec::new();
    let mut count = 0usize;
    for at in &corpus.tables {
        for slot in [
            &at.syntactic_dbpedia,
            &at.syntactic_schema,
            &at.semantic_dbpedia,
            &at.semantic_schema,
        ] {
            for a in &slot.annotations {
                bytes.extend_from_slice(&(a.column as u64).to_le_bytes());
                bytes.extend_from_slice(&u64::from(a.type_id).to_le_bytes());
                bytes.push(a.method as u8);
                bytes.extend_from_slice(&a.similarity.to_bits().to_le_bytes());
                count += 1;
            }
        }
    }
    let digest = gittables_embed::fnv1a(&bytes);
    assert_eq!(
        (count, digest),
        (ANNOTATIONS_AT_PARENT, DIGEST_AT_PARENT),
        "annotation bits moved: {count} annotations, digest {digest:#018x}"
    );
}
