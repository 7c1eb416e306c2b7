//! End-to-end pipeline integration tests spanning all crates.

use gittables_annotate::Method;
use gittables_core::{Pipeline, PipelineConfig};
use gittables_corpus::{AnnotationStats, CorpusStats};
use gittables_githost::GitHost;
use gittables_ontology::OntologyKind;

fn build(
    seed: u64,
    topics: usize,
    repos: usize,
) -> (gittables_corpus::Corpus, gittables_core::PipelineReport) {
    let pipeline = Pipeline::new(PipelineConfig::sized(seed, topics, repos));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    pipeline.run(&host)
}

#[test]
fn parse_rate_matches_paper_regime() {
    let (_, report) = build(1, 5, 25);
    // Paper: 99.3 % of CSV files parse into tables.
    assert!(
        report.parse_rate() > 0.97,
        "parse rate {:.3}",
        report.parse_rate()
    );
}

#[test]
fn filter_rate_matches_paper_regime() {
    let (_, report) = build(2, 5, 25);
    // Paper: curation filters out ≈9 % of parsed tables (we accept 2–15 %).
    let rate = report.filter_rate();
    assert!((0.01..0.20).contains(&rate), "filter rate {rate:.3}");
}

#[test]
fn corpus_dimensions_database_like() {
    let (corpus, _) = build(3, 6, 30);
    let stats = CorpusStats::of(&corpus);
    // Web tables average ~17×4; GitTables averages 142×12. The reproduction
    // must land clearly in database-like territory.
    assert!(stats.avg_rows > 50.0, "avg rows {}", stats.avg_rows);
    assert!(stats.avg_columns > 7.0, "avg cols {}", stats.avg_columns);
}

#[test]
fn numeric_columns_dominate() {
    let (corpus, _) = build(4, 6, 30);
    let (numeric, string, other) = CorpusStats::of(&corpus).atomic_fractions;
    // Table 4: 57.9 % numeric vs 41.6 % string, 0.5 % other.
    assert!(numeric > string, "numeric {numeric} vs string {string}");
    assert!(other < 0.05, "other {other}");
}

#[test]
fn semantic_coverage_exceeds_syntactic() {
    let (corpus, _) = build(5, 5, 20);
    let syn = AnnotationStats::of(&corpus, Method::Syntactic, OntologyKind::DBpedia, 10, 5);
    let sem = AnnotationStats::of(&corpus, Method::Semantic, OntologyKind::DBpedia, 10, 5);
    // Paper: semantic annotates 71 % of columns, syntactic 26 %.
    assert!(
        sem.mean_coverage > syn.mean_coverage + 0.1,
        "semantic {:.2} vs syntactic {:.2}",
        sem.mean_coverage,
        syn.mean_coverage
    );
    assert!(sem.annotated_tables >= syn.annotated_tables);
}

#[test]
fn id_is_a_top_type() {
    // §4.2: `id` — one of the most common types in databases — must be a top
    // semantic type in GitTables (it is absent from web-table top-10s).
    let (corpus, _) = build(6, 6, 30);
    let s = AnnotationStats::of(&corpus, Method::Syntactic, OntologyKind::DBpedia, 10, 10);
    let top: Vec<&str> = s.top_types.iter().map(|(l, _)| l.as_str()).collect();
    assert!(top.contains(&"id"), "top types: {top:?}");
}

#[test]
fn provenance_links_back_to_host() {
    let pipeline = Pipeline::new(PipelineConfig::small(7));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);
    for at in corpus.tables.iter().take(20) {
        let p = at.table.provenance();
        assert!(
            host.fetch(&p.repository, &p.path).is_some(),
            "missing source file {}",
            p.url()
        );
        assert!(!p.topic.is_empty());
    }
}

#[test]
fn anonymization_preserves_dimensions() {
    let (corpus, report) = build(8, 8, 25);
    // PII replacement swaps values but never changes table shape.
    for at in &corpus.tables {
        for col in at.table.columns() {
            assert_eq!(col.len(), at.table.num_rows());
        }
    }
    assert!(report.pii_rate() < 0.05, "pii rate {}", report.pii_rate());
}

#[test]
fn topic_subsets_partition_corpus() {
    let (corpus, _) = build(9, 5, 20);
    let total: usize = corpus
        .topics()
        .iter()
        .map(|t| corpus.topic_subset(t).len())
        .sum();
    assert_eq!(total, corpus.len());
}

#[test]
fn snapshot_repos_form_union_groups() {
    // §4.1: snapshot repositories hold many same-schema tables that can be
    // recombined through unions. Force a snapshot-heavy host and verify the
    // union machinery reassembles larger tables.
    let mut config = PipelineConfig::sized(12, 4, 30);
    config.topics = gittables_synth::wordnet::topic_subset(4);
    let pipeline = Pipeline::new(config);
    let host = GitHost::new();
    // Populate with an elevated snapshot probability.
    let gen = gittables_synth::repo::RepoGenerator::with_config(
        12,
        gittables_synth::repo::RepoConfig {
            snapshot_prob: 0.3,
            ..Default::default()
        },
    );
    for topic in &pipeline.config.topics {
        for i in 0..pipeline.config.repos_per_topic {
            let spec = gen.generate(topic, i);
            host.add_repository(gittables_githost::Repository {
                full_name: spec.full_name,
                license: spec.license,
                fork: spec.fork,
                files: spec
                    .files
                    .into_iter()
                    .map(|f| gittables_githost::RepoFile::new(f.path, f.content))
                    .collect(),
            });
        }
    }
    let (corpus, _) = pipeline.run(&host);
    let groups = gittables_corpus::union_groups(&corpus, 3);
    assert!(!groups.is_empty(), "expected snapshot union groups");
    let g = &groups[0];
    let unioned = gittables_corpus::union_tables(&corpus, g).expect("union");
    let member_rows: usize = g
        .members
        .iter()
        .map(|&i| corpus.tables[i].table.num_rows())
        .sum();
    assert_eq!(unioned.num_rows(), member_rows);
    assert!(unioned.num_rows() > corpus.tables[g.members[0]].table.num_rows());
}

#[test]
fn corpus_persists_roundtrip() {
    let (corpus, _) = build(10, 3, 8);
    let dir = std::env::temp_dir().join("gittables_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("c.json");
    gittables_corpus::save_corpus(&corpus, &path).unwrap();
    let loaded = gittables_corpus::load_corpus(&path).unwrap();
    assert_eq!(corpus, loaded);
    std::fs::remove_file(&path).ok();
}
