//! Cross-crate integration tests of the substrates themselves: extraction
//! against the simulated host, ontology metadata completeness, and the
//! synthetic corpus' statistical contracts.

use gittables_core::extract_topic;
use gittables_core::{Pipeline, PipelineConfig};
use gittables_githost::{GitHost, RepoFile, Repository};
use gittables_ontology::{dbpedia, schema_org};
use gittables_synth::repo::RepoGenerator;
use gittables_synth::wordnet::{topic_subset, topics};

#[test]
fn pipeline_on_empty_host_yields_empty_corpus() {
    let pipeline = Pipeline::new(PipelineConfig::small(1));
    let host = GitHost::new();
    let (corpus, report) = pipeline.run(&host);
    assert!(corpus.is_empty());
    assert_eq!(report.fetched, 0);
    assert_eq!(report.parse_rate(), 0.0);
}

#[test]
fn extraction_ignores_forked_duplicates() {
    let host = GitHost::new();
    host.add_repository(Repository {
        full_name: "orig/data".into(),
        license: Some("mit".into()),
        fork: false,
        files: vec![RepoFile::new("a.csv", "id,v\n1,2\n")],
    });
    host.add_repository(Repository {
        full_name: "forker/data".into(),
        license: Some("mit".into()),
        fork: true,
        files: vec![RepoFile::new("a.csv", "id,v\n1,2\n")],
    });
    let (files, stats) = extract_topic(&host, "id");
    assert_eq!(files.len(), 1);
    assert_eq!(files[0].repository, "orig/data");
    assert_eq!(stats.initial_count, 1);
}

#[test]
fn synthetic_repos_index_and_extract_end_to_end() {
    // RepoGenerator output must be fully consumable by the host + extractor.
    let host = GitHost::new();
    let gen = RepoGenerator::new(5);
    let topic = &topic_subset(1)[0];
    let mut non_fork_files = 0usize;
    for i in 0..20 {
        let spec = gen.generate(topic, i);
        if !spec.fork {
            non_fork_files += spec.files.len();
        }
        host.add_repository(Repository {
            full_name: spec.full_name,
            license: spec.license,
            fork: spec.fork,
            files: spec
                .files
                .into_iter()
                .map(|f| RepoFile::new(f.path, f.content))
                .collect(),
        });
    }
    let (files, _) = extract_topic(&host, &topic.noun);
    // Every non-fork file is token-indexed under its own topic (the topic
    // appears in the file path) — extraction must find most of them. A few
    // garbage-rendered files may not contain the topic token in content or
    // parseable path tokens.
    assert!(
        files.len() * 10 >= non_fork_files * 9,
        "{} of {} extracted",
        files.len(),
        non_fork_files
    );
}

#[test]
fn ontology_metadata_complete() {
    // §3.4 metadata items (1)-(5): every type has a label and atomic kind;
    // compounds have superclasses that resolve; curated core has domains.
    for ont in [dbpedia(), schema_org()] {
        for ty in ont.types() {
            assert!(!ty.label.is_empty());
            assert_eq!(ty.label, gittables_ontology::normalize_label(&ty.label));
            if let Some(sup) = &ty.superclass {
                assert!(
                    ont.lookup(sup).is_some(),
                    "dangling superclass {sup:?} of {:?} in {}",
                    ty.label,
                    ont.kind()
                );
            }
        }
        // Hierarchies terminate (no cycles reachable from any type).
        for ty in ont.types().iter().step_by(97) {
            let anc = ont.ancestors(ty.id);
            assert!(anc.len() < 16);
        }
    }
}

#[test]
fn wordnet_topics_drive_distinct_content() {
    // Tables retrieved under different topics must differ in provenance and
    // (statistically) in schema vocabulary.
    let mut config = PipelineConfig::small(3);
    config.topics = topics()
        .into_iter()
        .filter(|t| t.noun == "order" || t.noun == "species")
        .collect();
    config.repos_per_topic = 10;
    let pipeline = Pipeline::new(config);
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);
    let order_tables = corpus.topic_subset("order");
    let species_tables = corpus.topic_subset("species");
    assert!(!order_tables.is_empty() && !species_tables.is_empty());
    let has_species_col = |tables: &[&gittables_corpus::AnnotatedTable]| {
        tables.iter().any(|t| {
            t.table
                .columns()
                .iter()
                .any(|c| c.name().to_lowercase().contains("species"))
        })
    };
    assert!(has_species_col(&species_tables));
    assert!(!has_species_col(&order_tables));
}

#[test]
fn pii_anonymization_end_to_end_on_people_topics() {
    // People-domain topics must produce PII columns which the pipeline
    // anonymizes (Table 3 behaviour).
    let mut config = PipelineConfig::small(9);
    config.topics = topics()
        .into_iter()
        .filter(|t| ["employee", "person", "customer"].contains(&t.noun.as_str()))
        .collect();
    config.repos_per_topic = 40;
    let pipeline = Pipeline::new(config);
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, report) = pipeline.run(&host);
    assert!(report.pii_columns > 0, "no PII columns anonymized");
    // Anonymized email columns contain the faker domain.
    let fake_emails = corpus.tables.iter().any(|t| {
        t.table
            .columns()
            .iter()
            .any(|c| c.values().any(|v| v.ends_with("@anon.example")))
    });
    assert!(fake_emails, "expected faker-generated emails in the corpus");
}
