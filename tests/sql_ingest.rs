//! End-to-end SQL-dump ingestion (ISSUE 9): mixed CSV + SQL corpora flow
//! through fetch → parse → annotate → store with the same determinism,
//! fault-handling, and resume guarantees as CSV-only corpora, and
//! malformed dumps are *content* failures — counted in
//! `PipelineReport::parse_failed`, never a panic or a quarantine.

use gittables_core::{FaultPolicy, Pipeline, PipelineConfig, StoreRunOptions};
use gittables_corpus::store::CorpusStore;
use gittables_githost::{FaultSpec, FlakyHost, GitHost, RepoFile, Repository};
use gittables_synth::wordnet::Topic;
use gittables_synth::Domain;

/// Laptop-scale mixed corpus: roughly half the synthesized files are SQL
/// dumps. Backoff sleeping is disabled (still accounted) to keep the
/// suite fast.
fn mixed_cfg(seed: u64) -> PipelineConfig {
    PipelineConfig {
        sql_file_prob: 0.5,
        fault: FaultPolicy {
            sleep: false,
            ..FaultPolicy::default()
        },
        ..PipelineConfig::small(seed)
    }
}

fn populated(pipeline: &Pipeline) -> GitHost {
    let host = GitHost::new();
    pipeline.populate_host(&host);
    host
}

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gt_sql_ingest_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn mixed_corpus_ingests_both_kinds() {
    let pipeline = Pipeline::new(mixed_cfg(91));
    let (corpus, report) = pipeline.run(&populated(&pipeline));
    let sql_tables = corpus
        .tables
        .iter()
        .filter(|at| at.table.provenance().path.ends_with(".sql"))
        .count();
    let csv_tables = corpus.len() - sql_tables;
    assert!(sql_tables > 0, "no tables came from SQL dumps");
    assert!(csv_tables > 0, "no tables came from CSV files");
    // Per-file invariant unchanged by multi-table dumps: parsed and
    // parse_failed count files; kept counts tables.
    assert_eq!(report.parsed + report.parse_failed, report.fetched);
    assert_eq!(report.kept, corpus.len());
    // SQL tables are named after their SQL table, not the file.
    let named = corpus
        .tables
        .iter()
        .find(|at| at.table.provenance().path.ends_with(".sql"))
        .expect("a SQL table exists");
    assert!(!named.table.name().ends_with(".sql"));
}

/// The ISSUE 9 acceptance oracle: a mixed corpus is bit-identical across
/// serial, parallel, and store-backed-resumed runs.
#[test]
fn mixed_corpus_serial_parallel_resumed_identical() {
    let on_workers = |workers: usize| {
        Pipeline::new(PipelineConfig {
            workers,
            ..mixed_cfg(93)
        })
    };
    let pipeline = on_workers(4);
    let (serial, serial_report) = on_workers(1).run(&populated(&pipeline));
    let (parallel, parallel_report) = pipeline.run(&populated(&pipeline));
    assert_eq!(serial, parallel);
    assert_eq!(serial_report, parallel_report);

    // Store-backed, interrupted after a few shards, then resumed to
    // completion: same corpus and report again.
    let dir = temp_store_dir("resume");
    let store = CorpusStore::create(&dir, pipeline.corpus_name()).unwrap();
    let host = populated(&pipeline);
    let partial = pipeline
        .run_to_store_with(
            &host,
            &store,
            &StoreRunOptions {
                max_new_shards: Some(3),
                ..StoreRunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(partial.shards_written, 3);
    let resumed = pipeline.run_to_store(&host, &store).unwrap();
    assert_eq!(resumed.corpus, serial);
    assert_eq!(resumed.report, serial_report);
    assert_eq!(resumed.shards_skipped, 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// Transient host faults (errors + truncated downloads) on a mixed corpus
/// heal by retry: the corpus is bit-identical to the fault-free run.
#[test]
fn mixed_corpus_transient_faults_heal() {
    let mut config = mixed_cfg(95);
    config.fault.repo_retry_budget = u32::MAX;
    // Convergence needs bounds the schedule cannot exhaust. Transient and
    // truncation streaks cap at `max_consecutive` (2) *independently*, so
    // one fetch can burn 2 + 2 = 4 failed attempts — give it one more.
    config.fault.max_attempts = 5;
    let pipeline = Pipeline::new(config);
    let (clean, _) = pipeline.run(&populated(&pipeline));

    let flaky = FlakyHost::new(populated(&pipeline), FaultSpec::transient(9, 0.2));
    let (healed, report) = pipeline.run(&flaky);
    let counts = flaky.counts();
    assert!(counts.transient > 0, "no faults injected: {counts:?}");
    assert!(report.retries > 0);
    assert!(
        report.quarantined_repos.is_empty() && report.quarantined_files.is_empty(),
        "repos: {:?}\nfiles: {:?}",
        report.quarantined_repos,
        report.quarantined_files
    );
    assert_eq!(healed, clean);
}

/// Malformed dumps — truncated statements, unterminated literals, binary
/// garbage — are parse failures. They must not panic a worker and must
/// not quarantine anything: quarantine is for *host* faults, parse_failed
/// for *content* faults.
#[test]
fn malformed_dumps_fail_parse_without_quarantine() {
    let host = GitHost::new();
    host.add_repository(Repository {
        full_name: "acme/dumps".into(),
        license: Some("mit".into()),
        fork: false,
        files: vec![
            RepoFile::new(
                "good.sql",
                "CREATE TABLE orders (id int, total int, region text);\n\
                 INSERT INTO orders VALUES (1,10,'east'),(2,20,'west'),(3,30,'north');\n",
            ),
            RepoFile::new(
                "truncated.sql",
                "-- orders dump\nCREATE TABLE orders (id int, total int",
            ),
            RepoFile::new(
                "unterminated.sql",
                "INSERT INTO orders VALUES (1, 'never closed\n",
            ),
            RepoFile::new(
                "garbage.sql",
                "orders \u{1}\u{2}\u{7f}\u{3}\u{4} not sql at all",
            ),
            RepoFile::new("good.csv", "orders,total\n1,10\n2,20\n"),
        ],
    });
    let mut config = mixed_cfg(97);
    config.topics = vec![Topic {
        noun: "orders".into(),
        domain: Domain::Business,
    }];
    let pipeline = Pipeline::new(config);
    let (corpus, report) = pipeline.run(&host);

    assert_eq!(report.fetched, 5);
    assert_eq!(report.parsed, 2, "good.sql and good.csv parse");
    assert_eq!(report.parse_failed, 3, "each malformed dump is one failure");
    assert!(
        report.quarantined_repos.is_empty() && report.quarantined_files.is_empty(),
        "content failures must never quarantine: {:?}",
        report.quarantined_repos
    );
    // The healthy dump's table made it through with SQL naming.
    assert!(corpus
        .tables
        .iter()
        .any(|at| at.table.name() == "orders" && at.table.provenance().path == "good.sql"));
}
