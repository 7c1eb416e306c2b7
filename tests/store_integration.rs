//! Integration tests of the sharded corpus store: round-trip fidelity over a
//! fully annotated pipeline corpus, typed errors for every corruption mode,
//! and interrupted-run resume equivalence.

use std::path::PathBuf;

use gittables_core::{Pipeline, PipelineConfig, StoreRunOptions};
use gittables_corpus::{
    load_store, save_store, save_store_as, CorpusStore, StoreError, StoreManifest, MANIFEST_FILE,
};
use gittables_corpus::{Corpus, StoreFormat};
use gittables_githost::GitHost;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gt_store_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A store run bounded to its first `n` new shards — the "crash after
/// n shards" of the resume tests.
fn first_shards(n: usize) -> StoreRunOptions<'static> {
    StoreRunOptions {
        max_new_shards: Some(n),
        ..StoreRunOptions::default()
    }
}

fn pipeline_corpus(seed: u64) -> Corpus {
    let pipeline = Pipeline::new(PipelineConfig::sized(seed, 3, 8));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    pipeline.run(&host).0
}

/// Reads, mutates, and atomically rewrites a store's manifest.
fn tamper_manifest(dir: &std::path::Path, mutate: impl FnOnce(&mut StoreManifest)) {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).expect("manifest readable");
    let mut manifest: StoreManifest = serde_json::from_str(&text).expect("manifest parses");
    mutate(&mut manifest);
    std::fs::write(&path, serde_json::to_string(&manifest).expect("serialize")).expect("rewrite");
}

#[test]
fn round_trip_is_bit_identical_including_annotations() {
    let dir = tmp("roundtrip");
    let corpus = pipeline_corpus(31);
    assert!(!corpus.is_empty());
    save_store(&corpus, &dir, 5).expect("save");
    let loaded = load_store(&dir).expect("load");
    assert_eq!(corpus, loaded);
    // Corpus equality already covers annotations, but assert the four
    // annotation configurations explicitly so a future PartialEq change
    // cannot silently weaken this guarantee.
    let some_annotations = corpus.tables.iter().zip(&loaded.tables).all(|(a, b)| {
        Corpus::annotation_configs()
            .iter()
            .all(|&(m, o)| a.annotations(m, o) == b.annotations(m, o))
    });
    assert!(some_annotations);
    assert!(
        corpus.tables.iter().any(|t| Corpus::annotation_configs()
            .iter()
            .any(|&(m, o)| !t.annotations(m, o).annotations.is_empty())),
        "corpus should carry non-trivial annotations for the check to mean anything"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_shard_mid_line_is_typed_json_error() {
    let dir = tmp("trunc_midline");
    save_store_as(&pipeline_corpus(33), &dir, 4, StoreFormat::Jsonl).expect("save");
    let store = CorpusStore::open(&dir).expect("open");
    let entry = &store.shard_entries()[0];
    let path = dir.join(&entry.file);
    let bytes = std::fs::read(&path).expect("shard readable");
    assert!(bytes.len() > 20);
    std::fs::write(&path, &bytes[..bytes.len() - 20]).expect("truncate");
    let err = store.load_corpus().expect_err("must fail");
    assert!(
        matches!(err, StoreError::Json(_)),
        "mid-line truncation should fail JSON parsing, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_shard_at_line_boundary_is_count_mismatch() {
    let dir = tmp("trunc_line");
    save_store_as(&pipeline_corpus(33), &dir, 4, StoreFormat::Jsonl).expect("save");
    let store = CorpusStore::open(&dir).expect("open");
    let entry = store
        .shard_entries()
        .into_iter()
        .find(|e| e.tables > 1)
        .expect("a multi-table shard");
    let path = dir.join(&entry.file);
    let text = std::fs::read_to_string(&path).expect("shard readable");
    let first_line = text.lines().next().expect("non-empty shard");
    std::fs::write(&path, format!("{first_line}\n")).expect("truncate to one line");
    let err = store.load_corpus().expect_err("must fail");
    match err {
        StoreError::TableCountMismatch {
            id,
            expected,
            actual,
        } => {
            assert_eq!(id, entry.id);
            assert_eq!(expected, entry.tables);
            assert_eq!(actual, 1);
        }
        other => panic!("expected TableCountMismatch, got: {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_manifest_is_typed() {
    let dir = tmp("nomanifest");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("stray.jsonl"), "{}\n").unwrap();
    assert!(matches!(
        CorpusStore::open(&dir).expect_err("must fail"),
        StoreError::MissingManifest(_)
    ));
    assert!(matches!(
        load_store(&dir).expect_err("must fail"),
        StoreError::MissingManifest(_)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_shard_file_is_typed() {
    let dir = tmp("missing_shard");
    save_store(&pipeline_corpus(35), &dir, 6).expect("save");
    let store = CorpusStore::open(&dir).expect("open");
    let entry = &store.shard_entries()[0];
    std::fs::remove_file(dir.join(&entry.file)).expect("delete shard");
    match store.load_corpus().expect_err("must fail") {
        StoreError::MissingShard { id } => assert_eq!(id, entry.id),
        other => panic!("expected MissingShard, got: {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_count_mismatch_is_typed() {
    let dir = tmp("count");
    save_store(&pipeline_corpus(37), &dir, 6).expect("save");
    tamper_manifest(&dir, |m| m.shards[0].tables += 1);
    let err = load_store(&dir).expect_err("must fail");
    assert!(
        matches!(err, StoreError::TableCountMismatch { .. }),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_fingerprint_mismatch_is_typed() {
    let dir = tmp("fingerprint");
    save_store(&pipeline_corpus(39), &dir, 6).expect("save");
    tamper_manifest(&dir, |m| {
        m.shards[0].fingerprint = m.shards[0].fingerprint.wrapping_add(1);
    });
    let err = load_store(&dir).expect_err("must fail");
    assert!(
        matches!(err, StoreError::FingerprintMismatch { .. }),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edited_shard_content_fails_fingerprint_check() {
    let dir = tmp("edited");
    save_store_as(&pipeline_corpus(41), &dir, 6, StoreFormat::Jsonl).expect("save");
    let store = CorpusStore::open(&dir).expect("open");
    // Reorder the lines of a shard whose first and last tables differ; the
    // order-sensitive fingerprint must notice.
    let (entry, mut lines, path) = store
        .shard_entries()
        .into_iter()
        .find_map(|e| {
            let path = dir.join(&e.file);
            let text = std::fs::read_to_string(&path).ok()?;
            let lines: Vec<String> = text.lines().map(str::to_owned).collect();
            (lines.len() > 1 && lines.first() != lines.last()).then_some((e, lines, path))
        })
        .expect("a shard with two distinct tables");
    let _ = &entry;
    lines.reverse();
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("rewrite");
    let err = store.load_corpus().expect_err("must fail");
    assert!(
        matches!(err, StoreError::FingerprintMismatch { .. }),
        "reordered content must change the order-sensitive fingerprint, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Four small tables, the second with a license and an annotation.
fn swap_corpus(license: &str, label: &str, cell: &str) -> Corpus {
    use gittables_annotate::{Annotation, Method};
    use gittables_corpus::AnnotatedTable;
    use gittables_ontology::OntologyKind;
    use gittables_table::{Provenance, Table};

    let mut corpus = Corpus::new("swap");
    for i in 0..4 {
        let rows = vec![
            vec![format!("{i}"), if i == 1 { cell } else { "x" }.to_string()],
            vec![format!("{}", i + 1), "y".to_string()],
        ];
        let mut provenance = Provenance::new("owner/repo", format!("data/t{i}.csv"));
        if i == 1 {
            provenance = provenance.with_license(license);
        }
        let table = Table::from_string_rows(format!("t{i}"), &["id", "v"], rows)
            .unwrap()
            .with_provenance(provenance);
        let mut at = AnnotatedTable::new(table);
        if i == 1 {
            at.semantic_schema.num_columns = 2;
            at.semantic_schema.annotations.push(Annotation {
                column: 1,
                type_id: 7,
                label: label.to_string(),
                ontology: OntologyKind::SchemaOrg,
                method: Method::Semantic,
                similarity: 0.75,
            });
        }
        corpus.push(at);
    }
    corpus
}

/// A shard file replaced by another store's valid shard of the same id,
/// table count, names and cells — only a license or an annotation
/// differs — is refused typed by a load and by a sidecar boot's
/// `/tables/{id}`: the manifest and the sidecar directory bind every
/// byte of each block, not only its content. A swapped shard whose cells
/// differ is refused alike. No read returns the other store's table.
#[test]
fn a_shard_swapped_for_another_valid_shard_is_refused_typed() {
    use gittables_serve::{build_sidecars, QueryEngine};

    let original = swap_corpus("mit", "note", "x");
    for (what, other) in [
        ("license", swap_corpus("apache-2.0", "note", "x")),
        ("annotation", swap_corpus("mit", "text", "x")),
        ("cells", swap_corpus("mit", "note", "z")),
    ] {
        assert_ne!(original.tables[1], other.tables[1], "{what}");
        let dir = tmp(&format!("swap_{what}"));
        let donor = tmp(&format!("swap_{what}_donor"));
        save_store(&original, &dir, 2).expect("save");
        save_store(&other, &donor, 2).expect("save donor");
        build_sidecars(&dir).expect("index");
        let entry = CorpusStore::open(&dir).expect("open").shard_entries()[0].clone();
        assert_eq!(entry.tables, 2);
        std::fs::copy(donor.join(&entry.file), dir.join(&entry.file)).expect("swap");

        match load_store(&dir) {
            Err(StoreError::FingerprintMismatch { id, .. }) => assert_eq!(id, entry.id, "{what}"),
            Ok(loaded) => panic!(
                "{what}: the swapped shard loaded{}",
                if loaded == other {
                    " the donor's tables"
                } else {
                    ""
                }
            ),
            Err(err) => panic!("{what}: expected FingerprintMismatch, got {err}"),
        }

        let engine = QueryEngine::load(&dir).expect("boot");
        assert_eq!(engine.build_stats().boot_path, "sidecar", "{what}");
        let reference = QueryEngine::from_corpus(original.clone());
        for id in 0..original.len() {
            match engine.try_table_summary(id) {
                Err(StoreError::Corrupt { .. }) => assert_eq!(id, 1, "{what}: table {id}"),
                Ok(summary) => assert_eq!(
                    summary,
                    reference.table_summary(id),
                    "{what}: table {id} served another table"
                ),
                Err(err) => panic!("{what}: table {id}: expected Corrupt, got {err}"),
            }
        }
        assert!(engine.try_table_summary(1).is_err(), "{what}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&donor).ok();
    }
}

#[test]
fn interrupted_then_resumed_equals_uninterrupted() {
    let pipeline = Pipeline::new(PipelineConfig::sized(43, 3, 7));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (full_corpus, full_report) = pipeline.run(&host);

    let dir = tmp("resume");
    let store = CorpusStore::create(&dir, pipeline.corpus_name()).expect("create");
    // "Crash" after k = 3 repository shards.
    let partial = pipeline
        .run_to_store_with(&host, &store, &first_shards(3))
        .expect("bounded run");
    assert_eq!(partial.shards_written, 3);
    assert!(partial.corpus.len() < full_corpus.len());

    // Reopen (as a fresh process would) and resume to completion.
    let reopened = CorpusStore::open(&dir).expect("reopen");
    let resumed = pipeline.run_to_store(&host, &reopened).expect("resume");
    assert_eq!(resumed.shards_skipped, 3);
    assert_eq!(resumed.corpus, full_corpus);
    assert_eq!(resumed.report, full_report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fresh_repositories_append_to_existing_store() {
    // Build with 5 repos per topic, then grow the config to 7: the resume
    // run keeps every old shard and only processes the new repositories.
    let seed = 45;
    let small = Pipeline::new(PipelineConfig::sized(seed, 3, 5));
    let host_small = GitHost::new();
    small.populate_host(&host_small);

    let dir = tmp("append");
    let store = CorpusStore::create(&dir, small.corpus_name()).expect("create");
    let first = small.run_to_store(&host_small, &store).expect("first run");
    assert!(first.shards_written > 0);

    let grown = Pipeline::new(PipelineConfig::sized(seed, 3, 7));
    let host_grown = GitHost::new();
    grown.populate_host(&host_grown);
    let appended = grown.run_to_store(&host_grown, &store).expect("append run");
    assert_eq!(appended.shards_skipped, first.shards_written);
    assert!(appended.shards_written > 0, "new repositories must appear");

    let (reference, reference_report) = grown.run(&host_grown);
    assert_eq!(appended.corpus, reference);
    assert_eq!(appended.report, reference_report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_into_store_of_different_seed_is_rejected() {
    let first = Pipeline::new(PipelineConfig::sized(51, 2, 3));
    let host = GitHost::new();
    first.populate_host(&host);
    let dir = tmp("wrong_seed");
    let store = CorpusStore::create(&dir, first.corpus_name()).expect("create");
    first.run_to_store(&host, &store).expect("first run");

    let other = Pipeline::new(PipelineConfig::sized(52, 2, 3));
    let other_host = GitHost::new();
    other.populate_host(&other_host);
    let err = other
        .run_to_store(&other_host, &store)
        .expect_err("must refuse to mix corpora");
    assert!(
        matches!(err, StoreError::CorpusNameMismatch { .. }),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_run_report_partitions_fetched() {
    // A partial (bounded) run's report must still satisfy the stage
    // invariant `parsed + parse_failed == fetched`.
    let pipeline = Pipeline::new(PipelineConfig::sized(53, 3, 6));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let dir = tmp("bounded_report");
    let store = CorpusStore::create(&dir, pipeline.corpus_name()).expect("create");
    let partial = pipeline
        .run_to_store_with(&host, &store, &first_shards(2))
        .expect("bounded");
    assert_eq!(
        partial.report.parsed + partial.report.parse_failed,
        partial.report.fetched,
        "partial report must partition its fetched files"
    );
    assert!(partial.report.fetched > 0);
    let full = pipeline.run_to_store(&host, &store).expect("resume");
    assert_eq!(
        full.report.parsed + full.report.parse_failed,
        full.report.fetched
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds, finishes, and commits one single-table shard.
fn commit_one(
    store: &CorpusStore,
    corpus: &Corpus,
    id: &str,
    index: usize,
) -> Result<(), StoreError> {
    let mut writer = store.begin_shard(id)?;
    writer.push(index, &corpus.tables[index])?;
    let entry = writer.finish()?;
    store.commit_shard(entry)
}

/// Failpoint matrix over the store's durability path: an injected I/O
/// failure at any site (shard fsync; manifest write, torn write, fsync,
/// rename; directory fsync) surfaces as a typed [`StoreError::Io`] and
/// never leaves a silently-wrong manifest — on reopen the store is either
/// entirely pre-commit or entirely post-commit, and the failed commit can
/// be retried to success.
#[test]
fn injected_write_failures_are_typed_and_never_tear_the_manifest() {
    failpoint_matrix(StoreFormat::Jsonl, "fp");
}

/// The same matrix over the production shard format, whose segment
/// writer hits `store::shard_fsync` in `colv1::SegmentWriter::finish`.
#[test]
fn injected_write_failures_in_colv1_stores_never_tear_the_manifest() {
    failpoint_matrix(StoreFormat::ColV1, "fp_colv1");
}

/// Runs the failpoint matrix on stores of `format`, in directories
/// named after `tag`.
fn failpoint_matrix(format: StoreFormat, tag: &str) {
    use gittables_corpus::{clear_failpoint, configure_failpoint, FailMode};

    let corpus = pipeline_corpus(61);
    assert!(corpus.len() >= 2);

    for (i, site) in [
        "store::shard_fsync",
        "store::manifest_write",
        "store::manifest_fsync",
        "store::manifest_rename",
        "store::dir_fsync",
    ]
    .iter()
    .enumerate()
    {
        let dir = tmp(&format!("{tag}_err_{i}"));
        let store = CorpusStore::create_with_format(&dir, "fp", format).expect("create");
        configure_failpoint(site, FailMode::Err, 1, dir.to_str());

        let err = commit_one(&store, &corpus, "s0", 0).expect_err(site);
        assert!(matches!(err, StoreError::Io(_)), "{site}: {err}");
        clear_failpoint(site);

        // Reopen as a fresh process would: the on-disk manifest is a
        // complete pre-commit or post-commit state, never torn. Only the
        // dir-fsync site fails *after* the rename (the new manifest is in
        // place, merely of uncertain durability); every earlier site
        // leaves the previous manifest.
        let reopened = CorpusStore::open(&dir).expect("reopen after injected failure");
        assert_eq!(reopened.format(), format, "{site}");
        let committed = reopened.shard_entries().len();
        match *site {
            "store::dir_fsync" => assert_eq!(committed, 1, "{site}"),
            _ => assert_eq!(committed, 0, "{site}"),
        }
        if committed == 0 {
            commit_one(&reopened, &corpus, "s0", 0).expect("retry succeeds once disarmed");
        }
        let healed = CorpusStore::open(&dir).expect("final open");
        assert_eq!(healed.load_corpus().expect("loadable").len(), 1, "{site}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // Torn manifest write (ENOSPC mid-write): half the bytes land in the
    // temp file, which is garbage — but it was never renamed, so the live
    // manifest still holds exactly the previously committed shard.
    let dir = tmp(&format!("{tag}_short"));
    let store = CorpusStore::create_with_format(&dir, "fp", format).expect("create");
    commit_one(&store, &corpus, "s0", 0).expect("first commit");
    configure_failpoint("store::manifest_write", FailMode::Short, 1, dir.to_str());
    let err = commit_one(&store, &corpus, "s1", 1).expect_err("torn write");
    assert!(matches!(err, StoreError::Io(_)), "got: {err}");
    clear_failpoint("store::manifest_write");

    let tmp_file = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let torn = std::fs::read_to_string(&tmp_file).expect("torn temp file exists");
    assert!(
        serde_json::from_str::<StoreManifest>(&torn).is_err(),
        "the torn temp must not parse as a manifest"
    );
    let reopened = CorpusStore::open(&dir).expect("reopen");
    assert_eq!(
        reopened.shard_entries().len(),
        1,
        "live manifest holds exactly the pre-failure commit"
    );
    assert_eq!(reopened.load_corpus().expect("loadable").len(), 1);
    commit_one(&reopened, &corpus, "s1", 1).expect("retry succeeds");
    assert_eq!(
        CorpusStore::open(&dir)
            .unwrap()
            .load_corpus()
            .unwrap()
            .len(),
        2
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_single_file_format_still_round_trips() {
    // The old monolithic format stays readable behind PersistError.
    let corpus = pipeline_corpus(47);
    let dir = tmp("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.json");
    gittables_corpus::save_corpus(&corpus, &path).expect("save");
    let loaded = gittables_corpus::load_corpus(&path).expect("load");
    assert_eq!(corpus, loaded);
    let err = gittables_corpus::load_corpus(&dir.join("nope.json")).expect_err("missing");
    assert!(matches!(err, gittables_corpus::PersistError::Io(_)));
    std::fs::remove_dir_all(&dir).ok();
}
