//! Cross-format store tests: any corpus persisted as `colv1` must reload
//! bit-identical to the JSONL round trip (annotations, provenance, and
//! shard boundaries included), stream identically through the export and
//! CLI-load paths, and fail **typed** — never panic, never partially
//! load — on truncated segments, bad magic, and manifest/format
//! mismatches.

use std::path::{Path, PathBuf};

use gittables_annotate::Annotation;
use gittables_corpus::{
    export_csv, load_indexes, load_store, save_store_as, table_fingerprint, AnnotatedTable, Corpus,
    CorpusStore, StoreError, StoreFormat, SIDECAR_FILE,
};
use gittables_serve::{build_sidecars, QueryEngine};
use gittables_table::{Provenance, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gt_colv1_it_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Cell vocabulary stressing every encoding path: quoting, delimiters,
/// raw newlines, multi-byte UTF-8, empty and missing-marker cells.
const NASTY: &[&str] = &[
    "plain",
    "",
    "nan",
    "has,comma",
    "has \"quotes\"",
    "two\nlines",
    "tab\there",
    "café ☕ 表",
    "  padded  ",
    "123",
    "4.5e-3",
    "true",
];

/// A generated corpus shape: per-table column/row counts plus a salt
/// that deterministically picks cells, provenance, and annotations.
#[derive(Debug, Clone)]
struct Spec {
    tables: Vec<(usize, usize)>,
    salt: u64,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (1usize..5, 1usize..4, 0usize..7, 0u64..u64::MAX).prop_map(|(n, cols, rows, salt)| Spec {
        // Vary shape per table off the base dims so shard boundaries land
        // differently from corpus to corpus.
        tables: (0..n)
            .map(|i| (1 + (cols + i) % 4, (rows + 3 * i) % 6))
            .collect(),
        salt,
    })
}

fn build_corpus(spec: &Spec) -> Corpus {
    let mut corpus = Corpus::new(format!("prop-{}", spec.salt % 997));
    for (ti, &(cols, rows)) in spec.tables.iter().enumerate() {
        let header: Vec<String> = (0..cols).map(|c| format!("col{c}_{ti}")).collect();
        let row_data: Vec<Vec<String>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let k = spec
                            .salt
                            .wrapping_mul(31)
                            .wrapping_add((ti * 131 + r * 17 + c) as u64);
                        NASTY[(k % NASTY.len() as u64) as usize].to_string()
                    })
                    .collect()
            })
            .collect();
        let mut prov = Provenance::new(format!("owner/repo{}", ti % 3), format!("data/t{ti}.csv"))
            .with_topic(NASTY[(spec.salt as usize + ti) % NASTY.len()]);
        if (spec.salt as usize + ti).is_multiple_of(2) {
            prov = prov.with_license("cc0-1.0");
        }
        prov.file_size = (spec.salt % 100_000) as usize + ti;
        let table = Table::from_string_rows(format!("t{ti}"), &header, row_data)
            .unwrap()
            .with_provenance(prov);
        let mut at = AnnotatedTable::new(table);
        // Populate every (method, ontology) slot with salt-derived
        // annotations; finite similarities only (the real annotators
        // never produce NaN/inf, and JSON nulls them).
        for (si, (method, ontology)) in Corpus::annotation_configs().into_iter().enumerate() {
            let slot = at.annotations_mut(method, ontology);
            slot.num_columns = cols;
            for c in 0..cols {
                if (spec.salt as usize + ti + si + c).is_multiple_of(3) {
                    slot.annotations.push(Annotation {
                        column: c,
                        type_id: ((spec.salt as u32).wrapping_add(c as u32)) % 5000,
                        label: format!("type {}", NASTY[(si + c) % NASTY.len()]),
                        ontology,
                        method,
                        similarity: ((spec.salt % 1000) as f32).mul_add(1e-3, 1e-4 * c as f32),
                    });
                }
            }
        }
        corpus.push(at);
    }
    corpus
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// colv1 and jsonl round trips are bit-identical to each other and to
    /// the original corpus, across shard boundaries.
    #[test]
    fn colv1_roundtrip_bit_identical_to_jsonl(
        spec in spec_strategy(),
        per_shard in 1usize..4,
    ) {
        let corpus = build_corpus(&spec);
        let base = tmp("prop");
        let jd = base.join("jsonl");
        let cd = base.join("colv1");
        save_store_as(&corpus, &jd, per_shard, StoreFormat::Jsonl).unwrap();
        save_store_as(&corpus, &cd, per_shard, StoreFormat::ColV1).unwrap();
        let from_jsonl = load_store(&jd).unwrap();
        let from_colv1 = load_store(&cd).unwrap();
        prop_assert_eq!(&from_jsonl, &corpus);
        prop_assert_eq!(&from_colv1, &corpus);
        prop_assert_eq!(&from_colv1, &from_jsonl);
        // Shard boundaries and fingerprints agree entry by entry.
        let je = CorpusStore::open(&jd).unwrap().shard_entries();
        let ce = CorpusStore::open(&cd).unwrap().shard_entries();
        prop_assert_eq!(je.len(), ce.len());
        for (j, c) in je.iter().zip(&ce) {
            prop_assert_eq!(&j.id, &c.id);
            prop_assert_eq!(j.tables, c.tables);
            prop_assert_eq!(j.fingerprint, c.fingerprint);
            prop_assert_eq!(&j.indices, &c.indices);
        }
        std::fs::remove_dir_all(&base).ok();
    }

    /// The id rule, for any ordering keys a producer may write — gapped,
    /// repeated across shards, against commit order, shards left empty:
    /// the ids are a permutation of `0..len`, a table's id is its position
    /// in `load_corpus` (keys stable-ranked, ties by commit order then
    /// slot), and the sidecar path serves the same table under that id.
    #[test]
    fn table_ids_are_load_corpus_positions_for_any_keys(
        spec in spec_strategy(),
        placements in proptest::collection::vec((0usize..4, 0usize..4), 4),
        commit_seed in 0usize..24,
    ) {
        const KEYS: [usize; 4] = [0, 7, 1024, 5 * 1024];
        let corpus = build_corpus(&spec);
        // Shards 0..4 commit in the `commit_seed`-th permutation.
        let mut commit_order = vec![0usize, 1, 2, 3];
        let mut pick = commit_seed;
        for i in (1..4).rev() {
            commit_order.swap(i, pick % (i + 1));
            pick /= i + 1;
        }
        for format in [StoreFormat::Jsonl, StoreFormat::ColV1] {
            let dir = tmp(&format!("prop_ids_{format}"));
            let store = CorpusStore::create_with_format(&dir, &corpus.name, format).unwrap();
            // (key, table) in commit order then slot: a stable sort by key
            // is the order `load_corpus` must produce.
            let mut expected: Vec<(usize, &AnnotatedTable)> = Vec::new();
            for &shard in &commit_order {
                let mut writer = store.begin_shard(&format!("s{shard}")).unwrap();
                for (at, &(home, k)) in corpus.tables.iter().zip(&placements) {
                    if home == shard {
                        writer.push(KEYS[k], at).unwrap();
                        expected.push((KEYS[k], at));
                    }
                }
                store.commit_shard(writer.finish().unwrap()).unwrap();
            }
            expected.sort_by_key(|(key, _)| *key);

            let shards = store.table_ids();
            let mut ids: Vec<usize> = shards.iter().flat_map(|(_, ids)| ids.clone()).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..corpus.len()).collect::<Vec<_>>());
            let loaded = store.load_corpus().unwrap();
            prop_assert_eq!(loaded.len(), expected.len());
            for (at, (_, want)) in loaded.tables.iter().zip(&expected) {
                prop_assert_eq!(at, *want);
            }
            for (entry, ids) in &shards {
                let tables = store.load_shard(entry).unwrap();
                for (at, &id) in tables.iter().zip(ids) {
                    prop_assert_eq!(at, &loaded.tables[id]);
                }
            }
            build_sidecars(&dir).unwrap();
            let lazy = load_indexes(&store).unwrap().corpus;
            prop_assert_eq!(lazy.len(), loaded.len());
            for (id, at) in loaded.tables.iter().enumerate() {
                prop_assert_eq!(&lazy.get(id).unwrap().unwrap(), at);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// One fixed table: an empty cell, multi-byte cells, a quoted-comma cell,
/// provenance, and one annotation in each of the four sets.
fn golden_table() -> AnnotatedTable {
    let table = Table::from_rows(
        "golden",
        &["id", "city", "note"],
        &[
            &["1", "Zürich", "plain"],
            &["2", "", "has,comma"],
            &["3", "東京", "say \"hi\""],
            &["4", "nan", "two\nlines"],
        ],
    )
    .unwrap()
    .with_provenance(
        Provenance::new("owner/golden", "data/golden.csv")
            .with_license("mit")
            .with_topic("city"),
    );
    let mut at = AnnotatedTable::new(table);
    for (i, (method, ontology)) in Corpus::annotation_configs().into_iter().enumerate() {
        let slot = at.annotations_mut(method, ontology);
        slot.num_columns = 3;
        slot.annotations.push(Annotation {
            column: i % 3,
            type_id: 100 + i as u32,
            label: format!("label {i} é"),
            ontology,
            method,
            similarity: 0.5 + 0.125 * i as f32,
        });
    }
    at
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Cross-commit oracle: manifests persist the fingerprint and stores
/// persist the bytes, so a change of in-memory representation must leave
/// all of them untouched. `JSONL_LINE` dates from the commit *before*
/// `Column` moved from one `String` per cell to one arena per column; the
/// fingerprints, the segment length and its digest from store format
/// version 2, which sealed every colv1 block (8 bytes each) and moved
/// fingerprints to the lane checksum.
#[test]
fn golden_vectors_outlive_the_cell_representation() {
    const JSONL_LINE: &str = "{\"table\":{\"name\":\"golden\",\"columns\":[{\"name\":\"id\",\"values\":[\"1\",\"2\",\"3\",\"4\"],\"atomic\":\"Integer\"},{\"name\":\"city\",\"values\":[\"Zürich\",\"\",\"東京\",\"nan\"],\"atomic\":\"String\"},{\"name\":\"note\",\"values\":[\"plain\",\"has,comma\",\"say \\\"hi\\\"\",\"two\\nlines\"],\"atomic\":\"String\"}],\"provenance\":{\"repository\":\"owner/golden\",\"path\":\"data/golden.csv\",\"license\":\"mit\",\"topic\":\"city\",\"file_size\":0}},\"syntactic_dbpedia\":{\"annotations\":[{\"column\":0,\"type_id\":100,\"label\":\"label 0 é\",\"ontology\":\"DBpedia\",\"method\":\"Syntactic\",\"similarity\":0.5}],\"num_columns\":3},\"syntactic_schema\":{\"annotations\":[{\"column\":1,\"type_id\":101,\"label\":\"label 1 é\",\"ontology\":\"SchemaOrg\",\"method\":\"Syntactic\",\"similarity\":0.625}],\"num_columns\":3},\"semantic_dbpedia\":{\"annotations\":[{\"column\":2,\"type_id\":102,\"label\":\"label 2 é\",\"ontology\":\"DBpedia\",\"method\":\"Semantic\",\"similarity\":0.75}],\"num_columns\":3},\"semantic_schema\":{\"annotations\":[{\"column\":0,\"type_id\":103,\"label\":\"label 3 é\",\"ontology\":\"SchemaOrg\",\"method\":\"Semantic\",\"similarity\":0.875}],\"num_columns\":3}}\n";

    let at = golden_table();
    assert_eq!(table_fingerprint(&at.table), 0xa66e_27ba_a280_5ce9);
    let mut corpus = Corpus::new("golden");
    corpus.push(at);
    let base = tmp("golden");
    let shard_bytes = |format: StoreFormat| {
        let dir = base.join(format.name());
        save_store_as(&corpus, &dir, 8, format).unwrap();
        let entry = CorpusStore::open(&dir).unwrap().shard_entries()[0].clone();
        assert_eq!(entry.fingerprint, 0xeb2d_ccf7_7047_9c4d);
        assert_eq!(load_store(&dir).unwrap(), corpus);
        std::fs::read(dir.join(entry.file)).unwrap()
    };
    let segment = shard_bytes(StoreFormat::ColV1);
    assert_eq!(segment.len(), 429);
    assert_eq!(fnv1a(&segment), 0x0f60_c007_83d1_d702);
    assert_eq!(
        String::from_utf8(shard_bytes(StoreFormat::Jsonl)).unwrap(),
        JSONL_LINE
    );
    std::fs::remove_dir_all(&base).ok();
}

fn sample_corpus() -> Corpus {
    build_corpus(&Spec {
        tables: vec![(3, 4), (2, 2), (4, 1), (1, 5)],
        salt: 20260729,
    })
}

/// The first committed colv1 segment file of a store.
fn first_segment(dir: &PathBuf) -> PathBuf {
    let entry = CorpusStore::open(dir).unwrap().shard_entries()[0].clone();
    dir.join(entry.file)
}

#[test]
fn truncated_segment_is_typed_never_partial() {
    let corpus = sample_corpus();
    let dir = tmp("trunc");
    save_store_as(&corpus, &dir, 2, StoreFormat::ColV1).unwrap();
    let path = first_segment(&dir);
    let bytes = std::fs::read(&path).unwrap();
    // Every truncation point: footer gone, index gone, mid-block, near-empty.
    for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() / 2, 10, 0] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = CorpusStore::open(&dir).unwrap().load_corpus().unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "cut={cut}: expected Corrupt, got {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_footer_magic_is_typed() {
    let dir = tmp("magic");
    save_store_as(&sample_corpus(), &dir, 8, StoreFormat::ColV1).unwrap();
    let path = first_segment(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let err = CorpusStore::open(&dir).unwrap().load_corpus().unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_footer_index_is_typed() {
    let dir = tmp("bitrot_footer");
    save_store_as(&sample_corpus(), &dir, 8, StoreFormat::ColV1).unwrap();
    let path = first_segment(&dir);
    let original = std::fs::read(&path).unwrap();
    // Corrupt the footer's fixed fields (footer_start, table count): the
    // consistency check must reject both, deterministically.
    for flip_from_end in [17, 25] {
        let mut bytes = original.clone();
        let at = bytes.len() - flip_from_end;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = CorpusStore::open(&dir).unwrap().load_corpus().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn block_underconsuming_its_span_is_corrupt_on_a_whole_shard_load() {
    // One stray byte between the last block and the footer index, with
    // `footer_start` moved to match: the trailer is consistent and every
    // table still decodes to the right fingerprint, but the last block no
    // longer consumes its span. Lazy reads reject that; loads must too.
    let dir = tmp("underconsume");
    save_store_as(&sample_corpus(), &dir, 8, StoreFormat::ColV1).unwrap();
    let path = first_segment(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let start_field = bytes.len() - 16;
    let footer_start = u64::from_le_bytes(bytes[start_field..start_field + 8].try_into().unwrap());
    bytes[start_field..start_field + 8].copy_from_slice(&(footer_start + 1).to_le_bytes());
    bytes.insert(footer_start as usize, 0);
    std::fs::write(&path, &bytes).unwrap();
    let err = load_store(&dir).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every byte of a small colv1 shard, XOR 0x01 in turn, read back
/// through a whole-store load and through the sidecar's lazy reads: each
/// flip is a typed `Corrupt` or the identical corpus. A flip in a table
/// block fails that block's seal, whatever field the byte belongs to
/// (name, provenance, atomic type, annotation — not only the cells the
/// content fingerprint covers); a flip in the footer fails the trailer
/// checks or moves a block boundary onto a seal that no longer matches.
/// The lazy reads never look at the footer, so there a footer flip
/// serves the identical tables.
#[test]
fn corruption_is_never_silent() {
    let corpus = sample_corpus();
    let dir = tmp("bitrot_block");
    save_store_as(&corpus, &dir, usize::MAX, StoreFormat::ColV1).unwrap();
    build_sidecars(&dir).unwrap();
    let path = first_segment(&dir);
    let original = std::fs::read(&path).unwrap();
    let mut typed = 0;
    // `(read path, byte)` of every flip that read back a different
    // corpus, and of every one refused with another error than `Corrupt`.
    let mut silent = Vec::new();
    let mut untyped = Vec::new();
    for pos in 0..original.len() {
        let mut bytes = original.clone();
        bytes[pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let store = CorpusStore::open(&dir).unwrap();
        match store.load_corpus() {
            Err(StoreError::Corrupt { .. }) => typed += 1,
            Err(_) => untyped.push(("load_corpus", pos)),
            Ok(loaded) if loaded == corpus => {}
            Ok(_) => silent.push(("load_corpus", pos)),
        }
        let lazy = load_indexes(&store).unwrap().corpus;
        for (id, want) in corpus.tables.iter().enumerate() {
            match lazy.get(id) {
                Err(StoreError::Corrupt { .. }) => {}
                Err(_) => untyped.push(("LazyCorpus::get", pos)),
                Ok(Some(at)) if at == *want => {}
                Ok(_) => silent.push(("LazyCorpus::get", pos)),
            }
        }
    }
    assert!(
        silent.is_empty() && untyped.is_empty(),
        "of {} flipped bytes, {} reads returned a different corpus and {} failed \
         with another error than Corrupt; first of each: {:?}, {:?}",
        original.len(),
        silent.len(),
        untyped.len(),
        silent.first(),
        untyped.first()
    );
    // The seal is what refuses the flips: every byte of the segment
    // fails the whole load, the two magics and the trailer included.
    assert_eq!(typed, original.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// A store written before blocks were sealed records manifest version 1:
/// opening it is a typed error naming the version and the last commit
/// that reads it, and no old-format reader is tried. A version-1
/// segment under a current manifest is refused as corrupt.
#[test]
fn a_version_1_store_is_refused_typed() {
    let dir = tmp("version_1");
    save_store_as(&sample_corpus(), &dir, 8, StoreFormat::ColV1).unwrap();
    let manifest = dir.join("manifest.json");
    let current = std::fs::read_to_string(&manifest).unwrap();
    assert!(current.starts_with("{\"version\":2,"), "{current}");
    std::fs::write(
        &manifest,
        current.replacen("\"version\":2", "\"version\":1", 1),
    )
    .unwrap();
    match CorpusStore::open(&dir) {
        Err(err @ StoreError::UnsupportedVersion { found: 1 }) => {
            let message = err.to_string();
            assert!(message.contains("version 1"), "{message}");
            assert!(message.contains("e69bca6"), "{message}");
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert!(matches!(
        load_store(&dir),
        Err(StoreError::UnsupportedVersion { found: 1 })
    ));

    std::fs::write(&manifest, &current).unwrap();
    let path = first_segment(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[..8].copy_from_slice(b"GTCOLV1\0");
    std::fs::write(&path, &bytes).unwrap();
    match load_store(&dir) {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("version 1"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_format_mismatching_file_content_is_typed() {
    // Manifest says colv1, but the segment holds JSONL text: the decoder
    // must reject it as corrupt, not misparse or panic.
    let dir = tmp("mismatch");
    save_store_as(&sample_corpus(), &dir, 8, StoreFormat::ColV1).unwrap();
    let path = first_segment(&dir);
    let colv1_bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, "{\"not\":\"a segment\"}\n").unwrap();
    let err = CorpusStore::open(&dir).unwrap().load_corpus().unwrap_err();
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");

    // And the reverse: manifest says jsonl, segment holds colv1 binary —
    // a typed JSON error, still no panic or partial load.
    let dir2 = tmp("mismatch2");
    save_store_as(&sample_corpus(), &dir2, 8, StoreFormat::Jsonl).unwrap();
    let store2 = CorpusStore::open(&dir2).unwrap();
    let entry = store2.shard_entries()[0].clone();
    std::fs::write(dir2.join(&entry.file), colv1_bytes).unwrap();
    let err = store2.load_corpus().unwrap_err();
    assert!(
        matches!(
            err,
            // Binary bytes fail the line reader (invalid UTF-8) or the
            // JSON parser, depending on where the first bad byte lands.
            StoreError::Json(_) | StoreError::Io(_) | StoreError::TableCountMismatch { .. }
        ),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn export_streams_identically_through_both_codecs() {
    let corpus = sample_corpus();
    let base = tmp("export");
    let jd = base.join("jsonl_store");
    let cd = base.join("colv1_store");
    let js = save_store_as(&corpus, &jd, 3, StoreFormat::Jsonl).unwrap();
    let cs = save_store_as(&corpus, &cd, 3, StoreFormat::ColV1).unwrap();
    let je = base.join("jsonl_export");
    let ce = base.join("colv1_export");
    assert_eq!(
        export_csv(&js.load_corpus().unwrap(), &je).unwrap(),
        export_csv(&cs.load_corpus().unwrap(), &ce).unwrap()
    );
    // Identical file sets with identical bytes (manifest paths are
    // absolute, so compare them relative to each export root).
    let manifest = std::fs::read_to_string(je.join("manifest.tsv")).unwrap();
    let manifest_c = std::fs::read_to_string(ce.join("manifest.tsv")).unwrap();
    assert_eq!(
        manifest.replace(je.to_str().unwrap(), "<root>"),
        manifest_c.replace(ce.to_str().unwrap(), "<root>")
    );
    for line in manifest.lines().skip(1) {
        let path = line.split('\t').next().unwrap();
        let rel = std::path::Path::new(path).strip_prefix(&je).unwrap();
        assert_eq!(
            std::fs::read(path).unwrap(),
            std::fs::read(ce.join(rel)).unwrap(),
            "export mismatch for {rel:?}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn cli_load_path_identical_across_formats() {
    // What `gittables load` does — store → load_store → save_corpus —
    // must produce byte-identical corpus.json regardless of format.
    let corpus = sample_corpus();
    let base = tmp("cliload");
    std::fs::create_dir_all(&base).unwrap();
    let mut outputs = Vec::new();
    for format in [StoreFormat::Jsonl, StoreFormat::ColV1] {
        let sd = base.join(format!("store_{format}"));
        save_store_as(&corpus, &sd, 2, format).unwrap();
        let loaded = load_store(&sd).unwrap();
        let out = base.join(format!("corpus_{format}.json"));
        gittables_corpus::save_corpus(&loaded, &out).unwrap();
        outputs.push(std::fs::read(&out).unwrap());
    }
    assert_eq!(outputs[0], outputs[1], "load output differs across formats");
    std::fs::remove_dir_all(&base).ok();
}

/// A compact sample of every endpoint family's bytes — what any boot of
/// the engine over this store must serve, bit for bit.
fn endpoint_sample(engine: &QueryEngine) -> Vec<String> {
    let mut out = vec![
        serde_json::to_string(&engine.health()).unwrap(),
        serde_json::to_string(&engine.search("col0 status", 3)).unwrap(),
        serde_json::to_string(&engine.complete(&["col0_0"], 3)).unwrap(),
        serde_json::to_string(&engine.type_counts()).unwrap(),
    ];
    for id in 0..engine.num_tables() + 1 {
        out.push(serde_json::to_string(&engine.table_summary(id)).unwrap());
    }
    out
}

/// Loads the engine expecting a fallback rebuild for `reason`, and
/// asserts its answers equal the reference bytes.
fn assert_falls_back_identically(dir: &PathBuf, want: &[String], reasons: &[&str], what: &str) {
    let engine = QueryEngine::load(dir).unwrap();
    let stats = engine.build_stats();
    assert_eq!(stats.boot_path, "rebuild", "{what}");
    let reason = stats.fallback_reason.as_deref().unwrap_or("none");
    assert!(reasons.contains(&reason), "{what}: got reason `{reason}`");
    assert_eq!(endpoint_sample(&engine), want, "{what}");
}

/// A colv1 store of [`sample_corpus`], indexed, with the bytes any boot
/// of it must serve.
fn indexed_store(tag: &str) -> (PathBuf, Vec<String>) {
    let dir = tmp(tag);
    save_store_as(&sample_corpus(), &dir, 2, StoreFormat::ColV1).unwrap();
    build_sidecars(&dir).unwrap();
    let want = endpoint_sample(&QueryEngine::load_materialized(&dir).unwrap());
    (dir, want)
}

/// Where each of the four sections of a sidecar starts (after its length
/// prefix) and ends, walked from the documented layout: magic, version,
/// fingerprint, tables, format, name, dim, then `u64 len` + section.
fn section_bounds(bytes: &[u8], store: &CorpusStore) -> Vec<usize> {
    let mut at = 8 + 4 + 8 + 8 + (4 + store.format().name().len()) + (4 + store.name().len()) + 8;
    let mut bounds = Vec::new();
    for _ in 0..4 {
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        bounds.extend([at + 8, at + 8 + len]);
        at += 8 + len;
    }
    assert_eq!(at + 16, bytes.len(), "sections end at the checksum");
    bounds
}

#[test]
fn sidecar_byte_flips_never_serve_wrong_bytes() {
    // Flipping any sidecar byte must yield a typed refusal and a correct
    // fallback rebuild — byte-identical answers, never a wrong one. The
    // checksum is verified before any field is trusted and covers
    // everything before it, so every flip lands as `corrupt`.
    let (dir, want) = indexed_store("sidecar_flip");
    assert_eq!(
        endpoint_sample(&QueryEngine::load(&dir).unwrap()),
        want,
        "a healthy sidecar must serve the reference bytes"
    );
    let path = dir.join(SIDECAR_FILE);
    let original = std::fs::read(&path).unwrap();
    for pos in (0..original.len()).step_by(31) {
        let mut bytes = original.clone();
        bytes[pos] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert_falls_back_identically(&dir, &want, &["corrupt"], &format!("byte {pos}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_or_missing_sidecar_falls_back_identically() {
    let (dir, want) = indexed_store("sidecar_trunc");
    let path = dir.join(SIDECAR_FILE);
    let original = std::fs::read(&path).unwrap();
    // Torn writes: footer gone, half a file, header fragment, empty —
    // and a tear on either side of every section boundary.
    let mut cuts = vec![original.len() - 1, original.len() / 2, 4, 0];
    for bound in section_bounds(&original, &CorpusStore::open(&dir).unwrap()) {
        cuts.extend([bound - 1, bound, bound + 1]);
    }
    for cut in cuts {
        std::fs::write(&path, &original[..cut]).unwrap();
        assert_falls_back_identically(&dir, &want, &["corrupt"], &format!("cut {cut}"));
    }
    // Bad header magic and bad footer magic.
    for at in [0, original.len() - 1] {
        let mut bytes = original.clone();
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_falls_back_identically(&dir, &want, &["corrupt"], &format!("magic {at}"));
    }
    // No file at all.
    std::fs::remove_file(&path).unwrap();
    assert_falls_back_identically(&dir, &want, &["no_sidecar"], "missing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sidecars_from_an_older_corpus_are_stale_never_served() {
    // A sidecar indexed over yesterday's store contents must be refused
    // by fingerprint, not served against today's tables.
    let (old_dir, _) = indexed_store("sidecar_stale_old");

    let mut newer = sample_corpus();
    newer.push(AnnotatedTable::new(
        Table::from_string_rows("added_later", &["fresh_col"], vec![vec!["v".to_string()]])
            .unwrap(),
    ));
    let dir = tmp("sidecar_stale_new");
    save_store_as(&newer, &dir, 2, StoreFormat::ColV1).unwrap();
    std::fs::copy(old_dir.join(SIDECAR_FILE), dir.join(SIDECAR_FILE)).unwrap();
    let want = endpoint_sample(&QueryEngine::load_materialized(&dir).unwrap());
    assert_falls_back_identically(&dir, &want, &["stale"], "older-corpus sidecar");
    std::fs::remove_dir_all(&old_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_1_leftovers_are_never_opened_and_index_restores_the_fast_path() {
    // A store last indexed by a build that wrote four files: whatever
    // they hold, the boot reports no sidecar, rebuilds, and serves the
    // reference bytes; indexing again writes the one file beside them.
    let (dir, want) = indexed_store("sidecar_v1");
    let bytes = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
    std::fs::remove_file(dir.join(SIDECAR_FILE)).unwrap();
    let old_names = ["directory", "types", "search", "complete"].map(|k| format!("index-{k}.gtsc"));
    for name in &old_names {
        std::fs::write(dir.join(name), &bytes).unwrap();
    }
    assert_falls_back_identically(&dir, &want, &["no_sidecar"], "four version-1 files");
    build_sidecars(&dir).unwrap();
    let engine = QueryEngine::load(&dir).unwrap();
    assert_eq!(engine.build_stats().boot_path, "sidecar");
    assert_eq!(endpoint_sample(&engine), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_leftover_tmp_file_changes_nothing() {
    // What a crash between the write and the rename leaves behind.
    let (dir, want) = indexed_store("sidecar_tmp");
    std::fs::write(
        dir.join(format!("{SIDECAR_FILE}.tmp")),
        b"torn half of a sidecar",
    )
    .unwrap();
    let engine = QueryEngine::load(&dir).unwrap();
    assert_eq!(engine.build_stats().boot_path, "sidecar");
    assert_eq!(endpoint_sample(&engine), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_reindex_of_a_grown_store_leaves_the_old_sidecar_whole() {
    // Re-indexing commits with one rename: the file is the old one
    // (stale ⇒ rebuild) or the new one, never a mix of the two.
    let (dir, _) = indexed_store("sidecar_atomic");
    let old = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
    let store = CorpusStore::open(&dir).unwrap();
    let added = AnnotatedTable::new(
        Table::from_string_rows("added_later", &["fresh_col"], vec![vec!["v".to_string()]])
            .unwrap(),
    );
    let mut writer = store.begin_shard("grown").unwrap();
    writer.push(store.len(), &added).unwrap();
    store.commit_shard(writer.finish().unwrap()).unwrap();
    let want = endpoint_sample(&QueryEngine::load_materialized(&dir).unwrap());

    // The write fails: its temp path is taken by a directory.
    let blocker = dir.join(format!("{SIDECAR_FILE}.tmp"));
    std::fs::create_dir(&blocker).unwrap();
    assert!(matches!(build_sidecars(&dir), Err(StoreError::Io(_))));
    assert_eq!(std::fs::read(dir.join(SIDECAR_FILE)).unwrap(), old);
    assert_falls_back_identically(&dir, &want, &["stale"], "old sidecar, grown store");

    std::fs::remove_dir(&blocker).unwrap();
    build_sidecars(&dir).unwrap();
    let engine = QueryEngine::load(&dir).unwrap();
    assert_eq!(engine.build_stats().boot_path, "sidecar");
    assert_eq!(endpoint_sample(&engine), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_reports_cold_start_breakdown_per_format() {
    let corpus = sample_corpus();
    let base = tmp("engine");
    for format in [StoreFormat::Jsonl, StoreFormat::ColV1] {
        let sd = base.join(format!("store_{format}"));
        save_store_as(&corpus, &sd, 2, format).unwrap();
        let engine = QueryEngine::load(&sd).unwrap();
        let stats = engine.build_stats();
        assert_eq!(stats.store_format.as_deref(), Some(format.name()));
        assert!(stats.store_load_ms >= 0.0);
        assert!(stats.index_build_ms > 0.0);
        // The breakdown is served via /metrics (snapshot carries it).
        let snap = serde_json::to_string(&gittables_serve::Metrics::new().snapshot(
            gittables_serve::CacheStats::default(),
            stats.clone(),
            0,
        ))
        .unwrap();
        assert!(snap.contains("store_load_ms"), "{snap}");
        assert!(snap.contains(format.name()), "{snap}");
    }
    // In-memory engines have no store to attribute load time to.
    let direct = QueryEngine::from_corpus(corpus);
    assert_eq!(direct.build_stats().store_format, None);
    assert_eq!(direct.build_stats().store_load_ms, 0.0);
    std::fs::remove_dir_all(&base).ok();
}

/// What one byte of a sidecar is to the boot that reads it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// Any change is refused by a check other than the checksum: magic,
    /// version, binding, dim, lengths, counts, shard names and
    /// ordinals, directory fingerprints, the footer.
    Guarded,
    /// The zero padding before a matrix: skipped, never read.
    Padding,
    /// A value only the checksum vouches for: block spans, labels,
    /// postings, ids, attribute names, in-range schema refs, matrix
    /// values, and the checksum itself.
    Payload,
}

/// Walks a sidecar's documented version-3 layout, recording each byte's
/// [`Role`].
struct Walk<'a> {
    bytes: &'a [u8],
    roles: Vec<Role>,
}

impl<'a> Walk<'a> {
    fn take(&mut self, n: usize, role: Role) -> &'a [u8] {
        let at = self.roles.len();
        self.roles.resize(at + n, role);
        &self.bytes[at..at + n]
    }

    fn u32(&mut self, role: Role) -> usize {
        u32::from_le_bytes(self.take(4, role).try_into().unwrap()) as usize
    }

    fn u64(&mut self, role: Role) -> usize {
        u64::from_le_bytes(self.take(8, role).try_into().unwrap()) as usize
    }

    /// A `u32` length (guarded) and the bytes it counts.
    fn str(&mut self, role: Role) {
        let n = self.u32(Role::Guarded);
        self.take(n, role);
    }

    fn padding(&mut self) {
        let n = (8 - self.roles.len() % 8) % 8;
        self.take(n, Role::Padding);
    }
}

fn sidecar_roles(bytes: &[u8]) -> Vec<Role> {
    use Role::{Guarded, Payload};
    let mut w = Walk {
        bytes,
        roles: Vec::with_capacity(bytes.len()),
    };
    w.take(8 + 4 + 8, Guarded);
    let tables = w.u64(Guarded);
    w.str(Guarded);
    w.str(Guarded);
    let dim = w.u64(Guarded);
    // Directory: shard names, then per table `shard, offset, len,
    // fingerprint`.
    w.u64(Guarded);
    for _ in 0..w.u64(Guarded) {
        w.str(Guarded);
    }
    for _ in 0..tables {
        w.take(4, Guarded);
        w.take(16, Payload);
        w.take(8, Guarded);
    }
    // Types: labels, each with its counted postings.
    w.u64(Guarded);
    for _ in 0..w.u64(Guarded) {
        w.str(Payload);
        let postings = w.u64(Guarded);
        w.take(22 * postings, Payload);
    }
    // Search: ids, the schema table, refs, the matrix.
    w.u64(Guarded);
    let entries = w.u64(Guarded);
    w.take(8 * entries, Payload);
    let mut lens = Vec::new();
    for _ in 0..w.u64(Guarded) {
        let attributes = w.u32(Guarded);
        for _ in 0..attributes {
            w.str(Payload);
        }
        lens.push(attributes);
    }
    w.take(4 * entries, Payload);
    w.padding();
    w.take(4 * entries * dim, Payload);
    // Complete: refs into the table, the per-attribute matrix.
    w.u64(Guarded);
    let mut rows = 0;
    for _ in 0..w.u64(Guarded) {
        rows += lens[w.u32(Payload)];
    }
    w.padding();
    w.take(4 * rows * dim, Payload);
    w.take(8, Payload);
    w.take(8, Guarded);
    assert_eq!(w.roles.len(), bytes.len(), "the walk covers the file");
    w.roles
}

/// The sidecar's checksum as `crates/corpus/src/checksum.rs` defines
/// it: four word lanes over 32-byte stripes, folded, then the tail bytes
/// and the length.
fn lane_checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, v: u64| {
        let h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        h ^ (h >> 32)
    };
    let basis = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [basis; 4];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
    let folded = lanes.into_iter().fold(basis, step);
    let tailed = stripes
        .remainder()
        .iter()
        .fold(folded, |h, &b| step(h, u64::from(b)));
    step(tailed, bytes.len() as u64)
}

/// `bytes` with its checksum recomputed, so a load reaches every check
/// behind it.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 16;
    let sum = lane_checksum(&bytes[..body]);
    bytes[body..body + 8].copy_from_slice(&sum.to_le_bytes());
    bytes
}

fn write_resealed(dir: &Path, bytes: Vec<u8>) {
    std::fs::write(dir.join(SIDECAR_FILE), resealed(bytes)).unwrap();
}

/// [`sample_corpus`] plus a table sharing the first one's schema, as a
/// colv1 store, indexed, with the bytes any boot of it must serve.
fn indexed_shared_schema_store(tag: &str) -> (PathBuf, Vec<String>) {
    let mut corpus = sample_corpus();
    let schema = corpus.tables[0].table.schema();
    let rows = vec![vec!["shared".to_string(); schema.len()]];
    corpus.push(AnnotatedTable::new(
        Table::from_string_rows("same_schema", schema.attributes(), rows).unwrap(),
    ));
    // A fifth distinct schema (an odd number of completion refs) and a
    // longer corpus name put four bytes of padding before each matrix.
    corpus.push(AnnotatedTable::new(
        Table::from_string_rows("other", &["other"], vec![vec!["x".to_string()]]).unwrap(),
    ));
    corpus.name.push_str("-shared");
    let dir = tmp(tag);
    save_store_as(&corpus, &dir, 2, StoreFormat::ColV1).unwrap();
    build_sidecars(&dir).unwrap();
    let want = endpoint_sample(&QueryEngine::load_materialized(&dir).unwrap());
    (dir, want)
}

/// 1–8 bytes XOR a random non-zero value at positions drawn from
/// `pool`, and the positions whose byte ended up different.
fn mutate(rng: &mut StdRng, clean: &[u8], pool: &[usize]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = clean.to_vec();
    for _ in 0..rng.gen_range(1..=8usize) {
        bytes[pool[rng.gen_range(0..pool.len())]] ^= rng.gen_range(1..=255u8);
    }
    let changed = (0..bytes.len()).filter(|&i| bytes[i] != clean[i]).collect();
    (bytes, changed)
}

#[test]
fn resealed_sidecar_mutations_are_refused_or_serve_the_same_bytes() {
    // Mutations of the bytes a structural check guards, and of the
    // padding, behind a valid checksum: a load refuses every guarded
    // change as corrupt or stale, and a sidecar whose padding alone
    // changed boots and serves the clean bytes. Nothing panics.
    let (dir, want) = indexed_shared_schema_store("sidecar_mutate");
    let store = CorpusStore::open(&dir).unwrap();
    let clean = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
    assert_eq!(
        resealed(clean.clone()),
        clean,
        "the test's checksum is the file's"
    );
    let roles = sidecar_roles(&clean);
    let positions = |keep: &dyn Fn(Role) -> bool| -> Vec<usize> {
        (0..clean.len()).filter(|&i| keep(roles[i])).collect()
    };
    let padding = positions(&|r| r == Role::Padding);
    let structural = positions(&|r| r != Role::Payload);
    assert_eq!(padding.len(), 8, "four bytes of padding before each matrix");

    let mut rng = StdRng::seed_from_u64(0x6774_7363);
    let (mut refused, mut served) = (0, 0);
    for round in 0..400 {
        let pool = if round % 4 == 0 {
            &padding
        } else {
            &structural
        };
        let (bytes, changed) = mutate(&mut rng, &clean, pool);
        write_resealed(&dir, bytes);
        let loaded = std::panic::catch_unwind(|| load_indexes(&store).map(|_| ()))
            .unwrap_or_else(|_| panic!("round {round}: load panicked, changed {changed:?}"));
        let guarded = changed.iter().any(|&i| roles[i] == Role::Guarded);
        match loaded {
            Err(
                gittables_corpus::SidecarIssue::Corrupt(_)
                | gittables_corpus::SidecarIssue::Stale { .. },
            ) => {
                assert!(guarded, "round {round}: padding {changed:?} refused");
                refused += 1;
            }
            Err(other) => panic!("round {round}: {other}"),
            Ok(()) => {
                assert!(!guarded, "round {round}: guarded {changed:?} loaded");
                let engine = QueryEngine::load(&dir).unwrap();
                assert_eq!(engine.build_stats().boot_path, "sidecar");
                assert_eq!(endpoint_sample(&engine), want, "round {round}: {changed:?}");
                served += 1;
            }
        }
    }
    assert!(
        refused > 250 && served >= 100,
        "{refused} refused, {served} served"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resealed_sidecar_mutations_anywhere_never_panic() {
    // The same mutations over every byte, values included: whatever a
    // boot makes of them (a refusal and a rebuild, or indexes holding
    // other values), loading and answering never panic.
    let (dir, _) = indexed_shared_schema_store("sidecar_mutate_any");
    let clean = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
    let anywhere: Vec<usize> = (0..clean.len() - 16).collect();
    let mut rng = StdRng::seed_from_u64(0x616e_7977);
    for round in 0..400 {
        let (bytes, changed) = mutate(&mut rng, &clean, &anywhere);
        write_resealed(&dir, bytes);
        std::panic::catch_unwind(|| endpoint_sample(&QueryEngine::load(&dir).unwrap()))
            .unwrap_or_else(|_| panic!("round {round}: panicked, changed {changed:?}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}
