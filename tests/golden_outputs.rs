//! Pinned outputs: one small seeded build, written to a store, indexed,
//! and served by an in-process engine, checked against a committed table
//! of 64-bit digests.
//!
//! The relative oracles elsewhere (serial == parallel, lazy ==
//! materialized, N shards == 1 shard) cannot see a change that moves both
//! sides alike — an embedding, annotation, ranking or generator tweak.
//! This table can. An intended change updates the rows it moves, and the
//! change log names each one with its old and new value; on a mismatch
//! the test prints the whole table so that diff is one copy away.
//!
//! The digests hold for `f32` arithmetic as the kernels in
//! `gittables_embed::vector` perform it on x86_64; they are FNV-1a over
//! the exact bytes (`gittables_embed::fnv1a`), except for the two
//! rows that are digests already (the store fingerprint and the sidecar
//! checksum).
//!
//! A second table pins the generators' own bytes — repositories, SQL
//! dumps, a snapshot series, web tables and the T2D gold standard — before
//! any pipeline stage reads them, so a change to how `gittables_synth`
//! renders its output shows here first.

use std::path::{Path, PathBuf};

use gittables_core::{Pipeline, PipelineConfig};
use gittables_corpus::{combine_fingerprints, Corpus, CorpusStore, StoreFormat};
use gittables_embed::fnv1a;
use gittables_githost::GitHost;
use gittables_serve::{build_sidecars, QueryEngine};
use gittables_synth::repo::{RepoConfig, RepoGenerator};
use gittables_synth::wordnet::Topic;
use gittables_synth::{generate_benchmark, WebTableGenerator};

/// `(row, digest)` at the current behaviour.
const PINNED: &[(&str, u64)] = &[
    ("store fingerprint", 0xaf85854719fe3b30),
    ("index.gtsc checksum", 0x5270b486b51a4584),
    ("PipelineReport", 0xb7b774f5e343df8f),
    ("/search?q=order status&k=5", 0xf89979f68751f185),
    (
        "/search?q=status and sales amount per product&k=10",
        0x30666f736d148b49,
    ),
    ("/search?q=customer name email&k=3", 0x75f5faf32a7d3de1),
    ("/search?q=zzxqwv&k=2", 0xe3b9556bce9b42ee),
    ("/search?q=id&k=100", 0xd259a8733efdd3a1),
    ("/search?q=city&k=1000", 0x4a2a9b35b437917d),
    ("/complete?prefix=id&k=4", 0x3b9234c87498df7d),
    ("/complete?prefix=name,email&k=5", 0x45954bdf72a02d09),
    ("/complete?prefix=date,price,amount&k=3", 0xb3639b785d3996aa),
    ("/types", 0x4d3117108d68e822),
    ("/types/id/tables", 0x01f14d6729e8d36b),
    ("/types/date/tables", 0xd8e4a805dde409c8),
    ("/types/name/tables", 0xe56cb10a540c147d),
    ("/types/amount/tables", 0xd47b91ef44fcbb76),
    ("/types/count/tables", 0x71cbd7df21e0796a),
    ("/types/note/tables", 0x1934d3472999d44f),
    ("/types/flag/tables", 0x434de01a43ac4586),
    ("/tables/0", 0x5792c0191e487ad9),
    ("/tables/1", 0x252df24d28840b99),
    ("/tables/7", 0x081b8f8fb556c127),
    ("/tables/42", 0xd823904fd2d795dd),
    ("column atomic types", 0xa81f4358c59fc5ff),
    ("column atomic types, sql_file_prob 0.3", 0xe62f6436f1bc8462),
];

/// Fixed `/search` requests: `(q, k)`.
const SEARCHES: &[(&str, usize)] = &[
    ("order status", 5),
    ("status and sales amount per product", 10),
    ("customer name email", 3),
    ("zzxqwv", 2),
    ("id", 100),
    ("city", 1000),
];

/// Fixed `/complete` requests: `(prefix, k)`.
const COMPLETIONS: &[(&str, usize)] = &[("id", 4), ("name,email", 5), ("date,price,amount", 3)];

/// Fixed `/types/{label}/tables` requests.
const TYPE_LABELS: &[&str] = &["id", "date", "name", "amount", "count", "note", "flag"];

/// Fixed `/tables/{id}` requests.
const TABLE_IDS: &[usize] = &[0, 1, 7, 42];

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gt_golden_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn body<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a(serde_json::to_string(value).expect("serializes").as_bytes())
}

/// The `u64` checksum the sidecar stores before its 8-byte footer.
fn sidecar_checksum(dir: &Path) -> u64 {
    let bytes = std::fs::read(dir.join(gittables_corpus::SIDECAR_FILE)).expect("index.gtsc");
    let at = bytes.len() - 16;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// Builds, stores, indexes and serves the pinned corpus, returning every
/// row of the table in a fixed order.
fn measure(dir: &Path) -> Vec<(String, u64)> {
    let mut config = PipelineConfig::sized(42, 3, 6);
    // One worker commits shards in repository order, so the manifest —
    // and every fold over it — is a function of the seed alone.
    config.workers = 1;
    let pipeline = Pipeline::new(config);
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let store = CorpusStore::create_with_format(dir, pipeline.corpus_name(), StoreFormat::ColV1)
        .expect("create store");
    let run = pipeline.run_to_store(&host, &store).expect("build");
    build_sidecars(dir).expect("index");

    let engine = QueryEngine::load(dir).expect("boot");
    assert_eq!(engine.build_stats().boot_path, "sidecar");

    let mut rows = vec![
        (
            "store fingerprint".to_string(),
            combine_fingerprints(store.shard_entries().iter().map(|e| e.fingerprint)),
        ),
        ("index.gtsc checksum".to_string(), sidecar_checksum(dir)),
        ("PipelineReport".to_string(), body(&run.report)),
    ];
    for &(q, k) in SEARCHES {
        rows.push((format!("/search?q={q}&k={k}"), body(&engine.search(q, k))));
    }
    for &(prefix, k) in COMPLETIONS {
        let attrs: Vec<&str> = prefix.split(',').collect();
        rows.push((
            format!("/complete?prefix={prefix}&k={k}"),
            body(&engine.complete(&attrs, k)),
        ));
    }
    rows.push(("/types".to_string(), body(&engine.type_counts())));
    for &label in TYPE_LABELS {
        let tables = engine.type_tables(label).expect("label is indexed");
        rows.push((format!("/types/{label}/tables"), body(&tables)));
    }
    for &id in TABLE_IDS {
        let summary = engine.table_summary(id).expect("table exists");
        rows.push((format!("/tables/{id}"), body(&summary)));
    }
    rows.push(("column atomic types".to_string(), atomic_types(&run.corpus)));

    // A mixed CSV and SQL-dump corpus, built in memory: the SQL reader's
    // columns are typed by the same inference as the CSV reader's.
    let mut config = PipelineConfig::sized(42, 3, 6);
    config.sql_file_prob = 0.3;
    let pipeline = Pipeline::new(config);
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);
    rows.push((
        "column atomic types, sql_file_prob 0.3".to_string(),
        atomic_types(&corpus),
    ));
    rows
}

/// Digest of every column's inferred atomic type, table by table in id
/// order.
fn atomic_types(corpus: &Corpus) -> u64 {
    let mut d = Fields::new();
    for at in &corpus.tables {
        let names: Vec<&str> = at
            .table
            .columns()
            .iter()
            .map(|c| c.atomic_type().name())
            .collect();
        d.field(names.join(",").as_bytes());
    }
    d.0
}

#[test]
fn pinned_outputs_hold_their_digests() {
    let dir = scratch_dir();
    let got = measure(&dir);
    std::fs::remove_dir_all(&dir).ok();

    let table: String = got
        .iter()
        .map(|(row, digest)| format!("    ({row:?}, {digest:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(r, d)| (r.to_string(), d)).collect();
    assert!(
        got == pinned,
        "pinned outputs moved; the table at this build is:\n{table}"
    );
}

/// `(row, digest)` of the synthetic inputs at the current behaviour.
const SYNTH_PINNED: &[(&str, u64)] = &[
    ("synth repositories", 0x88f3dc91a6ea85d5),
    ("synth repositories, sql_file_prob 0.3", 0x7faa439c6f9dfc89),
    ("synth snapshot series", 0x2a221705412fd4ee),
    ("synth web tables", 0x45f18f5dce85c769),
    ("synth t2d benchmark", 0x9b71a11a5129f12e),
];

/// FNV-1a over a sequence of fields, each prefixed with its length so
/// that moving a byte across a field boundary changes the digest.
struct Fields(u64);

impl Fields {
    fn new() -> Self {
        Fields(0xcbf2_9ce4_8422_2325)
    }

    fn field(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of every repository `gen` makes for `topics` × `0..repos`:
/// names, licenses, fork flags, and each file's path, topic and content.
fn repositories(gen: &RepoGenerator, topics: &[Topic], repos: usize) -> u64 {
    let mut d = Fields::new();
    for topic in topics {
        for i in 0..repos {
            let spec = gen.generate(topic, i);
            d.field(spec.full_name.as_bytes());
            d.field(spec.license.as_deref().unwrap_or("-").as_bytes());
            d.field(&[u8::from(spec.fork)]);
            for f in &spec.files {
                d.field(f.path.as_bytes());
                d.field(f.topic.as_bytes());
                d.field(f.content.as_bytes());
            }
        }
    }
    d.0
}

fn synth_rows() -> Vec<(String, u64)> {
    let config = PipelineConfig::sized(42, 3, 6);
    let (topics, repos) = (&config.topics, config.repos_per_topic);
    let with = |config: RepoConfig| RepoGenerator::with_config(42, config);

    let mut web = Fields::new();
    for t in WebTableGenerator::new(42).generate_many(200) {
        for h in &t.header {
            web.field(h.as_bytes());
        }
        for row in t.rows.rows() {
            for cell in row {
                web.field(cell.as_bytes());
            }
        }
    }
    let mut gold = Fields::new();
    for t in generate_benchmark(42, 50, 30) {
        gold.field(t.name.as_bytes());
        for c in &t.columns {
            gold.field(c.header.as_bytes());
            gold.field(c.gold_label.as_bytes());
            gold.field(format!("{:?}", c.kind).as_bytes());
            for v in &c.values {
                gold.field(v.as_bytes());
            }
        }
    }
    vec![
        (
            "synth repositories".to_string(),
            repositories(&RepoGenerator::new(42), topics, repos),
        ),
        (
            "synth repositories, sql_file_prob 0.3".to_string(),
            repositories(
                &with(RepoConfig {
                    sql_file_prob: 0.3,
                    ..RepoConfig::default()
                }),
                topics,
                repos,
            ),
        ),
        (
            "synth snapshot series".to_string(),
            repositories(
                &with(RepoConfig {
                    snapshot_prob: 1.0,
                    ..RepoConfig::default()
                }),
                &topics[..1],
                1,
            ),
        ),
        ("synth web tables".to_string(), web.0),
        ("synth t2d benchmark".to_string(), gold.0),
    ]
}

#[test]
fn synth_bytes_hold_their_digests() {
    let got = synth_rows();
    let table: String = got
        .iter()
        .map(|(row, digest)| format!("    ({row:?}, {digest:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = SYNTH_PINNED
        .iter()
        .map(|&(r, d)| (r.to_string(), d))
        .collect();
    assert!(
        got == pinned,
        "synth bytes moved; the table at this build is:\n{table}"
    );
}
