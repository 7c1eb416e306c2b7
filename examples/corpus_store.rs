//! Demonstrates the sharded corpus store: a store-backed pipeline run, an
//! incremental resume that skips every committed shard, and a save/load
//! round-trip of the monolithic corpus through the sharded layout.
//!
//! ```sh
//! cargo run --release --example corpus_store
//! ```

use gittables::{load_store, save_store, CorpusStore, Pipeline, PipelineConfig, StoreRunOptions};
use gittables_githost::GitHost;

fn main() {
    let dir = std::env::temp_dir().join(format!("gittables_store_example_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let pipeline = Pipeline::new(PipelineConfig::sized(42, 3, 12));
    let host = GitHost::new();
    pipeline.populate_host(&host);

    // Reference: the in-memory run.
    let (reference, reference_report) = pipeline.run(&host);
    println!(
        "in-memory run : {} tables, {} columns",
        reference.len(),
        reference_report.total_columns
    );

    // A bounded store run simulates an interrupted build: only 4 repository
    // shards are committed before "the crash". `StoreRunOptions` also
    // carries the quarantine-retry selection and the stop flag.
    let store = CorpusStore::create(dir.join("pipeline"), pipeline.corpus_name()).expect("create");
    let first_four = StoreRunOptions {
        max_new_shards: Some(4),
        ..StoreRunOptions::default()
    };
    let partial = pipeline
        .run_to_store_with(&host, &store, &first_four)
        .expect("bounded run");
    println!(
        "interrupted   : {} shards committed, {} tables durable",
        partial.shards_written,
        partial.corpus.len()
    );

    // Resume: already-committed shards are skipped, the rest is processed,
    // and the result is identical to the uninterrupted run.
    let resumed = pipeline.run_to_store(&host, &store).expect("resume");
    println!(
        "resumed       : {} new shards, {} skipped, {} tables",
        resumed.shards_written,
        resumed.shards_skipped,
        resumed.corpus.len()
    );
    assert_eq!(resumed.corpus, reference, "resumed corpus must match");
    assert_eq!(resumed.report, reference_report, "merged report must match");
    println!("resume output is bit-identical to the uninterrupted run ✓");

    // Monolithic corpus → sharded store → corpus round-trip.
    let store_dir = dir.join("converted");
    let converted = save_store(&reference, &store_dir, 32).expect("save_store");
    let loaded = load_store(&store_dir).expect("load_store");
    assert_eq!(loaded, reference, "store round-trip must be lossless");
    println!(
        "save/load     : {} tables across {} shards round-trip losslessly ✓",
        converted.len(),
        converted.num_shards()
    );

    std::fs::remove_dir_all(&dir).ok();
}
