//! End-to-end serving demo: build a corpus straight into a sharded
//! store, boot a [`QueryEngine`] from it (the first boot writes the
//! store's missing `index.gtsc`, as `gittables index` would), serve it
//! over HTTP, and query it with the bundled client — the full
//! `gittables crawl` → `serve` loop in one process, on one directory.
//!
//! ```sh
//! cargo run --release --example serve_corpus
//! ```

use std::sync::Arc;

use gittables_core::{Pipeline, PipelineConfig};
use gittables_corpus::CorpusStore;
use gittables_githost::GitHost;
use gittables_serve::{get, QueryEngine, Server, ServerConfig};

fn main() {
    // Build once, straight into the store; the server boots from the
    // directory the pipeline wrote and never re-runs extraction.
    let pipeline = Pipeline::new(PipelineConfig::sized(21, 6, 12));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let dir = std::env::temp_dir().join(format!("gt_serve_example_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CorpusStore::create(&dir, pipeline.corpus_name()).expect("create store");
    pipeline.run_to_store(&host, &store).expect("build store");
    let engine = QueryEngine::load(&dir).expect("load store");
    assert_eq!(engine.build_stats().boot_path, "sidecar");
    let reason = engine.build_stats().fallback_reason.as_deref();
    assert_eq!(reason, Some("no_sidecar"), "the boot indexed the store");
    println!(
        "serving {} tables, {} semantic types",
        engine.num_tables(),
        engine.type_index().len()
    );

    let handle = Server::start(
        Arc::new(engine),
        "127.0.0.1:0",
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();
    println!("listening on http://{addr}\n");

    for target in [
        "/health",
        "/search?q=status+and+sales+amount+per+product&k=3",
        "/types",
        "/tables/0",
        "/metrics",
    ] {
        let (status, body) = get(addr, target).expect("request");
        let preview: String = body.chars().take(120).collect();
        println!("GET {target}\n  {status} {preview}...\n");
    }

    handle.shutdown();
    println!("server drained");
    std::fs::remove_dir_all(&dir).ok();
}
