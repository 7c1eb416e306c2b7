//! Persistence throughput: the sharded store (streaming writes, parallel
//! loads) against the monolithic single-file JSON of `corpus::persist`.

use std::path::PathBuf;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gittables_core::{Pipeline, PipelineConfig};
use gittables_corpus::persist::{load_corpus, save_corpus};
use gittables_corpus::store::{load_store, save_store};
use gittables_githost::GitHost;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gt_bench_store_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("bench dir");
    dir
}

fn bench_store(c: &mut Criterion) {
    let pipeline = Pipeline::new(PipelineConfig::sized(17, 3, 10));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);

    let dir = bench_dir("rw");
    let json_path = dir.join("corpus.json");
    let store_dir = dir.join("store");

    let mut group = c.benchmark_group("persistence");
    group.sample_size(10);
    group.bench_function("save_monolithic_json", |b| {
        b.iter(|| {
            save_corpus(black_box(&corpus), &json_path).expect("save");
        });
    });
    group.bench_function("save_store_sharded", |b| {
        b.iter(|| {
            std::fs::remove_dir_all(&store_dir).ok();
            save_store(black_box(&corpus), &store_dir, 16).expect("save store");
        });
    });
    // Leave one copy of each on disk for the load benchmarks.
    save_corpus(&corpus, &json_path).expect("save");
    std::fs::remove_dir_all(&store_dir).ok();
    save_store(&corpus, &store_dir, 16).expect("save store");
    group.bench_function("load_monolithic_json", |b| {
        b.iter(|| black_box(load_corpus(&json_path).expect("load")));
    });
    group.bench_function("load_store_parallel", |b| {
        b.iter(|| black_box(load_store(&store_dir).expect("load store")));
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
