//! A boot that finds a store's `index.gtsc` missing or stale writes it
//! from the store before serving. That write can fail (a read-only store,
//! a full disk) and can race another writer of the same store; either way
//! the outcome is a typed error or the reference answers, never a panic
//! and never a different body.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use gittables_corpus::{
    clear_failpoint, configure_failpoint, load_store, save_store, AnnotatedTable, Corpus,
    CorpusStore, FailMode, StoreError, SIDECAR_FILE,
};
use gittables_serve::{
    build_sidecars, get, HttpClient, QueryEngine, ReloadSpec, Server, ServerConfig, ShardSet,
};
use gittables_table::Table;

const SITE: &str = "store::manifest_write";

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gt_sidecar_rewrite_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn table(name: &str, columns: &[&str], value: &str) -> AnnotatedTable {
    let rows = vec![vec![value.to_string(); columns.len()]; 2];
    AnnotatedTable::new(Table::from_string_rows(name, columns, rows).unwrap())
}

fn corpus() -> Corpus {
    let mut c = Corpus::new("sidecar-rewrite");
    c.push(table("orders", &["order_id", "status", "total_price"], "1"));
    c.push(table("species", &["species", "habitat", "diet"], "fox"));
    c.push(table("staff", &["name", "salary"], "x"));
    c.push(table(
        "orders_2",
        &["order_id", "status", "total_price"],
        "2",
    ));
    c
}

const TARGETS: [&str; 6] = [
    "/health",
    "/search?q=order+status&k=3",
    "/complete?prefix=order_id&k=2",
    "/types",
    "/tables/0",
    "/tables/3",
];

/// The bodies every engine over the store at `dir` must serve.
fn engine_bodies(engine: &QueryEngine) -> Vec<String> {
    vec![
        serde_json::to_string(&engine.health()).unwrap(),
        serde_json::to_string(&engine.search("order status", 3)).unwrap(),
        serde_json::to_string(&engine.complete(&["order_id"], 2)).unwrap(),
        serde_json::to_string(&engine.type_counts()).unwrap(),
        serde_json::to_string(&engine.table_summary(0)).unwrap(),
        serde_json::to_string(&engine.table_summary(3)).unwrap(),
    ]
}

fn served_bodies(addr: std::net::SocketAddr) -> Vec<String> {
    TARGETS
        .iter()
        .map(|target| {
            let (status, body) = get(addr, target).expect(target);
            assert_eq!(status, 200, "{target}: {body}");
            body
        })
        .collect()
}

fn reference(dir: &Path) -> Vec<String> {
    engine_bodies(&QueryEngine::from_corpus(load_store(dir).unwrap()))
}

/// Commits one more shard, so an existing sidecar turns stale.
fn grow(dir: &Path) {
    let store = CorpusStore::open(dir).unwrap();
    let mut writer = store.begin_shard("grown").unwrap();
    writer
        .push(store.len(), &table("added", &["fresh_col"], "v"))
        .unwrap();
    store.commit_shard(writer.finish().unwrap()).unwrap();
}

/// `QueryEngine::load` with the sidecar write failing as `mode`.
fn load_failing(dir: &Path, mode: FailMode) -> Result<QueryEngine, StoreError> {
    configure_failpoint(SITE, mode, 1, Some(dir.to_str().unwrap()));
    let loaded = std::panic::catch_unwind(|| QueryEngine::load(dir));
    clear_failpoint(SITE);
    loaded.unwrap_or_else(|_| panic!("{mode:?}: the boot panicked"))
}

#[test]
fn a_boot_or_reload_that_cannot_write_the_sidecar_fails_typed() {
    // The one test of this binary that arms a failpoint: the registry is
    // process-wide, keyed by site.
    for mode in [FailMode::Err, FailMode::Short] {
        // No sidecar: the boot fails typed and leaves none.
        let dir = tmp(&format!("none_{mode:?}"));
        save_store(&corpus(), &dir, 2).unwrap();
        let refused = load_failing(&dir, mode);
        assert!(matches!(refused, Err(StoreError::Io(_))), "{mode:?}");
        assert!(!dir.join(SIDECAR_FILE).exists(), "{mode:?}");
        let engine = QueryEngine::load(&dir).unwrap();
        assert_eq!(engine_bodies(&engine), reference(&dir), "{mode:?}");
        std::fs::remove_dir_all(&dir).ok();

        // A stale sidecar: the boot fails typed and leaves it byte for
        // byte.
        let dir = tmp(&format!("stale_{mode:?}"));
        save_store(&corpus(), &dir, 2).unwrap();
        build_sidecars(&dir).unwrap();
        let old = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
        grow(&dir);
        let refused = load_failing(&dir, mode);
        assert!(matches!(refused, Err(StoreError::Io(_))), "{mode:?}");
        assert!(
            std::fs::read(dir.join(SIDECAR_FILE)).unwrap() == old,
            "{mode:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // A server already serving: a reload that has to write the sidecar
    // and cannot is the existing 500, and the old snapshot keeps serving.
    let dir = tmp("reload");
    save_store(&corpus(), &dir, 2).unwrap();
    let before = reference(&dir);
    let server = Server::start_set(
        ShardSet::load(&dir, 2).unwrap(),
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 0,
            reload: Some(ReloadSpec {
                dir: dir.clone(),
                shards: 2,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(served_bodies(server.addr()), before);
    grow(&dir);
    let old = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
    let mut admin = HttpClient::connect(server.addr()).unwrap();
    for mode in [FailMode::Err, FailMode::Short] {
        configure_failpoint(SITE, mode, 1, Some(dir.to_str().unwrap()));
        let (status, body) = admin.post("/reload").expect("reload");
        clear_failpoint(SITE);
        assert_eq!(status, 500, "{mode:?}: {body}");
        assert!(
            body.contains("reload failed, keeping current snapshot"),
            "{mode:?}: {body}"
        );
        assert!(std::fs::read(dir.join(SIDECAR_FILE)).unwrap() == old);
        assert_eq!(served_bodies(server.addr()), before, "{mode:?}");
    }
    let (status, body) = admin.post("/reload").expect("reload");
    assert_eq!(status, 200, "{body}");
    let after = reference(&dir);
    assert_ne!(after, before, "the grown store answers differently");
    assert_eq!(served_bodies(server.addr()), after);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_boots_racing_to_write_the_sidecar_serve_the_reference_or_refuse() {
    let dir = tmp("race");
    save_store(&corpus(), &dir, 1).unwrap();
    let want = reference(&dir);
    let mut served = 0;
    for round in 0..16 {
        std::fs::remove_file(dir.join(SIDECAR_FILE)).ok();
        let start = Arc::new(Barrier::new(2));
        let boots: Vec<Result<QueryEngine, StoreError>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let (start, dir) = (Arc::clone(&start), &dir);
                    s.spawn(move || {
                        start.wait();
                        QueryEngine::load(dir)
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("a boot panicked"))
                .collect()
        });
        // A refusal is any `StoreError`; what must never happen is an
        // engine with other answers.
        for engine in boots.into_iter().flatten() {
            assert_eq!(engine_bodies(&engine), want, "round {round}");
            served += 1;
        }
    }
    assert!(served > 0, "no boot of 32 served");
    let engine = QueryEngine::load(&dir).unwrap();
    assert_eq!(engine.build_stats().fallback_reason, None);
    assert_eq!(engine_bodies(&engine), want);
    std::fs::remove_dir_all(&dir).ok();
}
