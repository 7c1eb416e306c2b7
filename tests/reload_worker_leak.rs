//! Leak guard for `/reload` on a sharded server: every reload swaps in a
//! new snapshot and must drop the old one before it answers, and fifty of
//! them leave the process with the threads it had before the first. The
//! router runs each shard on the serving thread, so a reload starts no
//! thread at all; `tests/server_threads.rs` pins the exact count. Runs in
//! its own test binary because it counts the threads of the whole process.

use gittables_corpus::{save_store, AnnotatedTable, Corpus};
use gittables_serve::{HttpClient, ReloadResponse, ReloadSpec, Server, ServerConfig, ShardSet};
use gittables_table::Table;

/// `Threads:` of `/proc/self/status`; `None` where there is no `/proc`.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn fifty_reloads_of_a_four_shard_server_leak_no_threads() {
    let mut corpus = Corpus::new("reload-leak");
    for i in 0..8 {
        let attrs = [format!("col_{}", i % 3), "status".to_string()];
        let t = Table::from_rows(format!("t{i}"), &attrs, &[["a", "b"]]).unwrap();
        corpus.push(AnnotatedTable::new(t));
    }
    let dir = std::env::temp_dir().join(format!("gt_reload_leak_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    save_store(&corpus, &dir, 2).unwrap();

    let set = ShardSet::load(&dir, 4).unwrap();
    assert_eq!(set.num_shards(), 4);
    let handle = Server::start_set(
        set,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 0,
            reload: Some(ReloadSpec {
                dir: dir.clone(),
                shards: 4,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let search = "/search?q=status&k=3";
    let (status, want) = client.get(search).unwrap();
    assert_eq!(status, 200, "{want}");

    let before = process_threads();
    for generation in 1..=50 {
        let (status, body) = client.post("/reload").unwrap();
        assert_eq!(status, 200, "{body}");
        let ack: ReloadResponse = serde_json::from_str(&body).unwrap();
        assert_eq!((ack.generation, ack.shards), (generation, 4), "{body}");
        assert!(
            ack.drained,
            "reload {generation} left the old snapshot alive"
        );
        // The new snapshot's workers answer (and the old ones are not
        // needed to).
        let (status, body) = client.get(search).unwrap();
        assert_eq!((status, body.as_str()), (200, want.as_str()));
    }
    assert_eq!(
        process_threads(),
        before,
        "threads before the first reload vs after the fiftieth"
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
