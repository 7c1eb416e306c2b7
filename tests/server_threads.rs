//! A server with `threads: N` runs N threads — its workers, which accept,
//! read and answer their own connections and run every shard's share of
//! a fan-out themselves — plus the `SIGHUP` watcher when it has a store
//! to reload from, and nothing else: at every shard count, and across
//! reloads. Runs in its own test binary because it counts the threads of
//! the whole process.

use gittables_corpus::{save_store, AnnotatedTable, Corpus};
use gittables_serve::{HttpClient, ReloadResponse, ReloadSpec, Server, ServerConfig, ShardSet};
use gittables_table::Table;

/// Entries of `/proc/self/task`; `None` where there is no `/proc`.
fn process_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

/// [`process_threads`] once it reads `want`, or its last reading after
/// 2 s: a thread that has been joined can still be listed for a moment
/// while the kernel tears it down.
fn threads_settled_at(want: usize) -> Option<usize> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let now = process_threads();
        if now == Some(want) || std::time::Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn a_server_runs_its_workers_and_the_reload_watcher_only() {
    let mut corpus = Corpus::new("server-threads");
    for i in 0..8 {
        let attrs = [format!("col_{}", i % 3), "status".to_string()];
        let t = Table::from_rows(format!("t{i}"), &attrs, &[["a", "b"]]).unwrap();
        corpus.push(AnnotatedTable::new(t));
    }
    let dir = std::env::temp_dir().join(format!("gt_server_threads_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    save_store(&corpus, &dir, 2).unwrap();

    let Some(before) = process_threads() else {
        return;
    };
    let search = "/search?q=status&k=3";
    // (workers, shards, reloadable from the store)
    for (threads, shards, reloadable) in [(3, 1, false), (2, 1, true), (2, 4, true)] {
        let set = ShardSet::load(&dir, shards).unwrap();
        assert_eq!(set.num_shards(), shards);
        let handle = Server::start_set(
            set,
            "127.0.0.1:0",
            ServerConfig {
                threads,
                // Every `/search` reaches the router.
                cache_capacity: 0,
                reload: reloadable.then(|| ReloadSpec {
                    dir: dir.clone(),
                    shards,
                }),
            },
        )
        .unwrap();
        let expected = Some(before + threads + usize::from(reloadable));
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let (status, want) = client.get(search).unwrap();
        assert_eq!(status, 200, "{want}");
        assert_eq!(
            process_threads(),
            expected,
            "threads: {threads}, shards: {shards}"
        );
        if reloadable {
            for generation in 1..=10 {
                let (status, body) = client.post("/reload").unwrap();
                assert_eq!(status, 200, "{body}");
                let ack: ReloadResponse = serde_json::from_str(&body).unwrap();
                assert_eq!(
                    (ack.generation, ack.shards, ack.drained),
                    (generation, shards, true),
                    "{body}"
                );
                let (status, body) = client.get(search).unwrap();
                assert_eq!((status, body.as_str()), (200, want.as_str()));
            }
            assert_eq!(
                process_threads(),
                expected,
                "after 10 reloads, shards: {shards}"
            );
        }
        drop(client);
        handle.shutdown();
        assert_eq!(
            threads_settled_at(before),
            Some(before),
            "threads left behind"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
