//! A server with `threads: N` runs N threads — its workers, which accept,
//! read and answer their own connections — plus the `SIGHUP` watcher when
//! it has a store to reload from, and nothing else. Runs in its own test
//! binary because it counts the threads of the whole process.

use gittables_corpus::{save_store, AnnotatedTable, Corpus};
use gittables_serve::{client, ReloadSpec, Server, ServerConfig, ShardSet};
use gittables_table::Table;

/// Entries of `/proc/self/task`; `None` where there is no `/proc`.
fn process_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn a_server_runs_its_workers_and_the_reload_watcher_only() {
    let mut corpus = Corpus::new("server-threads");
    for i in 0..4 {
        let t = Table::from_rows(format!("t{i}"), &["id", "status"], &[["1", "a"]]).unwrap();
        corpus.push(AnnotatedTable::new(t));
    }
    let dir = std::env::temp_dir().join(format!("gt_server_threads_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    save_store(&corpus, &dir, 2).unwrap();

    let Some(before) = process_threads() else {
        return;
    };
    let reload = ReloadSpec {
        dir: dir.clone(),
        shards: 1,
    };
    // (workers, reload source, threads beyond the workers)
    for (threads, reload, watcher) in [(3, None, 0), (2, Some(reload), 1)] {
        // One shard: the router starts no shard threads.
        let handle = Server::start_set(
            ShardSet::load(&dir, 1).unwrap(),
            "127.0.0.1:0",
            ServerConfig {
                threads,
                reload,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let (status, body) = client::get(handle.addr(), "/health").unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            process_threads(),
            Some(before + threads + watcher),
            "threads: {threads}"
        );
        handle.shutdown();
        assert_eq!(process_threads(), Some(before), "threads left behind");
    }
    std::fs::remove_dir_all(&dir).ok();
}
