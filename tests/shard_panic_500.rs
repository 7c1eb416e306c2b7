//! Query-time panic isolation: a shard query that panics must turn into
//! a typed HTTP 500 (with the panic counted in `/metrics` as
//! `shard_errors`) — never a hung request or a dead server. Runs in its
//! own test binary because the panic is injected via the process-wide
//! `GITTABLES_PANIC_SHARD` hook, which must not race other tests' router
//! calls, and because it counts the threads of the whole process. Every
//! shard's query runs on the server worker that took the request, so the
//! panic is caught on that worker: the test pins that it costs no thread,
//! and that no thread appears to replace one — the process runs as many
//! threads after the hook is unset as before it was set.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gittables_corpus::{save_store, AnnotatedTable, Corpus};
use gittables_serve::{client, MetricsSnapshot, Router, Server, ServerConfig, ShardSet};
use gittables_table::{Provenance, Table};

fn corpus() -> Corpus {
    let mut c = Corpus::new("panic500");
    for ti in 0..6 {
        let rows: Vec<Vec<String>> = (0..4)
            .map(|r| (0..3).map(|col| format!("cell {ti} {r} {col}")).collect())
            .collect();
        let t = Table::from_string_rows(format!("t{ti}"), &["col0", "status", "price"], rows)
            .unwrap()
            .with_provenance(Provenance::new(format!("o/r{ti}"), format!("t{ti}.csv")));
        c.push(AnnotatedTable::new(t));
    }
    c
}

/// Entries of `/proc/self/task`; `None` where there is no `/proc`.
fn process_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn panicking_shard_returns_typed_500_and_server_survives() {
    let dir = std::env::temp_dir().join(format!("gt_panic500_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    save_store(&corpus(), &dir, 2).unwrap();

    let set = ShardSet::load(&dir, 2).unwrap();
    assert_eq!(set.num_shards(), 2);
    let handle = Server::start_set(
        set,
        "127.0.0.1:0",
        ServerConfig {
            // No response cache: the panic must not be masked by a cached
            // answer for the same target.
            cache_capacity: 0,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let (status, _) = client::get(addr, "/search?q=status&k=3").unwrap();
    assert_eq!(status, 200, "baseline query must succeed");
    let complete = "/complete?prefix=col&k=3";
    let one_shard = Router::new(ShardSet::load(&dir, 1).unwrap());
    let complete_body = serde_json::to_string(&one_shard.complete(&["col"], 3).unwrap()).unwrap();
    assert!(complete_body.contains("col0"), "{complete_body}");

    let threads_before = process_threads();

    // Arm the hook: shard 1's query panics on every fan-out.
    std::env::set_var("GITTABLES_PANIC_SHARD", "1");
    // Meanwhile a second client keeps asking for what a poisoned shard 1
    // cannot touch; none of it may fail or stall behind the panics.
    let poisoned = Arc::new(AtomicBool::new(true));
    let bystander = {
        let (poisoned, complete_body) = (Arc::clone(&poisoned), complete_body.clone());
        std::thread::spawn(move || {
            let mut client = client::HttpClient::connect(addr).expect("bystander connect");
            let mut served = 0;
            while poisoned.load(Ordering::SeqCst) || served == 0 {
                let (status, body) = client.get(complete).expect("bystander /complete");
                assert_eq!((status, body.as_str()), (200, complete_body.as_str()));
                let (status, body) = client.get("/tables/0").expect("bystander /tables/0");
                assert_eq!(status, 200, "{body}");
                served += 2;
            }
            served
        })
    };
    for target in ["/search?q=status&k=3", "/types"] {
        let (status, body) = client::get(addr, target).unwrap();
        assert_eq!(status, 500, "{target}: {body}");
        assert!(
            body.contains("panicked"),
            "{target}: 500 body must name the panic, got: {body}"
        );
    }
    // `/complete` does not fan out — the completion index is
    // corpus-global — so a poisoned shard 1 cannot touch it: the answer
    // is the 1-shard engine's, byte for byte.
    let (status, body) = client::get(addr, complete).unwrap();
    assert_eq!(status, 200, "{complete}: {body}");
    assert_eq!(body, complete_body);
    std::env::remove_var("GITTABLES_PANIC_SHARD");
    poisoned.store(false, Ordering::SeqCst);
    assert!(bystander.join().expect("bystander thread") > 0);

    // The panics were counted, and the server keeps serving normally.
    let (status, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let snap: MetricsSnapshot = serde_json::from_str(&body).unwrap();
    assert_eq!(snap.shard_errors, 2, "{body}");
    let (status, _) = client::get(addr, "/search?q=status&k=3").unwrap();
    assert_eq!(status, 200, "server must recover once the hook is unset");
    // ...on the same threads: each panic was caught on the worker that
    // ran the query, which was neither lost nor replaced.
    assert_eq!(process_threads(), threads_before);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
