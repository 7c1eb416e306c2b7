//! Integration tests for the `gittables_serve` subsystem: every endpoint's
//! JSON must be byte-identical to the corresponding in-process engine call
//! on the same stored corpus, under serial and concurrent access, and
//! graceful shutdown must not lose accepted requests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gittables_core::{Pipeline, PipelineConfig};
use gittables_githost::GitHost;
use gittables_serve::{
    get, ErrorResponse, HttpClient, MetricsSnapshot, QueryEngine, Server, ServerConfig,
};

fn corpus(seed: u64) -> gittables_corpus::Corpus {
    let pipeline = Pipeline::new(PipelineConfig::sized(seed, 6, 12));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    pipeline.run(&host).0
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gt_serve_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Starts a server over a store-loaded engine and returns both.
fn served_engine(
    seed: u64,
    tag: &str,
    config: ServerConfig,
) -> (
    Arc<QueryEngine>,
    gittables_serve::ServerHandle,
    std::path::PathBuf,
) {
    let c = corpus(seed);
    let dir = tmp(tag);
    gittables_corpus::save_store(&c, &dir, 32).expect("save store");
    let engine = Arc::new(QueryEngine::load(&dir).expect("load store"));
    // Loading must reproduce the corpus bit-identically (no sidecars
    // were written, so this boots via the materialized rebuild path).
    assert_eq!(engine.corpus(), Some(&c));
    let handle = Server::start(engine.clone(), "127.0.0.1:0", config).expect("bind");
    (engine, handle, dir)
}

#[test]
fn every_endpoint_equals_in_process_answer() {
    let (engine, handle, dir) = served_engine(71, "equiv", ServerConfig::default());
    let addr = handle.addr();

    // A label and table id that actually exist in this corpus.
    let label = engine
        .type_index()
        .labels()
        .first()
        .cloned()
        .expect("annotated corpus");
    let last_id = engine.num_tables() - 1;

    // (target, expected in-process JSON) pairs covering every endpoint.
    let label_path = label.replace(' ', "%20");
    let cases: Vec<(String, String)> = vec![
        (
            "/health".to_string(),
            serde_json::to_string(&engine.health()).unwrap(),
        ),
        (
            "/search?q=status+and+sales+amount+per+product&k=5".to_string(),
            serde_json::to_string(&engine.search("status and sales amount per product", 5))
                .unwrap(),
        ),
        (
            "/search?q=species%20observed&k=3".to_string(),
            serde_json::to_string(&engine.search("species observed", 3)).unwrap(),
        ),
        (
            "/complete?prefix=order_id,order_date&k=4".to_string(),
            serde_json::to_string(&engine.complete(&["order_id", "order_date"], 4)).unwrap(),
        ),
        (
            "/complete?prefix=id&k=2".to_string(),
            serde_json::to_string(&engine.complete(&["id"], 2)).unwrap(),
        ),
        (
            "/types".to_string(),
            serde_json::to_string(&engine.type_counts()).unwrap(),
        ),
        (
            format!("/types/{label_path}/tables"),
            serde_json::to_string(&engine.type_tables(&label).unwrap()).unwrap(),
        ),
        (
            "/tables/0".to_string(),
            serde_json::to_string(&engine.table_summary(0).unwrap()).unwrap(),
        ),
        (
            format!("/tables/{last_id}"),
            serde_json::to_string(&engine.table_summary(last_id).unwrap()).unwrap(),
        ),
    ];
    for (target, expected) in &cases {
        let (status, body) = get(addr, target).expect("request");
        assert_eq!(status, 200, "{target}");
        assert_eq!(&body, expected, "served JSON diverged for {target}");
    }

    // Repeat through one keep-alive connection: cache replay must serve
    // the exact same bytes.
    let mut ka = HttpClient::connect(addr).expect("connect");
    for (target, expected) in &cases {
        let (status, body) = ka.get(target).expect("keep-alive request");
        assert_eq!(status, 200);
        assert_eq!(&body, expected, "cached replay diverged for {target}");
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_statuses_and_bodies() {
    let (_engine, handle, dir) = served_engine(72, "errors", ServerConfig::default());
    let addr = handle.addr();

    let cases = [
        ("/search?k=3", 400),              // missing q
        ("/search?q=x&k=notanumber", 400), // bad k
        ("/complete?k=2", 400),            // missing prefix
        ("/types/zzz_not_a_type/tables", 404),
        ("/tables/notanid", 400),
        ("/tables/99999999", 404),
        ("/absolutely/unrouted", 404),
    ];
    for (target, expected_status) in cases {
        let (status, body) = get(addr, target).expect("request");
        assert_eq!(status, expected_status, "{target}: {body}");
        let err: ErrorResponse = serde_json::from_str(&body).expect("error body is JSON");
        assert!(!err.error.is_empty(), "{target}");
    }

    // Non-GET methods are rejected with 405 (raw socket: the client
    // helper only speaks GET).
    let mut s = TcpStream::connect(addr).unwrap();
    // `Connection: close` so read_to_string returns as soon as the 405
    // is written instead of waiting out the keep-alive timeout.
    s.write_all(b"DELETE /types HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");

    // A malformed request line gets 400, not a hang or a panic.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    // Protocol-level failures (405, malformed 400) are visible in
    // /metrics alongside the routed errors: 7 routed + 2 protocol.
    let snap = handle.metrics_snapshot();
    assert!(snap.client_errors >= 9, "{snap:?}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_report_counts_latency_and_cache() {
    let (_engine, handle, dir) = served_engine(73, "metrics", ServerConfig::default());
    let addr = handle.addr();

    let target = "/search?q=employee+salaries&k=3";
    let (s1, first) = get(addr, target).expect("first");
    let (s2, second) = get(addr, target).expect("second");
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(first, second, "cache replay must be byte-identical");
    get(addr, "/no/such/route").expect("404 route");

    let (status, body) = get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let snap: MetricsSnapshot = serde_json::from_str(&body).expect("metrics JSON");
    assert!(snap.total_requests >= 3, "{snap:?}");
    assert!(snap.client_errors >= 1, "{snap:?}");
    let search = snap
        .requests
        .iter()
        .find(|r| r.endpoint == "search")
        .unwrap();
    assert_eq!(search.count, 2, "{snap:?}");
    assert!(snap.cache.hits >= 1, "second request must hit: {snap:?}");
    assert!(snap.cache.entries >= 1);
    // The one query that reached the engine embedded its two words
    // through the snapshot's word-vector memo.
    let memo = snap.word_memo;
    assert!(
        memo.hits + memo.misses >= 2 && memo.entries >= 1,
        "{snap:?}"
    );
    assert!(memo.entries <= memo.misses, "{snap:?}");
    // Handler latencies are recorded: the histogram produced quantiles.
    assert!(snap.p99_us >= snap.p50_us);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_get_byte_identical_answers() {
    let (engine, handle, dir) = served_engine(
        74,
        "conc",
        ServerConfig {
            threads: 4,
            cache_capacity: 0, // exercise the full handler path on every request
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Expected bodies computed serially, in-process.
    let queries = [
        "status and sales amount per product",
        "species observed per country",
        "employee names and salaries",
        "match scores per team and season",
        "order id and total price",
        "habitat of species",
    ];
    let expected: Vec<(String, String)> = queries
        .iter()
        .map(|q| {
            (
                format!("/search?q={}&k=5", q.replace(' ', "+")),
                serde_json::to_string(&engine.search(q, 5)).unwrap(),
            )
        })
        .collect();

    let expected = Arc::new(expected);
    let mut threads = Vec::new();
    for t in 0..8 {
        let expected = expected.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            for i in 0..30 {
                let (target, want) = &expected[(t + i) % expected.len()];
                let (status, body) = client.get(target).expect("request");
                assert_eq!(status, 200, "{target}");
                assert_eq!(
                    &body, want,
                    "thread {t} iteration {i} diverged for {target}"
                );
            }
        }));
    }
    for th in threads {
        th.join().expect("hammer thread");
    }

    let snap = handle.metrics_snapshot();
    assert!(snap.total_requests >= 8 * 30, "{snap:?}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_under_load_loses_no_accepted_request() {
    let (engine, handle, dir) = served_engine(
        75,
        "drain",
        ServerConfig {
            threads: 3,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let target = "/search?q=status+and+sales&k=4";
    let expected = serde_json::to_string(&engine.search("status and sales", 4)).unwrap();

    let shutting_down = Arc::new(AtomicBool::new(false));
    let successes = Arc::new(AtomicUsize::new(0));
    let mut threads = Vec::new();
    for _ in 0..4 {
        let shutting_down = shutting_down.clone();
        let successes = successes.clone();
        let expected = expected.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = match HttpClient::connect(addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            loop {
                match client.get(target) {
                    Ok((status, body)) => {
                        // Every response ever received must be complete and
                        // correct — a drained server may refuse new work but
                        // never truncates or corrupts an answered request.
                        assert_eq!(status, 200);
                        assert_eq!(body, expected, "response corrupted");
                        successes.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {
                        // Failures may only happen once shutdown began.
                        assert!(
                            shutting_down.load(Ordering::SeqCst),
                            "request failed before shutdown was requested"
                        );
                        return;
                    }
                }
            }
        }));
    }

    // Let the hammer run, then drain mid-load.
    std::thread::sleep(std::time::Duration::from_millis(300));
    shutting_down.store(true, Ordering::SeqCst);
    handle.request_shutdown();
    for t in threads {
        t.join().expect("client thread");
    }
    assert!(
        successes.load(Ordering::SeqCst) > 0,
        "hammer never got a response"
    );
    handle.join();

    // Fully drained: new connections are refused (or reset immediately).
    assert!(
        get(addr, "/health").is_err(),
        "server still answering after drain"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_endpoint_not_starved_by_persistent_keep_alive_clients() {
    // Regression: with every worker busy with a long-lived keep-alive
    // connection, a queued /shutdown connection must still get picked up
    // — a worker reads each of its connections once per readiness and
    // accepts between them, so no client owns a worker.
    let (_engine, handle, dir) = served_engine(
        78,
        "starve",
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for _ in 0..2 {
        let stop = stop.clone();
        hammers.push(std::thread::spawn(move || {
            // HttpClient reconnects transparently should the server
            // recycle the connection, keeping the workers saturated.
            let mut client = match HttpClient::connect(addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            while !stop.load(Ordering::SeqCst) {
                if client.get("/health").is_err() {
                    return; // server draining
                }
            }
        }));
    }

    // Give the hammers time to pin both workers, then ask a third
    // client for a graceful drain; it must not hang.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let (status, body) = get(addr, "/shutdown").expect("shutdown not starved");
    assert_eq!(status, 200, "{body}");
    handle.join();
    stop.store(true, Ordering::SeqCst);
    for h in hammers {
        h.join().expect("hammer thread");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_connections_beyond_the_worker_count_pin_no_worker() {
    // 64 clients connect and say nothing. Were a worker to block reading
    // a connection, the first two would hold both workers until the
    // keep-alive timeout; waiting in their workers' poll sets they hold
    // none, so a 65th client is answered at once — and every one of the
    // 64 is still served when it finally speaks.
    let (_engine, handle, dir) = served_engine(
        81,
        "idle",
        ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();

    let (status, body) = get(addr, "/health").expect("65th client starved");
    assert_eq!(status, 200, "{body}");

    for (i, mut s) in idle.into_iter().enumerate() {
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp)
            .unwrap_or_else(|e| panic!("idle client {i} unanswered: {e}"));
        assert!(resp.starts_with("HTTP/1.1 200"), "idle client {i}: {resp}");
        assert!(resp.ends_with(&body), "idle client {i}: {resp}");
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_endpoint_drains_the_server() {
    let (_engine, handle, dir) = served_engine(76, "shutdownep", ServerConfig::default());
    let addr = handle.addr();

    let (status, body) = get(addr, "/shutdown").expect("shutdown request");
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");

    // join() must return on its own: the endpoint triggered the drain.
    handle.join();
    assert!(get(addr, "/health").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chunked_requests_rejected_with_501_and_close() {
    // Regression: the server frames bodies by Content-Length only. A
    // chunked request used to be parsed as if it had no body, leaving
    // the chunk bytes in the connection buffer to be misread as the
    // next request (framing desync). It must now be refused loudly and
    // the connection closed.
    let (_engine, handle, dir) = served_engine(79, "chunked", ServerConfig::default());
    let addr = handle.addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        b"POST /search HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
          5\r\nhello\r\n0\r\n\r\n",
    )
    .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap(); // EOF: server closed
    assert!(resp.starts_with("HTTP/1.1 501"), "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");
    // Exactly one response: the chunk body bytes were NOT interpreted
    // as a second (phantom) request.
    assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");

    // The server remains healthy for the next, fresh connection.
    let (status, _) = get(addr, "/health").expect("fresh connection after 501");
    assert_eq!(status, 200);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_requests_in_one_segment_answered_in_order() {
    // Two complete requests written in a single TCP segment: both must
    // be answered, in order, each byte-identical to the in-process
    // engine's answer — the buffered second request must survive the
    // first response (and must not be lost waiting for a readiness that
    // its already-read bytes will never raise).
    let (engine, handle, dir) = served_engine(80, "pipeline", ServerConfig::default());
    let addr = handle.addr();

    let expected_health = serde_json::to_string(&engine.health()).unwrap();
    let expected_search = serde_json::to_string(&engine.search("total price", 3)).unwrap();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n\
          GET /search?q=total+price&k=3 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert_eq!(resp.matches("HTTP/1.1 200").count(), 2, "{resp}");

    // Walk the byte stream response by response, framing each body by
    // its Content-Length — exactly what a pipelining client would do.
    let mut rest = resp.as_str();
    let mut bodies = Vec::new();
    while let Some(head_end) = rest.find("\r\n\r\n") {
        let head = &rest[..head_end];
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .unwrap();
        let body_start = head_end + 4;
        bodies.push(&rest[body_start..body_start + len]);
        rest = &rest[body_start + len..];
    }
    assert_eq!(bodies.len(), 2, "{resp}");
    assert_eq!(bodies[0], expected_health, "first pipelined response");
    assert_eq!(bodies[1], expected_search, "second pipelined response");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn smoke_health_and_search_roundtrip() {
    // The CI smoke test in miniature: ephemeral port, /health, one
    // /search, valid JSON, drain.
    let (engine, handle, dir) = served_engine(77, "smoke", ServerConfig::default());
    let addr = handle.addr();

    let (status, body) = get(addr, "/health").expect("health");
    assert_eq!(status, 200);
    let health: gittables_serve::HealthResponse = serde_json::from_str(&body).expect("json");
    assert_eq!(health.status, "ok");
    assert_eq!(health.tables, engine.num_tables());

    let (status, body) = get(addr, "/search?q=total+price&k=3").expect("search");
    assert_eq!(status, 200);
    let hits: Vec<gittables_core::apps::SearchHit> = serde_json::from_str(&body).expect("json");
    assert!(hits.len() <= 3);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Sends a raw request on a fresh connection and reads until the server
/// closes it.
fn read_to_close(mut s: TcpStream) -> String {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("response, then close");
    resp
}

#[test]
fn a_half_sent_request_pins_no_worker() {
    // Regression (slowloris): on the only worker, a client that sends
    // part of a head and stops must not stall anyone else while it waits
    // out its deadline — then it is closed, unanswered.
    let (_engine, handle, dir) = served_engine(
        82,
        "slowloris",
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"GET /hea").unwrap();
    let stalled_since = Instant::now();
    std::thread::sleep(Duration::from_millis(100));

    let asked = Instant::now();
    let (status, body) = get(addr, "/health").expect("neighbour answered");
    assert_eq!(status, 200, "{body}");
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "/health waited {:?} behind a half-sent request",
        asked.elapsed()
    );

    // A head that arrives in two halves is still one request.
    let mut halves = TcpStream::connect(addr).unwrap();
    halves.write_all(b"GET /health HTTP/1.1\r\nHo").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    halves
        .write_all(b"st: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let resp = read_to_close(halves);
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.ends_with(&body), "{resp}");

    // The stalled request is closed, unanswered, once its 5 s deadline
    // has passed.
    let resp = read_to_close(stalled);
    assert_eq!(resp, "", "a partial request got an answer");
    assert!(
        stalled_since.elapsed() >= Duration::from_millis(4900),
        "closed before its deadline: {:?}",
        stalled_since.elapsed()
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_answers_a_partially_received_request() {
    let (engine, handle, dir) = served_engine(83, "halfdrain", ServerConfig::default());
    let addr = handle.addr();
    let expected = serde_json::to_string(&engine.health()).unwrap();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    handle.request_shutdown();
    std::thread::sleep(Duration::from_millis(200));
    s.write_all(b"\r\n").unwrap();
    let resp = read_to_close(s);
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");
    assert!(resp.ends_with(&expected), "{resp}");

    let joined = std::thread::spawn(move || handle.join());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !joined.is_finished() {
        assert!(Instant::now() < deadline, "join() never returned");
        std::thread::sleep(Duration::from_millis(10));
    }
    joined.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn health_beside_a_slow_search_is_always_answered() {
    // The known trade of worker-owned connections, measured: one client
    // hammers the slowest `/search` this corpus has (every table
    // ranked and returned, cache off) while a second connection asks for
    // `/health` 500 times. Every probe must be answered; the latencies
    // are printed (`--nocapture`) for the README.
    let (engine, handle, dir) = served_engine(
        84,
        "neighbour",
        ServerConfig {
            threads: 2,
            cache_capacity: 0,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let slow = format!(
        "/search?q=status+and+sales+amount+per+product+species+observed+per+country&k={}",
        engine.num_tables()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let (mut served, started) = (0u32, Instant::now());
            while !stop.load(Ordering::SeqCst) {
                let (status, body) = client.get(&slow).expect("slow search");
                assert_eq!(status, 200, "{body}");
                served += 1;
            }
            started.elapsed() / served.max(1)
        })
    };

    let mut probe = HttpClient::connect(addr).expect("connect");
    let mut latencies: Vec<Duration> = (0..500)
        .map(|i| {
            let asked = Instant::now();
            let (status, body) = probe.get("/health").expect("probe answered");
            assert_eq!(status, 200, "probe {i}: {body}");
            asked.elapsed()
        })
        .collect();
    stop.store(true, Ordering::SeqCst);
    let per_search = hammer.join().expect("hammer");

    latencies.sort_unstable();
    println!(
        "/health beside a slow /search ({} µs each): p50 {} µs, p99 {} µs",
        per_search.as_micros(),
        latencies[latencies.len() / 2].as_micros(),
        latencies[latencies.len() * 99 / 100].as_micros()
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
