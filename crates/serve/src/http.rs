//! Hand-rolled HTTP/1.1 server on [`std::net::TcpListener`].
//!
//! No external dependencies: a fixed pool of worker threads speaks just
//! enough HTTP/1.1 (GET + keep-alive + `Content-Length`) to serve the
//! JSON API. Requests with `Transfer-Encoding` are rejected with `501`
//! and `Connection: close` — never silently misframed.
//!
//! ## Concurrency model
//!
//! Each of the `threads` workers owns a level-triggered `poll(2)` set
//! ([`gittables_sys::PollSet`]) and serves every connection it accepted
//! on its own thread, from accept to close: a connection never changes
//! threads. A worker's set holds the shared listener (non-blocking), the
//! read end of the shared shutdown [`event::Waker`], and the worker's
//! own connections. That is the only model, on every unix.
//!
//! - **Accept spread.** A readable listener wakes every worker, and each
//!   accepts at most one connection per wake; the others take the rest,
//!   so connections spread over the workers.
//! - **Reads on readiness only.** A worker reads a connection only when
//!   `poll` has reported it readable, once per readiness, then answers
//!   every complete request in its buffer. A connection that is idle, or
//!   holds only part of a request, stays in the set and costs no thread:
//!   a client that sends half a request and stops holds its slot and
//!   nothing else, until the worker's sweep (once per `POLL_INTERVAL`)
//!   closes it at `REQUEST_DEADLINE` — or, idle, at
//!   `KEEP_ALIVE_TIMEOUT`.
//! - **The known trade.** A connection waits for the worker that owns
//!   it. While that worker runs a slow query, or a `POST /reload` (which
//!   holds it through load and drain), its other connections wait even
//!   if another worker is free. The README's *Serving* section gives the
//!   measured `/health` latency beside a slow `/search`.
//!
//! `poll` hands the kernel the whole set on every wake, so a request
//! costs O(connections of its worker) — measured at 50-100 microseconds
//! per thousand idle connections, and paid by no workload the benchmark
//! or the tests run.
//!
//! Queries run against an immutable snapshot ([`crate::router::Router`]
//! over a [`ShardSet`]) shared behind an `Arc` — request handling never
//! locks the corpus or its indexes; the only shared mutable state is
//! the snapshot pointer (one short-lived mutex per request), the
//! response cache, and the metrics (plain atomics).
//!
//! ## Live reload
//!
//! `POST /reload` (or `SIGHUP`, when the server was started from a
//! store directory) loads a fresh [`ShardSet`] from the store — same
//! validation as a cold boot, reading whatever manifest the last
//! atomic commit rename left, and rewriting a sidecar that commit made
//! stale (a failed rewrite fails the reload, and the current snapshot
//! keeps serving) — and swaps it in under the
//! snapshot lock. In-flight requests keep the old snapshot alive via
//! their `Arc` clones; the handler waits for them to drain (bounded)
//! before letting the old mappings drop. The snapshot carries its
//! generation, a request hands the generation it pinned to the response
//! cache, and the reload moves the cache to the new generation right
//! after the swap — so a request still running against the old snapshot
//! can neither be served from nor leave a body in the new one's cache.
//! Zero requests are dropped or answered from a half-swapped state:
//! every request runs entirely against one snapshot.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::request_shutdown`] (or the `/shutdown` endpoint)
//! flips an atomic flag and wakes the shared waker once. The waker is
//! never drained, so every worker's wait returns and sees the flag. A
//! worker then stops accepting and closes its idle connections. It keeps
//! polling only the connections that hold part of a request, until each
//! request is answered with `Connection: close` or passes
//! `REQUEST_DEADLINE`; then it exits. No request that has begun to
//! arrive is abandoned mid-flight.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gittables_sys::PollSet;
use serde::{Deserialize, Serialize};

use crate::cache::{CachedResponse, ResponseCache};
use crate::engine::QueryEngine;
use crate::event;
use crate::metrics::{Endpoint, Metrics, MetricsSnapshot};
use crate::router::Router;
use crate::shardset::ShardSet;
use crate::unpoisoned;

/// Maximum accepted request head (request line + headers) in bytes.
const MAX_HEAD: usize = 16 * 1024;

/// Maximum accepted request body in bytes (bodies are read and ignored).
const MAX_BODY: usize = 64 * 1024;

/// How long a partially-received request may dribble in before the
/// connection is dropped. Doubles as the bound on the reload drain wait.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// The tick of every wait that must notice time passing: a worker's
/// readiness wait (its sweep of expired connections runs once per tick),
/// the bound on a connection read should a readiness prove spurious, and
/// the reload watcher's sleep between `SIGHUP` checks.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long an idle keep-alive connection is kept open.
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests served per connection before it is recycled with
/// `Connection: close`. A worker reads a connection once per readiness,
/// so not even a client that pipelines without pause holds its worker
/// past one read's worth of requests; the cap makes a long-lived client
/// reconnect, which spreads its connection afresh over the workers.
const MAX_REQUESTS_PER_CONNECTION: usize = 256;

/// JSON body used for every non-2xx response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable description of what was wrong with the request.
    pub error: String,
}

/// `/shutdown` acknowledgement body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownResponse {
    /// Always `"draining"`.
    pub status: String,
}

/// `POST /reload` acknowledgement body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// Always `"reloaded"` on success.
    pub status: String,
    /// Snapshot generation now serving (starts at 0, +1 per reload).
    pub generation: u64,
    /// Shard-local engines in the new snapshot.
    pub shards: usize,
    /// Tables in the new snapshot.
    pub tables: usize,
    /// Whether every in-flight request on the old snapshot finished
    /// before this response (the old mappings are gone); `false` means
    /// a straggler still held the old snapshot when the bounded drain
    /// wait expired — it drops the mappings when it completes.
    pub drained: bool,
}

/// Where `/reload` and `SIGHUP` re-load the corpus from.
#[derive(Debug, Clone)]
pub struct ReloadSpec {
    /// The store directory to re-open.
    pub dir: PathBuf,
    /// Shard-local engines to split the snapshot into.
    pub shards: usize,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub threads: usize,
    /// Response-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// When set, `POST /reload` and `SIGHUP` re-load the corpus from
    /// this store and swap it in atomically. `None` (e.g. a server over
    /// an in-memory corpus) answers `/reload` with `409`.
    pub reload: Option<ReloadSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            cache_capacity: 1024,
            reload: None,
        }
    }
}

/// Everything the workers, the reload watcher and the handle share.
struct Shared {
    /// The serving snapshot and its generation (0 at boot, +1 per
    /// successful reload), one pair under one lock. Each request clones
    /// the `Arc` once (one short mutex hold) and runs entirely against
    /// that snapshot; `/reload` swaps the pair.
    snapshot: Mutex<(Arc<Router>, u64)>,
    /// Serializes reloads (concurrent `/reload` + `SIGHUP` must not
    /// interleave their load/swap/drain sequences).
    reload_mutex: Mutex<()>,
    metrics: Metrics,
    cache: ResponseCache,
    shutdown: AtomicBool,
    /// Sits in every worker's set; woken once, on shutdown, and never
    /// drained.
    waker: event::Waker,
    addr: SocketAddr,
    config: ServerConfig,
}

impl Shared {
    /// The current snapshot and its generation (one short lock hold,
    /// then lock-free).
    fn snapshot(&self) -> (Arc<Router>, u64) {
        unpoisoned(self.snapshot.lock()).clone()
    }
}

/// Flips the shutdown flag once and wakes every worker: the waker is
/// never drained, so each worker's wait returns until it drops the waker
/// from its set.
fn trigger_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        shared.waker.wake();
    }
}

// ------------------------------------------------------------------ workers

/// A connection plus its cross-request state. It lives in the set of
/// the worker that accepted it until it closes.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed (possibly a partial or pipelined
    /// request).
    buf: Vec<u8>,
    /// How much of `buf` the head search has seen without finding the
    /// end of a head; 0 again once a request is consumed.
    scanned: usize,
    /// Requests served on this connection so far.
    served: usize,
    /// Start of the current idle period / request (drives the
    /// keep-alive timeout and the dribble deadline).
    idle_since: Instant,
}

impl Conn {
    /// Adopts an accepted stream, setting its socket options once for
    /// the connection's lifetime.
    fn new(stream: TcpStream) -> Self {
        // Where an accepted socket inherits the listener's non-blocking
        // flag (the BSDs), clear it: writes block, bounded below.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        // A client that never reads its response must not pin a worker
        // forever once the socket send buffer fills: bound every write.
        let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
        Conn {
            stream,
            buf: Vec::new(),
            scanned: 0,
            served: 0,
            idle_since: Instant::now(),
        }
    }

    /// Whether the connection outlived its wait: idle past the
    /// keep-alive timeout, or a request dribbling past its deadline.
    fn expired(&self) -> bool {
        let limit = if self.buf.is_empty() {
            KEEP_ALIVE_TIMEOUT
        } else {
            REQUEST_DEADLINE
        };
        self.idle_since.elapsed() > limit
    }
}

/// One worker: accepts, reads, answers and closes its own connections on
/// its own thread, until shutdown has drained them.
fn run_worker(shared: &Shared, listener: &TcpListener) {
    // The listener waits in slot 0 and the waker in slot 1 (it only
    // wakes the flag check below); conns[i] waits in slot i + base —
    // behind those two while accepting, from slot 0 once draining.
    let mut set = PollSet::new();
    set.push(listener.as_raw_fd());
    set.push(shared.waker.fd());
    let mut base = 2;
    let mut conns: Vec<Conn> = Vec::new();
    let mut ready: Vec<usize> = Vec::new();
    let mut swept = Instant::now();
    loop {
        ready.clear();
        if set.wait(POLL_INTERVAL, &mut ready).is_err() {
            break;
        }
        // Highest slot first: a removal moves the last slot into the
        // hole, which is then never a slot still to be visited. The
        // listener comes last, so a connection it adds waits for the
        // next wait (level-triggered: bytes already sent fire at once).
        for &slot in ready.iter().rev() {
            if slot >= base {
                if let ConnFate::Close = drive_connection(shared, &mut conns[slot - base]) {
                    set.remove(slot);
                    conns.swap_remove(slot - base);
                }
            } else if slot == 0 {
                // One connection per wake: the other workers woke on the
                // same readiness and take the rest.
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn = Conn::new(stream);
                        set.push(conn.stream.as_raw_fd());
                        conns.push(conn);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    // Back off instead of hot-spinning: a persistent
                    // accept failure (e.g. EMFILE under fd exhaustion)
                    // would otherwise burn a core the workers need to
                    // free fds.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        }
        if swept.elapsed() >= POLL_INTERVAL {
            swept = Instant::now();
            for i in (0..conns.len()).rev() {
                if conns[i].expired() {
                    set.remove(i + base);
                    conns.swap_remove(i);
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            if base > 0 {
                // Stop accepting and close idle connections; keep only
                // those holding part of a request, to be answered with
                // `Connection: close` or swept at their deadline.
                conns.retain(|c| !c.buf.is_empty());
                set = PollSet::new();
                for conn in &conns {
                    set.push(conn.stream.as_raw_fd());
                }
                base = 0;
            }
            if conns.is_empty() {
                break;
            }
        }
    }
}

/// The server: bind with [`Server::start`] /
/// [`Server::start_set`], control via [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// server over a single whole-corpus engine — the classic
    /// single-shard deployment.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(
        engine: Arc<QueryEngine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::start_set(ShardSet::from_engine(engine), addr, config)
    }

    /// Binds `addr` and starts the workers over a sharded snapshot.
    ///
    /// # Errors
    /// Propagates bind failures (and a refused wake-up socket pair).
    pub fn start_set(
        set: ShardSet,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        // Every worker accepts from it; the ones that lose a race must
        // get `WouldBlock`, not sleep in `accept`.
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            snapshot: Mutex::new((Arc::new(Router::new(set)), 0)),
            reload_mutex: Mutex::new(()),
            metrics: Metrics::new(),
            cache: ResponseCache::new(config.cache_capacity),
            shutdown: AtomicBool::new(false),
            waker: event::Waker::new()?,
            addr: local,
            config: config.clone(),
        });

        // The listener closes when the last worker exits.
        let listener = Arc::new(listener);
        let workers = (0..config.threads.max(1))
            .map(|_| {
                let (shared, listener) = (shared.clone(), listener.clone());
                std::thread::spawn(move || run_worker(&shared, &listener))
            })
            .collect();

        // SIGHUP → reload watcher (only when there is a store to reload
        // from).
        let watcher = if shared.config.reload.is_some() {
            event::install_sighup_handler();
            let shared = shared.clone();
            Some(std::thread::spawn(move || {
                while !shared.shutdown.load(Ordering::SeqCst) {
                    if event::take_sighup() {
                        match perform_reload(&shared) {
                            Ok(r) => eprintln!(
                                "SIGHUP reload: generation {} ({} shards, {} tables, drained: {})",
                                r.generation, r.shards, r.tables, r.drained
                            ),
                            Err(e) => eprintln!("SIGHUP reload failed: {e}"),
                        }
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
            }))
        } else {
            None
        };

        Ok(ServerHandle {
            shared,
            watcher,
            workers,
        })
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    watcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live metrics snapshot (same data `/metrics` serves).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        metrics_snapshot(&self.shared, &self.shared.snapshot().0)
    }

    /// Snapshot generation now serving (0 at boot, +1 per reload).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.shared.snapshot().1
    }

    /// Number of shard-local engines in the serving snapshot.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shared.snapshot().0.num_shards()
    }

    /// Starts a graceful shutdown without waiting for it to finish.
    pub fn request_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Waits until every worker and the reload watcher have exited.
    /// Without a prior shutdown request this blocks until one arrives
    /// (e.g. the `/shutdown` endpoint) — the serve-forever mode of the
    /// CLI.
    pub fn join(mut self) {
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Graceful shutdown: request + drain + join.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

// --------------------------------------------------------------- connection

/// One parsed request head.
struct Request {
    method: String,
    /// Decoded path, for error messages (`/types/address/tables`).
    path: String,
    /// Per-segment-decoded path segments — the routing input. Splitting
    /// precedes decoding so an encoded `/` inside a segment (a label
    /// like `km%2Fh`) cannot change the route shape.
    segments: Vec<String>,
    /// Raw request target as sent (`/search?q=a%20b&k=3`) — the cache key.
    raw_target: String,
    /// Decoded query parameters in order of appearance.
    query: Vec<(String, String)>,
    keep_alive: bool,
    content_length: usize,
    /// The request carried a `Transfer-Encoding` header. This server
    /// frames bodies by `Content-Length` only, so such a request cannot
    /// be consumed without desyncing the keep-alive stream — it is
    /// answered `501` with `Connection: close`.
    transfer_encoded: bool,
}

impl Request {
    /// First value of query parameter `key`, if present.
    fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Position right after the first `\r\n\r\n`, if present. The search
/// resumes where the last miss left it — less the three bytes a split
/// terminator may have left behind — and records how far it got, so a
/// head that arrives a byte at a time is scanned once, not once a read.
fn head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    let found = buf[from..].windows(4).position(|w| w == b"\r\n\r\n");
    if found.is_none() {
        *scanned = buf.len();
    }
    found.map(|p| from + p + 4)
}

/// Percent-decodes `%XX` escapes; additionally maps `+` to space when
/// `plus_as_space` (query components).
fn percent_decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses `a=1&b=two+words` into decoded pairs.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k, true), percent_decode(v, true))
        })
        .collect()
}

/// Whether a comma-separated header value contains `token`
/// (case-insensitive, per-element trimmed) — the RFC 9110 list syntax
/// `Connection: keep-alive, TE` uses.
fn header_has_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Parses the request head (everything before the blank line).
fn parse_request(head: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(head).map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let raw_target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || raw_target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(format!("malformed request line `{request_line}`"));
    }
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length = 0usize;
    let mut transfer_encoded = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("connection") {
            // `Connection` is a comma-separated token list (`keep-alive,
            // TE`); exact-matching the whole value would miss the token.
            if header_has_token(value, "close") {
                keep_alive = false;
            } else if header_has_token(value, "keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| format!("bad Content-Length `{value}`"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Any transfer coding (even `identity`) means the body is
            // not framed by Content-Length alone; flag it for a 501.
            transfer_encoded = true;
        }
    }
    let (path_raw, query_raw) = raw_target
        .split_once('?')
        .unwrap_or((raw_target.as_str(), ""));
    // Split the RAW path into segments first, then decode each segment:
    // a label containing an encoded `/` (`km%2Fh`) must stay one
    // segment, not become two.
    let segments: Vec<String> = path_raw
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| percent_decode(s, false))
        .collect();
    Ok(Request {
        method,
        path: percent_decode(path_raw, false),
        segments,
        query: parse_query(query_raw),
        raw_target: raw_target.clone(),
        keep_alive,
        content_length,
        transfer_encoded,
    })
}

/// The `/metrics` body: server-lifetime counters plus the facts of the
/// snapshot now serving (`engine`, `fanouts`, `word_memo`).
fn metrics_snapshot(shared: &Shared, router: &Router) -> MetricsSnapshot {
    MetricsSnapshot {
        word_memo: router.word_memo_stats(),
        ..shared.metrics.snapshot(
            shared.cache.stats(),
            router.build_stats().clone(),
            router.fanouts(),
        )
    }
}

/// What the router produced for one request.
struct Routed {
    status: u16,
    body: Arc<String>,
    endpoint: Endpoint,
    /// The handler asked for a graceful shutdown (`/shutdown`).
    shutdown: bool,
}

fn json_body<T: serde::Serialize>(value: &T) -> Arc<String> {
    Arc::new(
        serde_json::to_string(value)
            .unwrap_or_else(|e| format!("{{\"error\":{:?}}}", e.to_string())),
    )
}

fn error_body(status: u16, endpoint: Endpoint, message: impl Into<String>) -> Routed {
    Routed {
        status,
        body: json_body(&ErrorResponse {
            error: message.into(),
        }),
        endpoint,
        shutdown: false,
    }
}

/// A fan-out failed because a shard's query panicked: count it in
/// `/metrics` (`shard_errors`) and answer a typed 500 — the server stays
/// up and every other request keeps working.
fn shard_error_body(shared: &Shared, endpoint: Endpoint, e: &crate::router::ShardPanic) -> Routed {
    shared.metrics.record_shard_error();
    error_body(500, endpoint, e.to_string())
}

fn ok_body<T: serde::Serialize>(endpoint: Endpoint, value: &T) -> Routed {
    Routed {
        status: 200,
        body: json_body(value),
        endpoint,
        shutdown: false,
    }
}

/// Parses an optional numeric query parameter with a default.
fn num_param(req: &Request, key: &str, default: usize) -> Result<usize, String> {
    match req.param(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("query parameter `{key}` must be a number, got `{v}`")),
    }
}

/// Whether responses for this endpoint are pure functions of the target
/// (and therefore cacheable for the lifetime of the serving snapshot —
/// a reload clears the cache along with the snapshot swap).
fn cacheable(endpoint: Endpoint) -> bool {
    matches!(
        endpoint,
        Endpoint::Search
            | Endpoint::Complete
            | Endpoint::Types
            | Endpoint::TypeTables
            | Endpoint::Table
    )
}

/// Routes one request to its handler, running entirely against the
/// given snapshot. `endpoint` is the single classification of the
/// request path (from [`endpoint_of_segments`]) — dispatch, metrics
/// attribution, and cacheability all derive from it, so they cannot
/// drift apart.
fn route(shared: &Shared, router: &Router, req: &Request, endpoint: Endpoint) -> Routed {
    if req.method != "GET" && !(req.method == "POST" && endpoint == Endpoint::Shutdown) {
        // Attributed to the classified endpoint so a spike of 405s shows
        // which endpoint clients are misusing. Never cached: the cache is
        // only consulted and filled for GETs.
        return error_body(405, endpoint, format!("method {} not allowed", req.method));
    }
    match endpoint {
        Endpoint::Health => ok_body(endpoint, &router.health()),
        Endpoint::Metrics => ok_body(endpoint, &metrics_snapshot(shared, router)),
        Endpoint::Search => {
            let Some(q) = req.param("q") else {
                return error_body(400, endpoint, "missing query parameter `q`");
            };
            match num_param(req, "k", 10) {
                Ok(k) => match router.search(q, k) {
                    Ok(hits) => ok_body(endpoint, &hits),
                    Err(e) => shard_error_body(shared, endpoint, &e),
                },
                Err(e) => error_body(400, endpoint, e),
            }
        }
        Endpoint::Complete => {
            let Some(prefix) = req.param("prefix") else {
                return error_body(400, endpoint, "missing query parameter `prefix`");
            };
            let attrs: Vec<&str> = prefix.split(',').map(str::trim).collect();
            match num_param(req, "k", 5) {
                Ok(k) => match router.complete(&attrs, k) {
                    Ok(completions) => ok_body(endpoint, &completions),
                    Err(e) => shard_error_body(shared, endpoint, &e),
                },
                Err(e) => error_body(400, endpoint, e),
            }
        }
        Endpoint::Types => match router.type_counts() {
            Ok(counts) => ok_body(endpoint, &counts),
            Err(e) => shard_error_body(shared, endpoint, &e),
        },
        Endpoint::TypeTables => {
            let label = req.segments.get(1).map_or("", String::as_str);
            match router.type_tables(label) {
                Ok(Some(t)) => ok_body(endpoint, &t),
                Ok(None) => error_body(
                    404,
                    endpoint,
                    format!("semantic type `{label}` is not indexed"),
                ),
                Err(e) => shard_error_body(shared, endpoint, &e),
            }
        }
        Endpoint::Table => {
            let id = req.segments.get(1).map_or("", String::as_str);
            match id.parse::<usize>() {
                Err(_) => error_body(
                    400,
                    endpoint,
                    format!("table id must be a number, got `{id}`"),
                ),
                // The `try_` form keeps a lazy-path corrupt block (typed
                // decode/check-value failure) distinct from "no such
                // table": corruption is a 500, never a silent 404.
                Ok(id) => match router.try_table_summary(id) {
                    Ok(Some(t)) => ok_body(endpoint, &t),
                    Ok(None) => error_body(404, endpoint, format!("no table with id {id}")),
                    Err(e) => error_body(500, endpoint, format!("table {id} unreadable: {e}")),
                },
            }
        }
        Endpoint::Shutdown => Routed {
            status: 200,
            body: json_body(&ShutdownResponse {
                status: "draining".to_string(),
            }),
            endpoint,
            shutdown: true,
        },
        // `Reload` is intercepted by `respond` before a snapshot is
        // pinned; reaching here means it raced nothing and 404s safely.
        Endpoint::Reload | Endpoint::Other => {
            error_body(404, Endpoint::Other, format!("no route for {}", req.path))
        }
    }
}

/// Loads a fresh snapshot from the configured store, swaps it in, and
/// waits (bounded) for requests on the old snapshot to drain.
fn perform_reload(shared: &Shared) -> Result<ReloadResponse, String> {
    let spec = shared.config.reload.as_ref().ok_or_else(|| {
        "reload is not available: server was not started from a store".to_string()
    })?;
    // Serialize concurrent reloads: each load/swap/drain runs alone.
    let _guard = unpoisoned(shared.reload_mutex.lock());
    // Load BEFORE swapping: a failed load leaves the old snapshot
    // serving untouched. The load performs full cold-boot validation
    // against whatever manifest the last atomic rename committed.
    let set = ShardSet::load(&spec.dir, spec.shards)
        .map_err(|e| format!("reload failed, keeping current snapshot: {e}"))?;
    let router = Arc::new(Router::new(set));
    let (shards, tables) = (router.num_shards(), router.num_tables());
    let (old, generation) = {
        let mut snapshot = unpoisoned(shared.snapshot.lock());
        let generation = snapshot.1 + 1;
        (
            std::mem::replace(&mut *snapshot, (router, generation)).0,
            generation,
        )
    };
    // The cache was computed against the old snapshot: empty it and move
    // it to the new generation. A request that pinned the old pair and is
    // still running finds the cache closed to it when it finishes, so no
    // stale body survives the swap.
    shared.cache.clear(generation);
    // Drain: in-flight requests hold `Arc` clones of the old snapshot.
    // Wait (bounded) until ours is the last reference, so the store
    // mappings drop before this response reports success. The handler
    // running *this* reload pinned no snapshot (see `respond`).
    let drain_started = Instant::now();
    while Arc::strong_count(&old) > 1 && drain_started.elapsed() < REQUEST_DEADLINE {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drained = Arc::strong_count(&old) == 1;
    drop(old);
    Ok(ReloadResponse {
        status: "reloaded".to_string(),
        generation,
        shards,
        tables,
        drained,
    })
}

/// `POST /reload`: validates the method, then delegates to
/// [`perform_reload`]. Called before the request pins a snapshot.
fn handle_reload(shared: &Shared, req: &Request) -> Routed {
    let endpoint = Endpoint::Reload;
    if req.method != "POST" {
        return error_body(
            405,
            endpoint,
            format!("method {} not allowed on /reload (use POST)", req.method),
        );
    }
    match perform_reload(shared) {
        Ok(r) => ok_body(endpoint, &r),
        Err(e) if e.starts_with("reload is not available") => error_body(409, endpoint, e),
        Err(e) => error_body(500, endpoint, e),
    }
}

/// Routes with the response cache wrapped around pure endpoints.
///
/// `/reload` is dispatched FIRST, before a snapshot `Arc` is cloned:
/// the reload handler waits for the old snapshot's reference count to
/// drain, and a clone held by its own request would deadlock that wait
/// into the timeout.
fn respond(shared: &Shared, req: &Request) -> Routed {
    let endpoint = endpoint_of_segments(&req.segments);
    if endpoint == Endpoint::Reload {
        return handle_reload(shared, req);
    }
    // Pin the serving snapshot: this request runs entirely against it,
    // even if a reload swaps the pointer mid-request.
    let (router, generation) = shared.snapshot();
    respond_pinned(shared, &router, generation, req, endpoint)
}

/// [`respond`] once the snapshot is pinned: `generation` is `router`'s,
/// and is what lets the cache refuse this request after a reload.
fn respond_pinned(
    shared: &Shared,
    router: &Router,
    generation: u64,
    req: &Request,
    endpoint: Endpoint,
) -> Routed {
    // Probe the cache only for GETs on pure endpoints — probing (and
    // counting misses for) /health, /metrics, or unrouted paths would
    // skew the hit rate with traffic that can never be cached.
    if req.method == "GET" && cacheable(endpoint) {
        if let Some(hit) = shared.cache.get(generation, &req.raw_target) {
            return Routed {
                status: hit.status,
                body: hit.body,
                endpoint,
                shutdown: false,
            };
        }
    }
    // Cache GET responses on pure endpoints regardless of status: over
    // an immutable snapshot a 400 (bad parameters) or 404 (unknown label
    // / id) is as permanent as a 200, and caching it keeps repeated
    // misconfigured pollers from reading as an ever-falling hit rate.
    let routed = route(shared, router, req, endpoint);
    if req.method == "GET" && cacheable(routed.endpoint) {
        shared.cache.insert(
            generation,
            &req.raw_target,
            CachedResponse {
                status: routed.status,
                body: routed.body.clone(),
            },
        );
    }
    routed
}

/// Maps the per-segment-decoded path to its endpoint — the single
/// classification dispatch, metrics, and cacheability all share.
fn endpoint_of_segments(segments: &[String]) -> Endpoint {
    let segments: Vec<&str> = segments.iter().map(String::as_str).collect();
    match segments.as_slice() {
        ["health"] => Endpoint::Health,
        ["metrics"] => Endpoint::Metrics,
        ["search"] => Endpoint::Search,
        ["complete"] => Endpoint::Complete,
        ["types"] => Endpoint::Types,
        ["types", _, "tables"] => Endpoint::TypeTables,
        ["tables", _] => Endpoint::Table,
        ["reload"] => Endpoint::Reload,
        ["shutdown"] => Endpoint::Shutdown,
        _ => Endpoint::Other,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        _ => "Internal Server Error",
    }
}

/// Room for the longest response head (status line, three headers).
const MAX_RESPONSE_HEAD: usize = 160;

/// Writes a complete response in one `write_all`: head and body are
/// assembled in one buffer, the head formatted straight into it.
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(MAX_RESPONSE_HEAD + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    out.extend_from_slice(body.as_bytes());
    stream.write_all(&out)?;
    stream.flush()
}

/// What a worker should do with a connection after driving it.
enum ConnFate {
    /// Drop the stream (close the connection).
    Close,
    /// Leave it in the worker's set until it is readable again.
    Keep,
}

/// Drives one connection `poll` reported readable: one read, then an
/// answer to every complete request the buffer holds. A partial head or
/// body stays buffered for the next readiness.
fn drive_connection(shared: &Shared, conn: &mut Conn) -> ConnFate {
    if read_more(conn).is_err() {
        return ConnFate::Close;
    }
    // Pipelined bytes already in the buffer keep the loop going.
    while let Some(end) = head_end(&conn.buf, &mut conn.scanned) {
        let req = match parse_request(&conn.buf[..end - 4]) {
            Ok(r) => r,
            Err(e) => {
                shared.metrics.record(Endpoint::Other, 400, 0);
                let body = json_body(&ErrorResponse { error: e });
                let _ = write_response(&mut conn.stream, 400, &body, false);
                return ConnFate::Close;
            }
        };
        if req.transfer_encoded {
            // This server frames bodies by Content-Length only; a
            // chunked body it cannot parse would desync the
            // keep-alive stream, turning body bytes into phantom
            // requests. Refuse loudly and close.
            shared.metrics.record(Endpoint::Other, 501, 0);
            let body = json_body(&ErrorResponse {
                error: "Transfer-Encoding is not supported; send Content-Length".to_string(),
            });
            let _ = write_response(&mut conn.stream, 501, &body, false);
            return ConnFate::Close;
        }
        if req.content_length > MAX_BODY {
            shared.metrics.record(Endpoint::Other, 413, 0);
            let body = json_body(&ErrorResponse {
                error: "request body too large".to_string(),
            });
            let _ = write_response(&mut conn.stream, 413, &body, false);
            return ConnFate::Close;
        }
        let consumed = end + req.content_length;
        if conn.buf.len() < consumed {
            // Body not fully received yet.
            return ConnFate::Keep;
        }
        // Full request in hand: this request WILL be answered, even
        // mid-shutdown (drain guarantee); only the connection closes.
        conn.served += 1;
        let keep_alive = req.keep_alive
            && !shared.shutdown.load(Ordering::SeqCst)
            && conn.served < MAX_REQUESTS_PER_CONNECTION;
        let started = Instant::now();
        let routed = respond(shared, &req);
        let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        shared
            .metrics
            .record(routed.endpoint, routed.status, latency_us);
        let keep_alive = keep_alive && !routed.shutdown;
        let ok = write_response(&mut conn.stream, routed.status, &routed.body, keep_alive);
        if routed.shutdown {
            trigger_shutdown(shared);
        }
        if ok.is_err() || !keep_alive {
            return ConnFate::Close;
        }
        conn.buf.drain(..consumed);
        conn.scanned = 0;
        conn.idle_since = Instant::now();
    }
    if conn.buf.len() > MAX_HEAD {
        shared.metrics.record(Endpoint::Other, 431, 0);
        let body = json_body(&ErrorResponse {
            error: "request head too large".to_string(),
        });
        let _ = write_response(&mut conn.stream, 431, &body, false);
        return ConnFate::Close;
    }
    ConnFate::Keep
}

/// One read into the connection buffer, made only once `poll` has
/// reported the connection readable. `Err(())` means the connection
/// should be dropped (EOF or a hard error). `idle_since` is restarted
/// when the first bytes of a new request arrive, so the sweep measures
/// the dribble deadline from the start of the request — not from the end
/// of the previous response — and it binds a client whose reads keep
/// *succeeding*, a byte per readiness, as surely as one that stops.
fn read_more(conn: &mut Conn) -> Result<(), ()> {
    let mut chunk = [0u8; 4096];
    match conn.stream.read(&mut chunk) {
        Ok(0) => Err(()), // EOF
        Ok(n) => {
            if conn.buf.is_empty() {
                conn.idle_since = Instant::now();
            }
            conn.buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        // A signal interrupting the read says nothing about the
        // connection's health, and neither does a readiness that proved
        // spurious: poll again. (SIGHUP-triggered reloads make EINTR a
        // steady-state occurrence.)
        Err(e) if !read_error_is_fatal(e.kind()) => Ok(()),
        Err(_) => Err(()),
    }
}

/// Whether a read error of this kind must close the connection. EINTR
/// (a signal interrupted the syscall) and the read-timeout kinds are
/// retried; everything else — reset, broken pipe, unexpected EOF —
/// closes.
fn read_error_is_fatal(kind: io::ErrorKind) -> bool {
    !matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b", false), "a b");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("100%", false), "100%");
        assert_eq!(percent_decode("%zz", false), "%zz");
        assert_eq!(percent_decode("caf%C3%A9", false), "café");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("q=order+status&k=5&empty=&flag");
        assert_eq!(q[0], ("q".to_string(), "order status".to_string()));
        assert_eq!(q[1], ("k".to_string(), "5".to_string()));
        assert_eq!(q[2], ("empty".to_string(), String::new()));
        assert_eq!(q[3], ("flag".to_string(), String::new()));
    }

    #[test]
    fn request_parsing_and_keep_alive() {
        let head = b"GET /search?q=a%20b&k=3 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n";
        let req = parse_request(head).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.param("q"), Some("a b"));
        assert_eq!(req.param("k"), Some("3"));
        assert!(!req.keep_alive);
        assert_eq!(req.raw_target, "/search?q=a%20b&k=3");

        let req = parse_request(b"GET / HTTP/1.1\r\n").unwrap();
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let req = parse_request(b"GET / HTTP/1.0\r\n").unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");

        assert!(parse_request(b"BOGUS\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/2\r\n").is_err());
    }

    #[test]
    fn connection_header_is_a_token_list() {
        // `Connection: keep-alive, TE` must read as keep-alive — the
        // old exact-match comparison missed the token and silently
        // downgraded such clients to close-per-request.
        let req = parse_request(b"GET / HTTP/1.0\r\nConnection: keep-alive, TE\r\n").unwrap();
        assert!(req.keep_alive);
        let req = parse_request(b"GET / HTTP/1.1\r\nConnection: TE, close\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse_request(b"GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn transfer_encoding_is_flagged() {
        // Chunked bodies cannot be framed by Content-Length; the parser
        // must surface the header so the connection loop can 501+close
        // instead of treating body bytes as the next request.
        let req =
            parse_request(b"POST /shutdown HTTP/1.1\r\nTransfer-Encoding: chunked\r\n").unwrap();
        assert!(req.transfer_encoded);
        let req = parse_request(b"POST /shutdown HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n")
            .unwrap();
        assert!(req.transfer_encoded);
        let req = parse_request(b"POST /shutdown HTTP/1.1\r\nContent-Length: 2\r\n").unwrap();
        assert!(!req.transfer_encoded);
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\n", &mut 0), Some(18));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n", &mut 0), None);
    }

    /// Feeds `bytes` in pieces cut at `cuts`, searching after each piece
    /// as a connection does after each read, and returns where the head
    /// was first found and after how many pieces.
    fn incremental_head_end(bytes: &[u8], cuts: &[usize]) -> Option<(usize, usize)> {
        let (mut buf, mut scanned, mut from) = (Vec::new(), 0, 0);
        for (piece, &to) in cuts.iter().chain([&bytes.len()]).enumerate() {
            buf.extend_from_slice(&bytes[from..to]);
            from = to;
            if let Some(end) = head_end(&buf, &mut scanned) {
                return Some((end, piece));
            }
        }
        None
    }

    /// The resumed search must find a head that arrives in pieces exactly
    /// where a one-shot search over the whole buffer does, and as soon as
    /// its terminator is complete — wherever one or two cuts fall, inside
    /// the terminator and inside a decoy `\r\n\r` included.
    #[test]
    fn head_end_resumes_across_every_split() {
        let bytes: &[u8] = b"GET /a HTTP/1.1\r\nX-Decoy: \r\n\r\r\nHost: t\r\n\r\nbody\r\n\r\n";
        let whole = head_end(bytes, &mut 0).unwrap();
        assert_eq!(&bytes[whole - 4..whole], b"\r\n\r\n");
        // The piece holding the terminator's last byte.
        let piece_of = |cuts: &[usize]| cuts.iter().filter(|&&c| c < whole).count();
        for a in 0..=bytes.len() {
            assert_eq!(
                incremental_head_end(bytes, &[a]),
                Some((whole, piece_of(&[a]))),
                "cut at {a}"
            );
            for b in a..=bytes.len() {
                assert_eq!(
                    incremental_head_end(bytes, &[a, b]),
                    Some((whole, piece_of(&[a, b]))),
                    "cuts at {a}, {b}"
                );
            }
        }
    }

    fn segs(path: &str) -> Vec<String> {
        parse_request(format!("GET {path} HTTP/1.1\r\n").as_bytes())
            .unwrap()
            .segments
    }

    #[test]
    fn endpoint_attribution() {
        assert_eq!(
            endpoint_of_segments(&segs("/types/address/tables")),
            Endpoint::TypeTables
        );
        assert_eq!(endpoint_of_segments(&segs("/types")), Endpoint::Types);
        assert_eq!(endpoint_of_segments(&segs("/tables/7")), Endpoint::Table);
        assert_eq!(endpoint_of_segments(&segs("/reload")), Endpoint::Reload);
        assert_eq!(endpoint_of_segments(&segs("/nope")), Endpoint::Other);
    }

    #[test]
    fn encoded_slash_stays_inside_a_segment() {
        // `/types/km%2Fh/tables` must route as a 3-segment type lookup
        // for the literal label `km/h`, not as a 4-segment 404.
        let s = segs("/types/km%2Fh/tables");
        assert_eq!(s, vec!["types", "km/h", "tables"]);
        assert_eq!(endpoint_of_segments(&s), Endpoint::TypeTables);
    }

    /// The error-kind classification the EINTR fix pins down: a
    /// loopback socket pair driven through `read_more` directly.
    #[test]
    fn read_more_error_kind_classification() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();

        let mut conn = Conn::new(server_side);
        let _ = conn
            .stream
            .set_read_timeout(Some(Duration::from_millis(10)));

        // A read that finds nothing (a spurious readiness) times out:
        // keep the connection.
        assert!(read_more(&mut conn).is_ok());

        // Bytes arrive: buffered, deadline restarted.
        {
            let mut c = &client;
            c.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
        }
        // The kernel may need a beat to deliver loopback bytes.
        let mut got = false;
        for _ in 0..100 {
            if read_more(&mut conn).is_err() {
                panic!("healthy read classified as fatal");
            }
            if !conn.buf.is_empty() {
                got = true;
                break;
            }
        }
        assert!(got, "bytes never surfaced");

        // EOF is fatal.
        drop(client);
        let mut fatal = false;
        for _ in 0..100 {
            if read_more(&mut conn).is_err() {
                fatal = true;
                break;
            }
        }
        assert!(fatal, "EOF must close the connection");
    }

    /// EINTR must be retried, not treated as a dead connection: a real
    /// interrupted `read` is hard to stage portably, so this pins the
    /// match-arm classification by construction — the kinds the loop
    /// must survive versus the kinds that must close.
    #[test]
    fn interrupted_is_not_fatal() {
        let survivable = [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ];
        let fatal = [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
        ];
        // Mirror of read_more's error-arm logic, kept trivially in sync
        // by the shared helper below.
        for kind in survivable {
            assert!(!read_error_is_fatal(kind), "{kind:?} must be retried");
        }
        for kind in fatal {
            assert!(read_error_is_fatal(kind), "{kind:?} must close");
        }
    }

    /// A request that pinned the old snapshot and finishes after a reload
    /// cleared the cache must not plant its old-corpus answer where the
    /// new snapshot's requests would be served it.
    #[test]
    fn a_request_that_outlives_a_reload_leaves_nothing_in_the_cache() {
        use gittables_corpus::AnnotatedTable;
        use gittables_table::Table;

        // The store the reload reads has one table; the boot snapshot none.
        let dir = std::env::temp_dir().join(format!("gt_http_stale_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut grown = gittables_corpus::Corpus::new("http-test");
        let table = Table::from_rows("t0", &["id"], &[["1"], ["2"]]).unwrap();
        grown.push(AnnotatedTable::new(table));
        gittables_corpus::save_store(&grown, &dir, 8).unwrap();
        let shared = Shared {
            cache: ResponseCache::new(8),
            config: ServerConfig {
                reload: Some(ReloadSpec {
                    dir: dir.clone(),
                    shards: 1,
                }),
                ..ServerConfig::default()
            },
            ..test_shared()
        };
        let req = parse_request(b"GET /tables/0 HTTP/1.1\r\n").unwrap();

        // Pin, reload, then finish the request. The reload waits for the
        // pinned snapshot to drain, so it runs beside this thread, which
        // goes on as soon as the swap is visible.
        let (old, pinned) = shared.snapshot();
        std::thread::scope(|scope| {
            let reload = scope.spawn(|| perform_reload(&shared).unwrap());
            while shared.snapshot().1 == pinned {
                std::thread::yield_now();
            }
            let stale = respond_pinned(&shared, &old, pinned, &req, Endpoint::Table);
            assert_eq!(stale.status, 404, "answered by the snapshot it pinned");
            drop(old);
            let reloaded = reload.join().unwrap();
            assert_eq!((reloaded.generation, reloaded.drained), (pinned + 1, true));
        });
        assert_eq!(
            shared.cache.stats().entries,
            0,
            "the stale body was dropped"
        );
        let fresh = respond(&shared, &req);
        assert_eq!(fresh.status, 200, "{}", fresh.body);
        assert_eq!(respond(&shared, &req).body, fresh.body);
        let stats = shared.cache.stats();
        assert_eq!((stats.entries, stats.hits), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `Shared` over a tiny in-memory corpus, for connection-loop
    /// tests.
    fn test_shared() -> Shared {
        let corpus = gittables_corpus::Corpus::new("http-test");
        let set = ShardSet::from_corpus(&corpus, 1);
        Shared {
            snapshot: Mutex::new((Arc::new(Router::new(set)), 0)),
            reload_mutex: Mutex::new(()),
            metrics: Metrics::new(),
            cache: ResponseCache::new(0),
            shutdown: AtomicBool::new(false),
            waker: event::Waker::new().unwrap(),
            addr: "127.0.0.1:0".parse().unwrap(),
            config: ServerConfig::default(),
        }
    }
}
