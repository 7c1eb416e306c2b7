//! Hand-rolled HTTP/1.1 server on [`std::net::TcpListener`].
//!
//! No external dependencies: a fixed pool of worker threads pulls
//! connections off an [`mpsc`] channel and speaks just enough HTTP/1.1
//! (GET + keep-alive + `Content-Length`) to serve the JSON API.
//! Requests with `Transfer-Encoding` are rejected with `501` and
//! `Connection: close` — never silently misframed.
//!
//! ## Concurrency model
//!
//! One acceptor thread owns the listener; `threads` workers drive
//! connections that have work to do. Connections with no bytes in
//! flight — fresh ones and idle keep-alive ones — park in one event-loop
//! thread, a level-triggered `poll(2)` set ([`gittables_sys::PollSet`]),
//! and occupy **no** worker thread; the event loop hands a connection to
//! the pool only when it turns readable, and the worker parks it again
//! after the response. That is the only model, on every unix: nothing
//! selects between it and another. `poll` hands the kernel every parked
//! descriptor on every wake, so a request costs O(parked connections) —
//! measured at 50-100 microseconds per thousand idle connections, and
//! paid by no workload the benchmark or the tests run.
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
//! atomic `migrate`/save rename committed — and swaps it in under the
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
//! flips an atomic flag and wakes the blocked acceptor. The acceptor
//! stops taking connections; the event loop closes parked (idle)
//! connections and drops the pool's channel sender; each worker
//! finishes any request in flight — answering it with
//! `Connection: close` — then exits. No request accepted into the pool
//! is abandoned mid-flight.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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

/// The tick of every wait that must notice a shutdown request or a
/// `SIGHUP`: the event loop's readiness wait, a worker's socket read,
/// the reload watcher's sleep. Keep-alive timeouts are swept once per
/// tick.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long an idle keep-alive connection is kept open.
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests served per connection before it is recycled with
/// `Connection: close`. A connection parks after every response that
/// leaves its buffer empty, so this binds only a client that pipelines
/// without pause — it bounds how long that client can hold one worker.
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
    /// Whether `GET|POST /shutdown` triggers a graceful shutdown.
    pub enable_shutdown_endpoint: bool,
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
            enable_shutdown_endpoint: true,
            reload: None,
        }
    }
}

/// Everything the acceptor, workers, event loop, and handle share.
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

/// The address a wake-up connection should dial: the bound port, but on
/// loopback when the server bound a wildcard address (connecting *to*
/// `0.0.0.0`/`::` is not portable).
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        match addr {
            SocketAddr::V4(_) => addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
            SocketAddr::V6(_) => addr.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
        }
    }
    addr
}

/// Flips the shutdown flag once and wakes the blocked acceptor.
fn trigger_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        // The acceptor blocks in `accept`; a throwaway loopback
        // connection unblocks it so it can observe the flag.
        let _ = TcpStream::connect_timeout(&wake_addr(shared.addr), Duration::from_secs(1));
    }
}

// ------------------------------------------------------------------ parking

/// A connection plus its cross-request state, movable between the event
/// loop and the worker pool.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed (possibly a partial or pipelined
    /// request).
    buf: Vec<u8>,
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
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        // A client that never reads its response must not pin a worker
        // forever once the socket send buffer fills: bound every write.
        let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
        Conn {
            stream,
            buf: Vec::new(),
            served: 0,
            idle_since: Instant::now(),
        }
    }
}

/// State shared with the event-loop thread: the inbox of connections to
/// park and the waker that interrupts its readiness wait.
struct ParkerShared {
    inbox: Mutex<Vec<Conn>>,
    waker: event::Waker,
    /// Set when the event loop exited: connections handed to `park`
    /// from then on are dropped (closed) instead of leaking.
    stopped: AtomicBool,
}

impl ParkerShared {
    /// Hands a connection to the event loop (or closes it when the loop
    /// already exited).
    fn park(&self, conn: Conn) {
        if self.stopped.load(Ordering::SeqCst) {
            return; // drop => close
        }
        unpoisoned(self.inbox.lock()).push(conn);
        self.waker.wake();
    }
}

/// The event loop: owns every parked connection, hands one to the worker
/// channel the moment it turns readable (or its peer hangs up — the
/// worker's read sees the EOF), sweeps keep-alive timeouts, and closes
/// everything on shutdown.
fn run_event_loop(shared: &Shared, parker: &ParkerShared, tx: &mpsc::Sender<Conn>) {
    let mut set = PollSet::new();
    set.push(parker.waker.fd()); // slot 0, never removed
    let mut parked: Vec<Conn> = Vec::new(); // parked[i] waits in slot i + 1
    let mut ready: Vec<usize> = Vec::new();
    let mut swept = Instant::now();
    loop {
        // Ingest newly-parked connections. The set is level-triggered,
        // so one that already has bytes pending is ready on the very
        // next wait — no arrival/registration race.
        for conn in unpoisoned(parker.inbox.lock()).drain(..) {
            set.push(conn.stream.as_raw_fd());
            parked.push(conn);
        }
        ready.clear();
        if set.wait(POLL_INTERVAL, &mut ready).is_err() {
            break;
        }
        // Highest slot first: a removal moves the last slot into the
        // hole, which is then never a slot still to be visited.
        for &slot in ready.iter().rev() {
            if slot == 0 {
                parker.waker.drain();
                continue;
            }
            set.remove(slot);
            if tx.send(parked.swap_remove(slot - 1)).is_err() {
                break;
            }
        }
        // Sweep keep-alive timeouts once a tick, not once a wake; parked
        // connections have no request in flight, so closing them never
        // abandons work.
        if swept.elapsed() >= POLL_INTERVAL {
            swept = Instant::now();
            for i in (0..parked.len()).rev() {
                if parked[i].idle_since.elapsed() > KEEP_ALIVE_TIMEOUT {
                    set.remove(i + 1);
                    parked.swap_remove(i);
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    // Mark stopped BEFORE draining: a worker that races `park` from
    // here on sees the flag and closes its connection itself.
    parker.stopped.store(true, Ordering::SeqCst);
    parked.clear();
    unpoisoned(parker.inbox.lock()).clear();
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

    /// Binds `addr` and starts the acceptor, worker pool, and the
    /// parking event loop over a sharded snapshot.
    ///
    /// # Errors
    /// Propagates bind failures (and a refused wake-up socket pair).
    pub fn start_set(
        set: ShardSet,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            snapshot: Mutex::new((Arc::new(Router::new(set)), 0)),
            reload_mutex: Mutex::new(()),
            metrics: Metrics::new(),
            cache: ResponseCache::new(config.cache_capacity),
            shutdown: AtomicBool::new(false),
            addr: local,
            config: config.clone(),
        });

        let (tx, rx) = mpsc::channel::<Conn>();
        let rx = Arc::new(Mutex::new(rx));

        let parker = Arc::new(ParkerShared {
            inbox: Mutex::new(Vec::new()),
            waker: event::Waker::new()?,
            stopped: AtomicBool::new(false),
        });
        // The event loop holds the only sender: when it exits, workers
        // drain the queue and exit too.
        let event_loop = {
            let shared = shared.clone();
            let parker = parker.clone();
            std::thread::spawn(move || run_event_loop(&shared, &parker, &tx))
        };

        let mut workers = Vec::with_capacity(config.threads.max(1));
        for _ in 0..config.threads.max(1) {
            let shared = shared.clone();
            let rx = rx.clone();
            let parker = parker.clone();
            workers.push(std::thread::spawn(move || loop {
                // Take the next connection, releasing the receiver lock
                // before handling so other workers keep draining.
                let next = { unpoisoned(rx.lock()).recv() };
                match next {
                    Ok(mut conn) => match drive_connection(&shared, &mut conn) {
                        ConnFate::Close => {}
                        ConnFate::Park => parker.park(conn),
                    },
                    Err(_) => break, // event loop gone, queue drained
                }
            }));
        }

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

        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break; // drop the wake-up (or late) connection
                    }
                    match stream {
                        // Fresh connections park too: one that connects
                        // and says nothing costs no worker.
                        Ok(s) => parker.park(Conn::new(s)),
                        Err(_) => {
                            // Back off instead of hot-spinning: a
                            // persistent accept failure (e.g. EMFILE
                            // under fd exhaustion) would otherwise burn
                            // a core the workers need to free fds.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            })
        };

        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            event_loop: Some(event_loop),
            watcher,
            workers,
        })
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    event_loop: Option<JoinHandle<()>>,
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

    /// Whether a shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Starts a graceful shutdown without waiting for it to finish.
    pub fn request_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Waits until the acceptor, event loop, and every worker have
    /// exited. Without a prior shutdown request this blocks until one
    /// arrives (e.g. the `/shutdown` endpoint) — the serve-forever mode
    /// of the CLI.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(e) = self.event_loop.take() {
            let _ = e.join();
        }
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

/// Position right after the first `\r\n\r\n`, if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
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
/// snapshot now serving (`engine`, `fanouts`, `fanout_wait_us`,
/// `word_memo`).
fn metrics_snapshot(shared: &Shared, router: &Router) -> MetricsSnapshot {
    MetricsSnapshot {
        word_memo: router.word_memo_stats(),
        ..shared.metrics.snapshot(
            shared.cache.stats(),
            router.build_stats().clone(),
            router.fanout_stats(),
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

/// A fan-out failed because a shard query thread panicked: count it in
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
                // decode/fingerprint failure) distinct from "no such
                // table": corruption is a 500, never a silent 404.
                Ok(id) => match router.try_table_summary(id) {
                    Ok(Some(t)) => ok_body(endpoint, &t),
                    Ok(None) => error_body(404, endpoint, format!("no table with id {id}")),
                    Err(e) => error_body(500, endpoint, format!("table {id} unreadable: {e}")),
                },
            }
        }
        Endpoint::Shutdown if shared.config.enable_shutdown_endpoint => Routed {
            status: 200,
            body: json_body(&ShutdownResponse {
                status: "draining".to_string(),
            }),
            endpoint,
            shutdown: true,
        },
        // `Reload` is intercepted by `respond` before a snapshot is
        // pinned; reaching here means it raced nothing and 404s safely.
        Endpoint::Shutdown | Endpoint::Reload | Endpoint::Other => {
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
    /// Hand it to the event loop to wait for the next request.
    Park,
}

/// Drives one connection until it closes or goes idle between
/// keep-alive requests.
fn drive_connection(shared: &Shared, conn: &mut Conn) -> ConnFate {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = head_end(&conn.buf) {
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
                // Body not fully received yet; keep reading below.
                if read_more(shared, conn, &mut chunk).is_err() {
                    return ConnFate::Close;
                }
                continue;
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
            conn.idle_since = Instant::now();
            // Idle between requests with nothing buffered: park in the
            // event loop instead of pinning this worker. Pipelined bytes
            // already in the buffer keep the loop going instead.
            if conn.buf.is_empty() {
                return ConnFate::Park;
            }
            continue;
        }
        if conn.buf.len() > MAX_HEAD {
            shared.metrics.record(Endpoint::Other, 431, 0);
            let body = json_body(&ErrorResponse {
                error: "request head too large".to_string(),
            });
            let _ = write_response(&mut conn.stream, 431, &body, false);
            return ConnFate::Close;
        }
        if read_more(shared, conn, &mut chunk).is_err() {
            return ConnFate::Close;
        }
    }
}

/// One poll-tick read into the connection buffer. `Err(())` means the
/// connection should be dropped (EOF, hard error, idle timeout, or
/// idle shutdown). `idle_since` is restarted when the first bytes of a
/// new request arrive, so the dribble deadline is measured from the
/// start of the request — not from the end of the previous response.
fn read_more(shared: &Shared, conn: &mut Conn, chunk: &mut [u8; 4096]) -> Result<(), ()> {
    match conn.stream.read(chunk) {
        Ok(0) => Err(()), // EOF
        Ok(n) => {
            if conn.buf.is_empty() {
                conn.idle_since = Instant::now();
            }
            conn.buf.extend_from_slice(&chunk[..n]);
            // The dribble deadline must also bind clients that keep the
            // reads *succeeding* — one byte per poll tick would never
            // hit the timeout branch below.
            if conn.idle_since.elapsed() > REQUEST_DEADLINE {
                return Err(());
            }
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            if conn.buf.is_empty() {
                // Idle between requests: close on shutdown or timeout.
                if shared.shutdown.load(Ordering::SeqCst)
                    || conn.idle_since.elapsed() > KEEP_ALIVE_TIMEOUT
                {
                    return Err(());
                }
            } else if conn.idle_since.elapsed() > REQUEST_DEADLINE {
                // A dribbling request: answer nothing once it's too slow;
                // even under shutdown we wait until the deadline so a
                // request already partially received still gets served.
                return Err(());
            }
            Ok(())
        }
        // A signal interrupting the read says nothing about the
        // connection's health — retry. (SIGHUP-triggered reloads made
        // EINTR a steady-state occurrence, and the old catch-all here
        // silently dropped healthy connections on it.)
        Err(e) if !read_error_is_fatal(e.kind()) => Ok(()),
        Err(_) => Err(()),
    }
}

/// Whether a read error of this kind must close the connection. EINTR
/// (a signal interrupted the syscall) and the poll-tick timeouts are
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
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn wake_addr_rewrites_wildcard_binds() {
        let v4: SocketAddr = "0.0.0.0:7878".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7878".parse().unwrap());
        let v6: SocketAddr = "[::]:7878".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:7878".parse().unwrap());
        let concrete: SocketAddr = "127.0.0.1:80".parse().unwrap();
        assert_eq!(wake_addr(concrete), concrete);
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

        let shared = test_shared();
        let mut conn = Conn::new(server_side);
        let _ = conn
            .stream
            .set_read_timeout(Some(Duration::from_millis(10)));
        let mut chunk = [0u8; 4096];

        // Timeout with an empty buffer inside the keep-alive window:
        // keep waiting.
        assert!(read_more(&shared, &mut conn, &mut chunk).is_ok());

        // Bytes arrive: buffered, deadline restarted.
        {
            let mut c = &client;
            c.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
        }
        // The kernel may need a beat to deliver loopback bytes.
        let mut got = false;
        for _ in 0..100 {
            if read_more(&shared, &mut conn, &mut chunk).is_err() {
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
            if read_more(&shared, &mut conn, &mut chunk).is_err() {
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
            addr: "127.0.0.1:0".parse().unwrap(),
            config: ServerConfig::default(),
        }
    }
}
