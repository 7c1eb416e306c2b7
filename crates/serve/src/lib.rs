//! `gittables-serve` — the concurrent query-serving subsystem.
//!
//! The paper's §5 applications (data search, schema completion, semantic
//! type lookup) exist elsewhere in this workspace as in-process examples
//! that re-run the whole pipeline per invocation. This crate turns the
//! persisted [`gittables_corpus::CorpusStore`] into a long-lived service:
//!
//! * [`QueryEngine`] boots a store directory — never re-running
//!   extraction — off its index sidecar `index.gtsc`: the read-only
//!   shared indexes, mapped (the schema-embedding search index
//!   [`gittables_core::apps::DataSearch`], the completion engine
//!   [`gittables_core::apps::NearestCompletion`], and the inverted
//!   semantic-type index [`gittables_corpus::TypeIndex`]), and tables
//!   decoded on demand by their stable ids. That is the one way a store
//!   is served: a boot that finds the sidecar missing, stale or corrupt
//!   first writes it from the store with [`build_sidecars`]' builder, one
//!   shard at a time, so nothing between crawl and serve holds the
//!   decoded corpus. [`QueryEngine::from_corpus`] builds the same indexes
//!   over an in-process corpus.
//! * [`Server`] is a hand-rolled HTTP/1.1 server on
//!   [`std::net::TcpListener`] with a fixed worker thread pool — no
//!   external dependencies — serving JSON endpoints:
//!
//!   | endpoint                 | answer                                        |
//!   |--------------------------|-----------------------------------------------|
//!   | `/search?q=&k=`          | top-k tables for a natural-language query     |
//!   | `/complete?prefix=&k=`   | nearest schema completions for a prefix       |
//!   | `/types`                 | every semantic type with posting/table counts |
//!   | `/types/{label}/tables`  | posting list of one type                      |
//!   | `/tables/{id}`           | schema + annotations + sample rows            |
//!   | `/health`                | liveness + corpus size                        |
//!   | `/metrics`               | request counts, p50/p99 latency, cache stats  |
//!   | `/reload`                | POST: atomic corpus snapshot swap (also SIGHUP) |
//!   | `/shutdown`              | graceful drain (when enabled)                 |
//!
//! Every query endpoint's JSON body is byte-identical to serializing the
//! corresponding in-process [`QueryEngine`] call on the same corpus: the
//! handlers *are* those calls plus `serde_json::to_string`.
//!
//! ## Scale-out
//!
//! The corpus can be served by N *shard-local* engines instead of one:
//! [`ShardSet`] boots one whole-corpus engine (exactly as
//! [`QueryEngine::load`] does) and splits it by table count into
//! contiguous id ranges — per-range views of the search and
//! type indexes, one shared table source, one shared corpus-global
//! completion index. [`Router`] scatter-gathers `/search`, `/types` and
//! `/types/{label}/tables` across the engines — every shard in turn on
//! the worker that took the request, so the router owns no threads; a
//! `/search` query is embedded once for all of them — merging bounded
//! top-k answers bit-identically to the single-engine ranking, answers
//! `/complete` from the shared index, and routes `/tables/{id}` by the
//! stable-id directory. One request to N shards therefore costs the sum
//! of their engine time, not the maximum; under load the workers share
//! all shards' work (the trade is stated in the `router` module docs).
//!
//! Each worker serves the connections it accepted from its own
//! level-triggered `poll(2)` set — the same on every unix — so an idle
//! connection pins no thread and a request never changes threads
//! (the `http` module docs, "Concurrency model"). A `/reload` POST (or
//! `SIGHUP`) atomically swaps in a freshly-loaded corpus snapshot with zero
//! downtime: in-flight requests drain on the old snapshot before its
//! mappings drop. Graceful shutdown stops accepting and answers every
//! request that has begun to arrive before the workers exit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
mod engine;
mod event;
mod http;
mod indexer;
mod metrics;
mod router;
mod shardset;

pub use cache::CacheStats;
pub use client::{get, HttpClient};
pub use engine::{
    AnnotationSet, EngineBuildStats, HealthResponse, QueryEngine, TableSummary, TypeTablesResponse,
};
pub use http::{ErrorResponse, ReloadResponse, ReloadSpec, Server, ServerConfig, ServerHandle};
pub use indexer::{build_sidecars, IndexReport};
pub use metrics::{Endpoint, EndpointCount, Metrics, MetricsSnapshot};
pub use router::{Router, ShardPanic};
pub use shardset::ShardSet;

/// This crate's lock-poison policy, stated once: a request that panicked
/// under a lock must not turn every later request into a panic, so a
/// poisoned lock is entered all the same. What the locks guard — the
/// response cache, the serving snapshot — is well-formed between any two
/// statements that change it.
pub(crate) fn unpoisoned<G>(guard: Result<G, std::sync::PoisonError<G>>) -> G {
    guard.unwrap_or_else(std::sync::PoisonError::into_inner)
}
