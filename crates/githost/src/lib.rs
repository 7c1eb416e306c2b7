//! A simulated code-hosting service with a GitHub-like code-search API.
//!
//! The GitTables extraction pipeline (§3.2) works against the GitHub Search
//! API, whose restrictions shape the whole algorithm:
//!
//! * files larger than **438 kB** are not returned;
//! * a query returns at most **1 000 results**, paginated (~100 per page);
//! * results can be narrowed with qualifiers — `extension:csv`,
//!   `size:50..100` (bytes) — which the paper uses to *segment* large topic
//!   queries into size ranges small enough to fit the cap;
//! * forked repositories are excluded to limit duplication.
//!
//! [`GitHost`] stores repositories (from `gittables-synth` or hand-built) in
//! memory behind a token-based inverted index, and [`SearchApi`] exposes the
//! same query contract, so the extraction code exercises exactly the
//! paper's algorithm minus the HTTP transport.
//!
//! # Example
//!
//! ```
//! use gittables_githost::{GitHost, Query, Repository, RepoFile};
//!
//! let mut host = GitHost::new();
//! host.add_repository(Repository {
//!     full_name: "alice/rides".into(),
//!     license: Some("mit".into()),
//!     fork: false,
//!     files: vec![RepoFile::new("rides.csv", "id,name\n1,Bob\n")],
//! });
//! let api = host.search_api();
//! let resp = api.search(&Query::parse("id extension:csv").unwrap(), 1);
//! assert_eq!(resp.total_count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fault;
mod host;
mod model;
mod pool;
mod search;

pub use clock::sleep_until_stop;
pub use fault::{FaultCounts, FaultSpec, FlakyHost};
pub use host::{CodeHost, GitHost, HostError};
pub use model::{FileKind, RepoFile, Repository};
pub use pool::{
    BreakerPolicy, BreakerState, CircuitBreaker, HostPool, PoolPolicy, PoolStats, RateBudget,
    ReplicaStats,
};
pub use search::{
    Query, SearchApi, SearchResponse, SearchResult, MAX_FILE_SIZE, MAX_RESULTS_PER_QUERY,
};

/// This crate's lock-poison policy, stated once: a fetch that panicked
/// under a lock must not turn every later fetch into a panic, so a
/// poisoned lock is entered all the same. What the locks guard — the
/// host's repositories, fault streaks, replica counters — is well-formed
/// between any two statements that change it.
pub(crate) fn unpoisoned<G>(guard: Result<G, std::sync::PoisonError<G>>) -> G {
    guard.unwrap_or_else(std::sync::PoisonError::into_inner)
}
