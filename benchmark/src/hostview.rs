//! A forwarding [`CodeHost`] over a borrowed [`GitHost`]: lets fault
//! decorators own "a host" per repetition while the repositories are
//! populated once, and counts (optionally times) every call that
//! crosses the host boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gittables_githost::{CodeHost, GitHost, HostError, Query, SearchResponse};

#[derive(Debug, Default)]
pub struct HostCounters {
    pub search_calls: AtomicU64,
    pub fetch_calls: AtomicU64,
    pub fetch_bytes: AtomicU64,
    /// Time inside the forwarded calls; only kept by a timed view.
    pub host_ns: AtomicU64,
}

pub struct HostView<'a> {
    host: &'a GitHost,
    counters: &'a HostCounters,
    timed: bool,
}

impl<'a> HostView<'a> {
    pub fn new(host: &'a GitHost, counters: &'a HostCounters, timed: bool) -> Self {
        HostView {
            host,
            counters,
            timed,
        }
    }

    fn forward<T>(&self, call: impl FnOnce(&GitHost) -> T) -> T {
        if !self.timed {
            return call(self.host);
        }
        let started = Instant::now();
        let out = call(self.host);
        self.counters
            .host_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl CodeHost for HostView<'_> {
    fn count(&self, query: &Query) -> Result<usize, HostError> {
        self.counters.search_calls.fetch_add(1, Ordering::Relaxed);
        self.forward(|h| CodeHost::count(h, query))
    }

    fn search(&self, query: &Query, page: usize) -> Result<SearchResponse, HostError> {
        self.counters.search_calls.fetch_add(1, Ordering::Relaxed);
        self.forward(|h| CodeHost::search(h, query, page))
    }

    fn fetch(&self, repository: &str, path: &str) -> Result<Option<String>, HostError> {
        self.counters.fetch_calls.fetch_add(1, Ordering::Relaxed);
        let out = self.forward(|h| CodeHost::fetch(h, repository, path));
        if let Ok(Some(content)) = &out {
            self.counters
                .fetch_bytes
                .fetch_add(content.len() as u64, Ordering::Relaxed);
        }
        out
    }
}
