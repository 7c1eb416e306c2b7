//! Bounded response cache for the pure query endpoints.
//!
//! Every query endpoint is a pure function of an immutable snapshot, so a
//! response computed once can be replayed verbatim for the same request
//! target for as long as that snapshot serves. The cache is a
//! FIFO-bounded map keyed by the raw request target (path + query
//! string); eviction is insertion-order, which is enough for a
//! corpus-immutable workload where the win is absorbing repeats.
//!
//! The cache belongs to one snapshot **generation** at a time. A request
//! passes the generation of the snapshot it pinned to [`ResponseCache::get`]
//! and [`ResponseCache::insert`]; for any other generation a lookup misses
//! and an insert is dropped, so a request that outlives a reload can
//! neither read nor plant a body of the corpus it ran against.
//! [`ResponseCache::clear`] moves the cache to the next generation.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::unpoisoned;

/// A cached response: status plus the exact body bytes.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (shared, never mutated).
    pub body: Arc<String>,
}

/// Cache statistics, reported under `/metrics`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including when the cache is disabled).
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum entries kept.
    pub capacity: usize,
}

/// FIFO-bounded response cache. `capacity == 0` disables caching (every
/// lookup misses, nothing is stored).
#[derive(Debug)]
pub struct ResponseCache {
    capacity: usize,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheState {
    /// The snapshot generation every cached body was computed against.
    generation: u64,
    map: HashMap<String, CachedResponse>,
    order: VecDeque<String>,
}

impl ResponseCache {
    /// Creates a cache for generation 0 holding at most `capacity`
    /// responses.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            capacity,
            state: Mutex::new(CacheState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up the response for a request target, on behalf of a request
    /// that pinned snapshot `generation`. Misses when the cache holds
    /// another generation's bodies.
    #[must_use]
    pub fn get(&self, generation: u64, target: &str) -> Option<CachedResponse> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = {
            let state = unpoisoned(self.state.lock());
            if state.generation == generation {
                state.map.get(target).cloned()
            } else {
                None
            }
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a response computed against snapshot `generation`, evicting
    /// the oldest entry past capacity. Dropped when the cache has moved to
    /// another generation: the body answers a corpus no longer serving.
    pub fn insert(&self, generation: u64, target: &str, response: CachedResponse) {
        if self.capacity == 0 {
            return;
        }
        let mut state = unpoisoned(self.state.lock());
        // A reload overtook the request, or racing workers computed the
        // same pure response.
        if state.generation != generation || state.map.contains_key(target) {
            return;
        }
        while state.map.len() >= self.capacity {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            state.map.remove(&oldest);
        }
        state.map.insert(target.to_string(), response);
        state.order.push_back(target.to_string());
    }

    /// Drops every cached entry and starts caching for `generation`
    /// (hit/miss counters are kept — they describe traffic, not contents).
    /// Called on corpus reload: the cached bodies were computed against the
    /// outgoing snapshot, and so will be those of its requests still in
    /// flight.
    pub fn clear(&self, generation: u64) {
        let mut state = unpoisoned(self.state.lock());
        state.generation = generation;
        state.map.clear();
        state.order.clear();
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: unpoisoned(self.state.lock()).map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str) -> CachedResponse {
        CachedResponse {
            status: 200,
            body: Arc::new(body.to_string()),
        }
    }

    #[test]
    fn hit_after_insert() {
        let c = ResponseCache::new(4);
        assert!(c.get(0, "/a").is_none());
        c.insert(0, "/a", resp("x"));
        let got = c.get(0, "/a").unwrap();
        assert_eq!(*got.body, "x");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let c = ResponseCache::new(2);
        c.insert(0, "/a", resp("a"));
        c.insert(0, "/b", resp("b"));
        c.insert(0, "/c", resp("c"));
        assert!(c.get(0, "/a").is_none(), "oldest evicted");
        assert!(c.get(0, "/b").is_some());
        assert!(c.get(0, "/c").is_some());
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = ResponseCache::new(0);
        c.insert(0, "/a", resp("a"));
        assert!(c.get(0, "/a").is_none());
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn another_generation_neither_reads_nor_plants() {
        let c = ResponseCache::new(4);
        c.insert(0, "/a", resp("old corpus"));
        assert!(c.get(1, "/a").is_none(), "not yet this generation's");
        c.clear(1);
        assert_eq!(c.stats().entries, 0);
        // A request that pinned generation 0 finishes after the reload.
        c.insert(0, "/a", resp("old corpus"));
        assert_eq!(c.stats().entries, 0, "stale insert dropped");
        assert!(c.get(1, "/a").is_none());
        c.insert(1, "/a", resp("new corpus"));
        assert!(c.get(0, "/a").is_none(), "an old request misses");
        assert_eq!(*c.get(1, "/a").unwrap().body, "new corpus");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 1));
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let c = ResponseCache::new(4);
        c.insert(0, "/a", resp("first"));
        c.insert(0, "/a", resp("second"));
        assert_eq!(*c.get(0, "/a").unwrap().body, "first");
        assert_eq!(c.stats().entries, 1);
    }
}
