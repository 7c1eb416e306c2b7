//! A concurrent annotation cache keyed by normalized column name.
//!
//! The paper's own corpus statistics motivate this: a handful of headers
//! (`id`, `name`, `date`, …) dominate the millions of extracted CSVs, and
//! both annotation methods depend on *nothing but the normalized column
//! name* — so the combined syntactic + semantic result for a distinct name
//! needs to be computed exactly once per pipeline, not once per column.
//!
//! [`AnnotationCache`] is a sharded-lock hash map safe to share across a
//! worker fan-out: shards are selected by FNV hash of the name, reads take a
//! shard read-lock, and a miss computes the value under the shard write-lock
//! (so each distinct name is computed exactly once and hit/miss counts are
//! deterministic regardless of scheduling). Cached values are returned as
//! `Arc`s; callers rebind the per-table column index when materializing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use gittables_embed::ngram::fnv1a;

use crate::annotation::Annotation;

/// The memoized annotation bundle for one normalized column name: both
/// methods × both ontologies, with each [`Annotation::column`] left at `0`
/// (the cache is name-keyed; the caller rebinds the column index).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NameAnnotations {
    /// Syntactic result against DBpedia.
    pub syntactic_dbpedia: Option<Annotation>,
    /// Syntactic result against Schema.org.
    pub syntactic_schema: Option<Annotation>,
    /// Semantic result against DBpedia.
    pub semantic_dbpedia: Option<Annotation>,
    /// Semantic result against Schema.org.
    pub semantic_schema: Option<Annotation>,
}

/// Hit/miss counters of an [`AnnotationCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed and inserted a fresh entry (= distinct names).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A sharded concurrent map from normalized column name to its memoized
/// annotation bundle. See the module documentation.
#[derive(Debug)]
pub struct AnnotationCache {
    shards: Vec<RwLock<HashMap<String, Arc<NameAnnotations>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Shard count: enough to keep pipeline workers off each other's locks while
/// staying cache-friendly; must be a power of two.
const SHARDS: usize = 64;

/// Per-shard entry cap (≈256 K names total). Header names follow a heavy
/// power law, so the cap never engages on realistic corpora; it exists so
/// an adversarial long tail of distinct names cannot grow the cache
/// without bound. Beyond the cap a lookup computes without inserting —
/// correctness is unaffected (the computed value is identical either way),
/// only the hit/miss counters stop being scheduling-independent.
const MAX_ENTRIES_PER_SHARD: usize = 4096;

impl Default for AnnotationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnnotationCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        AnnotationCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Arc<NameAnnotations>>> {
        let h = fnv1a(name.as_bytes()) as usize;
        &self.shards[h & (SHARDS - 1)]
    }

    /// Returns the cached bundle for `name`, computing and inserting it via
    /// `compute` on first sight. `compute` runs under the shard write-lock,
    /// so concurrent lookups of the same new name compute it exactly once.
    pub fn get_or_compute(
        &self,
        name: &str,
        compute: impl FnOnce() -> NameAnnotations,
    ) -> Arc<NameAnnotations> {
        let shard = self.shard(name);
        if let Some(found) = shard.read().expect("cache shard lock").get(name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        let mut guard = shard.write().expect("cache shard lock");
        if let Some(found) = guard.get(name) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        if guard.len() < MAX_ENTRIES_PER_SHARD {
            guard.insert(name.to_string(), Arc::clone(&value));
        }
        value
    }

    /// Number of distinct names cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard lock").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("cache shard lock").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Method;
    use gittables_ontology::OntologyKind;

    fn bundle(label: &str) -> NameAnnotations {
        NameAnnotations {
            syntactic_dbpedia: Some(Annotation {
                column: 0,
                type_id: 7,
                label: label.to_string(),
                ontology: OntologyKind::DBpedia,
                method: Method::Syntactic,
                similarity: 1.0,
            }),
            ..Default::default()
        }
    }

    #[test]
    fn computes_once_per_name() {
        let cache = AnnotationCache::new();
        let mut computed = 0;
        for _ in 0..5 {
            let v = cache.get_or_compute("id", || {
                computed += 1;
                bundle("id")
            });
            assert_eq!(v.syntactic_dbpedia.as_ref().unwrap().label, "id");
        }
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_names_distinct_entries() {
        let cache = AnnotationCache::new();
        cache.get_or_compute("id", || bundle("id"));
        cache.get_or_compute("name", || bundle("name"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn capped_shard_computes_without_inserting() {
        let cache = AnnotationCache::new();
        // Far more distinct names than the cache will hold.
        for i in 0..(SHARDS * MAX_ENTRIES_PER_SHARD + 10_000) {
            cache.get_or_compute(&format!("name{i}"), NameAnnotations::default);
        }
        assert!(cache.len() <= SHARDS * MAX_ENTRIES_PER_SHARD);
        // Lookups past the cap still return the computed value.
        let v = cache.get_or_compute("fresh-after-cap", || bundle("x"));
        assert!(v.syntactic_dbpedia.is_some());
    }

    #[test]
    fn concurrent_lookups_compute_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = AnnotationCache::new();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for name in ["id", "name", "date", "price"] {
                        cache.get_or_compute(name, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            bundle(name)
                        });
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 4);
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 8 * 4 - 4);
    }
}
