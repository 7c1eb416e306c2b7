//! The annotation cache: a bounded memo keyed by normalized column name.
//!
//! The paper's own corpus statistics motivate this: a handful of headers
//! (`id`, `name`, `date`, …) dominate the millions of extracted CSVs, and
//! both annotation methods depend on *nothing but the normalized column
//! name* — so the combined syntactic + semantic result for a distinct name
//! needs to be computed exactly once per pipeline, not once per column.
//!
//! [`AnnotationCache`] is the workspace's one bounded memo
//! ([`gittables_embed::Memo`]) of [`NameAnnotations`], safe to share
//! across a worker fan-out: a miss computes under its shard's write lock,
//! so each distinct name is computed once and the hit/miss counts are the
//! same at any number of workers; a name whose computation panicked is
//! simply computed again by its next lookup. Cached values are returned
//! as `Arc`s; callers rebind the per-table column index when
//! materializing.

use gittables_embed::Memo;

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

/// A sharded concurrent map from normalized column name to its memoized
/// annotation bundle, names of any length. See the module documentation.
pub type AnnotationCache = Memo<NameAnnotations, SHARDS, MAX_ENTRIES_PER_SHARD, { usize::MAX }>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Method;
    use gittables_embed::MemoStats;
    use gittables_ontology::OntologyKind;
    use std::sync::atomic::Ordering;

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
        assert_eq!(
            stats,
            MemoStats {
                hits: 4,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn distinct_names_distinct_entries() {
        let cache = AnnotationCache::new();
        cache.get_or_compute("id", || bundle("id"));
        cache.get_or_compute("name", || bundle("name"));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn capped_shard_computes_without_inserting() {
        let cache = AnnotationCache::new();
        // Far more distinct names than the cache will hold.
        for i in 0..(SHARDS * MAX_ENTRIES_PER_SHARD + 10_000) {
            cache.get_or_compute(&format!("name{i}"), NameAnnotations::default);
        }
        assert!(cache.stats().entries <= (SHARDS * MAX_ENTRIES_PER_SHARD) as u64);
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

    #[test]
    fn a_panicking_compute_leaves_its_shard_usable() {
        let cache = AnnotationCache::new();
        let panicked = std::panic::catch_unwind(|| {
            cache.get_or_compute("id", || -> NameAnnotations { panic!("annotator failed") });
        });
        assert!(panicked.is_err());
        let v = cache.get_or_compute("id", || bundle("id"));
        assert_eq!(v.syntactic_dbpedia.as_ref().unwrap().label, "id");
        assert_eq!(cache.get_or_compute("id", NameAnnotations::default), v);
        assert_eq!(
            cache.stats(),
            MemoStats {
                hits: 1,
                misses: 2,
                entries: 1
            }
        );
    }
}
