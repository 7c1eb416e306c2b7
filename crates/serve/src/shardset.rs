//! [`ShardSet`]: one corpus snapshot split across N shard-local
//! [`QueryEngine`]s, each owning a contiguous global table-id range.
//!
//! Every set starts as one whole-corpus engine — booted from the store
//! (`QueryEngine::boot`: sidecar-first, rebuild fallback) or built
//! over an in-memory corpus — which is then split into near-even id
//! ranges by table count ([`GroupDirectory::split_even`]; every engine
//! reads tables from the one shared source, so the store's own shard
//! boundaries do not matter): each engine gets a
//! slice of the search index (a zero-copy row view of the mapped sidecar
//! matrix, [`gittables_corpus::F32Matrix::slice_rows`], its rows' norms
//! and its run of the shared packed rows) and its
//! restriction of the type index, while all engines share the table
//! source (mapped shard arenas or the materialized corpus) and the one
//! corpus-global completion index. N-shard boot therefore costs what
//! 1-shard boot costs plus the slicing; nothing is re-embedded, and every
//! search row is normed and packed once. A
//! [`crate::router::Router`] scatter-gathers queries across the set and
//! merges answers bit-identically to a whole-corpus engine.
//!
//! One shard is one group covering everything: the booted engine itself,
//! moved.

use std::path::Path;
use std::sync::Arc;

use gittables_corpus::{Corpus, CorpusStore, GroupDirectory, StoreError};

use crate::engine::{EngineBuildStats, QueryEngine};

/// N shard-local engines plus the id → shard directory. Immutable after
/// construction; the server swaps whole sets atomically on reload.
pub struct ShardSet {
    engines: Vec<Arc<QueryEngine>>,
    directory: GroupDirectory,
    build: EngineBuildStats,
}

impl ShardSet {
    /// Wraps an already-built whole-corpus engine as a 1-shard set —
    /// behaviour is exactly the engine's, with zero routing overhead.
    #[must_use]
    pub fn from_engine(engine: Arc<QueryEngine>) -> Self {
        let build = engine.build_stats().clone();
        let directory = GroupDirectory::from_ranges([engine.id_range()]);
        ShardSet {
            engines: vec![engine],
            directory,
            build,
        }
    }

    /// Splits an in-memory corpus into `n` near-even contiguous shards
    /// (clamped to the corpus size) — the store-less path used by tests.
    #[must_use]
    pub fn from_corpus(corpus: &Corpus, n: usize) -> Self {
        Self::split(QueryEngine::from_corpus(corpus.clone()), n)
    }

    /// Boots a sharded set for the store at `dir`: one whole-corpus
    /// engine boots exactly as [`QueryEngine::load`] does — sidecar path
    /// preferred, a missing/stale/corrupt sidecar set downgrading to a
    /// materialized rebuild recorded in
    /// [`EngineBuildStats::fallback_reason`] — and is split into `shards`
    /// near-even id ranges (at most one per table).
    ///
    /// # Errors
    /// Propagates store open/load failures.
    pub fn load(dir: impl AsRef<Path>, shards: usize) -> Result<Self, StoreError> {
        let started = std::time::Instant::now();
        let store = CorpusStore::open(dir.as_ref())?;
        Ok(Self::split(QueryEngine::boot(&store, started)?, shards))
    }

    /// Splits a whole-corpus engine into `n` near-even id ranges; the
    /// slicing time joins the set-level `index_build_ms`.
    fn split(engine: QueryEngine, n: usize) -> Self {
        let mut build = engine.build_stats().clone();
        let started = std::time::Instant::now();
        let directory = GroupDirectory::split_even(engine.num_tables(), n);
        let engines = engine.split(&directory).into_iter().map(Arc::new).collect();
        build.index_build_ms += started.elapsed().as_secs_f64() * 1e3;
        ShardSet {
            engines,
            directory,
            build,
        }
    }

    /// The shard-local engines, in ascending id-range order.
    #[must_use]
    pub fn engines(&self) -> &[Arc<QueryEngine>] {
        &self.engines
    }

    /// The stable-id → shard directory.
    #[must_use]
    pub fn directory(&self) -> &GroupDirectory {
        &self.directory
    }

    /// Number of shard-local engines.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// Total tables across all shards.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.directory.groups().last().map_or(0, |g| g.range.end)
    }

    /// The set-level cold-start breakdown (whole-set wall times).
    #[must_use]
    pub fn build_stats(&self) -> &EngineBuildStats {
        &self.build
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_corpus::AnnotatedTable;
    use gittables_table::Table;

    fn corpus(n: usize) -> Corpus {
        let mut c = Corpus::new("shardset-test");
        for i in 0..n {
            let attrs = [
                format!("col_{}", i % 3),
                "value".to_string(),
                "note".to_string(),
            ];
            let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let row: Vec<&str> = refs.iter().map(|_| "v").collect();
            let t = Table::from_rows(format!("t{i}"), &refs, &[row]).unwrap();
            c.push(AnnotatedTable::new(t));
        }
        c
    }

    #[test]
    fn from_corpus_splits_evenly_and_covers() {
        let c = corpus(7);
        for n in 1..=8 {
            let set = ShardSet::from_corpus(&c, n);
            assert_eq!(set.num_shards(), n.min(7));
            assert_eq!(set.num_tables(), 7);
            let mut next = 0;
            for (g, e) in set.directory().groups().iter().zip(set.engines()) {
                assert_eq!(g.range, e.id_range());
                assert_eq!(g.range.start, next);
                assert!(!g.range.is_empty());
                next = g.range.end;
            }
            assert_eq!(next, 7);
            for id in 0..7 {
                let owner = set.directory().owner_of(id).unwrap();
                let summary = set.engines()[owner].try_table_summary(id).unwrap().unwrap();
                assert_eq!(summary.id, id);
                assert_eq!(summary.name, format!("t{id}"));
            }
            assert_eq!(set.directory().owner_of(7), None);
        }
    }

    #[test]
    fn shard_engines_answer_only_their_range() {
        let c = corpus(6);
        let set = ShardSet::from_corpus(&c, 3);
        let e1 = &set.engines()[1];
        assert_eq!(e1.id_range(), 2..4);
        assert!(e1.try_table_summary(1).unwrap().is_none());
        assert!(e1.try_table_summary(2).unwrap().is_some());
        assert!(e1.try_table_summary(4).unwrap().is_none());
        let hits = e1.search("col", 10);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| (2..4).contains(&h.table_index)));
    }

    #[test]
    fn single_shard_load_equals_query_engine_load() {
        let c = corpus(5);
        let dir = tmp("one");
        gittables_corpus::save_store(&c, &dir, 2).unwrap();
        let set = ShardSet::load(&dir, 1).unwrap();
        let reference = QueryEngine::load(&dir).unwrap();
        assert_eq!(set.num_shards(), 1);
        assert_eq!(
            set.build_stats().boot_path,
            reference.build_stats().boot_path
        );
        assert_eq!(
            set.engines()[0].search("col", 5),
            reference.search("col", 5)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gt_shardset_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Every routed answer of a set, as JSON.
    fn answers(set: ShardSet) -> Vec<String> {
        let router = crate::Router::new(set);
        let mut out = vec![
            serde_json::to_string(&router.search("col value", 3).unwrap()).unwrap(),
            serde_json::to_string(&router.complete(&["col_1"], 3).unwrap()).unwrap(),
            serde_json::to_string(&router.type_counts().unwrap()).unwrap(),
        ];
        for id in 0..=router.num_tables() {
            out.push(serde_json::to_string(&router.try_table_summary(id).unwrap()).unwrap());
        }
        out
    }

    #[test]
    fn swapped_and_sparse_keys_serve_two_shards_identical_to_one() {
        let c = corpus(5);
        let dir = tmp("sparse");
        // Keys are sparse, repeat, and run against commit order: table ids
        // are their ranks, so store shard `late` owns ids 0..2.
        let store = CorpusStore::create(&dir, &c.name).unwrap();
        let layout: [(&str, &[(usize, usize)]); 2] = [
            ("early", &[(4096, 2), (9000, 4), (4096, 3)]),
            ("late", &[(7, 0), (1024, 1)]),
        ];
        for (id, tables) in layout {
            let mut w = store.begin_shard(id).unwrap();
            for &(key, t) in tables {
                w.push(key, &c.tables[t]).unwrap();
            }
            store.commit_shard(w.finish().unwrap()).unwrap();
        }
        assert_eq!(store.load_corpus().unwrap(), c);
        let one = answers(ShardSet::load(&dir, 1).unwrap());
        assert_eq!(one, answers(ShardSet::from_corpus(&c, 1)));
        for with_sidecars in [false, true] {
            if with_sidecars {
                crate::build_sidecars(&dir).unwrap();
            }
            for n in 2..=6 {
                let set = ShardSet::load(&dir, n).unwrap();
                assert_eq!(set.num_shards(), n.min(5));
                let path = if with_sidecars { "sidecar" } else { "rebuild" };
                assert_eq!(set.build_stats().boot_path, path);
                assert_eq!(answers(set), one, "{n} shards, {path}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_is_one_empty_group() {
        let dir = tmp("empty");
        CorpusStore::create(&dir, "none").unwrap();
        let set = ShardSet::load(&dir, 3).unwrap();
        assert_eq!(set.num_shards(), 1);
        assert_eq!(set.num_tables(), 0);
        assert_eq!(set.directory().groups()[0].range, 0..0);
        assert_eq!(set.directory().owner_of(0), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
