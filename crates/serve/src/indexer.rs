//! Builds the index sidecar of a store — the write side of the sidecar
//! boot path.
//!
//! [`build_sidecars`] materializes the corpus **once** (exactly what the
//! rebuild boot path does on every start), builds the three query
//! indexes with the same builder [`QueryEngine::from_corpus`] uses, and
//! persists them plus the table-block directory next to the shards as
//! one file ([`gittables_corpus::sidecar`]). From then on
//! [`QueryEngine::load`] boots in O(index mmap) until the store's
//! contents change — at which point the binding fingerprints mark the
//! sidecar stale and the engine falls back to a rebuild.
//!
//! Run it via `gittables index <store-dir>`, or call
//! [`write_sidecars`] directly after building a store in-process.

use std::path::Path;

use gittables_corpus::{table_fingerprints, write_indexes, Corpus, CorpusStore, StoreError};

use crate::engine::build_indexes;
#[cfg(test)]
use crate::engine::QueryEngine;

/// What `gittables index` reports after writing the sidecar.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexReport {
    /// Tables in the indexed store.
    pub tables: usize,
    /// Distinct semantic types in the types section.
    pub types: usize,
    /// Entries in the search section (one per table).
    pub search_entries: usize,
    /// Distinct schemas in the completion section.
    pub schemas: usize,
    /// Bytes of the sidecar file.
    pub bytes: u64,
}

/// Builds and persists the sidecar for the store at `dir`: loads the
/// corpus once, builds the indexes, replaces `index.gtsc` atomically.
///
/// # Errors
/// Propagates store open/load and sidecar write failures. A failure
/// leaves the previous sidecar, if any, as it was.
pub fn build_sidecars(dir: impl AsRef<Path>) -> Result<IndexReport, StoreError> {
    let store = CorpusStore::open(dir.as_ref())?;
    let corpus = store.load_corpus()?;
    write_sidecars(&store, &corpus)
}

/// [`build_sidecars`] over an already-loaded corpus (which must be the
/// exact contents of `store` — the binding fingerprints enforce this at
/// boot, not here).
///
/// # Errors
/// Propagates sidecar write failures.
pub fn write_sidecars(store: &CorpusStore, corpus: &Corpus) -> Result<IndexReport, StoreError> {
    // The builder `QueryEngine::from_corpus` uses, so a sidecar-booted
    // engine reassembles bit-identical indexes.
    let (search, completion, types) = build_indexes(corpus);
    let bytes = write_indexes(
        store,
        &table_fingerprints(corpus),
        &types,
        (search.entry_ids(), search.entry_schemas(), search.matrix()),
        (completion.entry_schemas(), completion.matrix()),
    )?;
    Ok(IndexReport {
        tables: corpus.len(),
        types: types.len(),
        search_entries: search.len(),
        schemas: completion.len(),
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_corpus::{save_store_as, AnnotatedTable, StoreFormat};
    use gittables_table::Table;

    fn corpus(n: usize) -> Corpus {
        let mut c = Corpus::new("ix-test");
        for i in 0..n {
            let rows = vec![
                vec![format!("{i}"), "alice".to_string()],
                vec![format!("{}", i + 1), "bob".to_string()],
            ];
            let t = Table::from_string_rows(format!("t{i}"), &["id", "name"], rows).unwrap();
            c.push(AnnotatedTable::new(t));
        }
        c
    }

    #[test]
    fn index_then_boot_serves_identical_answers() {
        for format in StoreFormat::ALL {
            let dir = std::env::temp_dir().join(format!(
                "gt_indexer_{format}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let c = corpus(6);
            save_store_as(&c, &dir, 2, format).unwrap();
            let report = build_sidecars(&dir).unwrap();
            assert_eq!(report.tables, 6);
            assert_eq!(report.search_entries, 6);
            assert_eq!(report.schemas, 1, "one distinct schema");
            assert!(report.bytes > 0);

            let lazy = QueryEngine::load(&dir).unwrap();
            assert_eq!(lazy.build_stats().boot_path, "sidecar", "{format}");
            assert_eq!(lazy.build_stats().fallback_reason, None);
            let reference = QueryEngine::load_materialized(&dir).unwrap();
            assert_eq!(reference.build_stats().boot_path, "rebuild");
            assert_eq!(
                serde_json::to_string(&lazy.search("alice names", 5)).unwrap(),
                serde_json::to_string(&reference.search("alice names", 5)).unwrap()
            );
            for id in 0..7 {
                assert_eq!(
                    serde_json::to_string(&lazy.table_summary(id)).unwrap(),
                    serde_json::to_string(&reference.table_summary(id)).unwrap()
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
