//! Writes the index sidecar of a store — the one way a store gets its
//! `index.gtsc`, whether `gittables index` asks for it or a boot finds the
//! file missing, stale or corrupt.
//!
//! [`build_sidecars`] walks the store one shard at a time through the
//! store's one verifying walk ([`CorpusStore::load_shard`]: block seals,
//! table count and the manifest's fold of check values), strips each
//! table's cells as its block decodes — keeping only what the indexes
//! read (schema and annotations) and the table's check value — builds
//! the three query indexes in id order with the builder
//! [`QueryEngine::from_corpus`](crate::QueryEngine::from_corpus) uses, and
//! persists them plus the table-block directory next to the
//! shards as one file ([`gittables_corpus::write_indexes`]). So the
//! indexer holds one table's cells at a time, never one shard's, and a
//! `colv1` byte is hashed only by its block's seal check. From then on
//! [`QueryEngine::load`](crate::QueryEngine::load) boots in O(index mmap)
//! until the store's contents change — at which point the binding
//! fingerprints mark the sidecar stale and the next boot rewrites it.

use std::path::Path;

use gittables_corpus::{write_indexes, Corpus, CorpusStore, StoreError};

use crate::engine::build_indexes;
#[cfg(test)]
use crate::engine::QueryEngine;

/// What `gittables index` reports after writing the sidecar.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexReport {
    /// Tables in the indexed store (one search entry each).
    pub tables: usize,
    /// Distinct semantic types in the types section.
    pub types: usize,
    /// Distinct schemas in the completion section.
    pub schemas: usize,
    /// Bytes of the sidecar file.
    pub bytes: u64,
}

/// Builds and persists the sidecar for the store at `dir`, reading it one
/// shard at a time, and replaces `index.gtsc` atomically.
///
/// Two writers of one store (two boots, or a boot and `gittables index`)
/// share the temp file `index.gtsc.tmp`, so a race can tear the file one
/// of them renames into place. That costs a refusal, never a wrong
/// answer: the file's checksum refuses torn bytes as corrupt, and its
/// binding to the store's manifest refuses a file written for another
/// state of the store as stale. A boot that is refused the file it wrote
/// returns an error instead of serving it.
///
/// # Errors
/// Propagates store open/load and sidecar write failures. A failure
/// leaves the previous sidecar, if any, as it was.
pub fn build_sidecars(dir: impl AsRef<Path>) -> Result<IndexReport, StoreError> {
    write_sidecar(&CorpusStore::open(dir.as_ref())?)
}

/// [`build_sidecars`] over an already-open store.
pub(crate) fn write_sidecar(store: &CorpusStore) -> Result<IndexReport, StoreError> {
    let mut tables = Vec::with_capacity(store.len());
    for (entry, ids) in store.table_ids() {
        // The indexes read a table's schema and annotations, never its
        // cells: each table's are dropped as soon as its block decodes.
        let (stripped, checks) = store.load_shard(&entry, |mut at| {
            for column in at.table.columns_mut() {
                column.replace_values(Vec::new());
            }
            at
        })?;
        for ((id, at), check) in ids.into_iter().zip(stripped).zip(checks) {
            tables.push((id, at, check));
        }
    }
    tables.sort_unstable_by_key(|&(id, ..)| id);
    let mut corpus = Corpus::new(store.name());
    let mut checks = Vec::with_capacity(tables.len());
    for (_, at, check) in tables {
        corpus.push(at);
        checks.push(check);
    }
    let (search, completion, types) = build_indexes(&corpus);
    let bytes = write_indexes(
        store,
        &checks,
        &types,
        (search.entry_ids(), search.entry_schemas(), search.matrix()),
        (completion.entry_schemas(), completion.matrix()),
    )?;
    Ok(IndexReport {
        tables: corpus.len(),
        types: types.len(),
        schemas: completion.len(),
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_corpus::{load_store, save_store_as, AnnotatedTable, StoreFormat};
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
        for format in [StoreFormat::Jsonl, StoreFormat::ColV1] {
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
            assert_eq!(report.schemas, 1, "one distinct schema");
            assert!(report.bytes > 0);

            let lazy = QueryEngine::load(&dir).unwrap();
            assert_eq!(lazy.build_stats().boot_path, "sidecar", "{format}");
            assert_eq!(lazy.build_stats().fallback_reason, None);
            let reference = QueryEngine::from_corpus(load_store(&dir).unwrap());
            assert_eq!(reference.build_stats().boot_path, "memory");
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
