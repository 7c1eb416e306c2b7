//! The corpus container and the analyses of paper §4.
//!
//! A [`Corpus`] holds curated, annotated tables. The statistics modules
//! reproduce the published analyses:
//!
//! * [`stats`] — table/row/column/cell counts, dimension distributions
//!   (Fig. 4a), atomic-type distribution (Table 4), repository provenance
//!   (§4.1), topic subsets;
//! * [`annstats`] — annotation counts per method × ontology (Table 5),
//!   per-table coverage (Fig. 4b), similarity distribution (Fig. 4c), top-k
//!   semantic types (Fig. 5);
//! * [`bias`] — the Table 6 bias audit over person/geography types;
//! * [`persist`] — monolithic single-file JSON save/load;
//! * [`store`] — the sharded on-disk store (`manifest.json` + N shard files)
//!   with streaming writes, parallel loads, integrity checks, and
//!   in-place-atomic migration between shard formats;
//! * [`codec`] — the [`ShardCodec`] trait and its two implementations
//!   (`jsonl` text lines, `colv1` binary columnar segments);
//! * [`colv1`] — the mmap-decoded binary columnar segment format behind
//!   fast, low-RSS cold starts;
//! * [`typeindex`] — the inverted semantic-type index (label → posting
//!   list of `(table, column)` occurrences) behind the query-serving
//!   subsystem's `/types` endpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annstats;
pub mod bias;
pub mod codec;
pub mod colv1;
#[allow(clippy::module_inception)]
pub mod corpus;
pub mod dedup;
pub mod export;
pub mod failpoint;
pub mod join;
mod par;
pub mod persist;
pub mod sidecar;
pub mod stats;
pub mod store;
pub mod typeindex;
pub mod union;

pub use annstats::{AnnotationStats, Histogram};
pub use bias::{bias_audit, BiasRow};
pub use codec::{codec_for, ShardCodec, ShardEncoder, StoreFormat};
pub use corpus::{AnnotatedTable, Corpus, TableId};
pub use dedup::{
    combine_fingerprints, dedup_indices, dedup_indices_with, exact_duplicates,
    exact_duplicates_with, table_fingerprint, table_fingerprints, DuplicateGroup,
};
pub use export::{export_csv, export_csv_store};
pub use join::{join_candidates, join_tables, JoinCandidate};
pub use sidecar::{
    load_indexes, remove_sidecars, write_indexes, CompleteParts, F32Matrix, LazyCorpus,
    SearchParts, SidecarIndexes, SidecarIssue, SIDECAR_FILE,
};
pub use stats::CorpusStats;
pub use store::{
    load_store, migrate_store, save_store, save_store_as, shard_id_for, CorpusStore,
    GroupDirectory, MigrateReport, ShardEntry, ShardGroup, ShardWriter, StoreError, StoreManifest,
};
pub use typeindex::{TypeCount, TypeIndex, TypePosting};
pub use union::{union_groups, union_tables, UnionGroup};
