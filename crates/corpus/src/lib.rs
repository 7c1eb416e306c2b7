//! The corpus container and the analyses of paper §4.
//!
//! A [`Corpus`] holds curated, annotated tables. The statistics reproduce
//! the published analyses:
//!
//! * [`CorpusStats`] — table/row/column/cell counts, dimension distributions
//!   (Fig. 4a), atomic-type distribution (Table 4), repository provenance
//!   (§4.1), topic subsets;
//! * [`AnnotationStats`] — annotation counts per method × ontology (Table 5),
//!   per-table coverage (Fig. 4b), similarity distribution (Fig. 4c), top-k
//!   semantic types (Fig. 5);
//! * [`bias_audit`] — the Table 6 bias audit over person/geography types;
//! * [`save_corpus`] / [`load_corpus`] — monolithic single-file JSON
//!   save/load;
//! * [`CorpusStore`] — the sharded on-disk store (`manifest.json` + N shard
//!   files) with streaming writes, parallel loads, integrity checks, and
//!   in-place-atomic migration between shard formats;
//! * [`ShardCodec`] — the shard format trait and its two implementations
//!   (`jsonl` text lines, `colv1` binary columnar segments; [`StoreFormat`]
//!   names them). `colv1` is the mmap-decoded binary columnar segment
//!   format behind fast, low-RSS cold starts;
//! * [`TypeIndex`] — the inverted semantic-type index (label → posting
//!   list of `(table, column)` occurrences) behind the query-serving
//!   subsystem's `/types` endpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annstats;
mod bias;
mod checksum;
mod codec;
mod colv1;
#[allow(clippy::module_inception)]
mod corpus;
mod dedup;
mod export;
mod failpoint;
mod par;
mod persist;
mod sidecar;
mod stats;
mod store;
mod typeindex;
mod union;

pub use annstats::{coverage_histogram, similarity_histogram, AnnotationStats, Histogram};
pub use bias::{bias_audit, BiasRow};
pub use codec::{ShardCodec, ShardEncoder, StoreFormat};
pub use corpus::{AnnotatedTable, Corpus, TableId};
pub use dedup::{
    combine_fingerprints, dedup_indices, dedup_indices_with, exact_duplicates,
    exact_duplicates_with, table_fingerprint, table_fingerprints, DuplicateGroup,
};
pub use export::export_csv;
pub use failpoint::{clear_failpoint, configure_failpoint, FailMode};
pub use persist::{load_corpus, load_state, save_corpus, save_state, PersistError};
pub use sidecar::{
    load_indexes, write_indexes, CompleteParts, F32Matrix, LazyCorpus, SearchParts, SidecarIndexes,
    SidecarIssue, SIDECAR_FILE,
};
pub use stats::{col_dims, cumulative_counts, row_dims, CorpusStats};
pub use store::{
    load_store, migrate_store, save_store, save_store_as, shard_id_for, CorpusStore,
    GroupDirectory, MigrateReport, ShardEntry, ShardGroup, ShardWriter, StoreError, StoreManifest,
    MANIFEST_FILE,
};
pub use typeindex::{TypeCount, TypeIndex, TypePosting};
pub use union::{union_groups, union_tables, UnionGroup};
