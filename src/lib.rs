//! Workspace-level re-exports for examples and integration tests.
//!
//! The supported platform is **unix**: the server, the crawl daemon's
//! signal handling and the mapped store reads go through `gittables_sys`,
//! the one crate with foreign calls and `unsafe` (five libc symbols:
//! `mmap`, `munmap`, `poll`, `signal`, `kill`). Every other crate, this
//! one included, forbids `unsafe_code`.

#![forbid(unsafe_code)]

pub use gittables_core as core;
pub use gittables_corpus as corpus;
pub use gittables_githost as githost;
pub use gittables_serve as serve;
pub use gittables_table as table;
pub use gittables_tablecsv as tablecsv;

pub use gittables_core::{
    Pipeline, PipelineConfig, PipelineReport, RetrySelection, StoreRun, StoreRunOptions,
};
pub use gittables_corpus::{load_store, save_store, CorpusStore, StoreError, TypeIndex};
pub use gittables_serve::{QueryEngine, Server, ServerConfig};
