//! GitTables: the end-to-end corpus construction pipeline and applications.
//!
//! This is the top-level crate of the reproduction of *GitTables: A
//! Large-Scale Corpus of Relational Tables* (SIGMOD 2023). It wires the
//! substrates together into the paper's pipeline (Fig. 1):
//!
//! 1. **Extraction** ([`extract`]) — WordNet topic queries against the
//!    (simulated) GitHub search API for every file kind (CSV and SQL
//!    dumps), with size-range segmentation to work around the
//!    1 000-result cap (§3.2).
//! 2. **Parsing** ([`parse`]) — per-kind dispatch: CSV sniffing + robust
//!    parsing with the §3.3 rules (99.3 % of files parse), and SQL-dump
//!    decoding via `gittables_tablesql` (a dump can yield several
//!    tables, one per `CREATE`/`INSERT`/`COPY` section).
//! 3. **Curation** — license/dimension/header/social filters and PII
//!    anonymization (§3.3).
//! 4. **Annotation** — syntactic and semantic column annotation against
//!    DBpedia and Schema.org (§3.4).
//! 5. **Corpus assembly** — an annotated [`gittables_corpus::Corpus`] with
//!    the §4 statistics available.
//!
//! The [`apps`] module implements the paper's §5 applications: semantic type
//! detection, schema completion (Algorithm 1), data search, and the
//! table-to-KG benchmark. [`shift`] implements the §4.2 data-shift
//! experiment and [`t2d_eval`] the §4.3 annotation-quality evaluation.
//!
//! # Quickstart
//!
//! ```
//! use gittables_core::{Pipeline, PipelineConfig};
//! use gittables_githost::GitHost;
//!
//! let config = PipelineConfig::small(7); // 3 topics, a few repos each
//! let pipeline = Pipeline::new(config);
//! let host = GitHost::new();
//! pipeline.populate_host(&host);
//! let (corpus, report) = pipeline.run(&host);
//! assert!(!corpus.is_empty());
//! assert!(report.parsed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod config;
pub mod crawl;
pub mod extract;
pub mod parse;
pub mod pipeline;
pub mod quarantine;
pub mod shift;
pub mod t2d_eval;

pub use config::{FaultPolicy, PipelineConfig};
pub use crawl::{crawl, CrawlOptions, CrawlState, CrawlSummary, PassOutcome, RepoCooldown};
pub use extract::{extract_topic, RawCsvFile};
pub use parse::{parse_file, parse_file_tables, ParseFailure};
pub use pipeline::{
    Pipeline, PipelineReport, Quarantined, RetrySelection, StoreRun, StoreRunOptions,
};
pub use quarantine::QuarantineLog;
