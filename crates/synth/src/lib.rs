//! Deterministic synthetic-data substrate for the GitTables reproduction.
//!
//! The paper's raw material — millions of CSV files in GitHub repositories —
//! is an external resource, so this crate generates a statistically faithful
//! stand-in:
//!
//! * [`wordnet`] — an English noun inventory with topic categories and the
//!   offensive-topic exclusion list, driving query topics (paper §3.1 C3).
//! * [`values`] — seeded value generators per semantic domain (names, dates,
//!   countries with the Western skew of Table 6, species, prices, …).
//!   [`ValueKind::write`] appends a cell to a caller's buffer, printing
//!   numbers by hand; [`ValueKind::generate`] returns the same bytes as a
//!   `String`.
//! * [`schema`] — domain-specific schema templates with GitTables-like
//!   dimension distributions (long-tailed rows ≈ 142, columns ≈ 12).
//! * [`tablegen`] — turns a schema plan into a full table whose cells live
//!   in one row-major buffer ([`tablegen::Cells`]), not a `String` each.
//! * [`csvrender`] — renders tables to CSV text through a configurable *mess
//!   model*: delimiter choice, quoting, comment preambles, bad lines,
//!   trailing separators — the defect classes §3.3 curates away.
//! * [`sqlrender`] — renders tables to SQL-dump text in `mysqldump` /
//!   `pg_dump` / `sqlite3 .dump` / ANSI styles, the inverse of the
//!   `tablesql` ingestion path.
//! * [`repo`] — populates simulated repositories with CSV (and optionally
//!   SQL-dump) files, licenses (≈16 % permissive, §3.3) and fork flags.
//! * [`webtable`] — a VizNet/WDC-like *web table* generator (≈17 rows ×
//!   3–5 cols) used as the comparison corpus in §4.2 and Table 7.
//! * [`t2d`] — a T2Dv2-style gold standard with human-labeled DBpedia types
//!   including granularity quirks (`city` vs `location`), for §4.3.
//!
//! All generators take explicit `u64` seeds and are bit-for-bit reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csvrender;
pub mod repo;
pub mod schema;
pub mod sqlrender;
pub mod t2d;
pub mod tablegen;
pub mod values;
pub mod webtable;
pub mod wordnet;

pub use csvrender::{render_csv, MessModel};
pub use repo::{RepoGenerator, RepoSpec, SynthFile};
pub use schema::{ColumnSpec, Domain, SchemaPlan, SchemaSampler};
pub use sqlrender::{render_sql, render_sql_dialect, SqlRenderOptions};
pub use tablegen::generate_table;
pub use values::ValueKind;
pub use webtable::WebTableGenerator;
pub use wordnet::{topics, Topic};
