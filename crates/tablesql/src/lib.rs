//! Streaming SQL-dump parsing: the corpus's second ingest source.
//!
//! GitHub repositories hold relational tables not only as CSV files but as
//! MySQL/Postgres/SQLite dumps. This crate turns such dumps into the same
//! column-major tables the CSV substrate produces, reusing its SWAR byte
//! scanning ([`gittables_tablecsv::memchr`] and its two- and three-byte
//! variants) and mirroring its structure:
//!
//! * [`sniff_dialect`] detects the dump dialect from a bounded prefix by
//!   scoring lexical fingerprints (the analogue of `tablecsv::sniff`'s
//!   consistency scoring) — and rejects content with no SQL structure.
//! * `StatementSplitter` splits the byte stream into statements with a
//!   quote/comment state machine over `memchr`-located interesting bytes,
//!   so semicolons inside literals, comments, or dollar quotes never
//!   split; `COPY ... FROM stdin` data blocks attach to their statement.
//! * [`read_sql_tables`] decodes `CREATE TABLE` column lists, multi-row
//!   `INSERT ... VALUES`, and COPY blocks into [`SqlTable`]s with
//!   SQL-literal unescaping (`''`, `\'`, `\n`; `NULL` / `\N` become empty
//!   cells).
//!
//! # Example
//!
//! ```
//! let dump = "CREATE TABLE orders (id INTEGER, item TEXT);\n\
//!             INSERT INTO orders VALUES (1, 'ant; colony'), (2, NULL);\n";
//! let parsed = gittables_tablesql::read_sql_tables(dump, &Default::default()).unwrap();
//! assert_eq!(parsed.tables[0].header, vec!["id", "item"]);
//! let names: Vec<&str> = parsed.tables[0].columns[1].iter().collect();
//! assert_eq!(names, ["ant; colony", ""]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dialect;
mod error;
mod reader;
mod sniffer;
mod splitter;

pub use dialect::SqlDialect;
pub use error::SqlError;
pub use reader::{read_sql_tables, ParsedSql, SqlReadOptions, SqlTable};
pub use sniffer::sniff_dialect;
