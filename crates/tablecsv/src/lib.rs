//! From-scratch CSV parsing substrate for the GitTables reproduction.
//!
//! The GitTables pipeline (paper §3.3) parses CSV files with the Pandas reader
//! plus Python's `Sniffer` for delimiter detection, with custom handling of
//! comment preambles, "bad lines", and trailing-delimiter misalignment. This
//! crate reimplements that functional contract:
//!
//! * [`sniff`] infers the CSV *dialect*'s delimiter from a sample, by
//!   scoring row-shape consistency across candidate delimiters — the same
//!   idea as Python's `csv.Sniffer`; the quote and comment bytes keep their
//!   conventional `"` and `#`.
//! * [`Parser`] is a streaming RFC-4180-style record reader supporting quoted
//!   fields, embedded delimiters/newlines, doubled-quote escapes, CR/LF/CRLF
//!   line endings, and comment lines.
//! * [`read_csv`] combines both with the paper's curation rules: preamble
//!   skipping (empty lines / `#` comments), bad-line removal, and realignment
//!   of rows that carry redundant trailing separators.
//!
//! # Example
//!
//! ```
//! let data = "# exported 2021-06-14\nid;name;price\n1;ant;0.5\n2;bee;1.5\n";
//! let parsed = gittables_tablecsv::read_csv(data, &Default::default()).unwrap();
//! assert_eq!(parsed.dialect.delimiter, b';');
//! assert_eq!(parsed.header, vec!["id", "name", "price"]);
//! assert_eq!(parsed.records.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dialect;
mod error;
mod parser;
mod reader;
mod scan;
mod sniffer;
mod writer;

pub use dialect::{Dialect, CANDIDATE_DELIMITERS};
pub use error::CsvError;
pub use parser::{Parser, RawRecord};
pub use reader::{read_csv, read_csv_columns, ParsedColumns, ParsedCsv, ReadOptions};
pub use scan::{memchr, memchr2, memchr3};
pub use sniffer::sniff;
pub use writer::write_csv;
