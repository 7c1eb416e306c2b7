//! Error type for CSV reading.

use std::fmt;

use gittables_table::TableError;

/// Errors produced while sniffing or parsing a CSV file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The sniffer could not find any delimiter producing a consistent table
    /// shape (e.g. binary content or free text).
    UndetectableDialect,
    /// The file had no data rows after preamble/comment/bad-line handling.
    NoRows,
    /// The file was empty or whitespace-only.
    Empty,
    /// A quoted field was still open at end of input.
    UnterminatedQuote {
        /// Byte offset where the offending quote opened.
        offset: usize,
    },
    /// Too large a fraction of rows were discarded as bad lines; the file is
    /// considered unparseable (paper: 0.7 % of files fail to parse).
    TooManyBadLines {
        /// Rows discarded.
        bad: usize,
        /// Total rows seen.
        total: usize,
    },
    /// The surviving cells of one column do not fit a cell arena (more than
    /// `u32::MAX` bytes in a single column).
    Cells(TableError),
}

impl From<TableError> for CsvError {
    fn from(e: TableError) -> Self {
        CsvError::Cells(e)
    }
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::UndetectableDialect => write!(f, "could not detect a CSV dialect"),
            CsvError::NoRows => write!(f, "no data rows after curation"),
            CsvError::Empty => write!(f, "empty input"),
            CsvError::UnterminatedQuote { offset } => {
                write!(f, "unterminated quoted field starting at byte {offset}")
            }
            CsvError::TooManyBadLines { bad, total } => {
                write!(f, "{bad} of {total} rows were bad lines; file rejected")
            }
            CsvError::Cells(e) => write!(f, "cells cannot be stored: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(CsvError::Empty.to_string().contains("empty"));
        assert!(CsvError::UnterminatedQuote { offset: 10 }
            .to_string()
            .contains("10"));
        assert!(CsvError::TooManyBadLines { bad: 5, total: 9 }
            .to_string()
            .contains("5 of 9"));
    }
}
