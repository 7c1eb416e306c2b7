//! Error type for SQL-dump reading.

use std::fmt;

use gittables_table::TableError;

/// Errors produced while sniffing, splitting, or decoding a SQL dump.
///
/// Every variant is a *content* failure: the pipeline counts these in
/// `parse_failed` exactly like CSV parse errors — they never quarantine a
/// repository (quarantine is reserved for host faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// The file was empty or whitespace-only.
    Empty,
    /// The content has no recognizable SQL structure (no `CREATE TABLE`,
    /// `INSERT INTO`, or `COPY ... FROM stdin`) — e.g. binary garbage.
    NotSql,
    /// A string literal was still open at end of input.
    UnterminatedString {
        /// Byte offset where the offending quote opened.
        offset: usize,
    },
    /// A `/* ... */` block comment was still open at end of input.
    UnterminatedComment {
        /// Byte offset where the comment opened.
        offset: usize,
    },
    /// A `$tag$ ... $tag$` dollar-quoted string was still open at end of
    /// input.
    UnterminatedDollarQuote {
        /// Byte offset where the dollar quote opened.
        offset: usize,
    },
    /// A `COPY ... FROM stdin` data block was not terminated by a `\.`
    /// line before end of input (a cut-off dump).
    UnterminatedCopy {
        /// Byte offset where the data block started.
        offset: usize,
    },
    /// A statement ended mid-expression (e.g. an `INSERT` whose `VALUES`
    /// tuple is cut off before its closing parenthesis).
    TruncatedStatement {
        /// Byte offset where the statement started.
        offset: usize,
    },
    /// A single statement (text plus any `COPY` data block) exceeded
    /// [`crate::SqlReadOptions::max_statement_bytes`] — the adversarial
    /// "whole payload in one statement" shape.
    StatementTooLarge {
        /// Byte offset where the statement started.
        offset: usize,
        /// Size of the offending statement in bytes.
        size: usize,
        /// The configured limit it exceeded.
        limit: usize,
    },
    /// The dump parsed but yielded no table with at least one data row.
    NoTables,
    /// The decoded cells of one column do not fit a cell arena (more than
    /// `u32::MAX` bytes in a single column).
    Cells(TableError),
}

impl From<TableError> for SqlError {
    fn from(e: TableError) -> Self {
        SqlError::Cells(e)
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Empty => write!(f, "empty input"),
            SqlError::NotSql => write!(f, "no recognizable SQL statements"),
            SqlError::UnterminatedString { offset } => {
                write!(f, "unterminated string literal starting at byte {offset}")
            }
            SqlError::UnterminatedComment { offset } => {
                write!(f, "unterminated block comment starting at byte {offset}")
            }
            SqlError::UnterminatedDollarQuote { offset } => {
                write!(f, "unterminated dollar quote starting at byte {offset}")
            }
            SqlError::UnterminatedCopy { offset } => {
                write!(
                    f,
                    "COPY data block starting at byte {offset} missing its \\. terminator"
                )
            }
            SqlError::TruncatedStatement { offset } => {
                write!(f, "truncated statement starting at byte {offset}")
            }
            SqlError::StatementTooLarge {
                offset,
                size,
                limit,
            } => {
                write!(
                    f,
                    "statement at byte {offset} is {size} bytes, over the {limit}-byte limit"
                )
            }
            SqlError::NoTables => write!(f, "no tables with data rows"),
            SqlError::Cells(e) => write!(f, "cells cannot be stored: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(SqlError::Empty.to_string().contains("empty"));
        assert!(SqlError::NotSql.to_string().contains("SQL"));
        assert!(SqlError::UnterminatedString { offset: 7 }
            .to_string()
            .contains('7'));
        assert!(SqlError::UnterminatedCopy { offset: 3 }
            .to_string()
            .contains("\\."));
        assert!(SqlError::TruncatedStatement { offset: 0 }
            .to_string()
            .contains("truncated"));
        let too_large = SqlError::StatementTooLarge {
            offset: 2,
            size: 900,
            limit: 64,
        };
        assert!(too_large.to_string().contains("900"));
        assert!(too_large.to_string().contains("64"));
    }
}
