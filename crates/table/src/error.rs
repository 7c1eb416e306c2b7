//! Error type for table construction.

use std::fmt;

/// Errors produced when constructing or manipulating a [`crate::Table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row had a different number of values than the header.
    RaggedRow {
        /// Zero-based row index.
        row: usize,
        /// Number of values found in the row.
        found: usize,
        /// Number of columns expected from the header.
        expected: usize,
    },
    /// Duplicate column name after normalization.
    DuplicateColumn(String),
    /// The table has no columns.
    NoColumns,
    /// Columns passed to `Table::new` have inconsistent lengths.
    ColumnLengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Its length.
        found: usize,
        /// Length of the first column.
        expected: usize,
    },
    /// A column's cells no longer fit the arena's `u32` offsets.
    ColumnTooLarge {
        /// Total cell bytes the column would have held.
        bytes: usize,
    },
    /// A `(blob, ends)` pair handed to
    /// [`crate::CellArena::from_raw_parts`] breaks the arena invariant.
    InvalidArena {
        /// Index of the first offending end offset (`ends.len()` when the
        /// last offset is not the blob length).
        index: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::RaggedRow {
                row,
                found,
                expected,
            } => write!(
                f,
                "row {row} has {found} values but the header has {expected} columns"
            ),
            TableError::DuplicateColumn(name) => write!(f, "duplicate column name: {name:?}"),
            TableError::NoColumns => write!(f, "table has no columns"),
            TableError::ColumnLengthMismatch {
                column,
                found,
                expected,
            } => write!(
                f,
                "column {column:?} has {found} values, expected {expected}"
            ),
            TableError::ColumnTooLarge { bytes } => write!(
                f,
                "column of {bytes} cell bytes overflows the arena's u32 offsets"
            ),
            TableError::InvalidArena { index } => write!(
                f,
                "arena offset {index} is decreasing, off a char boundary or not the blob length"
            ),
        }
    }
}

impl std::error::Error for TableError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TableError::RaggedRow {
            row: 3,
            found: 2,
            expected: 5,
        };
        assert!(e.to_string().contains("row 3"));
        assert!(TableError::NoColumns.to_string().contains("no columns"));
        assert!(TableError::DuplicateColumn("id".into())
            .to_string()
            .contains("id"));
        assert!(TableError::ColumnTooLarge {
            bytes: 5_000_000_000
        }
        .to_string()
        .contains("5000000000"));
        assert!(TableError::InvalidArena { index: 7 }
            .to_string()
            .contains("offset 7"));
    }
}
