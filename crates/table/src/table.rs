//! The [`Table`] type: an ordered collection of named columns plus provenance.

use serde::{Deserialize, Serialize};

use crate::{CellArena, Column, Provenance, Schema, TableError};

/// A relational table parsed from a CSV file.
///
/// Cells are stored column-major (per [`Column`]) since every analysis in the
/// GitTables pipeline — type inference, annotation, feature extraction — is
/// column-oriented.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    provenance: Provenance,
}

impl Table {
    /// Creates a table from pre-built columns.
    ///
    /// # Errors
    /// Returns [`TableError::NoColumns`] for an empty column list and
    /// [`TableError::ColumnLengthMismatch`] if columns disagree on length.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self, TableError> {
        if columns.is_empty() {
            return Err(TableError::NoColumns);
        }
        let expected = columns[0].len();
        for c in &columns[1..] {
            if c.len() != expected {
                return Err(TableError::ColumnLengthMismatch {
                    column: c.name().to_string(),
                    found: c.len(),
                    expected,
                });
            }
        }
        Ok(Table {
            name: name.into(),
            columns,
            provenance: Provenance::default(),
        })
    }

    /// Creates a table from a header and row-major values.
    ///
    /// # Errors
    /// Returns [`TableError::RaggedRow`] if any row length differs from the
    /// header length, and [`TableError::NoColumns`] for an empty header.
    pub fn from_rows<H, R>(
        name: impl Into<String>,
        header: &[H],
        rows: &[R],
    ) -> Result<Self, TableError>
    where
        H: AsRef<str>,
        R: AsRef<[&'static str]>,
    {
        let header: Vec<&str> = header.iter().map(AsRef::as_ref).collect();
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.as_ref().iter().map(|s| (*s).to_string()).collect())
            .collect();
        Table::from_string_rows(name, &header, rows)
    }

    /// Creates a table from a header and owned row-major string values.
    ///
    /// # Errors
    /// Returns [`TableError::RaggedRow`] on row-length mismatch,
    /// [`TableError::NoColumns`] for an empty header and
    /// [`TableError::ColumnTooLarge`] when a column's cells overflow its
    /// arena.
    pub fn from_string_rows<H: AsRef<str>>(
        name: impl Into<String>,
        header: &[H],
        rows: Vec<Vec<String>>,
    ) -> Result<Self, TableError> {
        if header.is_empty() {
            return Err(TableError::NoColumns);
        }
        let ncols = header.len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(TableError::RaggedRow {
                    row: i,
                    found: r.len(),
                    expected: ncols,
                });
            }
        }
        // Transpose row-major input into column-major storage.
        let columns = header
            .iter()
            .enumerate()
            .map(|(j, h)| {
                let mut cells = CellArena::with_capacity(rows.len(), 0);
                for row in &rows {
                    cells.push(&row[j])?;
                }
                Ok(Column::from_cells(h.as_ref(), cells))
            })
            .collect::<Result<Vec<_>, TableError>>()?;
        Table::new(name, columns)
    }

    /// The table name (typically the CSV file stem).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The columns in order.
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Mutable access to columns (used by the anonymization pass).
    pub fn columns_mut(&mut self) -> &mut [Column] {
        &mut self.columns
    }

    /// Column by index.
    #[must_use]
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Number of columns.
    #[must_use]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Total number of cells (`rows × columns`).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.num_rows() * self.num_columns()
    }

    /// The table's schema (header names in order).
    #[must_use]
    pub fn schema(&self) -> Schema {
        self.columns.iter().map(|c| c.name().to_string()).collect()
    }

    /// Source provenance.
    #[must_use]
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Sets provenance (builder style).
    #[must_use]
    pub fn with_provenance(mut self, p: Provenance) -> Self {
        self.provenance = p;
        self
    }

    /// A single row as owned strings (for display / export). `None` if out of
    /// bounds.
    #[must_use]
    pub fn row(&self, idx: usize) -> Option<Vec<&str>> {
        if idx >= self.num_rows() {
            return None;
        }
        self.columns.iter().map(|c| c.get(idx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomicType;

    fn sample() -> Table {
        Table::from_rows(
            "t",
            &["id", "name", "price"],
            &[&["1", "ant", "0.5"], &["2", "bee", "1.5"]],
        )
        .unwrap()
    }

    #[test]
    fn dimensions() {
        let t = sample();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.num_cells(), 6);
    }

    #[test]
    fn schema_and_lookup() {
        let t = sample();
        assert_eq!(t.schema().attributes(), &["id", "name", "price"]);
    }

    #[test]
    fn row_access() {
        let t = sample();
        assert_eq!(t.row(0).unwrap(), vec!["1", "ant", "0.5"]);
        assert!(t.row(2).is_none());
    }

    #[test]
    fn ragged_row_rejected() {
        let err = Table::from_string_rows(
            "t",
            &["a", "b"],
            vec![vec!["1".into(), "2".into()], vec!["3".into()]],
        )
        .unwrap_err();
        assert_eq!(
            err,
            TableError::RaggedRow {
                row: 1,
                found: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn empty_header_rejected() {
        let header: [&str; 0] = [];
        let err = Table::from_string_rows("t", &header, vec![]).unwrap_err();
        assert_eq!(err, TableError::NoColumns);
    }

    #[test]
    fn column_length_mismatch_rejected() {
        let err = Table::new(
            "t",
            vec![
                Column::from_slice("a", &["1", "2"]),
                Column::from_slice("b", &["1"]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TableError::ColumnLengthMismatch { .. }));
    }

    #[test]
    fn types_inferred_per_column() {
        let t = sample();
        assert_eq!(t.column(0).unwrap().atomic_type(), AtomicType::Integer);
        assert_eq!(t.column(1).unwrap().atomic_type(), AtomicType::String);
        assert_eq!(t.column(2).unwrap().atomic_type(), AtomicType::Float);
    }

    #[test]
    fn provenance_roundtrip() {
        let t = sample().with_provenance(Provenance::new("r", "f.csv").with_topic("id"));
        assert_eq!(t.provenance().topic, "id");
    }
}
