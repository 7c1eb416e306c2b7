//! Lightweight per-column and per-table statistics.
//!
//! These feed the corpus-level analyses (paper §4.1) and are deliberately
//! cheap; the heavy 1 188-dimensional Sherlock feature extraction lives in the
//! `gittables-ml` crate.

use serde::{Deserialize, Serialize};

use crate::{AtomicType, Column, Table};

/// Summary statistics of a single column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Inferred atomic type.
    pub atomic_type: AtomicType,
    /// Number of cells.
    pub len: usize,
    /// Number of distinct values.
    pub distinct: usize,
    /// Fraction of missing cells in `[0, 1]`.
    pub missing_fraction: f64,
    /// Mean cell length in characters over non-missing cells.
    pub mean_cell_len: f64,
}

impl ColumnStats {
    /// Computes statistics for a column.
    #[must_use]
    pub fn of(column: &Column) -> Self {
        let (mut non_missing, mut chars) = (0usize, 0usize);
        for v in column.values().filter(|v| !crate::atomic::is_missing(v)) {
            non_missing += 1;
            chars += v.chars().count();
        }
        let mean_cell_len = if non_missing == 0 {
            0.0
        } else {
            chars as f64 / non_missing as f64
        };
        ColumnStats {
            name: column.name().to_string(),
            atomic_type: column.atomic_type(),
            len: column.len(),
            distinct: column.distinct_count(),
            missing_fraction: column.missing_fraction(),
            mean_cell_len,
        }
    }
}

/// Summary statistics of a whole table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub columns: usize,
    /// Number of cells.
    pub cells: usize,
    /// Per-column statistics.
    pub column_stats: Vec<ColumnStats>,
}

impl TableStats {
    /// Computes statistics for a table.
    #[must_use]
    pub fn of(table: &Table) -> Self {
        TableStats {
            name: table.name().to_string(),
            rows: table.num_rows(),
            columns: table.num_columns(),
            cells: table.num_cells(),
            column_stats: table.columns().iter().map(ColumnStats::of).collect(),
        }
    }

    /// Count of columns per atomic-type bucket: `(numeric, string, other)`,
    /// the buckets of the paper's Table 4.
    #[must_use]
    pub fn atomic_buckets(&self) -> (usize, usize, usize) {
        let mut numeric = 0;
        let mut string = 0;
        let mut other = 0;
        for c in &self.column_stats {
            if c.atomic_type.is_numeric() {
                numeric += 1;
            } else if c.atomic_type.is_string() {
                string += 1;
            } else {
                other += 1;
            }
        }
        (numeric, string, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;

    #[test]
    fn column_stats() {
        let c = Column::from_slice("x", &["ab", "nan", "abcd"]);
        let s = ColumnStats::of(&c);
        assert_eq!(s.len, 3);
        assert_eq!(s.distinct, 3);
        assert!((s.missing_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_cell_len - 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_stats_and_buckets() {
        let t = Table::from_rows(
            "t",
            &["id", "name", "price", "when"],
            &[
                &["1", "ant", "0.5", "2020-01-01"],
                &["2", "bee", "1.5", "2020-01-02"],
            ],
        )
        .unwrap();
        let s = TableStats::of(&t);
        assert_eq!(s.rows, 2);
        assert_eq!(s.columns, 4);
        assert_eq!(s.cells, 8);
        let (num, st, other) = s.atomic_buckets();
        // Dates bucket as string (Pandas object dtype); see `is_string`.
        assert_eq!((num, st, other), (2, 2, 0));
    }

    #[test]
    fn all_missing_column_mean_len_zero() {
        let c = Column::from_slice("x", &["nan", ""]);
        let s = ColumnStats::of(&c);
        assert_eq!(s.mean_cell_len, 0.0);
    }
}
