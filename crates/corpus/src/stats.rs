//! Corpus-level structural statistics (§4.1, Table 1, Table 4, Fig. 4a).

use std::collections::HashMap;

use crate::corpus::Corpus;

/// Structural statistics of a corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Number of tables.
    pub tables: usize,
    /// Total rows across tables.
    pub total_rows: usize,
    /// Total columns across tables.
    pub total_columns: usize,
    /// Total cells.
    pub total_cells: usize,
    /// Mean rows per table (paper: 142).
    pub avg_rows: f64,
    /// Mean columns per table (paper: 12).
    pub avg_columns: f64,
    /// Mean cells per table (paper: 1 038).
    pub avg_cells: f64,
    /// Numeric / string / other column fractions (Table 4 buckets).
    pub atomic_fractions: (f64, f64, f64),
    /// Mean tables contributed per repository (paper: 34).
    pub avg_tables_per_repo: f64,
    /// Fraction of repositories contributing at most 5 tables (paper: 75 %).
    pub frac_repos_leq5: f64,
}

impl CorpusStats {
    /// Computes statistics over `corpus`.
    #[must_use]
    pub fn of(corpus: &Corpus) -> Self {
        let n = corpus.len();
        let mut total_rows = 0usize;
        let mut total_columns = 0usize;
        let mut numeric = 0usize;
        let mut string = 0usize;
        let mut other = 0usize;
        let mut per_repo: HashMap<&str, usize> = HashMap::new();
        let mut total_cells = 0usize;
        for at in &corpus.tables {
            let t = &at.table;
            total_rows += t.num_rows();
            total_columns += t.num_columns();
            total_cells += t.num_cells();
            for c in t.columns() {
                let ty = c.atomic_type();
                if ty.is_numeric() {
                    numeric += 1;
                } else if ty.is_string() {
                    string += 1;
                } else {
                    other += 1;
                }
            }
            if !t.provenance().repository.is_empty() {
                *per_repo
                    .entry(t.provenance().repository.as_str())
                    .or_default() += 1;
            }
        }
        let nf = n.max(1) as f64;
        let cols = total_columns.max(1) as f64;
        let repos = per_repo.len().max(1) as f64;
        let leq5 = per_repo.values().filter(|&&c| c <= 5).count();
        CorpusStats {
            tables: n,
            total_rows,
            total_columns,
            total_cells,
            avg_rows: total_rows as f64 / nf,
            avg_columns: total_columns as f64 / nf,
            avg_cells: total_cells as f64 / nf,
            atomic_fractions: (
                numeric as f64 / cols,
                string as f64 / cols,
                other as f64 / cols,
            ),
            avg_tables_per_repo: n as f64 / repos,
            frac_repos_leq5: if per_repo.is_empty() {
                0.0
            } else {
                leq5 as f64 / repos
            },
        }
    }
}

/// Cumulative table counts across a dimension (Fig. 4a's series): for each
/// threshold `d` in `thresholds`, the number of tables whose dimension is
/// ≤ `d`.
#[must_use]
pub fn cumulative_counts(dims: &[usize], thresholds: &[usize]) -> Vec<(usize, usize)> {
    let mut sorted = dims.to_vec();
    sorted.sort_unstable();
    thresholds
        .iter()
        .map(|&t| {
            let count = sorted.partition_point(|&d| d <= t);
            (t, count)
        })
        .collect()
}

/// Row dimensions of all tables.
#[must_use]
pub fn row_dims(corpus: &Corpus) -> Vec<usize> {
    corpus.tables.iter().map(|t| t.table.num_rows()).collect()
}

/// Column dimensions of all tables.
#[must_use]
pub fn col_dims(corpus: &Corpus) -> Vec<usize> {
    corpus
        .tables
        .iter()
        .map(|t| t.table.num_columns())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;
    use gittables_table::{Provenance, Table};

    fn corpus() -> Corpus {
        let mut c = Corpus::new("t");
        for (repo, rows) in [("a/x", 3), ("a/x", 4), ("b/y", 2)] {
            let rows_data: Vec<Vec<String>> = (0..rows)
                .map(|i| vec![i.to_string(), format!("v{i}"), format!("{i}.5")])
                .collect();
            let t = Table::from_string_rows("t", &["id", "name", "score"], rows_data)
                .unwrap()
                .with_provenance(Provenance::new(repo, "f.csv").with_topic("id"));
            c.push(AnnotatedTable::new(t));
        }
        c
    }

    #[test]
    fn averages() {
        let s = CorpusStats::of(&corpus());
        assert_eq!(s.tables, 3);
        assert_eq!(s.total_rows, 9);
        assert_eq!(s.total_columns, 9);
        assert!((s.avg_rows - 3.0).abs() < 1e-12);
        assert!((s.avg_columns - 3.0).abs() < 1e-12);
    }

    #[test]
    fn atomic_fractions_sum_to_one() {
        let s = CorpusStats::of(&corpus());
        let (n, st, o) = s.atomic_fractions;
        assert!((n + st + o - 1.0).abs() < 1e-9);
        // id + score numeric, name string.
        assert!((n - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn repo_provenance() {
        let s = CorpusStats::of(&corpus());
        assert!((s.avg_tables_per_repo - 1.5).abs() < 1e-12);
        assert!((s.frac_repos_leq5 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative() {
        let c = cumulative_counts(&[1, 5, 10, 10, 50], &[1, 10, 100]);
        assert_eq!(c, vec![(1, 1), (10, 4), (100, 5)]);
    }

    #[test]
    fn empty_corpus() {
        let s = CorpusStats::of(&Corpus::new("empty"));
        assert_eq!(s.tables, 0);
        assert_eq!(s.avg_rows, 0.0);
        assert_eq!(s.frac_repos_leq5, 0.0);
    }

    #[test]
    fn dims_extraction() {
        let c = corpus();
        assert_eq!(row_dims(&c), vec![3, 4, 2]);
        assert_eq!(col_dims(&c), vec![3, 3, 3]);
    }
}
