//! Figure 4a — cumulative table counts across table dimensions.
//!
//! Paper: long-tailed distributions around means of 142 rows and 12 columns;
//! the cumulative row-count curve rises later (on a log axis) than the
//! column curve. We print both cumulative series at log-spaced thresholds.

use crate::{bar, print_table, Ctx};
use gittables_corpus::{col_dims, cumulative_counts, row_dims};

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();
    let rows = row_dims(corpus);
    let cols = col_dims(corpus);
    let thresholds = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000];
    let row_cdf = cumulative_counts(&rows, &thresholds);
    let col_cdf = cumulative_counts(&cols, &thresholds);
    let n = corpus.len();

    let table_rows: Vec<Vec<String>> = thresholds
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            vec![
                t.to_string(),
                format!("{} {}", row_cdf[i].1, bar(row_cdf[i].1, n, 24)),
                format!("{} {}", col_cdf[i].1, bar(col_cdf[i].1, n, 24)),
            ]
        })
        .collect();
    print_table(
        "Figure 4a: cumulative table count vs dimension (log-spaced thresholds)",
        &["dimension ≤", "# tables by #rows", "# tables by #columns"],
        &table_rows,
    );
    let mean_rows: f64 = rows.iter().sum::<usize>() as f64 / n.max(1) as f64;
    let mean_cols: f64 = cols.iter().sum::<usize>() as f64 / n.max(1) as f64;
    println!("\nmeans: {mean_rows:.0} rows (paper 142), {mean_cols:.1} columns (paper 12)");
    // Long-tail check: median far below mean for rows.
    let mut sorted = rows;
    sorted.sort_unstable();
    let median = sorted.get(n / 2).copied().unwrap_or(0);
    println!(
        "row median {median} << mean {mean_rows:.0} => long tail: {}",
        (median as f64) < mean_rows
    );
}
