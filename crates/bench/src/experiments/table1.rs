//! Table 1 — corpus comparison: GitTables' dimensions vs web-table corpora.
//!
//! Paper row for GitTables: 1M tables, avg 142 rows × 12 cols. Web corpora:
//! 11–17 rows × 3–6 cols. We measure our synthetic GitTables corpus and a
//! web-table corpus generated at the same scale; the reproduction target is
//! the *shape*: GitTables an order of magnitude taller and 2–4× wider.

use crate::{print_table, Ctx};
use gittables_corpus::CorpusStats;
use gittables_synth::WebTableGenerator;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let corpus = ctx.corpus();
    let stats = CorpusStats::of(corpus);

    let web = WebTableGenerator::new(args.seed).generate_many(corpus.len());
    let web_rows: f64 =
        web.iter().map(|t| t.rows.len()).sum::<usize>() as f64 / web.len().max(1) as f64;
    let web_cols: f64 =
        web.iter().map(|t| t.header.len()).sum::<usize>() as f64 / web.len().max(1) as f64;

    print_table(
        "Table 1: corpora comparison (paper reference rows + measured)",
        &[
            "Name",
            "Table source",
            "# tables",
            "Avg # rows",
            "Avg # cols",
        ],
        &[
            vec![
                "WDC WebTables (paper)".into(),
                "HTML pages".into(),
                "90M".into(),
                "11".into(),
                "4".into(),
            ],
            vec![
                "Dresden WTC (paper)".into(),
                "HTML pages".into(),
                "59M".into(),
                "17".into(),
                "6".into(),
            ],
            vec![
                "WikiTables (paper)".into(),
                "Wikipedia".into(),
                "2M".into(),
                "15".into(),
                "6".into(),
            ],
            vec![
                "Open Data PW (paper)".into(),
                "Open Data CSVs".into(),
                "107K".into(),
                "365".into(),
                "14".into(),
            ],
            vec![
                "VizNet (paper)".into(),
                "WebTables, Plotly".into(),
                "31M".into(),
                "17".into(),
                "3".into(),
            ],
            vec![
                "GitTables (paper)".into(),
                "CSVs from GitHub".into(),
                "1M".into(),
                "142".into(),
                "12".into(),
            ],
            vec![
                "web tables (measured)".into(),
                "synthetic HTML-like".into(),
                web.len().to_string(),
                format!("{web_rows:.0}"),
                format!("{web_cols:.1}"),
            ],
            vec![
                "GitTables (measured)".into(),
                "synthetic GitHub CSVs".into(),
                stats.tables.to_string(),
                format!("{:.0}", stats.avg_rows),
                format!("{:.1}", stats.avg_columns),
            ],
        ],
    );
    println!(
        "\nshape check: measured GitTables/web ratios: rows {:.1}x (paper ~10x), cols {:.1}x (paper ~3x)",
        stats.avg_rows / web_rows,
        stats.avg_columns / web_cols
    );
    println!(
        "avg cells per GitTables table: {:.0} (paper: 1038)",
        stats.avg_cells
    );
}
