//! Table 4 — atomic data type distribution: GitTables vs WDC WebTables.
//!
//! Paper: GitTables 57.9 % numeric / 41.6 % string / 0.5 % other; WDC
//! 51.4 % / 47.4 % / 1.2 %. Reproduction target: GitTables clearly *more
//! numeric than string*, and more numeric than the web corpus.

use crate::{print_table, Ctx};
use gittables_corpus::CorpusStats;
use gittables_synth::WebTableGenerator;
use gittables_table::Column;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let corpus = ctx.corpus();
    let (g_num, g_str, g_other) = CorpusStats::of(corpus).atomic_fractions;

    // Measure the web corpus the same way.
    let web = WebTableGenerator::new(args.seed).generate_many(corpus.len());
    let mut num = 0usize;
    let mut st = 0usize;
    let mut other = 0usize;
    for t in &web {
        for (ci, h) in t.header.iter().enumerate() {
            let values: Vec<String> = t.rows.column(ci).map(str::to_string).collect();
            let col = Column::new(h.clone(), values);
            let ty = col.atomic_type();
            if ty.is_numeric() {
                num += 1;
            } else if ty.is_string() {
                st += 1;
            } else {
                other += 1;
            }
        }
    }
    let total = (num + st + other).max(1) as f64;

    print_table(
        "Table 4: atomic data type distribution",
        &[
            "Atomic data type",
            "GitTables (paper)",
            "GitTables (measured)",
            "WDC (paper)",
            "web tables (measured)",
        ],
        &[
            vec![
                "Numeric".into(),
                "57.9%".into(),
                format!("{:.1}%", 100.0 * g_num),
                "51.4%".into(),
                format!("{:.1}%", 100.0 * num as f64 / total),
            ],
            vec![
                "String".into(),
                "41.6%".into(),
                format!("{:.1}%", 100.0 * g_str),
                "47.4%".into(),
                format!("{:.1}%", 100.0 * st as f64 / total),
            ],
            vec![
                "Other".into(),
                "0.5%".into(),
                format!("{:.1}%", 100.0 * g_other),
                "1.2%".into(),
                format!("{:.1}%", 100.0 * other as f64 / total),
            ],
        ],
    );
    println!(
        "\nshape check: GitTables numeric > string: {}; GitTables more numeric than web: {}",
        g_num > g_str,
        g_num > num as f64 / total
    );
}
