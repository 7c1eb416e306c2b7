//! §4.2 — data-shift detection: a Random Forest domain classifier separating
//! GitTables columns from web-table (VizNet) columns on Sherlock features.
//!
//! Paper: 93 % (±0.04) 10-fold accuracy on 5 K deduplicated columns per
//! corpus. Extra knob: `--columns <n>` per corpus (default 400).

use crate::{print_table, Ctx};
use gittables_core::shift::domain_shift_experiment;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let corpus = ctx.corpus();
    let (columns, folds) = (args.columns, args.folds);
    eprintln!("sampling {columns} deduplicated columns per corpus, {folds}-fold CV");

    let report = domain_shift_experiment(corpus, columns, folds, args.seed);
    print_table(
        "Domain classifier: GitTables vs web-table columns",
        &["Metric", "Paper", "Measured"],
        &[
            vec![
                "accuracy".into(),
                "0.93 (±0.04)".into(),
                format!("{:.2} (±{:.2})", report.mean_accuracy, report.std_accuracy),
            ],
            vec![
                "macro F1".into(),
                "-".into(),
                format!("{:.2} (±{:.2})", report.mean_macro_f1, report.std_macro_f1),
            ],
        ],
    );
    println!(
        "\nshape check: accuracy far above chance (0.5): {} — the corpora are\nstructurally separable, confirming GitTables' complementary distribution.",
        report.mean_accuracy > 0.8
    );
}
