//! §3.3 pipeline rates — parse rate, curation filter rate, license rate,
//! PII anonymization rate.
//!
//! Paper: 99.3 % of CSV files parse into tables; ≈16 % of tables come from
//! permissively-licensed repositories; the quality filters drop ≈9 % of
//! tables; 0.3 % of columns are anonymized.

use crate::{print_table, Ctx};

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    // The shared corpus is the analysis-mode run (unlicensed tables kept,
    // as in the paper's 1M analysis corpus); publish mode (license
    // required) runs here, over the same host.
    let (corpus, report) = (ctx.corpus(), ctx.report());
    let mut publish_cfg = ctx.pipeline().config.clone();
    publish_cfg.curation.require_license = true;
    let publish = gittables_core::Pipeline::new(publish_cfg);
    let (pub_corpus, pub_report) = publish.run(ctx.host());

    let licensed_frac = pub_corpus.len() as f64 / corpus.len().max(1) as f64;
    print_table(
        "Pipeline rates (paper §3.3)",
        &["Metric", "Paper", "Measured"],
        &[
            vec![
                "files parsed into tables".into(),
                "99.3%".into(),
                format!("{:.1}%", 100.0 * report.parse_rate()),
            ],
            vec![
                "tables from licensed repos".into(),
                "~16%".into(),
                format!("{:.1}%", 100.0 * licensed_frac),
            ],
            vec![
                "tables dropped by quality filters".into(),
                "~9%".into(),
                format!("{:.1}%", 100.0 * report.filter_rate()),
            ],
            vec![
                "columns anonymized (PII)".into(),
                "0.3%".into(),
                format!("{:.2}%", 100.0 * report.pii_rate()),
            ],
        ],
    );

    println!("\nfilter breakdown (analysis mode):");
    let mut reasons: Vec<(&String, &usize)> = report.filtered.iter().collect();
    reasons.sort_by(|a, b| b.1.cmp(a.1));
    for (reason, count) in reasons {
        println!("  {reason:<20} {count}");
    }
    println!(
        "\nlicense-mode report: kept {} of {} parsed",
        pub_report.kept, pub_report.parsed
    );
    println!(
        "extraction: {} search queries executed for {} topics",
        report.queries_executed,
        ctx.args().topics
    );
}
