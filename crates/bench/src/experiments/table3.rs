//! Table 3 — PII semantic types: percentage of columns per PII type and the
//! Faker class used to anonymize each.
//!
//! Paper: `name` 2.202 %, `address` 0.163 %, `person` 0.068 %, `email`
//! 0.042 %, `birth date` 0.017 %, … (0.3 % of columns anonymized in total).
//! The reproduction target: `name` dominates by an order of magnitude; the
//! other types are fractions of a percent; the class mapping matches.

use crate::{print_table, Ctx};
use gittables_annotate::Method;
use gittables_curate::FakerClass;
use gittables_ontology::OntologyKind;

/// Paper ordering of Table 3.
const PAPER_ROWS: &[(&str, &str)] = &[
    ("name", "2.202%"),
    ("address", "0.163%"),
    ("person", "0.068%"),
    ("email", "0.042%"),
    ("birth date", "0.017%"),
    ("home location", "0.008%"),
    ("birth place", "0.003%"),
    ("postal code", "0.003%"),
];

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let (corpus, report) = (ctx.corpus(), ctx.report());

    // Count columns annotated (syntactic, Schema.org) with each PII type.
    let mut counts: std::collections::HashMap<&str, usize> = Default::default();
    let mut total_cols = 0usize;
    for t in &corpus.tables {
        total_cols += t.table.num_columns();
        for a in &t
            .annotations(Method::Syntactic, OntologyKind::SchemaOrg)
            .annotations
        {
            if let Some((label, _)) = PAPER_ROWS.iter().find(|(l, _)| *l == a.label) {
                *counts.entry(label).or_default() += 1;
            }
        }
    }

    let rows: Vec<Vec<String>> = PAPER_ROWS
        .iter()
        .map(|(label, paper_pct)| {
            let measured =
                100.0 * counts.get(label).copied().unwrap_or(0) as f64 / total_cols.max(1) as f64;
            let class = FakerClass::for_pii_label(label).expect("PII label");
            vec![
                (*label).to_string(),
                (*paper_pct).to_string(),
                format!("{measured:.3}%"),
                class.display().to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 3: PII semantic types and Faker classes",
        &[
            "Semantic type",
            "Paper % columns",
            "Measured % columns",
            "Faker class",
        ],
        &rows,
    );
    println!(
        "\ncolumns anonymized end-to-end: {} of {} ({:.2}%; paper: 0.3%)",
        report.pii_columns,
        report.total_columns,
        100.0 * report.pii_rate()
    );
}
