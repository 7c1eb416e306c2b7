//! Table 6 — bias audit: value distributions of person/geography columns.
//!
//! Paper: country columns ≈0.086 % of columns dominated by "United States"
//! (merged with "USA"), cities by New York/London/Coquitlam/Cambridge, gender
//! by Male/Female/F/M, etc. Reproduction target: same dominant values, with
//! geographic/person columns a small fraction of all columns.

use crate::{print_table, Ctx};
use gittables_annotate::Method;
use gittables_corpus::bias_audit;

const PAPER: &[(&str, &str, &str)] = &[
    (
        "country",
        "0.086%",
        "United States, Canada, Belgium, Germany",
    ),
    ("city", "0.056%", "New York, London, Coquitlam, Cambridge"),
    ("gender", "0.040%", "Male, Female, F, M"),
    ("ethnicity", "0.030%", "French, Dutch, Spanish, Mexican"),
    ("race", "0.007%", "Men, Human, White"),
    (
        "nationality",
        "0.003%",
        "Hispanic, White, Caucasian (White)",
    ),
];

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();
    let audit = bias_audit(corpus, Method::Syntactic, 4);

    let rows: Vec<Vec<String>> = PAPER
        .iter()
        .map(|(ty, paper_pct, paper_vals)| {
            let row = audit
                .iter()
                .find(|r| r.semantic_type == *ty)
                .expect("audited type present");
            let measured_vals: Vec<&str> = row
                .frequent_values
                .iter()
                .map(|(v, _)| v.as_str())
                .collect();
            vec![
                (*ty).to_string(),
                (*paper_pct).to_string(),
                format!("{:.3}%", row.percentage_columns),
                (*paper_vals).to_string(),
                measured_vals.join(", "),
            ]
        })
        .collect();
    print_table(
        "Table 6: bias audit over person/geography semantic types",
        &[
            "Type",
            "Paper %cols",
            "Measured %cols",
            "Paper frequent values",
            "Measured frequent values",
        ],
        &rows,
    );
    // Shape check: the dominant country must be United States (merged w/ USA).
    if let Some(country) = audit.iter().find(|r| r.semantic_type == "country") {
        if let Some((top, _)) = country.frequent_values.first() {
            println!("\nshape check: top country value = {top:?} (paper: United States)");
        }
    }
}
