//! §4.3 — annotation quality on the T2Dv2-style gold standard.
//!
//! Paper: the semantic approach agrees with the human labels on 54 % of
//! evaluated columns, the syntactic approach on 61 %; 47 % of the semantic
//! disagreements carry similarity 1.0 (our annotation syntactically matches
//! the header while the human chose a less granular type, e.g. `City` →
//! `location`). Extra knob: `--tables <n>` (default 300).

use crate::{print_table, Ctx};
use gittables_annotate::{SemanticAnnotator, SyntacticAnnotator};
use gittables_core::{evaluate_semantic, evaluate_syntactic};
use gittables_ontology::dbpedia;
use gittables_synth::generate_benchmark;
use std::sync::Arc;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let n_tables = args.tables;
    let bench = generate_benchmark(args.seed, n_tables, 17);
    let total_cols: usize = bench.iter().map(|t| t.columns.len()).sum();
    eprintln!(
        "benchmark: {n_tables} tables, {total_cols} gold-labeled columns (paper: 779 tables)"
    );

    let ont = Arc::new(dbpedia());
    let sem_annotator = SemanticAnnotator::new(ont.clone());
    let syn = evaluate_syntactic(&bench, &SyntacticAnnotator::new(ont.clone()));
    let sem = evaluate_semantic(&bench, &sem_annotator);

    print_table(
        "T2Dv2-style annotation agreement",
        &[
            "Approach",
            "Evaluated cols",
            "Agree",
            "Paper agree",
            "Measured agree",
            "Syntactic-exact among diffs",
            "Paper",
        ],
        &[
            vec![
                "Semantic".into(),
                sem.evaluated.to_string(),
                sem.agree.to_string(),
                "54%".into(),
                format!("{:.0}%", 100.0 * sem.agreement_rate()),
                format!("{:.0}%", 100.0 * sem.syntactic_exact_fraction()),
                "47%".into(),
            ],
            vec![
                "Syntactic".into(),
                syn.evaluated.to_string(),
                syn.agree.to_string(),
                "61%".into(),
                format!("{:.0}%", 100.0 * syn.agreement_rate()),
                format!("{:.0}%", 100.0 * syn.syntactic_exact_fraction()),
                "-".into(),
            ],
        ],
    );
    println!("\ndisagreement breakdown (semantic): {} less-granular gold, {} paraphrase gold, {} unannotated",
        sem.disagree_less_granular, sem.disagree_paraphrase, sem.unannotated);

    // Hierarchy-aware scoring (§3.4's granularity-aware loss suggestion):
    // credit ancestor/descendant matches with 0.5 instead of 0.
    let scorer = gittables_annotate::HierarchyScorer::default();
    let mut pairs = Vec::new();
    for table in &bench {
        for (ci, col) in table.columns.iter().enumerate() {
            if let Some(a) = sem_annotator.annotate_name(ci, &col.header) {
                pairs.push((a.label, col.gold_label.clone()));
            }
        }
    }
    let graded = scorer.mean_score(&ont, pairs.iter().map(|(p, g)| (p.as_str(), g.as_str())));
    println!(
        "\nhierarchy-aware graded agreement (semantic): {:.0}% vs exact {:.0}% —\nthe gap is the credit recovered for city-vs-location-style disagreements.",
        100.0 * graded,
        100.0 * sem.agreement_rate()
    );
    println!("shape check: a large share of disagreements are cases where our more\nspecific annotation syntactically matches the header — the paper argues\nthese are often *better* than the human gold (its manual review found the\nsemantic approach better in 63/148 disputed columns vs 37/148 for T2Dv2).");
}
