//! Ablation — semantic-annotation similarity threshold:
//! the coverage/precision trade-off users control when filtering annotations
//! by confidence (paper §3.4 "users can decide on a similarity threshold").

use crate::{print_table, Ctx};
use gittables_annotate::SemanticAnnotator;
use gittables_core::t2d_eval::evaluate_semantic;
use gittables_ontology::dbpedia;
use gittables_synth::t2d::generate_benchmark;
use std::sync::Arc;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let corpus = ctx.corpus();
    let bench = generate_benchmark(args.seed, 200, 9);
    let ont = Arc::new(dbpedia());

    let mut rows = Vec::new();
    for threshold in [0.30f32, 0.40, 0.45, 0.50, 0.60, 0.70, 0.85] {
        let annotator = SemanticAnnotator::new(ont.clone()).with_threshold(threshold);
        // Coverage over a sample of corpus tables.
        let mut covered = 0usize;
        let mut total = 0usize;
        for t in corpus.tables.iter().take(300) {
            let anns = annotator.annotate(&t.table);
            covered += anns.annotations.len();
            total += t.table.num_columns();
        }
        // Agreement on the gold standard.
        let report = evaluate_semantic(&bench, &annotator);
        rows.push(vec![
            format!("{threshold:.2}"),
            format!("{:.0}%", 100.0 * covered as f64 / total.max(1) as f64),
            format!("{:.0}%", 100.0 * report.agreement_rate()),
            report.unannotated.to_string(),
        ]);
    }
    print_table(
        "Ablation: similarity threshold vs coverage and gold agreement",
        &[
            "threshold",
            "column coverage",
            "gold agreement",
            "unannotated gold cols",
        ],
        &rows,
    );
    println!("\nexpected shape: coverage falls monotonically with the threshold while");
    println!("agreement (precision proxy) rises — the trade-off §3.4 exposes to users.");
}
