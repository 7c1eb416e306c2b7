//! Ablation — contextual re-ranking (the TURL/TaBERT-motivated extension):
//! how often table-level domain coherence changes the semantic annotator's
//! choice, and what it does to coverage.

use crate::{print_table, Ctx};
use gittables_annotate::{ContextualAnnotator, SemanticAnnotator};
use gittables_ontology::dbpedia;
use std::sync::Arc;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();
    let ont = Arc::new(dbpedia());
    let semantic = SemanticAnnotator::new(ont.clone());
    let contextual = ContextualAnnotator::from_ontology(ont);

    let sample = corpus.tables.iter().take(400);
    let mut columns = 0usize;
    let mut both = 0usize;
    let mut changed = 0usize;
    let mut ctx_only = 0usize;
    for t in sample {
        let plain = semantic.annotate(&t.table);
        let reranked = contextual.annotate(&t.table);
        columns += t.table.num_columns();
        for i in 0..t.table.num_columns() {
            match (plain.for_column(i), reranked.for_column(i)) {
                (Some(p), Some(c)) => {
                    both += 1;
                    if p.type_id != c.type_id {
                        changed += 1;
                    }
                }
                (None, Some(_)) => ctx_only += 1,
                _ => {}
            }
        }
    }
    print_table(
        "Ablation: contextual re-ranking vs plain semantic annotation",
        &["Metric", "Value"],
        &[
            vec!["columns examined".into(), columns.to_string()],
            vec!["annotated by both".into(), both.to_string()],
            vec![
                "choice changed by context".into(),
                format!(
                    "{changed} ({:.1}%)",
                    100.0 * changed as f64 / both.max(1) as f64
                ),
            ],
            vec!["annotated only with context".into(), ctx_only.to_string()],
        ],
    );
    println!("\ncontext only breaks near-ties (cosine within 0.12 of the top) and never");
    println!("overturns exact header matches, so the changed fraction is the share of");
    println!("genuinely ambiguous headers — the population contextual table models target.");
}
