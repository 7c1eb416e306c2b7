//! Figure 6a — table-to-KG matching benchmark results.
//!
//! Paper: a manually-curated 1 101-table benchmark (≥3 cols, ≥5 rows; 122
//! DBpedia / 59 Schema.org gold types) is hard for SemTab systems: precision
//! and recall are low (≈0.08–0.4) because cell-value linking fails on
//! database-like tables; Schema.org precision is slightly higher thanks to
//! pattern-matching of structural types. We evaluate our matcher baselines
//! on the same construction.

use crate::{print_table, Ctx};
use gittables_annotate::kgmatch::{CellValueMatcher, HeaderMatcher, KgMatcher, PatternMatcher};
use gittables_core::apps::{build_cta_benchmark, run_kg_benchmark};
use gittables_ontology::OntologyKind;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();

    let mut rows = Vec::new();
    for ontology in [OntologyKind::DBpedia, OntologyKind::SchemaOrg] {
        let bench = build_cta_benchmark(corpus, ontology, 3, 5, 1101);
        eprintln!(
            "{} benchmark: {} tables, {} distinct gold types (paper: 1101 tables, {} types)",
            ontology.name(),
            bench.tables.len(),
            bench.distinct_types,
            if ontology == OntologyKind::DBpedia {
                122
            } else {
                59
            }
        );
        let matchers: Vec<Box<dyn KgMatcher>> = vec![
            Box::new(CellValueMatcher::new()),
            Box::new(PatternMatcher::new()),
            Box::new(HeaderMatcher),
        ];
        for m in &matchers {
            let r = run_kg_benchmark(&bench, m.as_ref());
            rows.push(vec![
                r.system.clone(),
                ontology.name().to_string(),
                format!("{:.2}", r.precision),
                format!("{:.2}", r.recall),
            ]);
        }
    }
    print_table(
        "Figure 6a: table-to-KG matching on the CTA benchmark",
        &["System", "Ontology", "Precision", "Recall"],
        &rows,
    );
    println!("\npaper shape: SemTab systems (cell-value linking) score ≤0.4 on both");
    println!("ontologies; pattern matching lifts Schema.org precision slightly.");
    println!("header-matching is the oracle-ish upper baseline (it built the gold).");
}
