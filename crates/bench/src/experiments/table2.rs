//! Table 2 — annotated-dataset comparison: number of annotated tables and
//! distinct semantic types per ontology.
//!
//! Paper row for GitTables: 962K annotated tables, 2.4K types, DBpedia +
//! Schema.org. The reproduction target: most tables annotated, types drawn
//! from both ~2.6–2.8K-type ontologies.

use crate::{print_table, Ctx};
use gittables_annotate::Method;
use gittables_corpus::AnnotationStats;
use gittables_ontology::{dbpedia, schema_org, OntologyKind};

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();

    let sem_dbp = AnnotationStats::of(corpus, Method::Semantic, OntologyKind::DBpedia, 50, 5);
    let sem_sch = AnnotationStats::of(corpus, Method::Semantic, OntologyKind::SchemaOrg, 50, 5);
    let annotated = sem_dbp.annotated_tables.max(sem_sch.annotated_tables);
    let types = sem_dbp.unique_types + sem_sch.unique_types;
    let stats = gittables_corpus::CorpusStats::of(corpus);

    print_table(
        "Table 2: annotated relational table datasets (paper rows + measured)",
        &[
            "Dataset", "# tables", "Avg rows", "Avg cols", "# types", "Ontology",
        ],
        &[
            vec![
                "T2Dv2 (paper)".into(),
                "779".into(),
                "17".into(),
                "4".into(),
                "275".into(),
                "DBpedia".into(),
            ],
            vec![
                "SemTab (paper)".into(),
                "132K".into(),
                "224".into(),
                "4".into(),
                "-".into(),
                "DBpedia".into(),
            ],
            vec![
                "TURL (paper)".into(),
                "407K".into(),
                "18".into(),
                "3".into(),
                "255".into(),
                "Freebase".into(),
            ],
            vec![
                "GitTables (paper)".into(),
                "962K".into(),
                "142".into(),
                "12".into(),
                "2.4K".into(),
                "DBpedia+Schema.org".into(),
            ],
            vec![
                "GitTables (measured)".into(),
                annotated.to_string(),
                format!("{:.0}", stats.avg_rows),
                format!("{:.1}", stats.avg_columns),
                types.to_string(),
                "DBpedia+Schema.org".into(),
            ],
        ],
    );
    println!(
        "\nontology inventories: DBpedia {} types, Schema.org {} types (paper: 2831 / 2637)",
        dbpedia().len(),
        schema_org().len()
    );
    println!(
        "annotated-table fraction: {:.1}% (paper: 962K/1021K = 94.2%)",
        100.0 * annotated as f64 / corpus.len().max(1) as f64
    );
}
