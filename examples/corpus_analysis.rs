//! Corpus analysis walkthrough (paper §4): structural statistics, annotation
//! statistics, similarity distributions, and the bias audit.
//!
//! ```sh
//! cargo run --release --example corpus_analysis
//! ```

use gittables_annotate::Method;
use gittables_core::{Pipeline, PipelineConfig};
use gittables_corpus::{bias_audit, similarity_histogram, AnnotationStats, CorpusStats};
use gittables_githost::GitHost;
use gittables_ontology::OntologyKind;

fn main() {
    let pipeline = Pipeline::new(PipelineConfig::sized(99, 10, 25));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);

    let stats = CorpusStats::of(&corpus);
    println!("== structural statistics (§4.1) ==");
    println!(
        "tables {} | avg rows {:.0} | avg cols {:.1} | avg cells {:.0}",
        stats.tables, stats.avg_rows, stats.avg_columns, stats.avg_cells
    );
    println!(
        "tables per repo {:.1} | repos with ≤5 tables {:.0}%",
        stats.avg_tables_per_repo,
        100.0 * stats.frac_repos_leq5
    );

    println!("\n== annotation statistics (Table 5) ==");
    for (method, ont) in gittables_corpus::Corpus::annotation_configs() {
        let s = AnnotationStats::of(&corpus, method, ont, 50, 5);
        println!(
            "{:<10} {:<10} tables {:>5} columns {:>6} types {:>4} coverage {:.0}%",
            method.name(),
            ont.name(),
            s.annotated_tables,
            s.annotated_columns,
            s.unique_types,
            100.0 * s.mean_coverage
        );
    }

    println!("\n== top semantic types (Fig. 5) ==");
    let s = AnnotationStats::of(&corpus, Method::Syntactic, OntologyKind::DBpedia, 50, 10);
    for (label, count) in &s.top_types {
        println!("  {label:<20} {count}");
    }

    println!("\n== similarity distribution (Fig. 4c) ==");
    let h = similarity_histogram(&corpus, OntologyKind::DBpedia);
    for (mid, count) in h.series() {
        if count > 0 {
            println!("  {:.2}: {}", mid, "#".repeat((count / 10 + 1).min(60)));
        }
    }

    println!("\n== bias audit (Table 6) ==");
    for row in bias_audit(&corpus, Method::Syntactic, 4) {
        let values: Vec<&str> = row
            .frequent_values
            .iter()
            .map(|(v, _)| v.as_str())
            .collect();
        println!(
            "  {:<12} {:.3}% of columns  frequent: {}",
            row.semantic_type,
            row.percentage_columns,
            values.join(", ")
        );
    }
}
