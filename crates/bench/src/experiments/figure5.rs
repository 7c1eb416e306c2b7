//! Figure 5 — top-25 semantic types per annotation method and ontology.
//!
//! Paper: the syntactic top types include `id`, `title`, `author`, `name`,
//! `status`, `date`, `value`, `code`, `state` — with `id` dominant, which
//! web-table corpora lack. Reproduction target: `id` among the very top
//! types of both ontologies.

use crate::{bar, print_table, Ctx};
use gittables_annotate::Method;
use gittables_corpus::{AnnotationStats, Corpus};

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();

    for (method, ont) in Corpus::annotation_configs() {
        let s = AnnotationStats::of(corpus, method, ont, 10, 25);
        let max = s.top_types.first().map_or(1, |(_, c)| *c);
        let rows: Vec<Vec<String>> = s
            .top_types
            .iter()
            .map(|(label, count)| vec![label.clone(), count.to_string(), bar(*count, max, 30)])
            .collect();
        print_table(
            &format!(
                "Figure 5: top-25 types — {} / {}",
                method.name(),
                ont.name()
            ),
            &["type", "# columns", ""],
            &rows,
        );
    }

    // Shape check: `id` in the top types of the syntactic DBpedia list.
    let s = AnnotationStats::of(
        corpus,
        Method::Syntactic,
        gittables_ontology::OntologyKind::DBpedia,
        10,
        25,
    );
    let rank = s.top_types.iter().position(|(l, _)| l == "id");
    println!(
        "\nshape check: `id` rank in syntactic DBpedia top-25: {:?} (paper: #1)",
        rank.map(|r| r + 1)
    );
}
