//! Figure 4c — distribution of cosine similarities attached to semantic
//! annotations, per ontology.
//!
//! Paper: a sharp peak at similarity 1 (headers that syntactically resemble
//! type labels) with the remaining mass centered around 0.75.

use crate::{histogram_rows, print_table, Ctx};
use gittables_corpus::annstats::similarity_histogram;
use gittables_ontology::OntologyKind;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();
    let dbp = similarity_histogram(corpus, OntologyKind::DBpedia);
    let sch = similarity_histogram(corpus, OntologyKind::SchemaOrg);
    print_table(
        "Figure 4c: cosine similarity of semantic annotations (25 bins on [0.4, 1.0])",
        &["similarity", "DBpedia", "Schema.org"],
        &histogram_rows(&dbp, &sch, |mid| format!("{mid:.2}")),
    );

    // Shape checks: last bin (=1.0) is the mode, and there is interior mass.
    let last = *dbp.bins.last().unwrap_or(&0);
    let interior: usize = dbp.bins[..dbp.bins.len() - 1].iter().sum();
    println!(
        "\nshape check: peak at 1.0 = {} annotations; interior mass = {} ({}%)",
        last,
        interior,
        100 * interior / (last + interior).max(1)
    );
}
