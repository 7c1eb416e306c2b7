//! Figure 4b — histogram of the percentage of annotated columns per table,
//! for each annotation method (aggregated over both ontologies).
//!
//! Paper: the semantic method's mass sits at high coverage (mean 71 %), the
//! syntactic method's at low-to-mid coverage (mean 26 %).

use crate::{histogram_rows, print_table, Ctx};
use gittables_annotate::Method;
use gittables_corpus::annstats::coverage_histogram;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();
    let syn = coverage_histogram(corpus, Method::Syntactic);
    let sem = coverage_histogram(corpus, Method::Semantic);
    print_table(
        "Figure 4b: % annotated columns per table (20 bins)",
        &["bin", "Syntactic", "Semantic"],
        &histogram_rows(&syn, &sem, |mid| format!("{mid:>3.0}%")),
    );

    let mean = |h: &gittables_corpus::Histogram| {
        let total: usize = h.bins.iter().sum();
        if total == 0 {
            return 0.0;
        }
        h.series()
            .iter()
            .map(|(mid, c)| mid * *c as f64)
            .sum::<f64>()
            / total as f64
    };
    println!(
        "\nmean coverage: syntactic {:.0}% (paper 26%), semantic {:.0}% (paper 71%)",
        mean(&syn),
        mean(&sem)
    );
}
