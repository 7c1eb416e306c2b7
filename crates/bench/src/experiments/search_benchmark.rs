//! Extension experiment — ranked data-search benchmark (§5.3's future-work
//! sketch): domain-labeled queries scored with precision@k and nDCG@k.

use crate::{print_table, Ctx};
use gittables_core::apps::{default_queries, evaluate_search, mean_ndcg, DataSearch};

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let k = args.k;
    let corpus = ctx.corpus();
    let search = DataSearch::build(corpus);
    let queries = default_queries();
    let scores = evaluate_search(corpus, &search, &queries, k);

    let rows: Vec<Vec<String>> = scores
        .iter()
        .map(|s| {
            vec![
                s.query.clone(),
                format!("{:.2}", s.precision_at_k),
                format!("{:.2}", s.ndcg_at_k),
                s.relevant_total.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Data-search benchmark (k = {k})"),
        &["Query", "P@k", "nDCG@k", "# relevant"],
        &rows,
    );
    let chance: f64 = scores
        .iter()
        .map(|s| s.relevant_total as f64 / corpus.len().max(1) as f64)
        .sum::<f64>()
        / scores.len().max(1) as f64;
    println!(
        "\nmean nDCG@{k}: {:.2}; mean chance precision: {chance:.2} — schema-embedding\nsearch must rank domain-relevant tables well above chance.",
        mean_ndcg(&scores)
    );
}
