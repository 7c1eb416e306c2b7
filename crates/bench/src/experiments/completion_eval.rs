//! Extension experiment — quantitative schema-completion evaluation
//! (leave-one-out hit rates complementing Table 8's anecdotal cosines).

use crate::{print_table, Ctx};
use gittables_core::apps::evaluate_completion;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let (k, max_schemas) = (args.k, args.max_schemas);
    let corpus = ctx.corpus();

    let mut rows = Vec::new();
    for prefix_len in [2usize, 3, 4] {
        let eval = evaluate_completion(corpus, prefix_len, k, max_schemas);
        rows.push(vec![
            prefix_len.to_string(),
            eval.evaluated.to_string(),
            format!("{:.2}", eval.exact_rate()),
            format!("{:.2}", eval.soft_rate()),
            format!("{:.2}", eval.semantic_rate()),
        ]);
    }
    print_table(
        &format!("Schema completion leave-one-out (k = {k})"),
        &[
            "prefix len N",
            "schemas evaluated",
            "exact hit@k",
            "soft hit@k",
            "semantic hit@k",
        ],
        &rows,
    );
    println!("\nexact = a top-k completion starts with the held-out schema's true next");
    println!("attribute; soft = the true next attribute appears (normalized) anywhere in");
    println!("a top-k completion; semantic = an attribute with embedding cosine >= 0.70");
    println!("to the true next attribute appears. Headers in the corpus are heavily");
    println!("abbreviated, so the semantic metric is the operative one.");
}
