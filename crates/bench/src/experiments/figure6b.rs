//! Figure 6b — data search: a natural-language query retrieves a
//! database-like product-order table.
//!
//! Paper: the query "status and sales amount per product" retrieves a table
//! with columns id / quantity / total_price / status / product_id / order_id.

use crate::{print_table, Ctx};
use gittables_core::apps::DataSearch;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let corpus = ctx.corpus();
    let search = DataSearch::build(corpus);
    eprintln!("indexed {} table schemas", search.len());

    let query = "status and sales amount per product";
    let hits = search.search(query, 5);
    let rows: Vec<Vec<String>> = hits
        .iter()
        .map(|h| {
            vec![
                format!("{:.2}", h.score),
                corpus.tables[h.table_index].table.provenance().url(),
                h.schema.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 6b: top tables for query {query:?}"),
        &["score", "table", "schema"],
        &rows,
    );

    if let Some(top) = hits.first() {
        let table = &corpus.tables[top.table_index].table;
        println!("\ntop table preview (paper shows id/quantity/total_price/status/...):");
        println!(
            "  {}",
            table.schema().iter().collect::<Vec<_>>().join(" | ")
        );
        for r in 0..table.num_rows().min(4) {
            println!("  {}", table.row(r).expect("row").join(" | "));
        }
        let schema = top.schema.to_string().to_lowercase();
        let relevant = [
            "status", "price", "product", "order", "quantity", "sales", "amount",
        ]
        .iter()
        .any(|k| schema.contains(k));
        println!("\nshape check: top schema contains order/sales vocabulary: {relevant}");
    }
}
