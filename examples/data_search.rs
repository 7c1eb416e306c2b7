//! Data search over table schemas (paper §5.3, Fig. 6b): natural-language
//! queries against embedded table schemas.
//!
//! The search index is built by the shared [`QueryEngine`] constructor —
//! the exact same code path the `gittables serve` HTTP subsystem uses —
//! so what this example prints is what `/search?q=...` serves.
//!
//! ```sh
//! cargo run --release --example data_search
//! ```

use gittables_core::{Pipeline, PipelineConfig};
use gittables_githost::GitHost;
use gittables_serve::QueryEngine;

fn main() {
    let pipeline = Pipeline::new(PipelineConfig::sized(13, 8, 25));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);
    let engine = QueryEngine::from_corpus(corpus.clone());
    println!("indexed {} tables\n", engine.search_index().len());

    let queries = [
        "status and sales amount per product", // Fig. 6b's query
        "species observed per country",
        "employee names and salaries",
        "match scores per team and season",
    ];
    for q in queries {
        println!("query: {q:?}");
        for hit in engine.search(q, 3) {
            let table = &corpus.tables[hit.table_index].table;
            println!(
                "  {:.2}  {:<28} {}",
                hit.score,
                table.provenance().url(),
                hit.schema
            );
        }
        println!();
    }

    // Show the top table's contents for the paper's query, Fig. 6b style.
    if let Some(hit) = engine.search(queries[0], 1).first() {
        let table = &corpus.tables[hit.table_index].table;
        println!("top table for {:?}:", queries[0]);
        let header = table.schema();
        println!("  {}", header.iter().collect::<Vec<_>>().join(" | "));
        for r in 0..table.num_rows().min(4) {
            let row = table.row(r).expect("row in range");
            println!("  {}", row.join(" | "));
        }
    }
}
