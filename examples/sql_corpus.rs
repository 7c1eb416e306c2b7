//! SQL-dump ingestion: build a mixed CSV + SQL corpus and inspect both
//! ingestion paths (ISSUE 9).
//!
//! ```sh
//! cargo run --release --example sql_corpus
//! ```
//!
//! Half the synthesized repository files are SQL dumps (MySQL, Postgres,
//! SQLite, or ANSI flavored); the pipeline sniffs each file's kind from
//! its path, routes it to the CSV or SQL reader, and both kinds land in
//! the same annotated corpus. A dump with several `CREATE`/`INSERT`
//! sections yields several corpus tables sharing one file's provenance.

use gittables_core::{Pipeline, PipelineConfig};
use gittables_githost::GitHost;
use gittables_tablesql::{read_sql_tables, SqlReadOptions};

fn main() {
    // 1. A small pipeline where half the synthesized files are SQL dumps.
    //    `sql_file_prob: 0.0` (the default) reproduces the historical
    //    CSV-only corpora bit for bit; any higher share mixes in dumps.
    let config = PipelineConfig {
        sql_file_prob: 0.5,
        ..PipelineConfig::sized(/* seed */ 42, /* topics */ 4, /* repos */ 16)
    };
    let pipeline = Pipeline::new(config);
    let host = GitHost::new();
    pipeline.populate_host(&host);

    // 2. Peek at one synthesized dump before the pipeline eats it.
    let (raw_files, _) = pipeline.extract_all(&host);
    let raw = raw_files
        .iter()
        .find(|f| f.path.ends_with(".sql"))
        .expect("a SQL dump was synthesized");
    println!("sample dump: {}/{}", raw.repository, raw.path);
    let parsed =
        read_sql_tables(&raw.content, &SqlReadOptions::default()).expect("synthesized dumps parse");
    println!("  dialect   : {:?}", parsed.dialect);
    println!("  statements: {}", parsed.statements);
    for t in &parsed.tables {
        println!(
            "  table {:<24} {} columns x {} rows",
            t.name,
            t.header.len(),
            t.num_rows()
        );
    }

    // 3. Run the full pipeline over the mixed host.
    let (corpus, report) = pipeline.run(&host);
    let sql_tables = corpus
        .tables
        .iter()
        .filter(|at| at.table.provenance().path.ends_with(".sql"))
        .count();
    println!("\npipeline report");
    println!("  fetched      : {} files", report.fetched);
    println!("  parsed       : {} files", report.parsed);
    println!("  parse failed : {} files", report.parse_failed);
    println!(
        "  kept         : {} tables ({} from SQL dumps, {} from CSV)",
        report.kept,
        sql_tables,
        report.kept - sql_tables
    );

    // 4. Both kinds flow through the same annotation stages: show one
    //    annotated table that came from a dump.
    if let Some(at) = corpus
        .tables
        .iter()
        .filter(|at| at.table.provenance().path.ends_with(".sql"))
        .max_by_key(|at| at.semantic_schema.annotations.len())
    {
        println!(
            "\nannotated SQL table: {} (from {})",
            at.table.name(),
            at.table.provenance().url()
        );
        for ann in at.semantic_schema.annotations.iter().take(6) {
            let col = at.table.column(ann.column).expect("annotated column");
            println!(
                "  column {:<20} -> {:<20} (confidence {:.2})",
                format!("{:?}", col.name()),
                ann.label,
                ann.similarity
            );
        }
    }
}
