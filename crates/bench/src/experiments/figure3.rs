//! Figure 3 — the scale of CSV files on GitHub for a single topic query.
//!
//! The paper shows GitHub returning ~15.7M CSV files for `q="id"
//! extension:csv`, motivating size-segmented extraction. We measure the
//! initial response sizes of the top topic queries against the simulated
//! host and show the segmentation working past the 1000-result cap.

use crate::{print_table, Ctx};
use gittables_core::extract_topic;
use gittables_githost::Query;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let pipeline = ctx.pipeline();
    // This experiment adds to the host, so it takes one of its own.
    let host = ctx.populated_host();
    // Densify the first topic well past the 1000-result cap so the figure
    // demonstrates the segmentation machinery the paper's scale forces
    // ("id" returns ~15.7M files on real GitHub).
    if let Some(first) = pipeline.config.topics.first() {
        let gen = gittables_synth::repo::RepoGenerator::new(args.seed ^ 0xf16);
        for i in 0..400 {
            let spec = gen.generate(first, 10_000 + i);
            host.add_repository(gittables_githost::Repository {
                full_name: spec.full_name,
                license: spec.license,
                fork: spec.fork,
                files: spec
                    .files
                    .into_iter()
                    .map(|f| gittables_githost::RepoFile::new(f.path, f.content))
                    .collect(),
            });
        }
    }
    println!(
        "host: {} repositories, {} CSV files (paper: 92M CSV files total)",
        host.repo_count(),
        host.file_count()
    );

    let api = host.search_api();
    let mut rows = Vec::new();
    for topic in pipeline.config.topics.iter().take(8) {
        let count = api.count(&Query::csv(&topic.noun));
        let (files, stats) = extract_topic(&host, &topic.noun);
        rows.push(vec![
            format!("q=\"{}\" extension:csv", topic.noun),
            count.to_string(),
            stats.queries_executed.to_string(),
            files.len().to_string(),
        ]);
    }
    print_table(
        "Figure 3: initial response sizes and segmented retrieval per topic",
        &[
            "Query",
            "Initial count",
            "Queries executed",
            "Files retrieved",
        ],
        &rows,
    );
    println!("\n(the paper's screenshot shows 15.7M results for \"id\"; the point —");
    println!(" far more hits than the 1000-result cap, recovered by size segmentation —");
    println!(" holds whenever 'Files retrieved' equals 'Initial count' above the cap)");
}
