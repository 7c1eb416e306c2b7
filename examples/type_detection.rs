//! Semantic column type detection (paper §5.1, Table 7): train a
//! Sherlock-style model on GitTables columns and compare against a
//! web-table-trained model.
//!
//! ```sh
//! cargo run --release --example type_detection
//! ```

use gittables_core::apps::{
    build_type_dataset, build_webtable_type_dataset, train_eval_cross, train_sherlock,
    TypeDetectionConfig,
};
use gittables_core::{Pipeline, PipelineConfig};
use gittables_githost::GitHost;
use gittables_ml::FeatureExtractor;
use gittables_synth::WebTableGenerator;

fn main() {
    let pipeline = Pipeline::new(PipelineConfig::sized(5, 12, 30));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, _) = pipeline.run(&host);

    let config = TypeDetectionConfig {
        per_type: 80, // the paper uses 500; scaled down for the example
        folds: 3,
        ..Default::default()
    };
    let extractor = FeatureExtractor::default();

    let git = build_type_dataset(&corpus, &config, &extractor);
    println!(
        "GitTables dataset: {} columns over {:?}",
        git.len(),
        config.types
    );

    let web_tables = WebTableGenerator::new(1).generate_many(4000);
    let web = build_webtable_type_dataset(&web_tables, &config, &extractor);
    println!("web-table dataset: {} columns\n", web.len());

    let git_cv = train_sherlock(&git, &config);
    println!(
        "train GitTables  → eval GitTables : macro F1 {:.2} (±{:.2})",
        git_cv.mean_macro_f1, git_cv.std_macro_f1
    );
    let web_cv = train_sherlock(&web, &config);
    println!(
        "train web tables → eval web tables: macro F1 {:.2} (±{:.2})",
        web_cv.mean_macro_f1, web_cv.std_macro_f1
    );
    let (_, cross_f1) = train_eval_cross(&web, &git, &config);
    println!("train web tables → eval GitTables : macro F1 {cross_f1:.2}");
    println!("\npaper's Table 7 shape: in-corpus scores high; the cross-corpus");
    println!("score drops, showing web-table models do not generalize.");
}
