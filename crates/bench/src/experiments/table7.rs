//! Table 7 — semantic type detection: F1 scores of Sherlock-style models
//! trained and evaluated across corpora.
//!
//! Paper: GitTables→GitTables 0.86, VizNet→VizNet 0.77, VizNet→GitTables
//! 0.66 (macro F1). Reproduction target: both in-corpus scores high, and the
//! cross-corpus score clearly lower (the generalization gap).
//!
//! Extra knobs: `--per-type <n>` (default 150; paper 500),
//! `--classifier forest|logistic|mlp` (the classifier ablation).

use crate::{print_table, Ctx};
use gittables_core::apps::{
    build_type_dataset, build_webtable_type_dataset, train_eval_cross, train_sherlock,
    TypeDetectionConfig,
};
use gittables_ml::FeatureExtractor;
use gittables_synth::WebTableGenerator;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let corpus = ctx.corpus();

    let config = TypeDetectionConfig {
        per_type: args.per_type,
        classifier: args.classifier.clone(),
        folds: 5,
        seed: args.seed,
        ..Default::default()
    };
    let extractor = FeatureExtractor::default();

    let git = build_type_dataset(corpus, &config, &extractor);
    let web_tables = WebTableGenerator::new(args.seed ^ 0x77eb).generate_many(corpus.len() * 4);
    let web = build_webtable_type_dataset(&web_tables, &config, &extractor);
    eprintln!(
        "datasets: GitTables {} columns, web {} columns over {:?} ({} classifier)",
        git.len(),
        web.len(),
        config.types,
        config.classifier
    );

    let git_git = train_sherlock(&git, &config);
    let web_web = train_sherlock(&web, &config);
    let (_, web_git) = train_eval_cross(&web, &git, &config);

    print_table(
        "Table 7: F1 of semantic type detection across corpora",
        &[
            "Train corpus",
            "Evaluation corpus",
            "Paper F1",
            "Measured F1",
        ],
        &[
            vec![
                "GitTables".into(),
                "GitTables".into(),
                "0.86".into(),
                format!(
                    "{:.2} (±{:.2})",
                    git_git.mean_macro_f1, git_git.std_macro_f1
                ),
            ],
            vec![
                "VizNet (web)".into(),
                "VizNet (web)".into(),
                "0.77".into(),
                format!(
                    "{:.2} (±{:.2})",
                    web_web.mean_macro_f1, web_web.std_macro_f1
                ),
            ],
            vec![
                "VizNet (web)".into(),
                "GitTables".into(),
                "0.66".into(),
                format!("{web_git:.2}"),
            ],
        ],
    );
    println!(
        "\nshape check: cross-corpus drop = {:.2} (paper: 0.77 → 0.66); in-corpus GitTables ≥ web: {}",
        web_web.mean_macro_f1 - web_git,
        git_git.mean_macro_f1 >= web_web.mean_macro_f1 - 0.05
    );
}
