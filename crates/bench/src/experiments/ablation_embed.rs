//! Ablation — embedding configuration: dimensionality,
//! n-gram range, and the synonym lexicon's contribution to semantic
//! annotation quality.

use crate::{print_table, Ctx};
use gittables_annotate::SemanticAnnotator;
use gittables_core::evaluate_semantic;
use gittables_embed::NgramEmbedder;
use gittables_ontology::dbpedia;
use gittables_synth::generate_benchmark;
use std::sync::Arc;

/// Prints the experiment.
pub fn run(ctx: &Ctx) {
    let args = ctx.args();
    let bench = generate_benchmark(args.seed, 250, 9);
    let ont = Arc::new(dbpedia());

    let configs: Vec<(&str, NgramEmbedder)> = vec![
        (
            "dim=16",
            NgramEmbedder {
                dim: 16,
                ..NgramEmbedder::default()
            },
        ),
        (
            "dim=32",
            NgramEmbedder {
                dim: 32,
                ..NgramEmbedder::default()
            },
        ),
        ("dim=64 (default)", NgramEmbedder::default()),
        (
            "dim=128",
            NgramEmbedder {
                dim: 128,
                ..NgramEmbedder::default()
            },
        ),
        (
            "ngrams 3..=4",
            NgramEmbedder {
                n_max: 4,
                ..NgramEmbedder::default()
            },
        ),
        (
            "ngrams 2..=6",
            NgramEmbedder {
                n_min: 2,
                ..NgramEmbedder::default()
            },
        ),
        ("no lexicon", NgramEmbedder::without_lexicon()),
        (
            "strong lexicon",
            NgramEmbedder {
                synonym_weight: 1.2,
                ..NgramEmbedder::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, embedder) in configs {
        let annotator = SemanticAnnotator::with_embedder(ont.clone(), embedder);
        let report = evaluate_semantic(&bench, &annotator);
        rows.push(vec![
            name.to_string(),
            report.evaluated.to_string(),
            format!("{:.0}%", 100.0 * report.agreement_rate()),
            format!("{:.0}%", 100.0 * report.syntactic_exact_fraction()),
            report.unannotated.to_string(),
        ]);
    }
    print_table(
        "Ablation: embedder configuration vs gold agreement",
        &[
            "config",
            "evaluated",
            "agreement",
            "syntactic-exact diffs",
            "unannotated",
        ],
        &rows,
    );
    println!("\nexpected shape: agreement is stable across dims ≥32 (the hash-embedding");
    println!("mechanism saturates); removing the lexicon hurts paraphrase gold columns.");
}
