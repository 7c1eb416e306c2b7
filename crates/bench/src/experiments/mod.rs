//! The experiments, one module each, and the registry that indexes them.

mod ablation_context;
mod ablation_embed;
mod ablation_threshold;
mod completion_eval;
mod domain_shift;
mod figure3;
mod figure4a;
mod figure4b;
mod figure4c;
mod figure5;
mod figure6a;
mod figure6b;
mod pipeline_rates;
mod search_benchmark;
mod t2d;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;
mod table7;
mod table8;

use crate::Ctx;

/// One registry entry.
#[derive(Debug)]
pub struct Experiment {
    /// The name `expt` selects it by (its module's name).
    pub name: &'static str,
    /// The paper artefact it regenerates.
    pub artefact: &'static str,
    /// Prints the artefact to stdout.
    pub run: fn(&Ctx),
}

macro_rules! registry {
    ($($name:ident => $artefact:literal,)*) => {
        &[$(Experiment { name: stringify!($name), artefact: $artefact, run: $name::run },)*]
    };
}

/// Every experiment, in the paper's order; `expt all` runs them in this
/// order and the usage prints this index.
pub const REGISTRY: &[Experiment] = registry! {
    table1 => "Table 1: corpus dimensions vs web-table corpora",
    table2 => "Table 2: annotated tables and types per ontology",
    table3 => "Table 3: PII semantic types and Faker classes",
    table4 => "Table 4: atomic data type distribution",
    table5 => "Table 5: annotation statistics by method x ontology",
    table6 => "Table 6: bias audit of person/geography columns",
    table7 => "Table 7: type-detection F1 across corpora (§5.1)",
    table8 => "Table 8: schema completion for CTU prefixes (§5.2)",
    figure3 => "Figure 3: response sizes and segmented retrieval per topic",
    figure4a => "Figure 4a: cumulative table counts across dimensions",
    figure4b => "Figure 4b: % annotated columns per table, by method",
    figure4c => "Figure 4c: cosine similarity of semantic annotations",
    figure5 => "Figure 5: top-25 semantic types per method and ontology",
    figure6a => "Figure 6a: table-to-KG matching benchmark (§5.3)",
    figure6b => "Figure 6b: data search for a product-order table (§5.3)",
    pipeline_rates => "§3.3: parse, filter, license and PII rates",
    domain_shift => "§4.2: GitTables vs web-table domain classifier",
    t2d => "§4.3: annotation agreement on a T2Dv2-style gold standard",
    search_benchmark => "extension: ranked data-search benchmark (P@k, nDCG@k)",
    completion_eval => "extension: leave-one-out schema-completion hit rates",
    ablation_threshold => "ablation: semantic similarity threshold",
    ablation_embed => "ablation: embedder configuration",
    ablation_context => "ablation: contextual re-ranking",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExptArgs;

    #[test]
    fn registry_is_the_paper_order() {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "table3",
                "table4",
                "table5",
                "table6",
                "table7",
                "table8",
                "figure3",
                "figure4a",
                "figure4b",
                "figure4c",
                "figure5",
                "figure6a",
                "figure6b",
                "pipeline_rates",
                "domain_shift",
                "t2d",
                "search_benchmark",
                "completion_eval",
                "ablation_threshold",
                "ablation_embed",
                "ablation_context",
            ]
        );
        assert!(REGISTRY.iter().all(|e| !e.artefact.is_empty()));
    }

    /// Every experiment runs in-process over one tiny shared `Ctx`, and the
    /// shared pipeline ran once: its annotation cache sees no lookup after
    /// the first experiment has built the corpus.
    #[test]
    fn every_experiment_runs_over_one_corpus() {
        let ctx = Ctx::new(ExptArgs {
            topics: 2,
            repos: 3,
            ..ExptArgs::default()
        });
        let mut after_first = None;
        for e in REGISTRY {
            (e.run)(&ctx);
            let stats = ctx.pipeline().annotation_cache_stats();
            assert_eq!(*after_first.get_or_insert(stats), stats, "{}", e.name);
        }
        let stats = after_first.expect("registry is not empty");
        assert!(stats.hits + stats.misses > 0, "the corpus was never built");
        assert!(!ctx.corpus().is_empty());
        assert!(ctx.report().parsed > 0);
    }
}
