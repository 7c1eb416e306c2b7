//! Annotation-quality evaluation on the T2Dv2-style gold standard (§4.3).
//!
//! For each gold-labeled column we run an annotator and compare its label to
//! the human label:
//!
//! * **agreement** — same label (paper: semantic 54 %, syntactic 61 %);
//! * among disagreements, the fraction where our annotation *syntactically
//!   matches the header* (similarity 1.0) — the paper's 47 %-of-errors case
//!   where the human chose a less granular type (`City` → `location`) and
//!   our more specific annotation is arguably better;
//! * disagreements broken down by the generator's gold-kind classes.

use gittables_annotate::{Annotation, SemanticAnnotator, SyntacticAnnotator};
use gittables_synth::{GoldKind, GoldTable};

/// Aggregate agreement statistics of one annotator on the benchmark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct T2dReport {
    /// Columns where both gold and the annotator produced a label.
    pub evaluated: usize,
    /// Same label as gold.
    pub agree: usize,
    /// Disagreements where our label equals the normalized header
    /// (similarity = 1.0) — the "syntactic match, human chose coarser"
    /// bucket.
    pub disagree_syntactic_exact: usize,
    /// Disagreements on columns generated as `LessGranular` gold.
    pub disagree_less_granular: usize,
    /// Disagreements on columns generated as `Paraphrase` gold.
    pub disagree_paraphrase: usize,
    /// Columns the annotator left unannotated (not counted in `evaluated`).
    pub unannotated: usize,
}

impl T2dReport {
    /// Agreement rate over evaluated columns.
    #[must_use]
    pub fn agreement_rate(&self) -> f64 {
        if self.evaluated == 0 {
            return 0.0;
        }
        self.agree as f64 / self.evaluated as f64
    }

    /// Among disagreements, the fraction that are syntactic-exact matches.
    #[must_use]
    pub fn syntactic_exact_fraction(&self) -> f64 {
        let disagree = self.evaluated - self.agree;
        if disagree == 0 {
            return 0.0;
        }
        self.disagree_syntactic_exact as f64 / disagree as f64
    }
}

fn eval_with<F>(benchmark: &[GoldTable], mut annotate: F) -> T2dReport
where
    F: FnMut(usize, &str) -> Option<Annotation>,
{
    let mut report = T2dReport::default();
    for table in benchmark {
        for (ci, col) in table.columns.iter().enumerate() {
            let Some(ann) = annotate(ci, &col.header) else {
                report.unannotated += 1;
                continue;
            };
            report.evaluated += 1;
            if ann.label == col.gold_label {
                report.agree += 1;
            } else {
                if (ann.similarity - 1.0).abs() < 1e-5 {
                    report.disagree_syntactic_exact += 1;
                }
                match col.kind {
                    GoldKind::LessGranular => report.disagree_less_granular += 1,
                    GoldKind::Paraphrase => report.disagree_paraphrase += 1,
                    GoldKind::Exact => {}
                }
            }
        }
    }
    report
}

/// Evaluates the syntactic annotator on the benchmark.
#[must_use]
pub fn evaluate_syntactic(benchmark: &[GoldTable], annotator: &SyntacticAnnotator) -> T2dReport {
    eval_with(benchmark, |ci, header| annotator.annotate_name(ci, header))
}

/// Evaluates the semantic annotator on the benchmark.
#[must_use]
pub fn evaluate_semantic(benchmark: &[GoldTable], annotator: &SemanticAnnotator) -> T2dReport {
    eval_with(benchmark, |ci, header| annotator.annotate_name(ci, header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_ontology::dbpedia;
    use gittables_synth::generate_benchmark;
    use std::sync::Arc;

    #[test]
    fn syntactic_agreement_in_paper_regime() {
        let bench = generate_benchmark(1, 150, 8);
        let ont = Arc::new(dbpedia());
        let r = evaluate_syntactic(&bench, &SyntacticAnnotator::new(ont));
        // Paper: 61 % agreement; exact-gold columns agree, less-granular and
        // some paraphrase ones don't. Accept a broad band around it.
        let rate = r.agreement_rate();
        assert!((0.40..0.85).contains(&rate), "rate {rate}");
        assert!(r.evaluated > 100);
    }

    #[test]
    fn semantic_disagreements_often_syntactic_exact() {
        let bench = generate_benchmark(2, 150, 8);
        let ont = Arc::new(dbpedia());
        let r = evaluate_semantic(&bench, &SemanticAnnotator::new(ont));
        // Paper: 47 % of semantic disagreements carry similarity 1.0 (the
        // human picked a coarser type).
        assert!(r.evaluated > 100);
        if r.evaluated > r.agree {
            assert!(
                r.syntactic_exact_fraction() > 0.2,
                "fraction {}",
                r.syntactic_exact_fraction()
            );
        }
    }

    #[test]
    fn less_granular_columns_disagree() {
        let bench = generate_benchmark(3, 200, 5);
        let ont = Arc::new(dbpedia());
        let r = evaluate_syntactic(&bench, &SyntacticAnnotator::new(ont));
        assert!(r.disagree_less_granular > 0);
    }

    #[test]
    fn report_rates_safe_on_empty() {
        let r = T2dReport::default();
        assert_eq!(r.agreement_rate(), 0.0);
        assert_eq!(r.syntactic_exact_fraction(), 0.0);
    }
}
