//! Leave-one-out evaluation of schema completion (extends §5.2's anecdotal
//! Table 8 with a quantitative metric).
//!
//! For every corpus schema of length > `prefix_len`, hide the suffix and ask
//! [`NearestCompletion`] (with the held-out schema excluded) for the top-`k`
//! completions. A completion *hits* when its first suggested attribute
//! matches the held-out schema's true next attribute (after normalization),
//! and *soft-hits* when the true next attribute appears anywhere in the
//! suggested completion.

use gittables_corpus::Corpus;
use gittables_ontology::normalize_label;
use serde::{Deserialize, Serialize};

use crate::apps::schema_completion::NearestCompletion;

/// Aggregate results of the leave-one-out evaluation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompletionEval {
    /// Schemas evaluated.
    pub evaluated: usize,
    /// Top-k contained an exact next-attribute match at position 1.
    pub exact_hits: usize,
    /// Top-k contained the true next attribute anywhere in some completion.
    pub soft_hits: usize,
    /// Top-k contained an attribute semantically close to the true next
    /// attribute (embedding cosine ≥ `SEMANTIC_HIT_THRESHOLD`, 0.70) — headers
    /// in the wild are abbreviated/mutated, so exact matching undercounts.
    pub semantic_hits: usize,
    /// Cutoff used.
    pub k: usize,
    /// Prefix length used.
    pub prefix_len: usize,
}

/// Cosine threshold for a semantic hit.
pub const SEMANTIC_HIT_THRESHOLD: f32 = 0.70;

impl CompletionEval {
    /// Exact hit rate.
    #[must_use]
    pub fn exact_rate(&self) -> f64 {
        if self.evaluated == 0 {
            return 0.0;
        }
        self.exact_hits as f64 / self.evaluated as f64
    }

    /// Soft hit rate.
    #[must_use]
    pub fn soft_rate(&self) -> f64 {
        if self.evaluated == 0 {
            return 0.0;
        }
        self.soft_hits as f64 / self.evaluated as f64
    }

    /// Semantic hit rate.
    #[must_use]
    pub fn semantic_rate(&self) -> f64 {
        if self.evaluated == 0 {
            return 0.0;
        }
        self.semantic_hits as f64 / self.evaluated as f64
    }
}

/// Runs the leave-one-out evaluation over up to `max_schemas` schemas.
#[must_use]
pub fn evaluate_completion(
    corpus: &Corpus,
    prefix_len: usize,
    k: usize,
    max_schemas: usize,
) -> CompletionEval {
    let nc = NearestCompletion::build(corpus);
    let encoder = gittables_embed::SentenceEncoder::default();
    let mut eval = CompletionEval {
        k,
        prefix_len,
        ..Default::default()
    };
    let mut done = 0usize;
    for at in &corpus.tables {
        if done >= max_schemas {
            break;
        }
        let schema = at.table.schema();
        if schema.len() <= prefix_len {
            continue;
        }
        let attrs: Vec<&str> = schema.iter().collect();
        let prefix = &attrs[..prefix_len];
        let gold_next = normalize_label(attrs[prefix_len]);
        if gold_next.is_empty() {
            continue;
        }
        // +1 so we can drop the held-out schema itself if returned.
        let completions = nc.complete(prefix, k + 1);
        let others: Vec<_> = completions
            .into_iter()
            .filter(|c| c.schema != schema)
            .take(k)
            .collect();
        if others.is_empty() {
            continue;
        }
        done += 1;
        eval.evaluated += 1;
        if others
            .iter()
            .any(|c| c.completion.first().map(|a| normalize_label(a)) == Some(gold_next.clone()))
        {
            eval.exact_hits += 1;
        }
        if others
            .iter()
            .any(|c| c.completion.iter().any(|a| normalize_label(a) == gold_next))
        {
            eval.soft_hits += 1;
        }
        let gold_emb = encoder.embed(&gold_next);
        if others.iter().any(|c| {
            c.completion.iter().any(|a| {
                gittables_embed::cosine(&gold_emb, &encoder.embed(a)) >= SEMANTIC_HIT_THRESHOLD
            })
        }) {
            eval.semantic_hits += 1;
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_corpus::AnnotatedTable;
    use gittables_table::Table;

    fn corpus_with_near_duplicates() -> Corpus {
        let mut c = Corpus::new("t");
        // Three near-identical order schemas (differing in the tail) so a
        // held-out one can be completed from its siblings, plus noise.
        let schemas: Vec<Vec<&str>> = vec![
            vec!["order id", "order date", "status", "total"],
            vec!["order id", "order date", "status", "customer"],
            vec!["order id", "order date", "status", "warehouse"],
            vec!["species", "genus", "habitat", "diet"],
        ];
        for (i, s) in schemas.iter().enumerate() {
            let row: Vec<&str> = s.iter().map(|_| "x").collect();
            let rows = [row.clone(), row];
            c.push(AnnotatedTable::new(
                Table::from_rows(format!("t{i}"), s, &rows).unwrap(),
            ));
        }
        c
    }

    #[test]
    fn siblings_complete_each_other() {
        let c = corpus_with_near_duplicates();
        let eval = evaluate_completion(&c, 2, 3, 100);
        assert!(eval.evaluated >= 3);
        // "status" follows (order id, order date) in every sibling schema.
        assert!(eval.exact_rate() > 0.5, "{eval:?}");
        assert!(eval.soft_rate() >= eval.exact_rate());
    }

    #[test]
    fn empty_corpus_safe() {
        let eval = evaluate_completion(&Corpus::new("e"), 3, 5, 10);
        assert_eq!(eval.evaluated, 0);
        assert_eq!(eval.exact_rate(), 0.0);
    }
}
