//! The column-type-annotation (CTA) benchmark and the table-to-KG matching
//! evaluation of Fig. 6a (§5.3).
//!
//! The paper curates 1 101 tables (≥3 columns, ≥5 rows) with
//! syntactically-obtained gold types from DBpedia (122 types) and Schema.org
//! (59 types), submits them to SemTab systems, and observes low
//! precision/recall because cell-value linking fails on database-like
//! content. We rebuild the benchmark from a corpus and evaluate our matcher
//! baselines the same way.

use gittables_annotate::Method;
use gittables_annotate::{score_predictions, KgMatcher};
use gittables_corpus::Corpus;
use gittables_ontology::OntologyKind;
use gittables_table::Table;

/// One benchmark table with its gold column types.
#[derive(Debug, Clone)]
pub struct CtaTable {
    /// The table.
    pub table: Table,
    /// Gold `(column index, type label)` pairs.
    pub gold: Vec<(usize, String)>,
}

/// A CTA benchmark for one ontology.
#[derive(Debug, Clone)]
pub struct CtaBenchmark {
    /// Ontology providing the gold labels.
    pub ontology: OntologyKind,
    /// Benchmark tables.
    pub tables: Vec<CtaTable>,
    /// Number of distinct gold types.
    pub distinct_types: usize,
}

/// Builds the benchmark: tables with at least `min_cols` columns,
/// `min_rows` rows, and ≥1 syntactic annotation in `ontology`; capped at
/// `max_tables`.
#[must_use]
pub fn build_cta_benchmark(
    corpus: &Corpus,
    ontology: OntologyKind,
    min_cols: usize,
    min_rows: usize,
    max_tables: usize,
) -> CtaBenchmark {
    let mut tables = Vec::new();
    let mut types = std::collections::HashSet::new();
    for t in &corpus.tables {
        if tables.len() >= max_tables {
            break;
        }
        if t.table.num_columns() < min_cols || t.table.num_rows() < min_rows {
            continue;
        }
        let anns = t.annotations(Method::Syntactic, ontology);
        if !anns.any() {
            continue;
        }
        let gold: Vec<(usize, String)> = anns
            .annotations
            .iter()
            .map(|a| (a.column, a.label.clone()))
            .collect();
        for (_, l) in &gold {
            types.insert(l.clone());
        }
        tables.push(CtaTable {
            table: t.table.clone(),
            gold,
        });
    }
    CtaBenchmark {
        ontology,
        tables,
        distinct_types: types.len(),
    }
}

/// One row of the Fig. 6a result: a system's precision/recall on one
/// ontology's benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct KgBenchmarkRow {
    /// Matching system name.
    pub system: String,
    /// Ontology evaluated against.
    pub ontology: OntologyKind,
    /// Mean precision over tables with predictions.
    pub precision: f64,
    /// Mean recall over all tables.
    pub recall: f64,
}

/// Evaluates one matcher over the benchmark: macro-averaged precision and
/// recall over tables.
#[must_use]
pub fn run_kg_benchmark(benchmark: &CtaBenchmark, matcher: &dyn KgMatcher) -> KgBenchmarkRow {
    let mut precision_sum = 0.0;
    let mut precision_n = 0usize;
    let mut recall_sum = 0.0;
    for t in &benchmark.tables {
        let preds = matcher.predict(&t.table);
        let (p, r) = score_predictions(&preds, &t.gold);
        if !preds.is_empty() {
            precision_sum += p;
            precision_n += 1;
        }
        recall_sum += r;
    }
    let n = benchmark.tables.len().max(1) as f64;
    KgBenchmarkRow {
        system: matcher.name().to_string(),
        ontology: benchmark.ontology,
        precision: if precision_n > 0 {
            precision_sum / precision_n as f64
        } else {
            0.0
        },
        recall: recall_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_annotate::{
        Annotation, CellValueMatcher, HeaderMatcher, PatternMatcher, TableAnnotations,
    };
    use gittables_corpus::AnnotatedTable;

    fn corpus() -> Corpus {
        let mut c = Corpus::new("t");
        // Database-like table: ids & codes; gold from headers.
        let t = Table::from_rows(
            "orders",
            &["id", "quantity", "status"],
            &[
                &["1", "68103", "AVAILABLE"],
                &["2", "28571", "AVAILABLE"],
                &["3", "55600", "SOLD"],
                &["4", "99296", "SOLD"],
                &["5", "12345", "OPEN"],
            ],
        )
        .unwrap();
        let mut at = AnnotatedTable::new(t);
        at.syntactic_dbpedia = TableAnnotations {
            annotations: vec![
                Annotation {
                    column: 0,
                    type_id: 0,
                    label: "id".into(),
                    ontology: OntologyKind::DBpedia,
                    method: Method::Syntactic,
                    similarity: 1.0,
                },
                Annotation {
                    column: 2,
                    type_id: 1,
                    label: "status".into(),
                    ontology: OntologyKind::DBpedia,
                    method: Method::Syntactic,
                    similarity: 1.0,
                },
            ],
            num_columns: 3,
        };
        c.push(at);
        // Too-small table: excluded by min dims.
        let small = Table::from_rows("s", &["a", "b"], &[&["1", "2"], &["3", "4"]]).unwrap();
        c.push(AnnotatedTable::new(small));
        c
    }

    #[test]
    fn benchmark_built_with_dims_filter() {
        let b = build_cta_benchmark(&corpus(), OntologyKind::DBpedia, 3, 5, 100);
        assert_eq!(b.tables.len(), 1);
        assert_eq!(b.distinct_types, 2);
        assert_eq!(b.tables[0].gold.len(), 2);
    }

    #[test]
    fn cell_value_matcher_scores_low_on_database_tables() {
        let b = build_cta_benchmark(&corpus(), OntologyKind::DBpedia, 3, 5, 100);
        let row = run_kg_benchmark(&b, &CellValueMatcher::new());
        assert!(row.recall < 0.5, "recall {}", row.recall);
    }

    #[test]
    fn header_matcher_scores_high() {
        let b = build_cta_benchmark(&corpus(), OntologyKind::DBpedia, 3, 5, 100);
        let row = run_kg_benchmark(&b, &HeaderMatcher);
        assert!(row.recall > 0.9, "recall {}", row.recall);
    }

    #[test]
    fn pattern_matcher_runs() {
        let b = build_cta_benchmark(&corpus(), OntologyKind::DBpedia, 3, 5, 100);
        let row = run_kg_benchmark(&b, &PatternMatcher::new());
        assert!(row.precision >= 0.0 && row.recall <= 1.0);
    }

    #[test]
    fn max_tables_cap() {
        let b = build_cta_benchmark(&corpus(), OntologyKind::DBpedia, 3, 5, 0);
        assert!(b.tables.is_empty());
    }
}
