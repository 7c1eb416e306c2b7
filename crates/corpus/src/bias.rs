//! The Table 6 bias audit: value distributions of person/geography columns.

use std::collections::HashMap;

use gittables_annotate::Method;
use gittables_ontology::OntologyKind;
use serde::{Deserialize, Serialize};

use crate::corpus::Corpus;

/// The semantic types audited in Table 6.
pub const AUDITED_TYPES: &[&str] = &[
    "country",
    "city",
    "gender",
    "ethnicity",
    "race",
    "nationality",
];

/// One row of the Table 6 audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiasRow {
    /// Semantic type.
    pub semantic_type: String,
    /// Percentage of all corpus columns annotated with this type.
    pub percentage_columns: f64,
    /// Most frequent values, descending.
    pub frequent_values: Vec<(String, usize)>,
}

/// Runs the bias audit over Schema.org annotations (either method; the paper
/// uses the annotations to locate relevant columns, then inspects values).
///
/// "United States" counts are merged with "USA" as the paper footnotes.
#[must_use]
pub fn bias_audit(corpus: &Corpus, method: Method, top_k: usize) -> Vec<BiasRow> {
    let mut total_columns = 0usize;
    let mut per_type_columns: HashMap<&str, usize> = HashMap::new();
    let mut per_type_values: HashMap<&str, HashMap<String, usize>> = HashMap::new();
    for t in &corpus.tables {
        total_columns += t.table.num_columns();
        let anns = t.annotations(method, OntologyKind::SchemaOrg);
        for a in &anns.annotations {
            let Some(&audited) = AUDITED_TYPES.iter().find(|&&ty| ty == a.label) else {
                continue;
            };
            *per_type_columns.entry(audited).or_default() += 1;
            let values = per_type_values.entry(audited).or_default();
            if let Some(col) = t.table.column(a.column) {
                for v in col.values() {
                    if gittables_table::atomic::is_missing(v) {
                        continue;
                    }
                    // Paper footnote: merge "USA" into "United States".
                    let key = if v == "USA" { "United States" } else { v };
                    *values.entry(key.to_string()).or_default() += 1;
                }
            }
        }
    }
    AUDITED_TYPES
        .iter()
        .map(|&ty| {
            let cols = per_type_columns.get(ty).copied().unwrap_or(0);
            let mut values: Vec<(String, usize)> = per_type_values
                .remove(ty)
                .unwrap_or_default()
                .into_iter()
                .collect();
            values.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            values.truncate(top_k);
            BiasRow {
                semantic_type: ty.to_string(),
                percentage_columns: 100.0 * cols as f64 / total_columns.max(1) as f64,
                frequent_values: values,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;
    use gittables_annotate::{Annotation, TableAnnotations};
    use gittables_table::Table;

    fn corpus() -> Corpus {
        let t = Table::from_rows(
            "t",
            &["country", "x"],
            &[
                &["United States", "1"],
                &["USA", "2"],
                &["Canada", "3"],
                &["United States", "4"],
            ],
        )
        .unwrap();
        let mut at = AnnotatedTable::new(t);
        at.syntactic_schema = TableAnnotations {
            annotations: vec![Annotation {
                column: 0,
                type_id: 0,
                label: "country".into(),
                ontology: OntologyKind::SchemaOrg,
                method: Method::Syntactic,
                similarity: 1.0,
            }],
            num_columns: 2,
        };
        let mut c = Corpus::new("t");
        c.push(at);
        c
    }

    #[test]
    fn usa_merged_into_united_states() {
        let rows = bias_audit(&corpus(), Method::Syntactic, 5);
        let country = rows.iter().find(|r| r.semantic_type == "country").unwrap();
        assert_eq!(country.frequent_values[0].0, "United States");
        assert_eq!(country.frequent_values[0].1, 3);
        assert_eq!(country.frequent_values[1], ("Canada".to_string(), 1));
    }

    #[test]
    fn percentage_computed() {
        let rows = bias_audit(&corpus(), Method::Syntactic, 5);
        let country = rows.iter().find(|r| r.semantic_type == "country").unwrap();
        assert!((country.percentage_columns - 50.0).abs() < 1e-9);
    }

    #[test]
    fn unannotated_types_zero() {
        let rows = bias_audit(&corpus(), Method::Syntactic, 5);
        let gender = rows.iter().find(|r| r.semantic_type == "gender").unwrap();
        assert_eq!(gender.percentage_columns, 0.0);
        assert!(gender.frequent_values.is_empty());
    }

    #[test]
    fn all_audited_types_reported() {
        let rows = bias_audit(&corpus(), Method::Syntactic, 5);
        assert_eq!(rows.len(), AUDITED_TYPES.len());
    }
}
