//! PII detection and anonymization (paper §3.3 "Content curation", Table 3).
//!
//! Columns annotated with a PII semantic type from Schema.org get their
//! values replaced by fake values. The `name` type is special-cased: a
//! "name" column is anonymized only when it co-occurs with another PII
//! column, since `name` often denotes a non-person name.

use gittables_annotate::TableAnnotations;
use gittables_ontology::Ontology;
use gittables_table::Table;

use crate::faker::{Faker, FakerClass};

/// A detected PII column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiiColumn {
    /// Column index.
    pub column: usize,
    /// PII semantic-type label.
    pub label: String,
    /// Faker class used for replacement.
    pub class: FakerClass,
}

/// Outcome of anonymizing one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PiiReport {
    /// The columns that were anonymized.
    pub anonymized: Vec<PiiColumn>,
    /// Number of columns in the table.
    pub num_columns: usize,
}

impl PiiReport {
    /// Fraction of columns anonymized (paper: 0.3 % corpus-wide).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.num_columns == 0 {
            return 0.0;
        }
        self.anonymized.len() as f64 / self.num_columns as f64
    }
}

/// Detects PII columns from Schema.org annotations, applying the
/// `name`-co-occurrence rule.
#[must_use]
pub fn detect_pii_columns(annotations: &TableAnnotations, ontology: &Ontology) -> Vec<PiiColumn> {
    let mut raw: Vec<PiiColumn> = annotations
        .annotations
        .iter()
        .filter_map(|a| {
            let ty = ontology.get(a.type_id)?;
            if !ty.pii {
                return None;
            }
            let class = FakerClass::for_pii_label(&ty.label)?;
            Some(PiiColumn {
                column: a.column,
                label: ty.label.clone(),
                class,
            })
        })
        .collect();
    // `name` columns require a co-occurring *other* PII type.
    let has_non_name = raw.iter().any(|p| p.label != "name");
    if !has_non_name {
        raw.retain(|p| p.label != "name");
    }
    raw
}

/// Anonymizes the PII columns of `table` in place, seeded deterministically
/// from `seed`. Returns the report of what was replaced.
pub fn anonymize_table(
    table: &mut Table,
    annotations: &TableAnnotations,
    ontology: &Ontology,
    seed: u64,
) -> PiiReport {
    let pii = detect_pii_columns(annotations, ontology);
    let num_columns = table.num_columns();
    let mut faker = Faker::new(seed);
    for p in &pii {
        if let Some(col) = table.columns_mut().get_mut(p.column) {
            let fresh: Vec<String> = (0..col.len()).map(|_| faker.value(p.class)).collect();
            col.replace_values(fresh);
        }
    }
    PiiReport {
        anonymized: pii,
        num_columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_annotate::SyntacticAnnotator;
    use gittables_ontology::schema_org;
    use std::sync::Arc;

    fn setup(headers: &[&str]) -> (Table, TableAnnotations, Arc<Ontology>) {
        let rows: Vec<Vec<String>> = (0..3)
            .map(|i| headers.iter().map(|_| format!("v{i}")).collect())
            .collect();
        let table = Table::from_string_rows("t", headers, rows).unwrap();
        let ont = Arc::new(schema_org());
        let anns = SyntacticAnnotator::new(ont.clone()).annotate(&table);
        (table, anns, ont)
    }

    #[test]
    fn detects_email_and_birth_date() {
        let (_, anns, ont) = setup(&["id", "email", "birth_date"]);
        let pii = detect_pii_columns(&anns, &ont);
        let labels: Vec<&str> = pii.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.contains(&"email"));
        assert!(labels.contains(&"birth date"));
    }

    #[test]
    fn lone_name_not_anonymized() {
        let (_, anns, ont) = setup(&["name", "price"]);
        let pii = detect_pii_columns(&anns, &ont);
        assert!(pii.is_empty(), "{pii:?}");
    }

    #[test]
    fn name_with_cooccurring_pii_anonymized() {
        let (_, anns, ont) = setup(&["name", "email"]);
        let pii = detect_pii_columns(&anns, &ont);
        let labels: Vec<&str> = pii.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.contains(&"name"));
        assert!(labels.contains(&"email"));
    }

    #[test]
    fn anonymize_replaces_values() {
        let (mut table, anns, ont) = setup(&["id", "email"]);
        let before = table.column(1).unwrap().cells().clone();
        let report = anonymize_table(&mut table, &anns, &ont, 7);
        assert_eq!(report.anonymized.len(), 1);
        let after = table.column(1).unwrap().cells();
        assert_ne!(&before, after);
        assert!(after.iter().all(|v| v.contains("@anon.example")));
        // Non-PII column untouched.
        assert_eq!(table.column(0).unwrap().get(0), Some("v0"));
    }

    #[test]
    fn anonymization_deterministic() {
        let (mut a, anns, ont) = setup(&["id", "email"]);
        let (mut b, _, _) = setup(&["id", "email"]);
        anonymize_table(&mut a, &anns, &ont, 9);
        anonymize_table(&mut b, &anns, &ont, 9);
        assert_eq!(a.column(1).unwrap().cells(), b.column(1).unwrap().cells());
    }

    #[test]
    fn report_fraction() {
        let (mut table, anns, ont) = setup(&["id", "email", "price", "qty"]);
        let r = anonymize_table(&mut table, &anns, &ont, 1);
        assert!((r.fraction() - 0.25).abs() < 1e-12);
        assert_eq!(PiiReport::default().fraction(), 0.0);
    }
}
