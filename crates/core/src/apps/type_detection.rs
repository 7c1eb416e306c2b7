//! Semantic column type detection (§5.1, Table 7): train a Sherlock-style
//! model on labeled columns from a corpus.
//!
//! The paper selects five semantic types — `address`, `class`, `status`,
//! `name`, `description` — samples 500 deduplicated columns per type, and
//! trains Sherlock with 5-fold CV, comparing GitTables-trained vs
//! VizNet-trained models.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use gittables_annotate::Method;
use gittables_corpus::Corpus;
use gittables_ml::{
    cross_validate, Classifier, CvReport, Dataset, FeatureExtractor, ForestConfig, LogisticConfig,
    LogisticRegression, Mlp, MlpConfig, RandomForest,
};
use gittables_ontology::OntologyKind;
use gittables_synth::GeneratedTable;

/// The five semantic types of the paper's Table 7 experiment.
pub const PAPER_TYPES: [&str; 5] = ["address", "class", "status", "name", "description"];

/// Configuration of the type-detection experiment.
#[derive(Debug, Clone)]
pub struct TypeDetectionConfig {
    /// The target semantic types (class names of the dataset).
    pub types: Vec<String>,
    /// Columns sampled per type.
    pub per_type: usize,
    /// Which classifier to train: `"forest"`, `"logistic"`, or `"mlp"`.
    pub classifier: String,
    /// CV folds.
    pub folds: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for TypeDetectionConfig {
    fn default() -> Self {
        TypeDetectionConfig {
            types: PAPER_TYPES.iter().map(|s| (*s).to_string()).collect(),
            per_type: 500,
            classifier: "forest".to_string(),
            folds: 5,
            seed: 0,
        }
    }
}

fn values_fingerprint<'a>(values: impl ExactSizeIterator<Item = &'a str>) -> u64 {
    let mut h = DefaultHasher::new();
    let len = values.len();
    for v in values.take(32) {
        v.hash(&mut h);
    }
    len.hash(&mut h);
    h.finish()
}

/// Builds a labeled dataset of column features from a corpus: columns whose
/// *syntactic* annotation (either ontology) matches one of the target types,
/// deduplicated by content, up to `per_type` per class.
#[must_use]
pub fn build_type_dataset(
    corpus: &Corpus,
    config: &TypeDetectionConfig,
    extractor: &FeatureExtractor,
) -> Dataset {
    let mut data = Dataset::new(Vec::new(), Vec::new(), config.types.clone());
    let mut seen: HashSet<u64> = HashSet::new();
    let mut counts = vec![0usize; config.types.len()];
    for t in &corpus.tables {
        for (method, ont) in [
            (Method::Syntactic, OntologyKind::SchemaOrg),
            (Method::Syntactic, OntologyKind::DBpedia),
        ] {
            for a in &t.annotations(method, ont).annotations {
                let Some(class) = config.types.iter().position(|ty| *ty == a.label) else {
                    continue;
                };
                if counts[class] >= config.per_type {
                    continue;
                }
                let Some(col) = t.table.column(a.column) else {
                    continue;
                };
                if col.is_empty() {
                    continue;
                }
                let fp = values_fingerprint(col.values());
                if !seen.insert(fp) {
                    continue;
                }
                data.push(extractor.extract(col.values()), class);
                counts[class] += 1;
            }
        }
    }
    data
}

/// Builds a labeled dataset from web tables (the VizNet stand-in): columns
/// whose *header* equals one of the target types.
#[must_use]
pub fn build_webtable_type_dataset(
    tables: &[GeneratedTable],
    config: &TypeDetectionConfig,
    extractor: &FeatureExtractor,
) -> Dataset {
    let mut data = Dataset::new(Vec::new(), Vec::new(), config.types.clone());
    let mut seen: HashSet<u64> = HashSet::new();
    let mut counts = vec![0usize; config.types.len()];
    for t in tables {
        for (ci, header) in t.header.iter().enumerate() {
            let norm = gittables_ontology::normalize_label(header);
            let Some(class) = config.types.iter().position(|ty| *ty == norm) else {
                continue;
            };
            if counts[class] >= config.per_type {
                continue;
            }
            let values: Vec<String> = t.rows.column(ci).map(str::to_string).collect();
            if values.is_empty() {
                continue;
            }
            let fp = values_fingerprint(values.iter().map(String::as_str));
            if !seen.insert(fp) {
                continue;
            }
            data.push(extractor.extract(&values), class);
            counts[class] += 1;
        }
    }
    data
}

/// Trains the configured classifier with k-fold CV on `data` — one cell of
/// Table 7's diagonal.
#[must_use]
pub fn train_sherlock(data: &Dataset, config: &TypeDetectionConfig) -> CvReport {
    if config.classifier == "logistic" {
        cross_validate(data, config.folds, config.seed, || {
            LogisticRegression::new(LogisticConfig {
                seed: config.seed,
                ..Default::default()
            })
        })
    } else if config.classifier == "mlp" {
        cross_validate(data, config.folds, config.seed, || {
            Mlp::new(MlpConfig {
                seed: config.seed,
                ..Default::default()
            })
        })
    } else {
        cross_validate(data, config.folds, config.seed, || {
            RandomForest::new(ForestConfig {
                seed: config.seed,
                ..Default::default()
            })
        })
    }
}

/// Trains on `train` and evaluates on `eval` — Table 7's cross-corpus cell
/// (train VizNet → evaluate GitTables). Returns `(accuracy, macro F1)`.
#[must_use]
pub fn train_eval_cross(
    train: &Dataset,
    eval: &Dataset,
    config: &TypeDetectionConfig,
) -> (f64, f64) {
    let mut model: Box<dyn Classifier> = if config.classifier == "logistic" {
        Box::new(LogisticRegression::new(LogisticConfig {
            seed: config.seed,
            ..Default::default()
        }))
    } else if config.classifier == "mlp" {
        Box::new(Mlp::new(MlpConfig {
            seed: config.seed,
            ..Default::default()
        }))
    } else {
        Box::new(RandomForest::new(ForestConfig {
            seed: config.seed,
            ..Default::default()
        }))
    };
    model.fit(train);
    let pred = model.predict_all(&eval.features);
    let m = gittables_ml::Metrics::compute(&pred, &eval.labels, train.num_classes());
    (m.accuracy, m.macro_f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_annotate::{Annotation, TableAnnotations};
    use gittables_corpus::AnnotatedTable;
    use gittables_table::Table;

    fn labeled_corpus() -> Corpus {
        let mut c = Corpus::new("t");
        for i in 0..6 {
            let status_vals: Vec<&str> = if i % 2 == 0 {
                vec!["OPEN", "CLOSED"]
            } else {
                vec!["ACTIVE", "DONE"]
            };
            let t = Table::from_rows(
                format!("t{i}"),
                &["status", "name"],
                &[
                    &[status_vals[0], "Alice Smith"],
                    &[status_vals[1], "Bob Jones"],
                ],
            )
            .unwrap();
            let mut at = AnnotatedTable::new(t);
            at.syntactic_schema = TableAnnotations {
                annotations: vec![
                    Annotation {
                        column: 0,
                        type_id: 0,
                        label: "status".into(),
                        ontology: OntologyKind::SchemaOrg,
                        method: Method::Syntactic,
                        similarity: 1.0,
                    },
                    Annotation {
                        column: 1,
                        type_id: 1,
                        label: "name".into(),
                        ontology: OntologyKind::SchemaOrg,
                        method: Method::Syntactic,
                        similarity: 1.0,
                    },
                ],
                num_columns: 2,
            };
            c.push(at);
        }
        c
    }

    #[test]
    fn dataset_built_with_dedup() {
        let cfg = TypeDetectionConfig {
            types: vec!["status".into(), "name".into()],
            per_type: 100,
            ..Default::default()
        };
        let ex = FeatureExtractor::default();
        let d = build_type_dataset(&labeled_corpus(), &cfg, &ex);
        // 2 distinct status columns (others dedup away) + 1 distinct name col.
        assert_eq!(d.len(), 3, "{:?}", d.labels);
        assert_eq!(d.dim(), gittables_ml::FEATURE_COUNT);
    }

    #[test]
    fn per_type_cap_respected() {
        let cfg = TypeDetectionConfig {
            types: vec!["status".into(), "name".into()],
            per_type: 1,
            ..Default::default()
        };
        let ex = FeatureExtractor::default();
        let d = build_type_dataset(&labeled_corpus(), &cfg, &ex);
        assert!(d.len() <= 2);
    }

    #[test]
    fn webtable_dataset() {
        let gen = gittables_synth::WebTableGenerator::new(1);
        let tables = gen.generate_many(300);
        let cfg = TypeDetectionConfig {
            types: vec!["name".into(), "status".into()],
            per_type: 20,
            ..Default::default()
        };
        let ex = FeatureExtractor::default();
        let d = build_webtable_type_dataset(&tables, &cfg, &ex);
        assert!(d.len() > 10, "{}", d.len());
    }

    #[test]
    fn cross_eval_runs() {
        let cfg = TypeDetectionConfig {
            types: vec!["status".into(), "name".into()],
            per_type: 100,
            folds: 2,
            ..Default::default()
        };
        let ex = FeatureExtractor::default();
        let d = build_type_dataset(&labeled_corpus(), &cfg, &ex);
        let (acc, f1) = train_eval_cross(&d, &d, &cfg);
        assert!(acc > 0.5);
        assert!(f1 > 0.0);
    }
}
