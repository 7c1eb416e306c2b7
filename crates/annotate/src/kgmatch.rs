//! Table-to-KG matching baselines (the SemTab experiment of Fig. 6a).
//!
//! SemTab systems annotate a column by linking its *cell values* to knowledge
//! graph entities and aggregating the entities' types. That works on
//! Wikipedia-style web tables and fails on database-like GitTables tables,
//! whose cells are ids, codes, and measurements unknown to any KG — the point
//! Fig. 6a makes. We implement the three matcher families the paper's results
//! reflect:
//!
//! * [`CellValueMatcher`] — entity linking + majority vote over a built-in
//!   entity dictionary (cities, countries, species, names, …);
//! * [`PatternMatcher`] — structural value patterns (email, URL, date,
//!   postal code); "the average precision on the Schema.org annotations is
//!   slightly higher due to pattern matching methods that detected few
//!   structural types well";
//! * [`HeaderMatcher`] — header-string matching (what our syntactic
//!   annotator does), included as the contrasting approach.

use std::collections::HashMap;

use gittables_table::{Column, Table};

/// A column-type prediction by a matcher.
#[derive(Debug, Clone, PartialEq)]
pub struct KgPrediction {
    /// Column index.
    pub column: usize,
    /// Predicted type label.
    pub label: String,
    /// Fraction of cells supporting the prediction.
    pub support: f64,
}

/// Common interface of the matching baselines.
pub trait KgMatcher {
    /// Name of the system (for result tables).
    fn name(&self) -> &'static str;
    /// Predicts a type for each column it can handle.
    fn predict(&self, table: &Table) -> Vec<KgPrediction>;
}

/// Entity dictionary: value (lowercase) → type label.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeGraph {
    entities: HashMap<String, &'static str>,
}

impl KnowledgeGraph {
    /// Builds the built-in dictionary covering the entity families present in
    /// the synthetic corpus (and in real-world KGs): cities, countries,
    /// species, organism groups, person names, genders.
    #[must_use]
    pub fn builtin() -> Self {
        let mut entities = HashMap::new();
        let mut add = |values: &[&str], label: &'static str| {
            for v in values {
                entities.insert(v.to_lowercase(), label);
            }
        };
        add(
            &[
                "new york",
                "london",
                "coquitlam",
                "cambridge",
                "toronto",
                "chicago",
                "los angeles",
                "san francisco",
                "boston",
                "seattle",
                "berlin",
                "paris",
                "amsterdam",
                "brussels",
                "vancouver",
                "austin",
                "denver",
                "portland",
                "madrid",
                "rome",
                "sydney",
                "melbourne",
                "tokyo",
                "hanoi",
                "mumbai",
                "lagos",
                "nairobi",
                "lima",
                "pittsburgh",
                "buffalo",
            ],
            "city",
        );
        add(
            &[
                "united states",
                "usa",
                "canada",
                "belgium",
                "germany",
                "united kingdom",
                "france",
                "netherlands",
                "australia",
                "spain",
                "italy",
                "vietnam",
                "japan",
                "brazil",
                "india",
                "mexico",
                "china",
                "sweden",
                "norway",
                "poland",
                "kenya",
                "nigeria",
                "egypt",
                "argentina",
                "chile",
                "thailand",
                "indonesia",
                "turkey",
                "south africa",
                "new zealand",
            ],
            "country",
        );
        add(
            &[
                "enterococcus faecium",
                "escherichia coli",
                "staphylococcus aureus",
                "klebsiella pneumoniae",
                "pseudomonas aeruginosa",
                "homo sapiens",
                "mus musculus",
                "drosophila melanogaster",
                "danio rerio",
                "saccharomyces cerevisiae",
                "canis lupus",
                "felis catus",
            ],
            "species",
        );
        add(
            &[
                "enterococcus spp",
                "escherichia spp",
                "staphylococcus spp",
                "klebsiella spp",
                "mammalia",
                "aves",
                "insecta",
                "plantae",
            ],
            "organism group",
        );
        add(&["male", "female", "f", "m"], "gender");
        // Common first names link to `name`.
        add(
            &[
                "james",
                "mary",
                "john",
                "patricia",
                "robert",
                "jennifer",
                "michael",
                "linda",
                "william",
                "elizabeth",
                "david",
                "barbara",
                "richard",
                "susan",
            ],
            "name",
        );
        KnowledgeGraph { entities }
    }

    /// Looks a value up, lowercased/trimmed.
    #[must_use]
    pub fn lookup(&self, value: &str) -> Option<&'static str> {
        self.entities.get(&value.trim().to_lowercase()).copied()
    }
}

/// Cell-value linking with majority vote.
#[derive(Debug, Clone)]
pub struct CellValueMatcher {
    kg: KnowledgeGraph,
    /// Minimum fraction of cells that must link for a prediction.
    pub min_support: f64,
}

impl CellValueMatcher {
    /// Creates a matcher over the built-in KG.
    #[must_use]
    pub fn new() -> Self {
        CellValueMatcher {
            kg: KnowledgeGraph::builtin(),
            min_support: 0.5,
        }
    }
}

impl Default for CellValueMatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl KgMatcher for CellValueMatcher {
    fn name(&self) -> &'static str {
        "cell-value-linking"
    }

    fn predict(&self, table: &Table) -> Vec<KgPrediction> {
        let mut out = Vec::new();
        for (i, col) in table.columns().iter().enumerate() {
            let mut votes: HashMap<&'static str, usize> = HashMap::new();
            let mut total = 0usize;
            for v in col.values() {
                if gittables_table::is_missing(v) {
                    continue;
                }
                total += 1;
                if let Some(label) = self.kg.lookup(v) {
                    *votes.entry(label).or_default() += 1;
                }
            }
            if total == 0 {
                continue;
            }
            if let Some((&label, &count)) = votes.iter().max_by_key(|(_, c)| **c) {
                let support = count as f64 / total as f64;
                if support >= self.min_support {
                    out.push(KgPrediction {
                        column: i,
                        label: label.to_string(),
                        support,
                    });
                }
            }
        }
        out
    }
}

/// Structural value-pattern matching.
#[derive(Debug, Clone, Default)]
pub struct PatternMatcher {
    /// Minimum fraction of cells matching the pattern.
    pub min_support: f64,
}

impl PatternMatcher {
    /// Creates the matcher with 0.8 support.
    #[must_use]
    pub fn new() -> Self {
        PatternMatcher { min_support: 0.8 }
    }

    fn classify(value: &str) -> Option<&'static str> {
        let v = value.trim();
        if v.is_empty() {
            return None;
        }
        if v.contains('@') && v.contains('.') && !v.contains(' ') {
            return Some("email");
        }
        if v.starts_with("http://") || v.starts_with("https://") {
            return Some("url");
        }
        if gittables_table::is_date(v) {
            return Some("date");
        }
        if v.len() == 5 && v.bytes().all(|b| b.is_ascii_digit()) {
            return Some("postal code");
        }
        if v.len() >= 7
            && v.len() <= 14
            && v.bytes().all(|b| b.is_ascii_digit() || b == b'-')
            && v.matches('-').count() >= 2
        {
            return Some("phone");
        }
        None
    }
}

impl KgMatcher for PatternMatcher {
    fn name(&self) -> &'static str {
        "pattern-matching"
    }

    fn predict(&self, table: &Table) -> Vec<KgPrediction> {
        let min_support = if self.min_support > 0.0 {
            self.min_support
        } else {
            0.8
        };
        let mut out = Vec::new();
        for (i, col) in table.columns().iter().enumerate() {
            out.extend(predict_pattern_column(i, col, min_support));
        }
        out
    }
}

fn predict_pattern_column(i: usize, col: &Column, min_support: f64) -> Option<KgPrediction> {
    let mut votes: HashMap<&'static str, usize> = HashMap::new();
    let mut total = 0usize;
    for v in col.values() {
        if gittables_table::is_missing(v) {
            continue;
        }
        total += 1;
        if let Some(label) = PatternMatcher::classify(v) {
            *votes.entry(label).or_default() += 1;
        }
    }
    if total == 0 {
        return None;
    }
    let (&label, &count) = votes.iter().max_by_key(|(_, c)| **c)?;
    let support = count as f64 / total as f64;
    (support >= min_support).then(|| KgPrediction {
        column: i,
        label: label.to_string(),
        support,
    })
}

/// Header-string matching (syntactic): predicts the normalized header when it
/// is a known label of the gold vocabulary the benchmark uses.
#[derive(Debug, Clone, Default)]
pub struct HeaderMatcher;

impl KgMatcher for HeaderMatcher {
    fn name(&self) -> &'static str {
        "header-matching"
    }

    fn predict(&self, table: &Table) -> Vec<KgPrediction> {
        table
            .columns()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let norm = gittables_ontology::normalize_label(c.name());
                if norm.is_empty() || gittables_ontology::contains_digit(&norm) {
                    return None;
                }
                Some(KgPrediction {
                    column: i,
                    label: norm,
                    support: 1.0,
                })
            })
            .collect()
    }
}

/// Precision/recall of predictions against gold `(column, label)` pairs.
#[must_use]
pub fn score_predictions(predictions: &[KgPrediction], gold: &[(usize, String)]) -> (f64, f64) {
    if predictions.is_empty() {
        return (0.0, 0.0);
    }
    let correct = predictions
        .iter()
        .filter(|p| gold.iter().any(|(c, l)| *c == p.column && *l == p.label))
        .count();
    let precision = correct as f64 / predictions.len() as f64;
    let recall = if gold.is_empty() {
        0.0
    } else {
        correct as f64 / gold.len() as f64
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_table::Table;

    fn db_like_table() -> Table {
        // Database-like: ids, codes, measurements — nothing links to a KG.
        Table::from_rows(
            "orders",
            &["id", "quantity", "total_price", "status", "product_id"],
            &[
                &["1", "68103", "58336", "AVAILABLE", "4"],
                &["2", "28571", "8289", "AVAILABLE", "10"],
            ],
        )
        .unwrap()
    }

    fn entity_table() -> Table {
        Table::from_rows(
            "geo",
            &["place", "nation"],
            &[
                &["London", "United States"],
                &["Paris", "Canada"],
                &["Berlin", "Belgium"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn cell_linking_fails_on_database_tables() {
        let m = CellValueMatcher::new();
        let preds = m.predict(&db_like_table());
        // No cell value links to the KG except maybe the status column; the
        // whole point of Fig. 6a.
        assert!(preds.len() <= 1, "{preds:?}");
    }

    #[test]
    fn cell_linking_works_on_entity_tables() {
        let m = CellValueMatcher::new();
        let preds = m.predict(&entity_table());
        assert_eq!(preds.len(), 2);
        assert!(preds.iter().any(|p| p.label == "city"));
        assert!(preds.iter().any(|p| p.label == "country"));
    }

    #[test]
    fn pattern_matcher_detects_structural_types() {
        let t = Table::from_rows(
            "c",
            &["contact", "web", "joined", "zip"],
            &[
                &["a.b@example.com", "https://x.com/a", "2020-01-01", "90210"],
                &["c.d@test.org", "https://y.com/b", "2020-02-02", "10001"],
            ],
        )
        .unwrap();
        let preds = PatternMatcher::new().predict(&t);
        let labels: Vec<&str> = preds.iter().map(|p| p.label.as_str()).collect();
        assert!(labels.contains(&"email"));
        assert!(labels.contains(&"url"));
        assert!(labels.contains(&"date"));
        assert!(labels.contains(&"postal code"));
    }

    #[test]
    fn pattern_matcher_misfires_only_structurally() {
        // On a database-like table the pattern matcher finds no emails/URLs/
        // dates. It may false-positive on 5-digit numeric columns as postal
        // codes — a precision-lowering behaviour real SemTab systems exhibit
        // (Fig. 6a).
        let preds = PatternMatcher::new().predict(&db_like_table());
        for p in &preds {
            assert!(
                !matches!(p.label.as_str(), "email" | "url" | "date"),
                "unexpected {p:?}"
            );
        }
    }

    #[test]
    fn header_matcher_predicts_normalized_headers() {
        let preds = HeaderMatcher.predict(&db_like_table());
        assert!(preds.iter().any(|p| p.label == "total price"));
        assert!(preds.iter().any(|p| p.label == "id"));
    }

    #[test]
    fn scoring() {
        let preds = vec![
            KgPrediction {
                column: 0,
                label: "city".into(),
                support: 1.0,
            },
            KgPrediction {
                column: 1,
                label: "country".into(),
                support: 1.0,
            },
        ];
        let gold = vec![(0usize, "city".to_string()), (2, "species".to_string())];
        let (p, r) = score_predictions(&preds, &gold);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
        assert_eq!(score_predictions(&[], &gold), (0.0, 0.0));
    }

    #[test]
    fn kg_lookup() {
        let kg = KnowledgeGraph::builtin();
        assert_eq!(kg.lookup(" London "), Some("city"));
        assert_eq!(kg.lookup("USA"), Some("country"));
        assert_eq!(kg.lookup("42"), None);
        assert!(!kg.entities.is_empty());
    }
}
