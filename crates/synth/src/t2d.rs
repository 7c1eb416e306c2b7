//! T2Dv2-style gold standard generator for annotation-quality evaluation.
//!
//! T2Dv2 (Ritze et al.) is a hand-labeled subset of WDC WebTables mapping
//! columns to DBpedia properties; §4.3 evaluates the GitTables annotators
//! against it. The generator plants the phenomena the paper's manual review
//! surfaced:
//!
//! * columns whose human label **matches** the header exactly (`city` →
//!   `city`) — both annotators should agree;
//! * columns where the human chose a **less granular** type (header `City`
//!   labeled `location`) — the semantic/syntactic annotators legitimately
//!   disagree while being arguably better (the paper's 47 %-of-errors case);
//! * columns with **paraphrase headers** (`Latin name` labeled `latin name`
//!   but resembling `synonym` matches);
//! * **unlabeled noise** columns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::values::ValueKind;

/// How the human label relates to the column header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldKind {
    /// Human label equals the (normalized) header.
    Exact,
    /// Human label is a superclass of the header's type.
    LessGranular,
    /// Header is a paraphrase of the human label.
    Paraphrase,
}

/// One gold-labeled column.
#[derive(Debug, Clone)]
pub struct GoldColumn {
    /// Header as it appears in the table.
    pub header: String,
    /// Cell values.
    pub values: Vec<String>,
    /// The human (T2Dv2) DBpedia label.
    pub gold_label: String,
    /// Relationship class this example was generated as.
    pub kind: GoldKind,
}

/// A gold-labeled benchmark table.
#[derive(Debug, Clone)]
pub struct GoldTable {
    /// Table identifier.
    pub name: String,
    /// Labeled columns.
    pub columns: Vec<GoldColumn>,
}

/// Templates: `(header, gold label, kind, value generator)`.
const TEMPLATES: &[(&str, &str, GoldKind, ValueKind)] = &[
    ("city", "city", GoldKind::Exact, ValueKind::City),
    ("City", "location", GoldKind::LessGranular, ValueKind::City),
    ("country", "country", GoldKind::Exact, ValueKind::Country),
    (
        "Country",
        "location",
        GoldKind::LessGranular,
        ValueKind::Country,
    ),
    ("name", "name", GoldKind::Exact, ValueKind::FullName),
    (
        "Latin name",
        "latin name",
        GoldKind::Paraphrase,
        ValueKind::Species,
    ),
    ("species", "species", GoldKind::Exact, ValueKind::Species),
    ("birth date", "birth date", GoldKind::Exact, ValueKind::Date),
    ("Born", "birth date", GoldKind::Paraphrase, ValueKind::Date),
    ("year", "year", GoldKind::Exact, ValueKind::Year),
    ("Year", "date", GoldKind::LessGranular, ValueKind::Year),
    ("price", "price", GoldKind::Exact, ValueKind::Price),
    ("Cost", "price", GoldKind::Paraphrase, ValueKind::Price),
    ("title", "title", GoldKind::Exact, ValueKind::Text),
    ("artist", "artist", GoldKind::Exact, ValueKind::FullName),
    ("team", "team", GoldKind::Exact, ValueKind::Word),
    ("Squad", "team", GoldKind::Paraphrase, ValueKind::Word),
    ("capital", "capital", GoldKind::Exact, ValueKind::City),
    ("Capital", "city", GoldKind::LessGranular, ValueKind::City),
    (
        "population",
        "population",
        GoldKind::Exact,
        ValueKind::Count,
    ),
    ("area", "area", GoldKind::Exact, ValueKind::Measurement),
    (
        "elevation",
        "elevation",
        GoldKind::Exact,
        ValueKind::Measurement,
    ),
    ("address", "address", GoldKind::Exact, ValueKind::Address),
    (
        "Location",
        "address",
        GoldKind::LessGranular,
        ValueKind::Address,
    ),
    ("genre", "genre", GoldKind::Exact, ValueKind::Category),
    ("Kind", "genre", GoldKind::Paraphrase, ValueKind::Category),
    ("status", "status", GoldKind::Exact, ValueKind::Status),
    ("date", "date", GoldKind::Exact, ValueKind::Date),
    ("author", "author", GoldKind::Exact, ValueKind::FullName),
    (
        "Writer",
        "author",
        GoldKind::Paraphrase,
        ValueKind::FullName,
    ),
    // Hard cases modelled on real T2Dv2 columns whose human labels use a
    // vocabulary far from the header.
    (
        "Nation",
        "country",
        GoldKind::Paraphrase,
        ValueKind::Country,
    ),
    ("Town", "city", GoldKind::Paraphrase, ValueKind::City),
    (
        "Municipality",
        "location",
        GoldKind::LessGranular,
        ValueKind::City,
    ),
    (
        "Inhabitants",
        "population",
        GoldKind::Paraphrase,
        ValueKind::Count,
    ),
    (
        "Surface",
        "area",
        GoldKind::Paraphrase,
        ValueKind::Measurement,
    ),
    (
        "Height",
        "elevation",
        GoldKind::Paraphrase,
        ValueKind::Measurement,
    ),
    ("Club", "team", GoldKind::Paraphrase, ValueKind::Word),
    (
        "Label",
        "publisher",
        GoldKind::Paraphrase,
        ValueKind::LastName,
    ),
    ("Born", "birth place", GoldKind::Paraphrase, ValueKind::City),
    ("Period", "year", GoldKind::LessGranular, ValueKind::Year),
    (
        "Established",
        "founding date",
        GoldKind::Paraphrase,
        ValueKind::Year,
    ),
    (
        "Headquarters",
        "location",
        GoldKind::Paraphrase,
        ValueKind::City,
    ),
];

/// Generates a T2Dv2-style benchmark of `n_tables` tables with `rows` rows.
#[must_use]
pub fn generate_benchmark(seed: u64, n_tables: usize, rows: usize) -> Vec<GoldTable> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n_tables);
    for t in 0..n_tables {
        let ncols = rng.gen_range(2..=5usize);
        let mut cols = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let (header, gold, kind, vk) = TEMPLATES[rng.gen_range(0..TEMPLATES.len())];
            let values = (0..rows).map(|r| vk.generate(&mut rng, r)).collect();
            cols.push(GoldColumn {
                header: header.to_string(),
                values,
                gold_label: gold.to_string(),
                kind,
            });
        }
        out.push(GoldTable {
            name: format!("t2d_{t}"),
            columns: cols,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_shape() {
        let b = generate_benchmark(1, 50, 17);
        assert_eq!(b.len(), 50);
        for t in &b {
            assert!((2..=5).contains(&t.columns.len()));
            for c in &t.columns {
                assert_eq!(c.values.len(), 17);
                assert!(!c.gold_label.is_empty());
            }
        }
    }

    #[test]
    fn contains_all_gold_kinds() {
        let b = generate_benchmark(2, 200, 5);
        let mut exact = false;
        let mut less = false;
        let mut para = false;
        for t in &b {
            for c in &t.columns {
                match c.kind {
                    GoldKind::Exact => exact = true,
                    GoldKind::LessGranular => less = true,
                    GoldKind::Paraphrase => para = true,
                }
            }
        }
        assert!(exact && less && para);
    }

    #[test]
    fn deterministic() {
        let a = generate_benchmark(3, 10, 5);
        let b = generate_benchmark(3, 10, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.columns.len(), y.columns.len());
            for (cx, cy) in x.columns.iter().zip(&y.columns) {
                assert_eq!(cx.values, cy.values);
            }
        }
    }

    #[test]
    fn less_granular_header_differs_from_gold() {
        let b = generate_benchmark(4, 200, 3);
        for t in &b {
            for c in &t.columns {
                if c.kind == GoldKind::LessGranular {
                    assert_ne!(c.header.to_lowercase(), c.gold_label);
                }
            }
        }
    }
}
