//! Annotation statistics (Table 5, Fig. 4b, Fig. 4c, Fig. 5).

use std::collections::HashMap;

use gittables_annotate::Method;
use gittables_ontology::OntologyKind;

use crate::corpus::Corpus;

/// A fixed-bin histogram over `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Lower bound of the first bin.
    pub lo: f64,
    /// Upper bound of the last bin.
    pub hi: f64,
    /// Counts per bin.
    pub bins: Vec<usize>,
}

impl Histogram {
    /// Creates an empty histogram with `n` bins over `[lo, hi]`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        Histogram {
            lo,
            hi,
            bins: vec![0; n.max(1)],
        }
    }

    /// Adds a value (clamped into range).
    pub fn add(&mut self, v: f64) {
        let n = self.bins.len();
        let t = ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((t * n as f64) as usize).min(n - 1);
        self.bins[idx] += 1;
    }

    /// Total count.
    #[must_use]
    pub fn total(&self) -> usize {
        self.bins.iter().sum()
    }

    /// `(bin midpoint, count)` series for printing.
    #[must_use]
    pub fn series(&self) -> Vec<(f64, usize)> {
        let n = self.bins.len() as f64;
        let w = (self.hi - self.lo) / n;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + w * (i as f64 + 0.5), c))
            .collect()
    }
}

/// Annotation statistics for one `(method, ontology)` configuration — one
/// column of the paper's Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationStats {
    /// Method.
    pub method: Method,
    /// Ontology.
    pub ontology: OntologyKind,
    /// Number of tables with ≥1 annotated column.
    pub annotated_tables: usize,
    /// Total column annotations.
    pub annotated_columns: usize,
    /// Number of distinct semantic types used.
    pub unique_types: usize,
    /// Number of types annotating more than `popular_threshold` columns.
    pub popular_types: usize,
    /// The threshold used for `popular_types` (paper: 1 000).
    pub popular_threshold: usize,
    /// Mean fraction of annotated columns per table (paper: semantic 71 %,
    /// syntactic 26 %).
    pub mean_coverage: f64,
    /// Top types by column count, descending.
    pub top_types: Vec<(String, usize)>,
}

impl AnnotationStats {
    /// Computes the statistics of one configuration over a corpus.
    ///
    /// `popular_threshold` is the column count a type needs to count as
    /// "popular" (Table 5 uses 1 000 on the 1M corpus; scale it for smaller
    /// corpora).
    #[must_use]
    pub fn of(
        corpus: &Corpus,
        method: Method,
        ontology: OntologyKind,
        popular_threshold: usize,
        top_k: usize,
    ) -> Self {
        let mut annotated_tables = 0usize;
        let mut annotated_columns = 0usize;
        let mut per_type: HashMap<&str, usize> = HashMap::new();
        let mut coverage_sum = 0.0f64;
        for t in &corpus.tables {
            let anns = t.annotations(method, ontology);
            if anns.any() {
                annotated_tables += 1;
            }
            annotated_columns += anns.annotations.len();
            coverage_sum += anns.coverage();
            for a in &anns.annotations {
                *per_type.entry(a.label.as_str()).or_default() += 1;
            }
        }
        let mut sorted: Vec<(String, usize)> = per_type
            .iter()
            .map(|(l, c)| ((*l).to_string(), *c))
            .collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let popular = sorted
            .iter()
            .filter(|(_, c)| *c > popular_threshold)
            .count();
        AnnotationStats {
            method,
            ontology,
            annotated_tables,
            annotated_columns,
            unique_types: sorted.len(),
            popular_types: popular,
            popular_threshold,
            mean_coverage: coverage_sum / corpus.len().max(1) as f64,
            top_types: sorted.into_iter().take(top_k).collect(),
        }
    }
}

/// Coverage histogram (Fig. 4b): % annotated columns per table, 20 bins.
#[must_use]
pub fn coverage_histogram(corpus: &Corpus, method: Method) -> Histogram {
    let mut h = Histogram::new(0.0, 100.0, 20);
    for t in &corpus.tables {
        // Aggregated over both ontologies, as in the figure: a column counts
        // as annotated if either ontology annotated it.
        let a = t.annotations(method, OntologyKind::DBpedia);
        let b = t.annotations(method, OntologyKind::SchemaOrg);
        let n = t.table.num_columns().max(1);
        let annotated = (0..n)
            .filter(|&i| a.for_column(i).is_some() || b.for_column(i).is_some())
            .count();
        h.add(100.0 * annotated as f64 / n as f64);
    }
    h
}

/// Similarity histogram of semantic annotations (Fig. 4c), per ontology,
/// 25 bins over `[0.4, 1.0]`.
#[must_use]
pub fn similarity_histogram(corpus: &Corpus, ontology: OntologyKind) -> Histogram {
    let mut h = Histogram::new(0.4, 1.0, 25);
    for t in &corpus.tables {
        for a in &t.annotations(Method::Semantic, ontology).annotations {
            h.add(f64::from(a.similarity));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;
    use gittables_annotate::{Annotation, TableAnnotations};
    use gittables_table::Table;

    fn ann(col: usize, label: &str, method: Method, ont: OntologyKind, sim: f32) -> Annotation {
        Annotation {
            column: col,
            type_id: 0,
            label: label.into(),
            ontology: ont,
            method,
            similarity: sim,
        }
    }

    fn corpus() -> Corpus {
        let mut c = Corpus::new("t");
        for i in 0..3 {
            let t = Table::from_rows("t", &["id", "x"], &[&["1", "a"], &["2", "b"]]).unwrap();
            let mut at = AnnotatedTable::new(t);
            if i < 2 {
                at.syntactic_dbpedia = TableAnnotations {
                    annotations: vec![ann(0, "id", Method::Syntactic, OntologyKind::DBpedia, 1.0)],
                    num_columns: 2,
                };
            }
            at.semantic_dbpedia = TableAnnotations {
                annotations: vec![
                    ann(0, "id", Method::Semantic, OntologyKind::DBpedia, 1.0),
                    ann(1, "value", Method::Semantic, OntologyKind::DBpedia, 0.75),
                ],
                num_columns: 2,
            };
            c.push(at);
        }
        c
    }

    #[test]
    fn table5_counters() {
        let c = corpus();
        let syn = AnnotationStats::of(&c, Method::Syntactic, OntologyKind::DBpedia, 1, 10);
        assert_eq!(syn.annotated_tables, 2);
        assert_eq!(syn.annotated_columns, 2);
        assert_eq!(syn.unique_types, 1);
        assert_eq!(syn.popular_types, 1); // "id" has 2 > 1 columns
        let sem = AnnotationStats::of(&c, Method::Semantic, OntologyKind::DBpedia, 1, 10);
        assert_eq!(sem.annotated_tables, 3);
        assert_eq!(sem.annotated_columns, 6);
        assert_eq!(sem.unique_types, 2);
        assert!((sem.mean_coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn semantic_coverage_higher() {
        let c = corpus();
        let syn = AnnotationStats::of(&c, Method::Syntactic, OntologyKind::DBpedia, 1000, 5);
        let sem = AnnotationStats::of(&c, Method::Semantic, OntologyKind::DBpedia, 1000, 5);
        assert!(sem.mean_coverage > syn.mean_coverage);
    }

    #[test]
    fn top_types_sorted() {
        let c = corpus();
        let sem = AnnotationStats::of(&c, Method::Semantic, OntologyKind::DBpedia, 1000, 5);
        assert_eq!(sem.top_types[0].0, "id");
        assert_eq!(sem.top_types[0].1, 3);
    }

    #[test]
    fn histograms() {
        let c = corpus();
        let cov = coverage_histogram(&c, Method::Semantic);
        assert_eq!(cov.total(), 3);
        // All tables are 100% covered semantically → last bin.
        assert_eq!(*cov.bins.last().unwrap(), 3);
        let sim = similarity_histogram(&c, OntologyKind::DBpedia);
        assert_eq!(sim.total(), 6);
        // Peak at 1.0 (three sim=1 annotations in last bin).
        assert_eq!(*sim.bins.last().unwrap(), 3);
    }

    #[test]
    fn histogram_mechanics() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(-5.0); // clamped to first bin
        h.add(0.5);
        h.add(9.99);
        h.add(100.0); // clamped to last bin
        assert_eq!(h.total(), 4);
        assert_eq!(h.bins[0], 2);
        assert_eq!(h.bins[9], 2);
        let s = h.series();
        assert_eq!(s.len(), 10);
        assert!((s[0].0 - 0.5).abs() < 1e-12);
    }
}
