//! Inverted semantic-type index: annotation label → posting list.
//!
//! The §5 applications answer "which tables have an `address`-typed
//! column?" by scanning every annotation of every table. The
//! [`TypeIndex`] inverts that relation once, at build time, so the query
//! becomes a binary search over sorted labels plus a read of the
//! pre-computed posting list — O(log #labels + #postings) instead of
//! O(#annotations). The query-serving subsystem (`gittables_serve`)
//! builds one shared read-only index per loaded corpus and answers
//! `/types` and `/types/{label}/tables` straight from it.
//!
//! Postings are ordered deterministically: tables in stable-id order,
//! annotation configurations in [`Corpus::annotation_configs`] order,
//! annotations in column order — the same traversal a brute-force scan
//! performs, so the index is bit-reproducible from the corpus.

use gittables_annotate::Method;
use gittables_ontology::OntologyKind;
use serde::{Deserialize, Serialize};

use crate::corpus::{Corpus, TableId};

/// One occurrence of a semantic type on a column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypePosting {
    /// Stable id of the table.
    pub table: TableId,
    /// Column index inside the table.
    pub column: usize,
    /// Annotation method that produced the occurrence.
    pub method: Method,
    /// Ontology the type comes from.
    pub ontology: OntologyKind,
    /// Annotation confidence (cosine similarity, or 1.0 for syntactic).
    pub similarity: f32,
}

/// Per-type summary: how often a label occurs and in how many tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeCount {
    /// Normalized type label.
    pub label: String,
    /// Number of postings (column annotations) with this label.
    pub postings: usize,
    /// Number of distinct tables with at least one such posting.
    pub tables: usize,
}

/// The inverted index: sorted labels with parallel posting lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeIndex {
    /// Sorted, distinct labels.
    labels: Vec<String>,
    /// Posting lists, parallel to `labels`.
    postings: Vec<Vec<TypePosting>>,
}

impl TypeIndex {
    /// Builds the index over every annotation of every table, with table
    /// ids equal to corpus positions.
    #[must_use]
    pub fn build(corpus: &Corpus) -> Self {
        // Collect (label, posting) pairs in deterministic scan order, then
        // group by label with a stable sort so posting order inside a list
        // stays the scan order.
        let mut pairs: Vec<(&str, TypePosting)> = Vec::new();
        for (id, at) in corpus.tables.iter().enumerate() {
            for (method, ontology) in Corpus::annotation_configs() {
                for a in &at.annotations(method, ontology).annotations {
                    pairs.push((
                        a.label.as_str(),
                        TypePosting {
                            table: id,
                            column: a.column,
                            method,
                            ontology,
                            similarity: a.similarity,
                        },
                    ));
                }
            }
        }
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        let mut labels: Vec<String> = Vec::new();
        let mut postings: Vec<Vec<TypePosting>> = Vec::new();
        for (label, posting) in pairs {
            if labels.last().map(String::as_str) != Some(label) {
                labels.push(label.to_string());
                postings.push(Vec::new());
            }
            postings.last_mut().expect("pushed above").push(posting);
        }
        TypeIndex { labels, postings }
    }

    /// Reassembles an index from its raw parts — the deserialization
    /// path of the sidecar format (`crate::sidecar`), which persists
    /// labels and posting lists verbatim.
    ///
    /// # Panics
    /// When `labels` and `postings` are not parallel. Callers (the
    /// sidecar decoder) validate label ordering before constructing.
    #[must_use]
    pub fn from_raw_parts(labels: Vec<String>, postings: Vec<Vec<TypePosting>>) -> Self {
        assert_eq!(labels.len(), postings.len(), "posting list per label");
        TypeIndex { labels, postings }
    }

    /// Every posting list, parallel to [`Self::labels`] — the
    /// serialization path of the sidecar format.
    #[must_use]
    pub fn posting_lists(&self) -> &[Vec<TypePosting>] {
        &self.postings
    }

    /// Number of distinct labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the index holds no labels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// All labels, sorted.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The posting list for `label`, if the label is indexed.
    #[must_use]
    pub fn postings(&self, label: &str) -> Option<&[TypePosting]> {
        let i = self
            .labels
            .binary_search_by(|l| l.as_str().cmp(label))
            .ok()?;
        Some(&self.postings[i])
    }

    /// Distinct ids of tables with at least one `label`-typed column,
    /// ascending. Empty when the label is not indexed.
    #[must_use]
    pub fn tables_with(&self, label: &str) -> Vec<TableId> {
        let Some(postings) = self.postings(label) else {
            return Vec::new();
        };
        // `build` emits postings in scan order, so within one label they
        // are ascending — the sort is a cheap guard, not a correctness
        // requirement.
        let mut ids: Vec<TableId> = postings.iter().map(|p| p.table).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Per-type counts for every label, in label order.
    #[must_use]
    pub fn counts(&self) -> Vec<TypeCount> {
        self.labels
            .iter()
            .zip(&self.postings)
            .map(|(label, postings)| {
                let mut tables: Vec<TableId> = postings.iter().map(|p| p.table).collect();
                tables.sort_unstable();
                tables.dedup();
                TypeCount {
                    label: label.clone(),
                    postings: postings.len(),
                    tables: tables.len(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;
    use gittables_annotate::Annotation;
    use gittables_table::Table;

    fn annotated(
        labels: &[(usize, &str)],
        method: Method,
        ontology: OntologyKind,
    ) -> AnnotatedTable {
        let t = Table::from_rows("t", &["a", "b", "c"], &[&["1", "2", "3"]]).unwrap();
        let mut at = AnnotatedTable::new(t);
        let anns = labels
            .iter()
            .map(|&(column, label)| Annotation {
                column,
                type_id: 0,
                label: label.to_string(),
                ontology,
                method,
                similarity: 0.9,
            })
            .collect();
        at.annotations_mut(method, ontology).annotations = anns;
        at
    }

    fn corpus() -> Corpus {
        let mut c = Corpus::new("ti");
        c.push(annotated(
            &[(0, "address"), (2, "city")],
            Method::Syntactic,
            OntologyKind::DBpedia,
        ));
        c.push(annotated(
            &[(1, "address")],
            Method::Semantic,
            OntologyKind::SchemaOrg,
        ));
        c.push(annotated(
            &[(0, "year"), (1, "address")],
            Method::Semantic,
            OntologyKind::DBpedia,
        ));
        c
    }

    #[test]
    fn postings_grouped_and_sorted() {
        let idx = TypeIndex::build(&corpus());
        assert_eq!(idx.labels(), &["address", "city", "year"]);
        let addr = idx.postings("address").unwrap();
        assert_eq!(addr.len(), 3);
        assert_eq!(addr[0].table, 0);
        assert_eq!(addr[1].table, 1);
        assert_eq!(addr[2].table, 2);
        assert_eq!(idx.tables_with("address"), vec![0, 1, 2]);
        assert_eq!(idx.tables_with("city"), vec![0]);
        assert!(idx.postings("missing").is_none());
        assert!(idx.tables_with("missing").is_empty());
    }

    #[test]
    fn counts_distinct_tables() {
        let mut c = corpus();
        // A second "city" on the same table must not bump the table count.
        let extra = annotated(&[], Method::Syntactic, OntologyKind::DBpedia);
        c.push(extra);
        c.tables[0]
            .annotations_mut(Method::Semantic, OntologyKind::DBpedia)
            .annotations = vec![Annotation {
            column: 1,
            type_id: 0,
            label: "city".into(),
            ontology: OntologyKind::DBpedia,
            method: Method::Semantic,
            similarity: 0.8,
        }];
        let idx = TypeIndex::build(&c);
        let counts = idx.counts();
        let city = counts.iter().find(|c| c.label == "city").unwrap();
        assert_eq!(city.postings, 2);
        assert_eq!(city.tables, 1);
        assert_eq!(idx.postings.iter().map(Vec::len).sum::<usize>(), 6);
    }

    #[test]
    fn empty_corpus_empty_index() {
        let idx = TypeIndex::build(&Corpus::new("e"));
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.counts().is_empty());
    }
}
