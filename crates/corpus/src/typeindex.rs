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
//!
//! The index is three flat buffers: the sorted labels as one
//! [`CellArena`] (one text blob, one end offset per label), every
//! posting in label order in one `Vec`, and `starts`, where label `i`'s
//! list is `postings[starts[i]..starts[i + 1]]`. The index sidecar
//! (`crate::sidecar`) stores the same layout, so a boot reads it back
//! with a fixed number of allocations, whatever the number of labels.

use gittables_annotate::Method;
use gittables_ontology::OntologyKind;
use gittables_table::CellArena;
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TypeCount {
    /// Normalized type label.
    pub label: String,
    /// Number of postings (column annotations) with this label.
    pub postings: usize,
    /// Number of distinct tables with at least one such posting.
    pub tables: usize,
}

/// The inverted index: sorted labels with their posting lists.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeIndex {
    /// Sorted, distinct labels.
    labels: CellArena,
    /// Every posting list, in label order.
    postings: Vec<TypePosting>,
    /// Label `i`'s list is `postings[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
}

impl TypeIndex {
    /// Builds the index over every annotation of every table, with table
    /// ids equal to corpus positions.
    ///
    /// # Panics
    /// When the distinct labels together exceed `u32::MAX` bytes.
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
        let mut labels = CellArena::new();
        let mut postings = Vec::with_capacity(pairs.len());
        let mut starts = Vec::new();
        let mut prev = None;
        for (label, posting) in pairs {
            if prev != Some(label) {
                labels
                    .push(label)
                    .expect("type labels fit in a u32-offset arena");
                starts.push(postings.len());
                prev = Some(label);
            }
            postings.push(posting);
        }
        starts.push(postings.len());
        TypeIndex::from_raw_parts(labels, postings, starts)
    }

    /// Reassembles an index from its raw parts — the deserialization
    /// path of the sidecar format (`crate::sidecar`), which persists
    /// labels, list lengths and postings verbatim.
    ///
    /// # Panics
    /// When `starts` does not hold one more entry than `labels`, running
    /// from 0 up to `postings.len()` without decreasing. Callers (the
    /// sidecar decoder) validate label ordering before constructing.
    #[must_use]
    pub fn from_raw_parts(
        labels: CellArena,
        postings: Vec<TypePosting>,
        starts: Vec<usize>,
    ) -> Self {
        assert_eq!(
            starts.len(),
            labels.len() + 1,
            "one start per label, and the end"
        );
        assert_eq!(starts.first(), Some(&0), "the first list starts at 0");
        assert_eq!(
            starts.last(),
            Some(&postings.len()),
            "the last list ends the postings"
        );
        assert!(starts.is_sorted(), "lists do not overlap");
        TypeIndex {
            labels,
            postings,
            starts,
        }
    }

    /// Every posting list, in the order of [`Self::labels`] — the
    /// serialization path of the sidecar format.
    pub fn posting_lists(&self) -> impl ExactSizeIterator<Item = &[TypePosting]> {
        self.starts.windows(2).map(|w| &self.postings[w[0]..w[1]])
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
    pub fn labels(&self) -> &CellArena {
        &self.labels
    }

    /// The posting list for `label`, if the label is indexed.
    #[must_use]
    pub fn postings(&self, label: &str) -> Option<&[TypePosting]> {
        let i = self.labels.binary_search(label).ok()?;
        Some(&self.postings[self.starts[i]..self.starts[i + 1]])
    }

    /// The index of the postings whose table lies in `range`, dropping
    /// labels left empty: what a shard-local engine serving those
    /// tables answers from. Postings within a label ascend by table id,
    /// so each label's restriction is a contiguous run.
    #[must_use]
    pub fn restrict(&self, range: &std::ops::Range<TableId>) -> TypeIndex {
        let mut labels = CellArena::new();
        let mut postings = Vec::new();
        let mut starts = vec![0];
        for (label, list) in self.labels.iter().zip(self.posting_lists()) {
            let lo = list.partition_point(|p| p.table < range.start);
            let hi = list.partition_point(|p| p.table < range.end);
            if lo < hi {
                labels
                    .push(label)
                    .expect("a subset of the labels fits where they all did");
                postings.extend_from_slice(&list[lo..hi]);
                starts.push(postings.len());
            }
        }
        TypeIndex::from_raw_parts(labels, postings, starts)
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
            .zip(self.posting_lists())
            .map(|(label, postings)| {
                let mut tables: Vec<TableId> = postings.iter().map(|p| p.table).collect();
                tables.sort_unstable();
                tables.dedup();
                TypeCount {
                    label: label.to_string(),
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
        assert_eq!(
            idx.labels().iter().collect::<Vec<_>>(),
            ["address", "city", "year"]
        );
        assert_eq!(idx.starts, [0, 3, 4, 5]);
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
        assert_eq!(idx.postings.len(), 6);
        assert_eq!(idx.posting_lists().map(<[_]>::len).sum::<usize>(), 6);
    }

    #[test]
    fn a_restriction_keeps_the_range_and_drops_empty_labels() {
        let idx = TypeIndex::build(&corpus());
        assert_eq!(idx.restrict(&(0..3)), idx);
        let middle = idx.restrict(&(1..2));
        assert_eq!(middle.labels().iter().collect::<Vec<_>>(), ["address"]);
        assert_eq!(
            middle.postings("address"),
            Some(&idx.postings("address").unwrap()[1..2])
        );
        let last = idx.restrict(&(2..9));
        assert_eq!(
            last.labels().iter().collect::<Vec<_>>(),
            ["address", "year"]
        );
        assert_eq!(last.starts, [0, 1, 2]);
        assert!(idx.restrict(&(3..9)).is_empty());
    }

    #[test]
    fn empty_corpus_empty_index() {
        let idx = TypeIndex::build(&Corpus::new("e"));
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.counts().is_empty());
        assert_eq!(idx.starts, [0]);
        assert_eq!(idx.posting_lists().len(), 0);
    }
}
