//! The [`Corpus`] and [`AnnotatedTable`] containers.

use gittables_annotate::TableAnnotations;
use gittables_ontology::OntologyKind;
use gittables_table::Table;
use serde::{Deserialize, Serialize};

use gittables_annotate::Method;

/// A curated table plus its four annotation sets (2 methods × 2 ontologies).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnotatedTable {
    /// The table itself (after anonymization).
    pub table: Table,
    /// Syntactic annotations against DBpedia.
    pub syntactic_dbpedia: TableAnnotations,
    /// Syntactic annotations against Schema.org.
    pub syntactic_schema: TableAnnotations,
    /// Semantic annotations against DBpedia.
    pub semantic_dbpedia: TableAnnotations,
    /// Semantic annotations against Schema.org.
    pub semantic_schema: TableAnnotations,
}

impl AnnotatedTable {
    /// Creates an annotated table with empty annotation sets.
    #[must_use]
    pub fn new(table: Table) -> Self {
        let n = table.num_columns();
        let empty = || TableAnnotations {
            annotations: Vec::new(),
            num_columns: n,
        };
        AnnotatedTable {
            table,
            syntactic_dbpedia: empty(),
            syntactic_schema: empty(),
            semantic_dbpedia: empty(),
            semantic_schema: empty(),
        }
    }

    /// The annotation set for a `(method, ontology)` pair.
    #[must_use]
    pub fn annotations(&self, method: Method, ontology: OntologyKind) -> &TableAnnotations {
        match (method, ontology) {
            (Method::Syntactic, OntologyKind::DBpedia) => &self.syntactic_dbpedia,
            (Method::Syntactic, OntologyKind::SchemaOrg) => &self.syntactic_schema,
            (Method::Semantic, OntologyKind::DBpedia) => &self.semantic_dbpedia,
            (Method::Semantic, OntologyKind::SchemaOrg) => &self.semantic_schema,
        }
    }

    /// Mutable variant of [`Self::annotations`].
    pub fn annotations_mut(
        &mut self,
        method: Method,
        ontology: OntologyKind,
    ) -> &mut TableAnnotations {
        match (method, ontology) {
            (Method::Syntactic, OntologyKind::DBpedia) => &mut self.syntactic_dbpedia,
            (Method::Syntactic, OntologyKind::SchemaOrg) => &mut self.syntactic_schema,
            (Method::Semantic, OntologyKind::DBpedia) => &mut self.semantic_dbpedia,
            (Method::Semantic, OntologyKind::SchemaOrg) => &mut self.semantic_schema,
        }
    }
}

/// Stable identifier of a table inside a corpus: its global position.
///
/// The sharded store ([`crate::store`]) records every table's global
/// position and [`crate::store::CorpusStore::load_corpus`] reassembles
/// tables in that order, so the id a table gets here is the same across
/// save/load round trips and across resumed builds — stable enough to
/// hand out over a network API.
pub type TableId = usize;

/// A corpus of annotated tables.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    /// The tables.
    pub tables: Vec<AnnotatedTable>,
    /// Corpus name / version tag.
    pub name: String,
}

impl Corpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Corpus {
            tables: Vec::new(),
            name: name.into(),
        }
    }

    /// Number of tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the corpus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Adds a table.
    pub fn push(&mut self, table: AnnotatedTable) {
        self.tables.push(table);
    }

    /// The table with stable id `id`, if in range.
    #[must_use]
    pub fn table_by_id(&self, id: TableId) -> Option<&AnnotatedTable> {
        self.tables.get(id)
    }

    /// The subset of tables retrieved by `topic` (paper §4.1: topic subsets
    /// can be used for domain-specific models).
    #[must_use]
    pub fn topic_subset(&self, topic: &str) -> Vec<&AnnotatedTable> {
        self.tables
            .iter()
            .filter(|t| t.table.provenance().topic == topic)
            .collect()
    }

    /// All distinct topics present, sorted.
    #[must_use]
    pub fn topics(&self) -> Vec<String> {
        let mut topics: Vec<String> = self
            .tables
            .iter()
            .map(|t| t.table.provenance().topic.clone())
            .collect();
        topics.sort();
        topics.dedup();
        topics
    }

    /// Iterator over all `(method, ontology)` pairs — the four annotation
    /// configurations of Table 5.
    #[must_use]
    pub fn annotation_configs() -> [(Method, OntologyKind); 4] {
        [
            (Method::Syntactic, OntologyKind::DBpedia),
            (Method::Syntactic, OntologyKind::SchemaOrg),
            (Method::Semantic, OntologyKind::DBpedia),
            (Method::Semantic, OntologyKind::SchemaOrg),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_table::Provenance;

    fn table(topic: &str) -> AnnotatedTable {
        let t = Table::from_rows("t", &["id", "x"], &[&["1", "a"], &["2", "b"]])
            .unwrap()
            .with_provenance(Provenance::new("r", "f.csv").with_topic(topic));
        AnnotatedTable::new(t)
    }

    #[test]
    fn push_and_topics() {
        let mut c = Corpus::new("test");
        c.push(table("id"));
        c.push(table("object"));
        c.push(table("id"));
        assert_eq!(c.len(), 3);
        assert_eq!(c.topics(), vec!["id".to_string(), "object".to_string()]);
        assert_eq!(c.topic_subset("id").len(), 2);
        assert!(c.topic_subset("missing").is_empty());
    }

    #[test]
    fn annotation_slots() {
        let mut t = table("id");
        assert_eq!(
            t.annotations(Method::Syntactic, OntologyKind::DBpedia)
                .num_columns,
            2
        );
        t.annotations_mut(Method::Semantic, OntologyKind::SchemaOrg)
            .num_columns = 5;
        assert_eq!(
            t.annotations(Method::Semantic, OntologyKind::SchemaOrg)
                .num_columns,
            5
        );
    }

    #[test]
    fn configs_cover_all_four() {
        assert_eq!(Corpus::annotation_configs().len(), 4);
    }
}
