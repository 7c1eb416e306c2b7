//! The [`Ontology`] registry: an indexed collection of semantic types.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::normalize::normalize_label;
use crate::types::{AtomicKind, SemanticType, TypeId};

/// Which ontology a registry models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OntologyKind {
    /// DBpedia properties.
    DBpedia,
    /// Schema.org types and properties.
    SchemaOrg,
}

impl OntologyKind {
    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OntologyKind::DBpedia => "DBpedia",
            OntologyKind::SchemaOrg => "Schema.org",
        }
    }
}

impl std::fmt::Display for OntologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An immutable, indexed registry of [`SemanticType`]s.
#[derive(Debug, Clone)]
pub struct Ontology {
    kind: OntologyKind,
    types: Vec<SemanticType>,
    /// normalized label → type id.
    index: HashMap<String, TypeId>,
}

/// Builder used by the `dbpedia()` / `schema_org()` constructors.
#[derive(Debug)]
pub struct OntologyBuilder {
    kind: OntologyKind,
    types: Vec<SemanticType>,
    index: HashMap<String, TypeId>,
}

impl OntologyBuilder {
    /// Starts a builder for `kind`.
    #[must_use]
    pub fn new(kind: OntologyKind) -> Self {
        OntologyBuilder {
            kind,
            types: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Adds a type if its normalized label is new; returns its id (existing id
    /// for duplicates — first definition wins, matching how curated core
    /// entries take precedence over generated compounds).
    pub fn add(
        &mut self,
        label: &str,
        atomic: AtomicKind,
        domains: &[&str],
        superclass: Option<&str>,
        description: &str,
        pii: bool,
    ) -> TypeId {
        let norm = normalize_label(label);
        if let Some(&id) = self.index.get(&norm) {
            return id;
        }
        let id = self.types.len() as TypeId;
        self.types.push(SemanticType {
            id,
            label: norm.clone(),
            atomic,
            domains: domains.iter().map(|d| (*d).to_string()).collect(),
            superclass: superclass.map(normalize_label),
            description: description.to_string(),
            pii,
        });
        self.index.insert(norm, id);
        id
    }

    /// Number of types added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Finalizes into an [`Ontology`].
    #[must_use]
    pub fn build(self) -> Ontology {
        Ontology {
            kind: self.kind,
            types: self.types,
            index: self.index,
        }
    }
}

impl Ontology {
    /// Which ontology this is.
    #[must_use]
    pub fn kind(&self) -> OntologyKind {
        self.kind
    }

    /// Number of semantic types.
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the ontology is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// All types, ordered by id.
    #[must_use]
    pub fn types(&self) -> &[SemanticType] {
        &self.types
    }

    /// Type by id.
    #[must_use]
    pub fn get(&self, id: TypeId) -> Option<&SemanticType> {
        self.types.get(id as usize)
    }

    /// Exact lookup by label (normalized before matching).
    #[must_use]
    pub fn lookup(&self, label: &str) -> Option<&SemanticType> {
        self.index
            .get(&normalize_label(label))
            .and_then(|&id| self.get(id))
    }

    /// The chain of superclasses of `id`, nearest first. Stops at a missing
    /// link or after 16 hops (cycle guard).
    #[must_use]
    pub fn ancestors(&self, id: TypeId) -> Vec<&SemanticType> {
        let mut out = Vec::new();
        let mut current = self.get(id);
        for _ in 0..16 {
            let Some(t) = current else { break };
            let Some(sup) = &t.superclass else { break };
            let Some(parent) = self.lookup(sup) else {
                break;
            };
            if out.iter().any(|p: &&SemanticType| p.id == parent.id) || parent.id == id {
                break; // cycle
            }
            out.push(parent);
            current = Some(parent);
        }
        out
    }

    /// Whether `descendant` equals `ancestor` or transitively specializes it
    /// (used by granularity-aware evaluation, §3.4's loss-function remark).
    #[must_use]
    pub fn is_a(&self, descendant: TypeId, ancestor: TypeId) -> bool {
        if descendant == ancestor {
            return true;
        }
        self.ancestors(descendant).iter().any(|t| t.id == ancestor)
    }

    /// Iterator over `(normalized label, id)` pairs — consumed by the
    /// annotators to build their matching structures.
    pub fn labels(&self) -> impl Iterator<Item = (&str, TypeId)> {
        self.types.iter().map(|t| (t.label.as_str(), t.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ontology {
        let mut b = OntologyBuilder::new(OntologyKind::DBpedia);
        b.add(
            "id",
            AtomicKind::Identifier,
            &["Thing"],
            None,
            "any identifier",
            false,
        );
        b.add(
            "product_id",
            AtomicKind::Identifier,
            &["Product"],
            Some("id"),
            "",
            false,
        );
        b.add(
            "order id",
            AtomicKind::Identifier,
            &["Order"],
            Some("id"),
            "",
            false,
        );
        b.add("email", AtomicKind::Text, &["Person"], None, "", true);
        b.build()
    }

    #[test]
    fn lookup_normalizes() {
        let o = small();
        assert!(o.lookup("Product-ID").is_some());
        assert!(o.lookup("productId").is_some());
        assert!(o.lookup("unknown").is_none());
    }

    #[test]
    fn duplicate_label_first_wins() {
        let mut b = OntologyBuilder::new(OntologyKind::DBpedia);
        let a = b.add("name", AtomicKind::Text, &[], None, "first", false);
        let c = b.add("Name", AtomicKind::Text, &[], None, "second", false);
        assert_eq!(a, c);
        assert_eq!(b.build().lookup("name").unwrap().description, "first");
    }

    #[test]
    fn ancestors_and_is_a() {
        let o = small();
        let pid = o.lookup("product id").unwrap().id;
        let id = o.lookup("id").unwrap().id;
        let anc = o.ancestors(pid);
        assert_eq!(anc.len(), 1);
        assert_eq!(anc[0].label, "id");
        assert!(o.is_a(pid, id));
        assert!(!o.is_a(id, pid));
        assert!(o.is_a(id, id));
    }

    #[test]
    fn cycle_guard() {
        let mut b = OntologyBuilder::new(OntologyKind::DBpedia);
        b.add("a", AtomicKind::Text, &[], Some("b"), "", false);
        b.add("b", AtomicKind::Text, &[], Some("a"), "", false);
        let o = b.build();
        let a = o.lookup("a").unwrap().id;
        // Must terminate.
        let anc = o.ancestors(a);
        assert!(anc.len() <= 2);
    }
}
