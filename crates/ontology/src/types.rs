//! Semantic type definitions and their metadata.

/// Index of a semantic type inside its [`crate::Ontology`].
pub type TypeId = u32;

/// The atomic data type an ontology expects for values of a semantic type —
/// item (2) of the paper's per-type metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicKind {
    /// Free text.
    Text,
    /// Integer or decimal number.
    Number,
    /// Calendar date / timestamp.
    Date,
    /// True/false.
    Boolean,
    /// URL or IRI.
    Url,
    /// Opaque identifier (may be numeric or text).
    Identifier,
}

impl AtomicKind {
    /// Lowercase display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AtomicKind::Text => "text",
            AtomicKind::Number => "number",
            AtomicKind::Date => "date",
            AtomicKind::Boolean => "boolean",
            AtomicKind::Url => "url",
            AtomicKind::Identifier => "identifier",
        }
    }
}

impl std::fmt::Display for AtomicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A semantic type (an ontology property or class) with the metadata items
/// (1)–(5) of paper §3.4.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticType {
    /// Stable id within the owning ontology.
    pub id: TypeId,
    /// English label, already normalized (lowercase, space-separated).
    pub label: String,
    /// Expected atomic data type.
    pub atomic: AtomicKind,
    /// Domains this property applies to (e.g. `Person`, `Organization`).
    pub domains: Vec<String>,
    /// Superproperty / superclass label, if any (e.g. `product id` → `id`).
    pub superclass: Option<String>,
    /// Human-readable description.
    pub description: String,
    /// Whether values of this type are personally identifiable information
    /// (drives the anonymization pass; paper Table 3).
    pub pii: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_names() {
        assert_eq!(AtomicKind::Text.to_string(), "text");
        assert_eq!(AtomicKind::Identifier.name(), "identifier");
    }
}
