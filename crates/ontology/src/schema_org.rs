//! Construction of the Schema.org-like ontology.

use crate::data::{COMPOUND_SUFFIXES, DOMAIN_PREFIXES, SCHEMA_ORG_CORE};
use crate::ontology::{Ontology, OntologyBuilder, OntologyKind};

/// Number of semantic types in the paper's Schema.org extraction (§3.4).
pub const SCHEMA_ORG_TYPE_COUNT: usize = 2637;

/// Builds the Schema.org-like ontology with exactly
/// `SCHEMA_ORG_TYPE_COUNT` (2 637) types.
///
/// Expansion is *suffix-major* (`product id`, `order id`, `customer id`, …)
/// rather than DBpedia's prefix-major order, so the two ontologies end up with
/// overlapping-but-different compound inventories — mirroring the paper's
/// observation that the ontologies are complementary.
#[must_use]
pub fn schema_org() -> Ontology {
    let mut b = OntologyBuilder::new(OntologyKind::SchemaOrg);
    for ty in SCHEMA_ORG_CORE {
        b.add(
            ty.label,
            ty.atomic,
            ty.domains,
            ty.superclass,
            ty.description,
            ty.pii,
        );
    }
    for (suffix, atomic) in COMPOUND_SUFFIXES {
        b.add(suffix, *atomic, &["Thing"], None, "", false);
    }
    'outer: for (suffix, atomic) in COMPOUND_SUFFIXES {
        for (prefix, domain) in DOMAIN_PREFIXES {
            if b.len() >= SCHEMA_ORG_TYPE_COUNT {
                break 'outer;
            }
            let label = format!("{prefix} {suffix}");
            let description =
                format!("The {suffix} of the {prefix}; specializes the generic {suffix} property.");
            b.add(
                &label,
                *atomic,
                &[domain],
                Some(suffix),
                &description,
                false,
            );
        }
    }
    debug_assert_eq!(b.len(), SCHEMA_ORG_TYPE_COUNT);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbpedia::dbpedia;

    #[test]
    fn has_paper_type_count() {
        assert_eq!(schema_org().len(), SCHEMA_ORG_TYPE_COUNT);
    }

    #[test]
    fn pii_types_flagged() {
        let o = schema_org();
        for l in ["name", "address", "person", "email", "birth date"] {
            assert!(o.lookup(l).unwrap().pii, "{l} should be PII");
        }
        // Non-PII types are not flagged.
        assert!(!o.lookup("price").unwrap().pii);
    }

    #[test]
    fn ontologies_are_complementary() {
        // Different expansion orders must produce different inventories.
        let s = schema_org();
        let d = dbpedia();
        let only_in_schema = s
            .types()
            .iter()
            .filter(|t| d.lookup(&t.label).is_none())
            .count();
        let only_in_dbpedia = d
            .types()
            .iter()
            .filter(|t| s.lookup(&t.label).is_none())
            .count();
        assert!(only_in_schema > 50, "schema-only: {only_in_schema}");
        assert!(only_in_dbpedia > 50, "dbpedia-only: {only_in_dbpedia}");
    }

    #[test]
    fn order_properties_present() {
        let o = schema_org();
        for l in [
            "order number",
            "order date",
            "total price",
            "tracking number",
        ] {
            assert!(o.lookup(l).is_some(), "missing {l}");
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(schema_org().types(), schema_org().types());
    }
}
