//! Construction of the DBpedia-like ontology.

use crate::data::{COMPOUND_SUFFIXES, DBPEDIA_CORE, DOMAIN_PREFIXES};
use crate::ontology::{Ontology, OntologyBuilder, OntologyKind};

/// Number of semantic types in the paper's DBpedia extraction (§3.4).
pub const DBPEDIA_TYPE_COUNT: usize = 2831;

/// Builds the DBpedia-like ontology with exactly `DBPEDIA_TYPE_COUNT` (2 831) types:
/// the curated core plus deterministically generated domain-prefix compounds
/// (`product id` → superproperty `id`, …).
#[must_use]
pub fn dbpedia() -> Ontology {
    let mut b = OntologyBuilder::new(OntologyKind::DBpedia);
    for ty in DBPEDIA_CORE {
        b.add(
            ty.label,
            ty.atomic,
            ty.domains,
            ty.superclass,
            ty.description,
            ty.pii,
        );
    }
    // Ensure every compound suffix base exists so superproperty links resolve.
    for (suffix, atomic) in COMPOUND_SUFFIXES {
        b.add(suffix, *atomic, &["Thing"], None, "", false);
    }
    // Prefix-major expansion: `product id`, `product name`, `product code`, …
    'outer: for (prefix, domain) in DOMAIN_PREFIXES {
        for (suffix, atomic) in COMPOUND_SUFFIXES {
            if b.len() >= DBPEDIA_TYPE_COUNT {
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
    debug_assert_eq!(b.len(), DBPEDIA_TYPE_COUNT);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_paper_type_count() {
        assert_eq!(dbpedia().len(), DBPEDIA_TYPE_COUNT);
    }

    #[test]
    fn core_types_present() {
        let o = dbpedia();
        for l in ["id", "name", "species", "latin name", "birth date", "dam"] {
            assert!(o.lookup(l).is_some(), "missing {l}");
        }
    }

    #[test]
    fn compound_hierarchy_resolves() {
        let o = dbpedia();
        let c = o.lookup("product id").expect("compound generated");
        assert_eq!(c.superclass.as_deref(), Some("id"));
        let anc = o.ancestors(c.id);
        assert_eq!(anc[0].label, "id");
    }

    #[test]
    fn deterministic() {
        let a = dbpedia();
        let b = dbpedia();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.types().iter().zip(b.types()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn domains_cluster_person_place() {
        // §3.4: "Most semantic types from DBpedia relate to domains like
        // Person, Place or PopulatedPlace".
        let o = dbpedia();
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for d in o.types().iter().flat_map(|t| &t.domains) {
            *counts.entry(d.as_str()).or_default() += 1;
        }
        let mut dist: Vec<(&str, usize)> = counts.into_iter().collect();
        dist.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let top: Vec<&str> = dist.iter().take(6).map(|&(d, _)| d).collect();
        assert!(
            top.contains(&"Person") || top.contains(&"Place"),
            "top domains: {top:?}"
        );
    }
}
