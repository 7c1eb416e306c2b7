//! Semantic-type ontologies for the GitTables reproduction.
//!
//! GitTables (§3.4) annotates columns with semantic types drawn from two
//! ontologies: **DBpedia** (2 831 properties) and **Schema.org** (2 637 types
//! and properties). Each semantic type carries the metadata the paper lists:
//!
//! 1. the semantic type label in English (e.g. `id`, `name`),
//! 2. the expected atomic type (e.g. `Number`, `Text`),
//! 3. the domain (e.g. `address` has domain `Person` / `Organization`),
//! 4. a superclass/superproperty (e.g. `product id` → `id`),
//! 5. a free-text description.
//!
//! Since the real ontology dumps are external resources, this crate builds
//! structurally equivalent in-memory ontologies from an embedded curated core
//! of real DBpedia/Schema.org property names, expanded combinatorially with
//! domain-prefix compounds (`product id`, `birth date`, …) whose superproperty
//! links point at the base property — exactly the hierarchy shape the paper's
//! evaluation metadata exploits.
//!
//! # Example
//!
//! ```
//! let dbp = gittables_ontology::dbpedia();
//! let t = dbp.lookup("birth date").expect("known type");
//! assert_eq!(t.superclass.as_deref(), Some("date"));
//! assert!(dbp.len() > 2500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod dbpedia;
pub mod normalize;
#[allow(clippy::module_inception)]
pub mod ontology;
pub mod schema_org;
pub mod types;

pub use dbpedia::dbpedia;
pub use normalize::{contains_digit, normalize_label};
pub use ontology::{Ontology, OntologyKind};
pub use schema_org::schema_org;
pub use types::{AtomicKind, SemanticType, TypeId};
