//! Column-annotation pipelines (paper §3.4) and table-to-KG matching
//! baselines (§5.3).
//!
//! Two annotation methods, as in the paper:
//!
//! * [`SyntacticAnnotator`] — preprocesses column names (underscore/hyphen
//!   replacement, camelCase splitting, lowercasing; names containing digits
//!   are skipped) and matches them *exactly* against ontology type labels.
//!   Strict, high precision, annotates ≈26 % of columns.
//! * [`SemanticAnnotator`] — embeds column names and type labels with the
//!   FastText-style embedder and takes the highest-cosine type above a
//!   threshold. Annotates ≈71 % of columns; similarity scores are attached
//!   as confidence (Fig. 2, Fig. 4c).
//!
//! [`CellValueMatcher`], [`PatternMatcher`] and [`HeaderMatcher`] are the
//! cell-value-linking / pattern / header [`KgMatcher`]s whose behaviour on
//! database-like tables reproduces the low SemTab scores of Fig. 6a.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotation;
mod cache;
mod contextual;
mod hierarchy;
mod kgmatch;
mod semantic;
mod syntactic;

pub use annotation::{Annotation, Method, TableAnnotations};
pub use cache::{AnnotationCache, NameAnnotations};
pub use contextual::ContextualAnnotator;
pub use hierarchy::HierarchyScorer;
pub use kgmatch::{
    score_predictions, CellValueMatcher, HeaderMatcher, KgMatcher, KgPrediction, PatternMatcher,
};
pub use semantic::{SemanticAnnotator, DEFAULT_THRESHOLD};
pub use syntactic::SyntacticAnnotator;
