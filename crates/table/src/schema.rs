//! Table schemas (ordered attribute-name lists) and schema prefixes.
//!
//! Schemas are the unit of comparison for the schema-completion application
//! (paper §5.2, Algorithm 1): a *prefix* of length `N` is matched against the
//! prefixes of corpus schemas.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// An ordered list of attribute names.
///
/// Immutable and shared: the list lives in one `Arc<[String]>`, so a
/// clone is a reference count and every clone reads the same allocation
/// (a search hit and the index it came from, a shard-local index and the
/// snapshot's). Built from names of known count (an array, a slice, a
/// table's columns), it allocates the list once, beside the strings; a
/// `Vec` handed to [`Schema::new`] is moved into a new list, one
/// allocation more than keeping the `Vec`. Equality, hashing, `Debug`
/// and the serialized form are the attribute slice's, as they were when
/// the list was a `Vec<String>`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schema {
    attributes: Arc<[String]>,
}

impl Schema {
    /// Creates a schema from attribute names.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(attrs: I) -> Self {
        Schema {
            attributes: attrs.into_iter().map(Into::into).collect(),
        }
    }

    /// The attribute names in order.
    #[must_use]
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The first `n` attributes as a new schema (all of them if `n > len`).
    #[must_use]
    pub fn prefix(&self, n: usize) -> Schema {
        self.attributes.iter().take(n).cloned().collect()
    }

    /// The attributes after the first `n` (the "completion" of a prefix).
    #[must_use]
    pub fn suffix(&self, n: usize) -> &[String] {
        &self.attributes[n.min(self.attributes.len())..]
    }

    /// Iterator over attribute names.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(String::as_str)
    }
}

impl<S: Into<String>> FromIterator<S> for Schema {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        Schema::new(iter)
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}]", self.attributes.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, RandomState};

    #[test]
    fn prefix_and_suffix() {
        let s = Schema::new(["a", "b", "c", "d"]);
        assert_eq!(
            s.prefix(2).attributes(),
            &["a".to_string(), "b".to_string()]
        );
        assert_eq!(s.suffix(2), &["c".to_string(), "d".to_string()]);
        assert_eq!(s.prefix(10).len(), 4);
        assert!(s.suffix(10).is_empty());
    }

    #[test]
    fn display() {
        let s = Schema::new(["id", "name"]);
        assert_eq!(s.to_string(), "[id, name]");
    }

    #[test]
    fn from_iterator() {
        let s: Schema = ["x", "y"].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn a_clone_shares_the_attribute_list() {
        let s = Schema::new(["id", "name"]);
        let c = s.clone();
        assert_eq!(c.attributes().as_ptr(), s.attributes().as_ptr());
        assert_eq!(c, s);
    }

    /// `Hash`, `Eq` and `Debug` are the `Vec<String>` field's, which were
    /// the slice's: a schema keyed into a map meets the same buckets.
    #[test]
    fn hashes_and_prints_as_the_vec_it_was() {
        for attrs in [vec![], vec!["id".to_string(), String::new(), "é\"".into()]] {
            let s = Schema::new(attrs.clone());
            let state = RandomState::new();
            assert_eq!(state.hash_one(&s), state.hash_one(&attrs));
            assert_eq!(
                format!("{s:?}"),
                format!("Schema {{ attributes: {attrs:?} }}")
            );
        }
    }
}
