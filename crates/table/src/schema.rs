//! Table schemas (ordered attribute-name lists) and schema prefixes.
//!
//! Schemas are the unit of comparison for the schema-completion application
//! (paper §5.2, Algorithm 1): a *prefix* of length `N` is matched against the
//! prefixes of corpus schemas.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

/// An ordered list of attribute names.
///
/// Immutable and shared: the list lives behind one `Arc`, so a clone is
/// a reference count and every clone reads the same allocation (a search
/// hit and the index it came from, a shard-local index and the
/// snapshot's). Equality, hashing, `Debug` and the serialized form are
/// the attribute slice's, as they were when the list was a
/// `Vec<String>`.
///
/// **Rendered once.** The serialized body (`{"attributes":[...]}`) is
/// kept beside the list the first time a schema is written, and every
/// later write of it, or of any clone, appends those bytes instead of
/// escaping the names again. Nothing is rendered when a schema is built
/// or loaded, only when it is first served. So the body lives as long as
/// the shared list does (for an index's schemas, the life of the
/// snapshot that holds them), and the memory it takes is bounded by the
/// text of the schemas actually served.
#[derive(Clone, Default)]
pub struct Schema(Arc<Inner>);

#[derive(Default)]
struct Inner {
    attributes: Box<[String]>,
    /// The serialized body, filled on the first write.
    json: OnceLock<Box<str>>,
}

impl Schema {
    /// Creates a schema from attribute names.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(attrs: I) -> Self {
        Schema(Arc::new(Inner {
            attributes: attrs.into_iter().map(Into::into).collect(),
            json: OnceLock::new(),
        }))
    }

    /// The attribute names in order.
    #[must_use]
    pub fn attributes(&self) -> &[String] {
        &self.0.attributes
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.attributes().len()
    }

    /// Whether the schema has no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attributes().is_empty()
    }

    /// The first `n` attributes as a new schema (all of them if `n > len`).
    #[must_use]
    pub fn prefix(&self, n: usize) -> Schema {
        self.attributes().iter().take(n).cloned().collect()
    }

    /// The attributes after the first `n` (the "completion" of a prefix).
    #[must_use]
    pub fn suffix(&self, n: usize) -> &[String] {
        self.attributes().get(n..).unwrap_or_default()
    }

    /// Iterator over attribute names.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.attributes().iter().map(String::as_str)
    }
}

impl<S: Into<String>> FromIterator<S> for Schema {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        Schema::new(iter)
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}]", self.attributes().join(", "))
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.attributes() == other.attributes()
    }
}

impl Eq for Schema {}

impl std::hash::Hash for Schema {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.attributes().hash(state);
    }
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schema")
            .field("attributes", &self.attributes())
            .finish()
    }
}

impl Serialize for Schema {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0.json.get_or_init(|| {
            let mut body = String::from("{\"attributes\":");
            serde::write_seq(self.attributes(), &mut body);
            body.push('}');
            body.into_boxed_str()
        }));
    }
}

impl Deserialize for Schema {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "Schema"))?;
        let attributes: Vec<String> = serde::de_field(m, "attributes", "Schema")?;
        Ok(Schema::new(attributes))
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

    /// Schemas with every kind of escape, non-ASCII, an empty name and no
    /// names, with the bytes the derived printer wrote for them when the
    /// list was an `Arc<[String]>` field (captured at de51197).
    fn odd_schemas() -> [(Schema, &'static str); 3] {
        [
            (Schema::default(), r#"{"attributes":[]}"#),
            (Schema::new([""]), r#"{"attributes":[""]}"#),
            (
                Schema::new([
                    "say \"hi\"",
                    "C:\\dir\\",
                    "line\nbreak",
                    "\u{1}bell\u{1f}",
                    "größe 東京 🦀",
                    "",
                    "tab\there\r",
                ]),
                r#"{"attributes":["say \"hi\"","C:\\dir\\","line\nbreak","\u0001bell\u001f","größe 東京 🦀","","tab\there\r"]}"#,
            ),
        ]
    }

    #[test]
    fn the_rendered_body_is_the_bytes_the_derived_printer_wrote() {
        for (s, want) in odd_schemas() {
            assert!(s.0.json.get().is_none(), "rendered before it was served");
            assert_eq!(serde_json::to_string(&s).unwrap(), want);
            assert_eq!(s.0.json.get().map(AsRef::as_ref), Some(want));
            // The second write appends the kept body.
            assert_eq!(
                serde_json::to_string(&[&s, &s]).unwrap(),
                format!("[{want},{want}]")
            );
        }
    }

    #[test]
    fn clones_share_one_rendered_body() {
        let s = Schema::new(["id", "é\""]);
        let c = s.clone();
        serde_json::to_string(&c).unwrap();
        let (a, b) = (s.0.json.get().unwrap(), c.0.json.get().unwrap());
        assert_eq!(a.as_ptr(), b.as_ptr());
        // A rendered schema and an equal one not yet rendered still agree.
        assert_eq!(Schema::new(["id", "é\""]), s);
    }

    #[test]
    fn a_schema_round_trips_through_its_text() {
        for (s, _) in odd_schemas() {
            let text = serde_json::to_string(&s).unwrap();
            let back: Schema = serde_json::from_str(&text).unwrap();
            assert_eq!(back, s);
            assert_eq!(serde_json::to_string(&back).unwrap(), text);
        }
        let err = serde_json::from_str::<Schema>("[]").unwrap_err();
        assert!(err.to_string().contains("Schema"), "{err}");
    }
}
