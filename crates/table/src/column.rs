//! A named column of string-typed cells with a lazily inferred atomic type.

use serde::{Deserialize, Serialize};

use crate::arena::{CellArena, Cells};
use crate::atomic::{infer_column_type, AtomicType};

/// A single table column: a name plus cell values (all represented as text,
/// as parsed from CSV), held in one [`CellArena`].
///
/// The `values` field serializes as the JSON array of cell strings, so a
/// persisted column reads `{"name", "values": [...], "atomic"}` whatever the
/// in-memory layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    name: String,
    values: CellArena,
    /// Cached column type; recomputed on mutation.
    atomic: AtomicType,
}

impl Column {
    /// Creates a column from a name and values, copying them into the
    /// column's arena and inferring its atomic type.
    ///
    /// # Panics
    /// When the values total more than `u32::MAX` bytes; readers that can
    /// meet such input push into a [`CellArena`] (a typed error) and use
    /// [`Self::from_cells`].
    #[must_use]
    pub fn new(name: impl Into<String>, values: Vec<String>) -> Self {
        Column::from_slice(name, &values)
    }

    /// Creates a column from a name and an already built arena, inferring
    /// its atomic type.
    #[must_use]
    pub fn from_cells(name: impl Into<String>, values: CellArena) -> Self {
        let atomic = infer_column_type(&values);
        Column {
            name: name.into(),
            values,
            atomic,
        }
    }

    /// Reassembles a column from parts persisted by a binary decoder,
    /// trusting `atomic` instead of re-inferring it. `atomic` should be
    /// the value [`infer_column_type`] would produce for `values` (every
    /// encoder persists the inferred type verbatim, so decoding restores
    /// exactly what was saved); a different value produces a column whose
    /// cached type lies until the next [`Self::replace_values`] — the
    /// same trust serde deserialization of the `atomic` field already
    /// extends, so decoders stay panic-free on untrusted bytes.
    #[must_use]
    pub fn from_raw_parts(name: String, values: CellArena, atomic: AtomicType) -> Self {
        Column {
            name,
            values,
            atomic,
        }
    }

    /// Creates a column from string slices.
    ///
    /// # Panics
    /// As [`Self::new`].
    #[must_use]
    pub fn from_slice<S: AsRef<str>>(name: impl Into<String>, values: &[S]) -> Self {
        let cells = CellArena::from_values(values).expect("column cells fit u32 offsets");
        Column::from_cells(name, cells)
    }

    /// The column (header) name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The inferred atomic type of the column.
    #[must_use]
    pub fn atomic_type(&self) -> AtomicType {
        self.atomic
    }

    /// The cell values, in row order.
    #[must_use]
    pub fn values(&self) -> Cells<'_> {
        self.values.iter()
    }

    /// Cell `i`, or `None` past the end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&str> {
        self.values.get(i)
    }

    /// The arena holding the cells.
    #[must_use]
    pub fn cells(&self) -> &CellArena {
        &self.values
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of distinct values (exact, by sorting borrowed cells; intended
    /// for statistics over modest columns, not hot paths).
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        let mut sorted: Vec<&str> = self.values().collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    /// Replaces all values (copied into a fresh arena), re-inferring the
    /// atomic type. Used by the anonymization pass.
    ///
    /// # Panics
    /// As [`Self::new`].
    pub fn replace_values(&mut self, values: Vec<String>) {
        self.values = CellArena::from_values(&values).expect("column cells fit u32 offsets");
        self.atomic = infer_column_type(&self.values);
    }

    /// Renames the column.
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Whether the header name is unspecified (empty or a Pandas-style
    /// `Unnamed: N` placeholder), per the curation rules of §3.3.
    #[must_use]
    pub fn is_unnamed(&self) -> bool {
        let n = self.name.trim();
        n.is_empty() || n.to_ascii_lowercase().starts_with("unnamed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infers_type_on_construction() {
        let c = Column::from_slice("price", &["1.5", "2.0", "3.25"]);
        assert_eq!(c.atomic_type(), AtomicType::Float);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn distinct_count() {
        let c = Column::from_slice("g", &["a", "b", "a", "c", "b"]);
        assert_eq!(c.distinct_count(), 3);
    }

    #[test]
    fn replace_values_reinfers() {
        let mut c = Column::from_slice("v", &["1", "2"]);
        assert_eq!(c.atomic_type(), AtomicType::Integer);
        c.replace_values(vec!["x".into(), "y".into()]);
        assert_eq!(c.atomic_type(), AtomicType::String);
    }

    #[test]
    fn values_borrow_from_the_arena() {
        let c = Column::from_slice("v", &["a", "", "é"]);
        assert_eq!(c.values().len(), 3);
        assert_eq!(c.values().collect::<Vec<_>>(), ["a", "", "é"]);
        assert_eq!(c.get(2), Some("é"));
        assert_eq!(c.get(3), None);
        assert_eq!(c.cells().blob(), "aé");
    }

    #[test]
    fn every_construction_route_is_equal() {
        let mut pushed = CellArena::new();
        for v in ["1", "", "x"] {
            pushed.push(v).unwrap();
        }
        let built = Column::from_cells("c", pushed.clone());
        assert_eq!(built, Column::from_slice("c", &["1", "", "x"]));
        assert_eq!(
            built,
            Column::new("c", vec!["1".into(), String::new(), "x".into()])
        );
        assert_eq!(
            built,
            Column::from_raw_parts("c".into(), pushed, built.atomic_type())
        );
    }

    #[test]
    fn unnamed_detection() {
        assert!(Column::from_slice("", &["1"]).is_unnamed());
        assert!(Column::from_slice("Unnamed: 3", &["1"]).is_unnamed());
        assert!(!Column::from_slice("id", &["1"]).is_unnamed());
    }
}
