//! The cell arena: every cell of one column in a single buffer.
//!
//! A [`CellArena`] stores its cells as one contiguous UTF-8 `blob` plus one
//! cumulative end offset per cell — the layout the `colv1` store format
//! writes to disk — so a column costs two heap allocations however many
//! cells it has, and reading cell `i` is two offset loads and one slice.
//!
//! # Invariant
//!
//! For an arena of `n` cells:
//!
//! * `ends.len() == n`,
//! * `ends` is non-decreasing,
//! * every end offset lies on a `char` boundary of `blob`,
//! * the last end offset equals `blob.len()` (`blob` is empty when `n == 0`).
//!
//! Cell `i` is `blob[ends[i - 1]..ends[i]]` (from `0` for the first cell).
//! The fields are private and every constructor upholds the invariant:
//! [`CellArena::push`] extends both sides together and
//! [`CellArena::from_raw_parts`] checks a foreign `(blob, ends)` pair before
//! accepting it, so slicing never panics afterwards.
//!
//! # Equality
//!
//! A sequence of cells has exactly one representation — the blob is their
//! concatenation and the offsets are the running lengths, with no slack
//! bytes after the last offset — so the derived `==` on `(blob, ends)` is
//! cell-by-cell equality, and two arenas built by different routes (pushed
//! by a reader, copied from a `Vec`, decoded from a segment) compare equal
//! exactly when their cells do.

use serde::{Deserialize, Serialize, Value};

use crate::TableError;

/// The cells of one column: a shared text blob plus cumulative end offsets.
/// See the `arena` module docs for the invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellArena {
    blob: String,
    ends: Vec<u32>,
}

/// The end offset after appending `add` bytes to a blob of `len` bytes.
fn checked_end(len: usize, add: usize) -> Result<u32, TableError> {
    len.checked_add(add)
        .and_then(|end| u32::try_from(end).ok())
        .ok_or(TableError::ColumnTooLarge {
            bytes: len.saturating_add(add),
        })
}

impl CellArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        CellArena::default()
    }

    /// An empty arena with room for `cells` cells totalling `bytes` bytes.
    #[must_use]
    pub fn with_capacity(cells: usize, bytes: usize) -> Self {
        CellArena {
            blob: String::with_capacity(bytes),
            ends: Vec::with_capacity(cells),
        }
    }

    /// Adopts a `(blob, ends)` pair produced elsewhere (a binary decoder)
    /// after checking the arena invariant.
    ///
    /// # Errors
    /// [`TableError::InvalidArena`] naming the first offending offset when
    /// an offset decreases, splits a multi-byte character or runs past the
    /// blob, or when the last offset is not the blob length.
    pub fn from_raw_parts(blob: String, ends: Vec<u32>) -> Result<Self, TableError> {
        let mut prev = 0usize;
        for (index, &end) in ends.iter().enumerate() {
            let end = end as usize;
            // `is_char_boundary` is false past the end of the blob.
            if end < prev || !blob.is_char_boundary(end) {
                return Err(TableError::InvalidArena { index });
            }
            prev = end;
        }
        if prev != blob.len() {
            return Err(TableError::InvalidArena { index: ends.len() });
        }
        Ok(CellArena { blob, ends })
    }

    /// Copies `values` into a fresh arena.
    ///
    /// # Errors
    /// [`TableError::ColumnTooLarge`] as for [`Self::push`].
    pub fn from_values<S: AsRef<str>>(values: &[S]) -> Result<Self, TableError> {
        let bytes = values.iter().map(|v| v.as_ref().len()).sum();
        let mut arena = CellArena::with_capacity(values.len(), bytes);
        for v in values {
            arena.push(v.as_ref())?;
        }
        Ok(arena)
    }

    /// Appends one cell.
    ///
    /// # Errors
    /// [`TableError::ColumnTooLarge`] when the blob would grow past
    /// `u32::MAX` bytes; the arena is left unchanged.
    #[inline]
    pub fn push(&mut self, cell: &str) -> Result<(), TableError> {
        let end = checked_end(self.blob.len(), cell.len())?;
        self.blob.push_str(cell);
        self.ends.push(end);
        Ok(())
    }

    /// Removes every cell, keeping the allocations.
    pub fn clear(&mut self) {
        self.blob.clear();
        self.ends.clear();
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the arena has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Cell `i`, or `None` past the end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)? as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        Some(&self.blob[start..end])
    }

    /// The cells in order.
    #[must_use]
    pub fn iter(&self) -> Cells<'_> {
        Cells {
            blob: &self.blob,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Binary-searches an arena whose cells are sorted for `cell`, with
    /// the contract of [`slice::binary_search`]: `Ok` of a matching
    /// index, or `Err` of where `cell` would be inserted.
    pub fn binary_search(&self, cell: &str) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self[mid].cmp(cell) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// All cell bytes, concatenated.
    #[must_use]
    pub fn blob(&self) -> &str {
        &self.blob
    }

    /// The cumulative end offset of every cell within [`Self::blob`].
    #[must_use]
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }
}

impl std::ops::Index<usize> for CellArena {
    type Output = str;

    /// Cell `i`.
    ///
    /// # Panics
    /// When `i` is out of bounds, like slice indexing.
    fn index(&self, i: usize) -> &str {
        self.get(i).unwrap_or_else(|| {
            panic!(
                "cell index {i} out of bounds for an arena of {} cells",
                self.len()
            )
        })
    }
}

impl<'a> IntoIterator for &'a CellArena {
    type Item = &'a str;
    type IntoIter = Cells<'a>;

    fn into_iter(self) -> Cells<'a> {
        self.iter()
    }
}

/// Borrowing iterator over the cells of a [`CellArena`].
#[derive(Debug, Clone)]
pub struct Cells<'a> {
    blob: &'a str,
    ends: std::slice::Iter<'a, u32>,
    /// Start of the next cell: the end of the one before it.
    start: usize,
}

impl<'a> Iterator for Cells<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let end = *self.ends.next()? as usize;
        let cell = &self.blob[self.start..end];
        self.start = end;
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Cells<'_> {}

/// Serializes as the JSON array of cell strings a `Vec<String>` would — the
/// persisted shape of a column's `values` in `corpus.json`.
impl Serialize for CellArena {
    fn write_json(&self, out: &mut String) {
        serde::write_seq(self, out);
    }
}

impl Deserialize for CellArena {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let Value::Seq(items) = v else {
            return Err(serde::Error::expected("sequence", "CellArena"));
        };
        let mut arena = CellArena::with_capacity(items.len(), 0);
        for item in items {
            let cell = item
                .as_str()
                .ok_or_else(|| serde::Error::expected("string", "CellArena"))?;
            arena
                .push(cell)
                .map_err(|e| serde::Error::custom(e.to_string()))?;
        }
        Ok(arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(cells: &[&str]) -> CellArena {
        CellArena::from_values(cells).unwrap()
    }

    #[test]
    fn push_get_iter_agree() {
        let cells = ["a", "", "héllo", "東京", ""];
        let a = arena(&cells);
        assert_eq!(a.len(), 5);
        assert_eq!(a.iter().len(), 5);
        assert_eq!(a.iter().collect::<Vec<_>>(), cells);
        for (i, want) in cells.iter().enumerate() {
            assert_eq!(a.get(i), Some(*want));
            assert_eq!(&a[i], *want);
        }
        assert_eq!(a.get(5), None);
        assert_eq!(a.blob(), "ahéllo東京");
        assert_eq!(a.ends(), &[1, 1, 7, 13, 13]);
    }

    #[test]
    fn binary_search_is_the_slice_search() {
        let cells = ["", "a", "ab", "b", "é", "東京"];
        let a = arena(&cells);
        for probe in ["", "a", "aa", "ab", "b", "c", "é", "ê", "東京", "東"] {
            assert_eq!(
                a.binary_search(probe),
                cells.binary_search(&probe),
                "{probe:?}"
            );
        }
        assert_eq!(CellArena::new().binary_search("x"), Err(0));
    }

    #[test]
    fn empty_arena() {
        let a = CellArena::new();
        assert!(a.is_empty());
        assert_eq!(a.iter().next(), None);
        assert_eq!(a, CellArena::from_raw_parts(String::new(), vec![]).unwrap());
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut a = arena(&["x", "yz"]);
        a.clear();
        assert_eq!(a, CellArena::new());
        a.push("w").unwrap();
        assert_eq!(a.iter().collect::<Vec<_>>(), ["w"]);
    }

    #[test]
    fn equality_is_cellwise_whatever_the_route() {
        let pushed = arena(&["ab", "", "c"]);
        let raw = CellArena::from_raw_parts("abc".into(), vec![2, 2, 3]).unwrap();
        assert_eq!(pushed, raw);
        // Same bytes, different cell boundaries.
        assert_ne!(pushed, arena(&["a", "b", "c"]));
        assert_ne!(pushed, arena(&["ab", "c", ""]));
    }

    #[test]
    fn overflow_is_typed_not_wrapped() {
        let max = u32::MAX as usize;
        assert_eq!(checked_end(max - 1, 1), Ok(u32::MAX));
        assert_eq!(
            checked_end(max, 1),
            Err(TableError::ColumnTooLarge { bytes: max + 1 })
        );
        assert!(checked_end(usize::MAX, 2).is_err());
    }

    #[test]
    fn raw_parts_are_validated() {
        let bad = |blob: &str, ends: Vec<u32>, index: usize| {
            assert_eq!(
                CellArena::from_raw_parts(blob.to_string(), ends),
                Err(TableError::InvalidArena { index })
            );
        };
        bad("abc", vec![2, 1, 3], 1); // decreasing
        bad("é", vec![1, 2], 0); // inside a multi-byte character
        bad("abc", vec![1, 2], 2); // last offset short of the blob
        bad("abc", vec![1, 4], 1); // past the blob
        bad("abc", vec![], 0); // bytes but no cells
    }

    #[test]
    fn serde_shape_is_a_string_array() {
        let a = arena(&["1", "", "é"]);
        let mut json = String::new();
        a.write_json(&mut json);
        assert_eq!(json, r#"["1","","é"]"#);
        let v = Value::Seq(a.iter().map(|c| Value::Str(c.to_string())).collect());
        assert_eq!(CellArena::deserialize(&v).unwrap(), a);
        assert!(CellArena::deserialize(&Value::Seq(vec![Value::UInt(1)])).is_err());
        assert!(CellArena::deserialize(&Value::Null).is_err());
    }
}
