//! Near-duplicate table detection.
//!
//! The paper deduplicates columns before its learned experiments (§4.2, §5.1)
//! and excludes forks to limit table duplication (§3.2); this module provides
//! the corpus-level tool: content fingerprints that detect exact and
//! near-duplicate tables (same schema + highly overlapping cell content).
//!
//! The fingerprint is content identity: it covers the column names and
//! every cell with its cell and column boundaries, and nothing else — not
//! the table name, provenance, atomic types or annotations — so it is
//! what build-time dedup needs ([`dedup_indices`], [`exact_duplicates`],
//! `gittables dedup`). It is *not* how a `colv1` store checks what it
//! reads: there a block's seal, which covers every byte of the block, is
//! the table's check value, and a load or a lazy get never re-hashes a
//! decoded table ([`crate::store`]). Only the `jsonl` codec, which has
//! no seal, uses this fingerprint as its check value. It is hashed with
//! the lane checksum of [`crate::checksum`] over each column's name, cell
//! blob and cell end offsets, so it costs about 0.2 ns a byte instead of
//! byte-serial FNV-1a's 1.5; see [`table_fingerprint`].
//!
//! [`combine_fingerprints`] is the store's per-shard fold of check values
//! of either kind.

use std::collections::HashMap;

use crate::checksum::{checksum, checksum_u32s, step, BASIS};
use crate::corpus::Corpus;

/// A group of mutually (near-)duplicate tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateGroup {
    /// Corpus indices of the duplicates, ascending; the first is the
    /// canonical representative.
    pub members: Vec<usize>,
}

/// Exact content fingerprint: the column names and every cell, with
/// every cell and column boundary, in column order. The table name,
/// provenance, atomic types and annotations are not covered, so two
/// tables holding the same data under different names are duplicates.
///
/// Each column contributes three lane checksums (`checksum.rs`) —
/// of its name, of its contiguous cell blob and of its cell end offsets
/// (their little-endian bytes, as `colv1` stores them) — folded in that
/// order by the same lane step, and the column count is folded last.
/// The ends fix every cell boundary inside a column, the per-column
/// words and the count fix the column boundaries, so no byte is hashed
/// more than once and no separator byte is needed. A change of any one
/// byte of a name, a blob or an end offset changes its checksum, and
/// each fold is a bijection, so it always changes the fingerprint.
///
/// Fingerprinting reads the columns' arenas in place and allocates
/// nothing.
#[must_use]
pub fn table_fingerprint(table: &gittables_table::Table) -> u64 {
    let mut h = BASIS;
    for col in table.columns() {
        let cells = col.cells();
        h = step(h, checksum(col.name().as_bytes()));
        h = step(h, checksum(cells.blob().as_bytes()));
        h = step(h, checksum_u32s(cells.ends()));
    }
    step(h, table.num_columns() as u64)
}

/// Folds a sequence of per-table fingerprints or check values into one
/// order-sensitive digest with the lane step, then folds in their count.
/// Used by the sharded store to bind a whole shard (a manifest entry's
/// `fingerprint`) and by the sidecar to bind a whole store — reordering,
/// dropping, or editing any member changes the digest.
#[must_use]
pub fn combine_fingerprints<I: IntoIterator<Item = u64>>(fingerprints: I) -> u64 {
    let (h, n) = fingerprints
        .into_iter()
        .fold((BASIS, 0u64), |(h, n), fp| (step(h, fp), n + 1));
    step(h, n)
}

/// Fingerprints every table of `corpus` in one shared (parallel)
/// pass: `result[i] == table_fingerprint(&corpus.tables[i].table)`.
///
/// Hashing every cell dominates the cost of corpus-level dedup, so callers
/// that run [`exact_duplicates`] *and* [`dedup_indices`] should compute this
/// once and hand it to the `_with` variants instead of letting each call
/// re-hash the whole corpus.
#[must_use]
pub fn table_fingerprints(corpus: &Corpus) -> Vec<u64> {
    crate::par::par_map(&corpus.tables, |at| table_fingerprint(&at.table))
}

/// Finds groups of exactly identical tables (same schema and content).
#[must_use]
pub fn exact_duplicates(corpus: &Corpus) -> Vec<DuplicateGroup> {
    exact_duplicates_with(&table_fingerprints(corpus))
}

/// [`exact_duplicates`] over precomputed per-table fingerprints (see
/// [`table_fingerprints`]).
#[must_use]
pub fn exact_duplicates_with(fingerprints: &[u64]) -> Vec<DuplicateGroup> {
    let mut by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, &fp) in fingerprints.iter().enumerate() {
        by_fp.entry(fp).or_default().push(i);
    }
    let mut out: Vec<DuplicateGroup> = by_fp
        .into_values()
        .filter(|v| v.len() > 1)
        .map(|members| DuplicateGroup { members })
        .collect();
    out.sort_by_key(|g| g.members[0]);
    out
}

/// Returns the corpus indices that survive deduplication (first occurrence
/// of each fingerprint, in corpus order).
#[must_use]
pub fn dedup_indices(corpus: &Corpus) -> Vec<usize> {
    dedup_indices_with(&table_fingerprints(corpus))
}

/// [`dedup_indices`] over precomputed per-table fingerprints (see
/// [`table_fingerprints`]).
#[must_use]
pub fn dedup_indices_with(fingerprints: &[u64]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (i, &fp) in fingerprints.iter().enumerate() {
        if seen.insert(fp) {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;
    use gittables_table::Table;

    fn t(name: &str, rows: &[[&'static str; 2]]) -> AnnotatedTable {
        let rows: Vec<&[&str]> = rows.iter().map(|r| r.as_slice()).collect();
        AnnotatedTable::new(Table::from_rows(name, &["id", "v"], &rows).unwrap())
    }

    fn corpus() -> Corpus {
        let mut c = Corpus::new("d");
        c.push(t("a", &[["1", "x"], ["2", "y"]]));
        c.push(t("b", &[["1", "x"], ["2", "y"]])); // duplicate of a (names differ)
        c.push(t("c", &[["9", "z"]]));
        c
    }

    #[test]
    fn exact_duplicates_found() {
        let groups = exact_duplicates(&corpus());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![0, 1]);
    }

    #[test]
    fn fingerprint_ignores_table_name_but_not_content() {
        let a = t("a", &[["1", "x"]]);
        let b = t("renamed", &[["1", "x"]]);
        let c = t("a", &[["1", "DIFFERENT"]]);
        assert_eq!(table_fingerprint(&a.table), table_fingerprint(&b.table));
        assert_ne!(table_fingerprint(&a.table), table_fingerprint(&c.table));
    }

    #[test]
    fn dedup_keeps_first() {
        let idx = dedup_indices(&corpus());
        assert_eq!(idx, vec![0, 2]);
    }

    fn table(names: &[&str], rows: &[&[&str]]) -> Table {
        let rows = rows
            .iter()
            .map(|r| r.iter().map(|c| (*c).to_string()).collect())
            .collect();
        Table::from_string_rows("t", names, rows).unwrap()
    }

    #[test]
    fn fingerprint_changes_at_every_bit_of_every_name_and_cell() {
        let names = ["id", "città"];
        let rows: [&[&str]; 3] = [&["1", "Zürich"], &["22", ""], &["333", "東京 x"]];
        let base = table_fingerprint(&table(&names, &rows));
        let mut tried = 0;
        // Flip every bit of every byte of the column-major field list
        // (names first); a flip that leaves invalid UTF-8 is no table.
        let fields: Vec<(usize, usize)> = (0..names.len())
            .map(|c| (c, usize::MAX))
            .chain((0..names.len()).flat_map(|c| (0..rows.len()).map(move |r| (c, r))))
            .collect();
        for (c, r) in fields {
            let field = if r == usize::MAX {
                names[c]
            } else {
                rows[r][c]
            };
            for bit in 0..field.len() * 8 {
                let mut bytes = field.as_bytes().to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                let Ok(flipped) = String::from_utf8(bytes) else {
                    continue;
                };
                let mut names = names;
                let mut rows: Vec<Vec<&str>> = rows.iter().map(|r| r.to_vec()).collect();
                if r == usize::MAX {
                    names[c] = &flipped;
                } else {
                    rows[r][c] = &flipped;
                }
                let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
                let fp = table_fingerprint(&table(&names, &rows));
                assert_ne!(fp, base, "column {c} field {r} bit {bit}");
                tried += 1;
            }
        }
        assert!(tried > 150, "only {tried} flips were valid text");
    }

    #[test]
    fn fingerprint_sees_a_cell_boundary_move_inside_a_column() {
        let a = table(&["v"], &[&["ab"], &["c"]]);
        let b = table(&["v"], &[&["a"], &["bc"]]);
        assert_ne!(table_fingerprint(&a), table_fingerprint(&b));
    }

    #[test]
    fn fingerprint_sees_cells_move_across_a_column_boundary() {
        // Bytes of a row moving from one column to the next.
        let a = table(&["k", "v"], &[&["ab", "c"]]);
        let b = table(&["k", "v"], &[&["a", "bc"]]);
        assert_ne!(table_fingerprint(&a), table_fingerprint(&b));
        // Whole cells trading columns: the same cells, row-major in one
        // table and column-major in the other.
        let a = table(&["k", "v"], &[&["x", "y"], &["z", "w"]]);
        let b = table(&["k", "v"], &[&["x", "z"], &["y", "w"]]);
        assert_ne!(table_fingerprint(&a), table_fingerprint(&b));
    }

    #[test]
    fn fingerprint_sees_a_name_and_a_cell_swap() {
        let a = table(&["id"], &[&["x"]]);
        let b = table(&["x"], &[&["id"]]);
        assert_ne!(table_fingerprint(&a), table_fingerprint(&b));
        // Of one length, so the end offsets agree too: only the order in
        // which name and cells are folded tells the two apart.
        let a = table(&["ab"], &[&["cd"]]);
        let b = table(&["cd"], &[&["ab"]]);
        assert_ne!(table_fingerprint(&a), table_fingerprint(&b));
    }

    #[test]
    fn shared_fingerprint_pass_matches_per_call() {
        let c = corpus();
        let fps = table_fingerprints(&c);
        assert_eq!(
            fps,
            c.tables
                .iter()
                .map(|at| table_fingerprint(&at.table))
                .collect::<Vec<_>>()
        );
        assert_eq!(exact_duplicates_with(&fps), exact_duplicates(&c));
        assert_eq!(dedup_indices_with(&fps), dedup_indices(&c));
    }

    #[test]
    fn combined_fingerprint_is_order_sensitive() {
        let a = table_fingerprint(&t("a", &[["1", "x"]]).table);
        let b = table_fingerprint(&t("b", &[["2", "y"]]).table);
        assert_ne!(combine_fingerprints([a, b]), combine_fingerprints([b, a]));
        assert_ne!(combine_fingerprints([a, b]), combine_fingerprints([a]));
        assert_eq!(combine_fingerprints([a, b]), combine_fingerprints([a, b]));
    }
}
