//! Near-duplicate table detection.
//!
//! The paper deduplicates columns before its learned experiments (§4.2, §5.1)
//! and excludes forks to limit table duplication (§3.2); this module provides
//! the corpus-level tool: content fingerprints that detect exact and
//! near-duplicate tables (same schema + highly overlapping cell content).

use std::collections::HashMap;

use crate::corpus::Corpus;

/// A group of mutually (near-)duplicate tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateGroup {
    /// Corpus indices of the duplicates, ascending; the first is the
    /// canonical representative.
    pub members: Vec<usize>,
}

/// 64-bit FNV-1a over a byte stream.
///
/// FNV-1a is byte-serial by definition, but the input is consumed in
/// word-sized chunks: each 8-byte word is loaded once and its lanes fed
/// through eight unrolled rounds, which removes per-byte bounds checks and
/// keeps the loop branch-predictable while producing the exact same digest
/// (store fingerprints persist across runs, so the function must stay
/// bit-compatible).
fn fnv(h: &mut u64, bytes: &[u8]) {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut acc = *h;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        acc = (acc ^ (w & 0xFF)).wrapping_mul(PRIME);
        acc = (acc ^ ((w >> 8) & 0xFF)).wrapping_mul(PRIME);
        acc = (acc ^ ((w >> 16) & 0xFF)).wrapping_mul(PRIME);
        acc = (acc ^ ((w >> 24) & 0xFF)).wrapping_mul(PRIME);
        acc = (acc ^ ((w >> 32) & 0xFF)).wrapping_mul(PRIME);
        acc = (acc ^ ((w >> 40) & 0xFF)).wrapping_mul(PRIME);
        acc = (acc ^ ((w >> 48) & 0xFF)).wrapping_mul(PRIME);
        acc = (acc ^ (w >> 56)).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        acc = (acc ^ u64::from(b)).wrapping_mul(PRIME);
    }
    *h = acc;
}

/// [`fnv`] over `bytes` followed by the one-byte terminator `sep` — one
/// call instead of two. Cells are tiny (store loads fingerprint millions
/// of them), so the per-call setup of a separate separator round shows
/// up; the digest byte sequence is unchanged.
fn fnv_terminated(h: &mut u64, bytes: &[u8], sep: u8) {
    const PRIME: u64 = 0x100_0000_01b3;
    fnv(h, bytes);
    *h = (*h ^ u64::from(sep)).wrapping_mul(PRIME);
}

/// Exact content fingerprint: schema + all cells.
///
/// Header names are read straight off the columns (the same strings
/// `Table::schema` would copy) — fingerprinting allocates nothing.
#[must_use]
pub fn table_fingerprint(table: &gittables_table::Table) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for col in table.columns() {
        fnv_terminated(&mut h, col.name().as_bytes(), 0x1f);
    }
    for col in table.columns() {
        let cells = col.cells();
        let blob = cells.blob().as_bytes();
        let mut start = 0usize;
        for &end in cells.ends() {
            let end = end as usize;
            fnv_terminated(&mut h, &blob[start..end], 0x1e);
            start = end;
        }
    }
    h
}

/// Folds a sequence of per-table fingerprints into one order-sensitive
/// digest: FNV-1a over the little-endian bytes of each fingerprint. Used by
/// the sharded store to fingerprint a whole shard — reordering, dropping, or
/// editing any member changes the digest.
#[must_use]
pub fn combine_fingerprints<I: IntoIterator<Item = u64>>(fingerprints: I) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for fp in fingerprints {
        fnv(&mut h, &fp.to_le_bytes());
    }
    h
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

    #[test]
    fn chunked_fnv_matches_byte_serial_reference() {
        // The word-at-a-time unrolling must be bit-compatible with the
        // original byte loop: fingerprints persist in store manifests.
        fn fnv_ref(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut a = 0xcbf2_9ce4_8422_2325u64;
            let mut b = a;
            fnv(&mut a, &bytes);
            fnv_ref(&mut b, &bytes);
            assert_eq!(a, b, "len {len}");
        }
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
