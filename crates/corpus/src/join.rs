//! Joining tables on key columns (§4.1's "constructing larger tables through
//! unions and joins" — the join side).
//!
//! An equi-join on id-like columns: [`join_candidates`] proposes `(left,
//! right, key)` triples within one repository whose key columns share values,
//! and [`join_tables`] materializes the inner join.

use std::collections::HashMap;

use gittables_table::{Provenance, Table, TableError};
use serde::{Deserialize, Serialize};

use crate::corpus::Corpus;

/// A proposed join between two corpus tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinCandidate {
    /// Index of the left table in the corpus.
    pub left: usize,
    /// Index of the right table.
    pub right: usize,
    /// Key column index in the left table.
    pub left_key: usize,
    /// Key column index in the right table.
    pub right_key: usize,
    /// Fraction of left key values present in the right key (containment).
    pub containment: f64,
}

fn is_key_name(name: &str) -> bool {
    let n = gittables_ontology::normalize_label(name);
    n == "id" || n.ends_with(" id") || n == "key" || n.ends_with(" key") || n.ends_with(" no")
}

/// Proposes inner-join candidates within each repository: pairs of tables
/// where an id-like column of the left has ≥ `min_containment` of its values
/// present in an id-like column of the right.
#[must_use]
pub fn join_candidates(corpus: &Corpus, min_containment: f64) -> Vec<JoinCandidate> {
    // Group tables by repository.
    let mut by_repo: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, at) in corpus.tables.iter().enumerate() {
        let repo = at.table.provenance().repository.as_str();
        if !repo.is_empty() {
            by_repo.entry(repo).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    for indices in by_repo.values() {
        for (a, &li) in indices.iter().enumerate() {
            for &ri in &indices[a + 1..] {
                let left = &corpus.tables[li].table;
                let right = &corpus.tables[ri].table;
                for (lk, lc) in left.columns().iter().enumerate() {
                    if !is_key_name(lc.name()) {
                        continue;
                    }
                    for (rk, rc) in right.columns().iter().enumerate() {
                        if !is_key_name(rc.name()) {
                            continue;
                        }
                        let right_vals: std::collections::HashSet<&str> = rc.values().collect();
                        let total = lc.len();
                        if total == 0 {
                            continue;
                        }
                        let contained = lc.values().filter(|v| right_vals.contains(v)).count();
                        let containment = contained as f64 / total as f64;
                        if containment >= min_containment {
                            out.push(JoinCandidate {
                                left: li,
                                right: ri,
                                left_key: lk,
                                right_key: rk,
                                containment,
                            });
                        }
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.containment
            .partial_cmp(&a.containment)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.left.cmp(&b.left))
            .then(a.right.cmp(&b.right))
    });
    out
}

/// Materializes the inner join of a candidate: one output row per matching
/// `(left row, right row)` pair; right-side columns are prefixed with the
/// right table's name to avoid header collisions.
///
/// # Errors
/// Propagates [`TableError`] if the join produces no valid table.
pub fn join_tables(corpus: &Corpus, candidate: &JoinCandidate) -> Result<Table, TableError> {
    let left = &corpus.tables[candidate.left].table;
    let right = &corpus.tables[candidate.right].table;
    // Index right rows by key value (first occurrence wins, like a lookup
    // join against a key column).
    let right_key_col = right
        .column(candidate.right_key)
        .ok_or(TableError::NoColumns)?;
    let mut right_index: HashMap<&str, usize> = HashMap::new();
    for (r, v) in right_key_col.values().enumerate() {
        right_index.entry(v).or_insert(r);
    }
    let mut header: Vec<String> = left.columns().iter().map(|c| c.name().into()).collect();
    for (ci, c) in right.columns().iter().enumerate() {
        if ci == candidate.right_key {
            continue; // key appears once
        }
        header.push(format!("{}.{}", right.name(), c.name()));
    }
    let left_key_col = left
        .column(candidate.left_key)
        .ok_or(TableError::NoColumns)?;
    let mut rows = Vec::new();
    for (lr, key) in left_key_col.values().enumerate() {
        let Some(&rr) = right_index.get(key) else {
            continue;
        };
        let mut row: Vec<String> = left
            .row(lr)
            .expect("left row in range")
            .into_iter()
            .map(str::to_string)
            .collect();
        for (ci, c) in right.columns().iter().enumerate() {
            if ci == candidate.right_key {
                continue;
            }
            row.push(c.cells()[rr].to_string());
        }
        rows.push(row);
    }
    let name = format!("{}-join-{}", left.name(), right.name());
    let table = Table::from_string_rows(&name, &header, rows)?;
    Ok(table.with_provenance(Provenance::new(
        left.provenance().repository.clone(),
        format!("{name}.csv"),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;

    fn corpus() -> Corpus {
        let orders = Table::from_rows(
            "orders",
            &["order_id", "product_id", "qty"],
            &[&["1", "p1", "3"], &["2", "p2", "1"], &["3", "p9", "7"]],
        )
        .unwrap()
        .with_provenance(Provenance::new("a/shop", "orders.csv"));
        let products = Table::from_rows(
            "products",
            &["product_id", "name", "price"],
            &[&["p1", "widget", "9.5"], &["p2", "gadget", "3.0"]],
        )
        .unwrap()
        .with_provenance(Provenance::new("a/shop", "products.csv"));
        let unrelated = Table::from_rows(
            "species",
            &["species", "habitat"],
            &[&["x", "y"], &["z", "w"]],
        )
        .unwrap()
        .with_provenance(Provenance::new("b/bio", "species.csv"));
        let mut c = Corpus::new("t");
        c.push(AnnotatedTable::new(orders));
        c.push(AnnotatedTable::new(products));
        c.push(AnnotatedTable::new(unrelated));
        c
    }

    #[test]
    fn candidates_found_on_shared_keys() {
        let c = corpus();
        let cands = join_candidates(&c, 0.5);
        assert!(!cands.is_empty());
        let best = &cands[0];
        // orders.product_id ⊆ products.product_id at 2/3 containment.
        assert!((best.containment - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_candidates_across_repositories() {
        let c = corpus();
        let cands = join_candidates(&c, 0.01);
        for cand in &cands {
            let lr = &c.tables[cand.left].table.provenance().repository;
            let rr = &c.tables[cand.right].table.provenance().repository;
            assert_eq!(lr, rr);
        }
    }

    #[test]
    fn inner_join_materializes() {
        let c = corpus();
        let cands = join_candidates(&c, 0.5);
        let cand = cands
            .iter()
            .find(|x| c.tables[x.left].table.name() == "orders")
            .expect("orders->products candidate");
        let joined = join_tables(&c, cand).unwrap();
        // Rows 1 and 2 match; row 3 (p9) does not.
        assert_eq!(joined.num_rows(), 2);
        // 3 left columns + 2 non-key right columns.
        assert_eq!(joined.num_columns(), 5);
        assert!(joined
            .schema()
            .attributes()
            .iter()
            .any(|a| a.contains("price")));
        let price_col = joined
            .columns()
            .iter()
            .find(|col| col.name().ends_with("price"))
            .unwrap();
        assert_eq!(price_col.values().collect::<Vec<_>>(), ["9.5", "3.0"]);
    }

    #[test]
    fn high_threshold_filters() {
        let c = corpus();
        let cands = join_candidates(&c, 0.99);
        // 2/3 containment no longer qualifies (reverse direction 2/2 does).
        for cand in &cands {
            assert!(cand.containment >= 0.99);
        }
    }
}
