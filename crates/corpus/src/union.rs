//! Unioning tables split across files (§4.1).
//!
//! "Manual inspection revealed that such repositories contain snapshots of
//! the same or similar databases. These tables, and the corresponding source
//! URL, can be used for constructing larger tables through unions and
//! joins." This module implements the union side: group a corpus's tables by
//! `(repository, schema)` and concatenate their rows.

use std::collections::HashMap;

use gittables_table::{Provenance, Table, TableError};

use crate::corpus::Corpus;

/// A group of union-compatible tables from one repository.
#[derive(Debug, Clone)]
pub struct UnionGroup {
    /// Repository the snapshots came from.
    pub repository: String,
    /// Shared header names.
    pub schema: Vec<String>,
    /// Indices of member tables in the corpus.
    pub members: Vec<usize>,
}

/// Finds groups of ≥ `min_members` tables in the same repository sharing an
/// identical schema — union candidates. Deterministic order (by repository,
/// then schema).
#[must_use]
pub fn union_groups(corpus: &Corpus, min_members: usize) -> Vec<UnionGroup> {
    let mut groups: HashMap<(String, Vec<String>), Vec<usize>> = HashMap::new();
    for (i, at) in corpus.tables.iter().enumerate() {
        let repo = at.table.provenance().repository.clone();
        if repo.is_empty() {
            continue;
        }
        let names = at.table.columns().iter().map(|c| c.name().into());
        groups.entry((repo, names.collect())).or_default().push(i);
    }
    let mut out: Vec<UnionGroup> = groups
        .into_iter()
        .filter(|(_, members)| members.len() >= min_members.max(1))
        .map(|((repository, schema), members)| UnionGroup {
            repository,
            schema,
            members,
        })
        .collect();
    out.sort_by(|a, b| {
        a.repository
            .cmp(&b.repository)
            .then(a.schema.cmp(&b.schema))
    });
    out
}

/// Unions the member tables of a group into one table whose rows are the
/// concatenation (in member order).
///
/// # Errors
/// Returns a [`TableError`] if the members are not union-compatible (should
/// not happen for groups produced by [`union_groups`]).
pub fn union_tables(corpus: &Corpus, group: &UnionGroup) -> Result<Table, TableError> {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &i in &group.members {
        let t = &corpus.tables[i].table;
        for r in 0..t.num_rows() {
            rows.push(
                t.row(r)
                    .expect("row in range")
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
            );
        }
    }
    let name = format!("{}-union", group.repository.replace('/', "_"));
    let table = Table::from_string_rows(&name, &group.schema, rows)?;
    Ok(table.with_provenance(Provenance::new(
        group.repository.clone(),
        format!("{name}.csv"),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;

    fn corpus() -> Corpus {
        let mut c = Corpus::new("t");
        for (repo, n, start) in [("a/x", 2usize, 0usize), ("a/x", 3, 10), ("b/y", 2, 0)] {
            let rows: Vec<Vec<String>> = (0..n)
                .map(|i| vec![(start + i).to_string(), "v".to_string()])
                .collect();
            let t = Table::from_string_rows("snap", &["id", "v"], rows)
                .unwrap()
                .with_provenance(Provenance::new(repo, format!("{start}.csv")));
            c.push(AnnotatedTable::new(t));
        }
        // A table with a different schema in a/x: not union-compatible.
        let t = Table::from_rows(
            "other",
            &["x", "y", "z"],
            &[&["1", "2", "3"], &["4", "5", "6"]],
        )
        .unwrap()
        .with_provenance(Provenance::new("a/x", "other.csv"));
        c.push(AnnotatedTable::new(t));
        c
    }

    #[test]
    fn groups_by_repo_and_schema() {
        let c = corpus();
        let groups = union_groups(&c, 2);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].repository, "a/x");
        assert_eq!(groups[0].members.len(), 2);
    }

    #[test]
    fn min_members_one_includes_singletons() {
        let c = corpus();
        let groups = union_groups(&c, 1);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn union_concatenates_rows() {
        let c = corpus();
        let groups = union_groups(&c, 2);
        let u = union_tables(&c, &groups[0]).unwrap();
        assert_eq!(u.num_rows(), 5);
        assert_eq!(u.num_columns(), 2);
        assert_eq!(u.column(0).unwrap().get(0), Some("0"));
        assert_eq!(u.column(0).unwrap().get(2), Some("10"));
        assert!(u.provenance().repository.contains("a/x"));
    }
}
