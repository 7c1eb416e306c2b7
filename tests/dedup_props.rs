//! Property tests of the dedup invariants the sharded store's integrity
//! checks are built on: `table_fingerprint` must ignore provenance and
//! naming, must react to any cell edit (including pure reorderings), and
//! `dedup_indices` must keep exactly one representative per duplicate group.

use gittables_corpus::{combine_fingerprints, dedup_indices, exact_duplicates, table_fingerprint};
use gittables_corpus::{AnnotatedTable, Corpus};
use gittables_table::{Provenance, Table};
use proptest::prelude::*;

/// A generated table: header names plus row-major cells.
#[derive(Debug, Clone)]
struct Spec {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (1usize..4, 1usize..6, 0u64..u64::MAX).prop_map(|(cols, rows, salt)| {
        // Derive cell content deterministically from the sampled shape+salt;
        // distinct headers per column keep the table constructor happy.
        let header: Vec<String> = (0..cols).map(|c| format!("col{c}")).collect();
        let rows: Vec<Vec<String>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        format!(
                            "v{}",
                            salt.wrapping_mul(31).wrapping_add((r * cols + c) as u64) % 1000
                        )
                    })
                    .collect()
            })
            .collect();
        Spec { header, rows }
    })
}

fn build(spec: &Spec, name: &str, prov: Provenance) -> Table {
    Table::from_string_rows(name, &spec.header, spec.rows.clone())
        .unwrap()
        .with_provenance(prov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Renaming the table or rewriting any provenance field never changes
    /// the content fingerprint.
    #[test]
    fn fingerprint_stable_under_provenance_only_changes(
        spec in spec_strategy(),
        repo in "[a-z]{2,8}",
        path in "[a-z]{2,8}",
        topic in "[a-z]{2,8}",
    ) {
        let plain = build(&spec, "original", Provenance::default());
        let relabeled = build(
            &spec,
            "renamed-elsewhere",
            Provenance::new(repo, format!("{path}.csv"))
                .with_license("mit")
                .with_topic(topic),
        );
        prop_assert_eq!(table_fingerprint(&plain), table_fingerprint(&relabeled));
    }

    /// Editing any single cell changes the fingerprint.
    #[test]
    fn fingerprint_reacts_to_any_cell_edit(
        spec in spec_strategy(),
        pick in 0usize..1000,
    ) {
        let original = build(&spec, "t", Provenance::default());
        let mut edited = spec;
        let r = pick % edited.rows.len();
        let c = (pick / edited.rows.len().max(1)) % edited.header.len();
        edited.rows[r][c].push_str("-edited");
        let edited = build(&edited, "t", Provenance::default());
        prop_assert_ne!(table_fingerprint(&original), table_fingerprint(&edited));
    }

    /// Swapping two distinct cell values is detected: the fingerprint is
    /// order-sensitive, not a bag-of-cells digest.
    #[test]
    fn fingerprint_is_order_sensitive_on_cell_swaps(
        spec in spec_strategy(),
        pick in 0usize..1000,
    ) {
        let cols = spec.header.len();
        let cells = spec.rows.len() * cols;
        if cells < 2 {
            return Ok(());
        }
        let a = pick % cells;
        let b = (a + 1 + pick / cells % (cells - 1)) % cells;
        let ((ra, ca), (rb, cb)) = ((a / cols, a % cols), (b / cols, b % cols));
        if spec.rows[ra][ca] == spec.rows[rb][cb] {
            return Ok(()); // swapping equal values is a no-op; nothing to test
        }
        let mut swapped = spec.clone();
        let tmp = swapped.rows[ra][ca].clone();
        swapped.rows[ra][ca] = swapped.rows[rb][cb].clone();
        swapped.rows[rb][cb] = tmp;
        let original = build(&spec, "t", Provenance::default());
        let swapped = build(&swapped, "t", Provenance::default());
        prop_assert_ne!(table_fingerprint(&original), table_fingerprint(&swapped));
    }

    /// `dedup_indices` keeps exactly one representative — the first member —
    /// of every `DuplicateGroup`, and every non-duplicated table survives.
    #[test]
    fn dedup_keeps_exactly_one_representative_per_group(
        specs in proptest::collection::vec(spec_strategy(), 1..6),
        dupes in proptest::collection::vec((0usize..1000, 0usize..1000), 0..8),
    ) {
        let mut corpus = Corpus::new("props");
        for (i, spec) in specs.iter().enumerate() {
            corpus.push(AnnotatedTable::new(build(spec, &format!("t{i}"), Provenance::default())));
        }
        // Splice in duplicates of random existing tables at random positions.
        for (src, at) in dupes {
            let src = src % corpus.len();
            let clone = corpus.tables[src].clone();
            let at = at % (corpus.len() + 1);
            corpus.tables.insert(at, clone);
        }

        let survivors = dedup_indices(&corpus);
        let survivor_set: std::collections::HashSet<usize> = survivors.iter().copied().collect();
        let groups = exact_duplicates(&corpus);
        let mut grouped = std::collections::HashSet::new();
        for g in &groups {
            let kept: Vec<usize> = g
                .members
                .iter()
                .copied()
                .filter(|i| survivor_set.contains(i))
                .collect();
            prop_assert_eq!(&kept, &vec![g.members[0]], "exactly the first member survives");
            grouped.extend(g.members.iter().copied());
        }
        // Tables outside any duplicate group all survive.
        for i in 0..corpus.len() {
            if !grouped.contains(&i) {
                prop_assert!(survivor_set.contains(&i), "unique table {} must survive", i);
            }
        }
        // Survivor fingerprints are pairwise distinct and cover the corpus.
        let fps: std::collections::HashSet<u64> = survivors
            .iter()
            .map(|&i| table_fingerprint(&corpus.tables[i].table))
            .collect();
        prop_assert_eq!(fps.len(), survivors.len());
        let all: std::collections::HashSet<u64> = corpus
            .tables
            .iter()
            .map(|t| table_fingerprint(&t.table))
            .collect();
        prop_assert_eq!(fps.len(), all.len());
    }

    /// The shard digest treats an appended table as a change.
    #[test]
    fn combined_fingerprint_extends_sensitively(
        specs in proptest::collection::vec(spec_strategy(), 1..5),
    ) {
        let fps: Vec<u64> = specs
            .iter()
            .map(|s| table_fingerprint(&build(s, "t", Provenance::default())))
            .collect();
        let whole = combine_fingerprints(fps.iter().copied());
        let prefix = combine_fingerprints(fps[..fps.len() - 1].iter().copied());
        prop_assert_ne!(whole, prefix);
    }
}
