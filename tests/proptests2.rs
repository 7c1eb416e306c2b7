//! Second property-test batch: provenance-bearing utilities and the search
//! query language.

use gittables_corpus::table_fingerprint;
use gittables_corpus::{
    load_store, save_store_as, union_tables, AnnotatedTable, Corpus, StoreFormat, UnionGroup,
};
use gittables_curate::{Faker, FakerClass};
use gittables_githost::Query;
use gittables_table::{CellArena, Column, Provenance, Table};
use proptest::prelude::*;

fn table_strategy() -> impl Strategy<Value = Table> {
    (
        proptest::collection::vec("[a-z]{1,8}", 1..5),
        1usize..6,
        any::<u64>(),
    )
        .prop_map(|(header, nrows, seed)| {
            let ncols = header.len();
            let rows: Vec<Vec<String>> = (0..nrows)
                .map(|r| {
                    (0..ncols)
                        .map(|c| format!("v{}", seed.wrapping_add((r * ncols + c) as u64) % 97))
                        .collect()
                })
                .collect();
            Table::from_string_rows("t", &header, rows).expect("valid table")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Union of any group of same-schema tables has the summed row count and
    /// the shared schema.
    #[test]
    fn union_preserves_rows_and_schema(base in table_strategy(), copies in 1usize..5) {
        let mut corpus = Corpus::new("p");
        for i in 0..copies {
            let t = base
                .clone()
                .with_provenance(Provenance::new("r/x", format!("{i}.csv")));
            corpus.push(AnnotatedTable::new(t));
        }
        let group = UnionGroup {
            repository: "r/x".into(),
            schema: base.schema().iter().map(String::from).collect(),
            members: (0..copies).collect(),
        };
        let unioned = union_tables(&corpus, &group).expect("compatible");
        prop_assert_eq!(unioned.num_rows(), base.num_rows() * copies);
        prop_assert_eq!(unioned.schema(), base.schema());
    }

    /// Fingerprints are content-determined: equal content ⇒ equal hash;
    /// changing one cell ⇒ (statistically) different hash.
    #[test]
    fn fingerprint_content_sensitivity(t in table_strategy()) {
        let a = AnnotatedTable::new(t.clone());
        let b = AnnotatedTable::new(t.clone());
        prop_assert_eq!(table_fingerprint(&a.table), table_fingerprint(&b.table));
        // Mutate one cell.
        let mut cols = t.columns().to_vec();
        let mut values: Vec<String> = cols[0].values().map(str::to_string).collect();
        values[0] = format!("{}-mutated", values[0]);
        cols[0].replace_values(values);
        let mutated = Table::new("t", cols).expect("valid");
        prop_assert_ne!(table_fingerprint(&a.table), table_fingerprint(&mutated));
    }

    /// The cell arena is invisible: any cells (empty strings, empty columns,
    /// multi-byte and astral-plane characters) read back as they went in,
    /// every construction route builds the same column under `==`, and both
    /// store formats round-trip the table they form.
    #[test]
    fn arena_columns_hold_any_cells(
        columns in proptest::collection::vec(
            proptest::collection::vec("[a-z0-9 ,\"é東😀𝄞\n]{0,6}", 0..6),
            0..5,
        ),
    ) {
        let mut built = Vec::new();
        for (j, cells) in columns.iter().enumerate() {
            let column = Column::new(format!("c{j}"), cells.clone());
            prop_assert_eq!(column.len(), cells.len());
            prop_assert_eq!(&column.values().collect::<Vec<_>>(), cells);
            for (i, cell) in cells.iter().enumerate() {
                prop_assert_eq!(column.get(i), Some(cell.as_str()));
            }
            prop_assert_eq!(column.get(cells.len()), None);
            let mut pushed = CellArena::new();
            for cell in cells {
                pushed.push(cell).expect("tiny column");
            }
            prop_assert_eq!(&Column::from_cells(format!("c{j}"), pushed), &column);
            built.push(column);
        }
        // Equal-length prefixes of the columns form a table.
        let rows = columns.iter().map(Vec::len).min().unwrap_or(0);
        let trimmed: Vec<Column> = built
            .iter()
            .map(|c| Column::new(c.name(), c.values().take(rows).map(str::to_string).collect()))
            .collect();
        if let Ok(table) = Table::new("t", trimmed) {
            let mut corpus = Corpus::new("arena");
            corpus.push(AnnotatedTable::new(table));
            let base = std::env::temp_dir().join(format!(
                "gt_arena_prop_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            for format in [StoreFormat::ColV1, StoreFormat::Jsonl] {
                let dir = base.join(format.name());
                std::fs::remove_dir_all(&dir).ok();
                save_store_as(&corpus, &dir, 4, format).expect("save");
                prop_assert_eq!(&load_store(&dir).expect("load"), &corpus);
            }
            std::fs::remove_dir_all(&base).ok();
        }
    }

    /// Query display → parse round-trips term, extension, and size range.
    #[test]
    fn query_roundtrip(term in "[a-z]{1,10}( [a-z]{1,10})?", lo in 0usize..1000, span in 1usize..100_000) {
        let q = Query::csv(&term).with_size(lo, lo + span);
        let parsed = Query::parse(&q.to_string()).expect("parse back");
        prop_assert_eq!(parsed.term, q.term);
        prop_assert_eq!(parsed.extension, q.extension);
        prop_assert_eq!(parsed.size, q.size);
    }

    /// Faker values have the right shape for every class and are
    /// deterministic per seed.
    #[test]
    fn faker_shapes(seed in any::<u64>()) {
        let classes = [
            FakerClass::Name,
            FakerClass::Address,
            FakerClass::Email,
            FakerClass::Date,
            FakerClass::City,
            FakerClass::Postcode,
        ];
        let mut a = Faker::new(seed);
        let mut b = Faker::new(seed);
        for class in classes {
            let va = a.value(class);
            let vb = b.value(class);
            prop_assert_eq!(&va, &vb);
            prop_assert!(!va.is_empty());
            match class {
                FakerClass::Email => prop_assert!(va.contains('@')),
                FakerClass::Postcode => {
                    prop_assert_eq!(va.len(), 5);
                    prop_assert!(va.bytes().all(|c| c.is_ascii_digit()));
                }
                FakerClass::Date => prop_assert_eq!(va.len(), 10),
                FakerClass::Name => prop_assert!(va.contains(' ')),
                _ => {}
            }
        }
    }
}
