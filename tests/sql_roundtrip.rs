//! Round-trip property tests of the SQL ingestion path (ISSUE 9): a table
//! rendered as a SQL dump in **any** dialect must parse back cell-for-cell
//! — quotes, semicolons, newlines, NULLs, unicode and all — and must agree
//! with the CSV renderer + parser over the same table from the same seed.

use gittables_synth::schema::{Domain, SchemaPlan, SchemaSampler};
use gittables_synth::{
    generate_table, render_csv, render_sql_dialect, Cells, GeneratedTable, MessModel,
    SqlRenderOptions,
};
use gittables_tablecsv::{read_csv, Dialect as CsvDialect, ReadOptions};
use gittables_tablesql::{read_sql_tables, sniff_dialect, SqlDialect, SqlReadOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Adversarial cell payloads: every character class the statement splitter
/// and both unescapers must survive.
const NASTY: &[&str] = &[
    "it's \"quoted\"",
    "semi;colons, commas",
    "line\nbreak",
    "καφές ☕ 表",
    "back\\slash\\",
    "NULL",
    "`tick` $tag$ [brack]",
    "-- not a comment",
    "/* not */ a block",
    "tab\there",
];

fn cell() -> impl Strategy<Value = String> {
    ("[a-z0-9]{0,8}", 0usize..(NASTY.len() + 4)).prop_map(|(s, sel)| match NASTY.get(sel) {
        Some(n) => format!("{s}{n}"),
        // A couple of extra slots so plain text and empty (→ NULL) cells
        // stay common.
        None if sel == NASTY.len() => String::new(),
        None => s,
    })
}

fn plan() -> SchemaPlan {
    let mut rng = StdRng::seed_from_u64(0);
    SchemaSampler::default().sample(&mut rng, "order", Domain::Business)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sql_dump_round_trips_and_matches_csv(
        header in proptest::collection::vec("[a-zA-Z_][a-zA-Z0-9 _]{0,10}", 1..5),
        rows in proptest::collection::vec(proptest::collection::vec(cell(), 1..5), 1..8),
        seed in 0u64..1_000,
    ) {
        let width = header.len();
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(width, String::new());
                // The CSV reader drops all-blank rows (§3.3); keep every
                // row comparable across both ingestion paths.
                if r.iter().all(|c| c.trim().is_empty()) {
                    r[0] = "x".to_string();
                }
                r
            })
            .collect();
        let table = GeneratedTable {
            header: header.clone(),
            rows: Cells::from_rows(width, &rows),
            plan: plan(),
        };

        // CSV path from the same seed.
        let mut rng = StdRng::seed_from_u64(seed);
        let csv = render_csv(&mut rng, &table, &MessModel::clean());
        let copts = ReadOptions {
            dialect: Some(CsvDialect::default()),
            ..ReadOptions::default()
        };
        let cparsed = read_csv(&csv, &copts).expect("clean CSV parses");
        prop_assert_eq!(&cparsed.header, &header);
        prop_assert_eq!(&cparsed.records, &rows);

        // SQL path: every dialect, same seed, cell-for-cell.
        for dialect in SqlDialect::ALL {
            let mut rng = StdRng::seed_from_u64(seed);
            let sql = render_sql_dialect(
                &mut rng,
                "prop_table",
                &table,
                dialect,
                &SqlRenderOptions::clean(),
            );
            let sopts = SqlReadOptions {
                dialect: Some(dialect),
                ..SqlReadOptions::default()
            };
            let parsed = read_sql_tables(&sql, &sopts)
                .unwrap_or_else(|e| panic!("{dialect:?}: {e}\n--- dump ---\n{sql}"));
            prop_assert_eq!(parsed.tables.len(), 1);
            let st = &parsed.tables[0];
            prop_assert_eq!(&st.name, "prop_table");
            prop_assert_eq!(&st.header, &header);
            prop_assert_eq!(st.num_rows(), rows.len(), "{:?}\n{}", dialect, sql);
            for (i, row) in rows.iter().enumerate() {
                for (j, want) in row.iter().enumerate() {
                    prop_assert_eq!(
                        &st.columns[j][i], want,
                        "{:?} cell ({}, {})", dialect, i, j
                    );
                }
            }
            // By the two assertions above, SQL cells == `rows` == CSV cells:
            // both ingestion paths recover the identical table.
        }
    }

    /// Synth-realistic tables (no adversarial payloads) must additionally
    /// round-trip through *sniffed* dialect detection, as the pipeline
    /// parses them.
    #[test]
    fn synth_tables_round_trip_via_sniffing(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = SchemaSampler::default().sample(&mut rng, "ride", Domain::Geo);
        let table = generate_table(&mut rng, &plan);
        for dialect in SqlDialect::ALL {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let sql = render_sql_dialect(
                &mut rng,
                "rides",
                &table,
                dialect,
                &SqlRenderOptions::clean(),
            );
            prop_assert_eq!(sniff_dialect(&sql), Some(dialect));
            let parsed = read_sql_tables(&sql, &SqlReadOptions::default())
                .unwrap_or_else(|e| panic!("{dialect:?}: {e}"));
            prop_assert_eq!(&parsed.tables[0].header, &table.header);
            prop_assert_eq!(parsed.tables[0].num_rows(), table.rows.len());
        }
    }
}
