//! Parsing raw files into provenance-tagged tables (§3.3, step 2).
//!
//! Two ingestion paths feed the same table model: delimiter-separated
//! text through `gittables_tablecsv` (dialect-sniffed, so unknown
//! extensions degrade to a sniff rather than a misparse) and SQL dumps
//! through `gittables_tablesql` (dialect-sniffed, statement-split,
//! `CREATE`/`INSERT`/`COPY` decoded). A CSV file yields exactly one
//! table; a SQL dump yields every table with at least one data row.

use gittables_githost::FileKind;
use gittables_table::{Column, Provenance, Table};
use gittables_tablecsv::{read_csv_columns, CsvError, ReadOptions};
use gittables_tablesql::{read_sql_tables, SqlError, SqlReadOptions};

use crate::extract::RawCsvFile;

/// Why a raw file failed to become a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFailure {
    /// The CSV reader rejected the file.
    Csv(String),
    /// The SQL-dump reader rejected the file (not SQL, truncated
    /// statement, unterminated literal, no decodable tables, …).
    Sql(String),
    /// The parsed records could not form a consistent table.
    Table(String),
}

/// Parses one raw file into a [`Table`], attaching provenance. This is
/// the CSV-only path kept for callers that work on known-CSV content;
/// the pipeline dispatches on [`RawCsvFile::kind`] via
/// [`parse_file_tables`].
///
/// # Errors
/// Returns [`ParseFailure`] when the file cannot be parsed — the paper's
/// 0.7 % unparseable files.
pub fn parse_file(raw: &RawCsvFile, options: &ReadOptions) -> Result<Table, ParseFailure> {
    // Column-major read: the reader hands over one cell arena per column,
    // which becomes the table column's storage as is.
    let parsed = read_csv_columns(&raw.content, options)
        .map_err(|e: CsvError| ParseFailure::Csv(e.to_string()))?;
    let name = raw
        .path
        .rsplit('/')
        .next()
        .unwrap_or(&raw.path)
        .trim_end_matches(".csv")
        .to_string();
    let columns: Vec<Column> = parsed
        .header
        .iter()
        .zip(parsed.columns)
        .map(|(h, cells)| Column::from_cells(h, cells))
        .collect();
    let table = Table::new(name, columns).map_err(|e| ParseFailure::Table(e.to_string()))?;
    Ok(table.with_provenance(provenance(raw)))
}

/// Parses one raw file into every table it contains, dispatching on the
/// file's [`FileKind`]: CSV files yield exactly one table, SQL dumps one
/// per decoded table. All tables of a dump share the file's provenance
/// (path, license, size) and are named after their SQL table name.
///
/// # Errors
/// Returns [`ParseFailure`] when the file cannot be parsed at all. SQL
/// errors are *content* failures — counted as `parse_failed`, never a
/// quarantine.
pub fn parse_file_tables(
    raw: &RawCsvFile,
    csv_options: &ReadOptions,
    sql_options: &SqlReadOptions,
) -> Result<Vec<Table>, ParseFailure> {
    match raw.kind {
        FileKind::Csv => parse_file(raw, csv_options).map(|t| vec![t]),
        FileKind::Sql => {
            let parsed = read_sql_tables(&raw.content, sql_options)
                .map_err(|e: SqlError| ParseFailure::Sql(e.to_string()))?;
            let mut tables = Vec::with_capacity(parsed.tables.len());
            for st in parsed.tables {
                let columns: Vec<Column> = st
                    .header
                    .iter()
                    .zip(st.columns)
                    .map(|(h, cells)| Column::from_cells(h, cells))
                    .collect();
                let table =
                    Table::new(st.name, columns).map_err(|e| ParseFailure::Table(e.to_string()))?;
                tables.push(table.with_provenance(provenance(raw)));
            }
            Ok(tables)
        }
    }
}

fn provenance(raw: &RawCsvFile) -> Provenance {
    let mut prov =
        Provenance::new(raw.repository.clone(), raw.path.clone()).with_topic(raw.topic.clone());
    prov.license = raw.license.clone();
    prov.file_size = raw.content.len();
    prov
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(content: &str) -> RawCsvFile {
        raw_at("data/orders.csv", content)
    }

    fn raw_at(path: &str, content: &str) -> RawCsvFile {
        RawCsvFile {
            repository: "a/b".into(),
            path: path.into(),
            topic: "order".into(),
            license: Some("mit".into()),
            content: content.into(),
            kind: FileKind::from_path(path),
        }
    }

    #[test]
    fn parses_with_provenance() {
        let t = parse_file(&raw("id,total\n1,10\n2,20\n"), &ReadOptions::default()).unwrap();
        assert_eq!(t.name(), "orders");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.provenance().repository, "a/b");
        assert_eq!(t.provenance().topic, "order");
        assert_eq!(t.provenance().license.as_deref(), Some("mit"));
        assert_eq!(t.provenance().file_size, "id,total\n1,10\n2,20\n".len());
    }

    #[test]
    fn unparseable_reports_failure() {
        let err = parse_file(&raw(""), &ReadOptions::default()).unwrap_err();
        assert!(matches!(err, ParseFailure::Csv(_)));
    }

    #[test]
    fn messy_but_recoverable_parses() {
        let content = "# comment\nid,v\n1,2\nbadline\n3,4\n";
        let t = parse_file(&raw(content), &ReadOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn sql_dump_yields_named_tables() {
        let dump = "CREATE TABLE orders (id int, total int);\n\
                    INSERT INTO orders VALUES (1,10),(2,20);\n\
                    CREATE TABLE users (name text);\n\
                    INSERT INTO users VALUES ('ann');\n";
        let raw = raw_at("db/dump.sql", dump);
        let tables =
            parse_file_tables(&raw, &ReadOptions::default(), &SqlReadOptions::default()).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].name(), "orders");
        assert_eq!(tables[0].num_rows(), 2);
        assert_eq!(tables[1].name(), "users");
        // Every table of the dump shares the file's provenance.
        for t in &tables {
            assert_eq!(t.provenance().path, "db/dump.sql");
            assert_eq!(t.provenance().file_size, dump.len());
            assert_eq!(t.provenance().license.as_deref(), Some("mit"));
        }
    }

    #[test]
    fn csv_kind_yields_single_table() {
        let tables = parse_file_tables(
            &raw("id,total\n1,10\n"),
            &ReadOptions::default(),
            &SqlReadOptions::default(),
        )
        .unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name(), "orders");
    }

    #[test]
    fn unknown_extension_falls_back_to_csv_sniffing() {
        // The old parse stage hardwired the CSV reader *and* assumed the
        // `.csv` suffix; kind dispatch keeps unknown extensions on the
        // sniffing CSV path.
        let raw = raw_at("data/export.dat", "id;total\n1;10\n2;20\n");
        assert_eq!(raw.kind, FileKind::Csv);
        let tables =
            parse_file_tables(&raw, &ReadOptions::default(), &SqlReadOptions::default()).unwrap();
        assert_eq!(tables[0].num_rows(), 2);
        assert_eq!(tables[0].num_columns(), 2);
    }

    #[test]
    fn malformed_sql_reports_sql_failure() {
        for dump in [
            "CREATE TABLE t (a int",                  // truncated statement
            "INSERT INTO t VALUES ('unterminated",    // unterminated literal
            "\u{1}\u{2}binary garbage\u{3}",          // not SQL at all
            "SET search_path = public;\nSELECT 1;\n", // no tables
            "id,name\n1,ant\n",                       // CSV routed as .sql
        ] {
            let err = parse_file_tables(
                &raw_at("x/dump.sql", dump),
                &ReadOptions::default(),
                &SqlReadOptions::default(),
            )
            .unwrap_err();
            assert!(matches!(err, ParseFailure::Sql(_)), "{dump:?}: {err:?}");
        }
    }
}
