//! Renders generated tables to SQL-dump text — the inverse of
//! [`crate::csvrender`] for the SQL ingestion path.
//!
//! Real SQL dumps on GitHub come from a handful of tools whose output is
//! highly stereotyped: `mysqldump` (backticked identifiers, multi-row
//! `INSERT`s, `ENGINE=` suffixes, backslash string escapes), `pg_dump`
//! (`COPY ... FROM stdin` tab blocks, `search_path` preambles, `''`
//! doubling), `sqlite3 .dump` (`PRAGMA` + `BEGIN TRANSACTION` wrappers,
//! one-row `INSERT`s) and hand-written ANSI scripts. Each rendered file
//! carries its tool's fingerprints so `gittables_tablesql`'s sniffer can
//! recover the dialect, and every value is escaped with exactly the
//! semantics that dialect's decoder reverses — rendering then parsing a
//! table is cell-for-cell lossless (empty cell ↔ `NULL`/`\N`).

use gittables_tablesql::SqlDialect;
use rand::Rng;

use crate::tablegen::GeneratedTable;

/// Dump-style configuration for SQL rendering.
#[derive(Debug, Clone)]
pub struct SqlRenderOptions {
    /// Weights for dialect choice: MySQL, Postgres, SQLite, ANSI.
    pub dialect_weights: [u32; 4],
    /// Maximum rows per multi-row `INSERT` statement.
    pub rows_per_insert: usize,
    /// Probability a Postgres dump uses `COPY ... FROM stdin` over INSERTs.
    pub copy_prob: f64,
    /// Probability the file is unparseable garbage (mirrors
    /// [`crate::csvrender::MessModel::garbage_prob`]).
    pub garbage_prob: f64,
}

impl Default for SqlRenderOptions {
    fn default() -> Self {
        SqlRenderOptions {
            // mysqldump dominates on GitHub; pg_dump, sqlite3, ANSI follow.
            dialect_weights: [45, 30, 15, 10],
            rows_per_insert: 64,
            copy_prob: 0.8,
            garbage_prob: 0.007,
        }
    }
}

impl SqlRenderOptions {
    /// Options that always render parseable dumps (no garbage files).
    #[must_use]
    pub fn clean() -> Self {
        SqlRenderOptions {
            garbage_prob: 0.0,
            ..SqlRenderOptions::default()
        }
    }

    fn pick_dialect<R: Rng>(&self, rng: &mut R) -> SqlDialect {
        let total: u32 = self.dialect_weights.iter().sum();
        let mut pick = rng.gen_range(0..total.max(1));
        for (d, w) in SqlDialect::ALL.iter().zip(self.dialect_weights) {
            if pick < w {
                return *d;
            }
            pick -= w;
        }
        SqlDialect::Ansi
    }
}

/// Renders `table` as a SQL dump of a table called `name`, picking the
/// dialect by the configured weights.
pub fn render_sql<R: Rng>(
    rng: &mut R,
    name: &str,
    table: &GeneratedTable,
    opts: &SqlRenderOptions,
) -> String {
    if rng.gen_bool(opts.garbage_prob) {
        // Unparseable content, same noise class as the CSV garbage mode.
        let mut s = String::new();
        for _ in 0..rng.gen_range(3..30) {
            for _ in 0..rng.gen_range(1..60) {
                s.push((rng.gen_range(33..127u8)) as char);
            }
            s.push('\n');
        }
        return s;
    }
    let dialect = opts.pick_dialect(rng);
    render_sql_dialect(rng, name, table, dialect, opts)
}

/// Renders `table` in a specific `dialect` (round-trip tests pin the
/// dialect; the pipeline path picks one by weight via `render_sql`).
pub fn render_sql_dialect<R: Rng>(
    rng: &mut R,
    name: &str,
    table: &GeneratedTable,
    dialect: SqlDialect,
    opts: &SqlRenderOptions,
) -> String {
    let mut out = String::new();
    let qname = qualified_name(name, dialect);

    // Tool banner — the sniffer's dialect fingerprints live here.
    match dialect {
        SqlDialect::MySql => {
            out.push_str("-- MySQL dump 10.13  Distrib 8.0.32\n--\n");
            out.push_str("/*!40101 SET NAMES utf8mb4 */;\n\n");
            out.push_str("DROP TABLE IF EXISTS ");
            out.push_str(&qname);
            out.push_str(";\n");
        }
        SqlDialect::Postgres => {
            out.push_str("--\n-- PostgreSQL database dump\n--\n\n");
            out.push_str("SET search_path = public, pg_catalog;\n\n");
        }
        SqlDialect::Sqlite => {
            out.push_str("PRAGMA foreign_keys=OFF;\nBEGIN TRANSACTION;\n");
        }
        SqlDialect::Ansi => out.push_str("-- SQL dump\n"),
    }

    push_create(&mut out, &qname, table, dialect);
    out.push_str(match dialect {
        SqlDialect::MySql => " ENGINE=InnoDB DEFAULT CHARSET=utf8mb4;\n\n",
        _ => ";\n\n",
    });

    match dialect {
        SqlDialect::MySql => {
            out.push_str("LOCK TABLES ");
            out.push_str(&qname);
            out.push_str(" WRITE;\n");
            push_inserts(
                &mut out,
                &qname,
                table,
                opts.rows_per_insert,
                false,
                dialect,
            );
            out.push_str("UNLOCK TABLES;\n");
        }
        SqlDialect::Postgres => {
            if rng.gen_bool(opts.copy_prob) {
                push_copy(&mut out, &qname, table, dialect);
            } else {
                // pg_dump --inserts style: one row per statement, with an
                // explicit column list.
                push_inserts(&mut out, &qname, table, 1, true, dialect);
            }
        }
        // sqlite3 .dump emits one-row INSERTs without column lists.
        SqlDialect::Sqlite => push_inserts(&mut out, &qname, table, 1, false, dialect),
        SqlDialect::Ansi => {
            let with_cols = rng.gen_bool(0.5);
            push_inserts(
                &mut out,
                &qname,
                table,
                opts.rows_per_insert,
                with_cols,
                dialect,
            );
        }
    }

    match dialect {
        SqlDialect::Sqlite => out.push_str("COMMIT;\n"),
        SqlDialect::MySql => out.push_str("\n-- Dump completed\n"),
        _ => {}
    }
    out
}

fn push_create(out: &mut String, qname: &str, table: &GeneratedTable, dialect: SqlDialect) {
    out.push_str("CREATE TABLE ");
    out.push_str(qname);
    out.push_str(" (\n");
    for (i, col) in table.header.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        push_ident(out, col, dialect);
        out.push(' ');
        out.push_str(column_type(table, i, dialect));
    }
    out.push_str("\n)");
}

/// A cosmetic column type inferred from the column's cells. The decoder
/// ignores types entirely; this only makes dumps look tool-authored.
fn column_type(table: &GeneratedTable, col: usize, dialect: SqlDialect) -> &'static str {
    let mut any = false;
    let mut ints = true;
    let mut nums = true;
    for cell in table.rows.column(col) {
        if cell.is_empty() {
            continue;
        }
        any = true;
        if cell.parse::<i64>().is_err() {
            ints = false;
        }
        if !is_bare_number(cell) {
            nums = false;
            break;
        }
    }
    let (int_t, real_t, text_t) = match dialect {
        SqlDialect::MySql => ("int", "double", "text"),
        SqlDialect::Postgres => ("integer", "double precision", "text"),
        SqlDialect::Sqlite => ("INTEGER", "REAL", "TEXT"),
        SqlDialect::Ansi => ("INTEGER", "REAL", "VARCHAR(255)"),
    };
    if any && ints {
        int_t
    } else if any && nums {
        real_t
    } else {
        text_t
    }
}

fn push_inserts(
    out: &mut String,
    qname: &str,
    table: &GeneratedTable,
    batch: usize,
    with_cols: bool,
    dialect: SqlDialect,
) {
    let batch = batch.max(1);
    for first in (0..table.rows.len()).step_by(batch) {
        out.push_str("INSERT INTO ");
        out.push_str(qname);
        if with_cols {
            out.push_str(" (");
            for (i, col) in table.header.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_ident(out, col, dialect);
            }
            out.push(')');
        }
        out.push_str(" VALUES");
        for r in first..(first + batch).min(table.rows.len()) {
            out.push_str(if r == first { "\n(" } else { ",\n(" });
            for (j, cell) in table.rows.row(r).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_value(out, cell, dialect);
            }
            out.push(')');
        }
        out.push_str(";\n");
    }
}

fn push_copy(out: &mut String, qname: &str, table: &GeneratedTable, dialect: SqlDialect) {
    out.push_str("COPY ");
    out.push_str(qname);
    out.push_str(" (");
    for (i, col) in table.header.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_ident(out, col, dialect);
    }
    out.push_str(") FROM stdin;\n");
    for row in table.rows.rows() {
        for (j, cell) in row.enumerate() {
            if j > 0 {
                out.push('\t');
            }
            push_copy_field(out, cell);
        }
        out.push('\n');
    }
    out.push_str("\\.\n");
}

fn push_copy_field(out: &mut String, cell: &str) {
    if cell.is_empty() {
        out.push_str("\\N");
        return;
    }
    for ch in cell.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(ch),
        }
    }
}

fn push_value(out: &mut String, cell: &str, dialect: SqlDialect) {
    if cell.is_empty() {
        out.push_str("NULL");
        return;
    }
    if is_bare_number(cell) {
        out.push_str(cell);
        return;
    }
    out.push('\'');
    for ch in cell.chars() {
        match ch {
            // mysqldump writes \'; every other tool doubles the quote.
            '\'' if dialect.backslash_escapes() => out.push_str("\\'"),
            '\'' => out.push_str("''"),
            '\\' if dialect.backslash_escapes() => out.push_str("\\\\"),
            _ => out.push(ch),
        }
    }
    out.push('\'');
}

/// Whether a cell can be emitted as an unquoted numeric literal and still
/// decode verbatim: only bytes that survive the decoder's raw-token scan,
/// and a real number so the emitted SQL stays tool-plausible.
fn is_bare_number(cell: &str) -> bool {
    !cell.is_empty()
        && cell
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E'))
        && cell.parse::<f64>().is_ok()
}

fn qualified_name(name: &str, dialect: SqlDialect) -> String {
    let mut out = String::new();
    if dialect == SqlDialect::Postgres {
        out.push_str("public.");
    }
    push_ident(&mut out, name, dialect);
    out
}

fn push_ident(out: &mut String, name: &str, dialect: SqlDialect) {
    if dialect == SqlDialect::MySql {
        // mysqldump backtick-quotes every identifier unconditionally.
        out.push('`');
        for ch in name.chars() {
            if ch == '`' {
                out.push('`');
            }
            out.push(ch);
        }
        out.push('`');
        return;
    }
    if bare_ident_ok(name) {
        out.push_str(name);
    } else {
        out.push('"');
        for ch in name.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    }
}

fn bare_ident_ok(s: &str) -> bool {
    let bytes = s.as_bytes();
    !bytes.is_empty()
        && (bytes[0].is_ascii_alphabetic() || bytes[0] == b'_')
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Domain, SchemaSampler};
    use crate::tablegen::{generate_table, Cells};
    use gittables_tablesql::{read_sql_tables, sniff_dialect, SqlReadOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(seed: u64) -> GeneratedTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = SchemaSampler::default().sample(&mut rng, "order", Domain::Business);
        generate_table(&mut rng, &plan)
    }

    #[test]
    fn round_trips_in_every_dialect() {
        for seed in 0..8u64 {
            let t = table(seed);
            for dialect in SqlDialect::ALL {
                let mut rng = StdRng::seed_from_u64(100 + seed);
                let sql =
                    render_sql_dialect(&mut rng, "orders", &t, dialect, &SqlRenderOptions::clean());
                let parsed = read_sql_tables(&sql, &SqlReadOptions::default())
                    .unwrap_or_else(|e| panic!("{dialect:?} seed {seed}: {e}"));
                assert_eq!(parsed.tables.len(), 1, "{dialect:?}");
                let st = &parsed.tables[0];
                assert_eq!(st.header, t.header, "{dialect:?} header");
                assert_eq!(st.num_rows(), t.rows.len(), "{dialect:?} rows");
                for (i, row) in t.rows.rows().enumerate() {
                    for (j, cell) in row.enumerate() {
                        assert_eq!(&st.columns[j][i], cell, "{dialect:?} cell ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn rendered_dialect_is_sniffable() {
        let t = table(42);
        for dialect in SqlDialect::ALL {
            let mut rng = StdRng::seed_from_u64(7);
            let sql =
                render_sql_dialect(&mut rng, "orders", &t, dialect, &SqlRenderOptions::clean());
            assert_eq!(sniff_dialect(&sql), Some(dialect));
        }
    }

    #[test]
    fn postgres_copy_block_used() {
        let t = table(3);
        let mut rng = StdRng::seed_from_u64(4);
        let opts = SqlRenderOptions {
            copy_prob: 1.0,
            ..SqlRenderOptions::clean()
        };
        let sql = render_sql_dialect(&mut rng, "orders", &t, SqlDialect::Postgres, &opts);
        assert!(sql.contains("FROM stdin;"));
        assert!(sql.contains("\n\\.\n"));
    }

    #[test]
    fn garbage_mode_is_rejected_as_not_sql() {
        let t = table(5);
        let opts = SqlRenderOptions {
            garbage_prob: 1.0,
            ..SqlRenderOptions::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let sql = render_sql(&mut rng, "orders", &t, &opts);
        assert!(read_sql_tables(&sql, &SqlReadOptions::default()).is_err());
    }

    #[test]
    fn deterministic() {
        let t = table(9);
        let opts = SqlRenderOptions::default();
        let mut a = StdRng::seed_from_u64(10);
        let mut b = StdRng::seed_from_u64(10);
        assert_eq!(
            render_sql(&mut a, "orders", &t, &opts),
            render_sql(&mut b, "orders", &t, &opts)
        );
    }

    #[test]
    fn quoted_identifiers_round_trip() {
        let t = GeneratedTable {
            header: vec!["order id".into(), "".into(), "Name \"x\"".into()],
            rows: Cells::from_rows(3, [["1", "it's", "a`b"]]),
            plan: table(1).plan,
        };
        for dialect in SqlDialect::ALL {
            let mut rng = StdRng::seed_from_u64(11);
            let sql = render_sql_dialect(&mut rng, "odd", &t, dialect, &SqlRenderOptions::clean());
            let opts = SqlReadOptions {
                dialect: Some(dialect),
                ..SqlReadOptions::default()
            };
            let parsed = read_sql_tables(&sql, &opts).unwrap();
            assert_eq!(parsed.tables[0].header, t.header, "{dialect:?}");
            assert_eq!(&parsed.tables[0].columns[1][0], "it's", "{dialect:?}");
        }
    }
}
