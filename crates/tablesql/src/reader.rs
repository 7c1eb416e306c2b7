//! Decoding split statements into column-major tables.
//!
//! Only three statement shapes carry table data and are decoded strictly:
//! `CREATE TABLE` (column names), multi-row `INSERT INTO ... VALUES`, and
//! `COPY ... FROM stdin` blocks. Everything else a dump contains (`SET`,
//! `DROP`, `PRAGMA`, `LOCK TABLES`, transaction control, …) is skipped.
//!
//! Cells are copied straight onto the end of their column's
//! [`CellArena`], like `read_csv_columns` does for CSV: a decoded value is a
//! `&str` — a slice of the statement text, or of one reused scratch buffer
//! when the literal needed unescaping — and a row is one reused arena, so no
//! cell is ever an owned `String` and no row-of-rows corpus is built.

use std::collections::HashMap;

use gittables_table::CellArena;

use crate::dialect::SqlDialect;
use crate::error::SqlError;
use crate::sniffer::sniff_dialect;
use crate::splitter::{Statement, StatementSplitter};

/// Options for reading a SQL dump.
#[derive(Debug, Clone)]
pub struct SqlReadOptions {
    /// Force a dialect instead of sniffing.
    pub dialect: Option<SqlDialect>,
    /// Maximum data rows decoded per table (guards adversarial input).
    pub max_rows: usize,
    /// Maximum distinct tables decoded per dump; later tables are ignored.
    pub max_tables: usize,
    /// Maximum bytes of a single statement (its text plus any `COPY`
    /// data block). An adversarial dump concentrating its whole payload
    /// in one giant statement errors as a typed
    /// [`SqlError::StatementTooLarge`] — counted as `parse_failed` by the
    /// pipeline — instead of being decoded into unbounded cell
    /// allocations. Zero disables the guard.
    pub max_statement_bytes: usize,
}

impl Default for SqlReadOptions {
    fn default() -> Self {
        SqlReadOptions {
            dialect: None,
            max_rows: 1_000_000,
            max_tables: 256,
            max_statement_bytes: 4 * 1024 * 1024,
        }
    }
}

/// One decoded table, column-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlTable {
    /// The SQL table name (unquoted, last segment of a qualified name).
    pub name: String,
    /// Column names from `CREATE TABLE` (or the `INSERT`/`COPY` column
    /// list when no `CREATE` was seen; empty strings when neither named
    /// the columns).
    pub header: Vec<String>,
    /// Cell values, column-major; every column has the same length.
    pub columns: Vec<CellArena>,
}

impl SqlTable {
    /// Number of data rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, CellArena::len)
    }
}

/// The result of reading a SQL dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSql {
    /// Detected (or forced) dialect.
    pub dialect: SqlDialect,
    /// Decoded tables with at least one data row, in first-seen order.
    pub tables: Vec<SqlTable>,
    /// Statements the splitter produced (decoded or skipped).
    pub statements: usize,
    /// Data rows dropped for width mismatches against the table header.
    pub bad_rows: usize,
}

/// Reads a SQL dump into column-major tables.
///
/// # Errors
/// [`SqlError`] when the content is empty, not SQL, lexically unterminated,
/// truncated mid-statement, yields no table with data rows, or decodes more
/// than `u32::MAX` bytes into one column.
pub fn read_sql_tables(input: &str, options: &SqlReadOptions) -> Result<ParsedSql, SqlError> {
    if input.trim().is_empty() {
        return Err(SqlError::Empty);
    }
    let dialect = match options.dialect {
        Some(d) => d,
        None => sniff_dialect(input).ok_or(SqlError::NotSql)?,
    };
    let mut splitter = StatementSplitter::new(input, dialect);
    let mut builders = Builders::new(options.max_tables, options.max_rows);
    let mut statements = 0usize;
    while let Some(stmt) = splitter.next_statement()? {
        statements += 1;
        if options.max_statement_bytes > 0 {
            let size = stmt.text.len() + stmt.copy_data.map_or(0, str::len);
            if size > options.max_statement_bytes {
                return Err(SqlError::StatementTooLarge {
                    offset: stmt.offset,
                    size,
                    limit: options.max_statement_bytes,
                });
            }
        }
        decode_statement(&stmt, dialect, &mut builders)?;
    }
    let bad_rows = builders.bad_rows;
    let tables: Vec<SqlTable> = builders
        .list
        .into_iter()
        .filter(|t| t.num_rows() > 0)
        .collect();
    if tables.is_empty() {
        return Err(SqlError::NoTables);
    }
    Ok(ParsedSql {
        dialect,
        tables,
        statements,
        bad_rows,
    })
}

/// Decoded tables under construction, keyed by name in first-seen order.
struct Builders {
    list: Vec<SqlTable>,
    by_name: HashMap<String, usize>,
    max_tables: usize,
    max_rows: usize,
    bad_rows: usize,
    /// The row being decoded, reused from row to row.
    row: CellArena,
    /// Where a literal that needs unescaping is rewritten, reused from cell
    /// to cell.
    scratch: String,
}

impl Builders {
    fn new(max_tables: usize, max_rows: usize) -> Self {
        Builders {
            list: Vec::new(),
            by_name: HashMap::new(),
            max_tables,
            max_rows,
            bad_rows: 0,
            row: CellArena::new(),
            scratch: String::new(),
        }
    }

    /// The builder for `name`, creating it (with `header` if provided)
    /// unless the table cap is reached. Re-`CREATE`s keep the first
    /// header.
    fn ensure(&mut self, name: &str, header: Option<Vec<String>>) -> Option<usize> {
        if let Some(&i) = self.by_name.get(name) {
            return Some(i);
        }
        if self.list.len() >= self.max_tables {
            return None;
        }
        let header = header.unwrap_or_default();
        let columns = vec![CellArena::new(); header.len()];
        self.list.push(SqlTable {
            name: name.to_string(),
            header,
            columns,
        });
        self.by_name.insert(name.to_string(), self.list.len() - 1);
        Some(self.list.len() - 1)
    }

    /// Appends the decoded row in `self.row` to builder `i`. `insert_cols`
    /// is the explicit column list of the `INSERT`/`COPY`, used to map
    /// values by name when it differs from the table header.
    fn push_row(&mut self, i: usize, insert_cols: Option<&[String]>) -> Result<(), SqlError> {
        let row = &self.row;
        let table = &mut self.list[i];
        // A table first seen through its data statement adopts the
        // statement's column list (or anonymous columns) as its header.
        if table.header.is_empty() {
            table.header = match insert_cols {
                Some(cols) => cols.to_vec(),
                None => vec![String::new(); row.len()],
            };
            table.columns = vec![CellArena::new(); table.header.len()];
        }
        if table.num_rows() >= self.max_rows {
            return Ok(());
        }
        let width = table.header.len();
        match insert_cols {
            // Named column list differing from the header: map by name,
            // absent columns stay empty.
            Some(cols) if cols != table.header.as_slice() => {
                if row.len() != cols.len() {
                    self.bad_rows += 1;
                    return Ok(());
                }
                let index_of: HashMap<&str, usize> = table
                    .header
                    .iter()
                    .enumerate()
                    .map(|(k, h)| (h.as_str(), k))
                    .collect();
                if !cols.iter().all(|c| index_of.contains_key(c.as_str())) {
                    // Unknown column names: fall back to positional.
                    if row.len() != width {
                        self.bad_rows += 1;
                        return Ok(());
                    }
                    for (col, cell) in table.columns.iter_mut().zip(row) {
                        col.push(cell)?;
                    }
                    return Ok(());
                }
                // Which row cell each header column takes (the last one
                // when the list names a column twice).
                let mut source = vec![None; width];
                for (r, c) in cols.iter().enumerate() {
                    source[index_of[c.as_str()]] = Some(r);
                }
                for (col, r) in table.columns.iter_mut().zip(source) {
                    col.push(r.map_or("", |r| &row[r]))?;
                }
            }
            _ => {
                if row.len() != width {
                    self.bad_rows += 1;
                    return Ok(());
                }
                for (col, cell) in table.columns.iter_mut().zip(row) {
                    col.push(cell)?;
                }
            }
        }
        Ok(())
    }
}

/// Routes one statement to its decoder; non-data statements are skipped.
fn decode_statement(
    stmt: &Statement<'_>,
    dialect: SqlDialect,
    builders: &mut Builders,
) -> Result<(), SqlError> {
    let mut cur = Cursor::new(stmt.text, stmt.offset, dialect);
    if cur.eat_keyword("CREATE") {
        if cur.eat_keyword("TABLE") {
            decode_create(&mut cur, builders)?;
        }
    } else if cur.eat_keyword("INSERT") || cur.eat_keyword("REPLACE") {
        decode_insert(&mut cur, builders)?;
    } else if cur.eat_keyword("COPY") {
        if let Some(data) = stmt.copy_data {
            decode_copy(&mut cur, data, builders)?;
        }
    }
    Ok(())
}

/// `CREATE TABLE [IF NOT EXISTS] name ( coldefs... )`
fn decode_create(cur: &mut Cursor<'_>, builders: &mut Builders) -> Result<(), SqlError> {
    if cur.eat_keyword("IF") {
        cur.eat_keyword("NOT");
        cur.eat_keyword("EXISTS");
    }
    let Some(name) = cur.identifier() else {
        return Err(cur.truncated());
    };
    if !cur.eat_byte(b'(') {
        return Err(cur.truncated());
    }
    let mut header = Vec::new();
    loop {
        cur.skip_ws();
        if cur.peek() == Some(b')') {
            cur.bump(); // empty column list or trailing comma
            break;
        }
        // Table-level constraints carry no column; anything else starts
        // with the column name.
        if !cur.peek_constraint_keyword() {
            let Some(col) = cur.identifier() else {
                return Err(cur.truncated());
            };
            header.push(col);
        }
        match cur.scan_to_top_level()? {
            b',' => {
                cur.bump();
            }
            _ => {
                cur.bump(); // the closing ')'
                break;
            }
        }
    }
    builders.ensure(&name, Some(header));
    Ok(())
}

/// `INSERT INTO name [(cols)] VALUES (v, ...), (v, ...)`
fn decode_insert(cur: &mut Cursor<'_>, builders: &mut Builders) -> Result<(), SqlError> {
    cur.eat_keyword("IGNORE");
    if !cur.eat_keyword("INTO") {
        return Ok(()); // not a data insert shape we understand
    }
    let Some(name) = cur.identifier() else {
        return Err(cur.truncated());
    };
    let insert_cols = if cur.eat_byte(b'(') {
        Some(cur.identifier_list()?)
    } else {
        None
    };
    if !cur.eat_keyword("VALUES") && !cur.eat_keyword("VALUE") {
        return Ok(()); // INSERT ... SELECT and friends carry no literals
    }
    let target = builders.ensure(&name, None);
    loop {
        if !cur.eat_byte(b'(') {
            return Err(cur.truncated());
        }
        builders.row.clear();
        loop {
            cur.value(&mut builders.row, &mut builders.scratch)?;
            match cur.scan_to_top_level()? {
                b',' => {
                    cur.bump();
                }
                _ => {
                    cur.bump(); // ')'
                    break;
                }
            }
        }
        if let Some(i) = target {
            builders.push_row(i, insert_cols.as_deref())?;
        }
        if !cur.eat_byte(b',') {
            break; // trailing clauses (ON DUPLICATE KEY ...) are ignored
        }
    }
    Ok(())
}

/// `COPY name [(cols)] FROM stdin` + tab-delimited data block.
fn decode_copy(cur: &mut Cursor<'_>, data: &str, builders: &mut Builders) -> Result<(), SqlError> {
    let Some(name) = cur.identifier() else {
        return Err(cur.truncated());
    };
    let copy_cols = if cur.eat_byte(b'(') {
        Some(cur.identifier_list()?)
    } else {
        None
    };
    let target = builders.ensure(&name, None);
    for line in data.split('\n') {
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.is_empty() {
            continue;
        }
        let Some(i) = target else { continue };
        builders.row.clear();
        for field in line.split('\t') {
            push_copy_field(&mut builders.row, &mut builders.scratch, field)?;
        }
        builders.push_row(i, copy_cols.as_deref())?;
    }
    Ok(())
}

/// Appends one COPY text-format field to `row`, unescaped: `\\N` is NULL
/// (empty cell), and `\\t` / `\\n` / `\\r` / `\\\\` encode the literal
/// characters.
fn push_copy_field(row: &mut CellArena, scratch: &mut String, field: &str) -> Result<(), SqlError> {
    if field == "\\N" {
        return Ok(row.push("")?);
    }
    if !field.contains('\\') {
        return Ok(row.push(field)?);
    }
    scratch.clear();
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            scratch.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => scratch.push('\t'),
            Some('n') => scratch.push('\n'),
            Some('r') => scratch.push('\r'),
            Some(other) => scratch.push(other), // includes \\ → \
            None => scratch.push('\\'),
        }
    }
    Ok(row.push(scratch)?)
}

/// Appends the body of a `'...'` literal to `row`, unescaped: `''` always
/// collapses, and backslash escapes apply when `backslash` is set. A body
/// with nothing to unescape is pushed as the slice it is.
fn push_string_body(
    row: &mut CellArena,
    scratch: &mut String,
    body: &str,
    backslash: bool,
) -> Result<(), SqlError> {
    let bytes = body.as_bytes();
    let escaped = bytes.contains(&b'\'') || (backslash && bytes.contains(&b'\\'));
    if !escaped {
        return Ok(row.push(body)?);
    }
    scratch.clear();
    let out = scratch;
    let mut i = 0;
    while i < body.len() {
        let c = bytes[i];
        if c == b'\'' && bytes.get(i + 1) == Some(&b'\'') {
            out.push('\'');
            i += 2;
        } else if backslash && c == b'\\' && i + 1 < body.len() {
            let e = bytes[i + 1];
            match e {
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'0' => out.push('\0'),
                b'Z' => out.push('\u{1a}'),
                _ => {
                    // \\ \' \" and unknown escapes: the escaped char itself.
                    let ch = body[i + 1..].chars().next().unwrap_or('\\');
                    out.push(ch);
                    i += ch.len_utf8() - 1;
                }
            }
            i += 2;
        } else {
            let ch = body[i..].chars().next().expect("in-bounds char");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Ok(row.push(out)?)
}

/// A statement-text cursor with the keyword/identifier/value lexers the
/// decoders share.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
    /// Statement offset in the dump, for error reporting.
    offset: usize,
    dialect: SqlDialect,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str, offset: usize, dialect: SqlDialect) -> Self {
        Cursor {
            s,
            pos: 0,
            offset,
            dialect,
        }
    }

    fn truncated(&self) -> SqlError {
        SqlError::TruncatedStatement {
            offset: self.offset,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.s.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.bump();
        }
    }

    /// Consumes `kw` (case-insensitive, word-bounded) after whitespace.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let bytes = self.bytes();
        let end = self.pos + kw.len();
        if end > bytes.len() || !bytes[self.pos..end].eq_ignore_ascii_case(kw.as_bytes()) {
            return false;
        }
        if bytes
            .get(end)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            return false;
        }
        self.pos = end;
        true
    }

    /// Consumes `b` after whitespace.
    fn eat_byte(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Whether the next word opens a table-level constraint rather than a
    /// column definition.
    fn peek_constraint_keyword(&mut self) -> bool {
        const CONSTRAINTS: [&str; 8] = [
            "PRIMARY",
            "UNIQUE",
            "CONSTRAINT",
            "FOREIGN",
            "KEY",
            "INDEX",
            "CHECK",
            "EXCLUDE",
        ];
        let save = self.pos;
        let hit = CONSTRAINTS.iter().any(|kw| {
            let found = self.eat_keyword(kw);
            self.pos = save;
            found
        });
        hit
    }

    /// Parses an identifier: quoted (`"` / backtick / `[...]`) or bare;
    /// qualified names yield their last segment.
    fn identifier(&mut self) -> Option<String> {
        self.skip_ws();
        let mut name = self.one_identifier_segment()?;
        while self.peek() == Some(b'.') {
            self.bump();
            name = self.one_identifier_segment()?;
        }
        Some(name)
    }

    fn one_identifier_segment(&mut self) -> Option<String> {
        let bytes = self.bytes();
        match self.peek()? {
            q @ (b'"' | b'`') => {
                let mut out = String::new();
                let mut i = self.pos + 1;
                loop {
                    let at = gittables_tablecsv::memchr(q, &bytes[i..])?;
                    let abs = i + at;
                    out.push_str(&self.s[i..abs]);
                    if bytes.get(abs + 1) == Some(&q) {
                        out.push(q as char);
                        i = abs + 2;
                    } else {
                        self.pos = abs + 1;
                        return Some(out);
                    }
                }
            }
            b'[' => {
                let at = gittables_tablecsv::memchr(b']', &bytes[self.pos..])?;
                let out = self.s[self.pos + 1..self.pos + at].to_string();
                self.pos += at + 1;
                Some(out)
            }
            b if b.is_ascii_alphanumeric() || b == b'_' => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'$')
                {
                    self.bump();
                }
                Some(self.s[start..self.pos].to_string())
            }
            _ => None,
        }
    }

    /// Parses `ident, ident, ... )` after an already-consumed `(`.
    fn identifier_list(&mut self) -> Result<Vec<String>, SqlError> {
        let mut out = Vec::new();
        loop {
            let Some(id) = self.identifier() else {
                return Err(self.truncated());
            };
            out.push(id);
            if self.eat_byte(b',') {
                continue;
            }
            if self.eat_byte(b')') {
                return Ok(out);
            }
            return Err(self.truncated());
        }
    }

    /// Parses one `VALUES` tuple element and appends it to `row`: a string
    /// literal (unescaped), a bare `NULL` (empty cell), or the raw token
    /// text.
    fn value(&mut self, row: &mut CellArena, scratch: &mut String) -> Result<(), SqlError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.truncated()),
            Some(b'\'') => {
                let backslash = self.dialect.backslash_escapes();
                let body = self.string_literal(backslash)?;
                push_string_body(row, scratch, body, backslash)
            }
            Some(b'E' | b'e') if self.bytes().get(self.pos + 1) == Some(&b'\'') => {
                self.bump();
                let body = self.string_literal(true)?;
                push_string_body(row, scratch, body, true)
            }
            _ => {
                let save = self.pos;
                if self.eat_keyword("NULL") {
                    return Ok(row.push("")?);
                }
                self.pos = save;
                let start = self.pos;
                self.scan_to_top_level()?;
                Ok(row.push(self.s[start..self.pos].trim())?)
            }
        }
    }

    /// Consumes the `'...'` literal at the cursor and returns its body, still
    /// escaped.
    fn string_literal(&mut self, backslash: bool) -> Result<&'a str, SqlError> {
        let bytes = self.bytes();
        let open = self.pos;
        let mut i = open + 1;
        loop {
            let rest = &bytes[i..];
            let at = if backslash {
                gittables_tablecsv::memchr2(b'\'', b'\\', rest)
            } else {
                gittables_tablecsv::memchr(b'\'', rest)
            };
            let Some(at) = at else {
                return Err(SqlError::UnterminatedString {
                    offset: self.offset + open,
                });
            };
            let abs = i + at;
            if bytes[abs] == b'\\' {
                if abs + 1 >= bytes.len() {
                    return Err(SqlError::UnterminatedString {
                        offset: self.offset + open,
                    });
                }
                i = abs + 2;
            } else if bytes.get(abs + 1) == Some(&b'\'') {
                i = abs + 2;
            } else {
                self.pos = abs + 1;
                return Ok(&self.s[open + 1..abs]);
            }
        }
    }

    /// Advances to the next top-level `,` or `)` (relative depth 0),
    /// skipping nested parentheses, string literals, and quoted
    /// identifiers. Leaves the cursor *on* the terminator.
    fn scan_to_top_level(&mut self) -> Result<u8, SqlError> {
        let bytes = self.bytes();
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            match b {
                b',' | b')' if depth == 0 => return Ok(b),
                b'(' => {
                    depth += 1;
                    self.bump();
                }
                b')' => {
                    depth -= 1;
                    self.bump();
                }
                b'\'' => {
                    let escapes = self.dialect.backslash_escapes()
                        || (self.pos > 0 && matches!(bytes[self.pos - 1], b'E' | b'e'));
                    self.string_literal(escapes)?;
                }
                b'"' | b'`' => {
                    if self.one_identifier_segment().is_none() {
                        return Err(self.truncated());
                    }
                }
                _ => self.bump(),
            }
        }
        Err(self.truncated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(input: &str) -> ParsedSql {
        read_sql_tables(input, &SqlReadOptions::default()).unwrap()
    }

    fn rows(t: &SqlTable) -> Vec<Vec<&str>> {
        (0..t.num_rows())
            .map(|r| t.columns.iter().map(|c| &c[r]).collect())
            .collect()
    }

    #[test]
    fn create_insert_roundtrip() {
        let p = read(
            "CREATE TABLE orders (id INTEGER, item TEXT, price REAL);\n\
             INSERT INTO orders VALUES (1, 'ant', 0.5), (2, 'bee', 1.5);\n",
        );
        assert_eq!(p.tables.len(), 1);
        let t = &p.tables[0];
        assert_eq!(t.name, "orders");
        assert_eq!(t.header, vec!["id", "item", "price"]);
        assert_eq!(
            rows(t),
            vec![vec!["1", "ant", "0.5"], vec!["2", "bee", "1.5"]]
        );
        assert_eq!(p.bad_rows, 0);
    }

    #[test]
    fn mysql_quoted_identifiers_and_escapes() {
        let p = read(
            "CREATE TABLE `order items` (`id` int, `note` text) ENGINE=InnoDB;\n\
             INSERT INTO `order items` VALUES (1, 'it\\'s a\\nnote');\n",
        );
        let t = &p.tables[0];
        assert_eq!(p.dialect, SqlDialect::MySql);
        assert_eq!(t.name, "order items");
        assert_eq!(&t.columns[1][0], "it's a\nnote");
    }

    #[test]
    fn doubled_quote_unescapes_everywhere() {
        let p = read("CREATE TABLE t (a text);\nINSERT INTO t VALUES ('it''s');\n");
        assert_eq!(&p.tables[0].columns[0][0], "it's");
    }

    #[test]
    fn null_becomes_empty_cell_but_quoted_null_stays() {
        let p = read("CREATE TABLE t (a text, b text);\nINSERT INTO t VALUES (NULL, 'NULL');\n");
        assert_eq!(rows(&p.tables[0]), vec![vec!["", "NULL"]]);
    }

    #[test]
    fn copy_from_stdin_block() {
        let p = read(
            "CREATE TABLE public.orders (id integer, item text);\n\
             COPY public.orders (id, item) FROM stdin;\n\
             1\tant\n2\t\\N\n3\ttab\\there\n\\.\n",
        );
        let t = &p.tables[0];
        assert_eq!(p.dialect, SqlDialect::Postgres);
        assert_eq!(
            rows(t),
            vec![vec!["1", "ant"], vec!["2", ""], vec!["3", "tab\there"]]
        );
    }

    #[test]
    fn multiple_tables_in_one_dump() {
        let p = read(
            "CREATE TABLE a (x int);\nINSERT INTO a VALUES (1);\n\
             CREATE TABLE b (y int);\nINSERT INTO b VALUES (2), (3);\n",
        );
        assert_eq!(p.tables.len(), 2);
        assert_eq!(p.tables[0].name, "a");
        assert_eq!(p.tables[1].num_rows(), 2);
    }

    #[test]
    fn table_without_create_adopts_insert_columns() {
        let p = read("INSERT INTO t (a, b) VALUES (1, 2);\n");
        assert_eq!(p.tables[0].header, vec!["a", "b"]);
    }

    #[test]
    fn insert_columns_mapped_by_name() {
        let p = read(
            "CREATE TABLE t (a int, b int, c int);\n\
             INSERT INTO t (c, a) VALUES (3, 1);\n",
        );
        assert_eq!(rows(&p.tables[0]), vec![vec!["1", "", "3"]]);
    }

    #[test]
    fn constraints_not_columns() {
        let p = read(
            "CREATE TABLE t (id int, name text, PRIMARY KEY (id), UNIQUE (name), \
             CONSTRAINT fk FOREIGN KEY (id) REFERENCES o (id));\n\
             INSERT INTO t VALUES (1, 'x');\n",
        );
        assert_eq!(p.tables[0].header, vec!["id", "name"]);
    }

    #[test]
    fn width_mismatch_counted_as_bad_row() {
        let p = read(
            "CREATE TABLE t (a int, b int);\n\
             INSERT INTO t VALUES (1, 2);\nINSERT INTO t VALUES (9);\n",
        );
        assert_eq!(p.tables[0].num_rows(), 1);
        assert_eq!(p.bad_rows, 1);
    }

    #[test]
    fn header_only_table_is_no_tables() {
        let err =
            read_sql_tables("CREATE TABLE t (a int);\n", &SqlReadOptions::default()).unwrap_err();
        assert_eq!(err, SqlError::NoTables);
    }

    #[test]
    fn empty_and_garbage_rejected() {
        let opts = SqlReadOptions::default();
        assert_eq!(
            read_sql_tables("  \n ", &opts).unwrap_err(),
            SqlError::Empty
        );
        assert_eq!(
            read_sql_tables("\u{1}\u{2}binary junk\u{3}", &opts).unwrap_err(),
            SqlError::NotSql
        );
        assert_eq!(
            read_sql_tables("id,name\n1,ant\n", &opts).unwrap_err(),
            SqlError::NotSql
        );
    }

    #[test]
    fn truncated_insert_is_typed_error() {
        let err = read_sql_tables(
            "CREATE TABLE t (a int);\nINSERT INTO t VALUES (1, 2",
            &SqlReadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::TruncatedStatement { .. }));
    }

    #[test]
    fn truncated_create_is_typed_error() {
        let err = read_sql_tables(
            "INSERT INTO t VALUES (1);\nCREATE TABLE u (a int, b",
            &SqlReadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::TruncatedStatement { .. }));
    }

    #[test]
    fn unterminated_literal_is_typed_error() {
        let err = read_sql_tables(
            "CREATE TABLE t (a text);\nINSERT INTO t VALUES ('open",
            &SqlReadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::UnterminatedString { .. }));
    }

    #[test]
    fn max_tables_cap() {
        let mut dump = String::new();
        for i in 0..5 {
            dump.push_str(&format!(
                "CREATE TABLE t{i} (a int);\nINSERT INTO t{i} VALUES ({i});\n"
            ));
        }
        let p = read_sql_tables(
            &dump,
            &SqlReadOptions {
                max_tables: 2,
                ..SqlReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(p.tables.len(), 2);
    }

    #[test]
    fn max_rows_cap() {
        let p = read_sql_tables(
            "CREATE TABLE t (a int);\nINSERT INTO t VALUES (1), (2), (3);\n",
            &SqlReadOptions {
                max_rows: 2,
                ..SqlReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(p.tables[0].num_rows(), 2);
    }

    #[test]
    fn oversized_statement_is_typed_error() {
        let opts = SqlReadOptions {
            max_statement_bytes: 64,
            ..SqlReadOptions::default()
        };
        // The payload is concentrated in one giant INSERT.
        let dump = format!(
            "CREATE TABLE t (a text);\nINSERT INTO t VALUES ('{}');\n",
            "x".repeat(200)
        );
        let err = read_sql_tables(&dump, &opts).unwrap_err();
        assert!(
            matches!(err, SqlError::StatementTooLarge { limit: 64, .. }),
            "{err:?}"
        );
        // A COPY data block counts toward its statement's size.
        let copy = format!("COPY t (a) FROM stdin;\n{}\\.\n", "y\n".repeat(100));
        let err = read_sql_tables(&copy, &opts).unwrap_err();
        assert!(matches!(err, SqlError::StatementTooLarge { .. }), "{err:?}");
        // The same dumps parse fine with the guard disabled.
        assert!(read_sql_tables(
            &dump,
            &SqlReadOptions {
                max_statement_bytes: 0,
                ..SqlReadOptions::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn small_statements_pass_under_the_guard() {
        let p = read_sql_tables(
            "CREATE TABLE t (a int);\nINSERT INTO t VALUES (1);\n",
            &SqlReadOptions {
                max_statement_bytes: 64,
                ..SqlReadOptions::default()
            },
        )
        .unwrap();
        assert_eq!(p.tables[0].num_rows(), 1);
    }

    #[test]
    fn unicode_and_embedded_newlines_survive() {
        let p = read(
            "CREATE TABLE t (a text, b text);\n\
             INSERT INTO t VALUES ('héllo – 世界', 'line1\nline2');\n",
        );
        assert_eq!(
            rows(&p.tables[0]),
            vec![vec!["héllo – 世界", "line1\nline2"]]
        );
    }

    #[test]
    fn non_data_statements_skipped() {
        let p = read(
            "SET NAMES utf8;\nDROP TABLE IF EXISTS t;\nBEGIN;\n\
             CREATE TABLE t (a int);\nINSERT INTO t VALUES (1);\nCOMMIT;\n",
        );
        assert_eq!(p.tables.len(), 1);
        assert!(p.statements >= 5);
    }
}
