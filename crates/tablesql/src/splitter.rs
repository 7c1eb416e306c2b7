//! Statement splitting: the byte stream → one span per SQL statement.
//!
//! The splitter walks the dump with the same SWAR `memchr` scanning the
//! CSV parser uses ([`gittables_tablecsv::memchr`]): uninteresting spans are
//! skipped a machine word at a time, and a quote/comment state machine
//! handles the only bytes that can change meaning — `;`, `'`, `"`,
//! backtick, `--` / `/* */` comments, and `$tag$` dollar quotes — so a
//! semicolon inside a string literal or comment never ends a statement.
//!
//! `COPY ... FROM stdin` statements are special: the tab-delimited data
//! block that follows them is not SQL. The splitter consumes the block up
//! to its `\.` terminator line and attaches it to the statement.

use gittables_tablecsv::{memchr, memchr2, memchr3};

use crate::dialect::SqlDialect;
use crate::error::SqlError;

/// One split statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement<'a> {
    /// Statement text, without the terminating `;`, trailing whitespace
    /// trimmed.
    pub text: &'a str,
    /// Byte offset of the statement's first character in the input.
    pub offset: usize,
    /// The raw data block of a `COPY ... FROM stdin` statement (the lines
    /// between the statement and its `\.` terminator), `None` otherwise.
    pub copy_data: Option<&'a str>,
}

/// Streaming statement splitter over one dump.
#[derive(Debug)]
pub struct StatementSplitter<'a> {
    input: &'a str,
    pos: usize,
    dialect: SqlDialect,
    /// Cached absolute position of the next hit per scan class (see
    /// [`Self::next_interesting`]): `None` = not scanned yet, `usize::MAX`
    /// = no further hit. A cache entry stays valid while it is `>= pos`
    /// (the scan that produced it started at or before the current
    /// position, so no hit can hide in between); re-scanning only when the
    /// cursor passes a hit keeps the whole split linear even when one
    /// class's byte never occurs — without the cache, every stop would
    /// re-scan to end-of-input looking for the absent byte, going
    /// quadratic.
    next_hit: [Option<usize>; 3],
}

impl<'a> StatementSplitter<'a> {
    /// Creates a splitter for `input` under `dialect`'s escape rules.
    #[must_use]
    pub fn new(input: &'a str, dialect: SqlDialect) -> Self {
        StatementSplitter {
            input,
            pos: 0,
            dialect,
            next_hit: [None; 3],
        }
    }

    /// Returns the next statement, or `Ok(None)` at end of input.
    ///
    /// # Errors
    /// [`SqlError`] when a string literal, comment, dollar quote, or COPY
    /// data block is still open at end of input.
    pub fn next_statement(&mut self) -> Result<Option<Statement<'a>>, SqlError> {
        self.skip_gaps()?;
        if self.pos >= self.input.len() {
            return Ok(None);
        }
        let bytes = self.input.as_bytes();
        let start = self.pos;
        loop {
            let Some((abs, b)) = self.next_interesting() else {
                // EOF without `;`: emit the trailing text as a statement
                // (dumps routinely omit the final terminator); whether it
                // decodes is the reader's call.
                self.pos = self.input.len();
                let text = self.input[start..].trim_end();
                return Ok(Some(Statement {
                    text,
                    offset: start,
                    copy_data: None,
                }));
            };
            match b {
                b';' => {
                    let text = self.input[start..abs].trim_end();
                    self.pos = abs + 1;
                    let copy_data = if is_copy_from_stdin(text) {
                        Some(self.take_copy_block()?)
                    } else {
                        None
                    };
                    return Ok(Some(Statement {
                        text,
                        offset: start,
                        copy_data,
                    }));
                }
                b'\'' => self.pos = self.skip_string(abs)?,
                b'"' => self.pos = self.skip_quoted(abs, b'"')?,
                b'`' => self.pos = self.skip_quoted(abs, b'`')?,
                b'-' => {
                    if bytes.get(abs + 1) == Some(&b'-') {
                        self.pos = skip_line(self.input, abs);
                    } else {
                        self.pos = abs + 1;
                    }
                }
                b'/' => {
                    if bytes.get(abs + 1) == Some(&b'*') {
                        self.pos = skip_block_comment(self.input, abs)?;
                    } else {
                        self.pos = abs + 1;
                    }
                }
                _ => {
                    // b'$'
                    match self.skip_dollar_quote(abs)? {
                        Some(end) => self.pos = end,
                        None => self.pos = abs + 1,
                    }
                }
            }
        }
    }

    /// Skips whitespace and inter-statement comments.
    fn skip_gaps(&mut self) -> Result<(), SqlError> {
        let bytes = self.input.as_bytes();
        loop {
            while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos + 1 < bytes.len() && &bytes[self.pos..self.pos + 2] == b"--" {
                self.pos = skip_line(self.input, self.pos);
            } else if self.pos + 1 < bytes.len() && &bytes[self.pos..self.pos + 2] == b"/*" {
                self.pos = skip_block_comment(self.input, self.pos)?;
            } else {
                // Stray `;` between statements (e.g. `;;`): consume it.
                if self.pos < bytes.len() && bytes[self.pos] == b';' {
                    self.pos += 1;
                    continue;
                }
                return Ok(());
            }
        }
    }

    /// Skips a `'...'` string literal opened at `open`; returns the
    /// position after the closing quote. Honours `''` doubling always and
    /// backslash escapes when the dialect uses them.
    fn skip_string(&self, open: usize) -> Result<usize, SqlError> {
        let bytes = self.input.as_bytes();
        // `E'...'`-prefixed Postgres strings use backslash escapes even
        // though plain literals do not.
        let escape_prefixed = open > 0 && matches!(bytes[open - 1], b'E' | b'e');
        let backslash = self.dialect.backslash_escapes() || escape_prefixed;
        let mut pos = open + 1;
        loop {
            let rest = &bytes[pos..];
            let at = if backslash {
                memchr2(b'\'', b'\\', rest)
            } else {
                memchr(b'\'', rest)
            };
            let Some(at) = at else {
                return Err(SqlError::UnterminatedString { offset: open });
            };
            let abs = pos + at;
            if bytes[abs] == b'\\' {
                if abs + 1 >= bytes.len() {
                    return Err(SqlError::UnterminatedString { offset: open });
                }
                pos = abs + 2;
            } else if bytes.get(abs + 1) == Some(&b'\'') {
                pos = abs + 2; // doubled '' stays inside the literal
            } else {
                return Ok(abs + 1);
            }
        }
    }

    /// Skips a quoted identifier (`"..."` or `` `...` ``) opened at
    /// `open`, with doubled-quote escaping.
    fn skip_quoted(&self, open: usize, quote: u8) -> Result<usize, SqlError> {
        let bytes = self.input.as_bytes();
        let mut pos = open + 1;
        loop {
            let Some(at) = memchr(quote, &bytes[pos..]) else {
                return Err(SqlError::UnterminatedString { offset: open });
            };
            let abs = pos + at;
            if bytes.get(abs + 1) == Some(&quote) {
                pos = abs + 2;
            } else {
                return Ok(abs + 1);
            }
        }
    }

    /// If `at` opens a `$tag$` dollar quote, skips to past its closer and
    /// returns `Some(end)`; returns `None` when `$` is just data.
    fn skip_dollar_quote(&self, at: usize) -> Result<Option<usize>, SqlError> {
        let bytes = self.input.as_bytes();
        let mut tag_end = at + 1;
        while tag_end < bytes.len()
            && (bytes[tag_end].is_ascii_alphanumeric() || bytes[tag_end] == b'_')
        {
            tag_end += 1;
        }
        if tag_end >= bytes.len() || bytes[tag_end] != b'$' {
            return Ok(None);
        }
        let closer = &bytes[at..=tag_end];
        let mut pos = tag_end + 1;
        loop {
            let Some(hit) = memchr(b'$', &bytes[pos..]) else {
                return Err(SqlError::UnterminatedDollarQuote { offset: at });
            };
            let abs = pos + hit;
            if bytes[abs..].starts_with(closer) {
                return Ok(Some(abs + closer.len()));
            }
            pos = abs + 1;
        }
    }

    /// Consumes the data block following a `COPY ... FROM stdin;` head up
    /// to its `\.` terminator line; returns the raw block.
    fn take_copy_block(&mut self) -> Result<&'a str, SqlError> {
        let bytes = self.input.as_bytes();
        // The data starts on the line after the statement terminator.
        let data_start = match memchr(b'\n', &bytes[self.pos..]) {
            Some(nl) => self.pos + nl + 1,
            None => {
                return Err(SqlError::UnterminatedCopy { offset: self.pos });
            }
        };
        let mut line = data_start;
        loop {
            if bytes[line..].starts_with(b"\\.")
                && matches!(bytes.get(line + 2), None | Some(&b'\n') | Some(&b'\r'))
            {
                self.pos = skip_line(self.input, line);
                return Ok(&self.input[data_start..line]);
            }
            match memchr(b'\n', &bytes[line..]) {
                Some(nl) => line += nl + 1,
                None => return Err(SqlError::UnterminatedCopy { offset: data_start }),
            }
        }
    }
}

/// One scan class of [`StatementSplitter::next_interesting`]: finds the
/// next hit of its byte set in a haystack.
type ClassScan = fn(&[u8]) -> Option<usize>;

impl StatementSplitter<'_> {
    /// First byte at or after `pos` the state machine cares about: `;` `'`
    /// `"` backtick `-` `/` `$`. Three SWAR scans merged to the overall
    /// minimum, each memoized in [`Self::next_hit`] so a class whose byte
    /// is sparse (or absent) is scanned once per occurrence rather than
    /// once per stop. Returns the absolute position and the byte.
    #[inline]
    fn next_interesting(&mut self) -> Option<(usize, u8)> {
        let bytes = self.input.as_bytes();
        let pos = self.pos;
        let scans: [ClassScan; 3] = [
            |h| memchr3(b';', b'\'', b'"', h),
            |h| memchr3(b'`', b'-', b'/', h),
            |h| memchr(b'$', h),
        ];
        let mut best = usize::MAX;
        for (cache, scan) in self.next_hit.iter_mut().zip(scans) {
            let hit = match *cache {
                Some(h) if h >= pos => h,
                _ => {
                    let h = scan(&bytes[pos..]).map_or(usize::MAX, |i| pos + i);
                    *cache = Some(h);
                    h
                }
            };
            best = best.min(hit);
        }
        (best != usize::MAX).then(|| (best, bytes[best]))
    }
}

/// Position just past the current line's `\n` (or end of input).
#[inline]
fn skip_line(input: &str, from: usize) -> usize {
    match memchr(b'\n', &input.as_bytes()[from..]) {
        Some(nl) => from + nl + 1,
        None => input.len(),
    }
}

/// Position just past the `*/` closing the comment opened at `open`.
fn skip_block_comment(input: &str, open: usize) -> Result<usize, SqlError> {
    let bytes = input.as_bytes();
    let mut pos = open + 2;
    loop {
        let Some(star) = memchr(b'*', &bytes[pos..]) else {
            return Err(SqlError::UnterminatedComment { offset: open });
        };
        let abs = pos + star;
        if bytes.get(abs + 1) == Some(&b'/') {
            return Ok(abs + 2);
        }
        pos = abs + 1;
    }
}

/// Whether a statement head is a `COPY ... FROM stdin` (case-insensitive).
fn is_copy_from_stdin(text: &str) -> bool {
    let bytes = text.as_bytes();
    if bytes.len() < 4 || !bytes[..4].eq_ignore_ascii_case(b"copy") {
        return false;
    }
    // `FROM stdin` appears at the end (possibly before WITH options); a
    // bounded case-insensitive substring scan over the head is enough.
    text.len() < 4096 && contains_ignore_case(text, "from stdin")
}

/// Bounded case-insensitive substring test (needle is ASCII).
fn contains_ignore_case(hay: &str, needle: &str) -> bool {
    let hay = hay.as_bytes();
    let needle = needle.as_bytes();
    if needle.is_empty() || hay.len() < needle.len() {
        return false;
    }
    (0..=hay.len() - needle.len()).any(|i| hay[i..i + needle.len()].eq_ignore_ascii_case(needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits an entire dump into statements, or the first error.
    fn split_statements(input: &str, dialect: SqlDialect) -> Result<Vec<Statement<'_>>, SqlError> {
        let mut splitter = StatementSplitter::new(input, dialect);
        let mut out = Vec::new();
        while let Some(stmt) = splitter.next_statement()? {
            out.push(stmt);
        }
        Ok(out)
    }

    fn texts(input: &str, dialect: SqlDialect) -> Vec<String> {
        split_statements(input, dialect)
            .unwrap()
            .into_iter()
            .map(|s| s.text.to_string())
            .collect()
    }

    #[test]
    fn splits_simple_statements() {
        let t = texts(
            "CREATE TABLE t (a int);\nINSERT INTO t VALUES (1);",
            SqlDialect::Ansi,
        );
        assert_eq!(
            t,
            vec!["CREATE TABLE t (a int)", "INSERT INTO t VALUES (1)"]
        );
    }

    #[test]
    fn semicolon_inside_literal_does_not_split() {
        let t = texts("INSERT INTO t VALUES ('a;b');", SqlDialect::Ansi);
        assert_eq!(t, vec!["INSERT INTO t VALUES ('a;b')"]);
    }

    #[test]
    fn doubled_quote_escape() {
        let t = texts("INSERT INTO t VALUES ('it''s; fine');", SqlDialect::Ansi);
        assert_eq!(t.len(), 1);
        assert!(t[0].contains("it''s; fine"));
    }

    #[test]
    fn backslash_escape_mysql_only() {
        let sql = "INSERT INTO t VALUES ('a\\';b');";
        // MySQL: \' stays inside the literal, so the ; is quoted.
        assert_eq!(texts(sql, SqlDialect::MySql).len(), 1);
        // ANSI: backslash is data, the literal closes before the ; — the
        // statement splits there and the tail's lone quote never closes.
        let err = split_statements(sql, SqlDialect::Ansi).unwrap_err();
        assert!(matches!(err, SqlError::UnterminatedString { .. }));
    }

    #[test]
    fn escape_prefixed_string_uses_backslashes() {
        let sql = "INSERT INTO t VALUES (E'a\\';b');";
        assert_eq!(texts(sql, SqlDialect::Postgres).len(), 1);
    }

    #[test]
    fn comments_skipped() {
        let sql = "-- leading; comment\n/* block; \n comment */\nSELECT 1;\nSELECT 2; -- tail";
        let t = texts(sql, SqlDialect::Ansi);
        assert_eq!(t, vec!["SELECT 1", "SELECT 2"]);
    }

    #[test]
    fn comment_inside_statement_hides_semicolon() {
        let t = texts("SELECT 1 -- not yet;\n+ 2;", SqlDialect::Ansi);
        assert_eq!(t.len(), 1);
        assert!(t[0].ends_with("+ 2"));
    }

    #[test]
    fn dollar_quote_hides_everything() {
        let sql = "CREATE FUNCTION f() AS $body$ select ';' -- '\" $x$ $$ $body$;\nSELECT 1;";
        let t = texts(sql, SqlDialect::Postgres);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lone_dollar_is_data() {
        let t = texts(
            "INSERT INTO t VALUES (1, '$5');\nSELECT $;",
            SqlDialect::Postgres,
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn backtick_identifier_hides_semicolon() {
        let t = texts("CREATE TABLE `a;b` (`x` int);", SqlDialect::MySql);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn copy_block_attached() {
        let sql = "COPY t (a, b) FROM stdin;\n1\tx\n2\ty\n\\.\nSELECT 1;\n";
        let stmts = split_statements(sql, SqlDialect::Postgres).unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].copy_data, Some("1\tx\n2\ty\n"));
        assert_eq!(stmts[1].text, "SELECT 1");
    }

    #[test]
    fn copy_data_semicolons_not_statement_ends() {
        let sql = "COPY t (a) FROM stdin;\nval; with ; semis\n\\.\n";
        let stmts = split_statements(sql, SqlDialect::Postgres).unwrap();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].copy_data, Some("val; with ; semis\n"));
    }

    #[test]
    fn unterminated_string_is_typed_error() {
        let err = split_statements("INSERT INTO t VALUES ('oops", SqlDialect::Ansi).unwrap_err();
        assert!(matches!(err, SqlError::UnterminatedString { .. }));
    }

    #[test]
    fn unterminated_comment_is_typed_error() {
        let err = split_statements("/* never closed", SqlDialect::Ansi).unwrap_err();
        assert!(matches!(err, SqlError::UnterminatedComment { .. }));
    }

    #[test]
    fn unterminated_dollar_quote_is_typed_error() {
        let err = split_statements("SELECT $tag$ open", SqlDialect::Postgres).unwrap_err();
        assert!(matches!(err, SqlError::UnterminatedDollarQuote { .. }));
    }

    #[test]
    fn unterminated_copy_is_typed_error() {
        let err =
            split_statements("COPY t (a) FROM stdin;\n1\n2\n", SqlDialect::Postgres).unwrap_err();
        assert!(matches!(err, SqlError::UnterminatedCopy { .. }));
    }

    #[test]
    fn missing_final_semicolon_still_emits() {
        let t = texts("SELECT 1;\nSELECT 2", SqlDialect::Ansi);
        assert_eq!(t, vec!["SELECT 1", "SELECT 2"]);
    }

    #[test]
    fn empty_and_stray_semicolons() {
        assert!(split_statements("", SqlDialect::Ansi).unwrap().is_empty());
        assert!(split_statements(" ;; ; \n", SqlDialect::Ansi)
            .unwrap()
            .is_empty());
    }
}
