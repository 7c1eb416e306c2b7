//! High-level CSV reading with the paper's §3.3 parsing & curation rules.
//!
//! [`read_csv_columns`] (and its row-major wrapper [`read_csv`]) performs,
//! in order:
//!
//! 1. **Dialect sniffing** (or uses a caller-forced dialect).
//! 2. **Preamble skipping** — leading empty lines and `#`-comment lines.
//! 3. **Header extraction** — the first surviving record is the header row.
//! 4. **Bad-line removal** — empty lines and rows whose field count deviates
//!    from the header width are discarded (and counted).
//! 5. **Trailing-delimiter realignment** — when *all* rows carry exactly one
//!    extra, empty trailing field (or the header carries one extra empty
//!    name), the redundant separator column is removed instead of declaring
//!    every row bad.
//! 6. **Rejection** of files where the bad-line fraction exceeds a threshold,
//!    reproducing the 0.7 % of files the paper could not parse into tables.
//!
//! The reader rides the parser's zero-copy path: every record is kept as
//! borrowed field spans (escaped fields land in one shared scratch buffer),
//! the keep/drop/realign decisions run over those spans, and only the cells
//! that survive are copied — once, as `&str`, onto the end of their column's
//! [`CellArena`]. No cell is ever an owned `String`: a parsed file costs two
//! buffers per column, not one allocation per cell.

use gittables_table::CellArena;

use crate::parser::bytes_blank;
use crate::{sniff, CsvError, Dialect, Parser};

/// Options controlling [`read_csv`].
#[derive(Debug, Clone)]
pub struct ReadOptions {
    /// Force a dialect instead of sniffing.
    pub dialect: Option<Dialect>,
    /// Maximum tolerated fraction of bad lines before the file is rejected.
    pub max_bad_line_fraction: f64,
    /// Maximum number of records read (guards against adversarial input).
    pub max_rows: usize,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            dialect: None,
            max_bad_line_fraction: 0.5,
            max_rows: 1_000_000,
        }
    }
}

/// The result of reading a CSV file, row-major (the historical shape).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCsv {
    /// Detected (or forced) dialect.
    pub dialect: Dialect,
    /// Header names (first row).
    pub header: Vec<String>,
    /// Data records, all exactly `header.len()` wide.
    pub records: Vec<Vec<String>>,
    /// Number of rows dropped as bad lines.
    pub bad_lines: usize,
    /// Number of preamble lines (comments/empties before the header) skipped.
    /// Comment lines are consumed silently by the parser, so this counts only
    /// the leading *empty* records.
    pub preamble_lines: usize,
    /// Whether trailing-delimiter realignment was applied.
    pub realigned: bool,
}

/// The result of reading a CSV file, column-major: `columns[j][i]` is cell
/// `(row i, column j)`. This is the zero-copy fast path — downstream table
/// construction is column-oriented, so each column's arena becomes the
/// table column's storage as is.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedColumns {
    /// Detected (or forced) dialect.
    pub dialect: Dialect,
    /// Header names (first row).
    pub header: Vec<String>,
    /// Cell values, column-major; every column has the same length.
    pub columns: Vec<CellArena>,
    /// Number of rows dropped as bad lines.
    pub bad_lines: usize,
    /// Number of leading empty records skipped before the header.
    pub preamble_lines: usize,
    /// Whether trailing-delimiter realignment was applied.
    pub realigned: bool,
}

impl ParsedColumns {
    /// Number of data rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, CellArena::len)
    }
}

/// One stored cell: a span into the original input (zero-copy path) or into
/// the reader's arena (fields that needed quote unescaping).
#[derive(Debug, Clone, Copy)]
enum CellRef {
    Input { start: usize, end: usize },
    Arena { start: usize, end: usize },
}

/// Compact row storage: all cell spans in one flat vector plus per-row end
/// offsets — no per-row `Vec`, no `String`s until the keep set is known.
#[derive(Debug, Default)]
struct RowSpans {
    cells: Vec<CellRef>,
    /// `row_ends[i]` is the end offset of row `i` in `cells`.
    row_ends: Vec<usize>,
    /// Escaped-field bytes, copied out of the parser's per-record scratch.
    arena: Vec<u8>,
}

impl RowSpans {
    fn num_rows(&self) -> usize {
        self.row_ends.len()
    }

    fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.row_ends[i - 1] };
        start..self.row_ends[i]
    }

    fn row_len(&self, i: usize) -> usize {
        self.row_range(i).len()
    }

    fn cell_bytes<'s>(&'s self, input: &'s [u8], cell: CellRef) -> &'s [u8] {
        match cell {
            CellRef::Input { start, end } => &input[start..end],
            CellRef::Arena { start, end } => &self.arena[start..end],
        }
    }

    fn push_record(&mut self, rec: &crate::parser::RawRecord<'_, '_>) {
        for i in 0..rec.len() {
            match rec.input_span(i) {
                Some((start, end)) => self.cells.push(CellRef::Input { start, end }),
                None => {
                    let start = self.arena.len();
                    self.arena.extend_from_slice(rec.field_bytes(i));
                    self.cells.push(CellRef::Arena {
                        start,
                        end: self.arena.len(),
                    });
                }
            }
        }
        self.row_ends.push(self.cells.len());
    }
}

/// Reads a CSV document applying the GitTables parsing rules, producing
/// column-major output. See the module documentation for the exact sequence.
///
/// # Errors
/// * [`CsvError::Empty`] for whitespace-only input,
/// * [`CsvError::UndetectableDialect`] when sniffing fails,
/// * [`CsvError::UnterminatedQuote`] on an unclosed quoted field,
/// * [`CsvError::NoRows`] when nothing but the header survives,
/// * [`CsvError::TooManyBadLines`] when bad rows exceed the threshold,
/// * [`CsvError::Cells`] when one column's cells exceed `u32::MAX` bytes.
pub fn read_csv_columns(input: &str, options: &ReadOptions) -> Result<ParsedColumns, CsvError> {
    // Strip a UTF-8 byte-order mark; exported CSVs from Windows tooling
    // commonly carry one and it must not become part of the first header.
    let input = input.strip_prefix('\u{feff}').unwrap_or(input);
    if input.trim().is_empty() {
        return Err(CsvError::Empty);
    }
    let dialect = match options.dialect {
        Some(d) => d,
        None => sniff(input).ok_or(CsvError::UndetectableDialect)?,
    };
    let bytes = input.as_bytes();
    let mut parser = Parser::new(input, dialect);

    // Preamble: skip leading blank records (comments are eaten by the parser).
    let mut preamble_lines = 0usize;
    let mut header: Vec<String> = loop {
        match parser.next_raw()? {
            None => return Err(CsvError::NoRows),
            Some(rec) if rec.is_blank() => preamble_lines += 1,
            Some(rec) => break rec.to_vec(),
        }
    };
    let width = header.len();

    let mut rows = RowSpans::default();
    let mut empty_lines = 0usize;
    while let Some(rec) = parser.next_raw()? {
        if rows.num_rows() >= options.max_rows {
            break;
        }
        if rec.is_blank() {
            empty_lines += 1;
            continue;
        }
        rows.push_record(&rec);
    }

    // Trailing-delimiter realignment (paper §3.3): all data rows one wider
    // than the header with an empty last field ⇒ drop that field; or header
    // one wider than all rows with an empty last name ⇒ drop that name.
    let n = rows.num_rows();
    let mut realigned = false;
    let mut drop_last_cell = false;
    if n > 0 {
        let all_one_wider = (0..n).all(|i| {
            let r = rows.row_range(i);
            r.len() == width + 1 && bytes_blank(rows.cell_bytes(bytes, rows.cells[r.end - 1]))
        });
        if all_one_wider {
            drop_last_cell = true;
            realigned = true;
        } else if width >= 2
            && header.last().is_some_and(|h| h.trim().is_empty())
            && (0..n).all(|i| rows.row_len(i) == width - 1)
        {
            header.pop();
            realigned = true;
        }
    }
    let width = header.len();

    // Bad-line removal + materialization: only cells of kept rows are
    // copied, each onto the end of its column's arena.
    let mut bad_lines = 0usize;
    let mut columns: Vec<CellArena> = (0..width).map(|_| CellArena::with_capacity(n, 0)).collect();
    for i in 0..n {
        let r = rows.row_range(i);
        let effective_len = r.len() - usize::from(drop_last_cell);
        if effective_len == width {
            for (j, &cell) in rows.cells[r].iter().take(width).enumerate() {
                // An input span lies on `char` boundaries unless the dialect
                // forced a non-ASCII byte next to it; that case and escaped
                // fields decode lossily.
                let text = match cell {
                    CellRef::Input { start, end } => input.get(start..end),
                    CellRef::Arena { .. } => None,
                };
                match text {
                    Some(text) => columns[j].push(text)?,
                    None => {
                        columns[j].push(&String::from_utf8_lossy(rows.cell_bytes(bytes, cell)))?
                    }
                }
            }
        } else {
            bad_lines += 1;
        }
    }
    bad_lines += empty_lines;

    let kept = columns.first().map_or(0, CellArena::len);
    let total = kept + bad_lines;
    if total > 0 && bad_lines as f64 / total as f64 > options.max_bad_line_fraction {
        return Err(CsvError::TooManyBadLines {
            bad: bad_lines,
            total,
        });
    }
    if kept == 0 {
        return Err(CsvError::NoRows);
    }
    Ok(ParsedColumns {
        dialect,
        header,
        columns,
        bad_lines,
        preamble_lines,
        realigned,
    })
}

/// Reads a CSV document applying the GitTables parsing rules, producing the
/// historical row-major records. Thin transposing wrapper over
/// [`read_csv_columns`]; this is where cells become owned `String`s.
///
/// # Errors
/// Same as [`read_csv_columns`].
pub fn read_csv(input: &str, options: &ReadOptions) -> Result<ParsedCsv, CsvError> {
    let parsed = read_csv_columns(input, options)?;
    let nrows = parsed.num_rows();
    let mut records: Vec<Vec<String>> = (0..nrows)
        .map(|_| Vec::with_capacity(parsed.header.len()))
        .collect();
    for col in &parsed.columns {
        for (record, v) in records.iter_mut().zip(col) {
            record.push(v.to_string());
        }
    }
    Ok(ParsedCsv {
        dialect: parsed.dialect,
        header: parsed.header,
        records,
        bad_lines: parsed.bad_lines,
        preamble_lines: parsed.preamble_lines,
        realigned: parsed.realigned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(s: &str) -> ParsedCsv {
        read_csv(s, &ReadOptions::default()).unwrap()
    }

    #[test]
    fn basic() {
        let p = read("a,b\n1,2\n3,4\n");
        assert_eq!(p.header, vec!["a", "b"]);
        assert_eq!(p.records.len(), 2);
        assert_eq!(p.bad_lines, 0);
    }

    #[test]
    fn preamble_comments_and_blanks() {
        let p = read("# generated\n\n# more\na,b\n1,2\n");
        assert_eq!(p.header, vec!["a", "b"]);
        assert_eq!(p.preamble_lines, 1); // the blank line
        assert_eq!(p.records.len(), 1);
    }

    #[test]
    fn bad_lines_dropped() {
        let p = read("a,b\n1,2\n1,2,3\nonly_one\n3,4\n");
        assert_eq!(p.records.len(), 2);
        assert_eq!(p.bad_lines, 2);
    }

    #[test]
    fn interior_empty_lines_counted_bad() {
        let p = read("a,b\n1,2\n\n3,4\n");
        assert_eq!(p.records.len(), 2);
        assert_eq!(p.bad_lines, 1);
    }

    #[test]
    fn trailing_delimiter_realignment_rows() {
        // Every data row ends with a redundant separator.
        let p = read("a,b\n1,2,\n3,4,\n");
        assert!(p.realigned);
        assert_eq!(p.records, vec![vec!["1", "2"], vec!["3", "4"]]);
        assert_eq!(p.bad_lines, 0);
    }

    #[test]
    fn trailing_delimiter_realignment_header() {
        // Header ends with a redundant separator instead.
        let p = read_csv(
            "a,b,\n1,2\n3,4\n",
            &ReadOptions {
                dialect: Some(Dialect::default()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(p.realigned);
        assert_eq!(p.header, vec!["a", "b"]);
        assert_eq!(p.records.len(), 2);
    }

    #[test]
    fn no_realignment_when_inconsistent() {
        // Only one of two rows has the trailing separator: that row is bad.
        let p = read("a,b\n1,2,\n3,4\n");
        assert!(!p.realigned);
        assert_eq!(p.records.len(), 1);
        assert_eq!(p.bad_lines, 1);
    }

    #[test]
    fn too_many_bad_lines_rejected() {
        let opts = ReadOptions {
            dialect: Some(Dialect::default()),
            ..Default::default()
        };
        let err = read_csv("a,b\n1\n2\n3\n1,2\n", &opts).unwrap_err();
        assert!(matches!(
            err,
            CsvError::TooManyBadLines { bad: 3, total: 4 }
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            read_csv("", &ReadOptions::default()).unwrap_err(),
            CsvError::Empty
        );
        assert_eq!(
            read_csv("  \n ", &ReadOptions::default()).unwrap_err(),
            CsvError::Empty
        );
    }

    #[test]
    fn header_only_rejected() {
        let err = read_csv("a,b\n", &ReadOptions::default()).unwrap_err();
        assert_eq!(err, CsvError::NoRows);
    }

    #[test]
    fn forced_dialect() {
        let opts = ReadOptions {
            dialect: Some(Dialect::semicolon()),
            ..Default::default()
        };
        let p = read_csv("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(p.header, vec!["a", "b"]);
    }

    #[test]
    fn sniffed_semicolon() {
        let p = read("x;y;z\n1;2;3\n4;5;6\n");
        assert_eq!(p.dialect.delimiter, b';');
        assert_eq!(p.records.len(), 2);
    }

    #[test]
    fn max_rows_cap() {
        let mut s = String::from("a,b\n");
        for i in 0..100 {
            s.push_str(&format!("{i},{i}\n"));
        }
        let opts = ReadOptions {
            max_rows: 10,
            ..Default::default()
        };
        let p = read_csv(&s, &opts).unwrap();
        assert_eq!(p.records.len(), 10);
    }

    #[test]
    fn utf8_bom_stripped() {
        let p = read("\u{feff}id,name\n1,a\n2,b\n");
        assert_eq!(p.header[0], "id");
        assert_eq!(p.records.len(), 2);
    }

    #[test]
    fn quoted_fields_survive() {
        let p = read("name,notes\n\"Doe, Jane\",\"says \"\"hi\"\"\"\nBob,ok\n");
        assert_eq!(p.records[0][0], "Doe, Jane");
        assert_eq!(p.records[0][1], "says \"hi\"");
    }

    #[test]
    fn columns_match_records() {
        let s = "a,b\n1,2\nx,\n\"q\"\"z\",w\n";
        let rows = read(s);
        let cols = read_csv_columns(s, &ReadOptions::default()).unwrap();
        assert_eq!(cols.header, rows.header);
        assert_eq!(cols.num_rows(), rows.records.len());
        for (i, rec) in rows.records.iter().enumerate() {
            for (j, v) in rec.iter().enumerate() {
                assert_eq!(&cols.columns[j][i], v);
            }
        }
        assert_eq!(cols.bad_lines, rows.bad_lines);
        assert_eq!(cols.realigned, rows.realigned);
    }

    /// Cells as owned strings, column-major.
    fn cells(p: &ParsedColumns) -> Vec<Vec<String>> {
        p.columns
            .iter()
            .map(|c| c.iter().map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn forced_non_ascii_delimiter_splits_characters_lossily() {
        // 0xC3 is the first byte of `é`: every split lands mid-character,
        // and the orphaned continuation byte decodes to U+FFFD.
        let opts = ReadOptions {
            dialect: Some(Dialect::with_delimiter(0xC3)),
            ..Default::default()
        };
        let p = read_csv_columns("aéb\ncéd\nxéy\n", &opts).unwrap();
        assert_eq!(p.header, vec!["a", "\u{fffd}b"]);
        assert_eq!(
            cells(&p),
            vec![vec!["c", "x"], vec!["\u{fffd}d", "\u{fffd}y"]]
        );
    }

    #[test]
    fn forced_non_ascii_quote_keeps_lossy_cells() {
        // A quote byte of 0xC3 opens on `é`'s first byte and closes on the
        // next `é`'s; the continuation byte after it is trailing junk.
        let opts = ReadOptions {
            dialect: Some(Dialect {
                quote: 0xC3,
                ..Dialect::default()
            }),
            ..Default::default()
        };
        let p = read_csv_columns("éaé,x\néqé,2\nn,€\n", &opts).unwrap();
        assert_eq!(p.header, vec!["\u{fffd}a\u{fffd}", "x"]);
        assert_eq!(
            cells(&p),
            vec![vec!["\u{fffd}q\u{fffd}", "n"], vec!["2", "€"]]
        );
    }

    #[test]
    fn columns_realignment_drops_trailing_cell() {
        let p = read_csv_columns("a,b\n1,2,\n3,4,\n", &ReadOptions::default()).unwrap();
        assert!(p.realigned);
        let columns: Vec<Vec<&str>> = p.columns.iter().map(|c| c.iter().collect()).collect();
        assert_eq!(columns, vec![vec!["1", "3"], vec!["2", "4"]]);
    }
}
