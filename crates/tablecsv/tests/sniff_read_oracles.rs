//! Differential tests pinning the sniffer and the column reader to the
//! versions they replaced, on adversarial documents: every candidate
//! delimiter inside and outside quotes, doubled quotes, trailing junk,
//! unterminated quotes, comments, blank lines, CR/LF/CRLF mixes, non-ASCII
//! text, and documents longer than the sniffer's sample.
//!
//! The reference implementations below are copies of the previous code,
//! kept only as oracles: a sniffer that parses the sample once per
//! candidate, and a reader that decodes every kept cell with
//! `String::from_utf8_lossy`.

use std::collections::HashMap;

use gittables_table::CellArena;
use gittables_tablecsv::dialect::CANDIDATE_DELIMITERS;
use gittables_tablecsv::{
    read_csv_columns, sniff, CsvError, Dialect, ParsedColumns, Parser, ReadOptions,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference: the five-parse sniffer.
// ---------------------------------------------------------------------------

fn ref_score(input: &str, delimiter: u8) -> Option<(f64, usize)> {
    let mut parser = Parser::new(input, Dialect::with_delimiter(delimiter));
    let mut widths = Vec::new();
    for _ in 0..64 {
        match parser.next_raw() {
            Ok(Some(rec)) => {
                if !(rec.len() == 1 && rec.is_blank()) {
                    widths.push(rec.len());
                }
            }
            Ok(None) => break,
            Err(_) => return None,
        }
    }
    if widths.is_empty() {
        return None;
    }
    let mut counts = HashMap::new();
    for &w in &widths {
        *counts.entry(w).or_insert(0usize) += 1;
    }
    let (&modal_width, &modal_count) = counts
        .iter()
        .max_by_key(|(w, c)| (**c, **w))
        .expect("non-empty");
    Some((modal_count as f64 / widths.len() as f64, modal_width))
}

fn ref_sniff(input: &str) -> Option<Dialect> {
    if input.trim().is_empty() {
        return None;
    }
    let mut best: Option<(f64, usize, u8)> = None;
    for (priority, &cand) in CANDIDATE_DELIMITERS.iter().enumerate() {
        let Some((consistency, modal_width)) = ref_score(input, cand) else {
            continue;
        };
        let splits = usize::from(modal_width > 1);
        let weight = 1.0 + (modal_width.min(32) as f64).ln() / 8.0;
        let key = (
            splits as f64 * 2.0 + consistency * weight,
            usize::MAX - priority,
        );
        if best.is_none_or(|(k, p, _)| key > (k, p)) {
            best = Some((key.0, key.1, cand));
        }
    }
    best.map(|(_, _, d)| Dialect::with_delimiter(d))
}

// ---------------------------------------------------------------------------
// Reference: the reader that decoded every kept cell lossily.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum CellRef {
    Input { start: usize, end: usize },
    Arena { start: usize, end: usize },
}

fn ref_read_csv_columns(input: &str, options: &ReadOptions) -> Result<ParsedColumns, CsvError> {
    let input = input.strip_prefix('\u{feff}').unwrap_or(input);
    if input.trim().is_empty() {
        return Err(CsvError::Empty);
    }
    let dialect = match options.dialect {
        Some(d) => d,
        None => ref_sniff(input).ok_or(CsvError::UndetectableDialect)?,
    };
    let bytes = input.as_bytes();
    let mut parser = Parser::new(input, dialect);
    let mut preamble_lines = 0usize;
    let mut header: Vec<String> = loop {
        match parser.next_raw()? {
            None => return Err(CsvError::NoRows),
            Some(rec) if rec.is_blank() => preamble_lines += 1,
            Some(rec) => break rec.to_vec(),
        }
    };
    let width = header.len();

    let mut rows: Vec<Vec<CellRef>> = Vec::new();
    let mut arena: Vec<u8> = Vec::new();
    let mut empty_lines = 0usize;
    while let Some(rec) = parser.next_raw()? {
        if rows.len() >= options.max_rows {
            break;
        }
        if rec.is_blank() {
            empty_lines += 1;
            continue;
        }
        let row = (0..rec.len())
            .map(|i| match rec.input_span(i) {
                Some((start, end)) => CellRef::Input { start, end },
                None => {
                    let start = arena.len();
                    arena.extend_from_slice(rec.field_bytes(i));
                    CellRef::Arena {
                        start,
                        end: arena.len(),
                    }
                }
            })
            .collect();
        rows.push(row);
    }
    let cell_bytes = |cell: CellRef| match cell {
        CellRef::Input { start, end } => &bytes[start..end],
        CellRef::Arena { start, end } => &arena[start..end],
    };
    let blank = |b: &[u8]| String::from_utf8_lossy(b).trim().is_empty();

    let n = rows.len();
    let mut realigned = false;
    let mut drop_last_cell = false;
    if n > 0 {
        if rows
            .iter()
            .all(|r| r.len() == width + 1 && blank(cell_bytes(r[width])))
        {
            drop_last_cell = true;
            realigned = true;
        } else if width >= 2
            && header.last().is_some_and(|h| h.trim().is_empty())
            && rows.iter().all(|r| r.len() == width - 1)
        {
            header.pop();
            realigned = true;
        }
    }
    let width = header.len();

    let mut bad_lines = 0usize;
    let mut columns: Vec<CellArena> = (0..width).map(|_| CellArena::new()).collect();
    for r in &rows {
        if r.len() - usize::from(drop_last_cell) == width {
            for (j, &cell) in r.iter().take(width).enumerate() {
                columns[j].push(&String::from_utf8_lossy(cell_bytes(cell)))?;
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

// ---------------------------------------------------------------------------
// Input generation.
// ---------------------------------------------------------------------------

fn ending_for(idx: usize) -> &'static str {
    match idx % 4 {
        0 | 3 => "\n",
        1 => "\r\n",
        _ => "\r",
    }
}

/// Renders one field. Payloads may hold every candidate delimiter, quotes,
/// CR, LF and `é`; the kinds decide how much of that reaches the wire
/// unquoted.
fn render_field(kind: usize, payload: &str, delim: char) -> String {
    match kind % 7 {
        0 | 1 => payload.replace([delim, '"', '\r', '\n'], "_"), // plain
        2 => format!("\"{}\"", payload.replace('"', "\"\"")),    // clean quoted
        3 => format!(
            "\"{}\"x{}",
            payload.replace('"', "\"\""),
            payload.replace(delim, "_")
        ), // trailing junk
        4 => String::new(),
        5 => " ".repeat(payload.len().min(3)),
        _ => payload.to_string(), // raw soup: may open an unterminated quote
    }
}

/// A document: rows of fields joined by `delim`, with comment and blank
/// rows mixed in, the whole body repeated `copies` times so that some
/// documents run past the sniffer's 64-row sample.
#[allow(clippy::type_complexity)]
fn render_csv(spec: &[(usize, Vec<(usize, String)>)], delim: char, copies: usize) -> String {
    let mut body = String::new();
    for (row_kind, fields) in spec {
        match row_kind % 8 {
            6 => body.push_str("  # a comment, with; every|candidate:\t"),
            7 => {}
            _ => {
                let rendered: Vec<String> = fields
                    .iter()
                    .map(|(kind, payload)| render_field(*kind, payload, delim))
                    .collect();
                body.push_str(&rendered.join(&delim.to_string()));
            }
        }
        body.push_str(ending_for(*row_kind));
    }
    body.repeat(copies)
}

fn delimiter_for(idx: usize) -> char {
    CANDIDATE_DELIMITERS[idx % CANDIDATE_DELIMITERS.len()] as char
}

/// `None` sniffs; the others force a candidate, or a non-ASCII delimiter
/// or quote byte that splits `é`.
fn options_for(idx: usize, delim: char) -> ReadOptions {
    let dialect = match idx % 5 {
        0 | 1 => None,
        2 => Some(Dialect::with_delimiter(delim as u8)),
        3 => Some(Dialect::with_delimiter(0xC3)),
        _ => Some(Dialect {
            quote: 0xC3,
            ..Dialect::default()
        }),
    };
    ReadOptions {
        dialect,
        ..ReadOptions::default()
    }
}

fn spec_strategy() -> impl Strategy<Value = Vec<(usize, Vec<(usize, String)>)>> {
    proptest::collection::vec(
        (
            0usize..8,
            proptest::collection::vec((0usize..7, "[a-z0-9 ,;:|\t\"\r\né]{0,8}"), 1..6),
        ),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Structured documents: the sniffer that parses each class of absent
    /// candidates once picks what the five-parse sniffer picked.
    #[test]
    fn sniff_matches_five_parses(
        spec in spec_strategy(),
        delim_idx in 0usize..5,
        copies in 1usize..12,
    ) {
        let input = render_csv(&spec, delimiter_for(delim_idx), copies);
        prop_assert_eq!(sniff(&input), ref_sniff(&input), "input {:?}", input);
    }

    /// Unstructured soup: candidates, quotes and line ends anywhere.
    #[test]
    fn sniff_matches_five_parses_on_soup(input in "[a-z0-9,;:|\t\"# é\r\n]{0,160}") {
        prop_assert_eq!(sniff(&input), ref_sniff(&input), "input {:?}", input);
    }

    /// The reader that slices kept cells out of the input reproduces the
    /// reader that decoded each one: header, cells, counts and errors.
    #[test]
    fn reader_matches_lossy_reader(
        spec in spec_strategy(),
        delim_idx in 0usize..5,
        copies in 1usize..12,
        options_idx in 0usize..5,
    ) {
        let delim = delimiter_for(delim_idx);
        let input = render_csv(&spec, delim, copies);
        let options = options_for(options_idx, delim);
        prop_assert_eq!(
            read_csv_columns(&input, &options),
            ref_read_csv_columns(&input, &options),
            "input {:?}",
            input
        );
    }

    #[test]
    fn reader_matches_lossy_reader_on_soup(
        input in "[a-z0-9,;:|\t\"# é\r\n]{0,160}",
        options_idx in 0usize..5,
    ) {
        let options = options_for(options_idx, ',');
        prop_assert_eq!(
            read_csv_columns(&input, &options),
            ref_read_csv_columns(&input, &options),
            "input {:?}",
            input
        );
    }
}
