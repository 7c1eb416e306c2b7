//! CSV dialect detection ("sniffing").
//!
//! Python's `csv.Sniffer` — used by the GitTables pipeline (§3.3) — infers the
//! delimiter by checking which candidate character splits the sample into rows
//! of the most *consistent* width. [`sniff`] reimplements that idea:
//!
//! 1. For each candidate delimiter, parse a bounded sample with the full
//!    quote-aware parser.
//! 2. Score the candidate by the fraction of rows whose field count equals the
//!    modal field count, weighted by the modal width (more columns ⇒ more
//!    evidence the character really is a separator).
//! 3. Pick the best-scoring candidate; ties break by candidate priority
//!    (comma > semicolon > tab > pipe > colon).
//!
//! A candidate byte that occurs nowhere in the bytes its parse consumed
//! never steered that parse: the records, widths and errors are those of
//! any other candidate that occurs nowhere there, and so is the score. So
//! the first such candidate stands for the whole class, and a later
//! candidate absent from the same prefix is not parsed: it would tie, and a
//! tie goes to the earlier candidate. Typically two or three of the five
//! candidates are parsed.

use crate::dialect::CANDIDATE_DELIMITERS;
use crate::scan::memchr;
use crate::{Dialect, Parser};

/// Maximum number of sample rows examined when sniffing.
const SAMPLE_ROWS: usize = 64;

/// The outcome of sniffing one candidate delimiter.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CandidateScore {
    /// Consistency in `[0, 1]`: fraction of sample rows with the modal width.
    consistency: f64,
    /// Modal number of fields per row.
    modal_width: usize,
}

/// Parses the sample under `delimiter`. Returns its score, `None` when a
/// quote never closes or no row has a shape, and the length of the input
/// prefix whose bytes the parse compared with the delimiter.
fn score(input: &str, delimiter: u8) -> (Option<CandidateScore>, usize) {
    let mut parser = Parser::new(input, Dialect::with_delimiter(delimiter));
    let mut widths = Vec::with_capacity(SAMPLE_ROWS);
    for _ in 0..SAMPLE_ROWS {
        // Borrowed records: sniffing only needs row shapes, so no field
        // is ever materialized while scoring candidates.
        match parser.next_raw() {
            Ok(Some(rec)) => {
                // Ignore blank lines for shape statistics.
                if !(rec.len() == 1 && rec.is_blank()) {
                    widths.push(rec.len());
                }
            }
            Ok(None) => break,
            // A quote error under this candidate disqualifies it; the real
            // delimiter may still parse cleanly. The parser rests on the
            // opening quote, and past it compared bytes with the quote only.
            Err(_) => return (None, parser.offset()),
        }
    }
    let consumed = parser.offset();
    if widths.is_empty() {
        return (None, consumed);
    }
    // Modal width and its frequency; a tie goes to the wider shape.
    widths.sort_unstable();
    let (mut modal_width, mut modal_count) = (0, 0);
    for run in widths.chunk_by(|a, b| a == b) {
        if run.len() >= modal_count {
            (modal_width, modal_count) = (run[0], run.len());
        }
    }
    // A delimiter that never splits anything gives width 1; that is only
    // plausible for genuinely single-column files, so give it a floor
    // score that any real split beats.
    let consistency = modal_count as f64 / widths.len() as f64;
    let score = CandidateScore {
        consistency,
        modal_width,
    };
    (Some(score), consumed)
}

/// Sniffs the dialect of `input`. Returns `None` when no candidate yields
/// a consistent multi-row shape (e.g. binary junk).
#[must_use]
pub fn sniff(input: &str) -> Option<Dialect> {
    if input.trim().is_empty() {
        return None;
    }
    let bytes = input.as_bytes();
    let mut best: Option<(f64, u8)> = None;
    // The prefix consumed by the first candidate that occurs nowhere in it.
    let mut absent_prefix: Option<usize> = None;
    for &cand in CANDIDATE_DELIMITERS {
        if absent_prefix.is_some_and(|end| memchr(cand, &bytes[..end]).is_none()) {
            continue;
        }
        let (score, consumed) = score(input, cand);
        if absent_prefix.is_none() && memchr(cand, &bytes[..consumed]).is_none() {
            absent_prefix = Some(consumed);
        }
        let Some(score) = score else {
            continue;
        };
        // Rank by (splits at all, consistency, modal width); candidates
        // come in priority order, so a tie keeps the earlier one.
        let splits = usize::from(score.modal_width > 1);
        let key = splits as f64 * 2.0 + score.consistency * score_weight(score.modal_width);
        if best.is_none_or(|(k, _)| key > k) {
            best = Some((key, cand));
        }
    }
    best.map(|(_, delimiter)| Dialect::with_delimiter(delimiter))
}

/// Weight that mildly favours wider consistent tables: a candidate that
/// consistently yields 8 columns is stronger evidence than one yielding 2.
fn score_weight(modal_width: usize) -> f64 {
    1.0 + (modal_width.min(32) as f64).ln() / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comma() {
        let d = sniff("a,b,c\n1,2,3\n4,5,6\n").unwrap();
        assert_eq!(d.delimiter, b',');
    }

    #[test]
    fn semicolon() {
        let d = sniff("a;b;c\n1;2;3\n").unwrap();
        assert_eq!(d.delimiter, b';');
    }

    #[test]
    fn tab() {
        let d = sniff("a\tb\n1\t2\n").unwrap();
        assert_eq!(d.delimiter, b'\t');
    }

    #[test]
    fn pipe() {
        let d = sniff("a|b|c\n1|2|3\n").unwrap();
        assert_eq!(d.delimiter, b'|');
    }

    #[test]
    fn delimiter_inside_quotes_not_confused() {
        // Commas appear often inside quoted text but the real separator is ';'.
        let data = "name;notes\n\"a, b, c\";x\n\"d, e, f\";y\n\"g, h\";z\n";
        let d = sniff(data).unwrap();
        assert_eq!(d.delimiter, b';');
    }

    #[test]
    fn empty_input() {
        assert!(sniff("").is_none());
        assert!(sniff("   \n  ").is_none());
    }

    #[test]
    fn single_column_file_defaults_to_comma() {
        // No candidate splits; sniffing still succeeds with the priority
        // choice so genuinely single-column files parse.
        let d = sniff("value\n1\n2\n3\n").unwrap();
        assert_eq!(d.delimiter, b',');
    }

    #[test]
    fn prefers_consistent_over_frequent() {
        // ':' appears 6x in the time column; ';' splits consistently 2-wide.
        let data = "time;event\n10:00:01;start\n10:00:02;stop\n10:00:03;start\n";
        let d = sniff(data).unwrap();
        assert_eq!(d.delimiter, b';');
    }

    #[test]
    fn ragged_penalized() {
        // Comma splits into consistent 3 columns; pipe appears once.
        let data = "a,b,c|x\n1,2,3\n4,5,6\n7,8,9\n";
        assert_eq!(sniff(data).unwrap().delimiter, b',');
    }
}
