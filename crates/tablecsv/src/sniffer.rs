//! CSV dialect detection ("sniffing").
//!
//! Python's `csv.Sniffer` — used by the GitTables pipeline (§3.3) — infers the
//! delimiter by checking which candidate character splits the sample into rows
//! of the most *consistent* width. [`Sniffer`] reimplements that idea:
//!
//! 1. For each candidate delimiter, parse a bounded sample with the full
//!    quote-aware parser.
//! 2. Score the candidate by the fraction of rows whose field count equals the
//!    modal field count, weighted by the modal width (more columns ⇒ more
//!    evidence the character really is a separator).
//! 3. Pick the best-scoring candidate; ties break by candidate priority
//!    (comma > semicolon > tab > pipe > colon).

use crate::dialect::CANDIDATE_DELIMITERS;
use crate::{Dialect, Parser};

/// Maximum number of sample rows examined when sniffing.
const SAMPLE_ROWS: usize = 64;

/// Dialect sniffer with configurable candidates.
#[derive(Debug, Clone)]
pub struct Sniffer {
    candidates: Vec<u8>,
    sample_rows: usize,
}

impl Default for Sniffer {
    fn default() -> Self {
        Sniffer {
            candidates: CANDIDATE_DELIMITERS.to_vec(),
            sample_rows: SAMPLE_ROWS,
        }
    }
}

/// The outcome of sniffing one candidate delimiter.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CandidateScore {
    delimiter: u8,
    /// Consistency in `[0, 1]`: fraction of sample rows with the modal width.
    consistency: f64,
    /// Modal number of fields per row.
    modal_width: usize,
}

impl Sniffer {
    /// Creates a sniffer with custom candidate delimiters (priority order).
    #[must_use]
    pub fn with_candidates(candidates: &[u8]) -> Self {
        Sniffer {
            candidates: candidates.to_vec(),
            ..Sniffer::default()
        }
    }

    /// Limits the number of sample rows examined.
    #[must_use]
    pub fn with_sample_rows(mut self, rows: usize) -> Self {
        self.sample_rows = rows.max(1);
        self
    }

    fn score(&self, input: &str, delimiter: u8) -> Option<CandidateScore> {
        let dialect = Dialect::with_delimiter(delimiter);
        let mut parser = Parser::new(input, dialect);
        let mut widths = Vec::with_capacity(self.sample_rows);
        for _ in 0..self.sample_rows {
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
                // Quote errors under this candidate: heavily penalized but not
                // disqualifying (the real delimiter may still parse cleanly).
                Err(_) => return None,
            }
        }
        if widths.is_empty() {
            return None;
        }
        // Modal width and its frequency.
        let mut counts = std::collections::HashMap::new();
        for &w in &widths {
            *counts.entry(w).or_insert(0usize) += 1;
        }
        let (&modal_width, &modal_count) = counts
            .iter()
            .max_by_key(|(w, c)| (**c, **w))
            .expect("non-empty");
        // A delimiter that never splits anything gives width 1; that is only
        // plausible for genuinely single-column files, so give it a floor
        // score that any real split beats.
        let consistency = modal_count as f64 / widths.len() as f64;
        Some(CandidateScore {
            delimiter,
            consistency,
            modal_width,
        })
    }

    /// Sniffs the dialect of `input`. Returns `None` when no candidate yields
    /// a consistent multi-row shape (e.g. binary junk).
    #[must_use]
    pub fn sniff(&self, input: &str) -> Option<Dialect> {
        if input.trim().is_empty() {
            return None;
        }
        let mut best: Option<(f64, usize, CandidateScore)> = None;
        for (priority, &cand) in self.candidates.iter().enumerate() {
            let Some(score) = self.score(input, cand) else {
                continue;
            };
            // Rank by (splits at all, consistency, modal width, priority).
            let splits = usize::from(score.modal_width > 1);
            let key = (
                splits as f64 * 2.0 + score.consistency * score_weight(score.modal_width),
                usize::MAX - priority,
                score,
            );
            let better = match &best {
                None => true,
                Some((k, p, _)) => (key.0, key.1) > (*k, *p),
            };
            if better {
                best = Some(key);
            }
        }
        best.map(|(_, _, s)| Dialect::with_delimiter(s.delimiter))
    }
}

/// Weight that mildly favours wider consistent tables: a candidate that
/// consistently yields 8 columns is stronger evidence than one yielding 2.
fn score_weight(modal_width: usize) -> f64 {
    1.0 + (modal_width.min(32) as f64).ln() / 8.0
}

/// Sniffs with the default candidate set. See [`Sniffer::sniff`].
#[must_use]
pub fn sniff(input: &str) -> Option<Dialect> {
    Sniffer::default().sniff(input)
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

    #[test]
    fn custom_candidates() {
        let s = Sniffer::with_candidates(b"~");
        let d = s.sniff("a~b\n1~2\n").unwrap();
        assert_eq!(d.delimiter, b'~');
    }

    #[test]
    fn sample_rows_limit() {
        let mut data = String::from("a,b\n");
        for i in 0..1000 {
            data.push_str(&format!("{i},{i}\n"));
        }
        let s = Sniffer::default().with_sample_rows(8);
        assert_eq!(s.sniff(&data).unwrap().delimiter, b',');
    }
}
