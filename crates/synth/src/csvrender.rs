//! Renders generated tables to CSV text through a configurable *mess model*.
//!
//! Real CSV files on GitHub are messy (van den Burg et al. 2019, cited in
//! §3.1): mixed delimiters, comment preambles, ragged rows, redundant
//! trailing separators. The [`MessModel`] injects exactly the defect classes
//! the parsing/curation pipeline of §3.3 must survive, at configurable rates,
//! so pipeline-rate experiments can match the paper's percentages (99.3 %
//! parseable, etc.).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::tablegen::GeneratedTable;

/// Defect-injection configuration for CSV rendering.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MessModel {
    /// Weights for delimiter choice: comma, semicolon, tab, pipe.
    pub delimiter_weights: [u32; 4],
    /// Probability of a comment/metadata preamble before the header.
    pub preamble_prob: f64,
    /// Probability that every row carries a redundant trailing separator.
    pub trailing_sep_prob: f64,
    /// Per-row probability of a "bad line" (truncated or over-long row).
    pub bad_line_prob: f64,
    /// Per-file probability of an interior blank line somewhere.
    pub blank_line_prob: f64,
    /// Probability the file is unparseable garbage (paper: 0.7 % of files).
    pub garbage_prob: f64,
    /// Probability string cells get wrapped in quotes even when unneeded.
    pub gratuitous_quote_prob: f64,
}

impl Default for MessModel {
    fn default() -> Self {
        MessModel {
            // Comma dominates on GitHub; semicolon/tab/pipe follow.
            delimiter_weights: [78, 12, 7, 3],
            preamble_prob: 0.06,
            trailing_sep_prob: 0.03,
            bad_line_prob: 0.004,
            blank_line_prob: 0.02,
            garbage_prob: 0.007,
            gratuitous_quote_prob: 0.05,
        }
    }
}

impl MessModel {
    /// A model that injects no defects (clean RFC-4180 comma CSV).
    #[must_use]
    pub fn clean() -> Self {
        MessModel {
            delimiter_weights: [1, 0, 0, 0],
            preamble_prob: 0.0,
            trailing_sep_prob: 0.0,
            bad_line_prob: 0.0,
            blank_line_prob: 0.0,
            garbage_prob: 0.0,
            gratuitous_quote_prob: 0.0,
        }
    }

    fn pick_delimiter<R: Rng>(&self, rng: &mut R) -> u8 {
        const DELIMS: [u8; 4] = [b',', b';', b'\t', b'|'];
        let total: u32 = self.delimiter_weights.iter().sum();
        let mut pick = rng.gen_range(0..total.max(1));
        for (d, w) in DELIMS.iter().zip(self.delimiter_weights) {
            if pick < w {
                return *d;
            }
            pick -= w;
        }
        b','
    }
}

/// One pass over a field's bytes: whether it needs quotes (it holds the
/// delimiter, a quote or a newline, or starts like a comment) and whether
/// it holds a letter. The delimiter is ASCII, so no byte of a multi-byte
/// character can match it; a letter beyond ASCII takes the `char` path.
fn scan_field(f: &str, delim: u8) -> (bool, bool) {
    let mut quotes = f.starts_with('#');
    let mut letter = false;
    let mut ascii = true;
    for b in f.bytes() {
        quotes |= b == delim || b == b'"' || b == b'\n';
        letter |= b.is_ascii_alphabetic();
        ascii &= b.is_ascii();
    }
    if !letter && !ascii {
        letter = f.chars().any(char::is_alphabetic);
    }
    (quotes, letter)
}

/// Appends `f` in quotes, doubling the quotes inside it.
fn push_quoted(out: &mut String, f: &str) {
    out.push('"');
    for (i, part) in f.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

fn push_field<R: Rng>(out: &mut String, f: &str, delim: u8, model: &MessModel, rng: &mut R) {
    let (quotes, letter) = scan_field(f, delim);
    // An empty field holds no letter, so it never draws.
    let force = letter && rng.gen_bool(model.gratuitous_quote_prob);
    if quotes || force {
        push_quoted(out, f);
    } else {
        out.push_str(f);
    }
}

/// Renders `table` to CSV text, injecting defects per `model`.
pub fn render_csv<R: Rng>(rng: &mut R, table: &GeneratedTable, model: &MessModel) -> String {
    if rng.gen_bool(model.garbage_prob) {
        // Unparseable content: binary-ish noise without consistent structure.
        let mut s = String::new();
        for _ in 0..rng.gen_range(3..30) {
            for _ in 0..rng.gen_range(1..60) {
                s.push((rng.gen_range(33..127u8)) as char);
            }
            s.push('\n');
        }
        return s;
    }
    let delim = model.pick_delimiter(rng);
    let delim_char = char::from(delim);
    let trailing = rng.gen_bool(model.trailing_sep_prob);
    let mut out = String::new();

    if rng.gen_bool(model.preamble_prob) {
        for _ in 0..rng.gen_range(1..4) {
            if rng.gen_bool(0.7) {
                out.push_str("# exported by data tool v");
                out.push(char::from(b'0' + rng.gen_range(1..9u8)));
                out.push('\n');
            } else {
                out.push('\n');
            }
        }
    }

    // When the whole file carries trailing separators, the header does NOT
    // (that is the paper's misalignment case: values have one extra
    // separator relative to the header).
    for (i, h) in table.header.iter().enumerate() {
        if i > 0 {
            out.push(delim_char);
        }
        if scan_field(h, delim).0 {
            push_quoted(&mut out, h);
        } else {
            out.push_str(h);
        }
    }
    out.push('\n');

    for row in table.rows.rows() {
        let bad = rng.gen_bool(model.bad_line_prob);
        let width = row.len();
        let keep = if bad && width > 1 && rng.gen_bool(0.5) {
            // Truncated row.
            rng.gen_range(1..width)
        } else {
            width
        };
        for (i, f) in row.take(keep).enumerate() {
            if i > 0 {
                out.push(delim_char);
            }
            push_field(&mut out, f, delim, model, rng);
        }
        if bad && rng.gen_bool(0.5) {
            // Over-long row: extra junk field.
            out.push(delim_char);
            out.push_str("EXTRA");
        }
        if trailing {
            out.push(delim_char);
        }
        out.push('\n');
        if rng.gen_bool(model.blank_line_prob / 10.0) {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Domain, SchemaSampler};
    use crate::tablegen::generate_table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(seed: u64) -> GeneratedTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = SchemaSampler::default().sample(&mut rng, "order", Domain::Business);
        generate_table(&mut rng, &plan)
    }

    #[test]
    fn field_scan_matches_the_char_definitions() {
        let fields = [
            "",
            "1.5",
            "-",
            "#note",
            "a#",
            "x,y",
            "x;y",
            "tab\there",
            "pipe|d",
            "say \"hi\"",
            "two\nlines",
            "42",
            "Ünïcode",
            "数字",
            "数字7",
            "½",
            "naïve,",
            "ßß",
        ];
        for f in fields {
            for delim in [b',', b';', b'\t', b'|'] {
                let d = char::from(delim);
                let quotes =
                    f.contains(d) || f.contains('"') || f.contains('\n') || f.starts_with('#');
                let letter = f.chars().any(char::is_alphabetic);
                assert_eq!(scan_field(f, delim), (quotes, letter), "{f:?} {d:?}");
            }
        }
    }

    #[test]
    fn clean_render_parses_back_exactly() {
        let t = table(1);
        let mut rng = StdRng::seed_from_u64(2);
        let csv = render_csv(&mut rng, &t, &MessModel::clean());
        let parsed = gittables_tablecsv::read_csv(&csv, &Default::default()).expect("parse back");
        assert_eq!(parsed.header, t.header);
        assert_eq!(parsed.records.len(), t.rows.len());
        assert_eq!(parsed.bad_lines, 0);
    }

    #[test]
    fn trailing_separator_realigns() {
        let t = table(3);
        let model = MessModel {
            trailing_sep_prob: 1.0,
            bad_line_prob: 0.0,
            blank_line_prob: 0.0,
            garbage_prob: 0.0,
            preamble_prob: 0.0,
            ..MessModel::clean()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let csv = render_csv(&mut rng, &t, &model);
        let parsed = gittables_tablecsv::read_csv(&csv, &Default::default()).unwrap();
        assert!(parsed.realigned);
        assert_eq!(parsed.header.len(), t.header.len());
    }

    #[test]
    fn garbage_mode_produces_noise() {
        let t = table(5);
        let model = MessModel {
            garbage_prob: 1.0,
            ..MessModel::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let csv = render_csv(&mut rng, &t, &model);
        assert!(!csv.contains(&t.header.join(",")));
    }

    #[test]
    fn preamble_emitted() {
        let t = table(7);
        let model = MessModel {
            preamble_prob: 1.0,
            ..MessModel::clean()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let csv = render_csv(&mut rng, &t, &model);
        assert!(csv.starts_with('#') || csv.starts_with('\n'));
    }

    #[test]
    fn deterministic() {
        let t = table(9);
        let m = MessModel::default();
        let mut a = StdRng::seed_from_u64(10);
        let mut b = StdRng::seed_from_u64(10);
        assert_eq!(render_csv(&mut a, &t, &m), render_csv(&mut b, &t, &m));
    }

    #[test]
    fn default_rates_mostly_parseable() {
        // With the default mess model, ≥95 % of files should parse — the
        // paper reports 99.3 %.
        let m = MessModel::default();
        let mut ok = 0;
        for seed in 0..200 {
            let t = table(seed);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let csv = render_csv(&mut rng, &t, &m);
            if gittables_tablecsv::read_csv(&csv, &Default::default()).is_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 190, "only {ok}/200 parsed");
    }
}
