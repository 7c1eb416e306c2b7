//! Atomic data type inference for cell values and columns.
//!
//! GitTables reports the distribution of *atomic* data types (Table 4 in the
//! paper): numeric vs. string vs. other. We infer a finer-grained
//! [`AtomicType`] per value (integer, float, boolean, date, string, empty) and
//! aggregate to a column-level type by majority voting over non-empty cells,
//! which is how Pandas-style readers decide column dtypes in practice.

use serde::{Deserialize, Serialize};

/// The atomic (syntactic) data type of a cell value or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AtomicType {
    /// Integral number, e.g. `42`, `-7`, `1_000` is *not* accepted.
    Integer,
    /// Floating point number, e.g. `3.14`, `1e-3`, `-0.5`.
    Float,
    /// Boolean-like token: `true`/`false`/`yes`/`no`/`t`/`f` (case-insensitive).
    Boolean,
    /// A calendar date or timestamp in one of the common CSV formats.
    Date,
    /// Any other non-empty text.
    String,
    /// Empty cell or a conventional missing-data marker (`nan`, `null`, `NA`, …).
    Empty,
}

impl AtomicType {
    /// Whether this type counts as "numeric" for the paper's Table 4 buckets.
    #[must_use]
    pub fn is_numeric(self) -> bool {
        matches!(self, AtomicType::Integer | AtomicType::Float)
    }

    /// Whether this type counts as "string" for the paper's Table 4 buckets.
    ///
    /// Dates and booleans are included: CSV readers in the Pandas family
    /// leave unparsed dates and boolean-ish tokens as `object` (string)
    /// dtype, which is the atomic-type notion Table 4 reports. The "other"
    /// bucket is then all-empty columns.
    #[must_use]
    pub fn is_string(self) -> bool {
        matches!(
            self,
            AtomicType::String | AtomicType::Date | AtomicType::Boolean
        )
    }

    /// Human-readable lowercase name, matching the ontology's atomic labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AtomicType::Integer => "integer",
            AtomicType::Float => "float",
            AtomicType::Boolean => "boolean",
            AtomicType::Date => "date",
            AtomicType::String => "string",
            AtomicType::Empty => "empty",
        }
    }
}

impl std::fmt::Display for AtomicType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Conventional missing-data markers treated as empty cells.
const MISSING_MARKERS: &[&str] = &[
    "", "nan", "null", "none", "na", "n/a", "-", "--", "?", "missing", "nil",
];

/// Boolean-like tokens, lowercase.
const BOOLEAN_TOKENS: &[&str] = &["true", "false", "yes", "no", "t", "f"];

/// Byte length of the longest of `tokens`.
const fn longest(tokens: &[&str]) -> usize {
    let mut max = 0;
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].len() > max {
            max = tokens[i].len();
        }
        i += 1;
    }
    max
}

/// Whether `v` is one of `tokens` up to ASCII case. The length gate turns
/// away almost every real cell before any comparison runs.
fn is_token(v: &str, tokens: &[&str], longest: usize) -> bool {
    v.len() <= longest && tokens.iter().any(|t| v.eq_ignore_ascii_case(t))
}

fn is_missing_trimmed(v: &str) -> bool {
    const LONGEST: usize = longest(MISSING_MARKERS);
    is_token(v, MISSING_MARKERS, LONGEST)
}

/// Returns `true` if `value` is empty or a conventional missing-data marker.
#[must_use]
pub fn is_missing(value: &str) -> bool {
    is_missing_trimmed(value.trim())
}

fn is_integer(v: &str) -> bool {
    let v = v.strip_prefix(['+', '-']).unwrap_or(v);
    !v.is_empty() && v.len() <= 19 && v.bytes().all(|b| b.is_ascii_digit())
}

fn is_float(v: &str) -> bool {
    // Must contain at least one digit; `parse::<f64>` also accepts "inf"/"NaN"
    // but `infer_value_type`'s byte check has turned those away.
    v.bytes().any(|b| b.is_ascii_digit()) && v.parse::<f64>().is_ok()
}

fn is_boolean(v: &str) -> bool {
    const LONGEST: usize = longest(BOOLEAN_TOKENS);
    is_token(v, BOOLEAN_TOKENS, LONGEST)
}

fn valid_month_day(month: u32, day: u32) -> bool {
    (1..=12).contains(&month) && (1..=31).contains(&day)
}

/// Detects common date and timestamp layouts:
/// `YYYY-MM-DD`, `DD-MM-YYYY`, `MM/DD/YYYY`, `YYYY/MM/DD`, optionally followed
/// by a `HH:MM[:SS]` time component separated by a space or `T`.
///
/// Works on bytes: every byte it accepts is ASCII, and no byte of a
/// multi-byte character is, so such a character always fails the match.
#[must_use]
pub fn is_date(v: &str) -> bool {
    let bytes = v.as_bytes();
    // Split off an optional time suffix at the first space or `T`.
    let date = match bytes.iter().position(|&b| b == b' ' || b == b'T') {
        Some(at) => {
            if !is_time(&bytes[at + 1..]) {
                return false;
            }
            &bytes[..at]
        }
        None => bytes,
    };
    if date.len() < 8 || date.len() > 10 {
        return false;
    }
    // Three non-empty digit runs joined by one separator used twice, in at
    // most ten bytes: no run of a date exceeds six digits, so a seventh
    // digit rejects the cell before any part can overflow.
    let mut parts = [0u32; 3];
    let mut part = 0;
    let mut run = 0;
    let mut sep = 0u8;
    for &b in date {
        match b {
            b'0'..=b'9' if run < 6 => {
                parts[part] = parts[part] * 10 + u32::from(b - b'0');
                run += 1;
            }
            b'-' | b'/' | b'.' if run > 0 && part < 2 && (sep == 0 || sep == b) => {
                sep = b;
                part += 1;
                run = 0;
            }
            _ => return false,
        }
    }
    if part != 2 || run == 0 {
        return false;
    }
    let [a, b, c] = parts;
    // YYYY-MM-DD / YYYY/MM/DD
    if (1000..=2999).contains(&a) && valid_month_day(b, c) {
        return true;
    }
    // DD-MM-YYYY / MM/DD/YYYY
    (1000..=2999).contains(&c) && (valid_month_day(b, a) || valid_month_day(a, b))
}

/// `HH:MM` or `HH:MM:SS`, the seconds optionally followed by `Z`s.
fn is_time(t: &[u8]) -> bool {
    let two = |x: &[u8], max: u8| {
        x[0].is_ascii_digit() && x[1].is_ascii_digit() && (x[0] - b'0') * 10 + (x[1] - b'0') <= max
    };
    match t.len() {
        5 => two(t, 23) && t[2] == b':' && two(&t[3..], 59),
        8.. => {
            two(t, 23)
                && t[2] == b':'
                && two(&t[3..], 59)
                && t[5] == b':'
                && two(&t[6..], 59)
                && t[8..].iter().all(|&b| b == b'Z')
        }
        _ => false,
    }
}

/// Whether `b` may appear in a number or a timestamp.
fn in_number_or_date(b: u8) -> bool {
    matches!(
        b,
        b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E' | b' ' | b':' | b'T' | b'Z' | b'/'
    )
}

/// Infers the [`AtomicType`] of a single cell value.
///
/// A cell holding a byte that no number or timestamp holds skips the
/// number and date checks.
#[must_use]
pub fn infer_value_type(value: &str) -> AtomicType {
    // `trim` is a no-op when both ends are visible ASCII, as nearly all are.
    let v = match value.as_bytes() {
        [first, .., last] if first.is_ascii_graphic() && last.is_ascii_graphic() => value,
        [only] if only.is_ascii_graphic() => value,
        _ => value.trim(),
    };
    if is_missing_trimmed(v) {
        AtomicType::Empty
    } else if !v.bytes().all(in_number_or_date) {
        if is_boolean(v) {
            AtomicType::Boolean
        } else {
            AtomicType::String
        }
    } else if is_integer(v) {
        AtomicType::Integer
    } else if is_float(v) {
        AtomicType::Float
    } else if is_boolean(v) {
        AtomicType::Boolean
    } else if is_date(v) {
        AtomicType::Date
    } else {
        AtomicType::String
    }
}

/// Infers the column-level type by majority vote over non-empty cells.
///
/// Mixed integer/float columns resolve to [`AtomicType::Float`] (matching
/// Pandas' promotion rules); columns whose cells are all empty resolve to
/// [`AtomicType::Empty`]. Ties are broken in favour of [`AtomicType::String`]
/// since any value can be read as a string.
#[must_use]
pub fn infer_column_type<I>(values: I) -> AtomicType
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut counts = [0usize; 6];
    for v in values {
        let t = infer_value_type(v.as_ref());
        counts[t as usize] += 1;
    }
    let non_empty: usize = counts[..5].iter().sum();
    if non_empty == 0 {
        return AtomicType::Empty;
    }
    let int_f = counts[AtomicType::Integer as usize] + counts[AtomicType::Float as usize];
    // Numeric promotion: if numeric cells dominate, the column is numeric.
    if int_f * 2 > non_empty {
        return if counts[AtomicType::Float as usize] > 0 {
            AtomicType::Float
        } else {
            AtomicType::Integer
        };
    }
    let candidates = [AtomicType::Boolean, AtomicType::Date, AtomicType::String];
    let mut best = AtomicType::String;
    let mut best_count = 0usize;
    for t in candidates {
        let c = counts[t as usize];
        if c > best_count {
            best = t;
            best_count = c;
        }
    }
    if int_f > best_count {
        // Numeric plurality but not majority: still numeric by plurality.
        if counts[AtomicType::Float as usize] > 0 {
            AtomicType::Float
        } else {
            AtomicType::Integer
        }
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cell typing as it was before the byte check: every cell runs the
    /// predicate chain, `is_float` checks its own byte alphabet and dates
    /// go through `str` splitting. Kept only as the oracle.
    mod oracle {
        use super::super::{is_boolean, is_missing_trimmed, valid_month_day, AtomicType};

        pub fn is_integer(v: &str) -> bool {
            let v = v.strip_prefix(['+', '-']).unwrap_or(v);
            !v.is_empty() && v.len() <= 19 && v.bytes().all(|b| b.is_ascii_digit())
        }

        pub fn is_float(v: &str) -> bool {
            if !v
                .bytes()
                .all(|b| b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E'))
            {
                return false;
            }
            v.bytes().any(|b| b.is_ascii_digit()) && v.parse::<f64>().is_ok()
        }

        fn is_date_sep(b: u8) -> bool {
            matches!(b, b'-' | b'/' | b'.')
        }

        pub fn is_date(v: &str) -> bool {
            let date_part = match v.split_once([' ', 'T']) {
                Some((d, t)) => {
                    if !is_time(t) {
                        return false;
                    }
                    d
                }
                None => v,
            };
            let bytes = date_part.as_bytes();
            if bytes.len() < 8 || bytes.len() > 10 {
                return false;
            }
            let mut parts = [0u32; 3];
            let mut count = 0;
            let mut sep = 0u8;
            for chunk in date_part.split(['-', '/', '.']) {
                if count >= 3 || chunk.is_empty() || !chunk.bytes().all(|b| b.is_ascii_digit()) {
                    return false;
                }
                parts[count] = chunk.parse().unwrap_or(u32::MAX);
                count += 1;
            }
            for &b in bytes {
                if is_date_sep(b) {
                    if sep == 0 {
                        sep = b;
                    } else if sep != b {
                        return false;
                    }
                }
            }
            if count != 3 {
                return false;
            }
            let [a, b, c] = parts;
            if (1000..=2999).contains(&a) && valid_month_day(b, c) {
                return true;
            }
            if (1000..=2999).contains(&c) && (valid_month_day(b, a) || valid_month_day(a, b)) {
                return true;
            }
            false
        }

        fn is_time(t: &str) -> bool {
            let mut it = t.split(':');
            let (Some(h), Some(m)) = (it.next(), it.next()) else {
                return false;
            };
            let s = it.next();
            if it.next().is_some() {
                return false;
            }
            let ok_num = |x: &str, max: u32| {
                x.len() == 2
                    && x.bytes().all(|b| b.is_ascii_digit())
                    && x.parse::<u32>().unwrap_or(99) <= max
            };
            ok_num(h, 23) && ok_num(m, 59) && s.is_none_or(|s| ok_num(s.trim_end_matches('Z'), 59))
        }

        pub fn infer_value_type(value: &str) -> AtomicType {
            let v = value.trim();
            if is_missing_trimmed(v) {
                AtomicType::Empty
            } else if is_integer(v) {
                AtomicType::Integer
            } else if is_float(v) {
                AtomicType::Float
            } else if is_boolean(v) {
                AtomicType::Boolean
            } else if is_date(v) {
                AtomicType::Date
            } else {
                AtomicType::String
            }
        }
    }

    /// Every string of up to `max_len` characters over `alphabet`, one at
    /// a time in a reused buffer.
    fn for_each_string(alphabet: &[char], max_len: usize, mut f: impl FnMut(&str)) {
        let mut digits: Vec<usize> = Vec::with_capacity(max_len);
        let mut s = String::new();
        loop {
            s.clear();
            s.extend(digits.iter().map(|&d| alphabet[d]));
            f(&s);
            // Odometer increment; grow by one position on overflow.
            let mut i = 0;
            loop {
                if i == digits.len() {
                    if digits.len() == max_len {
                        return;
                    }
                    digits.push(0);
                    break;
                }
                digits[i] += 1;
                if digits[i] < alphabet.len() {
                    break;
                }
                digits[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn classifier_matches_the_oracle_on_every_short_string() {
        // The number, date and token bytes, two letters of the tokens, a
        // marker, and a non-ASCII whitespace that `trim` strips.
        let alphabet = [
            '0', ' ', '1', '+', '-', '.', 'e', 'E', 'T', ':', 'Z', '/', 'a', 'f', 'n', '?',
            '\u{a0}',
        ];
        let mut checked = 0usize;
        for_each_string(&alphabet, 6, |v| {
            assert_eq!(infer_value_type(v), oracle::infer_value_type(v), "{v:?}");
            checked += 1;
        });
        assert_eq!(checked, (0..=6).map(|n| 17usize.pow(n)).sum::<usize>());
    }

    #[test]
    fn date_check_matches_the_oracle_on_a_grid_of_layouts() {
        let runs = [
            "", "0", "1", "9", "00", "01", "12", "13", "31", "32", "999", "1000", "2021", "2999",
            "3000", "12345", "1234567", "1a", "\u{12d}",
        ];
        let seps = ["-", "/", ".", ":", "\u{12d}"];
        let suffixes = [
            "",
            " 10:30",
            "T23:59",
            "T24:00",
            " 10:60",
            " 10:30:59",
            "T10:30:59Z",
            " 10:30:59ZZ",
            " 10:30:5Z",
            " 10:30:",
            " 1:30",
            "T10:30:59:00",
            " 10:30Z",
            "T",
            " ",
            "  10:30",
            " 10:30 ",
            "T10:30T",
            "-1",
            "/2020",
        ];
        let mut v = String::new();
        for a in runs {
            for s1 in seps {
                for b in runs {
                    for s2 in seps {
                        for c in runs {
                            for suffix in suffixes {
                                v.clear();
                                v.extend([a, s1, b, s2, c, suffix]);
                                assert_eq!(is_date(&v), oracle::is_date(&v), "{v:?}");
                                assert_eq!(
                                    infer_value_type(&v),
                                    oracle::infer_value_type(&v),
                                    "{v:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn long_digit_runs_match_the_oracle() {
        // Integers stop at 19 digits after the sign; longer runs are floats.
        // From ten digits on, a run fits the date's length gate and exceeds
        // `u32::MAX`.
        for n in 0..=25 {
            let run = "9".repeat(n);
            for sign in ["", "+", "-", "--", "."] {
                for suffix in ["", ".", ".5", "e5", "e", "-1-2020", "x", " 10:30"] {
                    let v = format!("{sign}{run}{suffix}");
                    assert_eq!(is_date(&v), oracle::is_date(&v), "{v:?}");
                    assert_eq!(infer_value_type(&v), oracle::infer_value_type(&v), "{v:?}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        #[test]
        fn classifier_matches_the_oracle_on_printable_ascii(v in "[ -~]{0,24}") {
            proptest::prop_assert_eq!(infer_value_type(&v), oracle::infer_value_type(&v), "{:?}", v);
        }
    }

    #[test]
    fn integers() {
        for v in ["0", "42", "-7", "+13", "1234567890"] {
            assert_eq!(infer_value_type(v), AtomicType::Integer, "{v}");
        }
    }

    #[test]
    fn floats() {
        for v in ["3.14", "-0.5", "1e-3", "2.5E2", ".5", "5."] {
            assert_eq!(infer_value_type(v), AtomicType::Float, "{v}");
        }
    }

    #[test]
    fn not_numbers() {
        for v in ["abc", "12a", "1_000", "1,000", "inf", "NaN3", "e5", "+-3"] {
            let t = infer_value_type(v);
            assert!(!t.is_numeric(), "{v} inferred {t:?}");
        }
    }

    #[test]
    fn booleans() {
        for v in ["true", "FALSE", "Yes", "no", "T", "f"] {
            assert_eq!(infer_value_type(v), AtomicType::Boolean, "{v}");
        }
    }

    #[test]
    fn dates() {
        for v in [
            "2021-06-14",
            "14/06/2021",
            "06/14/2021",
            "2021/06/14",
            "2021-06-14 13:45",
            "2021-06-14T13:45:59",
        ] {
            assert_eq!(infer_value_type(v), AtomicType::Date, "{v}");
        }
    }

    #[test]
    fn non_dates() {
        for v in [
            "2021-13-44",
            "2021-06",
            "14-15-16",
            "2021-06-14 99:99",
            "20210614",
            "2021--06--14",
            "2021-06/14",
        ] {
            assert_ne!(infer_value_type(v), AtomicType::Date, "{v}");
        }
    }

    #[test]
    fn only_ascii_separators_split_a_date() {
        // U+012D, U+012F and U+022E have the low bytes of `-`, `/` and `.`.
        for v in [
            "1\u{12d}2\u{12d}2020",
            "1\u{12f}2\u{12f}2020",
            "1\u{22e}2\u{22e}2020",
        ] {
            assert_eq!(infer_value_type(v), AtomicType::String, "{v}");
        }
        for v in ["1-2-2020", "2020/01/02", "01.02.2020 10:30"] {
            assert_eq!(infer_value_type(v), AtomicType::Date, "{v}");
        }
    }

    /// `infer_value_type` as it was when `is_missing` and `is_boolean`
    /// each built a lowercase copy of the cell.
    fn lowercasing_infer_value_type(value: &str) -> AtomicType {
        let v = value.trim();
        let lower = v.to_ascii_lowercase();
        if MISSING_MARKERS.contains(&lower.as_str()) {
            AtomicType::Empty
        } else if oracle::is_integer(v) {
            AtomicType::Integer
        } else if oracle::is_float(v) {
            AtomicType::Float
        } else if matches!(lower.as_str(), "true" | "false" | "yes" | "no" | "t" | "f") {
            AtomicType::Boolean
        } else if oracle::is_date(v) {
            AtomicType::Date
        } else {
            AtomicType::String
        }
    }

    #[test]
    fn case_insensitive_tokens_match_the_lowercasing_reference() {
        let edge_values = [
            // every marker and token, in three casings
            "",
            "nan",
            "NaN",
            "NAN",
            "null",
            "Null",
            "NULL",
            "none",
            "None",
            "na",
            "Na",
            "NA",
            "n/a",
            "N/A",
            "n/A",
            "-",
            "--",
            "?",
            "missing",
            "Missing",
            "MISSING",
            "nil",
            "NIL",
            "true",
            "True",
            "TRUE",
            "tRuE",
            "false",
            "False",
            "FALSE",
            "yes",
            "YES",
            "Yes",
            "no",
            "No",
            "NO",
            "t",
            "T",
            "f",
            "F",
            // padded
            " nan ",
            "\tNULL\n",
            "  --  ",
            " true",
            "False ",
            "  ",
            "\u{a0}nan\u{a0}",
            // near misses, some exactly at or one past the length gates
            "---",
            "n/a/",
            "nan.",
            "nulls",
            "missing.",
            "missings",
            "mıssing",
            "missin",
            "truee",
            "falsee",
            "fals",
            "ye",
            "yess",
            "tf",
            "n a",
            "n\\a",
            "??",
            "-?",
            // 8-byte cells
            "missing1",
            "MISSING!",
            "nullnull",
            "truetrue",
            "12345678",
            "1.345678",
            // non-ASCII: folds only under Unicode rules, never ASCII ones
            "NÀN",
            "ｎａｎ",
            "ΝΑ",
            "TRÜE",
            "ÿes",
            "ｔ",
            "é",
            "—",
            "nul\u{212a}",
            // other types ride through unchanged
            "42",
            "-7",
            "3.14",
            "1e-3",
            "2021-06-14",
            "14/06/2021 13:45",
            "hello",
            "1\u{12d}2",
        ];
        for v in edge_values {
            assert_eq!(
                infer_value_type(v),
                lowercasing_infer_value_type(v),
                "{v:?}"
            );
            assert_eq!(
                is_missing(v),
                MISSING_MARKERS.contains(&v.trim().to_ascii_lowercase().as_str()),
                "{v:?}"
            );
        }
    }

    #[test]
    fn missing_markers() {
        for v in ["", "  ", "nan", "NULL", "N/A", "-", "?"] {
            assert_eq!(infer_value_type(v), AtomicType::Empty, "{v:?}");
        }
    }

    #[test]
    fn strings() {
        for v in ["hello", "Enterococcus faecium", "a1b2", "42nd street"] {
            assert_eq!(infer_value_type(v), AtomicType::String, "{v}");
        }
    }

    #[test]
    fn column_majority_integer() {
        let t = infer_column_type(&["1", "2", "3", "x"]);
        assert_eq!(t, AtomicType::Integer);
    }

    #[test]
    fn column_promotes_mixed_numeric_to_float() {
        let t = infer_column_type(&["1", "2.5", "3"]);
        assert_eq!(t, AtomicType::Float);
    }

    #[test]
    fn column_all_empty() {
        let t = infer_column_type(&["", "nan", "NULL"]);
        assert_eq!(t, AtomicType::Empty);
    }

    #[test]
    fn column_string_majority() {
        let t = infer_column_type(&["a", "b", "c", "1"]);
        assert_eq!(t, AtomicType::String);
    }

    #[test]
    fn column_ignores_missing_in_vote() {
        let t = infer_column_type(&["1", "nan", "nan", "2"]);
        assert_eq!(t, AtomicType::Integer);
    }

    #[test]
    fn column_date_majority() {
        let t = infer_column_type(&["2020-01-01", "2020-01-02", "x"]);
        assert_eq!(t, AtomicType::Date);
    }

    #[test]
    fn empty_slice_is_empty() {
        let vals: [&str; 0] = [];
        assert_eq!(infer_column_type(&vals), AtomicType::Empty);
    }

    #[test]
    fn display_names() {
        assert_eq!(AtomicType::Integer.to_string(), "integer");
        assert_eq!(AtomicType::String.to_string(), "string");
    }

    #[test]
    fn huge_digit_string_not_integer_overflow() {
        // 25 digits exceeds the i64-safe length cap; must not panic.
        let t = infer_value_type("1234567890123456789012345");
        assert_ne!(t, AtomicType::Integer);
    }
}
