//! CSV dialects: the delimiter/quote configuration of a file.

/// The candidate delimiters considered by the sniffer, in priority order
/// (priority breaks ties when consistency scores are equal). Comma first as
/// the most common, then semicolon, tab, pipe, colon — the set observed in
/// CSV-on-GitHub studies cited by the paper (van den Burg et al., 2019).
pub const CANDIDATE_DELIMITERS: &[u8] = b",;\t|:";

/// A CSV dialect: how fields are separated and quoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dialect {
    /// Field separator byte.
    pub delimiter: u8,
    /// Quote byte (fields containing the delimiter, quote, or newlines are
    /// wrapped in this; it is escaped by doubling).
    pub quote: u8,
    /// Comment-prefix byte; lines starting with it (after optional leading
    /// whitespace) are skipped. `None` disables comment handling.
    pub comment: Option<u8>,
}

impl Default for Dialect {
    fn default() -> Self {
        Dialect {
            delimiter: b',',
            quote: b'"',
            comment: Some(b'#'),
        }
    }
}

impl Dialect {
    /// A dialect with the given delimiter and conventional quote/comment.
    #[must_use]
    pub fn with_delimiter(delimiter: u8) -> Self {
        Dialect {
            delimiter,
            ..Dialect::default()
        }
    }

    /// Excel-style semicolon dialect (common in European locales).
    #[must_use]
    pub fn semicolon() -> Self {
        Dialect::with_delimiter(b';')
    }

    /// Tab-separated values.
    #[must_use]
    pub fn tsv() -> Self {
        Dialect::with_delimiter(b'\t')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_comma() {
        let d = Dialect::default();
        assert_eq!(d.delimiter, b',');
        assert_eq!(d.quote, b'"');
        assert_eq!(d.comment, Some(b'#'));
    }

    #[test]
    fn constructors() {
        assert_eq!(Dialect::semicolon().delimiter, b';');
        assert_eq!(Dialect::tsv().delimiter, b'\t');
    }

    #[test]
    fn candidates_start_with_comma() {
        assert_eq!(CANDIDATE_DELIMITERS[0], b',');
    }
}
