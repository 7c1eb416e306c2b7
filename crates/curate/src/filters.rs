//! The table-level curation filters of §3.3.

use gittables_table::{AtomicType, Table};

/// Why a table was filtered out. Variants are ordered by the pipeline's
/// evaluation order; the first failing rule is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterReason {
    /// Repository has no license permitting redistribution.
    NoPermissiveLicense,
    /// Fewer than `min_rows` rows.
    TooFewRows,
    /// Fewer than `min_cols` columns.
    TooFewColumns,
    /// More than half of the column names are unspecified.
    MostlyUnnamedColumns,
    /// A column name is not a string (e.g. a bare number).
    NonStringHeader,
    /// A column name contains a social-media keyword.
    SocialMediaColumn,
}

impl FilterReason {
    /// Short machine-readable tag.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            FilterReason::NoPermissiveLicense => "license",
            FilterReason::TooFewRows => "too-few-rows",
            FilterReason::TooFewColumns => "too-few-columns",
            FilterReason::MostlyUnnamedColumns => "unnamed-columns",
            FilterReason::NonStringHeader => "non-string-header",
            FilterReason::SocialMediaColumn => "social-media",
        }
    }
}

/// Social-media keywords excluded per §3.3.
pub const SOCIAL_KEYWORDS: &[&str] = &["twitter", "tweet", "reddit", "facebook"];

/// Largest tolerated fraction of unnamed columns (paper: 0.5).
const MAX_UNNAMED_FRACTION: f64 = 0.5;

/// Configuration of the curation filters. Defaults match the paper.
#[derive(Debug, Clone)]
pub struct CurationConfig {
    /// Whether to require a permissive license (the published corpus does;
    /// the analysis corpus keeps unlicensed tables).
    pub require_license: bool,
    /// Minimum number of data rows (paper: 2).
    pub min_rows: usize,
    /// Minimum number of columns (paper: 2).
    pub min_cols: usize,
}

impl Default for CurationConfig {
    fn default() -> Self {
        CurationConfig {
            require_license: true,
            min_rows: 2,
            min_cols: 2,
        }
    }
}

impl CurationConfig {
    /// Evaluates all filters; `Err(reason)` if the table must be dropped.
    ///
    /// The license is read from the table's provenance; when
    /// `require_license` is false that rule is skipped.
    pub fn evaluate(&self, table: &Table, license_permissive: bool) -> Result<(), FilterReason> {
        if self.require_license && !license_permissive {
            return Err(FilterReason::NoPermissiveLicense);
        }
        if table.num_rows() < self.min_rows {
            return Err(FilterReason::TooFewRows);
        }
        if table.num_columns() < self.min_cols {
            return Err(FilterReason::TooFewColumns);
        }
        let unnamed = table.columns().iter().filter(|c| c.is_unnamed()).count();
        if unnamed as f64 > MAX_UNNAMED_FRACTION * table.num_columns() as f64 {
            return Err(FilterReason::MostlyUnnamedColumns);
        }
        for c in table.columns() {
            // A "non-string" column name: a name that parses as a number —
            // §3.3: "we remove tables ... if any of the column names are not
            // of the type string".
            if !c.is_unnamed() {
                let t = gittables_table::infer_value_type(c.name());
                if t != AtomicType::String && t != AtomicType::Boolean {
                    return Err(FilterReason::NonStringHeader);
                }
            }
            let lower = c.name().to_lowercase();
            if SOCIAL_KEYWORDS.iter().any(|k| lower.contains(k)) {
                return Err(FilterReason::SocialMediaColumn);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_table::Table;

    fn ok_table() -> Table {
        Table::from_rows("t", &["id", "name"], &[&["1", "a"], &["2", "b"]]).unwrap()
    }

    fn cfg() -> CurationConfig {
        CurationConfig {
            require_license: false,
            ..Default::default()
        }
    }

    #[test]
    fn good_table_passes() {
        assert_eq!(cfg().evaluate(&ok_table(), false), Ok(()));
    }

    #[test]
    fn license_required_when_configured() {
        let c = CurationConfig::default();
        assert_eq!(
            c.evaluate(&ok_table(), false),
            Err(FilterReason::NoPermissiveLicense)
        );
        assert_eq!(c.evaluate(&ok_table(), true), Ok(()));
    }

    #[test]
    fn tiny_tables_dropped() {
        let one_row = Table::from_rows("t", &["a", "b"], &[&["1", "2"]]).unwrap();
        assert_eq!(
            cfg().evaluate(&one_row, true),
            Err(FilterReason::TooFewRows)
        );
        let one_col = Table::from_rows("t", &["a"], &[&["1"], &["2"]]).unwrap();
        assert_eq!(
            cfg().evaluate(&one_col, true),
            Err(FilterReason::TooFewColumns)
        );
    }

    #[test]
    fn mostly_unnamed_dropped() {
        let t =
            Table::from_rows("t", &["id", "", ""], &[&["1", "x", "y"], &["2", "u", "v"]]).unwrap();
        assert_eq!(
            cfg().evaluate(&t, true),
            Err(FilterReason::MostlyUnnamedColumns)
        );
        // Exactly half unnamed is tolerated.
        let t = Table::from_rows("t", &["id", ""], &[&["1", "x"], &["2", "y"]]).unwrap();
        assert_eq!(cfg().evaluate(&t, true), Ok(()));
    }

    #[test]
    fn numeric_header_dropped() {
        let t = Table::from_rows("t", &["id", "42"], &[&["1", "x"], &["2", "y"]]).unwrap();
        assert_eq!(cfg().evaluate(&t, true), Err(FilterReason::NonStringHeader));
        let t = Table::from_rows("t", &["id", "3.5"], &[&["1", "x"], &["2", "y"]]).unwrap();
        assert_eq!(cfg().evaluate(&t, true), Err(FilterReason::NonStringHeader));
    }

    #[test]
    fn social_media_dropped() {
        for name in ["twitter_handle", "Tweet Text", "reddit_user", "FacebookURL"] {
            let t = Table::from_rows("t", &["id", name], &[&["1", "x"], &["2", "y"]]).unwrap();
            assert_eq!(
                cfg().evaluate(&t, true),
                Err(FilterReason::SocialMediaColumn),
                "{name}"
            );
        }
    }

    #[test]
    fn tags_unique() {
        use std::collections::HashSet;
        let tags: HashSet<&str> = [
            FilterReason::NoPermissiveLicense,
            FilterReason::TooFewRows,
            FilterReason::TooFewColumns,
            FilterReason::MostlyUnnamedColumns,
            FilterReason::NonStringHeader,
            FilterReason::SocialMediaColumn,
        ]
        .iter()
        .map(|r| r.tag())
        .collect();
        assert_eq!(tags.len(), 6);
    }
}
