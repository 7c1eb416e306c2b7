//! Property-based tests of the core invariants, via proptest.

use gittables_embed::NgramEmbedder;
use gittables_ontology::normalize_label;
use gittables_table::{infer_column_type, infer_value_type, AtomicType, Schema};
use gittables_tablecsv::{read_csv, write_csv, Dialect, ReadOptions};
use proptest::prelude::*;

/// Arbitrary cell content: printable text incl. delimiters, quotes, newlines.
fn cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\n]{0,24}").expect("valid regex")
}

/// Arbitrary non-degenerate header name (non-empty, not all-space).
fn header() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z_][a-zA-Z0-9_ ]{0,15}").expect("valid regex")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// write_csv → read_csv is the identity on any table content, for any
    /// candidate dialect.
    #[test]
    fn csv_roundtrip(
        header in proptest::collection::vec(header(), 1..6),
        rows in proptest::collection::vec(
            proptest::collection::vec(cell(), 1..6), 1..8),
        delim_idx in 0usize..4,
    ) {
        let ncols = header.len();
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|mut r| {
                r.resize(ncols, String::new());
                r
            })
            .collect();
        let dialect = Dialect::with_delimiter([b',', b';', b'\t', b'|'][delim_idx]);
        let text = write_csv(&header, &rows, dialect);
        let opts = ReadOptions { dialect: Some(dialect), ..Default::default() };
        match read_csv(&text, &opts) {
            Ok(parsed) => {
                prop_assert_eq!(&parsed.header, &header);
                // Rows that are entirely blank are legitimately dropped by the
                // §3.3 empty-line rule; all others must round-trip in order.
                let expect: Vec<&Vec<String>> = rows
                    .iter()
                    .filter(|r| !r.iter().all(|c| c.trim().is_empty()))
                    .collect();
                prop_assert_eq!(parsed.records.len(), expect.len());
                for (got, want) in parsed.records.iter().zip(expect) {
                    prop_assert_eq!(got, want);
                }
            }
            Err(e) => {
                // Only the all-blank-rows case may fail (NoRows).
                let all_blank = rows
                    .iter()
                    .all(|r| r.iter().all(|c| c.trim().is_empty()));
                prop_assert!(all_blank, "unexpected error {e} on {text:?}");
            }
        }
    }

    /// Label normalization is idempotent and produces lowercase output.
    #[test]
    fn normalize_idempotent(s in "[ -~]{0,32}") {
        let once = normalize_label(&s);
        let twice = normalize_label(&once);
        prop_assert_eq!(&once, &twice);
        prop_assert!(!once.chars().any(char::is_uppercase));
        prop_assert!(!once.starts_with(' ') && !once.ends_with(' '));
    }

    /// Value-type inference is total and deterministic; numeric values
    /// round-trip through parse.
    #[test]
    fn value_inference_total(s in "[ -~]{0,24}") {
        let t1 = infer_value_type(&s);
        let t2 = infer_value_type(&s);
        prop_assert_eq!(t1, t2);
        if t1 == AtomicType::Integer {
            prop_assert!(s.trim().parse::<i128>().is_ok(), "{}", s);
        }
        if t1 == AtomicType::Float {
            prop_assert!(s.trim().parse::<f64>().is_ok(), "{}", s);
        }
    }

    /// Column inference never claims numeric for a column without a single
    /// numeric cell.
    #[test]
    fn column_inference_sound(values in proptest::collection::vec("[a-zA-Z ]{1,8}", 1..12)) {
        let t = infer_column_type(&values);
        prop_assert!(!t.is_numeric(), "{:?} for {:?}", t, values);
    }

    /// Embedding cosine is bounded, symmetric, and reflexive (=1 on self for
    /// non-empty input).
    #[test]
    fn embedding_cosine_properties(a in "[a-z ]{1,16}", b in "[a-z ]{1,16}") {
        let e = NgramEmbedder::default();
        let ab = e.cosine(&a, &b);
        let ba = e.cosine(&b, &a);
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-5);
        if !a.trim().is_empty() {
            prop_assert!((e.cosine(&a, &a) - 1.0).abs() < 1e-5);
        }
    }

    /// Schema prefix+suffix always reconstructs the schema.
    #[test]
    fn schema_prefix_suffix_partition(
        attrs in proptest::collection::vec("[a-z]{1,8}", 0..10),
        n in 0usize..12,
    ) {
        let s = Schema::new(attrs.clone());
        let mut rebuilt: Vec<String> = s.prefix(n).iter().map(String::from).collect();
        rebuilt.extend(s.suffix(n).map(String::from));
        prop_assert_eq!(rebuilt, attrs);
    }

    /// Sniffer: a clean single-delimiter rendering is always detected as a
    /// dialect that re-parses to the same shape.
    #[test]
    fn sniffer_recovers_shape(
        ncols in 2usize..6,
        nrows in 2usize..8,
        delim_idx in 0usize..4,
    ) {
        let dialect = Dialect::with_delimiter([b',', b';', b'\t', b'|'][delim_idx]);
        let header: Vec<String> = (0..ncols).map(|i| format!("col{i}")).collect();
        let rows: Vec<Vec<String>> = (0..nrows)
            .map(|r| (0..ncols).map(|c| format!("v{r}x{c}")).collect())
            .collect();
        let text = write_csv(&header, &rows, dialect);
        let parsed = read_csv(&text, &ReadOptions::default()).expect("clean csv parses");
        prop_assert_eq!(parsed.header.len(), ncols);
        prop_assert_eq!(parsed.records.len(), nrows);
    }

    /// Feature extraction is total (finite) on arbitrary cell content.
    #[test]
    fn features_always_finite(values in proptest::collection::vec(cell(), 0..12)) {
        let f = gittables_ml::FeatureExtractor::default().extract(&values);
        prop_assert_eq!(f.len(), gittables_ml::FEATURE_COUNT);
        for v in f {
            prop_assert!(v.is_finite());
        }
    }
}
