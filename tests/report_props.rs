//! Property tests of [`PipelineReport`] counter invariants: the §3.3
//! stage counters must stay mutually consistent for any pipeline input,
//! and merging partial reports must be associative so parallel fan-out
//! cannot change totals.

use std::collections::HashMap;

use gittables_core::{Pipeline, PipelineConfig, PipelineReport, Quarantined};
use gittables_githost::GitHost;
use proptest::prelude::*;

fn report_strategy() -> impl Strategy<Value = PipelineReport> {
    (
        (0usize..500, 0usize..200, 0usize..300),
        (0usize..40, 0usize..2000),
        proptest::collection::vec(("[a-z]{2,10}", 0usize..50), 0..5),
        (0usize..20, 0u64..500, 0usize..5),
        proptest::collection::vec("[a-z]{2,8}/[a-z]{2,8}", 0..4),
    )
        .prop_map(
            |((parsed, parse_failed, kept), (pii, total_columns), tags, fault, repos)| {
                let mut filtered: HashMap<String, usize> = HashMap::new();
                for (tag, n) in tags {
                    *filtered.entry(tag).or_default() += n;
                }
                let (retries, backoff_ms, queries_failed) = fault;
                let mut quarantined_repos: Vec<Quarantined> = repos
                    .into_iter()
                    .map(|name| Quarantined {
                        name,
                        reason: "corrupt content".to_string(),
                    })
                    .collect();
                quarantined_repos.sort();
                quarantined_repos.dedup();
                PipelineReport {
                    fetched: parsed + parse_failed,
                    parsed,
                    parse_failed,
                    filtered,
                    kept: kept.min(parsed),
                    pii_columns: pii.min(total_columns),
                    total_columns,
                    queries_executed: parsed / 10,
                    retries,
                    backoff_ms,
                    queries_failed,
                    quarantined_repos,
                    quarantined_files: Vec::new(),
                }
            },
        )
}

#[allow(clippy::type_complexity)]
fn totals(r: &PipelineReport) -> (usize, usize, usize, usize, usize, usize, usize, usize, u64) {
    (
        r.fetched,
        r.parsed,
        r.parse_failed,
        r.kept,
        r.pii_columns,
        r.total_columns,
        r.queries_executed,
        r.retries,
        r.backoff_ms,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(merge(a, b), c) == merge(a, merge(b, c)) on every counter,
    /// including the per-reason filter map.
    #[test]
    fn merge_is_associative(
        a in report_strategy(),
        b in report_strategy(),
        c in report_strategy(),
    ) {
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());

        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);

        prop_assert_eq!(&left, &right);
    }

    /// Merging preserves each counter's sum exactly, and the quarantine
    /// lists union (sorted, deduplicated).
    #[test]
    fn merge_sums_counters(a in report_strategy(), b in report_strategy()) {
        let (af, ap, apf, ak, api, atc, aq, ar, ab) = totals(&a);
        let (bf, bp, bpf, bk, bpi, btc, bq, br, bb) = totals(&b);
        let mut merged = a.clone();
        merged.merge(b.clone());
        prop_assert_eq!(
            totals(&merged),
            (af + bf, ap + bp, apf + bpf, ak + bk, api + bpi, atc + btc, aq + bq, ar + br, ab + bb)
        );
        let a_dropped: usize = a.filtered.values().sum();
        let b_dropped: usize = b.filtered.values().sum();
        let merged_dropped: usize = merged.filtered.values().sum();
        prop_assert_eq!(merged_dropped, a_dropped + b_dropped);
        let mut expected_quarantine: Vec<Quarantined> = a
            .quarantined_repos
            .iter()
            .chain(&b.quarantined_repos)
            .cloned()
            .collect();
        expected_quarantine.sort();
        expected_quarantine.dedup();
        prop_assert_eq!(&merged.quarantined_repos, &expected_quarantine);
    }
}

proptest! {
    // End-to-end runs are expensive; a handful of seeds is enough to
    // exercise scheduling and content variety.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any seed and (small) corpus size, the report of both the
    /// one-worker and the four-worker pipeline satisfies the stage
    /// invariants.
    #[test]
    fn report_invariants_hold_end_to_end(
        seed in any::<u64>(),
        topics in 1usize..3,
        repos in 2usize..5,
    ) {
        for workers in [1, 4] {
            let pipeline = Pipeline::new(PipelineConfig {
                workers,
                ..PipelineConfig::sized(seed, topics, repos)
            });
            let host = GitHost::new();
            pipeline.populate_host(&host);
            let report = pipeline.run(&host).1;
            prop_assert_eq!(
                report.parsed + report.parse_failed,
                report.fetched,
                "parse split must partition fetched files"
            );
            prop_assert!(report.kept <= report.parsed, "kept {} > parsed {}", report.kept, report.parsed);
            prop_assert!(
                report.pii_columns <= report.total_columns,
                "pii {} > columns {}",
                report.pii_columns,
                report.total_columns
            );
            let dropped: usize = report.filtered.values().sum();
            prop_assert_eq!(report.parsed - report.kept, dropped, "filtered must account for parsed-but-not-kept");
            prop_assert!((0.0..=1.0).contains(&report.parse_rate()));
            prop_assert!((0.0..=1.0).contains(&report.pii_rate()));
        }
    }
}
