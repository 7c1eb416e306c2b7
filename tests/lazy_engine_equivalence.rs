//! The sidecar boot path is pinned to the materialized path: for any
//! corpus, any shard size, and either store format, every query endpoint
//! of a sidecar-booted [`QueryEngine`] serializes to **byte-identical**
//! JSON as the build-from-corpus engine — serially and under concurrent
//! readers. This is the equivalence battery that lets `serve` boot off
//! the mapped sidecars without a correctness caveat.

use std::path::PathBuf;
use std::sync::Arc;

use gittables_annotate::Annotation;
use gittables_corpus::{save_store_as, AnnotatedTable, Corpus, StoreFormat};
use gittables_serve::{build_sidecars, QueryEngine};
use gittables_table::{Provenance, Table};
use proptest::prelude::*;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gt_lazy_eq_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Cell vocabulary stressing every encoding path (same set the colv1
/// store battery uses): quoting, delimiters, raw newlines, multi-byte
/// UTF-8, empty and missing-marker cells.
const NASTY: &[&str] = &[
    "plain",
    "",
    "nan",
    "has,comma",
    "has \"quotes\"",
    "two\nlines",
    "tab\there",
    "café ☕ 表",
    "  padded  ",
    "123",
    "4.5e-3",
    "true",
];

#[derive(Debug, Clone)]
struct Spec {
    tables: Vec<(usize, usize)>,
    salt: u64,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (1usize..6, 1usize..4, 0usize..7, 0u64..u64::MAX).prop_map(|(n, cols, rows, salt)| Spec {
        tables: (0..n)
            .map(|i| (1 + (cols + i) % 4, (rows + 3 * i) % 6))
            .collect(),
        salt,
    })
}

fn build_corpus(spec: &Spec) -> Corpus {
    let mut corpus = Corpus::new(format!("lazy-{}", spec.salt % 997));
    for (ti, &(cols, rows)) in spec.tables.iter().enumerate() {
        let header: Vec<String> = (0..cols).map(|c| format!("col{c}_{ti}")).collect();
        let row_data: Vec<Vec<String>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let k = spec
                            .salt
                            .wrapping_mul(31)
                            .wrapping_add((ti * 131 + r * 17 + c) as u64);
                        NASTY[(k % NASTY.len() as u64) as usize].to_string()
                    })
                    .collect()
            })
            .collect();
        let mut prov = Provenance::new(format!("owner/repo{}", ti % 3), format!("data/t{ti}.csv"))
            .with_topic(NASTY[(spec.salt as usize + ti) % NASTY.len()]);
        if (spec.salt as usize + ti).is_multiple_of(2) {
            prov = prov.with_license("cc0-1.0");
        }
        let table = Table::from_string_rows(format!("t{ti}"), &header, row_data)
            .unwrap()
            .with_provenance(prov);
        let mut at = AnnotatedTable::new(table);
        for (si, (method, ontology)) in Corpus::annotation_configs().into_iter().enumerate() {
            let slot = at.annotations_mut(method, ontology);
            slot.num_columns = cols;
            for c in 0..cols {
                if (spec.salt as usize + ti + si + c).is_multiple_of(3) {
                    slot.annotations.push(Annotation {
                        column: c,
                        type_id: ((spec.salt as u32).wrapping_add(c as u32)) % 5000,
                        label: format!("type {}", NASTY[(si + c) % NASTY.len()]),
                        ontology,
                        method,
                        similarity: ((spec.salt % 1000) as f32).mul_add(1e-3, 1e-4 * c as f32),
                    });
                }
            }
        }
        corpus.push(at);
    }
    corpus
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

/// Serializes every query endpoint's answer, in a deterministic order —
/// the full observable surface of an engine (modulo timings).
fn endpoint_bytes(engine: &QueryEngine) -> Vec<String> {
    let mut out = vec![json(&engine.health())];
    for (q, k) in [
        ("status and sales amount per product", 3),
        ("col0", 1),
        ("café ☕ 表", 5),
        ("", 2),
    ] {
        out.push(json(&engine.search(q, k)));
    }
    for prefix in [vec!["col0_0"], vec!["col0_1", "col1_1"], vec!["nope"]] {
        out.push(json(&engine.complete(&prefix, 3)));
    }
    out.push(json(&engine.type_counts()));
    for tc in engine.type_counts() {
        out.push(json(&engine.type_tables(&tc.label)));
    }
    out.push(json(&engine.type_tables("zzz_not_a_type")));
    for id in 0..engine.num_tables() + 2 {
        out.push(json(&engine.table_summary(id)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random corpora, shard sizes, and both formats: a
    /// sidecar-booted engine answers every endpoint byte-identically to
    /// the materialized rebuild.
    #[test]
    fn sidecar_boot_equals_materialized(
        spec in spec_strategy(),
        per_shard in 1usize..4,
    ) {
        let corpus = build_corpus(&spec);
        for format in [StoreFormat::Jsonl, StoreFormat::ColV1] {
            let dir = tmp(&format!("prop_{format}"));
            save_store_as(&corpus, &dir, per_shard, format).unwrap();
            let report = build_sidecars(&dir).unwrap();
            prop_assert_eq!(report.tables, corpus.len());

            let lazy = QueryEngine::load(&dir).unwrap();
            prop_assert_eq!(&lazy.build_stats().boot_path, "sidecar");
            prop_assert_eq!(&lazy.build_stats().fallback_reason, &None);
            let reference = QueryEngine::load_materialized(&dir).unwrap();
            prop_assert_eq!(&reference.build_stats().boot_path, "rebuild");

            let got = endpoint_bytes(&lazy);
            let want = endpoint_bytes(&reference);
            prop_assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g, w, "endpoint {} differs ({})", i, format);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn concurrent_readers_see_identical_bytes() {
    // Lazy decoding happens per request — concurrent readers hitting the
    // same and different tables must all see the reference bytes.
    let corpus = build_corpus(&Spec {
        tables: vec![(3, 4), (2, 2), (4, 1), (1, 5), (2, 3)],
        salt: 20260808,
    });
    for format in [StoreFormat::Jsonl, StoreFormat::ColV1] {
        let dir = tmp(&format!("conc_{format}"));
        save_store_as(&corpus, &dir, 2, format).unwrap();
        build_sidecars(&dir).unwrap();
        let lazy = Arc::new(QueryEngine::load(&dir).unwrap());
        assert_eq!(lazy.build_stats().boot_path, "sidecar");
        let want = Arc::new(endpoint_bytes(
            &QueryEngine::load_materialized(&dir).unwrap(),
        ));

        // Serially first...
        assert_eq!(endpoint_bytes(&lazy), *want);
        // ...then from 8 threads at once, repeatedly.
        std::thread::scope(|s| {
            for worker in 0..8 {
                let (lazy, want) = (Arc::clone(&lazy), Arc::clone(&want));
                s.spawn(move || {
                    for round in 0..4 {
                        let got = endpoint_bytes(&lazy);
                        assert_eq!(got, *want, "worker {worker} round {round}");
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
