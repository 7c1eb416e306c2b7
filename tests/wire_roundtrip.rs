//! Whatever the wire types hold, what `to_string` prints is JSON this
//! workspace's own parser reads, and printing the parsed [`serde::Value`]
//! gives the same bytes back: the streamed writers of the derived types
//! and the `Value` printer are one format. The literal bytes are pinned in
//! `shims/serde_json/tests/wire_format.rs`; this is the same claim over
//! arbitrary instances of what the server and the store actually write.

use gittables_annotate::{Annotation, Method};
use gittables_core::apps::{SchemaCompletion, SearchHit};
use gittables_corpus::TypePosting;
use gittables_corpus::{ShardEntry, StoreManifest};
use gittables_ontology::OntologyKind;
use gittables_serve::{AnnotationSet, TableSummary, TypeTablesResponse};
use gittables_table::Schema;
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use serde::{Deserialize, Serialize};

/// Characters the printer treats differently: the escaped five, other
/// control characters, DEL, separators, multi-byte text.
const PALETTE: [char; 20] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', ',', ':',
    'é', '東', '🦀', '\u{2028}', '}',
];

fn text() -> impl Strategy<Value = String> {
    collection::vec(0..PALETTE.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

fn texts() -> impl Strategy<Value = Vec<String>> {
    collection::vec(text(), 0..5)
}

/// Any bit pattern: NaNs, infinities, subnormals, both zeros.
fn float64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn float32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn tag() -> impl Strategy<Value = (Method, OntologyKind)> {
    (any::<bool>(), any::<bool>()).prop_map(|(semantic, schema_org)| {
        (
            if semantic {
                Method::Semantic
            } else {
                Method::Syntactic
            },
            if schema_org {
                OntologyKind::SchemaOrg
            } else {
                OntologyKind::DBpedia
            },
        )
    })
}

fn annotation_set() -> impl Strategy<Value = AnnotationSet> {
    let annotation = (any::<usize>(), any::<u32>(), text(), tag(), float32()).prop_map(
        |(column, type_id, label, (method, ontology), similarity)| Annotation {
            column,
            type_id,
            label,
            ontology,
            method,
            similarity,
        },
    );
    (tag(), collection::vec(annotation, 0..4)).prop_map(|((method, ontology), annotations)| {
        AnnotationSet {
            method,
            ontology,
            annotations,
        }
    })
}

/// `to_string(x)` parses, the parsed tree prints the same bytes, and so
/// does the value the typed reader rebuilds from them.
fn assert_round_trips<T: Serialize + Deserialize>(value: &T) -> TestCaseResult {
    let printed = serde_json::to_string(value).unwrap();
    let tree = serde_json::parse_value(&printed);
    prop_assert!(tree.is_ok(), "{:?} does not parse: {}", tree, printed);
    prop_assert_eq!(&serde_json::to_string(&tree.unwrap()).unwrap(), &printed);
    let typed = serde_json::from_str::<T>(&printed);
    prop_assert!(typed.is_ok(), "{:?} is not a T: {}", typed.err(), printed);
    prop_assert_eq!(&serde_json::to_string(&typed.unwrap()).unwrap(), &printed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn search_hits_round_trip(
        hits in collection::vec((any::<usize>(), texts(), float64()), 0..4),
    ) {
        let hits: Vec<SearchHit> = hits
            .into_iter()
            .map(|(table_index, attrs, score)| SearchHit {
                table_index,
                schema: Schema::new(attrs),
                score,
            })
            .collect();
        assert_round_trips(&hits)?;
    }

    #[test]
    fn schema_completions_round_trip(
        completions in collection::vec((texts(), float64(), texts()), 0..4),
    ) {
        let completions: Vec<SchemaCompletion> = completions
            .into_iter()
            .map(|(attrs, prefix_distance, completion)| SchemaCompletion {
                schema: Schema::new(attrs),
                prefix_distance,
                completion,
            })
            .collect();
        assert_round_trips(&completions)?;
    }

    #[test]
    fn table_summaries_round_trip(
        ids in (any::<usize>(), any::<usize>(), any::<usize>()),
        names in (text(), text(), text(), any::<bool>(), text()),
        schema in texts(),
        annotations in collection::vec(annotation_set(), 0..4),
        sample_rows in collection::vec(texts(), 0..4),
    ) {
        let (id, num_rows, num_columns) = ids;
        let (name, url, topic, licensed, license) = names;
        assert_round_trips(&TableSummary {
            id,
            name,
            url,
            topic,
            license: licensed.then_some(license),
            num_rows,
            num_columns,
            schema,
            annotations,
            sample_rows,
        })?;
    }

    #[test]
    fn type_tables_responses_round_trip(
        label in text(),
        tables in collection::vec(any::<usize>(), 0..5),
        postings in collection::vec((any::<usize>(), any::<usize>(), tag(), float32()), 0..5),
    ) {
        let postings = postings
            .into_iter()
            .map(|(table, column, (method, ontology), similarity)| TypePosting {
                table,
                column,
                method,
                ontology,
                similarity,
            })
            .collect();
        assert_round_trips(&TypeTablesResponse { label, tables, postings })?;
    }

    #[test]
    fn store_manifests_round_trip(
        head in (any::<u32>(), text(), text()),
        shards in collection::vec(
            (text(), text(), any::<u64>(), collection::vec(any::<usize>(), 0..5), any::<bool>(), text()),
            0..4,
        ),
    ) {
        let (version, name, format) = head;
        let shards = shards
            .into_iter()
            .map(|(id, file, fingerprint, indices, has_meta, meta)| ShardEntry {
                id,
                file,
                tables: indices.len(),
                fingerprint,
                indices,
                meta: has_meta.then_some(meta),
            })
            .collect();
        assert_round_trips(&StoreManifest {
            version,
            name,
            format,
            shards,
        })?;
    }
}
