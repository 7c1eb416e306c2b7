//! Pins the inverted semantic-type index against a brute-force scan of
//! every annotation on a pipeline-built synth corpus: same labels, same
//! posting lists in the same order, same counts.

use std::collections::BTreeMap;

use gittables_core::{Pipeline, PipelineConfig};
use gittables_corpus::{Corpus, TypeIndex, TypePosting};
use gittables_githost::GitHost;

fn corpus(seed: u64) -> Corpus {
    let pipeline = Pipeline::new(PipelineConfig::sized(seed, 8, 20));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    pipeline.run(&host).0
}

/// The reference implementation: a straight scan over all annotations in
/// table order, configs in `annotation_configs` order, annotations in
/// stored order.
fn brute_force(corpus: &Corpus) -> BTreeMap<String, Vec<TypePosting>> {
    let mut map: BTreeMap<String, Vec<TypePosting>> = BTreeMap::new();
    for (id, at) in corpus.tables.iter().enumerate() {
        for (method, ontology) in Corpus::annotation_configs() {
            for a in &at.annotations(method, ontology).annotations {
                map.entry(a.label.clone()).or_default().push(TypePosting {
                    table: id,
                    column: a.column,
                    method,
                    ontology,
                    similarity: a.similarity,
                });
            }
        }
    }
    map
}

#[test]
fn posting_lists_match_brute_force_scan() {
    let c = corpus(55);
    let idx = TypeIndex::build(&c);
    let brute = brute_force(&c);
    assert!(!brute.is_empty(), "synth corpus must be annotated");

    // Same label set, in sorted order.
    let brute_labels: Vec<&String> = brute.keys().collect();
    assert_eq!(
        idx.labels().iter().collect::<Vec<_>>(),
        brute_labels,
        "label sets diverge"
    );

    // Same posting lists, byte for byte, in the same order.
    let mut total = 0usize;
    for (label, want) in &brute {
        let got = idx
            .postings(label)
            .unwrap_or_else(|| panic!("{label} missing"));
        assert_eq!(got, want.as_slice(), "postings diverge for `{label}`");
        total += want.len();

        // tables_with == sorted distinct table ids of the brute list.
        let mut tables: Vec<usize> = want.iter().map(|p| p.table).collect();
        tables.sort_unstable();
        tables.dedup();
        assert_eq!(
            idx.tables_with(label),
            tables,
            "tables diverge for `{label}`"
        );
    }
    assert_eq!(idx.posting_lists().map(<[_]>::len).sum::<usize>(), total);

    // counts() agrees with the brute-force cardinalities.
    for count in idx.counts() {
        let want = &brute[&count.label];
        assert_eq!(count.postings, want.len(), "{}", count.label);
        let mut tables: Vec<usize> = want.iter().map(|p| p.table).collect();
        tables.sort_unstable();
        tables.dedup();
        assert_eq!(count.tables, tables.len(), "{}", count.label);
    }
}

#[test]
fn index_queries_are_postings_bounded() {
    // The O(postings) promise in practice: looking up every label via the
    // index touches exactly the postings the brute scan assembled — no
    // full-corpus rescan is observable through the public API, and empty
    // lookups stay empty.
    let c = corpus(56);
    let idx = TypeIndex::build(&c);
    assert!(idx.postings("definitely-not-a-semantic-type").is_none());
    for label in idx.labels() {
        let postings = idx.postings(label).expect("listed label resolves");
        assert!(
            !postings.is_empty(),
            "indexed label `{label}` has no postings"
        );
        for p in postings {
            // Every posting must point at a real (table, column) that
            // carries the label under the recorded config.
            let at = c.table_by_id(p.table).expect("table id in range");
            let ann = at
                .annotations(p.method, p.ontology)
                .for_column(p.column)
                .expect("annotated column");
            assert_eq!(&ann.label, label);
            assert_eq!(ann.similarity, p.similarity);
        }
    }
}
