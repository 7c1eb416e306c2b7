//! Counts, not clocks: booting off an index sidecar allocates a number
//! of times fixed by the number of schemas, labels, tables and shards,
//! whatever the number of names in a schema or postings under a label.
//!
//! Two stores hold the same number of tables (so of distinct schemas)
//! and the same labels; one has four times the names per schema and four
//! times the postings per label. `load_indexes` must make exactly as
//! many allocations on one as on the other. A name decoded into its own
//! `String`, or a posting list into its own `Vec`, makes them differ.
//!
//! The counter is thread-local, so what the test harness's other
//! threads allocate meanwhile is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use gittables_annotate::{Annotation, Method};
use gittables_corpus::{
    load_indexes, save_store, write_indexes, AnnotatedTable, Corpus, CorpusStore, F32Matrix,
    TypeIndex,
};
use gittables_ontology::OntologyKind;
use gittables_table::{Schema, Table};

/// The system allocator, counting the allocations (and reallocations)
/// of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's own guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TABLES: usize = 12;
const LABELS: usize = 5;
const DIM: usize = 4;

/// `TABLES` tables of `LABELS × per_label` columns each, every column
/// name its own, column `j` annotated with label `j % LABELS`: every
/// label has `TABLES × per_label` postings.
fn corpus(per_label: usize) -> Corpus {
    let mut corpus = Corpus::new("allocations");
    for t in 0..TABLES {
        let names: Vec<String> = (0..LABELS * per_label)
            .map(|c| format!("table {t} column {c}"))
            .collect();
        let row = vec![names.iter().map(|_| "1".to_string()).collect()];
        let table = Table::from_string_rows(format!("t{t}"), &names, row).unwrap();
        let mut at = AnnotatedTable::new(table);
        at.annotations_mut(Method::Semantic, OntologyKind::DBpedia)
            .annotations = (0..names.len())
            .map(|column| Annotation {
                column,
                type_id: 0,
                label: format!("label {}", column % LABELS),
                ontology: OntologyKind::DBpedia,
                method: Method::Semantic,
                similarity: 0.5,
            })
            .collect();
        corpus.push(at);
    }
    corpus
}

/// `corpus` saved as a colv1 store in `dir` and indexed: its type
/// index, one search entry per table and every schema for completion.
fn indexed_store(corpus: &Corpus, dir: &PathBuf) -> CorpusStore {
    std::fs::remove_dir_all(dir).ok();
    let store = save_store(corpus, dir, 4).unwrap();
    let stored = store.load_corpus().unwrap();
    let schemas: Vec<Schema> = stored.tables.iter().map(|at| at.table.schema()).collect();
    let attributes = schemas.iter().map(Schema::len).sum();
    let ids: Vec<usize> = (0..TABLES).collect();
    write_indexes(
        &store,
        &store.check_values().unwrap(),
        &TypeIndex::build(&stored),
        (
            &ids,
            &schemas,
            &F32Matrix::from_vec(vec![0.5; TABLES * DIM], TABLES, DIM),
        ),
        (
            &schemas,
            &F32Matrix::from_vec(vec![0.25; attributes * DIM], attributes, DIM),
        ),
    )
    .unwrap();
    store
}

/// Allocations this thread makes in one `load_indexes` of `store`,
/// after one load that warms whatever a first call sets up.
fn boot_allocations(store: &CorpusStore) -> u64 {
    drop(load_indexes(store).unwrap());
    let before = ALLOCATIONS.with(Cell::get);
    let loaded = load_indexes(store).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    drop(loaded);
    allocations
}

#[test]
fn a_boot_allocates_per_schema_and_label_not_per_name_or_posting() {
    let base = std::env::temp_dir().join(format!("gt_sidecar_allocs_{}", std::process::id()));
    let mut counts = Vec::new();
    for (tag, per_label) in [("a", 1), ("b", 4)] {
        let corpus = corpus(per_label);
        let store = indexed_store(&corpus, &base.join(tag));
        let loaded = load_indexes(&store).unwrap();
        assert_eq!(loaded.search.schemas.len(), TABLES);
        assert_eq!(loaded.complete.schemas.len(), TABLES);
        assert_eq!(loaded.search.schemas[0].len(), LABELS * per_label);
        assert_eq!(loaded.types.len(), LABELS);
        for list in loaded.types.posting_lists() {
            assert_eq!(list.len(), TABLES * per_label);
        }
        drop(loaded);
        counts.push(boot_allocations(&store));
    }
    std::fs::remove_dir_all(&base).ok();
    assert_eq!(
        counts[0], counts[1],
        "4x the names and postings changed the boot's allocations"
    );
}
