//! The [`QueryEngine`]: a corpus plus its read-only query indexes.
//!
//! Two boot paths produce observably identical engines:
//!
//! * **materialized** — load every table into memory and build the three
//!   indexes from scratch ([`QueryEngine::from_corpus`] /
//!   [`QueryEngine::load_materialized`]); cold start and RSS scale with
//!   corpus size.
//! * **sidecar** — map the persisted index sidecars
//!   ([`gittables_corpus::load_indexes`]) and serve tables lazily off the
//!   mapped shard segments ([`gittables_corpus::LazyCorpus`]); cold
//!   start is O(index size) and `/tables/{id}` touches only that
//!   table's pages.
//!
//! [`QueryEngine::load`] prefers the sidecar path and falls back to a
//! materialized rebuild when the sidecars are missing, stale, or
//! corrupt — recording which path ran (and why a fallback happened) in
//! [`EngineBuildStats`], served under `/metrics`. That decision lives in
//! one place (`QueryEngine::boot`); a sharded deployment boots the same
//! whole-corpus engine and then splits it into shard-local views
//! (`QueryEngine::split`).

use std::path::Path;
use std::sync::Arc;

use gittables_annotate::{Annotation, Method};
use gittables_core::apps::{DataSearch, NearestCompletion, SchemaCompletion, SearchHit};
use gittables_corpus::{
    load_indexes, AnnotatedTable, Corpus, CorpusStore, GroupDirectory, LazyCorpus, SidecarIssue,
    StoreError, TableId, TypeCount, TypeIndex,
};
use gittables_embed::MemoStats;
use gittables_ontology::OntologyKind;
use serde::{Deserialize, Serialize};

/// How many rows `/tables/{id}` includes as a preview.
pub const SAMPLE_ROWS: usize = 5;

/// `/health` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` while the server answers.
    pub status: String,
    /// Corpus name.
    pub corpus: String,
    /// Number of tables served.
    pub tables: usize,
    /// Number of distinct semantic types indexed.
    pub types: usize,
}

/// `/types/{label}/tables` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeTablesResponse {
    /// The queried type label.
    pub label: String,
    /// Distinct ids of tables with at least one such column, ascending.
    pub tables: Vec<TableId>,
    /// Every `(table, column)` occurrence of the type.
    pub postings: Vec<gittables_corpus::TypePosting>,
}

/// One `(method, ontology)` annotation set of a table, flattened for the
/// `/tables/{id}` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnotationSet {
    /// Annotation method.
    pub method: Method,
    /// Source ontology.
    pub ontology: OntologyKind,
    /// The column annotations.
    pub annotations: Vec<Annotation>,
}

/// `/tables/{id}` response body: schema + annotations + sample rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableSummary {
    /// Stable table id.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Provenance URL (`repository/path`).
    pub url: String,
    /// Topic whose query retrieved the source file.
    pub topic: String,
    /// Repository license, if any.
    pub license: Option<String>,
    /// Number of rows.
    pub num_rows: usize,
    /// Number of columns.
    pub num_columns: usize,
    /// The schema (attribute names, in column order).
    pub schema: Vec<String>,
    /// The four annotation sets (2 methods × 2 ontologies).
    pub annotations: Vec<AnnotationSet>,
    /// Up to `SAMPLE_ROWS` (5) leading rows.
    pub sample_rows: Vec<Vec<String>>,
}

/// How an engine's cold start was spent: the store→memory load versus
/// the in-memory index builds — plus which boot path ran. Served under
/// `/metrics` (`engine`) so a cold-start regression — a slow store
/// format, a bloated index build, a silently-skipped sidecar — is
/// observable in production, per component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct EngineBuildStats {
    /// Wall time spent opening the store and getting tables servable:
    /// materializing the corpus on the rebuild path, or mapping and
    /// verifying the sidecar set on the sidecar path (0 when the engine
    /// was built from an in-memory corpus).
    pub store_load_ms: f64,
    /// Wall time spent building the search/completion/type indexes
    /// (≈ 0 on the sidecar path: the indexes are reassembled from
    /// already-decoded parts, not rebuilt).
    pub index_build_ms: f64,
    /// Shard format of the store the corpus came from (`None` for
    /// in-memory engines).
    pub store_format: Option<String>,
    /// Which boot path produced the engine: `"memory"` (built over an
    /// in-process corpus), `"sidecar"` (mapped persisted indexes +
    /// lazy tables), or `"rebuild"` (store load + index build).
    pub boot_path: String,
    /// When [`Self::boot_path`] is `"rebuild"` because the sidecar path
    /// was tried and refused: the machine-readable reason —
    /// `"no_sidecar"`, `"stale"`, or `"corrupt"`.
    pub fallback_reason: Option<String>,
}

/// Where the engine's tables live: fully materialized in memory, or
/// decoded on demand from mapped shard segments. Either way the source
/// is the *whole* corpus, shared by every shard-local engine split from
/// it and addressed by global table id.
#[derive(Clone)]
enum TableSource {
    Materialized(Arc<Corpus>),
    Lazy(LazyCorpus),
}

impl TableSource {
    fn name(&self) -> &str {
        match self {
            TableSource::Materialized(c) => &c.name,
            TableSource::Lazy(l) => l.name(),
        }
    }
}

/// A corpus plus the shared read-only indexes every query runs
/// against. Build once, share behind an `Arc` across server workers.
///
/// An engine either covers the whole corpus (`id_range == 0..len`, the
/// classic single-engine deployment) or one contiguous slice of global
/// table ids — a *shard-local* engine, N of which sit behind a
/// [`crate::router::Router`] that scatter-gathers queries and merges
/// answers bit-identically to the whole-corpus engine. The search and
/// type indexes are shard-local; the completion index is corpus-global
/// (it dedups schemas across the whole corpus and carries no table ids)
/// and shared by every engine of a snapshot.
pub struct QueryEngine {
    tables: TableSource,
    search: DataSearch,
    completion: Arc<NearestCompletion>,
    types: TypeIndex,
    build: EngineBuildStats,
    /// The half-open global table-id range this engine owns. Queries for
    /// ids outside it answer `None` (the router never sends them here).
    id_range: std::ops::Range<usize>,
}

/// Builds the three query indexes over every table of `corpus`, ids =
/// corpus positions — the one builder behind the in-memory engine, the
/// rebuild boot path and the sidecar writer, so all three hold
/// bit-identical indexes. The builds are independent reads of the same
/// corpus, so they run on separate threads: the cost is the slowest
/// build, not the sum.
pub(crate) fn build_indexes(corpus: &Corpus) -> (DataSearch, NearestCompletion, TypeIndex) {
    std::thread::scope(|s| {
        let search = s.spawn(|| DataSearch::build(corpus));
        let completion = s.spawn(|| NearestCompletion::build(corpus));
        let types = TypeIndex::build(corpus);
        (
            search.join().expect("search index build"),
            completion.join().expect("completion index build"),
            types,
        )
    })
}

impl QueryEngine {
    /// Builds the engine over an already-materialized corpus. Table ids
    /// are the corpus positions (stable across store round trips).
    #[must_use]
    pub fn from_corpus(corpus: Corpus) -> Self {
        let started = std::time::Instant::now();
        let (search, completion, types) = build_indexes(&corpus);
        let id_range = 0..corpus.len();
        QueryEngine {
            tables: TableSource::Materialized(Arc::new(corpus)),
            search,
            completion: Arc::new(completion),
            types,
            build: EngineBuildStats {
                index_build_ms: started.elapsed().as_secs_f64() * 1e3,
                boot_path: "memory".to_string(),
                ..EngineBuildStats::default()
            },
            id_range,
        }
    }

    /// Splits a whole-corpus engine into one shard-local engine per group
    /// of `directory` (which must cover `0..num_tables`). A single group
    /// is the engine itself, moved. Otherwise each engine gets its slice
    /// of the search index ([`DataSearch::slice`]: a zero-copy row view
    /// when the matrix is a mapped sidecar, its rows' norms, and its run
    /// of the one packed copy) and its restriction of the type index,
    /// while the table source and the completion index are shared:
    /// nothing is re-embedded, re-normed or re-packed — a boot norms and
    /// packs every row once at any shard count — so a scatter-gather
    /// merge across the engines reproduces this engine's answers bit for
    /// bit.
    pub(crate) fn split(self, directory: &GroupDirectory) -> Vec<QueryEngine> {
        if let [whole] = directory.groups() {
            assert_eq!(whole.range, self.id_range, "one group covers the engine");
            return vec![self];
        }
        let ids = self.search.entry_ids();
        directory
            .groups()
            .iter()
            .map(|group| {
                let range = &group.range;
                // One search entry per table, ids ascending, so a range's
                // entries are one contiguous run.
                let lo = ids.partition_point(|&id| id < range.start);
                let hi = ids.partition_point(|&id| id < range.end);
                QueryEngine {
                    tables: self.tables.clone(),
                    search: self.search.slice(lo..hi),
                    completion: Arc::clone(&self.completion),
                    types: restrict_types(&self.types, range),
                    build: self.build.clone(),
                    id_range: range.clone(),
                }
            })
            .collect()
    }

    /// Boots the engine for the store at `dir`, preferring the sidecar
    /// path: map the persisted indexes ([`gittables_corpus::load_indexes`])
    /// and serve tables lazily off the mapped shard segments — cold
    /// start is O(index size), not O(corpus). When the sidecar set is
    /// missing, stale, or corrupt, falls back to the materialized
    /// rebuild ([`Self::load_materialized`]) and records why in
    /// [`EngineBuildStats::fallback_reason`]; a bad sidecar can cost a
    /// rebuild, never a wrong answer.
    ///
    /// # Errors
    /// Propagates store open/load failures. A sidecar problem alone is
    /// never an error — it downgrades to the rebuild path.
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let started = std::time::Instant::now();
        Self::boot(&CorpusStore::open(dir.as_ref())?, started)
    }

    /// The sidecar-or-rebuild decision over an already-open store —
    /// shared by [`Self::load`] and every shard count of
    /// [`crate::ShardSet::load`].
    pub(crate) fn boot(
        store: &CorpusStore,
        started: std::time::Instant,
    ) -> Result<Self, StoreError> {
        match Self::try_from_sidecars(store, started) {
            Ok(engine) => Ok(engine),
            Err(issue) => {
                eprintln!(
                    "sidecar boot unavailable for {}: {issue}; rebuilding indexes from the corpus",
                    store.path().display()
                );
                let reason = issue.reason().to_string();
                let mut engine = Self::rebuild_from_store(store, started)?;
                engine.build.fallback_reason = Some(reason);
                Ok(engine)
            }
        }
    }

    /// Loads the corpus persisted at `dir` (a [`CorpusStore`] directory)
    /// and builds the indexes from scratch, never consulting sidecars —
    /// the pre-sidecar boot path, kept as the reference the lazy path is
    /// pinned against. Extraction is never re-run: this reads the shards
    /// exactly as [`CorpusStore::load_corpus`] does, integrity checks
    /// included, in whatever shard format the manifest records.
    ///
    /// # Errors
    /// Propagates store open/load failures.
    pub fn load_materialized(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let started = std::time::Instant::now();
        let store = CorpusStore::open(dir.as_ref())?;
        Self::rebuild_from_store(&store, started)
    }

    /// The build-from-corpus path over an already-open store.
    fn rebuild_from_store(
        store: &CorpusStore,
        started: std::time::Instant,
    ) -> Result<Self, StoreError> {
        let corpus = store.load_corpus()?;
        let store_load_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut engine = Self::from_corpus(corpus);
        engine.build.store_load_ms = store_load_ms;
        engine.build.store_format = Some(store.format().name().to_string());
        engine.build.boot_path = "rebuild".to_string();
        Ok(engine)
    }

    /// The sidecar boot path: O(index mmap), no table materialized.
    fn try_from_sidecars(
        store: &CorpusStore,
        started: std::time::Instant,
    ) -> Result<Self, SidecarIssue> {
        let indexes = load_indexes(store)?;
        // A sidecar whose matrices were produced by a different encoder
        // build cannot be scored against this build's query embeddings.
        let dim = DataSearch::encoder_dim();
        if indexes.search.rows.dim() != dim {
            return Err(SidecarIssue::Stale {
                detail: format!(
                    "embedding dim {} != this build's {dim}",
                    indexes.search.rows.dim()
                ),
            });
        }
        let store_load_ms = started.elapsed().as_secs_f64() * 1e3;
        let assemble = std::time::Instant::now();
        let search = DataSearch::from_raw_parts(
            indexes.search.ids,
            indexes.search.schemas,
            indexes.search.rows,
        );
        let completion = NearestCompletion::from_raw_parts(
            indexes.complete.schemas,
            indexes.complete.starts,
            indexes.complete.rows,
        );
        let id_range = 0..indexes.corpus.len();
        Ok(QueryEngine {
            tables: TableSource::Lazy(indexes.corpus),
            search,
            completion: Arc::new(completion),
            types: indexes.types,
            build: EngineBuildStats {
                store_load_ms,
                index_build_ms: assemble.elapsed().as_secs_f64() * 1e3,
                store_format: Some(store.format().name().to_string()),
                boot_path: "sidecar".to_string(),
                fallback_reason: None,
            },
            id_range,
        })
    }

    /// The cold-start breakdown recorded when this engine was built.
    #[must_use]
    pub fn build_stats(&self) -> &EngineBuildStats {
        &self.build
    }

    /// The materialized corpus being served — the whole corpus, also for
    /// a shard-local engine — or `None` for a sidecar-booted engine
    /// (tables are decoded on demand and never all held in memory).
    #[must_use]
    pub fn corpus(&self) -> Option<&Corpus> {
        match &self.tables {
            TableSource::Materialized(c) => Some(c.as_ref()),
            TableSource::Lazy(_) => None,
        }
    }

    /// The schema-embedding search index.
    #[must_use]
    pub fn search_index(&self) -> &DataSearch {
        &self.search
    }

    /// The schema-completion engine — corpus-global, the same `Arc` in
    /// every engine of a snapshot.
    #[must_use]
    pub fn completion(&self) -> &Arc<NearestCompletion> {
        &self.completion
    }

    /// Word-vector memo counters of this engine's two query embedders
    /// (search and completion), summed.
    #[must_use]
    pub fn word_memo_stats(&self) -> MemoStats {
        self.search.word_memo_stats() + self.completion.word_memo_stats()
    }

    /// The inverted semantic-type index.
    #[must_use]
    pub fn type_index(&self) -> &TypeIndex {
        &self.types
    }

    /// Number of tables served: the owned id range's length (equals the
    /// corpus size for a whole-corpus engine).
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.id_range.len()
    }

    /// The half-open global table-id range this engine owns
    /// (`0..num_tables()` for a whole-corpus engine).
    #[must_use]
    pub fn id_range(&self) -> std::ops::Range<usize> {
        self.id_range.clone()
    }

    /// `/search`: top-`k` tables for a natural-language query.
    #[must_use]
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        self.search.search(query, k)
    }

    /// The query half of [`Self::search`]. Every engine of a snapshot
    /// embeds alike, so the [`crate::router::Router`] calls this once per
    /// request and hands the vector to every shard.
    pub(crate) fn embed_query(&self, query: &str) -> Vec<f32> {
        self.search.embed_query(query)
    }

    /// `/complete`: the `k` nearest completions for a schema prefix.
    #[must_use]
    pub fn complete(&self, prefix: &[&str], k: usize) -> Vec<SchemaCompletion> {
        self.completion.complete(prefix, k)
    }

    /// `/types`: per-type posting/table counts, in label order.
    #[must_use]
    pub fn type_counts(&self) -> Vec<TypeCount> {
        self.types.counts()
    }

    /// `/types/{label}/tables`: the posting list of one type, or `None`
    /// when the label is not indexed.
    #[must_use]
    pub fn type_tables(&self, label: &str) -> Option<TypeTablesResponse> {
        let postings = self.types.postings(label)?;
        Some(TypeTablesResponse {
            label: label.to_string(),
            tables: self.types.tables_with(label),
            postings: postings.to_vec(),
        })
    }

    /// `/tables/{id}`: schema + annotations + sample rows. `Ok(None)`
    /// when `id` is out of range. On the lazy path only that table's
    /// block is decoded (and its pages touched); a corrupt block or a
    /// fingerprint mismatch is a typed error — never a wrong summary,
    /// never a false 404.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] from [`LazyCorpus::get`] on the lazy
    /// path; the materialized path never errors.
    pub fn try_table_summary(&self, id: TableId) -> Result<Option<TableSummary>, StoreError> {
        if !self.id_range.contains(&id) {
            return Ok(None);
        }
        // Both sources hold the whole corpus; `id` is its global position.
        match &self.tables {
            TableSource::Materialized(c) => Ok(c.table_by_id(id).map(|at| summarize(id, at))),
            TableSource::Lazy(l) => Ok(l.get(id)?.map(|at| summarize(id, &at))),
        }
    }

    /// [`Self::try_table_summary`] flattened for callers that hold a
    /// known-good store (`None` covers both out-of-range and, on the
    /// lazy path, a corrupt block — prefer the `try_` form where the
    /// distinction matters, as the HTTP layer does).
    #[must_use]
    pub fn table_summary(&self, id: TableId) -> Option<TableSummary> {
        self.try_table_summary(id).ok().flatten()
    }

    /// `/health`: liveness plus corpus size.
    #[must_use]
    pub fn health(&self) -> HealthResponse {
        HealthResponse {
            status: "ok".to_string(),
            corpus: self.tables.name().to_string(),
            tables: self.id_range.len(),
            types: self.types.len(),
        }
    }
}

/// Restricts a type index to the postings of one id range, dropping
/// labels left empty. Postings within a label ascend by table id, so
/// each restriction is a contiguous run.
fn restrict_types(types: &TypeIndex, range: &std::ops::Range<usize>) -> TypeIndex {
    let mut labels = Vec::new();
    let mut postings = Vec::new();
    for (label, list) in types.labels().iter().zip(types.posting_lists()) {
        let lo = list.partition_point(|p| p.table < range.start);
        let hi = list.partition_point(|p| p.table < range.end);
        if lo < hi {
            labels.push(label.clone());
            postings.push(list[lo..hi].to_vec());
        }
    }
    TypeIndex::from_raw_parts(labels, postings)
}

/// Flattens one table into the `/tables/{id}` response shape.
fn summarize(id: TableId, at: &AnnotatedTable) -> TableSummary {
    let t = &at.table;
    let p = t.provenance();
    let annotations = Corpus::annotation_configs()
        .into_iter()
        .map(|(method, ontology)| AnnotationSet {
            method,
            ontology,
            annotations: at.annotations(method, ontology).annotations.clone(),
        })
        .collect();
    let sample_rows = (0..t.num_rows().min(SAMPLE_ROWS))
        .filter_map(|r| t.row(r))
        .map(|row| row.into_iter().map(str::to_string).collect())
        .collect();
    TableSummary {
        id,
        name: t.name().to_string(),
        url: p.url(),
        topic: p.topic.clone(),
        license: p.license.clone(),
        num_rows: t.num_rows(),
        num_columns: t.num_columns(),
        schema: t.columns().iter().map(|c| c.name().into()).collect(),
        annotations,
        sample_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_corpus::AnnotatedTable;
    use gittables_table::Table;

    fn corpus() -> Corpus {
        let mut c = Corpus::new("engine-test");
        for (i, attrs) in [
            vec!["order_id", "status", "total_price"],
            vec!["species", "habitat", "diet"],
        ]
        .iter()
        .enumerate()
        {
            let row: Vec<&str> = attrs.iter().map(|_| "v").collect();
            let rows = [row.clone(), row.clone(), row];
            let t = Table::from_rows(format!("t{i}"), attrs, &rows).unwrap();
            let mut at = AnnotatedTable::new(t);
            at.syntactic_dbpedia.annotations = vec![Annotation {
                column: 0,
                type_id: 0,
                label: "identifier".into(),
                ontology: OntologyKind::DBpedia,
                method: Method::Syntactic,
                similarity: 1.0,
            }];
            c.push(at);
        }
        c
    }

    #[test]
    fn engine_answers_match_direct_apps() {
        let c = corpus();
        let engine = QueryEngine::from_corpus(c.clone());
        let direct = DataSearch::build(&c);
        assert_eq!(
            engine.search("order status", 2),
            direct.search("order status", 2)
        );
        let direct = NearestCompletion::build(&c);
        assert_eq!(
            engine.complete(&["order_id"], 3),
            direct.complete(&["order_id"], 3)
        );
        assert_eq!(engine.type_counts(), TypeIndex::build(&c).counts());
    }

    #[test]
    fn table_summary_shape() {
        let engine = QueryEngine::from_corpus(corpus());
        let s = engine.table_summary(0).unwrap();
        assert_eq!(s.id, 0);
        assert_eq!(s.schema, vec!["order_id", "status", "total_price"]);
        assert_eq!(s.num_rows, 3);
        assert_eq!(s.sample_rows.len(), 3);
        assert_eq!(s.annotations.len(), 4);
        assert_eq!(s.annotations[0].annotations.len(), 1);
        assert!(engine.table_summary(99).is_none());
    }

    #[test]
    fn type_tables_known_and_unknown() {
        let engine = QueryEngine::from_corpus(corpus());
        let t = engine.type_tables("identifier").unwrap();
        assert_eq!(t.tables, vec![0, 1]);
        assert_eq!(t.postings.len(), 2);
        assert!(engine.type_tables("nope").is_none());
    }

    #[test]
    fn health_counts() {
        let engine = QueryEngine::from_corpus(corpus());
        let h = engine.health();
        assert_eq!(h.status, "ok");
        assert_eq!(h.tables, 2);
        assert_eq!(h.types, 1);
    }

    #[test]
    fn load_equals_from_corpus() {
        let c = corpus();
        let dir = std::env::temp_dir().join(format!("gt_engine_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        gittables_corpus::save_store(&c, &dir, 1).unwrap();
        let loaded = QueryEngine::load(&dir).unwrap();
        let direct = QueryEngine::from_corpus(c);
        assert_eq!(loaded.corpus(), direct.corpus());
        assert_eq!(loaded.search("order", 2), direct.search("order", 2));
        assert_eq!(loaded.type_counts(), direct.type_counts());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store dir salted per test so parallel tests never collide.
    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gt_engine_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Booting and rebuilding must serve identical answers regardless of
    /// which path ran; asserts that plus the recorded reason.
    fn assert_fallback(dir: &std::path::Path, reason: &str) {
        let engine = QueryEngine::load(dir).unwrap();
        assert_eq!(engine.build_stats().boot_path, "rebuild");
        assert_eq!(
            engine.build_stats().fallback_reason.as_deref(),
            Some(reason)
        );
        let reference = QueryEngine::load_materialized(dir).unwrap();
        assert_eq!(reference.build_stats().fallback_reason, None);
        assert_eq!(
            engine.search("order status", 2),
            reference.search("order status", 2)
        );
        assert_eq!(engine.type_counts(), reference.type_counts());
        assert_eq!(engine.table_summary(0), reference.table_summary(0));
    }

    #[test]
    fn fallback_reason_no_sidecar() {
        let dir = store_dir("nosc");
        gittables_corpus::save_store(&corpus(), &dir, 1).unwrap();
        assert_fallback(&dir, "no_sidecar");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fallback_reason_stale() {
        // Sidecars built against one store, copied next to a different
        // one: the binding fingerprint refuses them as stale.
        let old = store_dir("stale_src");
        gittables_corpus::save_store(&corpus(), &old, 1).unwrap();
        crate::indexer::build_sidecars(&old).unwrap();

        let dir = store_dir("stale");
        let mut other = corpus();
        other.push(AnnotatedTable::new(
            Table::from_rows("extra", &["alpha", "beta"], &[["1", "2"]]).unwrap(),
        ));
        gittables_corpus::save_store(&other, &dir, 1).unwrap();
        let f = gittables_corpus::SIDECAR_FILE;
        std::fs::copy(old.join(f), dir.join(f)).unwrap();
        assert_fallback(&dir, "stale");
        std::fs::remove_dir_all(&old).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fallback_reason_stale_for_another_encoders_dim() {
        // A well-formed sidecar of this very store whose rows another
        // encoder build produced: they cannot be scored against this
        // build's query embeddings.
        let dir = store_dir("dim");
        let c = corpus();
        let store = gittables_corpus::save_store(&c, &dir, 1).unwrap();
        let dim = DataSearch::encoder_dim() + 1;
        let schema = [gittables_table::Schema::new(["order_id"])];
        gittables_corpus::write_indexes(
            &store,
            &gittables_corpus::table_fingerprints(&c),
            &TypeIndex::build(&c),
            (
                &[0],
                &schema,
                &gittables_corpus::F32Matrix::from_vec(vec![1.0; dim], 1, dim),
            ),
            (
                &schema,
                &gittables_corpus::F32Matrix::from_vec(vec![1.0; dim], 1, dim),
            ),
        )
        .unwrap();
        assert_fallback(&dir, "stale");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fallback_reason_corrupt() {
        let dir = store_dir("corrupt");
        gittables_corpus::save_store(&corpus(), &dir, 1).unwrap();
        crate::indexer::build_sidecars(&dir).unwrap();
        // Healthy sidecars boot the sidecar path...
        let healthy = QueryEngine::load(&dir).unwrap();
        assert_eq!(healthy.build_stats().boot_path, "sidecar");
        // ...then one flipped payload byte downgrades to a rebuild.
        let path = dir.join(gittables_corpus::SIDECAR_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        assert_fallback(&dir, "corrupt");
        std::fs::remove_dir_all(&dir).ok();
    }
}
