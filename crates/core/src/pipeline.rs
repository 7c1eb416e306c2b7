//! The orchestrating [`Pipeline`]: populate → extract → parse → curate →
//! annotate → anonymize → assemble (Fig. 1 of the paper).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gittables_annotate::{
    Annotation, AnnotationCache, NameAnnotations, SemanticAnnotator, SyntacticAnnotator,
    TableAnnotations,
};
use gittables_corpus::store::{shard_id_for, CorpusStore, StoreError};
use gittables_corpus::{AnnotatedTable, Corpus};
use gittables_curate::{anonymize_table, FilterReason};
use gittables_embed::{MemoStats, WordMemo};
use gittables_githost::{CodeHost, FileKind, GitHost, Repository};
use gittables_ontology::{contains_digit, dbpedia, normalize_label, schema_org, Ontology};
use gittables_synth::repo::{RepoConfig, RepoGenerator};
use gittables_table::Table;
use serde::{Deserialize, Serialize};

use crate::config::PipelineConfig;
use crate::extract::{extract_topic_session, FaultSession, RawCsvFile};
use crate::parse::parse_file_tables;
use crate::quarantine::QuarantineLog;

/// Spacing between the ordering indices of consecutive raw files: file
/// `i`'s tables get indices `i * SUBTABLE_STRIDE + sub`, so a SQL dump's
/// sub-tables sort between their file and the next without disturbing the
/// per-file extraction order that sharding, store indices, and resume
/// re-ranking are built on. `sub` is capped below the stride in
/// [`Pipeline::process_shard`].
const SUBTABLE_STRIDE: usize = 1024;

/// Counters for every stage of the pipeline — the §3.3 percentages.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Raw CSV files fetched from the host.
    pub fetched: usize,
    /// Files parsed into tables (paper: 99.3 %).
    pub parsed: usize,
    /// Files that failed parsing.
    pub parse_failed: usize,
    /// Tables dropped per filter reason (paper: filters drop ≈9 %, license
    /// cuts ≈84 % for the published corpus).
    pub filtered: HashMap<String, usize>,
    /// Tables kept in the corpus.
    pub kept: usize,
    /// Columns anonymized by the PII pass (paper: 0.3 % of columns).
    pub pii_columns: usize,
    /// Total columns in kept tables.
    pub total_columns: usize,
    /// Extraction query count across topics.
    pub queries_executed: usize,
    /// Host-operation retries performed (transient faults and truncated
    /// downloads that were re-attempted).
    pub retries: usize,
    /// Total backoff scheduled across retries, milliseconds.
    pub backoff_ms: u64,
    /// Search queries that failed even after retries (their results are
    /// missing from this run — degraded, not aborted).
    pub queries_failed: usize,
    /// Repositories quarantined by budget exhaustion, permanent faults,
    /// or worker panics — their files are excluded from `fetched` and
    /// from the corpus. Sorted and deduplicated.
    pub quarantined_repos: Vec<Quarantined>,
    /// Files that triggered a quarantine (corrupt content or exhausted
    /// retries). Sorted and deduplicated.
    pub quarantined_files: Vec<Quarantined>,
}

/// One quarantined item (a repository or a file) and why it was set
/// aside. Quarantined work is recorded, skipped, and re-attemptable
/// ([`RetrySelection`]) instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Quarantined {
    /// `owner/repo` for repositories, `owner/repo/path` for files.
    pub name: String,
    /// Why the item was quarantined.
    pub reason: String,
}

/// Inserts `items` into the sorted, deduplicated quarantine list.
fn merge_quarantined(into: &mut Vec<Quarantined>, items: Vec<Quarantined>) {
    into.extend(items);
    into.sort();
    into.dedup();
}

impl PipelineReport {
    /// Fraction of fetched files that parsed.
    #[must_use]
    pub fn parse_rate(&self) -> f64 {
        if self.fetched == 0 {
            return 0.0;
        }
        self.parsed as f64 / self.fetched as f64
    }

    /// Fraction of parsed tables dropped by (non-license) curation.
    #[must_use]
    pub fn filter_rate(&self) -> f64 {
        let dropped: usize = self
            .filtered
            .iter()
            .filter(|(k, _)| k.as_str() != "license")
            .map(|(_, v)| v)
            .sum();
        if self.parsed == 0 {
            return 0.0;
        }
        dropped as f64 / self.parsed as f64
    }

    /// Fraction of kept columns that were anonymized.
    #[must_use]
    pub fn pii_rate(&self) -> f64 {
        if self.total_columns == 0 {
            return 0.0;
        }
        self.pii_columns as f64 / self.total_columns as f64
    }

    /// Folds another report's per-file stage counters into `self`.
    ///
    /// The merge is associative and commutative, so partial reports from
    /// workers can be combined in any grouping and the totals match a
    /// serial run exactly. `fetched` and `queries_executed` describe the
    /// extraction stage, which happens before fan-out — they are summed
    /// here too, so worker-local reports must leave them zero.
    pub fn merge(&mut self, other: PipelineReport) {
        self.fetched += other.fetched;
        self.parsed += other.parsed;
        self.parse_failed += other.parse_failed;
        self.kept += other.kept;
        self.pii_columns += other.pii_columns;
        self.total_columns += other.total_columns;
        self.queries_executed += other.queries_executed;
        self.retries += other.retries;
        self.backoff_ms += other.backoff_ms;
        self.queries_failed += other.queries_failed;
        for (k, v) in other.filtered {
            *self.filtered.entry(k).or_default() += v;
        }
        merge_quarantined(&mut self.quarantined_repos, other.quarantined_repos);
        merge_quarantined(&mut self.quarantined_files, other.quarantined_files);
    }
}

/// The outcome of a store-backed pipeline run ([`Pipeline::run_to_store`]).
#[derive(Debug)]
pub struct StoreRun {
    /// The corpus assembled from every shard committed to the store.
    pub corpus: Corpus,
    /// The merged stage report: extraction counters plus the per-shard
    /// reports of both freshly processed and previously stored shards.
    pub report: PipelineReport,
    /// Repository shards processed and committed by this invocation.
    pub shards_written: usize,
    /// Repository shards skipped because the store already held them.
    pub shards_skipped: usize,
    /// Pending shards left unprocessed because a stop was requested
    /// mid-run; a later resume picks them up.
    pub shards_deferred: usize,
    /// Whether a stop flag cut this run short. The store is still
    /// consistent: in-flight shards finished and committed, deferred
    /// shards were never begun.
    pub interrupted: bool,
}

/// The end-to-end pipeline. Construction builds both ontologies and all four
/// annotators once; every run is then read-only and parallel over
/// `config.workers` threads.
pub struct Pipeline {
    /// Configuration.
    pub config: PipelineConfig,
    dbpedia: Arc<Ontology>,
    schema_org: Arc<Ontology>,
    syn_dbp: SyntacticAnnotator,
    syn_sch: SyntacticAnnotator,
    sem_dbp: SemanticAnnotator,
    sem_sch: SemanticAnnotator,
    /// Memoized combined annotation results per distinct normalized column
    /// name (headers like `id`/`name`/`date` dominate the corpus, so hit
    /// rates are huge). Shared across all repository shards of a run;
    /// sharded locks keep it thread-safe.
    annotation_cache: AnnotationCache,
    /// The word-vector memo both semantic annotators embed through.
    word_memo: Arc<WordMemo>,
}

impl Pipeline {
    /// Builds the pipeline (ontologies + annotation indexes).
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        let dbp = Arc::new(dbpedia());
        let sch = Arc::new(schema_org());
        // Both ontologies are matched against the same column names under
        // the same embedder: one memo embeds each word once for both.
        let word_memo = Arc::new(WordMemo::default());
        let sem_dbp = SemanticAnnotator::with_memo(dbp.clone(), word_memo.clone())
            .with_threshold(config.semantic_threshold);
        let sem_sch = SemanticAnnotator::with_memo(sch.clone(), word_memo.clone())
            .with_threshold(config.semantic_threshold);
        Pipeline {
            syn_dbp: SyntacticAnnotator::new(dbp.clone()),
            syn_sch: SyntacticAnnotator::new(sch.clone()),
            sem_dbp,
            sem_sch,
            dbpedia: dbp,
            schema_org: sch,
            config,
            annotation_cache: AnnotationCache::new(),
            word_memo,
        }
    }

    /// Hit/miss/entry counters of the per-name annotation cache (cumulative over
    /// every run of this pipeline instance).
    #[must_use]
    pub fn annotation_cache_stats(&self) -> MemoStats {
        self.annotation_cache.stats()
    }

    /// Hit/miss/entry counters of the word-vector memo the two semantic
    /// annotators share (label embedding at construction included).
    #[must_use]
    pub fn word_memo_stats(&self) -> MemoStats {
        self.word_memo.stats()
    }

    /// Annotates every column of `table` through the per-name cache: the
    /// name is normalized once, the §3.4 skip rules (empty / digit-bearing
    /// names) run once, and the combined syntactic + semantic × DBpedia +
    /// Schema.org bundle is computed at most once per distinct name
    /// pipeline-wide. Results are identical to calling the four annotators
    /// directly — both methods depend on nothing but the normalized name.
    fn cached_annotations(
        &self,
        table: &Table,
    ) -> (
        TableAnnotations,
        TableAnnotations,
        TableAnnotations,
        TableAnnotations,
    ) {
        let num_columns = table.num_columns();
        let mut syn_dbp = Vec::new();
        let mut syn_sch = Vec::new();
        let mut sem_dbp = Vec::new();
        let mut sem_sch = Vec::new();
        for (i, col) in table.columns().iter().enumerate() {
            let norm = normalize_label(col.name());
            if norm.is_empty() || contains_digit(&norm) {
                continue;
            }
            let bundle = self
                .annotation_cache
                .get_or_compute(&norm, || NameAnnotations {
                    syntactic_dbpedia: self.syn_dbp.annotate_norm(&norm),
                    syntactic_schema: self.syn_sch.annotate_norm(&norm),
                    semantic_dbpedia: self.sem_dbp.annotate_norm(&norm),
                    semantic_schema: self.sem_sch.annotate_norm(&norm),
                });
            let rebind = |a: &Option<Annotation>, out: &mut Vec<Annotation>| {
                if let Some(a) = a {
                    let mut a = a.clone();
                    a.column = i;
                    out.push(a);
                }
            };
            rebind(&bundle.syntactic_dbpedia, &mut syn_dbp);
            rebind(&bundle.syntactic_schema, &mut syn_sch);
            rebind(&bundle.semantic_dbpedia, &mut sem_dbp);
            rebind(&bundle.semantic_schema, &mut sem_sch);
        }
        let wrap = |annotations: Vec<Annotation>| TableAnnotations {
            annotations,
            num_columns,
        };
        (wrap(syn_dbp), wrap(syn_sch), wrap(sem_dbp), wrap(sem_sch))
    }

    /// The DBpedia ontology shared by the annotators.
    #[must_use]
    pub fn dbpedia(&self) -> &Arc<Ontology> {
        &self.dbpedia
    }

    /// The Schema.org ontology shared by the annotators.
    #[must_use]
    pub fn schema_org(&self) -> &Arc<Ontology> {
        &self.schema_org
    }

    /// Populates `host` with synthetic repositories for every configured
    /// topic (the stand-in for GitHub's existing content).
    pub fn populate_host(&self, host: &GitHost) {
        let gen = RepoGenerator::with_config(
            self.config.seed,
            RepoConfig {
                sql_file_prob: self.config.sql_file_prob,
                ..RepoConfig::default()
            },
        );
        for topic in &self.config.topics {
            for i in 0..self.config.repos_per_topic {
                let spec = gen.generate(topic, i);
                host.add_repository(Repository {
                    full_name: spec.full_name,
                    license: spec.license,
                    fork: spec.fork,
                    files: spec
                        .files
                        .into_iter()
                        .map(|f| gittables_githost::RepoFile::new(f.path, f.content))
                        .collect(),
                });
            }
        }
    }

    /// Runs extraction over all topics, deduplicating files across topics
    /// (forked repositories are already excluded by the API). Cross-topic
    /// dedup keeps the first occurrence via a borrowed-key mask — no
    /// per-file `(String, String)` clones.
    #[must_use]
    pub fn extract_all(&self, host: &dyn CodeHost) -> (Vec<RawCsvFile>, usize) {
        let (files, report) = self.extract_stage(host, HashMap::new());
        (files, report.queries_executed)
    }

    /// The full extraction stage under the configured [`FaultPolicy`]:
    /// every topic is extracted through one shared [`FaultSession`] (so
    /// retry budgets and quarantines are repository-global), files of
    /// quarantined repositories are dropped — including files fetched
    /// *before* their repository was quarantined, so quarantine is always
    /// repository-granular — and the result is deduplicated across
    /// topics. Returns the surviving files plus a report seeded with the
    /// extraction counters (`fetched`, `queries_executed`, retry/backoff
    /// accounting, quarantine lists).
    ///
    /// `skip` carries sticky quarantines from a previous store-backed run:
    /// those repositories are skipped outright (no fetches) and re-recorded
    /// as quarantined with their stored reason.
    fn extract_stage(
        &self,
        host: &dyn CodeHost,
        skip: HashMap<String, String>,
    ) -> (Vec<RawCsvFile>, PipelineReport) {
        let mut session = FaultSession::new(&self.config.fault, self.config.seed, skip);
        let mut files = Vec::new();
        let mut queries = 0usize;
        for topic in &self.config.topics {
            // Every kind is queried for every topic — the host's contents,
            // not the synthesis knobs, decide what comes back, so a host
            // populated elsewhere with SQL dumps is extracted the same way.
            for kind in FileKind::ALL {
                let (fs, stats) = extract_topic_session(host, &topic.noun, kind, &mut session);
                queries += stats.queries_executed;
                files.extend(fs);
            }
        }
        if !session.quarantined_repos.is_empty() {
            let quarantined: std::collections::HashSet<&str> = session
                .quarantined_repos
                .iter()
                .map(|q| q.name.as_str())
                .collect();
            files.retain(|f| !quarantined.contains(f.repository.as_str()));
        }
        let keep = crate::extract::first_occurrence_mask(&files, |f| {
            (f.repository.as_str(), f.path.as_str())
        });
        let mut mask = keep.iter();
        files.retain(|_| *mask.next().expect("mask covers every file"));
        let mut report = PipelineReport {
            fetched: files.len(),
            queries_executed: queries,
            retries: session.retries,
            backoff_ms: session.backoff_ms,
            queries_failed: session.queries_failed,
            ..Default::default()
        };
        merge_quarantined(&mut report.quarantined_repos, session.quarantined_repos);
        merge_quarantined(&mut report.quarantined_files, session.quarantined_files);
        (files, report)
    }

    /// Processes one raw file through parse → curate → annotate → anonymize.
    /// Returns the kept tables — one for CSV, possibly several for a SQL
    /// dump — in dump order; filtered tables record their reason and parse
    /// failures count `parse_failed`, both per *file* invariants:
    /// `parsed + parse_failed == fetched` counts files, `kept` counts
    /// tables.
    fn process_file(&self, raw: &RawCsvFile, report: &mut PipelineReport) -> Vec<AnnotatedTable> {
        if let Some(marker) = &self.config.fault.poison_marker {
            // Test hook for the worker-panic quarantine path: a poisoned
            // table stands in for pathological input that crashes a worker.
            assert!(
                !raw.content.contains(marker.as_str()),
                "poisoned table {}/{}",
                raw.repository,
                raw.path
            );
        }
        let tables =
            match parse_file_tables(raw, &self.config.read_options, &self.config.sql_options) {
                Ok(ts) => ts,
                Err(_) => {
                    report.parse_failed += 1;
                    return Vec::new();
                }
            };
        report.parsed += 1;
        let permissive = raw
            .license
            .as_deref()
            .is_some_and(|l| gittables_synth::repo::PERMISSIVE_LICENSES.contains(&l));
        let mut kept = Vec::new();
        for table in tables {
            if let Err(reason) = self.config.curation.evaluate(&table, permissive) {
                *report.filtered.entry(reason.tag().to_string()).or_default() += 1;
                continue;
            }
            kept.push(self.annotate_one(table, report));
        }
        kept
    }

    /// Annotates and (optionally) anonymizes one curated table, updating
    /// the kept/PII counters.
    fn annotate_one(&self, table: Table, report: &mut PipelineReport) -> AnnotatedTable {
        let mut at = AnnotatedTable::new(table);
        let (syn_dbp, syn_sch, sem_dbp, sem_sch) = self.cached_annotations(&at.table);
        at.syntactic_dbpedia = syn_dbp;
        at.syntactic_schema = syn_sch;
        at.semantic_dbpedia = sem_dbp;
        at.semantic_schema = sem_sch;
        if self.config.anonymize {
            // Seed derived from the file URL so anonymization is stable
            // regardless of scheduling.
            let mut seed = self.config.seed;
            for b in at.table.provenance().url().bytes() {
                seed = seed.wrapping_mul(0x100_0000_01b3) ^ u64::from(b);
            }
            let pii = anonymize_table(
                &mut at.table,
                &at.syntactic_schema.clone(),
                &self.schema_org,
                seed,
            );
            report.pii_columns += pii.anonymized.len();
            // No re-annotation after anonymization: both methods depend
            // only on column *names*, and `anonymize_table` replaces values
            // without renaming, so the sets assigned above already describe
            // the published table (tests/annotation_cache.rs proves the
            // final annotations equal direct annotator output on the
            // anonymized tables).
        }
        report.total_columns += at.table.num_columns();
        report.kept += 1;
        at
    }

    /// Processes one repository shard, catching any worker panic. A panic
    /// (e.g. pathological input crashing a parser) discards the shard's
    /// tables *and* its partial report — the repository is quarantined as a
    /// unit, exactly like a permanent host fault — so the same host with
    /// the same faults yields the same corpus from every sink and worker
    /// count.
    fn process_shard(&self, repo: &str, shard: &[(usize, &RawCsvFile)]) -> ShardOutcome {
        let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut local_report = PipelineReport::default();
            let mut local = Vec::with_capacity(shard.len());
            for &(i, raw) in shard {
                let tables = self.process_file(raw, &mut local_report);
                // Spaced indices keep one file's tables contiguous and
                // ordered between files; the cap guards against an
                // over-sized `sql_options.max_tables` colliding with the
                // next file's index range.
                for (sub, at) in tables.into_iter().take(SUBTABLE_STRIDE).enumerate() {
                    local.push((i * SUBTABLE_STRIDE + sub, at));
                }
            }
            (local, local_report)
        }));
        match done {
            Ok((local, local_report)) => ShardOutcome::Done(local, local_report),
            Err(_) => ShardOutcome::Panicked {
                repo: repo.to_string(),
                files: shard.len(),
            },
        }
    }

    /// The one executor behind every run: fans `shards` out contiguously
    /// over `config.effective_workers()` scoped threads, hands each
    /// finished shard's tables and report to `sink`, and folds the outcomes
    /// into `report`. Returns the tables the sink handed back plus how
    /// many shards did not finish.
    ///
    /// Processing is panic-isolated ([`Pipeline::process_shard`]) and
    /// buffered *before* the sink sees anything: a panicking worker
    /// quarantines its repository — tables dropped, the shard's files
    /// leave `fetched` (preserving `parsed + parse_failed == fetched`) —
    /// without ever creating a partial shard. A set `stop` flag defers
    /// shards that have not started; whatever is already processing runs
    /// on through its sink, so shutdown is graceful and atomic. Deferred
    /// shards' files leave `fetched` too: partial reports stay
    /// self-consistent.
    fn execute(
        &self,
        shards: &[RepoShard<'_>],
        stop: Option<&AtomicBool>,
        report: &mut PipelineReport,
        sink: impl Fn(&str, IndexedTables, &PipelineReport) -> Result<IndexedTables, StoreError> + Sync,
    ) -> Result<Executed, StoreError> {
        let one = |(repo, files): &RepoShard<'_>| -> Result<ShardOutcome, StoreError> {
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return Ok(ShardOutcome::Deferred { files: files.len() });
            }
            Ok(match self.process_shard(repo, files) {
                ShardOutcome::Done(tables, local_report) => {
                    ShardOutcome::Done(sink(repo, tables, &local_report)?, local_report)
                }
                unfinished => unfinished,
            })
        };
        let one = &one;
        let per = shards
            .len()
            .div_ceil(self.config.effective_workers())
            .max(1);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .chunks(per)
                .map(|group| s.spawn(move || group.iter().map(one).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                // Shard panics are caught inside; only a sink can unwind.
                .flat_map(|h| h.join().expect("pipeline worker panicked in its sink"))
                .collect()
        });

        let mut done = Executed::default();
        for outcome in outcomes {
            match outcome? {
                ShardOutcome::Done(tables, local_report) => {
                    done.tables.extend(tables);
                    report.merge(local_report);
                }
                ShardOutcome::Panicked { repo, files } => {
                    done.panicked += 1;
                    report.fetched -= files;
                    merge_quarantined(
                        &mut report.quarantined_repos,
                        vec![Quarantined {
                            name: repo,
                            reason: "worker panic".to_string(),
                        }],
                    );
                }
                ShardOutcome::Deferred { files } => {
                    done.deferred += 1;
                    report.fetched -= files;
                }
            }
        }
        Ok(done)
    }

    /// Runs the full pipeline against a populated host and assembles the
    /// corpus in memory, in extraction order. `config.workers` is the only
    /// parallelism setting, and scheduling can never change the output:
    /// every worker count yields the same corpus and report.
    #[must_use]
    pub fn run(&self, host: &dyn CodeHost) -> (Corpus, PipelineReport) {
        let (raw_files, mut report) = self.extract_stage(host, HashMap::new());
        let shards = shard_by_repository(&raw_files);
        let mut tables = self
            .execute(&shards, None, &mut report, |_, tables, _| Ok(tables))
            .expect("the in-memory sink cannot fail")
            .tables;
        tables.sort_by_key(|(i, _)| *i);
        let mut corpus = Corpus::new(self.corpus_name());
        for (_, at) in tables {
            corpus.push(at);
        }
        (corpus, report)
    }

    /// The name every run of this pipeline gives its corpus (seed-derived,
    /// so store-backed and in-memory runs agree).
    #[must_use]
    pub fn corpus_name(&self) -> String {
        format!("gittables-synth-{}", self.config.seed)
    }

    /// [`Pipeline::run_to_store_with`] under the default
    /// [`StoreRunOptions`]: every pending shard, sticky quarantine, no
    /// stop flag.
    ///
    /// # Errors
    /// As [`Pipeline::run_to_store_with`].
    pub fn run_to_store(
        &self,
        host: &dyn CodeHost,
        store: &CorpusStore,
    ) -> Result<StoreRun, StoreError> {
        self.run_to_store_with(host, store, &StoreRunOptions::default())
    }

    /// Runs the pipeline streaming each repository shard straight into
    /// `store` as it completes, with **incremental resume**: repositories
    /// whose shards are already committed are skipped (their persisted
    /// stage reports are merged instead of reprocessing), so an
    /// interrupted run restarts where it stopped and fresh repositories
    /// can be appended to an existing corpus. A bounded or stopped
    /// invocation returns the partial snapshot currently in the store.
    ///
    /// Once every repository shard is committed, the returned corpus and
    /// merged report are identical to an uninterrupted [`Pipeline::run`]
    /// over the same host, regardless of how many invocations it took to
    /// get there.
    ///
    /// # Errors
    /// Propagates [`StoreError`] from shard writes, integrity checks on
    /// load, [`StoreError::MissingShardMeta`] when a pre-existing shard
    /// was not produced by a store-backed run (no report to merge), and
    /// [`StoreError::CorpusNameMismatch`] when the store was created for a
    /// different corpus (e.g. another seed).
    pub fn run_to_store_with(
        &self,
        host: &dyn CodeHost,
        store: &CorpusStore,
        options: &StoreRunOptions<'_>,
    ) -> Result<StoreRun, StoreError> {
        // Refuse to interleave two corpora: a store created for a different
        // seed/config records a different corpus name.
        let store_name = store.name();
        if store_name != self.corpus_name() {
            return Err(StoreError::CorpusNameMismatch {
                store: store_name,
                expected: self.corpus_name(),
            });
        }

        let log = QuarantineLog::load(store.path()).map_err(StoreError::Io)?;
        let skip = match options.retry {
            RetrySelection::All => HashMap::new(),
            RetrySelection::None => log.skip_map(),
            RetrySelection::Repos(repos) => {
                let mut skip = log.skip_map();
                skip.retain(|name, _| !repos.contains(name));
                skip
            }
        };
        let (raw_files, mut report) = self.extract_stage(host, skip);
        let (skipped, mut pending): (Vec<_>, Vec<_>) = shard_by_repository(&raw_files)
            .into_iter()
            .partition(|(repo, _)| store.has_shard(&shard_id_for(repo)));
        // `fetched` counts only the files whose shards this report covers
        // (processed + previously stored); files of shards beyond
        // `max_new_shards` are excluded so `parsed + parse_failed ==
        // fetched` holds for partial reports too. Once nothing is left
        // out, this equals the `run` value.
        let limit = options.max_new_shards.unwrap_or(pending.len());
        for (_, files) in pending.drain(limit.min(pending.len())..) {
            report.fetched -= files.len();
        }

        // Process → write → commit each pending shard independently; the
        // manifest commit is the durability point, so a crash loses at most
        // the shards still in flight.
        let done = self.execute(
            &pending,
            options.stop,
            &mut report,
            |repo, tables, local_report| {
                let mut writer = store.begin_shard(&shard_id_for(repo))?;
                for (i, at) in &tables {
                    writer.push(*i, at)?;
                }
                let mut entry = writer.finish()?;
                entry.meta = Some(serde_json::to_string(local_report)?);
                store.commit_shard(entry)?;
                // Tables are not needed again — the corpus reloads (and
                // integrity-checks) through the store below.
                Ok(Vec::new())
            },
        )?;
        for (repo, _) in &skipped {
            let id = shard_id_for(repo);
            let entry = store
                .shard_entry(&id)
                .expect("skipped shard is in the manifest");
            let meta = entry
                .meta
                .as_deref()
                .ok_or(StoreError::MissingShardMeta { id })?;
            report.merge(serde_json::from_str(meta)?);
        }

        // Reload through the store: verifies every shard's count and
        // fingerprint. Stored indices reflect the extraction that produced
        // each shard; when the configuration has since grown (fresh
        // repositories appended), those interleave differently — so re-rank
        // by the *current* extraction's (repository, path) order, which is
        // what an uninterrupted run over this host would produce.
        let mut corpus = store.load_corpus()?;
        let current_rank: HashMap<(&str, &str), usize> = raw_files
            .iter()
            .enumerate()
            .map(|(i, raw)| ((raw.repository.as_str(), raw.path.as_str()), i))
            .collect();
        corpus.tables.sort_by_key(|at| {
            let p = at.table.provenance();
            current_rank
                .get(&(p.repository.as_str(), p.path.as_str()))
                .copied()
                // Tables whose source left the extraction keep their stored
                // order, after all currently-extracted ones.
                .unwrap_or(usize::MAX)
        });

        // Persist this run's quarantine as the new sidecar: sticky entries
        // that were skipped are re-recorded (they stay), retried entries
        // that healed are absent (they leave the log).
        let log = QuarantineLog {
            repos: report.quarantined_repos.clone(),
        };
        log.save(store.path()).map_err(StoreError::Io)?;

        Ok(StoreRun {
            corpus,
            report,
            shards_written: pending.len() - done.panicked - done.deferred,
            shards_skipped: skipped.len(),
            shards_deferred: done.deferred,
            interrupted: options.stop.is_some_and(|s| s.load(Ordering::Relaxed)),
        })
    }
}

/// How a store-backed run ([`Pipeline::run_to_store_with`]) is bounded,
/// which quarantined repositories it re-attempts, and how it is stopped.
/// The default is a full run: no bound, sticky quarantine, no stop flag.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreRunOptions<'a> {
    /// Bounds how many *new* repository shards this invocation processes
    /// (`None` ⇒ all), enabling batched/incremental builds.
    pub max_new_shards: Option<usize>,
    /// Which repositories of the store's `quarantine.json` sidecar are
    /// re-attempted. The sidecar is rewritten after every run with the
    /// repositories quarantined *by that run*.
    pub retry: RetrySelection<'a>,
    /// Cooperative stop flag (the crawl daemon's SIGTERM/SIGINT). When it
    /// becomes true, in-flight shards finish and commit atomically but no
    /// new shard is begun; the rest are reported in
    /// [`StoreRun::shards_deferred`] and the run is marked
    /// [`StoreRun::interrupted`].
    pub stop: Option<&'a AtomicBool>,
}

/// Which quarantined repositories a store run re-attempts.
#[derive(Debug, Clone, Copy, Default)]
pub enum RetrySelection<'a> {
    /// None: quarantined repositories are *sticky* — skipped without any
    /// host traffic and re-recorded in the report — so a flaky repository
    /// cannot flap in and out of the corpus between resumes.
    #[default]
    None,
    /// Every quarantined repository is re-attempted from scratch (the
    /// self-healing resume path): one that now extracts and processes
    /// cleanly joins the corpus and leaves the log.
    All,
    /// Only the named repositories (the crawl daemon's cooldown-eligible
    /// drain set); the rest stay sticky.
    Repos(&'a HashSet<String>),
}

/// Tables tagged with their extraction-order indices.
type IndexedTables = Vec<(usize, AnnotatedTable)>;

/// The result of processing one repository shard.
enum ShardOutcome {
    /// Tables and the shard-local report.
    Done(IndexedTables, PipelineReport),
    /// A worker panicked inside this shard; `files` is the shard size, to
    /// be subtracted from `fetched`.
    Panicked {
        /// Repository `owner/name`.
        repo: String,
        /// Files the shard held.
        files: usize,
    },
    /// A stop request arrived before this shard started.
    Deferred {
        /// Files the shard held.
        files: usize,
    },
}

/// What [`Pipeline::execute`] folded out of one fan-out.
#[derive(Default)]
struct Executed {
    /// The tables the sink handed back, in no particular order.
    tables: IndexedTables,
    /// Shards quarantined by a worker panic.
    panicked: usize,
    /// Shards deferred by the stop flag.
    deferred: usize,
}

/// One repository's raw files, each carrying its global extraction index
/// for order-preserving reassembly.
type ShardFiles<'a> = Vec<(usize, &'a RawCsvFile)>;

/// One repository's shard of raw files: (repository, files).
type RepoShard<'a> = (&'a str, ShardFiles<'a>);

/// Groups raw files by repository — the pipeline's fan-out grain — keeping
/// first-appearance order so the shard list is deterministic. Each file
/// carries its global extraction index for order-preserving reassembly.
fn shard_by_repository(raw_files: &[RawCsvFile]) -> Vec<RepoShard<'_>> {
    let mut shard_of: HashMap<&str, usize> = HashMap::new();
    let mut shards: Vec<RepoShard> = Vec::new();
    for (i, raw) in raw_files.iter().enumerate() {
        let shard = *shard_of.entry(raw.repository.as_str()).or_insert_with(|| {
            shards.push((raw.repository.as_str(), Vec::new()));
            shards.len() - 1
        });
        shards[shard].1.push((i, raw));
    }
    shards
}

/// Re-exported for report consumers matching on filter tags.
pub use gittables_curate::FilterReason as Filter;

const _: fn() -> &'static str = || FilterReason::TooFewRows.tag();

#[cfg(test)]
mod tests {
    use super::*;

    fn run_small(seed: u64) -> (Corpus, PipelineReport) {
        let pipeline = Pipeline::new(PipelineConfig::small(seed));
        let host = GitHost::new();
        pipeline.populate_host(&host);
        pipeline.run(&host)
    }

    #[test]
    fn end_to_end_produces_corpus() {
        let (corpus, report) = run_small(42);
        assert!(!corpus.is_empty());
        assert_eq!(report.kept, corpus.len());
        assert!(
            report.parse_rate() > 0.9,
            "parse rate {}",
            report.parse_rate()
        );
        assert!(report.fetched >= report.parsed + report.parse_failed);
    }

    #[test]
    fn deterministic_output() {
        let (a, ra) = run_small(7);
        let (b, rb) = run_small(7);
        assert_eq!(a.len(), b.len());
        assert_eq!(ra, rb);
        for (x, y) in a.tables.iter().zip(&b.tables) {
            assert_eq!(x.table.provenance().url(), y.table.provenance().url());
            assert_eq!(x.table, y.table);
        }
    }

    fn temp_store(tag: &str, pipeline: &Pipeline) -> (std::path::PathBuf, CorpusStore) {
        let dir = std::env::temp_dir().join(format!(
            "gt_pipe_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = CorpusStore::create(&dir, pipeline.corpus_name()).unwrap();
        (dir, store)
    }

    #[test]
    fn worker_count_never_changes_either_sink() {
        // Same seeded RepoGenerator content for both pipelines; the
        // 4-worker fan-out must reproduce the 1-worker corpus and report
        // exactly, in memory and through the store.
        let run = |workers: usize| {
            let pipeline = Pipeline::new(PipelineConfig {
                workers,
                ..PipelineConfig::small(13)
            });
            let host = GitHost::new();
            pipeline.populate_host(&host);
            let memory = pipeline.run(&host);
            let (dir, store) = temp_store(&format!("workers{workers}"), &pipeline);
            let stored = pipeline.run_to_store(&host, &store).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            (memory, (stored.corpus, stored.report))
        };
        let (memory1, stored1) = run(1);
        let (memory4, stored4) = run(4);
        assert_eq!(memory1, memory4);
        assert_eq!(stored1, stored4);
        assert_eq!(memory1, stored1);
        let report = &memory1.1;
        assert_eq!(report.parsed + report.parse_failed, report.fetched);
    }

    #[test]
    fn store_run_matches_run() {
        let pipeline = Pipeline::new(PipelineConfig::small(21));
        let host = GitHost::new();
        pipeline.populate_host(&host);
        let (corpus, report) = pipeline.run(&host);
        let (dir, store) = temp_store("store", &pipeline);
        let run = pipeline.run_to_store(&host, &store).unwrap();
        assert_eq!(run.corpus, corpus);
        assert_eq!(run.report, report);
        assert_eq!(run.shards_skipped, 0);
        assert!(run.shards_written > 0);

        // A second invocation is a pure resume: everything skipped, same
        // corpus and report.
        let resumed = pipeline.run_to_store(&host, &store).unwrap();
        assert_eq!(resumed.corpus, corpus);
        assert_eq!(resumed.report, report);
        assert_eq!(resumed.shards_written, 0);
        assert_eq!(resumed.shards_skipped, run.shards_written);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_to_store_is_run_to_store_with_default_options() {
        let pipeline = Pipeline::new(PipelineConfig::small(21));
        let host = GitHost::new();
        pipeline.populate_host(&host);
        let (dir_a, store_a) = temp_store("plain", &pipeline);
        let (dir_b, store_b) = temp_store("with", &pipeline);
        let a = pipeline.run_to_store(&host, &store_a).unwrap();
        let b = pipeline
            .run_to_store_with(&host, &store_b, &StoreRunOptions::default())
            .unwrap();
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.report, b.report);
        assert_eq!(
            (a.shards_written, a.shards_skipped, a.shards_deferred),
            (b.shards_written, b.shards_skipped, b.shards_deferred)
        );
        assert_eq!(a.interrupted, b.interrupted);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn annotations_populated() {
        let (corpus, _) = run_small(11);
        let any_syn = corpus.tables.iter().any(|t| t.syntactic_dbpedia.any());
        let any_sem = corpus.tables.iter().any(|t| t.semantic_schema.any());
        assert!(any_syn && any_sem);
    }

    #[test]
    fn license_mode_filters_more() {
        let mut cfg = PipelineConfig::small(5);
        cfg.curation.require_license = true;
        let licensed = Pipeline::new(cfg);
        let host = GitHost::new();
        licensed.populate_host(&host);
        let (c_lic, r_lic) = licensed.run(&host);
        let open = Pipeline::new(PipelineConfig::small(5));
        let host2 = GitHost::new();
        open.populate_host(&host2);
        let (c_open, _) = open.run(&host2);
        assert!(c_lic.len() < c_open.len());
        assert!(r_lic.filtered.get("license").copied().unwrap_or(0) > 0);
    }
}
