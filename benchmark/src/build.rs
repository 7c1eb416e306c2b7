//! The build half of a workload: set-up, repeated `run_to_store` into
//! fresh colv1 stores, the read-back of the last store, and the gates
//! that compare all of it with a serial in-memory `Pipeline::run`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gittables_core::{FaultPolicy, Pipeline, PipelineConfig, PipelineReport, StoreRun};
use gittables_corpus::{load_store, save_store_as, Corpus, CorpusStore, StoreFormat};
use gittables_githost::{CodeHost, FaultSpec, FlakyHost, GitHost, HostPool, PoolPolicy, PoolStats};
use gittables_serve::{build_sidecars, QueryEngine};

use crate::hostview::{HostCounters, HostView};
use crate::inputs::{self, REPOS_PER_TOPIC, TOPICS};
use crate::proc::{Spent, Stopwatch};
use crate::workloads::{Workload, FAULT_RATE};

/// Pipeline workers, and the size `main` gives rayon's pool, which
/// `run_to_store` and `load_store` fan out on: the run has one CPU
/// (`proc::pin_to_one_cpu`), so more would only take turns on it.
pub const BUILD_THREADS: usize = 1;
/// The server's worker threads, and the load generator's connections
/// (one thread each): two, so that requests do overlap in the server.
pub const SERVE_THREADS: usize = 2;
/// Tables per shard of the store the serve half reads.
const SERVE_SHARD_TABLES: usize = 64;

pub fn config_for(w: &Workload, seed: u64) -> PipelineConfig {
    PipelineConfig {
        topics: inputs::mixed_topics(TOPICS),
        repos_per_topic: REPOS_PER_TOPIC,
        sql_file_prob: w.sql_file_prob,
        workers: BUILD_THREADS,
        fault: FaultPolicy {
            // Retries are accounted, not slept, and never exhaust a
            // repository's budget: with transient-only faults the
            // faulty corpus must equal the clean one.
            sleep: false,
            repo_retry_budget: u32::MAX,
            ..FaultPolicy::default()
        },
        ..PipelineConfig::small(seed)
    }
}

/// What set-up produces: the populated host and a built pipeline.
pub struct Inputs {
    pub host: GitHost,
    pub pipeline: Pipeline,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole set-up, in CPU and in wall seconds; the parts below
    /// are wall seconds.
    pub total: Spent,
    /// Rendering the synthetic repositories (`gittables_synth`).
    pub synth_s: f64,
    /// `GitHost::add_repository`: storing and token-indexing them.
    pub index_s: f64,
    /// `Pipeline::new`: both ontologies and the four annotators.
    pub init_s: f64,
}

pub fn setup(w: &Workload, seed: u64) -> (Inputs, SetupTimes) {
    let watch = Stopwatch::start();
    let started = Instant::now();
    let config = config_for(w, seed);
    let repos = inputs::render(seed, &config.topics, w.sql_file_prob);
    let synth_s = started.elapsed().as_secs_f64();
    let host = GitHost::new();
    let t = Instant::now();
    for repo in repos {
        host.add_repository(repo);
    }
    let index_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pipeline = Pipeline::new(config);
    let init_s = t.elapsed().as_secs_f64();
    (
        Inputs { host, pipeline },
        SetupTimes {
            total: watch.stop(),
            synth_s,
            index_s,
            init_s,
        },
    )
}

/// A directory under the build's target directory, removed on drop —
/// also when a gate fails or a panic unwinds.
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn create() -> std::io::Result<TempRoot> {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        let dir = Path::new(&target)
            .join("tmp")
            .join(format!("benchmark-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        Ok(TempRoot(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One `run_to_store` repetition.
pub struct BuildRep {
    pub spent: Spent,
    pub run: StoreRun,
    pub dir: PathBuf,
    /// Pool counters of a faulty repetition.
    pub pool: Option<PoolStats>,
}

/// Builds the corpus from `inputs.host` into a fresh colv1 store at
/// `dir`. The timed part is store creation plus `run_to_store`: host
/// to committed, reloaded store. A faulty workload reads the host
/// through a fresh deterministic pool of two fault-injecting replicas
/// (whose backend calls `counters` counts), so every repetition meets
/// the same fault schedule.
pub fn build_once(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    pipeline: &Pipeline,
    dir: &Path,
    counters: &HostCounters,
) -> Result<BuildRep, String> {
    let run_on = |host: &dyn CodeHost| -> Result<(Spent, StoreRun), String> {
        let watch = Stopwatch::start();
        let store =
            CorpusStore::create_with_format(dir, pipeline.corpus_name(), StoreFormat::ColV1)
                .map_err(|e| format!("create store: {e}"))?;
        let run = pipeline
            .run_to_store(host, &store)
            .map_err(|e| format!("run_to_store: {e}"))?;
        Ok((watch.stop(), run))
    };
    let (spent, run, pool) = if w.faulty {
        let replicas = (0..2u64)
            .map(|i| {
                FlakyHost::new(
                    HostView::new(&inputs.host, counters, false),
                    FaultSpec::transient(seed + i, FAULT_RATE),
                )
            })
            .collect();
        let pool = HostPool::new(
            replicas,
            PoolPolicy {
                seed,
                deterministic: true,
                ..PoolPolicy::default()
            },
        );
        let (spent, run) = run_on(&pool)?;
        (spent, run, Some(pool.stats()))
    } else {
        let (spent, run) = run_on(&inputs.host)?;
        (spent, run, None)
    };
    if run.interrupted || run.shards_skipped != 0 || run.shards_deferred != 0 {
        return Err(format!(
            "run_to_store into a fresh store skipped {} and deferred {} shards",
            run.shards_skipped, run.shards_deferred
        ));
    }
    Ok(BuildRep {
        spent,
        run,
        dir: dir.to_path_buf(),
        pool,
    })
}

/// The serial in-memory run every build is compared with.
pub struct Reference {
    pub corpus: Corpus,
    pub report: PipelineReport,
    /// Files fetched and their total size: the input the rates are per.
    pub files: usize,
    pub input_bytes: u64,
    pub annotations: usize,
}

pub fn reference(inputs: &Inputs) -> Reference {
    let serial = Pipeline::new(PipelineConfig {
        workers: 1,
        ..inputs.pipeline.config.clone()
    });
    let (files, _) = serial.extract_all(&inputs.host);
    let input_bytes = files.iter().map(|f| f.content.len() as u64).sum();
    let (corpus, report) = serial.run(&inputs.host);
    let annotations = corpus
        .tables
        .iter()
        .map(|t| {
            t.syntactic_dbpedia.annotations.len()
                + t.syntactic_schema.annotations.len()
                + t.semantic_dbpedia.annotations.len()
                + t.semantic_schema.annotations.len()
        })
        .sum();
    Reference {
        files: files.len(),
        input_bytes,
        annotations,
        corpus,
        report,
    }
}

/// Gate: the store-backed run equals the serial in-memory run. Under
/// faults the corpus must still be equal; the report may differ only
/// in its retry accounting.
pub fn check_build(reference: &Reference, run: &StoreRun) -> Result<(), String> {
    if reference.corpus.is_empty() {
        return Err("reference corpus is empty".to_string());
    }
    if run.corpus != reference.corpus {
        return Err(format!(
            "store-backed corpus ({} tables) differs from serial Pipeline::run ({} tables)",
            run.corpus.len(),
            reference.corpus.len()
        ));
    }
    let mut report = run.report.clone();
    report.retries = 0;
    report.backoff_ms = 0;
    if report != reference.report {
        return Err(format!(
            "store-backed report differs from serial Pipeline::run:\n{report:?}\nvs\n{:?}",
            reference.report
        ));
    }
    Ok(())
}

/// What one `load_store` of a store that `run_to_store` committed
/// cost. The loaded corpus must equal the reference: `load_store`
/// orders by stored index, which for a fresh store is extraction order.
pub fn load_once(reference: &Reference, dir: &Path) -> Result<Spent, String> {
    let watch = Stopwatch::start();
    let loaded = load_store(dir).map_err(|e| format!("load_store: {e}"))?;
    let spent = watch.stop();
    if loaded != reference.corpus {
        return Err("load_store result differs from serial Pipeline::run".to_string());
    }
    Ok(spent)
}

/// Writes the store the serve half boots from. `run_to_store` leaves
/// gaps in the stored table indices (one stride per file), which
/// `build_sidecars` rejects; `gittables save` + `gittables index` write
/// the dense, sidecar-indexed store that serving is run on.
pub fn serve_store(corpus: &Corpus, dir: &Path) -> Result<(), String> {
    save_store_as(corpus, dir, SERVE_SHARD_TABLES, StoreFormat::ColV1)
        .map_err(|e| format!("save_store_as: {e}"))?;
    build_sidecars(dir).map_err(|e| format!("build_sidecars: {e}"))?;
    Ok(())
}

/// What one `QueryEngine::load` + first query on the serve store cost.
pub fn boot_once(
    reference: &Reference,
    serve_dir: &Path,
    first_query: &str,
) -> Result<Spent, String> {
    let watch = Stopwatch::start();
    let engine = QueryEngine::load(serve_dir).map_err(|e| format!("engine boot: {e}"))?;
    let hits = engine.search(first_query, 10);
    let spent = watch.stop();
    if engine.build_stats().boot_path != "sidecar" {
        return Err(format!(
            "engine fell back to a rebuild: {:?}",
            engine.build_stats().fallback_reason
        ));
    }
    if hits.is_empty() || engine.num_tables() != reference.corpus.len() {
        return Err("booted engine answered nothing".to_string());
    }
    Ok(spent)
}
