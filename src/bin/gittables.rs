//! `gittables` — command-line interface to the corpus pipeline and the §5
//! applications.
//!
//! ```text
//! gittables build   --out corpus.json [--seed 42] [--topics 10] [--repos 40] [--sql 0.0]
//! gittables stats   --corpus corpus.json
//! gittables search  --corpus corpus.json --query "status and sales amount per product" [--k 5]
//! gittables complete --corpus corpus.json --prefix "order_id,order_date" [--k 5]
//! gittables annotate --csv file.csv
//! gittables export  --corpus corpus.json --out dir/
//! gittables union   --corpus corpus.json [--min 3]
//! gittables dedup   --corpus corpus.json
//! gittables save    --corpus corpus.json --out store_dir/ [--shard 256]
//! gittables load    --store store_dir/ --out corpus.json
//! gittables crawl   <store_dir/ | --store store_dir/> [--seed 42] [--topics 10] [--repos 40] [--sql 0.0] [--passes N] [--interval-ms N] [--max-shards N] [--drain-every N] [--cooldown-base N] [--replicas N] [--fault-rate P] [--corrupt-rate P] [--fault-seed N]
//! gittables index   <store_dir/ | --store store_dir/>
//! gittables serve   <store_dir/ | --store store_dir/> [--addr 127.0.0.1:7878] [--threads 4] [--cache 1024] [--shards 1]
//! ```
//!
//! Every command refuses a flag it does not read (exit 2 with the usage).
//! `save`/`load` convert between the monolithic JSON file and the sharded
//! on-disk store, whose shards are the binary columnar `colv1`; a `load`
//! then `save` carries a store into this build's format. `index` builds the
//! persisted index sidecar that lets `serve` boot straight off the mapped
//! files; `serve` boots a query engine over a store off that sidecar
//! (writing it first when it is missing or stale, so a store it cannot
//! write must be indexed beforehand) and answers HTTP queries against it
//! until `/shutdown`; `crawl` builds a store
//! incrementally, skipping repositories whose shards are already
//! committed: repeated passes over a replica [`HostPool`] (with optional
//! injected faults for chaos drills), scheduled quarantine drains with
//! exponential per-repo cooldowns, per-pass pool/breaker stats, and
//! graceful SIGTERM/SIGINT shutdown that commits in-flight shards.
//! `crawl <dir> --passes 1 --replicas 1` is one incremental build pass.
//!
//! The supported platform is **unix**: the server, the crawl daemon's
//! signal handling and the mapped store reads go through `gittables_sys`,
//! the one crate with foreign calls and `unsafe` (five libc symbols:
//! `mmap`, `munmap`, `poll`, `signal`, `kill`). Every other crate, this
//! binary included, forbids `unsafe_code`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use gittables_core::apps::{DataSearch, NearestCompletion};
use gittables_core::{Pipeline, PipelineConfig};
use gittables_corpus::{
    load_corpus, save_corpus, AnnotationStats, Corpus, CorpusStats, CorpusStore, StoreError,
    SIDECAR_FILE,
};
use gittables_githost::{FaultSpec, FlakyHost, GitHost, HostPool, PoolPolicy};
use gittables_serve::{Server, ServerConfig};

/// Tables per shard when `save` splits a corpus file into a store.
const TABLES_PER_SHARD: usize = 256;

/// Why a command did not run to completion.
enum CliError {
    /// The command line itself is wrong: exit 2 with the usage.
    Usage(String),
    /// The command ran and failed: exit 1.
    Failed(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failed(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Failed(message.to_string())
    }
}

/// The value given for `key`, `None` when the flag is absent. A flag
/// that is present must carry a value, and the next flag is not one:
/// `--out --shard 4` writing a store named `--shard` is never right.
fn opt(args: &[String], key: &str) -> Result<Option<String>, CliError> {
    let Some(at) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    match args.get(at + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(CliError::Usage(format!("{key} needs a value"))),
    }
}

/// The number given for `key`, `None` when the flag is absent. A flag
/// that is present must carry a number: running a default in place of
/// what was typed (`--passes 1O` crawling for ever) is never right.
fn opt_num<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, CliError> {
    let Some(value) = opt(args, key)? else {
        return Ok(None);
    };
    value
        .parse()
        .map(Some)
        .map_err(|_| CliError::Usage(format!("invalid {key} value: {value}")))
}

fn num<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, CliError> {
    Ok(opt_num(args, key)?.unwrap_or(default))
}

fn load(args: &[String]) -> Result<Corpus, CliError> {
    let path = opt(args, "--corpus")?.ok_or("missing --corpus <file>")?;
    Ok(load_corpus(&PathBuf::from(&path)).map_err(|e| format!("loading {path}: {e}"))?)
}

/// The store directory: the positional argument (`serve dir/`), with
/// `--store dir/` accepted as an alias. `form` is the command's usage.
fn store_dir(args: &[String], form: &str) -> Result<String, CliError> {
    match args.first().filter(|a| !a.starts_with("--")) {
        Some(dir) => Ok(dir.clone()),
        None => Ok(opt(args, "--store")?.ok_or(format!("missing store directory ({form})"))?),
    }
}

/// The `build`/`crawl` pipeline config: `--seed/--topics/--repos` plus
/// `--sql <prob>`, the share of synthesized files rendered as SQL dumps
/// instead of CSV. The default 0.0 draws no extra randomness, so corpora
/// built before SQL ingestion existed stay bit-identical.
fn sized_config(args: &[String]) -> Result<PipelineConfig, CliError> {
    let seed = num(args, "--seed", 42u64)?;
    let topics = num(args, "--topics", 10usize)?;
    let repos = num(args, "--repos", 40usize)?;
    Ok(PipelineConfig {
        sql_file_prob: num(args, "--sql", 0.0f64)?.clamp(0.0, 1.0),
        ..PipelineConfig::sized(seed, topics, repos)
    })
}

fn cmd_build(args: &[String]) -> Result<(), CliError> {
    let out = opt(args, "--out")?.ok_or("missing --out <file>")?;
    let config = sized_config(args)?;
    eprintln!(
        "building corpus: seed {}, {} topics x {} repos, sql share {}",
        config.seed,
        config.topics.len(),
        config.repos_per_topic,
        config.sql_file_prob
    );
    let pipeline = Pipeline::new(config);
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let (corpus, report) = pipeline.run(&host);
    eprintln!(
        "fetched {} files, parsed {} ({:.1}%), kept {} tables, anonymized {} columns",
        report.fetched,
        report.parsed,
        100.0 * report.parse_rate(),
        report.kept,
        report.pii_columns
    );
    save_corpus(&corpus, &PathBuf::from(&out)).map_err(|e| e.to_string())?;
    eprintln!("wrote {out}");
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let corpus = load(args)?;
    let s = CorpusStats::of(&corpus);
    println!("corpus    : {} ({} tables)", corpus.name, s.tables);
    println!("avg rows  : {:.1}", s.avg_rows);
    println!("avg cols  : {:.1}", s.avg_columns);
    let (n, st, o) = s.atomic_fractions;
    println!(
        "atomic    : {:.1}% numeric / {:.1}% string / {:.1}% other",
        100.0 * n,
        100.0 * st,
        100.0 * o
    );
    for (method, ont) in Corpus::annotation_configs() {
        let a = AnnotationStats::of(&corpus, method, ont, corpus.len().max(10) / 10, 5);
        println!(
            "{:<9} {:<10}: {} tables, {} columns, {} types, coverage {:.0}%",
            method.name(),
            ont.name(),
            a.annotated_tables,
            a.annotated_columns,
            a.unique_types,
            100.0 * a.mean_coverage
        );
    }
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), CliError> {
    let query = opt(args, "--query")?.ok_or("missing --query <text>")?;
    let k = num(args, "--k", 5usize)?;
    let corpus = load(args)?;
    let ds = DataSearch::build(&corpus);
    for hit in ds.search(&query, k) {
        let t = &corpus.tables[hit.table_index].table;
        println!(
            "{:.3}  {:<40} {}",
            hit.score,
            t.provenance().url(),
            hit.schema
        );
    }
    Ok(())
}

fn cmd_complete(args: &[String]) -> Result<(), CliError> {
    let prefix_arg = opt(args, "--prefix")?.ok_or("missing --prefix a,b,c")?;
    let prefix: Vec<&str> = prefix_arg.split(',').map(str::trim).collect();
    let k = num(args, "--k", 5usize)?;
    let corpus = load(args)?;
    let nc = NearestCompletion::build(&corpus);
    for c in nc.complete(&prefix, k) {
        println!(
            "distance {:.3}  completion: {}",
            c.prefix_distance,
            c.completion.join(", ")
        );
    }
    Ok(())
}

fn cmd_annotate(args: &[String]) -> Result<(), CliError> {
    let path = opt(args, "--csv")?.ok_or("missing --csv <file>")?;
    let content = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let parsed = gittables_tablecsv::read_csv(&content, &Default::default())
        .map_err(|e| format!("{path}: {e}"))?;
    let table = gittables_table::Table::from_string_rows("cli", &parsed.header, parsed.records)
        .map_err(|e| e.to_string())?;
    let ont = std::sync::Arc::new(gittables_ontology::dbpedia());
    let sem = gittables_annotate::SemanticAnnotator::new(ont);
    for a in sem.annotate(&table).annotations {
        println!(
            "{:<24} -> {:<24} (confidence {:.2})",
            table.column(a.column).map_or("?", |c| c.name()),
            a.label,
            a.similarity
        );
    }
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), CliError> {
    let corpus = load(args)?;
    let out = opt(args, "--out")?.ok_or("missing --out <dir>")?;
    let n = gittables_corpus::export_csv(&corpus, std::path::Path::new(&out))
        .map_err(|e| e.to_string())?;
    eprintln!("wrote {n} CSV files under {out}");
    Ok(())
}

fn cmd_union(args: &[String]) -> Result<(), CliError> {
    let min = num(args, "--min", 3usize)?;
    let corpus = load(args)?;
    let groups = gittables_corpus::union_groups(&corpus, min);
    println!("{} union groups with >= {min} members", groups.len());
    for g in groups.iter().take(20) {
        let unioned = gittables_corpus::union_tables(&corpus, g).map_err(|e| e.to_string())?;
        println!(
            "{:<32} {} members -> {} x {}",
            g.repository,
            g.members.len(),
            unioned.num_rows(),
            unioned.num_columns()
        );
    }
    Ok(())
}

fn cmd_dedup(args: &[String]) -> Result<(), CliError> {
    let corpus = load(args)?;
    // One shared fingerprint pass feeds both analyses.
    let fingerprints = gittables_corpus::table_fingerprints(&corpus);
    let groups = gittables_corpus::exact_duplicates_with(&fingerprints);
    let survivors = gittables_corpus::dedup_indices_with(&fingerprints);
    println!(
        "{} tables, {} exact-duplicate groups, {} survive deduplication",
        corpus.len(),
        groups.len(),
        survivors.len()
    );
    for g in groups.iter().take(20) {
        let urls: Vec<String> = g
            .members
            .iter()
            .map(|&i| corpus.tables[i].table.provenance().url())
            .collect();
        println!("  {}", urls.join("  ==  "));
    }
    Ok(())
}

fn cmd_save(args: &[String]) -> Result<(), CliError> {
    let out = opt(args, "--out")?.ok_or("missing --out <dir>")?;
    let shard = num(args, "--shard", TABLES_PER_SHARD)?;
    let corpus = load(args)?;
    let store = gittables_corpus::save_store(&corpus, PathBuf::from(&out), shard)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} tables across {} {} shards under {out}",
        store.len(),
        store.num_shards(),
        store.format()
    );
    Ok(())
}

fn cmd_load(args: &[String]) -> Result<(), CliError> {
    let dir = opt(args, "--store")?.ok_or("missing --store <dir>")?;
    let out = opt(args, "--out")?.ok_or("missing --out <file>")?;
    let corpus = gittables_corpus::load_store(PathBuf::from(&dir))
        .map_err(|e| format!("loading store {dir}: {e}"))?;
    save_corpus(&corpus, &PathBuf::from(&out)).map_err(|e| e.to_string())?;
    eprintln!("loaded {} tables from {dir}, wrote {out}", corpus.len());
    Ok(())
}

fn cmd_crawl(args: &[String]) -> Result<(), CliError> {
    let dir = store_dir(args, "crawl <store-dir>")?;
    let passes = num(args, "--passes", 0u64)?;
    let interval_ms = num(args, "--interval-ms", 1_000u64)?;
    let max_shards = opt_num::<usize>(args, "--max-shards")?;
    let drain_every = num(args, "--drain-every", 2u64)?;
    let cooldown_base = num(args, "--cooldown-base", 1u64)?;
    let replicas = num(args, "--replicas", 2usize)?.max(1);
    let fault_rate = num(args, "--fault-rate", 0.0f64)?.clamp(0.0, 1.0);
    let corrupt_rate = num(args, "--corrupt-rate", 0.0f64)?.clamp(0.0, 1.0);
    let fault_seed = num(args, "--fault-seed", 1u64)?;

    // Handlers go in before the (slow) replica population so an early
    // SIGTERM stops the daemon gracefully instead of killing it.
    let stop = gittables_core::install_stop_signals();

    let config = sized_config(args)?;
    let (seed, topics, repos) = (config.seed, config.topics.len(), config.repos_per_topic);
    let pipeline = Pipeline::new(config);
    let store = match CorpusStore::open(&dir) {
        Err(StoreError::MissingManifest(_)) => CorpusStore::create(&dir, pipeline.corpus_name()),
        opened => opened,
    }
    .map_err(|e| e.to_string())?;

    // Replica mirrors of one upstream: views of one populated host, so
    // identical content, with a shared corruption schedule and
    // independent transient-fault schedules.
    let host = GitHost::new();
    pipeline.populate_host(&host);
    let backends: Vec<FlakyHost<&GitHost>> = (0..replicas)
        .map(|i| {
            FlakyHost::new(
                &host,
                FaultSpec {
                    seed: fault_seed.wrapping_add(i as u64),
                    transient_rate: fault_rate,
                    corrupt_rate,
                    corrupt_seed: Some(fault_seed),
                    ..FaultSpec::default()
                },
            )
        })
        .collect();
    let pool = HostPool::new(
        backends,
        PoolPolicy {
            seed: fault_seed,
            ..PoolPolicy::default()
        },
    );

    let options = gittables_core::CrawlOptions {
        passes: (passes > 0).then_some(passes),
        interval: std::time::Duration::from_millis(interval_ms),
        max_shards_per_pass: max_shards,
        drain_every,
        cooldown_base_passes: cooldown_base,
    };
    eprintln!(
        "crawling into {dir} ({} format): seed {seed}, {topics} topics x {repos} repos, {replicas} replica(s), {} pass budget",
        store.format(),
        if passes > 0 {
            passes.to_string()
        } else {
            "unbounded".to_string()
        }
    );
    let summary = gittables_core::crawl(&pipeline, &pool, &store, &options, stop, |p| {
        eprintln!(
            "pass {}: +{} shards ({} skipped, {} deferred), corpus {} tables, {} quarantined",
            p.pass,
            p.run.shards_written,
            p.run.shards_skipped,
            p.run.shards_deferred,
            store.len(),
            p.quarantined
        );
        if !p.drained.is_empty() {
            eprintln!(
                "  drain: re-attempted {} quarantined repo(s), healed {}",
                p.drained.len(),
                p.healed.len()
            );
        }
        if let Some(pool) = &p.pool {
            eprintln!(
                "  pool: {} ops, {} failovers, {} budget waits, {} breaker opens",
                pool.operations,
                pool.failovers,
                pool.budget_waits,
                pool.breaker_opens()
            );
        }
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "crawl {}: {} pass(es) this run ({} lifetime), {} repositories quarantined",
        if summary.interrupted {
            "interrupted — store is consistent, restart to continue"
        } else {
            "finished"
        },
        summary.passes_run,
        summary.pass,
        summary.quarantined
    );
    Ok(())
}

fn cmd_index(args: &[String]) -> Result<(), CliError> {
    let dir = store_dir(args, "index <store-dir>")?;
    let report =
        gittables_serve::build_sidecars(&dir).map_err(|e| format!("indexing {dir}: {e}"))?;
    eprintln!(
        "indexed {dir}: {} tables, {} semantic types, {} distinct schemas; {} sidecar bytes",
        report.tables, report.types, report.schemas, report.bytes
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let dir = store_dir(args, "serve <store-dir>")?;
    let addr = opt(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let threads = num(args, "--threads", 4usize)?;
    let cache = num(args, "--cache", 1024usize)?;
    let shards = num(args, "--shards", 1usize)?;
    eprintln!("loading corpus from {dir} ...");
    let set = gittables_serve::ShardSet::load(&dir, shards).map_err(|e| match e {
        StoreError::Io(_) => format!(
            "loading store {dir}: {e} (a boot writes a missing or stale {SIDECAR_FILE}: \
             make the store writable, or run `gittables index {dir}` where it is)"
        ),
        e => format!("loading store {dir}: {e}"),
    })?;
    let stats = set.build_stats().clone();
    eprintln!(
        "loaded {} tables across {} shard engine(s) (boot path: {}{}; store {:.1} ms, indexes {:.1} ms)",
        set.num_tables(),
        set.num_shards(),
        stats.boot_path,
        stats
            .fallback_reason
            .as_deref()
            .map(|r| format!(", fallback: {r}"))
            .unwrap_or_default(),
        stats.store_load_ms,
        stats.index_build_ms
    );
    let config = ServerConfig {
        threads,
        cache_capacity: cache,
        reload: Some(gittables_serve::ReloadSpec {
            dir: std::path::PathBuf::from(&dir),
            shards,
        }),
    };
    let handle = Server::start_set(set, addr.as_str(), config)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    // Printed on stdout so scripts can discover an ephemeral port.
    println!("serving on http://{}", handle.addr());
    eprintln!(
        "{threads} worker threads; POST /reload or SIGHUP to swap in a fresh snapshot; GET /shutdown for a graceful drain"
    );
    handle.join();
    eprintln!("server drained");
    Ok(())
}

/// A subcommand: its name, what it runs, and its synopsis. The flags
/// the synopsis names are the only ones the command accepts.
type Command = (
    &'static str,
    fn(&[String]) -> Result<(), CliError>,
    &'static str,
);

const COMMANDS: [Command; 13] = [
    ("build", cmd_build, "--out corpus.json [--seed N] [--topics N] [--repos N] [--sql P]"),
    ("stats", cmd_stats, "--corpus corpus.json"),
    ("search", cmd_search, "--corpus corpus.json --query \"...\" [--k N]"),
    ("complete", cmd_complete, "--corpus corpus.json --prefix a,b,c [--k N]"),
    ("annotate", cmd_annotate, "--csv file.csv"),
    ("export", cmd_export, "--corpus corpus.json --out dir/"),
    ("union", cmd_union, "--corpus corpus.json [--min N]"),
    ("dedup", cmd_dedup, "--corpus corpus.json"),
    ("save", cmd_save, "--corpus corpus.json --out store_dir/ [--shard N]"),
    ("load", cmd_load, "--store store_dir/ --out corpus.json"),
    ("crawl", cmd_crawl, "<store_dir/ | --store store_dir/> [--seed N] [--topics N] [--repos N] [--sql P] [--passes N (0 = until SIGTERM)] [--interval-ms N] [--max-shards N] [--drain-every N] [--cooldown-base N] [--replicas N] [--fault-rate P] [--corrupt-rate P] [--fault-seed N]"),
    ("index", cmd_index, "<store_dir/ | --store store_dir/>   (build the index sidecar for fast `serve` boots)"),
    ("serve", cmd_serve, "<store_dir/ | --store store_dir/> [--addr HOST:PORT] [--threads N] [--cache N] [--shards N]"),
];

/// The first flag in `args` that `synopsis` does not name. Values never
/// start with `--` (see [`opt`]), so every such argument is a flag.
fn unread_flag<'a>(args: &'a [String], synopsis: &str) -> Option<&'a String> {
    let named: Vec<&str> = synopsis
        .split_whitespace()
        .map(|word| {
            word.trim_start_matches(['[', '<'])
                .trim_end_matches([']', '>'])
        })
        .filter(|word| word.starts_with("--"))
        .collect();
    args.iter()
        .find(|a| a.starts_with("--") && !named.contains(&a.as_str()))
}

/// Prints the usage and returns the exit code of a wrong command line.
fn usage() -> ExitCode {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, ..)| *name).collect();
    eprintln!("usage: gittables <{}> [options]", names.join("|"));
    for (name, _, synopsis) in COMMANDS {
        eprintln!("  {name:<8} {synopsis}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, run, synopsis)) = args
        .first()
        .and_then(|first| COMMANDS.iter().find(|(name, ..)| name == first))
    else {
        return usage();
    };
    let args = &args[1..];
    let result = match unread_flag(args, synopsis) {
        Some(flag) => Err(CliError::Usage(format!("{name} does not read {flag}"))),
        None => run(args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
