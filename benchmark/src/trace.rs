//! The traced run: the workload replayed stage by stage through each
//! layer's public functions, a span around every call, and the
//! per-layer metrics read off the spans and the layers' own counters.
//! End-to-end numbers are never taken here.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use gittables_annotate::{
    Annotation, AnnotationCache, NameAnnotations, SemanticAnnotator, SyntacticAnnotator,
    TableAnnotations,
};
use gittables_core::{parse_file_tables, Pipeline, PipelineConfig, RawCsvFile};
use gittables_corpus::{
    load_store, save_store_as, shard_id_for, AnnotatedTable, Corpus, CorpusStore, StoreFormat,
};
use gittables_curate::anonymize_table;
use gittables_embed::SentenceEncoder;
use gittables_githost::FileKind;
use gittables_ontology::{contains_digit, normalize_label};
use gittables_serve::{HttpClient, QueryEngine, Router, ShardSet};
use gittables_synth::repo::PERMISSIVE_LICENSES;
use gittables_table::Table;

use crate::build::{self, Inputs, Reference, TempRoot};
use crate::hostview::{HostCounters, HostView};
use crate::inputs::{self, Ask};
use crate::proc::{self, Cpus, Usage};
use crate::report::{Metrics, RunResult};
use crate::run::{fingerprint, hit_ratio, setup_repeatedly, Gauge, RELOAD_WINDOW};
use crate::serve::{self, LoadGen, CONNECTIONS};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{Workload, PER_LAYER};

/// The pipeline's spacing between the corpus indices of consecutive
/// files (`SUBTABLE_STRIDE` in `gittables_core::pipeline`); a SQL
/// dump's tables take consecutive indices inside their file's stride.
const SUBTABLE_STRIDE: usize = 1024;
/// Serve-side targets sampled per second of `--seconds`.
const SAMPLES_PER_SECOND: f64 = 100.0;
/// Windows of `POST /reload`s under read load in the traced run.
const TRACED_RELOAD_WINDOWS: usize = 5;

const MB: f64 = 1024.0 * 1024.0;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The four annotators behind a name cache, as `Pipeline` holds them.
struct Annotators {
    syn_dbp: SyntacticAnnotator,
    syn_sch: SyntacticAnnotator,
    sem_dbp: SemanticAnnotator,
    sem_sch: SemanticAnnotator,
    cache: AnnotationCache,
}

impl Annotators {
    fn new(pipeline: &Pipeline) -> Annotators {
        let (dbp, sch) = (pipeline.dbpedia().clone(), pipeline.schema_org().clone());
        let threshold = pipeline.config.semantic_threshold;
        Annotators {
            syn_dbp: SyntacticAnnotator::new(dbp.clone()),
            syn_sch: SyntacticAnnotator::new(sch.clone()),
            sem_dbp: SemanticAnnotator::new(dbp).with_threshold(threshold),
            sem_sch: SemanticAnnotator::new(sch).with_threshold(threshold),
            cache: AnnotationCache::new(),
        }
    }

    /// Annotates every column of `table` by normalized name through the
    /// cache; a miss computes all four annotations inside an
    /// `annotate.miss` span. Returns the annotated table and how many
    /// columns were looked up.
    fn annotate(&self, tr: &mut Tracer, request: u64, table: Table) -> (AnnotatedTable, usize) {
        let mut at = AnnotatedTable::new(table);
        let num_columns = at.table.num_columns();
        let mut sets: [Vec<Annotation>; 4] = Default::default();
        let mut lookups = 0;
        for (i, col) in at.table.columns().iter().enumerate() {
            let norm = normalize_label(col.name());
            if norm.is_empty() || contains_digit(&norm) {
                continue;
            }
            lookups += 1;
            let bundle = self.cache.get_or_compute(&norm, || {
                tr.span("annotate.miss", request, |_| NameAnnotations {
                    syntactic_dbpedia: self.syn_dbp.annotate_norm(&norm),
                    syntactic_schema: self.syn_sch.annotate_norm(&norm),
                    semantic_dbpedia: self.sem_dbp.annotate_norm(&norm),
                    semantic_schema: self.sem_sch.annotate_norm(&norm),
                })
            });
            let found = [
                &bundle.syntactic_dbpedia,
                &bundle.syntactic_schema,
                &bundle.semantic_dbpedia,
                &bundle.semantic_schema,
            ];
            for (set, a) in sets.iter_mut().zip(found) {
                if let Some(a) = a {
                    let mut a = a.clone();
                    a.column = i;
                    set.push(a);
                }
            }
        }
        let [syn_dbp, syn_sch, sem_dbp, sem_sch] = sets.map(|annotations| TableAnnotations {
            annotations,
            num_columns,
        });
        at.syntactic_dbpedia = syn_dbp;
        at.syntactic_schema = syn_sch;
        at.semantic_dbpedia = sem_dbp;
        at.semantic_schema = sem_sch;
        (at, lookups)
    }
}

/// What the serial replay produced and counted.
struct Replay {
    corpus: Corpus,
    csv_bytes: u64,
    sql_bytes: u64,
    parse_failed: usize,
    filtered: usize,
    pii_columns: usize,
    lookups: usize,
    shards: usize,
    store_bytes: u64,
    wall_s: f64,
}

/// One serial pass over the clean host, layer by layer: extract →
/// sniff/parse → curate → annotate → anonymize → shard write, the way
/// `Pipeline::run_to_store` composes them.
fn replay(
    tr: &mut Tracer,
    inputs: &Inputs,
    counters: &HostCounters,
    store_dir: &std::path::Path,
) -> Result<Replay, String> {
    let config = &inputs.pipeline.config;
    let annotators = Annotators::new(&inputs.pipeline);
    let view = HostView::new(&inputs.host, counters, true);
    let started = Instant::now();
    let mut out = Replay {
        corpus: Corpus::new(inputs.pipeline.corpus_name()),
        csv_bytes: 0,
        sql_bytes: 0,
        parse_failed: 0,
        filtered: 0,
        pii_columns: 0,
        lookups: 0,
        shards: 0,
        store_bytes: 0,
        wall_s: 0.0,
    };
    let mut tables: Vec<(usize, AnnotatedTable)> = Vec::new();
    tr.span("core.assemble", 0, |tr| -> Result<(), String> {
        let files: Vec<RawCsvFile> =
            tr.span("core.extract", 0, |_| inputs.pipeline.extract_all(&view).0);
        // Shard by repository in first-appearance order.
        let mut shard_of: HashMap<&str, usize> = HashMap::new();
        let mut shards: Vec<(&str, Vec<(usize, &RawCsvFile)>)> = Vec::new();
        for (i, raw) in files.iter().enumerate() {
            let n = *shard_of.entry(raw.repository.as_str()).or_insert_with(|| {
                shards.push((raw.repository.as_str(), Vec::new()));
                shards.len() - 1
            });
            shards[n].1.push((i, raw));
        }
        let store = CorpusStore::create_with_format(
            store_dir,
            inputs.pipeline.corpus_name(),
            StoreFormat::ColV1,
        )
        .map_err(|e| e.to_string())?;
        for (repo, shard) in &shards {
            let mut local: Vec<(usize, AnnotatedTable)> = Vec::new();
            for &(i, raw) in shard {
                let request = i as u64;
                let parsed = match raw.kind {
                    FileKind::Csv => {
                        out.csv_bytes += raw.content.len() as u64;
                        tr.span("tablecsv.sniff", request, |_| {
                            std::hint::black_box(gittables_tablecsv::sniff(&raw.content));
                        });
                        tr.span("tablecsv.read", request, |_| {
                            parse_file_tables(raw, &config.read_options, &config.sql_options)
                        })
                    }
                    FileKind::Sql => {
                        out.sql_bytes += raw.content.len() as u64;
                        tr.span("tablesql.read", request, |_| {
                            parse_file_tables(raw, &config.read_options, &config.sql_options)
                        })
                    }
                };
                let Ok(parsed) = parsed else {
                    out.parse_failed += 1;
                    continue;
                };
                let permissive = raw
                    .license
                    .as_deref()
                    .is_some_and(|l| PERMISSIVE_LICENSES.contains(&l));
                let mut sub = 0;
                for table in parsed {
                    let verdict = tr.span("curate.filter", request, |_| {
                        config.curation.evaluate(&table, permissive)
                    });
                    if verdict.is_err() {
                        out.filtered += 1;
                        continue;
                    }
                    let (mut at, lookups) = tr.span("annotate", request, |tr| {
                        annotators.annotate(tr, request, table)
                    });
                    out.lookups += lookups;
                    if config.anonymize {
                        let mut seed = config.seed;
                        for b in at.table.provenance().url().bytes() {
                            seed = seed.wrapping_mul(0x100_0000_01b3) ^ u64::from(b);
                        }
                        let pii = tr.span("curate.pii", request, |_| {
                            anonymize_table(
                                &mut at.table,
                                &at.syntactic_schema.clone(),
                                inputs.pipeline.schema_org(),
                                seed,
                            )
                        });
                        out.pii_columns += pii.anonymized.len();
                    }
                    if sub < SUBTABLE_STRIDE {
                        local.push((i * SUBTABLE_STRIDE + sub, at));
                    }
                    sub += 1;
                }
            }
            tr.span("corpus.write", 0, |_| -> Result<(), String> {
                let mut writer = store
                    .begin_shard(&shard_id_for(repo))
                    .map_err(|e| e.to_string())?;
                for (i, at) in &local {
                    writer.push(*i, at).map_err(|e| e.to_string())?;
                }
                let entry = writer.finish().map_err(|e| e.to_string())?;
                store.commit_shard(entry).map_err(|e| e.to_string())
            })?;
            out.shards += 1;
            tables.extend(local);
        }
        tables.sort_by_key(|(i, _)| *i);
        for (_, at) in std::mem::take(&mut tables) {
            out.corpus.push(at);
        }
        Ok(())
    })?;
    out.wall_s = started.elapsed().as_secs_f64();
    out.store_bytes = proc::dir_bytes(store_dir);
    Ok(out)
}

/// Wall seconds of a serial in-memory `Pipeline::run` on a pipeline
/// whose annotation cache is cold.
fn timed_serial_run(inputs: &Inputs) -> f64 {
    let pipeline = Pipeline::new(PipelineConfig {
        workers: 1,
        ..inputs.pipeline.config.clone()
    });
    let started = Instant::now();
    std::hint::black_box(pipeline.run(&inputs.host));
    started.elapsed().as_secs_f64()
}

fn build_side(
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    reference: &Reference,
    tmp: &TempRoot,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    // The replay, against the serial run it must reproduce.
    let counters = HostCounters::default();
    let r = replay(tr, inputs, &counters, &tmp.join("replay-store"))?;
    if r.corpus != reference.corpus {
        return Err(format!(
            "the layer-by-layer replay produced {} tables that differ from Pipeline::run's {}",
            r.corpus.len(),
            reference.corpus.len()
        ));
    }
    let filtered: usize = reference.report.filtered.values().sum();
    if (r.parse_failed, r.filtered, r.pii_columns)
        != (
            reference.report.parse_failed,
            filtered,
            reference.report.pii_columns,
        )
    {
        return Err("the replay's stage counters differ from Pipeline::run's report".to_string());
    }
    let by_name = tr.self_ns_by_name();
    let self_s = |name: &str| secs(by_name.get(name).copied().unwrap_or(0));
    let host_s = secs(counters.host_ns.load(Ordering::Relaxed));
    m.value(
        "githost.search_calls",
        counters.search_calls.load(Ordering::Relaxed) as f64,
    );
    m.value(
        "githost.fetch_calls",
        counters.fetch_calls.load(Ordering::Relaxed) as f64,
    );
    m.value(
        "githost.fetch_mb",
        counters.fetch_bytes.load(Ordering::Relaxed) as f64 / MB,
    );
    m.value("githost.host_s", host_s);
    m.value("core.extract_s", (self_s("core.extract") - host_s).max(0.0));
    m.value("core.parse_failed", r.parse_failed as f64);
    m.value("core.assemble_s", self_s("core.assemble"));
    m.value("tablecsv.sniff_s", self_s("tablecsv.sniff"));
    m.value("tablecsv.read_s", self_s("tablecsv.read"));
    let rate = |bytes: u64, s: f64| if s > 0.0 { bytes as f64 / MB / s } else { 0.0 };
    m.value(
        "tablecsv.mb_per_s",
        rate(r.csv_bytes, self_s("tablecsv.read")),
    );
    m.value("tablesql.read_s", self_s("tablesql.read"));
    m.value(
        "tablesql.mb_per_s",
        rate(r.sql_bytes, self_s("tablesql.read")),
    );
    m.value("curate.filter_s", self_s("curate.filter"));
    m.value("curate.filtered", r.filtered as f64);
    m.value("curate.pii_s", self_s("curate.pii"));
    m.value("curate.pii_columns", r.pii_columns as f64);
    m.value("annotate.s", self_s("annotate") + self_s("annotate.miss"));
    m.value("annotate.columns", r.lookups as f64);
    let misses = tr.self_ns_of("annotate.miss");
    m.value(
        "annotate.cache_hit_ratio",
        1.0 - misses.len() as f64 / r.lookups.max(1) as f64,
    );
    m.sampled(
        "annotate.miss_us",
        misses.iter().sum::<f64>() / 1e3 / misses.len().max(1) as f64,
        &stats::Summary::of(&misses.iter().map(|ns| ns / 1e3).collect::<Vec<_>>()),
    );
    m.value("corpus.write_s", self_s("corpus.write"));
    m.value("corpus.write_mb", r.store_bytes as f64 / MB);
    m.value("corpus.shards", r.shards as f64);

    // The same work untraced. Without the store write and the extra
    // sniff, the replay's stages should add up to the serial run.
    let serial_s = timed_serial_run(inputs);
    let replay_run_s = r.wall_s - self_s("corpus.write") - self_s("tablecsv.sniff");
    m.value("trace.overhead_ratio", replay_run_s / serial_s);
    m.value(
        "core.serial_mb_per_s",
        reference.input_bytes as f64 / MB / serial_s,
    );

    // One store-backed repetition through the counting host view: what
    // the retry layer and, under faults, the pool did.
    let pool_counters = HostCounters::default();
    let pipeline = Pipeline::new(inputs.pipeline.config.clone());
    let rep = build::build_once(
        w,
        seed,
        inputs,
        &pipeline,
        &tmp.join("counted-build"),
        &pool_counters,
    )?;
    build::check_build(reference, &rep.run)?;
    m.value("core.retries", rep.run.report.retries as f64);
    m.value(
        "core.backoff_ms_scheduled",
        rep.run.report.backoff_ms as f64,
    );
    let pool = rep.pool.unwrap_or_default();
    m.value("githost.pool_failovers", pool.failovers as f64);
    m.value("githost.pool_hedges", pool.hedges as f64);
    m.value("githost.pool_hedges_won", pool.hedges_won as f64);
    m.value("githost.pool_breaker_opens", pool.breaker_opens() as f64);
    // Requests that reached a backend per fetch the corpus needed: 1.0
    // when nothing is retried, hedged or failed over.
    let backend_fetches = pool_counters.fetch_calls.load(Ordering::Relaxed) as f64;
    m.value(
        "githost.backend_attempts_per_fetch",
        if w.faulty {
            backend_fetches / reference.files.max(1) as f64
        } else {
            1.0
        },
    );

    // Store formats: the same corpus saved and loaded as colv1 and jsonl.
    for (format, name) in [
        (StoreFormat::ColV1, "corpus.load_colv1_s"),
        (StoreFormat::Jsonl, "corpus.load_jsonl_s"),
    ] {
        let dir = tmp.join(&format!("format-{format}"));
        save_store_as(&reference.corpus, &dir, 64, format).map_err(|e| e.to_string())?;
        let mut walls = Vec::new();
        for i in 0..4 {
            let t = Instant::now();
            let loaded = load_store(&dir).map_err(|e| e.to_string())?;
            if i > 0 {
                walls.push(t.elapsed().as_secs_f64());
            } else if loaded != reference.corpus {
                return Err(format!("the {format} store loads a different corpus"));
            }
        }
        m.median_of(name, &walls);
    }
    Ok(())
}

/// Median wall µs of `f` over `items`, one span named `name` per call.
fn sample_us<T>(
    tr: &mut Tracer,
    name: &'static str,
    items: &[T],
    mut f: impl FnMut(&T),
) -> Vec<f64> {
    for (i, item) in items.iter().enumerate() {
        tr.span(name, i as u64, |_| f(item));
    }
    let all = tr.self_ns_of(name);
    all[all.len() - items.len()..]
        .iter()
        .map(|ns| ns / 1e3)
        .collect()
}

fn serve_side(
    w: &Workload,
    seed: u64,
    seconds: f64,
    reference: &Reference,
    tmp: &TempRoot,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(usize, usize), String> {
    let words = inputs::vocabulary(&reference.corpus);
    // The dense, indexed store the server boots from.
    let dir = tmp.join("serve-store");
    save_store_as(&reference.corpus, &dir, 64, StoreFormat::ColV1).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let index = gittables_serve::build_sidecars(&dir).map_err(|e| e.to_string())?;
    m.value("serve.index_build_s", t.elapsed().as_secs_f64());
    m.value("serve.sidecar_mb", index.bytes as f64 / MB);

    let boots: Vec<u32> = (0..10).collect();
    let boot_us = sample_us(tr, "serve.boot", &boots, |_| {
        std::hint::black_box(ShardSet::load(&dir, w.shards).expect("store boots"));
    });
    let boot_ms: Vec<f64> = boot_us.iter().map(|us| us / 1e3).collect();
    m.median_of("serve.boot_ms", &boot_ms);

    let router = Router::new(ShardSet::load(&dir, w.shards).map_err(|e| e.to_string())?);
    let plan = serve::plan(w, seed, &words, &router)?;
    let samples = ((seconds * SAMPLES_PER_SECOND) as usize).clamp(100, plan.order.len());
    let sampled: Vec<usize> = plan.order[..samples].iter().map(|&i| i as usize).collect();

    // Per request: the engine call, the serialization, and the loopback
    // round trip to a server with its response cache off, so the round
    // trip contains the other two.
    let uncached = serve::start_server(&dir, w.shards, false)?;
    let sampled_run = (|| -> Result<(), String> {
        let mut client = HttpClient::connect(uncached.addr()).map_err(|e| e.to_string())?;
        let (mut engine_us, mut serialize_us, mut overhead_us) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut by_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (n, &idx) in sampled.iter().enumerate() {
            let target = &plan.targets[idx];
            let request = n as u64;
            let first = tr.spans().len();
            tr.span("serve.request", request, |tr| -> Result<(), String> {
                let answer = tr.span("serve.engine", request, |_| {
                    serve::ask(&router, &target.ask)
                })?;
                let body = tr.span("serve.serialize", request, |_| answer.to_json())?;
                let served = tr
                    .span("serve.http", request, |_| client.get(&target.url))
                    .map_err(|e| e.to_string())?;
                if served != (200, body) {
                    return Err(format!(
                        "{} diverged from the in-process answer",
                        target.url
                    ));
                }
                Ok(())
            })?;
            let us = |k: usize| {
                let s = &tr.spans()[first + k];
                (s.end_ns - s.start_ns) as f64 / 1e3
            };
            let (engine, serialize, http) = (us(1), us(2), us(3));
            engine_us.push(engine);
            serialize_us.push(serialize);
            overhead_us.push(http - engine - serialize);
            let kind = match target.ask {
                Ask::Search { .. } => "search",
                Ask::Complete { .. } => "complete",
                Ask::Types => "types",
                Ask::TypeTables { .. } | Ask::Table { .. } => "lookup",
            };
            by_kind.entry(kind).or_default().push(engine);
        }
        let kind = |k: &str| by_kind.get(k).map_or(0.0, |v| stats::median(v));
        m.sampled(
            "serve.engine_search_us",
            kind("search"),
            &stats::Summary::of(by_kind.get("search").map_or(&[][..], Vec::as_slice)),
        );
        m.value("serve.engine_complete_us", kind("complete"));
        m.value("serve.engine_types_us", kind("types"));
        m.value("serve.engine_lookup_us", kind("lookup"));
        m.median_of("serve.serialize_us", &serialize_us);
        m.median_of("serve.http_overhead_us", &overhead_us);
        Ok(())
    })();
    uncached.shutdown();
    sampled_run?;

    // Engine internals on the sampled searches.
    let queries: Vec<&str> = plan
        .targets
        .iter()
        .filter_map(|t| match &t.ask {
            Ask::Search { query, .. } => Some(query.as_str()),
            _ => None,
        })
        .take(samples)
        .collect();
    let encoder = SentenceEncoder::default();
    let embed_us = sample_us(tr, "embed.query", &queries, |q| {
        std::hint::black_box(encoder.embed(q));
    });
    m.median_of("embed.query_us", &embed_us);
    // Router fan-out: the routed search beyond its slowest shard.
    let fanout: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            std::hint::black_box(router.search(q, 10).is_ok());
            let routed = t.elapsed().as_secs_f64() * 1e6;
            let slowest = router
                .engines()
                .iter()
                .map(|e| {
                    let t = Instant::now();
                    std::hint::black_box(e.search(q, 10));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .fold(0.0, f64::max);
            routed - slowest
        })
        .collect();
    m.median_of("serve.router_fanout_us", &fanout);
    let lazy = QueryEngine::load(&dir).map_err(|e| e.to_string())?;
    let ids: Vec<usize> = (0..samples)
        .map(|i| i * 7 % reference.corpus.len())
        .collect();
    let get_us = sample_us(tr, "corpus.lazy_get", &ids, |&id| {
        std::hint::black_box(lazy.try_table_summary(id).expect("lazy table decodes"));
    });
    m.median_of("corpus.lazy_get_us", &get_us);

    // The served path as the untraced run drives it, briefly: what the
    // load generator and the response cache report.
    let server = serve::start_server(&dir, w.shards, true)?;
    let served = (|| -> Result<(usize, usize), String> {
        let mut gen = LoadGen::new(server.addr(), &plan);
        let mut attempted = gen.verify_all()?;
        let mut failed = 0;
        let window = Duration::from_secs_f64(seconds * 0.15);
        let before = server.metrics_snapshot().cache;
        let mid = gen.open(w.rate_mid, CONNECTIONS, window);
        let after = server.metrics_snapshot().cache;
        let high = gen.open(w.rate_high, CONNECTIONS, window);
        // Open-loop latencies, from due time. Every request follows a
        // sleep, and one 10–100 ms stall of the sandbox inside a window
        // decides the tail, so they are reported here, unbounded.
        let at_mid = stats::Summary::of(&mid.latency_us);
        m.sampled("serve.open_p50_us", at_mid.median, &at_mid);
        m.sampled(
            "serve.p99_us",
            stats::percentile(&mid.latency_us, 99.0),
            &at_mid,
        );
        m.sampled(
            "serve.p99_us_high",
            stats::percentile(&high.latency_us, 99.0),
            &stats::Summary::of(&high.latency_us),
        );
        m.value("serve.cache_hit_ratio", hit_ratio(&before, &after));
        m.value("loadgen.late_us_p99", stats::percentile(&mid.late_us, 99.0));
        let missed = mid.failed + mid.latency_us.iter().filter(|&&us| us > w.slo_us).count();
        m.value(
            "loadgen.slo_miss_ratio",
            missed as f64 / mid.attempted.max(1) as f64,
        );
        // A cached target's round trip: accept, parse, cache, write.
        let mut client = HttpClient::connect(server.addr()).map_err(|e| e.to_string())?;
        let url = &plan.targets[sampled[0]].url;
        let _ = client.get(url);
        let again: Vec<u32> = (0..samples as u32).collect();
        let cached_us = sample_us(tr, "serve.http_cached", &again, |_| {
            std::hint::black_box(client.get(url).is_ok());
        });
        m.median_of("serve.http_cached_us", &cached_us);
        let mut reload_ms = Vec::new();
        let mut reads = Vec::new();
        for _ in 0..TRACED_RELOAD_WINDOWS {
            let round = serve::reloads_under_reads(
                &mut gen,
                w.rate_mid / CONNECTIONS as f64,
                RELOAD_WINDOW,
            )?;
            attempted += round.reload_ms.len() + round.failed + round.reads.attempted;
            failed += round.failed + round.reads.failed;
            reload_ms.extend(round.reload_ms.iter().map(|r| r.value));
            reads.extend(round.reads.latency_us);
        }
        // `/reload` loads a snapshot exactly as the boot does.
        let load_ms = m.get("serve.boot_ms").unwrap_or(0.0);
        m.value(
            "serve.reload_swap_drain_ms",
            (stats::median(&reload_ms) - load_ms).max(0.0),
        );
        m.value("serve.reload_read_p99_us", stats::percentile(&reads, 99.0));
        attempted += mid.attempted + high.attempted;
        failed += mid.failed + high.failed;
        Ok((attempted, failed))
    })();
    server.shutdown();
    served
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    cpus: Cpus,
) -> Result<(RunResult, String), String> {
    let usage_start = Usage::now();
    let stolen_start = proc::steal_ticks();
    let tmp = TempRoot::create().map_err(|e| format!("temp directory: {e}"))?;
    let mut m = Metrics::default();
    let mut tr = Tracer::new();

    let (inputs, setups, _) = setup_repeatedly(w, seed, &mut Gauge::start()?);
    let pick = |f: fn(&build::SetupTimes) -> f64| -> Vec<f64> { setups.iter().map(f).collect() };
    m.median_of("synth.render_s", &pick(|t| t.synth_s));
    m.median_of("githost.index_s", &pick(|t| t.index_s));
    m.median_of("annotate.init_s", &pick(|t| t.init_s));
    m.value("proc.setup_rss_mb", proc::rss_mb());

    let reference = build::reference(&inputs);
    build_side(w, seed, &inputs, &reference, &tmp, &mut tr, &mut m)?;
    let (attempted, failed) = serve_side(w, seed, seconds, &reference, &tmp, &mut tr, &mut m)?;

    let usage = Usage::now().since(usage_start);
    m.value("proc.cpu_user_s", usage.user_s);
    m.value("proc.cpu_sys_s", usage.sys_s);
    m.value("proc.minor_faults", usage.minor_faults);
    let result = RunResult {
        workload: w.name.to_string(),
        traced: true,
        fingerprint: fingerprint(seed, seconds, cpus, &inputs, &reference),
        attempted,
        failed,
        noisy: usage.sys_share() > 0.30,
        stolen_s: (proc::steal_ticks() - stolen_start) as f64 / 100.0,
        waited_s: 0.0,
        metrics: m.finish(PER_LAYER)?,
    };
    Ok((result, tr.to_json()))
}
