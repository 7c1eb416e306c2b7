//! The crawl daemon end to end: incremental passes converge on the
//! reference corpus, scheduled quarantine drains heal repositories with
//! exponential per-repo cooldown bookkeeping, a pre-set stop flag defers
//! every shard without corrupting the store, the real binary survives a
//! SIGTERM mid-pass with an intact, resumable store, and the directory a
//! crawl wrote is the directory that is indexed and served sharded.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
#[cfg(target_os = "linux")]
use std::{
    io::{BufRead, BufReader},
    net::SocketAddr,
    path::Path,
    process::{Child, Command, Stdio},
};

use gittables_core::{
    crawl, CrawlOptions, CrawlState, FaultPolicy, Pipeline, PipelineConfig, QuarantineLog,
    StoreRunOptions, CRAWL_STATE_FILE,
};
use gittables_corpus::{CorpusStore, StoreFormat, SIDECAR_FILE};
use gittables_githost::{FaultSpec, FlakyHost, GitHost, HostPool, PoolPolicy};
use gittables_serve::{
    build_sidecars, get, HttpClient, MetricsSnapshot, QueryEngine, ReloadSpec, Router, Server,
    ServerConfig, ShardSet,
};

fn cfg(seed: u64) -> PipelineConfig {
    PipelineConfig {
        fault: FaultPolicy {
            sleep: false,
            ..FaultPolicy::default()
        },
        ..PipelineConfig::small(seed)
    }
}

fn populated(pipeline: &Pipeline) -> GitHost {
    let host = GitHost::new();
    pipeline.populate_host(&host);
    host
}

fn temp_store(pipeline: &Pipeline, name: &str) -> (std::path::PathBuf, CorpusStore) {
    let dir = std::env::temp_dir().join(format!(
        "gt_crawl_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = CorpusStore::create(&dir, pipeline.corpus_name()).unwrap();
    (dir, store)
}

/// Options tuned for tests: no inter-pass sleeping, drain every pass.
fn fast_options(passes: u64) -> CrawlOptions {
    CrawlOptions {
        passes: Some(passes),
        interval: Duration::ZERO,
        max_shards_per_pass: None,
        drain_every: 1,
        cooldown_base_passes: 1,
    }
}

/// Multiple crawl passes over a pooled healthy-plus-flaky host converge
/// on the reference corpus: pass 1 does all the work, pass 2 is a no-op
/// skip, the persisted pass counter survives, and per-pass pool stats
/// are deltas (pass 2 reports no failovers for already-stored shards).
#[test]
fn crawl_passes_converge_to_reference_corpus() {
    let pipeline = Pipeline::new(cfg(21));
    let (reference, _) = pipeline.run(&populated(&pipeline));
    let (dir, store) = temp_store(&pipeline, "converge");

    let backends = vec![
        FlakyHost::new(
            populated(&pipeline),
            FaultSpec {
                seed: 11,
                transient_rate: 0.2,
                ..FaultSpec::default()
            },
        ),
        FlakyHost::new(populated(&pipeline), FaultSpec::transient(12, 0.0)),
    ];
    let pool = HostPool::new(
        backends,
        PoolPolicy {
            seed: 3,
            deterministic: true,
            ..PoolPolicy::default()
        },
    );

    let stop = AtomicBool::new(false);
    let mut outcomes = Vec::new();
    let summary = crawl(&pipeline, &pool, &store, &fast_options(2), &stop, |p| {
        outcomes.push((
            p.pass,
            p.run.shards_written,
            p.run.shards_skipped,
            p.run.corpus.clone(),
            p.pool.clone(),
        ));
    })
    .unwrap();

    assert_eq!(summary.passes_run, 2);
    assert_eq!(summary.pass, 2);
    assert!(!summary.interrupted);
    assert_eq!(summary.quarantined, 0);

    let (_, written1, skipped1, ref corpus1, ref pool1) = outcomes[0];
    let (_, written2, skipped2, ref corpus2, ref pool2) = outcomes[1];
    assert!(written1 > 0);
    assert_eq!(skipped1, 0);
    assert_eq!(corpus1, &reference, "pass 1 must build the full corpus");
    assert_eq!(written2, 0, "pass 2 is incremental");
    assert_eq!(skipped2, written1);
    assert_eq!(corpus2, &reference);
    // Per-pass stats are deltas, not lifetime totals: the two passes'
    // operation counts sum to the pool's lifetime counter.
    let (pool1, pool2) = (pool1.as_ref().unwrap(), pool2.as_ref().unwrap());
    assert!(pool1.operations > 0 && pool2.operations > 0);
    assert_eq!(
        pool1.operations + pool2.operations,
        pool.stats().operations,
        "per-pass stats must be deltas"
    );

    // The pass counter persists for the next daemon start.
    let state = CrawlState::load(&dir).unwrap();
    assert_eq!(state.pass, 2);
    assert!(state.cooldowns.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// The drain schedule end to end: a corrupting host seeds quarantine;
/// drains against the still-corrupt host fail and back off exponentially
/// per repository (1 pass, then 2, gating eligibility in between); once
/// the host heals, the next eligible drain empties the quarantine and
/// the cooldown table, and the corpus converges to the fault-free run.
#[test]
fn scheduled_drains_heal_quarantine_with_exponential_cooldowns() {
    let pipeline = Pipeline::new(cfg(58));
    let (reference, _) = pipeline.run(&populated(&pipeline));
    let (dir, store) = temp_store(&pipeline, "drain");

    let corrupt = || {
        FlakyHost::new(
            populated(&pipeline),
            FaultSpec {
                seed: 2,
                corrupt_rate: 0.15,
                ..FaultSpec::default()
            },
        )
    };
    let stop = AtomicBool::new(false);

    // Pass 1 (drain_every=1 drains, but quarantine starts empty): the
    // corrupt host quarantines repositories.
    let summary = crawl(
        &pipeline,
        &corrupt(),
        &store,
        &fast_options(1),
        &stop,
        |_| {},
    )
    .unwrap();
    assert!(summary.quarantined > 0, "corruption must quarantine");
    let quarantined: HashSet<String> = QuarantineLog::load(&dir)
        .unwrap()
        .repos
        .iter()
        .map(|q| q.name.clone())
        .collect();
    assert!(CrawlState::load(&dir).unwrap().cooldowns.is_empty());

    // Pass 2: drain against the still-corrupt host — every re-attempt
    // fails, so every quarantined repository gets a 1-pass cooldown.
    let mut drained_sizes = Vec::new();
    crawl(
        &pipeline,
        &corrupt(),
        &store,
        &fast_options(1),
        &stop,
        |p| {
            drained_sizes.push((p.drained.len(), p.healed.len()));
        },
    )
    .unwrap();
    assert_eq!(drained_sizes, vec![(quarantined.len(), 0)]);
    let state = CrawlState::load(&dir).unwrap();
    assert_eq!(state.pass, 2);
    assert_eq!(state.cooldowns.len(), quarantined.len());
    for c in &state.cooldowns {
        assert!(quarantined.contains(&c.name));
        assert_eq!(
            (c.failures, c.eligible_pass),
            (1, 3),
            "first wait is 1 pass"
        );
    }

    // Passes 3 and 4, still corrupt: pass 3 is an eligible drain that
    // fails again (cooldown doubles to 2 passes → eligible at pass 5);
    // pass 4's drain finds nothing eligible.
    let mut drained_sizes = Vec::new();
    crawl(
        &pipeline,
        &corrupt(),
        &store,
        &fast_options(2),
        &stop,
        |p| {
            drained_sizes.push((p.pass, p.drained.len()));
        },
    )
    .unwrap();
    assert_eq!(
        drained_sizes,
        vec![(3, quarantined.len()), (4, 0)],
        "doubled cooldown must gate the pass-4 drain"
    );
    let state = CrawlState::load(&dir).unwrap();
    for c in &state.cooldowns {
        assert_eq!(
            (c.failures, c.eligible_pass),
            (2, 5),
            "second wait is 2 passes"
        );
    }

    // Pass 5, healthy host: the eligible drain heals everything — empty
    // quarantine, empty cooldown table, reference corpus.
    let mut healed = Vec::new();
    let summary = crawl(
        &pipeline,
        &populated(&pipeline),
        &store,
        &fast_options(1),
        &stop,
        |p| {
            healed = p.healed.clone();
            assert_eq!(p.run.corpus, reference);
        },
    )
    .unwrap();
    assert_eq!(summary.quarantined, 0);
    let healed: HashSet<String> = healed.into_iter().collect();
    assert_eq!(healed, quarantined);
    assert!(QuarantineLog::load(&dir).unwrap().repos.is_empty());
    assert!(CrawlState::load(&dir).unwrap().cooldowns.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Graceful-stop semantics at the library level: a stop flag raised
/// before shard processing defers every shard (consistent report, store
/// untouched), and the next run completes the work as if never
/// interrupted.
#[test]
fn stop_flag_defers_shards_and_resume_completes() {
    let pipeline = Pipeline::new(cfg(35));
    let (reference, _) = pipeline.run(&populated(&pipeline));
    let (dir, store) = temp_store(&pipeline, "stop");

    let stop = AtomicBool::new(true);
    let options = StoreRunOptions {
        stop: Some(&stop),
        ..StoreRunOptions::default()
    };
    let run = pipeline
        .run_to_store_with(&populated(&pipeline), &store, &options)
        .unwrap();
    assert!(run.interrupted);
    assert_eq!(run.shards_written, 0);
    assert!(run.shards_deferred > 0);
    assert!(run.corpus.is_empty());
    assert_eq!(
        run.report.parsed + run.report.parse_failed,
        run.report.fetched,
        "deferred shards must leave the stage counters consistent"
    );
    assert_eq!(store.num_shards(), 0, "no partial shard may be committed");

    stop.store(false, Ordering::Relaxed);
    let resumed = pipeline
        .run_to_store_with(&populated(&pipeline), &store, &options)
        .unwrap();
    assert!(!resumed.interrupted);
    assert_eq!(resumed.shards_deferred, 0);
    assert_eq!(resumed.corpus, reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// `(HTTP target, in-process JSON)` for every endpoint of `router`.
fn endpoint_cases(router: &Router) -> Vec<(String, String)> {
    fn json<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).unwrap()
    }
    let mut cases = vec![("/health".to_string(), json(&router.health()))];
    for (q, k) in [("status and sales amount", 5), ("species observed", 20)] {
        let target = format!("/search?q={}&k={k}", q.replace(' ', "+"));
        cases.push((target, json(&router.search(q, k).unwrap())));
    }
    for prefix in [vec!["id"], vec!["order_id", "order_date"]] {
        let target = format!("/complete?prefix={}&k=4", prefix.join(","));
        cases.push((target, json(&router.complete(&prefix, 4).unwrap())));
    }
    let types = router.type_counts().unwrap();
    cases.push(("/types".to_string(), json(&types)));
    for tc in &types {
        let target = format!("/types/{}/tables", tc.label.replace(' ', "%20"));
        cases.push((target, json(&router.type_tables(&tc.label).unwrap())));
    }
    for id in 0..router.num_tables() {
        let summary = router.try_table_summary(id).unwrap().expect("id in range");
        cases.push((format!("/tables/{id}"), json(&summary)));
    }
    cases
}

/// The loop on one directory: what `crawl` wrote — bounded passes, three
/// workers, a faulty replica pool, SQL dumps spacing the ordering keys —
/// is indexed and served at every shard count as it stands, every
/// endpoint equal to the in-memory engine over the clean single-host
/// corpus. A further pass over a grown host makes the sidecars stale
/// (never wrong), and re-index + `/reload` returns to the sidecar path.
#[test]
fn crawled_store_indexes_and_serves_sharded_with_no_rewrite() {
    let sized = |repos| PipelineConfig {
        sql_file_prob: 0.5,
        workers: 3,
        repos_per_topic: repos,
        ..cfg(64)
    };
    let pool_over = |pipeline: &Pipeline| {
        let flaky = |seed| FlakyHost::new(populated(pipeline), FaultSpec::transient(seed, 0.1));
        HostPool::new(
            vec![flaky(11), flaky(12)],
            PoolPolicy {
                seed: 3,
                deterministic: true,
                ..PoolPolicy::default()
            },
        )
    };
    let options = CrawlOptions {
        max_shards_per_pass: Some(5),
        ..fast_options(8)
    };
    let stop = AtomicBool::new(false);

    let pipeline = Pipeline::new(sized(4));
    let (reference, _) = pipeline.run(&populated(&pipeline));
    assert!(
        reference
            .tables
            .iter()
            .any(|at| at.table.provenance().path.ends_with(".sql")),
        "the corpus must hold SQL-dump tables"
    );
    let dir = std::env::temp_dir().join(format!("gt_crawl_loop_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store =
        CorpusStore::create_with_format(&dir, pipeline.corpus_name(), StoreFormat::ColV1).unwrap();
    let mut written = Vec::new();
    let summary = crawl(
        &pipeline,
        &pool_over(&pipeline),
        &store,
        &options,
        &stop,
        |p| {
            written.push(p.run.shards_written);
        },
    )
    .unwrap();
    assert_eq!(summary.quarantined, 0);
    assert!(
        written[1] > 0,
        "the bound must spread the crawl over passes"
    );
    assert_eq!(written.last(), Some(&0), "the crawl must have converged");

    // Index and serve the crawled directory itself.
    let want = endpoint_cases(&Router::new(ShardSet::from_corpus(&reference, 1)));
    build_sidecars(&dir).unwrap();
    assert_eq!(
        QueryEngine::load(&dir).unwrap().build_stats().boot_path,
        "sidecar"
    );
    for n in 1..=3 {
        let set = ShardSet::load(&dir, n).unwrap();
        assert_eq!(set.num_shards(), n);
        assert_eq!(set.build_stats().boot_path, "sidecar", "{n} shards");
        assert_eq!(endpoint_cases(&Router::new(set)), want, "{n} shards");
    }

    // A further pass over a grown host commits new shards: the sidecar
    // is stale, so the boot re-indexes the store as it is now, once.
    let grown = Pipeline::new(sized(6));
    let summary = crawl(&grown, &pool_over(&grown), &store, &options, &stop, |_| {}).unwrap();
    assert_eq!(summary.quarantined, 0);
    let now = store.load_corpus().unwrap();
    assert!(now.len() > reference.len(), "new repositories must appear");
    let want = endpoint_cases(&Router::new(ShardSet::from_corpus(&now, 1)));
    let set = ShardSet::load(&dir, 2).unwrap();
    assert_eq!(set.build_stats().boot_path, "sidecar");
    assert_eq!(set.build_stats().fallback_reason.as_deref(), Some("stale"));
    let server = Server::start_set(
        set,
        "127.0.0.1:0",
        ServerConfig {
            cache_capacity: 0,
            reload: Some(ReloadSpec {
                dir: dir.clone(),
                shards: 2,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let served = |what: &str| {
        for (target, expected) in &want {
            let (status, body) = get(server.addr(), target).expect("request");
            assert_eq!(status, 200, "{what}: {target}");
            assert_eq!(&body, expected, "{what}: {target}");
        }
        let (_, metrics) = get(server.addr(), "/metrics").expect("metrics");
        let metrics: MetricsSnapshot = serde_json::from_str(&metrics).expect("metrics JSON");
        metrics.engine
    };
    let engine = served("re-indexed at boot");
    assert_eq!(engine.boot_path, "sidecar");
    assert_eq!(engine.fallback_reason.as_deref(), Some("stale"));

    // Reload: the rewritten sidecar is fresh, the same bytes off it.
    let mut admin = HttpClient::connect(server.addr()).expect("admin connect");
    let (status, body) = admin.post("/reload").expect("reload");
    assert_eq!(status, 200, "{body}");
    let engine = served("reloaded");
    assert_eq!(engine.boot_path, "sidecar");
    assert_eq!(engine.fallback_reason, None);

    // The boot wrote what `index` writes for the same store.
    let copy = std::env::temp_dir().join(format!("gt_crawl_loop_copy_{}", std::process::id()));
    std::fs::remove_dir_all(&copy).ok();
    std::fs::create_dir_all(&copy).unwrap();
    for file in std::fs::read_dir(&dir).unwrap() {
        let file = file.unwrap().path();
        std::fs::copy(&file, copy.join(file.file_name().unwrap())).unwrap();
    }
    build_sidecars(&copy).unwrap();
    let indexed = std::fs::read(copy.join(SIDECAR_FILE)).unwrap();
    assert!(std::fs::read(dir.join(SIDECAR_FILE)).unwrap() == indexed);
    std::fs::remove_dir_all(&copy).ok();

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The real daemon under SIGTERM: `gittables crawl` with an unbounded
/// pass budget is killed mid-run, exits 0 with the "interrupted" notice,
/// leaves a loadable store, and a follow-up bounded crawl converges with
/// an empty quarantine.
#[cfg(target_os = "linux")]
#[test]
fn crawl_binary_survives_sigterm_and_resumes() {
    mod sys {
        extern "C" {
            pub fn kill(pid: i32, sig: i32) -> i32;
        }
    }
    const SIGTERM: i32 = 15;

    let dir = std::env::temp_dir().join(format!("gt_crawl_sigterm_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let common = [
        "--seed",
        "7",
        "--topics",
        "3",
        "--repos",
        "6",
        "--replicas",
        "2",
        "--fault-rate",
        "0.05",
        "--fault-seed",
        "13",
    ];

    let child = std::process::Command::new(env!("CARGO_BIN_EXE_gittables"))
        .arg("crawl")
        .arg(&dir)
        .args(["--passes", "0", "--interval-ms", "200"])
        .args(common)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn crawl daemon");

    // Wait for pass 1 to commit (the crawl-state sidecar appears when a
    // pass completes), then catch the daemon ~300ms into pass 2 — with a
    // 200ms interval and multi-second passes, that is mid-pass.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while !dir.join(CRAWL_STATE_FILE).exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never finished pass 1"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(unsafe { sys::kill(child.id() as i32, SIGTERM) }, 0);
    let out = child.wait_with_output().expect("daemon exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "daemon must exit cleanly: {stderr}");
    assert!(
        stderr.contains("crawl interrupted") || stderr.contains("crawl finished"),
        "missing shutdown notice: {stderr}"
    );
    assert!(dir.join("manifest.json").exists(), "store must exist");
    assert!(
        dir.join(CRAWL_STATE_FILE).exists(),
        "crawl state must persist"
    );

    // The interrupted store resumes: one bounded pass converges and the
    // quarantine stays empty (transient faults only, absorbed in-pool).
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gittables"))
        .arg("crawl")
        .arg(&dir)
        .args(["--passes", "1", "--interval-ms", "0"])
        .args(common)
        .output()
        .expect("resume crawl");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("crawl finished"), "{stderr}");
    assert!(stderr.contains("0 repositories quarantined"), "{stderr}");

    // The store is fully loadable and matches the reference pipeline.
    let corpus = gittables_corpus::load_store(dir.clone()).unwrap();
    let config = PipelineConfig {
        sql_file_prob: 0.0,
        ..PipelineConfig::sized(7, 3, 6)
    };
    let pipeline = Pipeline::new(config);
    let (reference, _) = pipeline.run(&populated(&pipeline));
    assert_eq!(corpus, reference);
    crawled_dir_serves_sharded_like_the_reference(&dir, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// The binary from crawl to serve: `gittables index` on the crawled
/// `dir`, then `serve --shards 2` on it beside `serve --shards 1` on a
/// `save --shard 64` of `reference`. Every target's bytes are equal, and
/// the sharded server booted off the sidecar and really scattered.
#[cfg(target_os = "linux")]
fn crawled_dir_serves_sharded_like_the_reference(dir: &Path, reference: &gittables_corpus::Corpus) {
    let run = |cmd: &mut Command| {
        let out = cmd.output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{cmd:?}: {stderr}");
    };
    run(bin().arg("index").arg(dir));
    let reference_json = dir.with_extension("reference.json");
    let reference_store = dir.with_extension("reference");
    std::fs::remove_dir_all(&reference_store).ok();
    std::fs::write(&reference_json, serde_json::to_string(reference).unwrap()).unwrap();
    run(bin()
        .arg("save")
        .arg("--corpus")
        .arg(&reference_json)
        .arg("--out")
        .arg(&reference_store)
        .args(["--shard", "64"]));

    let (one, one_addr) = serve(&reference_store, 1);
    let (two, two_addr) = serve(dir, 2);
    for target in [
        "/search?q=status+and+sales+amount&k=5",
        "/tables/0",
        "/types",
        "/complete?prefix=id&k=4",
    ] {
        let (one_status, one_body) = get(one_addr, target).expect(target);
        let (two_status, two_body) = get(two_addr, target).expect(target);
        assert_eq!((one_status, two_status), (200, 200), "{target}");
        assert_eq!(one_body, two_body, "bytes diverged for {target}");
    }
    let (_, metrics) = get(two_addr, "/metrics").expect("metrics");
    let metrics: MetricsSnapshot = serde_json::from_str(&metrics).expect("metrics JSON");
    assert_eq!(metrics.engine.boot_path, "sidecar");
    assert!(metrics.fanouts >= 1, "a 2-shard server scattered nothing");
    shut_down(one, one_addr);
    shut_down(two, two_addr);

    std::fs::remove_file(&reference_json).ok();
    std::fs::remove_dir_all(&reference_store).ok();
}

#[cfg(target_os = "linux")]
fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gittables"))
}

/// Starts `gittables serve` over `store` as `shards` shards on an
/// ephemeral port and waits for the `serving on http://ADDR` banner it
/// prints once ready.
#[cfg(target_os = "linux")]
fn serve(store: &Path, shards: usize) -> (Child, SocketAddr) {
    let mut child = bin()
        .arg("serve")
        .arg(store)
        .args(["--addr", "127.0.0.1:0", "--threads", "2"])
        .args(["--shards", &shards.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    let stdout = child.stdout.as_mut().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read serve banner");
    let addr = line
        .trim()
        .strip_prefix("serving on http://")
        .unwrap_or_else(|| panic!("unexpected banner `{line}`"))
        .parse()
        .expect("parse bound address");
    (child, addr)
}

/// `/shutdown`, then the process must drain and exit 0.
#[cfg(target_os = "linux")]
fn shut_down(mut child: Child, addr: SocketAddr) {
    let (status, body) = get(addr, "/shutdown").expect("shutdown");
    assert_eq!(status, 200, "{body}");
    let exit = child.wait().expect("serve exit");
    assert!(exit.success(), "serve exited with {exit:?}");
}
