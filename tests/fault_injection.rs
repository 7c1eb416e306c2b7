//! End-to-end fault-injection suite: the pipeline run against a seeded
//! [`FlakyHost`] must either *heal* (transient faults: retry/backoff
//! converges to the bit-identical fault-free corpus — the headline
//! robustness oracle) or *quarantine* (permanent faults and exhausted
//! budgets set whole repositories aside deterministically, and a
//! store-backed resume under `RetrySelection::All` re-admits them once the
//! fault is gone).

use std::collections::HashSet;

use gittables_core::{
    FaultPolicy, Pipeline, PipelineConfig, QuarantineLog, RetrySelection, StoreRunOptions,
};
use gittables_corpus::Corpus;
use gittables_corpus::CorpusStore;
use gittables_githost::{
    FaultSpec, FlakyHost, GitHost, HostPool, PoolPolicy, RateBudget, RepoFile, Repository,
};

/// The laptop-scale config with backoff sleeping disabled: delays are
/// still scheduled and accounted (`report.backoff_ms`), the suite just
/// does not wait them out.
fn cfg(seed: u64) -> PipelineConfig {
    PipelineConfig {
        fault: FaultPolicy {
            sleep: false,
            ..FaultPolicy::default()
        },
        ..PipelineConfig::small(seed)
    }
}

/// A host populated for `pipeline`'s configuration.
fn populated(pipeline: &Pipeline) -> GitHost {
    let host = GitHost::new();
    pipeline.populate_host(&host);
    host
}

/// `pipeline`'s configuration on exactly `workers` threads.
fn on_workers(pipeline: &Pipeline, workers: usize) -> Pipeline {
    Pipeline::new(PipelineConfig {
        workers,
        ..pipeline.config.clone()
    })
}

/// Repository names a corpus's tables come from.
fn corpus_repos(corpus: &Corpus) -> HashSet<String> {
    corpus
        .tables
        .iter()
        .map(|at| at.table.provenance().repository.clone())
        .collect()
}

/// The headline oracle: with only transient faults (errors + truncated
/// downloads, both below the retry limits) the retrying pipeline's corpus
/// and counters are bit-identical to the fault-free run, on one worker
/// and on four — the faults leave no trace beyond the retry accounting.
#[test]
fn transient_faults_converge_to_fault_free_corpus() {
    // Convergence needs bounds the fault schedule cannot exhaust: streaks
    // cap below `max_attempts` by construction, and the per-repository
    // budget is lifted out of the way (budget exhaustion is its own test).
    let mut config = cfg(77);
    config.fault.repo_retry_budget = u32::MAX;
    let pipeline = Pipeline::new(config);
    let (clean_corpus, clean_report) = pipeline.run(&populated(&pipeline));

    let flaky_serial = FlakyHost::new(populated(&pipeline), FaultSpec::transient(9, 0.2));
    let (serial_corpus, serial_report) = on_workers(&pipeline, 1).run(&flaky_serial);
    let flaky_parallel = FlakyHost::new(populated(&pipeline), FaultSpec::transient(9, 0.2));
    let (parallel_corpus, parallel_report) = on_workers(&pipeline, 4).run(&flaky_parallel);

    let counts = flaky_serial.counts();
    assert!(
        counts.transient > 0 && counts.truncated > 0,
        "scenario must actually inject faults: {counts:?}"
    );
    assert!(serial_report.retries > 0, "faults must be retried");
    assert!(
        serial_report.backoff_ms > 0,
        "retries must schedule backoff"
    );
    assert!(
        serial_report.quarantined_repos.is_empty() && serial_report.quarantined_files.is_empty(),
        "transient-only faults must not quarantine: {:?}",
        serial_report.quarantined_repos
    );

    // Same deterministic fault schedule on every worker count (extraction
    // is serial) ⇒ identical reports; and the corpus is exactly the
    // fault-free one.
    assert_eq!(serial_report, parallel_report);
    assert_eq!(serial_corpus, parallel_corpus);
    assert_eq!(serial_corpus, clean_corpus);
    assert_eq!(serial_report.kept, clean_report.kept);
    assert_eq!(serial_report.fetched, clean_report.fetched);
}

/// Permanently corrupt files quarantine their repository — recorded with
/// a reason, excluded from the corpus — and two identical runs agree
/// bit-for-bit on corpus, report, and quarantine lists.
#[test]
fn corrupt_content_quarantines_repository_deterministically() {
    let pipeline = Pipeline::new(cfg(31));
    let run = || {
        let flaky = FlakyHost::new(
            populated(&pipeline),
            FaultSpec {
                seed: 5,
                corrupt_rate: 0.15,
                ..FaultSpec::default()
            },
        );
        let out = pipeline.run(&flaky);
        (out, flaky.counts())
    };
    let ((corpus_a, report_a), counts_a) = run();
    let ((corpus_b, report_b), counts_b) = run();
    assert_eq!(counts_a, counts_b);
    assert!(counts_a.corrupt > 0, "scenario must hit corrupt files");

    assert_eq!(corpus_a, corpus_b);
    assert_eq!(report_a, report_b);
    assert!(!report_a.quarantined_repos.is_empty());
    assert!(report_a
        .quarantined_repos
        .iter()
        .all(|q| q.reason == "corrupt content"));
    assert!(report_a
        .quarantined_files
        .iter()
        .all(|q| q.reason == "corrupt content"));

    // Quarantine is repository-granular: nothing from a quarantined
    // repository reaches the corpus, and the stage counters stay
    // consistent over the surviving files.
    let kept_repos = corpus_repos(&corpus_a);
    for q in &report_a.quarantined_repos {
        assert!(
            !kept_repos.contains(&q.name),
            "{} leaked into corpus",
            q.name
        );
    }
    assert_eq!(report_a.parsed + report_a.parse_failed, report_a.fetched);
}

/// Exhausted retry bounds are permanent-fault-equivalent: a zero
/// per-repository retry budget turns the first would-be retry into a
/// quarantine, and a too-small per-operation attempt limit does the same
/// once a fault streak outlasts it.
#[test]
fn exhausted_retry_bounds_quarantine() {
    // Budget path: any repository needing even one retry is quarantined.
    let mut budget_cfg = cfg(12);
    budget_cfg.fault.repo_retry_budget = 0;
    let pipeline = Pipeline::new(budget_cfg);
    let flaky = FlakyHost::new(populated(&pipeline), FaultSpec::transient(3, 0.3));
    let (corpus, report) = pipeline.run(&flaky);
    assert!(flaky.counts().transient > 0);
    assert!(
        report
            .quarantined_repos
            .iter()
            .any(|q| q.reason == "retry budget exhausted"),
        "{:?}",
        report.quarantined_repos
    );
    let kept = corpus_repos(&corpus);
    assert!(report
        .quarantined_repos
        .iter()
        .all(|q| !kept.contains(&q.name)));

    // Attempt-limit path: streaks of 3 outlast a 2-attempt limit.
    let mut attempts_cfg = cfg(12);
    attempts_cfg.fault.max_attempts = 2;
    let pipeline = Pipeline::new(attempts_cfg);
    let flaky = FlakyHost::new(
        populated(&pipeline),
        FaultSpec {
            seed: 6,
            transient_rate: 0.4,
            max_consecutive: 3,
            ..FaultSpec::default()
        },
    );
    let (_, report) = pipeline.run(&flaky);
    assert!(
        report
            .quarantined_repos
            .iter()
            .any(|q| q.reason == "retry attempts exhausted"),
        "{:?}",
        report.quarantined_repos
    );
}

/// The self-healing store resume: a run against a corrupting host
/// quarantines repositories into `quarantine.json`; a later fault-free
/// run keeps them out (sticky) until `RetrySelection::All` re-attempts
/// them — after which the corpus, report, and (empty) quarantine log all
/// match the never-faulted run exactly.
#[test]
fn store_resume_heals_quarantined_repositories() {
    let pipeline = Pipeline::new(cfg(58));
    let (clean_corpus, clean_report) = pipeline.run(&populated(&pipeline));

    let dir = std::env::temp_dir().join(format!(
        "gt_fault_heal_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = CorpusStore::create(&dir, pipeline.corpus_name()).unwrap();

    // Run 1: the host corrupts some files permanently.
    let flaky = FlakyHost::new(
        populated(&pipeline),
        FaultSpec {
            seed: 2,
            corrupt_rate: 0.15,
            ..FaultSpec::default()
        },
    );
    let faulted = pipeline.run_to_store(&flaky, &store).unwrap();
    assert!(
        flaky.counts().corrupt > 0,
        "scenario must corrupt something"
    );
    assert!(!faulted.report.quarantined_repos.is_empty());
    let log = QuarantineLog::load(&dir).unwrap();
    assert_eq!(log.repos, faulted.report.quarantined_repos);
    assert!(faulted.corpus.len() < clean_corpus.len());

    // Run 2: the host is healthy again, but quarantine is sticky — the
    // repositories stay out without any re-fetch, and the log survives.
    let sticky = pipeline
        .run_to_store(&populated(&pipeline), &store)
        .unwrap();
    assert_eq!(sticky.corpus, faulted.corpus);
    assert_eq!(
        sticky.report.quarantined_repos,
        faulted.report.quarantined_repos
    );
    assert_eq!(sticky.shards_written, 0);
    assert_eq!(QuarantineLog::load(&dir).unwrap().repos, log.repos);

    // Run 3: retry the quarantine against the healthy host — the
    // repositories heal, the corpus converges to the fault-free run, and
    // the quarantine log empties.
    let healed = pipeline
        .run_to_store_with(
            &populated(&pipeline),
            &store,
            &StoreRunOptions {
                retry: RetrySelection::All,
                ..StoreRunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(healed.corpus, clean_corpus);
    assert_eq!(healed.report, clean_report);
    assert!(
        healed.shards_written > 0,
        "healed repositories are processed"
    );
    assert!(QuarantineLog::load(&dir).unwrap().repos.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a worker panicking on pathological input (here:
/// a poisoned synthetic table tripping the test-hook marker) quarantines
/// that repository instead of crashing the run — every other repository
/// is processed normally.
#[test]
fn poisoned_table_quarantines_repository_not_the_run() {
    let marker = "poisonmarkerx";
    let clean_pipeline = Pipeline::new(cfg(64));
    let (clean_corpus, _) = clean_pipeline.run(&populated(&clean_pipeline));

    let mut poisoned_cfg = cfg(64);
    poisoned_cfg.fault.poison_marker = Some(marker.to_string());
    let pipeline = Pipeline::new(poisoned_cfg);
    let host = populated(&pipeline);
    // One extra repository whose CSV matches the first topic's query and
    // carries the poison marker in a cell.
    let noun = pipeline.config.topics[0].noun.clone();
    host.add_repository(Repository {
        full_name: "poison/repo".into(),
        license: Some("mit".into()),
        fork: false,
        files: vec![RepoFile::new(
            "bad.csv",
            format!("{noun},value\n{marker},1\n"),
        )],
    });

    for workers in [1, 4] {
        let (corpus, report) = on_workers(&pipeline, workers).run(&host);
        assert!(
            report
                .quarantined_repos
                .iter()
                .any(|q| q.name == "poison/repo" && q.reason == "worker panic"),
            "{:?}",
            report.quarantined_repos
        );
        assert!(!corpus_repos(&corpus).contains("poison/repo"));
        // The panic quarantined exactly one repository; everything else
        // matches the run without the poisoned repository present.
        assert_eq!(corpus, clean_corpus);
        assert_eq!(report.parsed + report.parse_failed, report.fetched);
    }
}

/// Builds a deterministic-mode pool of `replicas` transient-faulty
/// mirrors of `pipeline`'s host. Per-replica fault schedules differ
/// (seed + index) while a modest rate budget stays active, so
/// the oracle exercises every scheduling path. Only transport errors are
/// injected — truncation is a *content*-level fault the client detects
/// against the advertised size (the single-host oracle covers it), so
/// the pool cannot and should not absorb it.
fn transient_pool(
    pipeline: &Pipeline,
    replicas: usize,
    rate: f64,
    seed: u64,
) -> HostPool<FlakyHost<GitHost>> {
    let backends: Vec<FlakyHost<GitHost>> = (0..replicas)
        .map(|i| {
            FlakyHost::new(
                populated(pipeline),
                FaultSpec {
                    seed: seed + i as u64,
                    transient_rate: rate,
                    ..FaultSpec::default()
                },
            )
        })
        .collect();
    HostPool::new(
        backends,
        PoolPolicy {
            seed,
            max_attempts: 10,
            budget: Some(RateBudget {
                capacity: 8,
                refill_interval_ms: 5,
            }),
            deterministic: true,
            ..PoolPolicy::default()
        },
    )
}

/// The multi-backend extension of the headline oracle: with only
/// transient faults across a 2-replica [`HostPool`] — including
/// failed-over operations — the corpus AND the report are
/// bit-identical to the fault-free single-host run, in serial, parallel,
/// and store-resumed modes. The pool absorbs every fault before the
/// retry layer can even see it.
#[test]
fn transient_faults_over_host_pool_are_invisible() {
    let pipeline = Pipeline::new(cfg(83));
    let (clean_corpus, clean_report) = pipeline.run(&populated(&pipeline));

    let pool_serial = transient_pool(&pipeline, 2, 0.25, 17);
    let (serial_corpus, serial_report) = on_workers(&pipeline, 1).run(&pool_serial);
    let pool_parallel = transient_pool(&pipeline, 2, 0.25, 17);
    let (parallel_corpus, parallel_report) = on_workers(&pipeline, 4).run(&pool_parallel);

    // The scenario must genuinely exercise the pool: faults injected on
    // BOTH replicas, failovers taken, and one backend call per attempt.
    let stats = pool_serial.stats();
    for i in 0..2 {
        assert!(
            pool_serial.replica(i).counts().transient > 0,
            "replica {i} injected no faults"
        );
    }
    assert!(stats.failovers > 0, "no failovers exercised: {stats:?}");
    assert_eq!(
        stats.replicas.iter().map(|r| r.attempts).sum::<u64>(),
        stats.operations + stats.failovers,
        "every backend call is an operation's success or a failover: {stats:?}"
    );
    assert!(
        stats.replicas.iter().all(|r| r.served > 0),
        "both replicas must serve traffic: {stats:?}"
    );

    // Bit-identical to the fault-free run — corpus and full report, so
    // zero retries, zero backoff, zero quarantine leaked through.
    assert_eq!(serial_corpus, clean_corpus);
    assert_eq!(serial_report, clean_report);
    assert_eq!(parallel_corpus, clean_corpus);
    assert_eq!(parallel_report, clean_report);

    // Deterministic mode: an identical pool run reproduces the exact
    // scheduling stats, not just the corpus.
    assert_eq!(pool_parallel.stats(), stats);

    // Store-resumed mode: a capped first pass plus a completing second
    // pass over fresh pools lands on the same corpus and an empty
    // quarantine.
    let dir = std::env::temp_dir().join(format!(
        "gt_pool_oracle_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = CorpusStore::create(&dir, pipeline.corpus_name()).unwrap();
    let first = pipeline
        .run_to_store_with(
            &transient_pool(&pipeline, 2, 0.25, 17),
            &store,
            &StoreRunOptions {
                max_new_shards: Some(2),
                ..StoreRunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(first.shards_written, 2);
    let resumed = pipeline
        .run_to_store(&transient_pool(&pipeline, 2, 0.25, 17), &store)
        .unwrap();
    assert_eq!(resumed.corpus, clean_corpus);
    assert!(resumed.report.quarantined_repos.is_empty());
    assert!(QuarantineLog::load(&dir).unwrap().repos.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica blackout mid-pool: one backend fails every operation, the
/// other is healthy. The circuit breaker ejects the dead replica after
/// its failure threshold, the pool serves everything from the survivor,
/// and the pipeline output is exactly the fault-free run.
#[test]
fn replica_blackout_trips_breaker_and_leaves_no_trace() {
    let pipeline = Pipeline::new(cfg(91));
    let (clean_corpus, clean_report) = pipeline.run(&populated(&pipeline));

    let dead = FlakyHost::new(
        populated(&pipeline),
        FaultSpec {
            seed: 40,
            transient_rate: 1.0,
            max_consecutive: u32::MAX,
            ..FaultSpec::default()
        },
    );
    let healthy = FlakyHost::new(populated(&pipeline), FaultSpec::transient(41, 0.0));
    let pool = HostPool::new(
        vec![dead, healthy],
        PoolPolicy {
            seed: 7,
            deterministic: true,
            ..PoolPolicy::default()
        },
    );
    let (corpus, report) = pipeline.run(&pool);

    assert_eq!(corpus, clean_corpus);
    assert_eq!(report, clean_report);

    let stats = pool.stats();
    assert!(
        stats.breaker_opens() >= 1,
        "dead replica's breaker never opened: {stats:?}"
    );
    assert_eq!(stats.replicas[0].served, 0, "dead replica served traffic");
    assert_eq!(
        stats.replicas[1].transient_errors, 0,
        "healthy replica saw faults"
    );
    assert!(stats.replicas[1].served > 0);
}
