//! Crash-consistency torture: a store-backed pipeline run is SIGKILLed at
//! seeded failpoints inside the durability path (shard fsync, manifest
//! write/fsync/rename, directory fsync), then resumed — and the resumed
//! store must always converge to the bit-identical uninterrupted corpus.
//!
//! SIGKILL leaves no unwinding and no destructors, so each interrupted
//! build runs in a **child process**: the test re-execs its own binary
//! filtered to [`child_build`] with `GITTABLES_FAILPOINTS=<site>=kill@N`
//! in its environment; the kill fires on the N-th hit of the site. The
//! parent then reopens whatever the kill left on disk and resumes
//! in-process with failpoints disarmed.
//!
//! Both shard formats are tortured: `jsonl` and the production `colv1`,
//! whose segment writer has its own `store::shard_fsync` site. The four
//! manifest sites are those of `persist::write_durably`, so a kill can
//! also land in the run's final `quarantine.json` save.
//!
//! Rounds default to 5 per format (one per failpoint site); CI sets
//! `GT_TORTURE_ROUNDS=20` to sweep more (site, N) combinations.

use gittables_core::{FaultPolicy, Pipeline, PipelineConfig};
use gittables_corpus::store::CorpusStore;
use gittables_corpus::StoreFormat;
use gittables_githost::GitHost;

const DIR_VAR: &str = "GT_TORTURE_DIR";
/// The shard format the child creates its store in (`jsonl` when unset).
const FORMAT_VAR: &str = "GT_TORTURE_FORMAT";
const SEED: u64 = 90;

/// Every failpoint site on the store's durability path, in commit order.
const SITES: [&str; 5] = [
    "store::shard_fsync",
    "store::manifest_write",
    "store::manifest_fsync",
    "store::manifest_rename",
    "store::dir_fsync",
];

/// The pipeline both halves build: small enough that a round is cheap,
/// large enough for several repository shards (so a kill can land between
/// commits).
fn pipeline() -> Pipeline {
    Pipeline::new(PipelineConfig {
        fault: FaultPolicy {
            sleep: false,
            ..FaultPolicy::default()
        },
        ..PipelineConfig::sized(SEED, 2, 6)
    })
}

fn populated(pipeline: &Pipeline) -> GitHost {
    let host = GitHost::new();
    pipeline.populate_host(&host);
    host
}

/// Child half: builds the corpus into `$GT_TORTURE_DIR` with whatever
/// failpoints `$GITTABLES_FAILPOINTS` arms — a `kill` mode point SIGKILLs
/// this process mid-commit. Inert no-op in a normal suite run (the env
/// var is unset).
#[test]
fn child_build() {
    let Ok(dir) = std::env::var(DIR_VAR) else {
        return;
    };
    let format = std::env::var(FORMAT_VAR)
        .ok()
        .and_then(|f| StoreFormat::parse(&f))
        .unwrap_or(StoreFormat::Jsonl);
    let pipeline = pipeline();
    let store =
        CorpusStore::open_or_create_with_format(&dir, pipeline.corpus_name(), format).unwrap();
    pipeline
        .run_to_store(&populated(&pipeline), &store)
        .unwrap();
    println!("TORTURE_CHILD_COMPLETED");
}

/// Spawns [`child_build`] with `site=kill@nth` armed, building a
/// `format` store. Returns whether the child was SIGKILLed (vs completing
/// because the site was hit fewer than `nth` times).
fn spawn_interrupted(dir: &std::path::Path, format: StoreFormat, site: &str, nth: u32) -> bool {
    use std::os::unix::process::ExitStatusExt;

    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(exe)
        .args(["child_build", "--exact", "--nocapture", "--test-threads=1"])
        .env(DIR_VAR, dir)
        .env(FORMAT_VAR, format.name())
        .env("GITTABLES_FAILPOINTS", format!("{site}=kill@{nth}"))
        .output()
        .expect("spawn torture child");
    if out.status.success() {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("TORTURE_CHILD_COMPLETED"),
            "child exited 0 without finishing the build:\n{stdout}"
        );
        return false;
    }
    assert_eq!(
        out.status.signal(),
        Some(9),
        "child must die by SIGKILL, not fail: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    true
}

#[test]
fn sigkill_mid_commit_then_resume_is_bit_identical() {
    torture(StoreFormat::Jsonl, "gt_torture");
}

#[test]
fn sigkill_mid_commit_of_a_colv1_store_then_resume_is_bit_identical() {
    torture(StoreFormat::ColV1, "gt_torture_colv1");
}

/// Kills a child building a `format` store at seeded failpoints, resumes
/// each wreck in-process (in directories named after `tag`), and checks
/// every resumed run against the uninterrupted one.
fn torture(format: StoreFormat, tag: &str) {
    let pipeline = pipeline();
    let (reference_corpus, reference_report) = pipeline.run(&populated(&pipeline));

    let rounds: u32 = std::env::var("GT_TORTURE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let mut kills = 0u32;
    for round in 0..rounds {
        let site = SITES[round as usize % SITES.len()];
        // Sweep the kill deeper into the run as rounds progress, so early
        // commits, mid-run commits, and the final manifest all get hit.
        let nth = round / SITES.len() as u32 + 1;
        let dir = std::env::temp_dir().join(format!("{tag}_{}_{round}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let killed = spawn_interrupted(&dir, format, site, nth);
        kills += u32::from(killed);

        // Resume over the wreckage: whatever state the SIGKILL left —
        // torn manifest temp, fsynced-but-uncommitted shard, missing
        // directory entry — the resumed run must converge exactly.
        let store = CorpusStore::open_or_create_with_format(&dir, pipeline.corpus_name(), format)
            .unwrap_or_else(|e| panic!("round {round} ({site}@{nth}): store unopenable: {e}"));
        assert_eq!(store.format(), format, "round {round} ({site}@{nth})");
        let resumed = pipeline
            .run_to_store(&populated(&pipeline), &store)
            .unwrap_or_else(|e| panic!("round {round} ({site}@{nth}): resume failed: {e}"));
        assert_eq!(
            resumed.corpus, reference_corpus,
            "round {round} ({site}@{nth}, killed={killed}): resumed corpus diverged"
        );
        assert_eq!(
            resumed.report, reference_report,
            "round {round} ({site}@{nth}, killed={killed}): resumed report diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        kills > 0,
        "no round actually interrupted the child — the torture proved nothing"
    );
}
