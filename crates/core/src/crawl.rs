//! The long-running crawl daemon: repeated incremental store passes with
//! scheduled quarantine draining and graceful shutdown.
//!
//! GitTables is a *continuously crawled* corpus — extraction does not
//! finish, it keeps revisiting the host for new repositories and heals
//! previously failed ones. [`crawl`] loops store-backed pipeline passes
//! over the existing resume machinery:
//!
//! * every pass is an incremental [`Pipeline::run_to_store_with`] —
//!   shards already in the store are skipped, new ones commit
//!   atomically;
//! * every [`CrawlOptions::drain_every`]-th pass re-attempts quarantined
//!   repositories whose **per-repo exponential cooldown** has expired;
//!   a repository that fails its re-attempt waits twice as many passes
//!   before the next one. Cooldowns persist in `crawl_state.json`
//!   alongside `quarantine.json`, so the schedule survives restarts;
//! * each pass reports pool/breaker statistics (when the host is a
//!   [`gittables_githost::HostPool`]) via [`PassOutcome::pool`];
//! * a stop flag — typically the one [`install_stop_signals`] points
//!   SIGTERM/SIGINT at — stops the loop *gracefully*: in-flight shards
//!   finish and commit, deferred shards wait for the next daemon start,
//!   and the crawl state is saved before returning.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use gittables_corpus::{CorpusStore, StoreError};
use gittables_githost::{sleep_until_stop, CodeHost, PoolStats};
use serde::{Deserialize, Serialize};

use crate::pipeline::{Pipeline, RetrySelection, StoreRun, StoreRunOptions};
use crate::quarantine::QuarantineLog;

/// Sidecar file holding the crawl pass counter and drain cooldowns,
/// next to `quarantine.json` in the store directory.
pub const CRAWL_STATE_FILE: &str = "crawl_state.json";

/// The drain cooldown of one quarantined repository.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepoCooldown {
    /// Repository `owner/name`.
    pub name: String,
    /// Consecutive failed drain re-attempts so far.
    pub failures: u32,
    /// First pass number at which the next re-attempt is allowed.
    pub eligible_pass: u64,
}

/// The persisted crawl-daemon state: a monotonic pass counter and the
/// per-repository drain cooldowns. Saved atomically after every pass.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlState {
    /// Total passes run against this store across daemon restarts.
    pub pass: u64,
    /// Active cooldowns; entries leave when their repository heals or
    /// drops out of quarantine.
    pub cooldowns: Vec<RepoCooldown>,
}

impl CrawlState {
    /// Reads the sidecar from a store directory; a missing file is a
    /// fresh state.
    ///
    /// # Errors
    /// I/O failures other than the file not existing, and malformed
    /// JSON (surfaced as [`std::io::ErrorKind::InvalidData`]).
    pub fn load(dir: &Path) -> std::io::Result<Self> {
        gittables_corpus::load_state(dir, CRAWL_STATE_FILE)
    }

    /// Atomically and durably rewrites the sidecar (write-to-temp, fsync,
    /// rename, directory fsync), the same crash-consistency discipline as
    /// `quarantine.json`.
    ///
    /// # Errors
    /// Underlying I/O failures.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        gittables_corpus::save_state(dir, CRAWL_STATE_FILE, self)
    }

    /// Whether `repo` may be re-attempted at the current pass.
    #[must_use]
    pub fn eligible(&self, repo: &str) -> bool {
        self.cooldowns
            .iter()
            .find(|c| c.name == repo)
            .is_none_or(|c| self.pass >= c.eligible_pass)
    }

    /// Records a failed drain re-attempt of `repo`: its cooldown doubles
    /// (`base`, `2·base`, `4·base`, … passes, capped at `65536·base`).
    fn note_failed_drain(&mut self, repo: &str, base_passes: u64) {
        let base = base_passes.max(1);
        match self.cooldowns.iter_mut().find(|c| c.name == repo) {
            Some(c) => {
                c.failures += 1;
                let wait = base << u64::from((c.failures - 1).min(16));
                c.eligible_pass = self.pass + wait;
            }
            None => self.cooldowns.push(RepoCooldown {
                name: repo.to_string(),
                failures: 1,
                eligible_pass: self.pass + base,
            }),
        }
    }
}

/// Configuration of a [`crawl`] loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlOptions {
    /// Passes to run before returning; `None` loops until the stop flag.
    pub passes: Option<u64>,
    /// Idle time between passes (stop-aware).
    pub interval: Duration,
    /// Cap on freshly processed shards per pass (`max_new_shards` of the
    /// underlying store run).
    pub max_shards_per_pass: Option<usize>,
    /// Re-attempt cooldown-eligible quarantined repositories every this
    /// many passes; `0` never drains.
    pub drain_every: u64,
    /// Cooldown after the first failed re-attempt, in passes; doubles
    /// per consecutive failure.
    pub cooldown_base_passes: u64,
}

impl Default for CrawlOptions {
    fn default() -> Self {
        CrawlOptions {
            passes: None,
            interval: Duration::from_millis(1_000),
            max_shards_per_pass: None,
            drain_every: 2,
            cooldown_base_passes: 1,
        }
    }
}

/// What one crawl pass did, handed to the `on_pass` observer.
#[derive(Debug)]
pub struct PassOutcome {
    /// The cumulative pass number (persisted across restarts).
    pub pass: u64,
    /// The underlying store run: corpus, merged report, shard counts.
    pub run: StoreRun,
    /// Quarantined repositories this pass re-attempted (drain set).
    pub drained: Vec<String>,
    /// The subset of `drained` that healed (left quarantine).
    pub healed: Vec<String>,
    /// Repositories quarantined after this pass.
    pub quarantined: usize,
    /// Pool scheduling stats for *this pass* (deltas), when the host is
    /// a replica pool.
    pub pool: Option<PoolStats>,
}

/// How a [`crawl`] loop ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlSummary {
    /// Passes this invocation ran.
    pub passes_run: u64,
    /// Cumulative pass counter (including previous daemon runs).
    pub pass: u64,
    /// Whether the stop flag ended the loop (vs. the pass budget).
    pub interrupted: bool,
    /// Repositories quarantined at exit.
    pub quarantined: usize,
}

/// Runs the crawl loop: incremental store passes, scheduled quarantine
/// drains with exponential per-repo cooldowns, per-pass observer
/// callbacks, and graceful stop. See the `crawl` module docs.
///
/// # Errors
/// Store I/O and consistency failures from the underlying runs; crawl
/// and quarantine sidecar I/O surfaces as [`StoreError::Io`].
pub fn crawl(
    pipeline: &Pipeline,
    host: &dyn CodeHost,
    store: &CorpusStore,
    options: &CrawlOptions,
    stop: &AtomicBool,
    mut on_pass: impl FnMut(&PassOutcome),
) -> Result<CrawlSummary, StoreError> {
    let mut state = CrawlState::load(store.path()).map_err(StoreError::Io)?;
    let mut prev_pool = host.pool_stats();
    let mut passes_run = 0u64;
    let mut quarantined = QuarantineLog::load(store.path())
        .map_err(StoreError::Io)?
        .repos
        .len();
    let mut interrupted = false;
    while !stop.load(Ordering::Relaxed) && options.passes.is_none_or(|p| passes_run < p) {
        state.pass += 1;
        let log = QuarantineLog::load(store.path()).map_err(StoreError::Io)?;
        let drain_pass = options.drain_every > 0 && state.pass % options.drain_every == 0;
        let retry: HashSet<String> = if drain_pass {
            log.repos
                .iter()
                .filter(|q| state.eligible(&q.name))
                .map(|q| q.name.clone())
                .collect()
        } else {
            HashSet::new()
        };
        let run = pipeline.run_to_store_with(
            host,
            store,
            &StoreRunOptions {
                max_new_shards: options.max_shards_per_pass,
                retry: RetrySelection::Repos(&retry),
                stop: Some(stop),
            },
        )?;
        let still: HashSet<&str> = run
            .report
            .quarantined_repos
            .iter()
            .map(|q| q.name.as_str())
            .collect();
        let mut drained: Vec<String> = retry.into_iter().collect();
        drained.sort();
        let mut healed = Vec::new();
        for repo in &drained {
            if still.contains(repo.as_str()) {
                state.note_failed_drain(repo, options.cooldown_base_passes);
            } else {
                healed.push(repo.clone());
            }
        }
        // A cooldown only means something while its repository is
        // quarantined; healed or otherwise-released repositories start
        // fresh if they ever re-enter.
        state.cooldowns.retain(|c| still.contains(c.name.as_str()));
        state.save(store.path()).map_err(StoreError::Io)?;
        quarantined = run.report.quarantined_repos.len();
        let pool_now = host.pool_stats();
        let pool = match (&pool_now, &prev_pool) {
            (Some(now), Some(prev)) => Some(now.since(prev)),
            (Some(now), None) => Some(now.clone()),
            (None, _) => None,
        };
        prev_pool = pool_now;
        passes_run += 1;
        interrupted = run.interrupted;
        on_pass(&PassOutcome {
            pass: state.pass,
            run,
            drained,
            healed,
            quarantined,
            pool,
        });
        if interrupted || stop.load(Ordering::Relaxed) {
            interrupted = true;
            break;
        }
        if options.passes.is_some_and(|p| passes_run >= p) {
            break;
        }
        if !options.interval.is_zero() && !sleep_until_stop(options.interval, stop) {
            interrupted = true;
            break;
        }
    }
    if stop.load(Ordering::Relaxed) {
        interrupted = true;
    }
    Ok(CrawlSummary {
        passes_run,
        pass: state.pass,
        interrupted,
        quarantined,
    })
}

/// The crawl daemon's process-wide stop flag.
static STOP: AtomicBool = AtomicBool::new(false);

/// Installs the crawl daemon's SIGTERM/SIGINT handling and returns the
/// stop flag: both signals raise it ([`gittables_sys::raise_flag_on`] —
/// the handler is a single atomic store), and the crawl loop polls it at
/// shard boundaries and during interval sleeps.
pub fn install_stop_signals() -> &'static AtomicBool {
    gittables_sys::raise_flag_on(gittables_sys::Signal::Int, &STOP);
    gittables_sys::raise_flag_on(gittables_sys::Signal::Term, &STOP);
    &STOP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrip_and_missing_is_fresh() {
        let dir = std::env::temp_dir().join(format!(
            "gt_crawl_state_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(CrawlState::load(&dir).unwrap(), CrawlState::default());
        let state = CrawlState {
            pass: 7,
            cooldowns: vec![RepoCooldown {
                name: "a/b".into(),
                failures: 2,
                eligible_pass: 11,
            }],
        };
        state.save(&dir).unwrap();
        assert_eq!(CrawlState::load(&dir).unwrap(), state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cooldowns_double_and_gate_eligibility() {
        let mut state = CrawlState {
            pass: 4,
            ..CrawlState::default()
        };
        assert!(state.eligible("a/b"), "unknown repos are eligible");
        state.note_failed_drain("a/b", 1);
        assert_eq!(state.cooldowns[0].eligible_pass, 5);
        assert!(!state.eligible("a/b"));
        state.pass = 5;
        assert!(state.eligible("a/b"));
        state.note_failed_drain("a/b", 1);
        assert_eq!(state.cooldowns[0].failures, 2);
        assert_eq!(state.cooldowns[0].eligible_pass, 7, "second wait is 2");
        state.pass = 7;
        state.note_failed_drain("a/b", 1);
        assert_eq!(state.cooldowns[0].eligible_pass, 11, "third wait is 4");
    }

    #[test]
    fn signal_flag_installs_and_reads() {
        let flag = install_stop_signals();
        assert!(!flag.load(Ordering::Relaxed));
        assert!(std::ptr::eq(flag, &STOP));
    }
}
