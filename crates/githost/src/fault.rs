//! Seeded, deterministic fault injection for [`CodeHost`] operations.
//!
//! [`FlakyHost`] decorates any host with reproducible faults drawn from a
//! [`FaultSpec`]: transient errors (timeout, rate limit, 5xx), truncated
//! file contents, and permanently corrupt files. Every decision is a pure
//! function of `(seed, operation identity, attempt number)` — never of
//! wall-clock time or call interleaving — so the same spec over the same
//! host produces the same fault schedule on every run, which is what
//! makes "retrying pipeline output == fault-free output" a testable
//! equivalence rather than a flaky hope.
//!
//! Transient faults are *streaked*: an operation fails at most
//! [`FaultSpec::max_consecutive`] times in a row before it is forced to
//! succeed, so any retry loop allowing more attempts than that is
//! guaranteed to converge. Corruption is decided once per file and never
//! heals — the permanent-fault path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::host::{CodeHost, HostError};
use crate::search::{Query, SearchResponse};
use crate::unpoisoned;

/// Configures which faults [`FlakyHost`] injects and how often. All rates
/// are probabilities in `[0, 1]` evaluated deterministically per
/// operation (and, for streaked faults, per attempt).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Probability of a transient error ([`HostError::Timeout`] /
    /// [`HostError::RateLimited`] / [`HostError::ServerError`]) per
    /// (operation, attempt).
    pub transient_rate: f64,
    /// Probability that a fetch returns truncated contents, per attempt.
    /// Truncation is detectable (the content is shorter than the size the
    /// search result advertised) and streaked like transient errors, so
    /// a retry heals it.
    pub truncate_rate: f64,
    /// Probability that a file's contents are permanently corrupt —
    /// every fetch of it fails with [`HostError::CorruptContent`].
    pub corrupt_rate: f64,
    /// Forced-success ceiling: an operation never fails transiently (or
    /// truncated) more than this many times in a row.
    pub max_consecutive: u32,
    /// Seed of the *corruption* schedule, when it should differ from
    /// [`FaultSpec::seed`]. Replica mirrors of the same upstream serve
    /// the same bytes, so a pool of [`FlakyHost`] replicas models
    /// "content is corrupt at the source" by sharing one `corrupt_seed`
    /// across per-replica transient seeds. `None` falls back to `seed`.
    pub corrupt_seed: Option<u64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            transient_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            max_consecutive: 2,
            corrupt_seed: None,
        }
    }
}

impl FaultSpec {
    /// A transient-only spec: errors and truncation but nothing
    /// permanent, so a retrying client must recover the fault-free
    /// output exactly.
    #[must_use]
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultSpec {
            seed,
            transient_rate: rate,
            truncate_rate: rate / 2.0,
            ..FaultSpec::default()
        }
    }
}

/// How many faults of each class a [`FlakyHost`] has injected so far —
/// tests assert on these to prove a scenario actually exercised the
/// fault paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient errors returned.
    pub transient: u64,
    /// Truncated fetch responses returned.
    pub truncated: u64,
    /// Corrupt-content errors returned.
    pub corrupt: u64,
}

/// A [`CodeHost`] decorator injecting the faults described by a
/// [`FaultSpec`]. Wrap a populated host and hand the wrapper to the
/// pipeline; the inner host is never mutated.
pub struct FlakyHost<H> {
    inner: H,
    spec: FaultSpec,
    /// Consecutive streaked-fault count per operation key. Retries of one
    /// operation are sequential in the caller, so the map is
    /// deterministic even under a parallel pipeline.
    streaks: Mutex<HashMap<String, u32>>,
    transient: AtomicU64,
    truncated: AtomicU64,
    corrupt: AtomicU64,
}

/// Stable 64-bit mix of `(seed, key, salt)` — FNV fold then a
/// SplitMix64 finalizer, so nearby salts decorrelate. Shared with the
/// pool's deterministic routing/latency schedule.
pub(crate) fn mix(seed: u64, key: &str, salt: u64) -> u64 {
    let mut h = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Uniform fraction in `[0, 1)` from a mixed hash.
fn frac(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Cuts `s` to half its byte length on a char boundary — the injected
/// "connection dropped mid-download" shape.
fn truncate_half(mut s: String) -> String {
    let mut cut = s.len() / 2;
    while cut > 0 && !s.is_char_boundary(cut) {
        cut -= 1;
    }
    s.truncate(cut);
    s
}

impl<H: CodeHost> FlakyHost<H> {
    /// Wraps `inner` with the fault schedule of `spec`.
    #[must_use]
    pub fn new(inner: H, spec: FaultSpec) -> Self {
        FlakyHost {
            inner,
            spec,
            streaks: Mutex::new(HashMap::new()),
            transient: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The wrapped host.
    #[must_use]
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Faults injected so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            transient: self.transient.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Streaked fault decision for `key` under `rate`: fault iff the
    /// per-attempt hash says so *and* the streak is still below the
    /// forced-success ceiling. Returns whether this attempt faults.
    fn streaked_fault(&self, key: &str, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut streaks = unpoisoned(self.streaks.lock());
        let n = streaks.entry(key.to_string()).or_insert(0);
        if *n >= self.spec.max_consecutive {
            return false;
        }
        if frac(mix(self.spec.seed, key, u64::from(*n))) < rate {
            *n += 1;
            return true;
        }
        false
    }

    /// Transient-error gate shared by every operation.
    fn transient(&self, key: &str) -> Result<(), HostError> {
        if !self.streaked_fault(key, self.spec.transient_rate) {
            return Ok(());
        }
        self.transient.fetch_add(1, Ordering::Relaxed);
        let streak = *unpoisoned(self.streaks.lock()).get(key).unwrap_or(&1);
        Err(
            match mix(self.spec.seed, key, 0xFA17 ^ u64::from(streak)) % 3 {
                0 => HostError::Timeout,
                1 => HostError::RateLimited,
                _ => HostError::ServerError(503),
            },
        )
    }
}

impl<H: CodeHost> CodeHost for FlakyHost<H> {
    fn count(&self, query: &Query) -> Result<usize, HostError> {
        self.transient(&format!("count:{query}"))?;
        self.inner.count(query)
    }

    fn search(&self, query: &Query, page: usize) -> Result<SearchResponse, HostError> {
        self.transient(&format!("search:{query}:p{page}"))?;
        self.inner.search(query, page)
    }

    fn fetch(&self, repository: &str, path: &str) -> Result<Option<String>, HostError> {
        let key = format!("fetch:{repository}/{path}");
        // Corruption is per-file and permanent: decided by the key alone,
        // independent of attempt count, so no retry ever heals it.
        let corrupt_seed = self.spec.corrupt_seed.unwrap_or(self.spec.seed);
        if self.spec.corrupt_rate > 0.0
            && frac(mix(corrupt_seed, &key, 0xC0FF)) < self.spec.corrupt_rate
        {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return Err(HostError::CorruptContent {
                repository: repository.to_string(),
                path: path.to_string(),
            });
        }
        self.transient(&key)?;
        let content = self.inner.fetch(repository, path)?;
        Ok(content.map(|c| {
            if self.streaked_fault(&format!("trunc|{key}"), self.spec.truncate_rate) {
                self.truncated.fetch_add(1, Ordering::Relaxed);
                truncate_half(c)
            } else {
                c
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::GitHost;
    use crate::model::{RepoFile, Repository};

    fn sample_host() -> GitHost {
        let host = GitHost::new();
        for i in 0..20 {
            host.add_repository(Repository {
                full_name: format!("u{i}/r{i}"),
                license: Some("mit".into()),
                fork: false,
                files: vec![RepoFile::new(
                    "data.csv",
                    format!("id,name\n{i},{}\n", "x".repeat(10 + i)),
                )],
            });
        }
        host
    }

    fn drain(flaky: &FlakyHost<GitHost>) -> Vec<String> {
        // Fetch every file up to 8 attempts, recording each outcome.
        let mut log = Vec::new();
        for i in 0..20 {
            let (repo, path) = (format!("u{i}/r{i}"), "data.csv");
            for attempt in 0..8 {
                match CodeHost::fetch(flaky, &repo, path) {
                    Ok(Some(c)) => {
                        log.push(format!("{repo}@{attempt}:ok:{}", c.len()));
                        break;
                    }
                    Ok(None) => unreachable!("file exists"),
                    Err(e) => log.push(format!("{repo}@{attempt}:err:{e}")),
                }
            }
        }
        log
    }

    #[test]
    fn schedule_is_deterministic() {
        let spec = FaultSpec {
            seed: 9,
            transient_rate: 0.5,
            truncate_rate: 0.3,
            corrupt_rate: 0.1,
            max_consecutive: 3,
            ..FaultSpec::default()
        };
        let a = FlakyHost::new(sample_host(), spec.clone());
        let b = FlakyHost::new(sample_host(), spec);
        assert_eq!(drain(&a), drain(&b));
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().transient > 0, "{:?}", a.counts());
    }

    #[test]
    fn forced_success_bounds_streaks() {
        let flaky = FlakyHost::new(
            sample_host(),
            FaultSpec {
                seed: 1,
                transient_rate: 1.0,
                max_consecutive: 3,
                ..FaultSpec::default()
            },
        );
        let mut failures = 0;
        loop {
            match CodeHost::fetch(&flaky, "u0/r0", "data.csv") {
                Ok(Some(_)) => break,
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                    assert!(failures <= 3, "streak must cap at max_consecutive");
                }
                Ok(None) => unreachable!(),
            }
        }
        assert_eq!(failures, 3);
    }

    #[test]
    fn corruption_is_permanent() {
        let flaky = FlakyHost::new(
            sample_host(),
            FaultSpec {
                seed: 4,
                corrupt_rate: 0.5,
                ..FaultSpec::default()
            },
        );
        let mut corrupt_repo = None;
        for i in 0..20 {
            let repo = format!("u{i}/r{i}");
            if CodeHost::fetch(&flaky, &repo, "data.csv").is_err() {
                corrupt_repo = Some(repo);
                break;
            }
        }
        let repo = corrupt_repo.expect("rate 0.5 over 20 files hits at least one");
        for _ in 0..5 {
            let err = CodeHost::fetch(&flaky, &repo, "data.csv").unwrap_err();
            assert!(!err.is_transient());
        }
    }

    #[test]
    fn truncation_shrinks_but_heals() {
        let flaky = FlakyHost::new(
            sample_host(),
            FaultSpec {
                seed: 2,
                truncate_rate: 1.0,
                max_consecutive: 2,
                ..FaultSpec::default()
            },
        );
        let full = flaky.inner().fetch("u0/r0", "data.csv").unwrap().len();
        for _ in 0..2 {
            let got = CodeHost::fetch(&flaky, "u0/r0", "data.csv")
                .unwrap()
                .unwrap();
            assert!(got.len() < full, "truncated attempt must be shorter");
        }
        let healed = CodeHost::fetch(&flaky, "u0/r0", "data.csv")
            .unwrap()
            .unwrap();
        assert_eq!(healed.len(), full, "forced success returns full content");
        assert_eq!(flaky.counts().truncated, 2);
    }

    #[test]
    fn zero_rates_are_a_noop() {
        let flaky = FlakyHost::new(sample_host(), FaultSpec::default());
        assert_eq!(
            CodeHost::fetch(&flaky, "u3/r3", "data.csv").unwrap(),
            flaky.inner().fetch("u3/r3", "data.csv")
        );
        assert_eq!(CodeHost::count(&flaky, &Query::csv("id")).unwrap(), 20);
        assert_eq!(flaky.counts(), FaultCounts::default());
    }
}
