//! File extraction from the (simulated) GitHub search API (§3.2).
//!
//! For each topic and file kind (CSV, SQL dump) the extractor:
//!
//! 1. issues the *initial topic query* `q="<topic>" extension:<ext>` and
//!    reads the initial response size;
//! 2. if the count exceeds the 1 000-result cap, *segments* the query with
//!    `size:` qualifiers — ranges are split recursively until each returns at
//!    most the cap (the paper generates size sequences "proportional to the
//!    number of files in the initial response"; recursive bisection yields
//!    exactly such a sequence adaptively);
//! 3. traverses the paginated responses of every (segmented) query;
//! 4. fetches the raw contents behind each URL.

use std::collections::HashMap;

use gittables_githost::search::MAX_FILE_SIZE;
use gittables_githost::{
    CodeHost, FileKind, HostError, Query, SearchResult, MAX_RESULTS_PER_QUERY,
};
use serde::{Deserialize, Serialize};

use crate::config::FaultPolicy;
use crate::pipeline::Quarantined;

/// Backoff before the first retry, milliseconds; each further retry
/// doubles it (with deterministic jitter in `[delay/2, delay]`).
const BACKOFF_BASE_MS: u64 = 5;

/// Cap on a single backoff delay, milliseconds.
const BACKOFF_MAX_MS: u64 = 100;

/// A fetched raw tabular file (CSV or SQL dump) with its provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawCsvFile {
    /// Repository `owner/name`.
    pub repository: String,
    /// Path inside the repository.
    pub path: String,
    /// The topic whose query retrieved the file.
    pub topic: String,
    /// Repository license.
    pub license: Option<String>,
    /// Raw contents.
    pub content: String,
    /// Which parser the file dispatches to (classified from the path, so
    /// it holds regardless of which kind's query surfaced the file).
    pub kind: FileKind,
}

/// Statistics of one topic's extraction.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractStats {
    /// Initial response size of the unsegmented query.
    pub initial_count: usize,
    /// Number of segmented queries executed (1 if unsegmented).
    pub queries_executed: usize,
    /// URLs collected (deduplicated).
    pub urls: usize,
    /// Files fetched successfully.
    pub fetched: usize,
}

/// Order-preserving first-occurrence mask: `mask[i]` is true iff item `i`
/// is the first item with its key. Computed from one sorted index
/// permutation over *borrowed* keys — unlike a `HashSet<(String, String)>`
/// probe, no key is ever cloned or allocated.
pub fn first_occurrence_mask<'a, T, K: Ord + 'a>(
    items: &'a [T],
    key: impl Fn(&'a T) -> K,
) -> Vec<bool> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    idx.sort_by(|&a, &b| key(&items[a]).cmp(&key(&items[b])).then(a.cmp(&b)));
    let mut keep = vec![false; items.len()];
    let mut prev: Option<usize> = None;
    for &i in &idx {
        if prev.is_none_or(|p| key(&items[p]) != key(&items[i])) {
            keep[i] = true;
        }
        prev = Some(i);
    }
    keep
}

/// Per-run fault-handling state threaded through extraction: the retry
/// policy, accumulated retry/backoff accounting, per-repository retry
/// budgets, and the quarantine lists. One session spans every topic of a
/// pipeline run, so budgets and quarantines are repository-global.
#[derive(Debug)]
pub(crate) struct FaultSession<'a> {
    policy: &'a FaultPolicy,
    /// Seed of the deterministic backoff jitter.
    seed: u64,
    /// Host-operation retries performed.
    pub retries: usize,
    /// Total backoff scheduled, milliseconds.
    pub backoff_ms: u64,
    /// Search operations that failed even after retries (the topic is
    /// degraded, not the run).
    pub queries_failed: usize,
    /// Retries consumed per repository.
    budget_used: HashMap<String, u32>,
    /// Repositories quarantined this session, with reasons.
    pub quarantined_repos: Vec<Quarantined>,
    /// Files that triggered a quarantine, with reasons.
    pub quarantined_files: Vec<Quarantined>,
    /// Repositories to skip outright (sticky quarantine from a previous
    /// store-backed run), with the recorded reason.
    skip: HashMap<String, String>,
}

impl<'a> FaultSession<'a> {
    pub(crate) fn new(policy: &'a FaultPolicy, seed: u64, skip: HashMap<String, String>) -> Self {
        FaultSession {
            policy,
            seed,
            retries: 0,
            backoff_ms: 0,
            queries_failed: 0,
            budget_used: HashMap::new(),
            quarantined_repos: Vec::new(),
            quarantined_files: Vec::new(),
            skip,
        }
    }

    fn is_quarantined(&self, repo: &str) -> bool {
        self.quarantined_repos.iter().any(|q| q.name == repo)
    }

    fn quarantine_repo(&mut self, repo: &str, reason: &str) {
        if !self.is_quarantined(repo) {
            self.quarantined_repos.push(Quarantined {
                name: repo.to_string(),
                reason: reason.to_string(),
            });
        }
    }

    /// Schedules (and optionally sleeps) one jittered exponential-backoff
    /// delay: `BACKOFF_BASE_MS * 2^(attempt-1)` capped at
    /// `BACKOFF_MAX_MS`, jittered deterministically into `[delay/2,
    /// delay]` by `(seed, key, attempt)`.
    fn backoff(&mut self, key: &str, attempt: u32) {
        self.retries += 1;
        let exp =
            (BACKOFF_BASE_MS << u64::from(attempt.saturating_sub(1)).min(16)).min(BACKOFF_MAX_MS);
        let mut h = self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in key.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        let ms = exp / 2 + h % (exp / 2 + 1);
        self.backoff_ms += ms;
        if self.policy.sleep && ms > 0 {
            // `std::thread::sleep` resumes after EINTR: the crawl daemon
            // installs SIGTERM/SIGINT handlers, and backoff delays must
            // not shrink under signal load.
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    /// Runs a topic-level search operation, retrying transient faults up
    /// to the per-operation attempt limit. `None` when the operation
    /// ultimately failed — the caller degrades (skips the query) instead
    /// of aborting the run.
    fn query<T>(&mut self, key: &str, mut op: impl FnMut() -> Result<T, HostError>) -> Option<T> {
        let mut attempt = 1u32;
        loop {
            match op() {
                Ok(v) => return Some(v),
                Err(e) if e.is_transient() && attempt < self.policy.max_attempts => {
                    self.backoff(key, attempt);
                    attempt += 1;
                }
                Err(_) => {
                    self.queries_failed += 1;
                    return None;
                }
            }
        }
    }

    /// Takes one retry from `repo`'s budget; `false` when exhausted.
    fn take_budget(&mut self, repo: &str) -> bool {
        let used = self.budget_used.entry(repo.to_string()).or_insert(0);
        if *used >= self.policy.repo_retry_budget {
            return false;
        }
        *used += 1;
        true
    }
}

/// Outcome of fetching one search result under the fault policy.
enum FetchOutcome {
    /// Full contents, verified against the advertised size.
    Fetched(String),
    /// The host no longer has the file — skipped, as before faults.
    Missing,
    /// The file's repository is quarantined (now or earlier); drop it.
    Quarantined,
}

/// Fetches one file with transient-retry and quarantine handling. The
/// advertised search-result size is the truncation oracle: a shorter
/// download is a cut-off transfer and retried like any transient fault.
fn fetch_one(host: &dyn CodeHost, r: &SearchResult, session: &mut FaultSession) -> FetchOutcome {
    if session.is_quarantined(&r.repository) || session.skip.contains_key(&r.repository) {
        if let Some(reason) = session.skip.get(&r.repository).cloned() {
            session.quarantine_repo(&r.repository, &reason);
        }
        return FetchOutcome::Quarantined;
    }
    let key = format!("fetch:{}/{}", r.repository, r.path);
    let mut attempt = 1u32;
    loop {
        match host.fetch(&r.repository, &r.path) {
            Ok(Some(content)) if content.len() == r.size => return FetchOutcome::Fetched(content),
            Ok(None) => return FetchOutcome::Missing,
            // Truncated download or transient error: retry within both
            // the per-operation attempt limit and the repo budget.
            Ok(Some(_))
            | Err(HostError::Timeout | HostError::RateLimited | HostError::ServerError(_)) => {
                if attempt >= session.policy.max_attempts {
                    session.quarantined_files.push(Quarantined {
                        name: format!("{}/{}", r.repository, r.path),
                        reason: "retry attempts exhausted".to_string(),
                    });
                    session.quarantine_repo(&r.repository, "retry attempts exhausted");
                    return FetchOutcome::Quarantined;
                }
                if !session.take_budget(&r.repository) {
                    session.quarantined_files.push(Quarantined {
                        name: format!("{}/{}", r.repository, r.path),
                        reason: "repository retry budget exhausted".to_string(),
                    });
                    session.quarantine_repo(&r.repository, "retry budget exhausted");
                    return FetchOutcome::Quarantined;
                }
                session.backoff(&key, attempt);
                attempt += 1;
            }
            Err(HostError::CorruptContent { .. }) => {
                session.quarantined_files.push(Quarantined {
                    name: format!("{}/{}", r.repository, r.path),
                    reason: "corrupt content".to_string(),
                });
                session.quarantine_repo(&r.repository, "corrupt content");
                return FetchOutcome::Quarantined;
            }
        }
    }
}

/// Recursively collects size ranges whose result counts fit under the
/// API's result cap.
fn segment(
    host: &dyn CodeHost,
    session: &mut FaultSession,
    base: &Query,
    (lo, hi): (usize, usize),
    out: &mut Vec<(usize, usize)>,
    queries: &mut usize,
) {
    let q = base.clone().with_size(lo, hi);
    *queries += 1;
    let count = session
        .query(&format!("count:{q}"), || host.count(&q))
        .unwrap_or(0);
    if count == 0 {
        return;
    }
    if count <= MAX_RESULTS_PER_QUERY || lo >= hi {
        out.push((lo, hi));
        return;
    }
    let mid = lo + (hi - lo) / 2;
    segment(host, session, base, (lo, mid), out, queries);
    segment(host, session, base, (mid + 1, hi), out, queries);
}

/// Traverses all pages of `query` with transient-retry; an ultimately
/// failed page request truncates the traversal (degraded, recorded in
/// the session) rather than aborting.
fn search_pages(
    host: &dyn CodeHost,
    query: &Query,
    session: &mut FaultSession,
) -> Vec<SearchResult> {
    let mut out = Vec::new();
    let mut page = 1usize;
    loop {
        let key = format!("search:{query}:p{page}");
        let Some(resp) = session.query(&key, || host.search(query, page)) else {
            break;
        };
        let done = !resp.has_next_page;
        out.extend(resp.items);
        if done {
            break;
        }
        page += 1;
    }
    out
}

/// Extracts all CSV files for one topic. Returns the files and stats.
/// Infallible-host convenience wrapper around
/// `extract_topic_session` with the default fault policy and the CSV
/// file kind.
#[must_use]
pub fn extract_topic(host: &dyn CodeHost, topic: &str) -> (Vec<RawCsvFile>, ExtractStats) {
    let policy = FaultPolicy::default();
    let mut session = FaultSession::new(&policy, 0, HashMap::new());
    extract_topic_session(host, topic, FileKind::Csv, &mut session)
}

/// Extracts all files of one `kind` for one topic under `session`'s fault
/// policy: transient faults are retried with backoff, truncated downloads
/// are detected against the advertised size and retried, and permanent
/// faults or exhausted budgets quarantine the repository (recorded in
/// the session) while extraction keeps going.
pub(crate) fn extract_topic_session(
    host: &dyn CodeHost,
    topic: &str,
    kind: FileKind,
    session: &mut FaultSession,
) -> (Vec<RawCsvFile>, ExtractStats) {
    let base = Query::for_kind(topic, kind);
    let initial_count = session
        .query(&format!("count:{base}"), || host.count(&base))
        .unwrap_or(0);
    let mut stats = ExtractStats {
        initial_count,
        queries_executed: 1,
        ..Default::default()
    };

    let results: Vec<SearchResult> = if initial_count == 0 {
        Vec::new()
    } else if initial_count <= MAX_RESULTS_PER_QUERY {
        search_pages(host, &base, session)
    } else {
        let mut ranges = Vec::new();
        let mut queries = 0usize;
        segment(
            host,
            session,
            &base,
            (0, MAX_FILE_SIZE),
            &mut ranges,
            &mut queries,
        );
        stats.queries_executed += queries;
        let mut all = Vec::new();
        for (lo, hi) in ranges {
            all.extend(search_pages(host, &base.clone().with_size(lo, hi), session));
        }
        all
    };

    // Deduplicate URLs (a file can match several size segments at range
    // boundaries only if ranges overlapped; they don't — but dedup anyway
    // for safety and cross-page duplicates). The mask keys on borrowed
    // `&str`s, so deduplication allocates nothing per result.
    let keep = first_occurrence_mask(&results, |r| (r.repository.as_str(), r.path.as_str()));
    let mut files = Vec::new();
    for (r, is_first) in results.into_iter().zip(keep) {
        if !is_first {
            continue;
        }
        stats.urls += 1;
        match fetch_one(host, &r, session) {
            FetchOutcome::Fetched(content) => {
                stats.fetched += 1;
                let kind = FileKind::from_path(&r.path);
                files.push(RawCsvFile {
                    repository: r.repository,
                    path: r.path,
                    topic: topic.to_string(),
                    license: r.license,
                    content,
                    kind,
                });
            }
            FetchOutcome::Missing | FetchOutcome::Quarantined => {}
        }
    }
    (files, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_githost::{GitHost, RepoFile, Repository};

    fn host(n: usize) -> GitHost {
        let host = GitHost::new();
        for i in 0..n {
            host.add_repository(Repository {
                full_name: format!("u{i}/r{i}"),
                license: Some("mit".into()),
                fork: false,
                files: vec![RepoFile::new(
                    "data.csv",
                    format!("id,pad\n{i},{}\n", "y".repeat(i % 97)),
                )],
            });
        }
        host
    }

    #[test]
    fn small_topic_single_query() {
        let h = host(50);
        let (files, stats) = extract_topic(&h, "id");
        assert_eq!(files.len(), 50);
        assert_eq!(stats.initial_count, 50);
        assert_eq!(stats.queries_executed, 1);
        assert_eq!(stats.fetched, 50);
    }

    #[test]
    fn large_topic_segmented_recovers_all() {
        let h = host(2500);
        let (files, stats) = extract_topic(&h, "id");
        assert_eq!(stats.initial_count, 2500);
        assert!(stats.queries_executed > 1, "should segment");
        assert_eq!(files.len(), 2500, "segmentation must recover past the cap");
    }

    #[test]
    fn unknown_topic_empty() {
        let h = host(10);
        let (files, stats) = extract_topic(&h, "nonexistenttopicz");
        assert!(files.is_empty());
        assert_eq!(stats.initial_count, 0);
    }

    #[test]
    fn first_occurrence_mask_keeps_order() {
        let items = vec![("a", 1), ("b", 1), ("a", 2), ("c", 1), ("b", 2), ("a", 3)];
        let mask = first_occurrence_mask(&items, |it| it.0);
        assert_eq!(mask, vec![true, true, false, true, false, false]);
        assert!(first_occurrence_mask::<(&str, i32), &str>(&[], |it| it.0).is_empty());
    }

    #[test]
    fn provenance_carried() {
        let h = host(3);
        let (files, _) = extract_topic(&h, "id");
        assert_eq!(files[0].topic, "id");
        assert_eq!(files[0].license.as_deref(), Some("mit"));
        assert!(files[0].content.starts_with("id,pad"));
    }
}
