//! The in-memory code host: repository storage plus the token index backing
//! search.

use std::collections::HashMap;
use std::sync::RwLock;

use crate::model::{RepoFile, Repository};
use crate::search::{Query, SearchApi, SearchResponse};
use crate::unpoisoned;

/// A per-operation failure surfaced by a [`CodeHost`].
///
/// Real code hosts fail in two fundamentally different ways: *transient*
/// faults (timeouts, rate limits, 5xx responses) that a retry can heal,
/// and *permanent* faults (content that fails validation on every
/// download) that no retry will fix. Callers branch on
/// [`HostError::is_transient`] to pick between backoff-retry and
/// quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The request timed out (transient).
    Timeout,
    /// The API rate limit tripped (transient).
    RateLimited,
    /// A 5xx-style server failure with its status code (transient).
    ServerError(u16),
    /// Downloaded content failed validation (checksum mismatch) — a
    /// permanent fault for this file.
    CorruptContent {
        /// Repository `owner/name` of the corrupt file.
        repository: String,
        /// Path of the corrupt file.
        path: String,
    },
}

impl HostError {
    /// Whether a retry of the same operation can possibly succeed.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        !matches!(self, HostError::CorruptContent { .. })
    }
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Timeout => write!(f, "request timed out"),
            HostError::RateLimited => write!(f, "rate limit exceeded"),
            HostError::ServerError(status) => write!(f, "server error ({status})"),
            HostError::CorruptContent { repository, path } => {
                write!(f, "corrupt content for {repository}/{path}")
            }
        }
    }
}

impl std::error::Error for HostError {}

/// The code-host operations the extraction pipeline depends on, with the
/// fallible signatures a real network-backed host would have.
///
/// [`GitHost`] implements this infallibly (it always returns `Ok`);
/// [`crate::FlakyHost`] decorates any implementation with seeded,
/// reproducible faults so retry/quarantine logic can be tested
/// deterministically.
pub trait CodeHost: Sync {
    /// Initial response size of `query` — the uncapped match count used
    /// to plan query segmentation.
    ///
    /// # Errors
    /// A transient [`HostError`] when the search request fails.
    fn count(&self, query: &Query) -> Result<usize, HostError>;

    /// One page (1-based) of results for `query`.
    ///
    /// # Errors
    /// A transient [`HostError`] when the search request fails.
    fn search(&self, query: &Query, page: usize) -> Result<SearchResponse, HostError>;

    /// Raw file contents; `Ok(None)` when the file does not exist.
    ///
    /// # Errors
    /// A transient [`HostError`] when the download fails, or
    /// [`HostError::CorruptContent`] when the bytes fail validation.
    fn fetch(&self, repository: &str, path: &str) -> Result<Option<String>, HostError>;

    /// Scheduling statistics when this host routes across replicas
    /// ([`crate::HostPool`] overrides this); `None` for plain hosts.
    /// Lets callers (the crawl daemon's per-pass report) snapshot pool
    /// health without knowing the concrete host type.
    fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        None
    }
}

/// A shared reference is a view of the same host: replicas in a
/// [`crate::HostPool`] can each wrap `&host` in their own
/// [`crate::FlakyHost`] over one populated [`GitHost`].
impl<H: CodeHost + ?Sized> CodeHost for &H {
    fn count(&self, query: &Query) -> Result<usize, HostError> {
        (**self).count(query)
    }

    fn search(&self, query: &Query, page: usize) -> Result<SearchResponse, HostError> {
        (**self).search(query, page)
    }

    fn fetch(&self, repository: &str, path: &str) -> Result<Option<String>, HostError> {
        (**self).fetch(repository, path)
    }

    fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        (**self).pool_stats()
    }
}

/// Internal id of a stored file.
pub(crate) type FileId = u32;

/// Metadata the search index keeps per file.
#[derive(Debug, Clone)]
pub(crate) struct FileMeta {
    pub repo_idx: u32,
    pub file_idx: u32,
    pub size: usize,
    pub extension: Option<String>,
    pub fork: bool,
}

#[derive(Default)]
pub(crate) struct HostInner {
    pub repos: Vec<Repository>,
    pub files: Vec<FileMeta>,
    /// token → sorted file ids containing the token.
    pub token_index: HashMap<String, Vec<FileId>>,
    /// `full_name` → index in `repos` of the first repository of that name.
    by_name: HashMap<String, u32>,
    /// Per repository: path → index in its `files` of the first file there.
    by_path: Vec<HashMap<String, u32>>,
}

impl HostInner {
    /// The first repository named `full_name` and its path map.
    fn find(&self, full_name: &str) -> Option<(&Repository, &HashMap<String, u32>)> {
        let &idx = self.by_name.get(full_name)?;
        Some((&self.repos[idx as usize], &self.by_path[idx as usize]))
    }
}

/// The simulated code-hosting service.
///
/// Thread-safe: reads (search, fetch) take a shared lock; repository
/// insertion takes an exclusive lock. The extraction pipeline reads from
/// many worker threads.
#[derive(Default)]
pub struct GitHost {
    pub(crate) inner: RwLock<HostInner>,
}

/// Splits content into lowercase alphanumeric tokens (what "code search"
/// matches on).
pub(crate) fn tokenize(content: &str) -> impl Iterator<Item = String> + '_ {
    content
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty() && t.len() <= 40)
        .map(str::to_lowercase)
}

impl GitHost {
    /// Creates an empty host.
    #[must_use]
    pub fn new() -> Self {
        GitHost::default()
    }

    /// Adds a repository, indexing its files.
    pub fn add_repository(&self, repo: Repository) {
        let mut inner = unpoisoned(self.inner.write());
        let repo_idx = inner.repos.len() as u32;
        inner
            .by_name
            .entry(repo.full_name.clone())
            .or_insert(repo_idx);
        let mut paths = HashMap::with_capacity(repo.files.len());
        for (file_idx, file) in repo.files.iter().enumerate() {
            paths.entry(file.path.clone()).or_insert(file_idx as u32);
            let id = inner.files.len() as FileId;
            inner.files.push(FileMeta {
                repo_idx,
                file_idx: file_idx as u32,
                size: file.size(),
                extension: file.extension(),
                fork: repo.fork,
            });
            // Index path tokens too (GitHub matches paths).
            for tok in tokenize(&file.path).chain(tokenize(&file.content)) {
                // File ids ascend, so a posting list already ending in
                // `id` means this file repeated the token.
                let posting = inner.token_index.entry(tok).or_default();
                if posting.last() != Some(&id) {
                    posting.push(id);
                }
            }
        }
        inner.by_path.push(paths);
        inner.repos.push(repo);
    }

    /// Number of repositories.
    #[must_use]
    pub fn repo_count(&self) -> usize {
        unpoisoned(self.inner.read()).repos.len()
    }

    /// Total number of files.
    #[must_use]
    pub fn file_count(&self) -> usize {
        unpoisoned(self.inner.read()).files.len()
    }

    /// Fetches raw file contents by `repo full_name` and `path` (the "raw
    /// content URL" fetch of §3.2). `None` when missing.
    #[must_use]
    pub fn fetch(&self, full_name: &str, path: &str) -> Option<String> {
        let inner = unpoisoned(self.inner.read());
        let (repo, paths) = inner.find(full_name)?;
        let &file_idx = paths.get(path)?;
        Some(repo.files[file_idx as usize].content.clone())
    }

    /// A search API view over this host.
    #[must_use]
    pub fn search_api(&self) -> SearchApi<'_> {
        SearchApi::new(self)
    }

    /// Convenience: look up a file's `(repo, path)` by internal id.
    pub(crate) fn locate(inner: &HostInner, id: FileId) -> (&Repository, &RepoFile) {
        let meta = &inner.files[id as usize];
        let repo = &inner.repos[meta.repo_idx as usize];
        let file = &repo.files[meta.file_idx as usize];
        (repo, file)
    }
}

/// The in-memory host is perfectly reliable: every operation succeeds.
impl CodeHost for GitHost {
    fn count(&self, query: &Query) -> Result<usize, HostError> {
        Ok(self.search_api().count(query))
    }

    fn search(&self, query: &Query, page: usize) -> Result<SearchResponse, HostError> {
        Ok(self.search_api().search(query, page))
    }

    fn fetch(&self, repository: &str, path: &str) -> Result<Option<String>, HostError> {
        Ok(GitHost::fetch(self, repository, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_host() -> GitHost {
        let host = GitHost::new();
        host.add_repository(Repository {
            full_name: "a/one".into(),
            license: Some("mit".into()),
            fork: false,
            files: vec![
                RepoFile::new("data/orders.csv", "order_id,total\n1,10\n"),
                RepoFile::new("readme.md", "hello orders"),
            ],
        });
        host.add_repository(Repository {
            full_name: "b/two".into(),
            license: None,
            fork: true,
            files: vec![RepoFile::new("x.csv", "id,v\n2,3\n")],
        });
        host
    }

    #[test]
    fn counts() {
        let h = sample_host();
        assert_eq!(h.repo_count(), 2);
        assert_eq!(h.file_count(), 3);
    }

    #[test]
    fn fetch_roundtrip() {
        let h = sample_host();
        let c = h.fetch("a/one", "data/orders.csv").unwrap();
        assert!(c.starts_with("order_id"));
        assert!(h.fetch("a/one", "missing.csv").is_none());
        assert!(h.fetch("nobody/none", "x.csv").is_none());
    }

    #[test]
    fn repository_lookup() {
        let h = sample_host();
        // `b/two` is found by name, and as a fork no search lists it.
        assert_eq!(h.fetch("b/two", "x.csv").as_deref(), Some("id,v\n2,3\n"));
        let hits = h.search_api().search(&Query::csv("id"), 1).items;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].repository, "a/one");
        assert!(h.fetch("zz/zz", "x.csv").is_none());
    }

    #[test]
    fn a_name_or_path_inserted_twice_resolves_to_the_first() {
        let h = sample_host();
        h.add_repository(Repository {
            full_name: "a/one".into(),
            license: None,
            fork: true,
            files: vec![RepoFile::new("data/orders.csv", "second,repo\n")],
        });
        h.add_repository(Repository {
            full_name: "c/dup".into(),
            license: None,
            fork: false,
            files: vec![
                RepoFile::new("x.csv", "first,file\n"),
                RepoFile::new("x.csv", "second,file\n"),
            ],
        });
        // The first `a/one` (licensed, with a readme) answers its name.
        assert_eq!(
            h.fetch("a/one", "readme.md").as_deref(),
            Some("hello orders")
        );
        let hits = h.search_api().search(&Query::csv("orders"), 1).items;
        assert_eq!(hits.len(), 1);
        assert_eq!(
            (hits[0].repository.as_str(), hits[0].license.as_deref()),
            ("a/one", Some("mit"))
        );
        assert!(h
            .fetch("a/one", "data/orders.csv")
            .unwrap()
            .starts_with("order_id"));
        assert_eq!(h.fetch("c/dup", "x.csv").unwrap(), "first,file\n");
        assert_eq!(h.repo_count(), 4);
    }

    #[test]
    fn repeated_tokens_index_a_file_once() {
        let host = sample_host();
        host.add_repository(Repository {
            full_name: "c/three".into(),
            license: None,
            fork: false,
            files: vec![
                RepoFile::new("orders/orders.csv", "orders,id\nid,orders\norders,1\n"),
                RepoFile::new("more.csv", "orders,orders\n"),
            ],
        });
        let inner = unpoisoned(host.inner.read());
        // Files 0 and 1 are a/one's, 2 is b/two's, 3 and 4 are c/three's.
        assert_eq!(inner.token_index["orders"], vec![0, 1, 3, 4]);
        assert_eq!(inner.token_index["id"], vec![0, 2, 3]);
        assert_eq!(inner.token_index["csv"], vec![0, 2, 3, 4]);
        for posting in inner.token_index.values() {
            assert!(posting.windows(2).all(|w| w[0] < w[1]), "{posting:?}");
        }
    }

    #[test]
    fn tokenizer_splits_identifiers() {
        let toks: Vec<String> = tokenize("order_id,total\n1").collect();
        assert!(toks.contains(&"order".to_string()));
        assert!(toks.contains(&"id".to_string()));
        assert!(toks.contains(&"total".to_string()));
        assert!(toks.contains(&"1".to_string()));
    }
}
