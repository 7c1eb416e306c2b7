//! The GitHub-like code-search API: query language, caps, pagination.

use crate::host::GitHost;
use crate::model::FileKind;
use crate::unpoisoned;

/// Maximum number of results a single query can return across all pages
/// (GitHub's documented cap; §3.2: "a second restriction limits the resulting
/// search responses to 1000 files").
pub const MAX_RESULTS_PER_QUERY: usize = 1000;

/// Results per page (GitHub returns ~100 per page).
pub const PAGE_SIZE: usize = 100;

/// Files larger than this are never returned (§3.2: 438 kB).
pub const MAX_FILE_SIZE: usize = 438 * 1024;

/// A parsed search query: `<term> extension:<ext> size:<a>..<b>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The search term (matched against content & path tokens, lowercase).
    pub term: String,
    /// Required file extension (lowercase), if any.
    pub extension: Option<String>,
    /// Inclusive size range in bytes, if any.
    pub size: Option<(usize, usize)>,
}

impl Query {
    /// Builds a term+extension query (the paper's "initial topic query").
    #[must_use]
    pub fn csv(term: &str) -> Self {
        Query {
            term: term.to_lowercase(),
            extension: Some("csv".to_string()),
            size: None,
        }
    }

    /// Builds a term+`extension:sql` query (the SQL-dump ingest source).
    #[must_use]
    pub fn sql(term: &str) -> Self {
        Query::for_kind(term, FileKind::Sql)
    }

    /// Builds the topic query for one ingestable [`FileKind`].
    #[must_use]
    pub fn for_kind(term: &str, kind: FileKind) -> Self {
        Query {
            term: term.to_lowercase(),
            extension: Some(kind.extension().to_string()),
            size: None,
        }
    }

    /// Restricts to a size range (the paper's segmentation qualifier).
    #[must_use]
    pub fn with_size(mut self, lo: usize, hi: usize) -> Self {
        self.size = Some((lo, hi));
        self
    }

    /// Parses the textual form, e.g. `id extension:csv size:50..100` or
    /// `"order id" extension:csv`. Returns `None` for an empty term.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let mut term = String::new();
        let mut extension = None;
        let mut size = None;
        let mut rest = s.trim();
        // Accept the canonical display form `q="term" ...`.
        if let Some(r) = rest.strip_prefix("q=") {
            rest = r;
        }
        // Quoted term.
        if let Some(stripped) = rest.strip_prefix('"') {
            if let Some(end) = stripped.find('"') {
                term = stripped[..end].to_string();
                rest = &stripped[end + 1..];
            }
        }
        for part in rest.split_whitespace() {
            if let Some(e) = part.strip_prefix("extension:") {
                extension = Some(e.to_lowercase());
            } else if let Some(r) = part.strip_prefix("size:") {
                let (lo, hi) = r.split_once("..")?;
                size = Some((lo.parse().ok()?, hi.parse().ok()?));
            } else if term.is_empty() {
                term = part.to_string();
            } else if !part.starts_with('q') || !term.is_empty() {
                // Multi-word unquoted term: append.
                term.push(' ');
                term.push_str(part);
            }
        }
        if term.is_empty() {
            return None;
        }
        Some(Query {
            term: term.to_lowercase(),
            extension,
            size,
        })
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q=\"{}\"", self.term)?;
        if let Some(e) = &self.extension {
            write!(f, " extension:{e}")?;
        }
        if let Some((lo, hi)) = self.size {
            write!(f, " size:{lo}..{hi}")?;
        }
        Ok(())
    }
}

/// One search hit: a URL-like locator for a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Repository `owner/name`.
    pub repository: String,
    /// File path within the repository.
    pub path: String,
    /// File size in bytes.
    pub size: usize,
    /// Repository license.
    pub license: Option<String>,
}

/// A page of search results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResponse {
    /// Total number of matching files on the host — *not* capped; this is
    /// what the paper calls the "initial response size" used to plan
    /// segmentation.
    pub total_count: usize,
    /// Results on this page (at most `PAGE_SIZE`, 100; the stream of pages is
    /// truncated at [`MAX_RESULTS_PER_QUERY`] results).
    pub items: Vec<SearchResult>,
    /// Whether another page is available.
    pub has_next_page: bool,
}

/// A search view over a [`GitHost`].
pub struct SearchApi<'a> {
    host: &'a GitHost,
}

impl<'a> SearchApi<'a> {
    pub(crate) fn new(host: &'a GitHost) -> Self {
        SearchApi { host }
    }

    /// All matching internal file ids (uncapped), in stable id order.
    fn matching_ids(&self, query: &Query) -> Vec<u32> {
        let inner = unpoisoned(self.host.inner.read());
        // Multi-word terms: intersect posting lists.
        let mut lists: Vec<&Vec<u32>> = Vec::new();
        for word in query.term.split_whitespace() {
            match inner.token_index.get(word) {
                Some(l) => lists.push(l),
                None => return Vec::new(),
            }
        }
        if lists.is_empty() {
            return Vec::new();
        }
        lists.sort_by_key(|l| l.len());
        let mut result: Vec<u32> = lists[0].clone();
        for l in &lists[1..] {
            result.retain(|id| l.binary_search(id).is_ok());
        }
        result.retain(|&id| {
            let meta = &inner.files[id as usize];
            if meta.fork || meta.size > MAX_FILE_SIZE {
                return false;
            }
            if let Some(ext) = &query.extension {
                if meta.extension.as_deref() != Some(ext.as_str()) {
                    return false;
                }
            }
            if let Some((lo, hi)) = query.size {
                if meta.size < lo || meta.size > hi {
                    return false;
                }
            }
            true
        });
        result
    }

    /// Executes `query` and returns page `page` (1-based, like GitHub).
    #[must_use]
    pub fn search(&self, query: &Query, page: usize) -> SearchResponse {
        let ids = self.matching_ids(query);
        let total_count = ids.len();
        let capped = ids.len().min(MAX_RESULTS_PER_QUERY);
        let page = page.max(1);
        let start = (page - 1) * PAGE_SIZE;
        let end = (start + PAGE_SIZE).min(capped);
        let inner = unpoisoned(self.host.inner.read());
        let items = if start >= capped {
            Vec::new()
        } else {
            ids[start..end]
                .iter()
                .map(|&id| {
                    let (repo, file) = GitHost::locate(&inner, id);
                    SearchResult {
                        repository: repo.full_name.clone(),
                        path: file.path.clone(),
                        size: file.size(),
                        license: repo.license.clone(),
                    }
                })
                .collect()
        };
        SearchResponse {
            total_count,
            items,
            has_next_page: end < capped,
        }
    }

    /// Convenience: the initial response size only (used to plan query
    /// segmentation without paying for result assembly).
    #[must_use]
    pub fn count(&self, query: &Query) -> usize {
        self.matching_ids(query).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RepoFile, Repository};

    /// Traverses all pages of `query`, collecting up to the 1 000-result cap.
    fn search_all_pages(api: &SearchApi, query: &Query) -> Vec<SearchResult> {
        let mut out = Vec::new();
        let mut page = 1;
        loop {
            let resp = api.search(query, page);
            let done = !resp.has_next_page;
            out.extend(resp.items);
            if done {
                break;
            }
            page += 1;
        }
        out
    }

    fn host_with_files(n: usize) -> GitHost {
        let host = GitHost::new();
        for i in 0..n {
            host.add_repository(Repository {
                full_name: format!("u{i}/r{i}"),
                license: Some("mit".into()),
                fork: false,
                files: vec![RepoFile::new(
                    format!("f{i}.csv"),
                    // Pad to varying sizes for the size-qualifier tests.
                    format!("id,name\n{i},{}\n", "x".repeat(i % 50)),
                )],
            });
        }
        host
    }

    #[test]
    fn parse_forms() {
        let q = Query::parse("id extension:csv size:50..100").unwrap();
        assert_eq!(q.term, "id");
        assert_eq!(q.extension.as_deref(), Some("csv"));
        assert_eq!(q.size, Some((50, 100)));

        let q = Query::parse("\"order id\" extension:csv").unwrap();
        assert_eq!(q.term, "order id");

        assert!(Query::parse("extension:csv").is_none());
        assert!(Query::parse("").is_none());
    }

    #[test]
    fn display_roundtrip() {
        let q = Query::csv("object").with_size(10, 20);
        let s = q.to_string();
        assert!(s.contains("object") && s.contains("size:10..20"));
    }

    #[test]
    fn term_matching_and_extension_filter() {
        let host = host_with_files(5);
        host.add_repository(Repository {
            full_name: "x/docs".into(),
            license: None,
            fork: false,
            files: vec![RepoFile::new("notes.txt", "id id id")],
        });
        let api = host.search_api();
        let with_ext = api.count(&Query::csv("id"));
        let without_ext = api.count(&Query {
            extension: None,
            ..Query::csv("id")
        });
        assert_eq!(with_ext, 5);
        assert_eq!(without_ext, 6);
    }

    #[test]
    fn sql_files_surfaced_by_kind_query() {
        let host = host_with_files(3);
        host.add_repository(Repository {
            full_name: "d/dumps".into(),
            license: Some("mit".into()),
            fork: false,
            files: vec![RepoFile::new(
                "db/orders.sql",
                "CREATE TABLE orders (id int);\nINSERT INTO orders VALUES (1);\n",
            )],
        });
        let api = host.search_api();
        let hits = search_all_pages(&api, &Query::sql("orders"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].path, "db/orders.sql");
        // The CSV query does not see the dump, and vice versa.
        assert_eq!(api.count(&Query::csv("orders")), 0);
        assert_eq!(api.count(&Query::for_kind("id", FileKind::Csv)), 3);
    }

    #[test]
    fn forks_excluded() {
        let host = host_with_files(2);
        host.add_repository(Repository {
            full_name: "f/fork".into(),
            license: None,
            fork: true,
            files: vec![RepoFile::new("z.csv", "id\n1\n")],
        });
        assert_eq!(host.search_api().count(&Query::csv("id")), 2);
    }

    #[test]
    fn oversized_files_excluded() {
        let host = GitHost::new();
        host.add_repository(Repository {
            full_name: "big/one".into(),
            license: None,
            fork: false,
            files: vec![RepoFile::new(
                "big.csv",
                format!("id\n{}", "x".repeat(MAX_FILE_SIZE)),
            )],
        });
        assert_eq!(host.search_api().count(&Query::csv("id")), 0);
    }

    #[test]
    fn size_qualifier_filters() {
        let host = host_with_files(50);
        let api = host.search_api();
        let all = api.count(&Query::csv("id"));
        let small = api.count(&Query::csv("id").with_size(0, 20));
        let rest = api.count(&Query::csv("id").with_size(21, 10_000));
        assert_eq!(all, 50);
        assert_eq!(small + rest, all);
        assert!(small > 0 && rest > 0);
    }

    #[test]
    fn pagination_and_cap() {
        let host = host_with_files(1200);
        let api = host.search_api();
        let q = Query::csv("id");
        let first = api.search(&q, 1);
        assert_eq!(first.total_count, 1200);
        assert_eq!(first.items.len(), PAGE_SIZE);
        assert!(first.has_next_page);
        let all = search_all_pages(&api, &q);
        assert_eq!(all.len(), MAX_RESULTS_PER_QUERY); // capped
                                                      // Page past the cap is empty.
        let past = api.search(&q, 11);
        assert!(past.items.is_empty());
        assert!(!past.has_next_page);
    }

    #[test]
    fn segmentation_recovers_beyond_cap() {
        // The paper's key trick: size-segmented queries together retrieve
        // more than the 1000-result cap of the unsegmented query.
        let host = host_with_files(1200);
        let api = host.search_api();
        let mut seen = std::collections::HashSet::new();
        for lo in (0..80).step_by(10) {
            let q = Query::csv("id").with_size(lo, lo + 9);
            for r in search_all_pages(&api, &q) {
                seen.insert((r.repository, r.path));
            }
        }
        assert_eq!(seen.len(), 1200);
    }

    #[test]
    fn multiword_term_requires_all_tokens() {
        let host = GitHost::new();
        host.add_repository(Repository {
            full_name: "m/w".into(),
            license: None,
            fork: false,
            files: vec![
                RepoFile::new("a.csv", "order id,name\n1,x\n"),
                RepoFile::new("b.csv", "order,name\n1,x\n"),
            ],
        });
        let api = host.search_api();
        assert_eq!(api.count(&Query::csv("order id")), 1);
        assert_eq!(api.count(&Query::csv("order")), 2);
    }

    #[test]
    fn unknown_term_empty() {
        let host = host_with_files(3);
        assert_eq!(host.search_api().count(&Query::csv("zzzz")), 0);
    }
}
