//! Repository and file models stored by the host.

/// The ingestable file kinds the pipeline distinguishes. Extraction
/// queries by extension, and the parse stage dispatches on the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Delimiter-separated text, parsed by `gittables_tablecsv`.
    Csv,
    /// A SQL dump, parsed by `gittables_tablesql`.
    Sql,
}

impl FileKind {
    /// Every kind, in extraction-query order.
    pub const ALL: [FileKind; 2] = [FileKind::Csv, FileKind::Sql];

    /// Classifies a path by extension. Only `.sql` selects the SQL
    /// parser; everything else — including unknown extensions — falls
    /// back to CSV, whose reader *sniffs* the dialect instead of assuming
    /// one, so unrecognized files degrade to a sniff rather than a
    /// misparse.
    #[must_use]
    pub fn from_path(path: &str) -> FileKind {
        match path.rsplit_once('.') {
            Some((_, ext)) if ext.eq_ignore_ascii_case("sql") => FileKind::Sql,
            _ => FileKind::Csv,
        }
    }

    /// The lowercase extension used in `extension:` search qualifiers.
    #[must_use]
    pub fn extension(self) -> &'static str {
        match self {
            FileKind::Csv => "csv",
            FileKind::Sql => "sql",
        }
    }
}

/// A file inside a repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoFile {
    /// Path within the repository, e.g. `data/orders.csv`.
    pub path: String,
    /// Raw file contents.
    pub content: String,
}

impl RepoFile {
    /// Creates a file.
    #[must_use]
    pub fn new(path: impl Into<String>, content: impl Into<String>) -> Self {
        RepoFile {
            path: path.into(),
            content: content.into(),
        }
    }

    /// File size in bytes (what the `size:` qualifier filters on).
    #[must_use]
    pub fn size(&self) -> usize {
        self.content.len()
    }

    /// Lowercased file extension, if any.
    #[must_use]
    pub fn extension(&self) -> Option<String> {
        self.path.rsplit_once('.').map(|(_, e)| e.to_lowercase())
    }

    /// The parse kind this file dispatches to.
    #[must_use]
    pub fn kind(&self) -> FileKind {
        FileKind::from_path(&self.path)
    }
}

/// A hosted repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repository {
    /// `owner/name` identifier.
    pub full_name: String,
    /// License identifier, `None` for unlicensed repositories.
    pub license: Option<String>,
    /// Whether the repository is a fork (excluded from search).
    pub fork: bool,
    /// Files in the repository.
    pub files: Vec<RepoFile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_metadata() {
        let f = RepoFile::new("a/b/data.CSV", "x,y\n1,2\n");
        assert_eq!(f.size(), 8);
        assert_eq!(f.extension().as_deref(), Some("csv"));
        assert_eq!(RepoFile::new("README", "hi").extension(), None);
    }

    #[test]
    fn file_kinds() {
        assert_eq!(FileKind::from_path("db/dump.sql"), FileKind::Sql);
        assert_eq!(FileKind::from_path("db/DUMP.SQL"), FileKind::Sql);
        assert_eq!(FileKind::from_path("data.csv"), FileKind::Csv);
        // Unknown extensions fall back to CSV sniffing downstream.
        assert_eq!(FileKind::from_path("notes.txt"), FileKind::Csv);
        assert_eq!(FileKind::from_path("README"), FileKind::Csv);
        assert_eq!(RepoFile::new("x.sql", "").kind(), FileKind::Sql);
        assert_eq!(FileKind::Sql.extension(), "sql");
    }
}
