//! Sharded on-disk corpus store: `manifest.json` plus N shard files.
//!
//! The single-file JSON persistence of [`crate::persist`] serializes the whole
//! corpus in memory, so save/load cost and peak memory grow linearly with
//! corpus size and a crashed build loses everything. The store spreads a
//! corpus over a directory instead:
//!
//! ```text
//! store/
//!   manifest.json          # StoreManifest: name, shard format, shard index
//!   <shard-id>.colv1       # binary columnar segment (crate::colv1)
//!   ...
//! ```
//!
//! Shard bytes are produced and consumed through the crate's shard codec,
//! resolved once from the manifest's required `format` field. Every store
//! [`CorpusStore::create`] and [`save_store`] make is `colv1`, the
//! mmap-decoded binary columnar format built for fast, low-RSS cold
//! starts; [`save_store_as`] and [`CorpusStore::create_with_format`] can
//! still write `jsonl` text shards, which only the benchmark's
//! `corpus.load_jsonl_s` comparison row does. A store is carried into
//! another format through the single-file corpus JSON
//! (`gittables load`, then `gittables save`). The manifest also records
//! the store format version ([`FORMAT_VERSION`]); a store of any other
//! version is refused when it is opened
//! ([`StoreError::UnsupportedVersion`]), never read under rules it was
//! not written by.
//!
//! Key properties:
//!
//! * **Streaming writes, bounded memory** — [`ShardWriter`] appends one table
//!   at a time; nothing but the current table is held in memory while a shard
//!   is produced.
//! * **Crash safety at shard granularity** — a shard becomes visible only when
//!   its [`ShardEntry`] is committed to the manifest (written via a temp file
//!   + atomic rename). An interrupted build keeps every committed shard.
//! * **Parallel loads** — [`CorpusStore::load_corpus`] reads shards with a
//!   thread fan-out, so peak memory per worker is one shard, not the whole
//!   corpus.
//! * **Integrity checks** — every shard entry records its table count and a
//!   content fingerprint (an order-sensitive fold of
//!   [`crate::dedup::table_fingerprint`] via
//!   [`crate::dedup::combine_fingerprints`]); both are verified on load —
//!   identically for every codec — and mismatches surface as typed
//!   [`StoreError`]s, never panics. A `colv1` block is also checked
//!   against its own seal before it is decoded ([`crate::colv1`]), so
//!   the bytes the fingerprint does not cover are checked too.
//! * **Stable ordering** — each table carries the *ordering key* its producer
//!   gave it (`ShardEntry::indices`), so a corpus reassembled from shards is
//!   identical to the corpus that was written, regardless of shard layout,
//!   format, or load scheduling.
//!
//! ## The id rule
//!
//! A table's [`TableId`] is its position in [`CorpusStore::load_corpus`]
//! order: the rank of its ordering key among every committed table's, ties
//! broken by (manifest commit order, slot inside the shard). Keys need be
//! neither dense nor distinct — the pipeline spaces them one stride per
//! source file, and shards committed by different extractions may repeat
//! them — and the rank of a dense key is the key itself.
//! [`CorpusStore::table_ids`] is the only place the rule is computed; loads,
//! exports, the sidecar directory and sharded serving all consume it, so a
//! store written by any producer is indexed and served as it stands.
//!
//! The pipeline's resume mode (`gittables_core`) shards by repository and
//! stashes its per-shard stage report in [`ShardEntry::meta`]; the store
//! itself treats `meta` as an opaque string.

use std::collections::HashMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use crate::codec::{codec_for, ShardCodec, ShardEncoder, StoreFormat};
use crate::colv1::Arena;
use crate::corpus::{AnnotatedTable, Corpus, TableId};
use crate::dedup::{combine_fingerprints, table_fingerprint};
use crate::par::par_map;
use crate::persist::PersistError;

/// Name of the manifest file inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Store format version written into new manifests, and the only one
/// [`CorpusStore::open`] reads. Version 2 sealed every `colv1` table
/// block and moved table fingerprints to the lane checksum.
pub const FORMAT_VERSION: u32 = 2;

/// The last commit of this project whose build reads version-1 stores.
const LAST_VERSION_1_READER: &str = "e69bca6";

/// Errors from the sharded store. Every failure mode is typed; corrupted
/// inputs never panic.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// (De)serialization failure (also covers truncated shard lines).
    Json(serde_json::Error),
    /// The directory has no `manifest.json` — not a store (or never
    /// committed).
    MissingManifest(PathBuf),
    /// `manifest.json` already exists where a fresh store was requested.
    AlreadyExists(PathBuf),
    /// A shard listed in the manifest has no file on disk.
    MissingShard {
        /// Shard id.
        id: String,
    },
    /// A shard id was written twice.
    DuplicateShard {
        /// Shard id.
        id: String,
    },
    /// A shard file holds a different number of tables than its manifest
    /// entry records (e.g. a truncated or appended-to file).
    TableCountMismatch {
        /// Shard id.
        id: String,
        /// Count recorded in the manifest.
        expected: usize,
        /// Count found in the shard file.
        actual: usize,
    },
    /// A shard's content fingerprint does not match its manifest entry.
    FingerprintMismatch {
        /// Shard id.
        id: String,
        /// Fingerprint recorded in the manifest.
        expected: u64,
        /// Fingerprint of the tables actually read.
        actual: u64,
    },
    /// A resume run found a shard without the metadata it needs to
    /// reconstruct the merged report.
    MissingShardMeta {
        /// Shard id.
        id: String,
    },
    /// The store was created for a different corpus than the caller is
    /// producing (e.g. resuming with a different seed) — mixing them would
    /// silently interleave two corpora.
    CorpusNameMismatch {
        /// Name recorded in the store manifest.
        store: String,
        /// Name the caller expected.
        expected: String,
    },
    /// A shard file's bytes violate its format's structure: truncation,
    /// bad magic, out-of-range offsets, invalid UTF-8, or a file whose
    /// content is not the format the manifest records.
    Corrupt {
        /// Shard file name (store-relative).
        file: String,
        /// What was structurally wrong.
        detail: String,
    },
    /// The manifest records a shard format this build does not know.
    UnsupportedFormat {
        /// The unrecognized `format` value.
        format: String,
    },
    /// The manifest records a store format version other than the one
    /// this build writes (2). There is no reader for another version: a
    /// store is rebuilt from its seed, or carried over through the
    /// single-file corpus JSON of a build that reads it.
    UnsupportedVersion {
        /// The `version` the manifest records.
        found: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Json(e) => write!(f, "json error: {e}"),
            StoreError::MissingManifest(p) => {
                write!(f, "no {MANIFEST_FILE} under {}", p.display())
            }
            StoreError::AlreadyExists(p) => {
                write!(f, "store already exists at {}", p.display())
            }
            StoreError::MissingShard { id } => write!(f, "shard `{id}` file is missing"),
            StoreError::DuplicateShard { id } => write!(f, "shard `{id}` already exists"),
            StoreError::TableCountMismatch {
                id,
                expected,
                actual,
            } => write!(
                f,
                "shard `{id}` holds {actual} tables but the manifest records {expected}"
            ),
            StoreError::FingerprintMismatch {
                id,
                expected,
                actual,
            } => write!(
                f,
                "shard `{id}` fingerprint {actual:#018x} != manifest {expected:#018x}"
            ),
            StoreError::MissingShardMeta { id } => {
                write!(
                    f,
                    "shard `{id}` has no report metadata (store not built by resume)"
                )
            }
            StoreError::CorpusNameMismatch { store, expected } => write!(
                f,
                "store holds corpus `{store}` but the caller is producing `{expected}`"
            ),
            StoreError::Corrupt { file, detail } => {
                write!(f, "shard file `{file}` is corrupt: {detail}")
            }
            StoreError::UnsupportedFormat { format } => {
                write!(f, "unsupported store format `{format}`")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "store format version {found} is not read by this build, which reads \
                     version {FORMAT_VERSION}"
                )?;
                if *found == 1 {
                    write!(
                        f,
                        "; commit {LAST_VERSION_1_READER} is the last that reads version 1: \
                         `gittables load --store DIR --out corpus.json` there, then \
                         `gittables save --corpus corpus.json` here, or rebuild the store \
                         from its seed"
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> Self {
        StoreError::Json(e)
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(e) => StoreError::Io(e),
            PersistError::Json(e) => StoreError::Json(e),
        }
    }
}

/// One shard's index record inside the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Stable shard identifier (also the file stem).
    pub id: String,
    /// Shard file name, relative to the store directory.
    pub file: String,
    /// Number of tables in the shard.
    pub tables: usize,
    /// Order-sensitive fold of the per-table content fingerprints.
    pub fingerprint: u64,
    /// Ordering key of each table, aligned with the shard's blocks — *not*
    /// its [`TableId`]: keys may be sparse and may repeat across shards.
    /// Only [`CorpusStore::table_ids`] turns them into ids (see the module
    /// docs, "The id rule").
    pub indices: Vec<usize>,
    /// Opaque producer metadata (the pipeline stores its per-shard stage
    /// report here); `None` for stores built by [`save_store`].
    pub meta: Option<String>,
}

/// One contiguous stable-id range — the unit a scale-out server assigns
/// to one shard-local query engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardGroup {
    /// The half-open global table-id range `[start, end)` the group owns.
    pub range: std::ops::Range<usize>,
}

/// The stable-id → shard-group directory: which group owns which global
/// table id. Ranges are contiguous, ascending, and cover `0..len`, so
/// ownership is a binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDirectory {
    groups: Vec<ShardGroup>,
}

impl GroupDirectory {
    /// Builds a directory straight from id ranges. Ranges must be
    /// contiguous, ascending, and start at 0.
    ///
    /// # Panics
    /// When the ranges leave a gap or overlap.
    #[must_use]
    pub fn from_ranges(ranges: impl IntoIterator<Item = std::ops::Range<usize>>) -> Self {
        let mut next = 0usize;
        let groups = ranges
            .into_iter()
            .map(|range| {
                assert_eq!(range.start, next, "ranges contiguous from 0");
                assert!(range.end >= range.start, "range well-formed");
                next = range.end;
                ShardGroup { range }
            })
            .collect();
        GroupDirectory { groups }
    }

    /// Splits `0..total` into `n` near-even contiguous ranges (clamped
    /// to at most one group per table, at least one group, so an empty
    /// corpus is one empty group).
    #[must_use]
    pub fn split_even(total: usize, n: usize) -> Self {
        let n = n.clamp(1, total.max(1));
        let mut start = 0usize;
        Self::from_ranges((0..n).map(|g| {
            let end = (total * (g + 1)).div_ceil(n);
            let r = start..end;
            start = end;
            r
        }))
    }

    /// The groups, in ascending id order.
    #[must_use]
    pub fn groups(&self) -> &[ShardGroup] {
        &self.groups
    }

    /// Number of groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the directory holds no groups.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Index of the group owning global table id `id`, or `None` when
    /// the id is beyond every group's range.
    #[must_use]
    pub fn owner_of(&self, id: usize) -> Option<usize> {
        let g = self.groups.partition_point(|g| g.range.end <= id);
        (g < self.groups.len() && self.groups[g].range.contains(&id)).then_some(g)
    }
}

/// The manifest: corpus identity plus the shard index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Store format version.
    pub version: u32,
    /// Corpus name / version tag.
    pub name: String,
    /// Shard format name (see [`StoreFormat`]). A manifest without it
    /// does not parse.
    pub format: String,
    /// Committed shards, in commit order.
    pub shards: Vec<ShardEntry>,
}

impl StoreManifest {
    /// The resolved shard format.
    ///
    /// # Errors
    /// [`StoreError::UnsupportedFormat`] when the recorded name is
    /// unknown to this build.
    pub fn store_format(&self) -> Result<StoreFormat, StoreError> {
        StoreFormat::parse(&self.format).ok_or_else(|| StoreError::UnsupportedFormat {
            format: self.format.clone(),
        })
    }
}

/// A streaming writer for one shard: tables are appended as they are
/// produced, so producing a shard needs memory for one table at a time.
/// Encoding is delegated to the store's shard codec; fingerprints and
/// ordering keys are tracked here, identically for every format.
///
/// Created by [`CorpusStore::begin_shard`]; call [`ShardWriter::finish`] and
/// commit the returned entry with [`CorpusStore::commit_shard`] to make the
/// shard visible.
pub struct ShardWriter {
    encoder: Box<dyn ShardEncoder>,
    id: String,
    file: String,
    fingerprints: Vec<u64>,
    indices: Vec<usize>,
}

impl std::fmt::Debug for ShardWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWriter")
            .field("id", &self.id)
            .field("file", &self.file)
            .field("tables", &self.indices.len())
            .finish_non_exhaustive()
    }
}

impl ShardWriter {
    /// Appends one table with ordering key `index` (see
    /// [`ShardEntry::indices`]).
    ///
    /// # Errors
    /// Propagates I/O and encoding failures.
    pub fn push(&mut self, index: usize, table: &AnnotatedTable) -> Result<(), StoreError> {
        self.encoder.push(table)?;
        self.fingerprints.push(table_fingerprint(&table.table));
        self.indices.push(index);
        Ok(())
    }

    /// Number of tables appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether no table has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Flushes and fsyncs the shard file and returns its manifest entry
    /// (not yet committed).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn finish(self) -> Result<ShardEntry, StoreError> {
        // The durability promise of `commit_shard` requires the shard's
        // bytes to hit disk before its manifest entry does; `finish`
        // fsyncs in every codec.
        self.encoder.finish()?;
        Ok(ShardEntry {
            fingerprint: combine_fingerprints(self.fingerprints.iter().copied()),
            tables: self.indices.len(),
            id: self.id,
            file: self.file,
            indices: self.indices,
            meta: None,
        })
    }
}

/// Handle to a store directory. Cheap to share across threads: shard writes
/// go to independent files and manifest commits serialize on an internal
/// lock.
#[derive(Debug)]
pub struct CorpusStore {
    dir: PathBuf,
    manifest: Mutex<Committed>,
    format: StoreFormat,
}

/// The manifest with an index of its shard ids beside it, under one
/// lock: "is this shard committed?" is asked once per repository by a
/// resume and once per commit, and a resume reads back every skipped
/// shard's entry; a scan of `manifest.shards` for each made those
/// quadratic in the number of repositories.
#[derive(Debug)]
struct Committed {
    manifest: StoreManifest,
    /// `manifest.shards[i].id → i`, exactly: filled when the manifest is
    /// read or created, extended by every commit.
    ids: HashMap<String, usize>,
}

impl Committed {
    fn new(manifest: StoreManifest) -> Self {
        let ids = manifest
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id.clone(), i))
            .collect();
        Committed { manifest, ids }
    }
}

impl CorpusStore {
    /// Creates a fresh `colv1` store at `dir` (creating the directory if
    /// needed).
    ///
    /// # Errors
    /// [`StoreError::AlreadyExists`] if `dir` already holds a manifest;
    /// otherwise propagates I/O failures.
    pub fn create(dir: impl Into<PathBuf>, name: impl Into<String>) -> Result<Self, StoreError> {
        Self::create_with_format(dir, name, StoreFormat::ColV1)
    }

    /// Creates a fresh store at `dir` whose shards use `format`.
    ///
    /// # Errors
    /// [`StoreError::AlreadyExists`] if `dir` already holds a manifest;
    /// otherwise propagates I/O failures.
    pub fn create_with_format(
        dir: impl Into<PathBuf>,
        name: impl Into<String>,
        format: StoreFormat,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(StoreError::AlreadyExists(dir));
        }
        let store = CorpusStore {
            dir,
            manifest: Mutex::new(Committed::new(StoreManifest {
                version: FORMAT_VERSION,
                name: name.into(),
                format: format.name().to_string(),
                shards: Vec::new(),
            })),
            format,
        };
        store.persist_manifest(&store.committed().manifest)?;
        Ok(store)
    }

    /// Opens an existing store in the shard format its manifest records.
    ///
    /// # Errors
    /// [`StoreError::MissingManifest`] when `dir` has no manifest,
    /// [`StoreError::UnsupportedVersion`] when it records a version other
    /// than the one this build writes, [`StoreError::UnsupportedFormat`]
    /// for an unknown format name; otherwise propagates I/O and
    /// deserialization failures.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_FILE);
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::MissingManifest(dir));
            }
            Err(e) => return Err(e.into()),
        };
        let manifest: StoreManifest = serde_json::from_reader(BufReader::new(file))?;
        if manifest.version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: manifest.version,
            });
        }
        let format = manifest.store_format()?;
        Ok(CorpusStore {
            dir,
            manifest: Mutex::new(Committed::new(manifest)),
            format,
        })
    }

    /// The shard format this store reads and writes.
    #[must_use]
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// The codec implementing [`Self::format`].
    pub(crate) fn codec(&self) -> &'static dyn ShardCodec {
        codec_for(self.format)
    }

    /// The store directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The manifest lock. This crate's poison policy, stated once: a
    /// panic under the lock must not turn every later commit or read
    /// into a panic, so a poisoned lock is entered all the same — every
    /// update under it leaves a well-formed manifest in memory, and the
    /// one on disk is replaced atomically whatever happened here.
    fn committed(&self) -> MutexGuard<'_, Committed> {
        self.manifest.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The corpus name recorded in the manifest.
    #[must_use]
    pub fn name(&self) -> String {
        self.committed().manifest.name.clone()
    }

    /// Number of committed shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.committed().manifest.shards.len()
    }

    /// Total number of tables across committed shards.
    #[must_use]
    pub fn len(&self) -> usize {
        let committed = self.committed();
        committed.manifest.shards.iter().map(|s| s.tables).sum()
    }

    /// Whether the store holds no tables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a shard with `id` has been committed.
    #[must_use]
    pub fn has_shard(&self, id: &str) -> bool {
        self.committed().ids.contains_key(id)
    }

    /// The committed entry for `id`, if any.
    #[must_use]
    pub fn shard_entry(&self, id: &str) -> Option<ShardEntry> {
        let committed = self.committed();
        let &i = committed.ids.get(id)?;
        Some(committed.manifest.shards[i].clone())
    }

    /// Snapshot of all committed entries, in commit order.
    #[must_use]
    pub fn shard_entries(&self) -> Vec<ShardEntry> {
        self.committed().manifest.shards.clone()
    }

    /// Starts a new shard. The shard stays invisible until its entry is
    /// passed to [`Self::commit_shard`].
    ///
    /// # Errors
    /// [`StoreError::DuplicateShard`] when `id` is already committed;
    /// otherwise propagates I/O failures.
    pub fn begin_shard(&self, id: &str) -> Result<ShardWriter, StoreError> {
        if self.has_shard(id) {
            return Err(StoreError::DuplicateShard { id: id.to_string() });
        }
        let codec = self.codec();
        let file = codec.file_name(id);
        Ok(ShardWriter {
            encoder: codec.begin(&self.dir.join(&file))?,
            id: id.to_string(),
            file,
            fingerprints: Vec::new(),
            indices: Vec::new(),
        })
    }

    /// Commits a finished shard: appends its entry and atomically rewrites
    /// the manifest. After this returns, the shard survives crashes.
    ///
    /// # Errors
    /// [`StoreError::DuplicateShard`] on id collision; otherwise propagates
    /// I/O and serialization failures.
    pub fn commit_shard(&self, entry: ShardEntry) -> Result<(), StoreError> {
        let mut committed = self.committed();
        if committed.ids.contains_key(&entry.id) {
            return Err(StoreError::DuplicateShard { id: entry.id });
        }
        let i = committed.manifest.shards.len();
        committed.ids.insert(entry.id.clone(), i);
        committed.manifest.shards.push(entry);
        self.persist_manifest(&committed.manifest)
    }

    /// Replaces the manifest through [`crate::persist::write_durably`]
    /// (temp file `manifest.json.tmp`, its failpoint sites included).
    /// Callers hold the manifest lock, so the single temp name cannot
    /// race.
    fn persist_manifest(&self, manifest: &StoreManifest) -> Result<(), StoreError> {
        let text = serde_json::to_string(manifest)?;
        crate::persist::write_durably(&self.dir, MANIFEST_FILE, text.as_bytes())
            .map_err(StoreError::Io)
    }

    /// The id rule (module docs): every committed shard, in commit order,
    /// paired with the dense [`TableId`] of each of its tables, in slot
    /// order. The ids are a permutation of `0..total`, taken from one
    /// snapshot of the manifest.
    #[must_use]
    pub fn table_ids(&self) -> Vec<(ShardEntry, Vec<TableId>)> {
        let shards = self.shard_entries();
        let mut order: Vec<(usize, usize, usize)> = shards
            .iter()
            .enumerate()
            .flat_map(|(shard, e)| {
                (e.indices.iter().enumerate()).map(move |(slot, &key)| (key, shard, slot))
            })
            .collect();
        order.sort_unstable();
        let mut ids: Vec<Vec<TableId>> = shards.iter().map(|e| vec![0; e.indices.len()]).collect();
        for (id, (_, shard, slot)) in order.into_iter().enumerate() {
            ids[shard][slot] = id;
        }
        shards.into_iter().zip(ids).collect()
    }

    /// Where a committed shard's bytes are: its file, mapped where
    /// supported ([`Arena`]).
    ///
    /// # Errors
    /// [`StoreError::MissingShard`] when the file is gone; otherwise
    /// propagates I/O failures.
    pub(crate) fn map_shard(&self, entry: &ShardEntry) -> Result<Arena, StoreError> {
        Arena::load(&self.dir.join(&entry.file)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::MissingShard {
                    id: entry.id.clone(),
                }
            } else {
                StoreError::Io(e)
            }
        })
    }

    /// Loads one shard through the store's codec, verifying its table
    /// count and content fingerprint. Returns the tables in shard order.
    ///
    /// # Errors
    /// [`StoreError::MissingShard`] when the file is gone,
    /// [`StoreError::Json`]/[`StoreError::Corrupt`] on truncated or
    /// corrupt content (per format), and
    /// [`StoreError::TableCountMismatch`]/[`StoreError::FingerprintMismatch`]
    /// when the content disagrees with the manifest.
    pub fn load_shard(&self, entry: &ShardEntry) -> Result<Vec<AnnotatedTable>, StoreError> {
        let arena = self.map_shard(entry)?;
        let (decoded, fingerprints) = decode_shard(self.codec(), arena.bytes(), &entry.file)?;
        if decoded.len() != entry.tables || entry.indices.len() != entry.tables {
            return Err(StoreError::TableCountMismatch {
                id: entry.id.clone(),
                expected: entry.tables,
                actual: decoded.len(),
            });
        }
        let actual = combine_fingerprints(fingerprints);
        if actual != entry.fingerprint {
            return Err(StoreError::FingerprintMismatch {
                id: entry.id.clone(),
                expected: entry.fingerprint,
                actual,
            });
        }
        Ok(decoded)
    }

    /// Loads the whole corpus with a thread fan-out over shards, verifying
    /// every shard, and places each table at its [`TableId`]
    /// ([`Self::table_ids`]).
    ///
    /// # Errors
    /// Propagates the first shard failure (see [`Self::load_shard`]).
    pub fn load_corpus(&self) -> Result<Corpus, StoreError> {
        let shards = self.table_ids();
        let loaded = par_map(&shards, |(entry, _)| self.load_shard(entry));
        let mut tables: Vec<(TableId, AnnotatedTable)> = Vec::new();
        for ((_, ids), shard) in shards.iter().zip(loaded) {
            tables.extend(ids.iter().copied().zip(shard?));
        }
        tables.sort_unstable_by_key(|(id, _)| *id);
        let mut corpus = Corpus::new(self.name());
        for (_, at) in tables {
            corpus.push(at);
        }
        Ok(corpus)
    }
}

/// The one whole-shard read: walks `codec`'s block spans over `bytes`,
/// decoding each block — which must consume its span exactly — and
/// fingerprinting the table while its cells are still cache-hot. Returns
/// the tables in write order with their [`table_fingerprint`]s, never a
/// partial list.
pub(crate) fn decode_shard(
    codec: &dyn ShardCodec,
    bytes: &[u8],
    file: &str,
) -> Result<(Vec<AnnotatedTable>, Vec<u64>), StoreError> {
    let spans = codec.block_spans(bytes, file)?;
    let mut tables = Vec::with_capacity(spans.len());
    let mut fingerprints = Vec::with_capacity(spans.len());
    for span in spans {
        let at = codec.read_block(bytes, span, file)?;
        fingerprints.push(table_fingerprint(&at.table));
        tables.push(at);
    }
    Ok((tables, fingerprints))
}

/// A filesystem-safe, collision-resistant shard id for an arbitrary name
/// (e.g. a repository `owner/name`): the sanitized name plus a hash suffix
/// so distinct names that sanitize identically stay distinct.
#[must_use]
pub fn shard_id_for(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let safe: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{h:016x}")
}

/// Saves a corpus into a fresh `colv1` store at `dir`, splitting it into
/// shards of at most `tables_per_shard` tables.
///
/// # Errors
/// Propagates [`CorpusStore::create`] and shard-write failures.
pub fn save_store(
    corpus: &Corpus,
    dir: impl Into<PathBuf>,
    tables_per_shard: usize,
) -> Result<CorpusStore, StoreError> {
    save_store_as(corpus, dir, tables_per_shard, StoreFormat::ColV1)
}

/// Saves a corpus into a fresh store at `dir` in `format`, splitting it
/// into shards of at most `tables_per_shard` tables.
///
/// # Errors
/// Propagates [`CorpusStore::create_with_format`] and shard-write
/// failures.
pub fn save_store_as(
    corpus: &Corpus,
    dir: impl Into<PathBuf>,
    tables_per_shard: usize,
    format: StoreFormat,
) -> Result<CorpusStore, StoreError> {
    let store = CorpusStore::create_with_format(dir, corpus.name.clone(), format)?;
    let per_shard = tables_per_shard.max(1);
    for (n, chunk) in corpus.tables.chunks(per_shard).enumerate() {
        let base = n * per_shard;
        let mut writer = store.begin_shard(&format!("shard-{n:06}"))?;
        for (off, at) in chunk.iter().enumerate() {
            writer.push(base + off, at)?;
        }
        store.commit_shard(writer.finish()?)?;
    }
    Ok(store)
}

/// Loads the corpus stored at `dir` (parallel, with integrity checks).
///
/// # Errors
/// Propagates [`CorpusStore::open`] and shard-load failures.
pub fn load_store(dir: impl Into<PathBuf>) -> Result<Corpus, StoreError> {
    CorpusStore::open(dir)?.load_corpus()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_table::Table;

    fn table(name: &str, v: &str) -> AnnotatedTable {
        let rows = vec![
            vec!["1".to_string(), v.to_string()],
            vec!["2".to_string(), v.to_string()],
        ];
        AnnotatedTable::new(Table::from_string_rows(name, &["id", "x"], rows).unwrap())
    }

    fn corpus(n: usize) -> Corpus {
        let mut c = Corpus::new("store-test");
        for i in 0..n {
            c.push(table(&format!("t{i}"), &format!("v{i}")));
        }
        c
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gt_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrip_across_shards() {
        let dir = tmp("rt");
        let c = corpus(10);
        let store = save_store(&c, &dir, 3).unwrap();
        assert_eq!(store.num_shards(), 4);
        assert_eq!(store.len(), 10);
        let loaded = load_store(&dir).unwrap();
        assert_eq!(c, loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_missing_manifest_is_typed() {
        let dir = tmp("nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        let err = CorpusStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::MissingManifest(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_over_a_bottomless_manifest_is_typed_not_a_stack_overflow() {
        let dir = tmp("deepmanifest");
        std::fs::create_dir_all(&dir).unwrap();
        for opener in ["[", "{\"a\":"] {
            std::fs::write(dir.join(MANIFEST_FILE), opener.repeat(100_000)).unwrap();
            let err = CorpusStore::open(&dir).unwrap_err();
            assert!(matches!(err, StoreError::Json(_)), "{err}");
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_over_existing_store_is_typed() {
        let dir = tmp("exists");
        save_store(&corpus(2), &dir, 8).unwrap();
        let err = CorpusStore::create(&dir, "again").unwrap_err();
        assert!(matches!(err, StoreError::AlreadyExists(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_shard_rejected() {
        let dir = tmp("dup");
        let store = CorpusStore::create(&dir, "c").unwrap();
        let mut w = store.begin_shard("s").unwrap();
        w.push(0, &table("a", "x")).unwrap();
        store.commit_shard(w.finish().unwrap()).unwrap();
        assert!(matches!(
            store.begin_shard("s").unwrap_err(),
            StoreError::DuplicateShard { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn id_set_agrees_with_a_manifest_scan_across_commits_and_reopen() {
        let dir = tmp("idset");
        let store = CorpusStore::create(&dir, "c").unwrap();
        let ids: Vec<String> = (0..40).map(|i| format!("owner__repo-{i}")).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!store.has_shard(id), "{id} before its commit");
            let mut w = store.begin_shard(id).unwrap();
            w.push(i, &table("a", "x")).unwrap();
            store.commit_shard(w.finish().unwrap()).unwrap();
            assert!(store.has_shard(id), "{id} after its commit");
        }
        let reopened = CorpusStore::open(&dir).unwrap();
        for s in [&store, &reopened] {
            let scan = |id: &str| s.shard_entries().iter().any(|e| e.id == id);
            let entries = s.shard_entries();
            for id in ids
                .iter()
                .map(String::as_str)
                .chain(["owner__repo-40", "owner__repo", ""])
            {
                assert_eq!(s.has_shard(id), scan(id), "{id:?}");
                let scanned = entries.iter().find(|e| e.id == id);
                assert_eq!(s.shard_entry(id).as_ref(), scanned, "{id:?}");
            }
            // A duplicate is rejected at both doors, and changes nothing.
            assert!(matches!(
                s.begin_shard(&ids[7]).unwrap_err(),
                StoreError::DuplicateShard { .. }
            ));
            let dup = s.shard_entry(&ids[7]).unwrap();
            assert!(matches!(
                s.commit_shard(dup).unwrap_err(),
                StoreError::DuplicateShard { id } if id == ids[7]
            ));
            assert_eq!(s.num_shards(), ids.len());
        }
        // The reopened store keeps extending its set.
        let mut w = reopened.begin_shard("owner__late").unwrap();
        w.push(40, &table("a", "x")).unwrap();
        let late = w.finish().unwrap();
        reopened.commit_shard(late.clone()).unwrap();
        assert!(reopened.has_shard("owner__late"));
        assert_eq!(reopened.shard_entry("owner__late"), Some(late));
        assert_eq!(
            std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap(),
            serde_json::to_string(&reopened.committed().manifest).unwrap(),
            "the id set never reaches the manifest file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_shard_invisible_after_reopen() {
        let dir = tmp("uncommitted");
        let store = CorpusStore::create(&dir, "c").unwrap();
        let mut w = store.begin_shard("pending").unwrap();
        w.push(0, &table("a", "x")).unwrap();
        let _entry = w.finish().unwrap(); // never committed
        let reopened = CorpusStore::open(&dir).unwrap();
        assert_eq!(reopened.num_shards(), 0);
        assert!(reopened.load_corpus().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_ids_distinct_for_colliding_names() {
        let a = shard_id_for("owner/repo");
        let b = shard_id_for("owner_repo");
        assert_ne!(a, b);
        assert!(a.starts_with("owner_repo-"));
    }

    #[test]
    fn colv1_roundtrip_matches_jsonl() {
        let base = tmp("fmt");
        let c = corpus(9);
        let jd = base.join("jsonl");
        let cd = base.join("colv1");
        save_store_as(&c, &jd, 4, StoreFormat::Jsonl).unwrap();
        save_store_as(&c, &cd, 4, StoreFormat::ColV1).unwrap();
        let from_jsonl = load_store(&jd).unwrap();
        let from_colv1 = load_store(&cd).unwrap();
        assert_eq!(from_jsonl, c);
        assert_eq!(from_colv1, c);
        assert_eq!(CorpusStore::open(&cd).unwrap().format(), StoreFormat::ColV1);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn unknown_manifest_format_is_typed() {
        let dir = tmp("badfmt");
        save_store(&corpus(2), &dir, 8).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            manifest.replace("\"colv1\"", "\"tar.zst\""),
        )
        .unwrap();
        let err = CorpusStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::UnsupportedFormat { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_without_a_format_name_is_refused() {
        let dir = tmp("noformat");
        save_store(&corpus(3), &dir, 2).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let stripped = manifest.replace("\"format\":\"colv1\",", "");
        let null = manifest.replace("\"format\":\"colv1\"", "\"format\":null");
        for edited in [stripped, null] {
            assert_ne!(manifest, edited, "fixture must actually edit the field");
            std::fs::write(dir.join(MANIFEST_FILE), &edited).unwrap();
            let err = CorpusStore::open(&dir).unwrap_err();
            assert!(matches!(err, StoreError::Json(_)), "{edited}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_and_save_store_write_colv1() {
        let base = tmp("default");
        let created = CorpusStore::create(base.join("created"), "c").unwrap();
        let mut w = created.begin_shard("s").unwrap();
        w.push(0, &table("a", "x")).unwrap();
        created.commit_shard(w.finish().unwrap()).unwrap();
        let saved = save_store(&corpus(5), base.join("saved"), 2).unwrap();
        for store in [&created, &saved] {
            assert_eq!(store.format(), StoreFormat::ColV1);
            let manifest = std::fs::read_to_string(store.path().join(MANIFEST_FILE)).unwrap();
            assert!(manifest.contains("\"format\":\"colv1\""), "{manifest}");
            for entry in store.shard_entries() {
                assert_eq!(entry.file, format!("{}.colv1", entry.id));
                assert!(store.path().join(&entry.file).is_file(), "{}", entry.file);
            }
        }
        assert_eq!(saved.num_shards(), 3);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn empty_shard_roundtrips() {
        let dir = tmp("empty");
        let store = CorpusStore::create(&dir, "c").unwrap();
        let w = store.begin_shard("none").unwrap();
        assert!(w.is_empty());
        store.commit_shard(w.finish().unwrap()).unwrap();
        let loaded = load_store(&dir).unwrap();
        assert!(loaded.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_even_covers_contiguously() {
        for n in 1..=9 {
            let groups = GroupDirectory::split_even(7, n);
            assert_eq!(groups.len(), n.min(7), "at most one group per table");
            assert_eq!(groups.groups()[0].range.start, 0);
            assert_eq!(groups.groups().last().unwrap().range.end, 7);
            for w in groups.groups().windows(2) {
                assert_eq!(w[0].range.end, w[1].range.start, "contiguous");
                assert!(!w[0].range.is_empty());
            }
            for id in 0..7 {
                let owner = groups.owner_of(id).unwrap();
                assert!(groups.groups()[owner].range.contains(&id));
            }
            assert_eq!(groups.owner_of(7), None);
        }
        // No tables: one empty group, so callers always have a group 0.
        let empty = GroupDirectory::split_even(0, 3);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.groups()[0].range, 0..0);
        assert_eq!(empty.owner_of(0), None);
    }

    #[test]
    fn table_ids_rank_sparse_and_repeated_keys_in_load_order() {
        let dir = tmp("ids");
        let store = CorpusStore::create(&dir, "c").unwrap();
        // Keys are gapped, out of commit order, and 1024 repeats across
        // shards `a` and `c`: the tie goes to the earlier commit.
        let shards: [(&str, &[usize]); 4] = [
            ("a", &[2048, 1024, 1025]),
            ("b", &[]),
            ("c", &[0, 1024]),
            ("d", &[7]),
        ];
        for (id, keys) in shards {
            let mut w = store.begin_shard(id).unwrap();
            for &key in keys {
                w.push(key, &table(&format!("{id}{key}"), "x")).unwrap();
            }
            store.commit_shard(w.finish().unwrap()).unwrap();
        }
        let ids: Vec<Vec<TableId>> = store.table_ids().into_iter().map(|(_, i)| i).collect();
        assert_eq!(ids, [vec![5, 2, 4], vec![], vec![0, 3], vec![1]]);
        let names: Vec<String> = store
            .load_corpus()
            .unwrap()
            .tables
            .iter()
            .map(|at| at.table.name().to_string())
            .collect();
        assert_eq!(names, ["c0", "d7", "a1024", "c1024", "a1025", "a2048"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
