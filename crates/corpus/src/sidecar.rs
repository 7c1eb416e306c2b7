//! Index sidecars: the derived query indexes of a store, persisted next
//! to its shards and mmap-bootable in O(index size).
//!
//! A [`crate::store::CorpusStore`] holds *tables*; answering queries
//! also needs three derived structures (the inverted semantic-type
//! index, the schema-embedding search matrix, and the schema-completion
//! matrix) plus a *directory* locating each table's block inside its
//! shard. Rebuilding those on every boot costs a full corpus
//! materialization — cold start and RSS scale with corpus size. A
//! sidecar set persists them once, at save/migrate/index time, so an
//! engine can boot by mapping four small files and decode individual
//! tables on demand through [`LazyCorpus`].
//!
//! ## Container layout (all integers little-endian)
//!
//! Every sidecar file shares one container:
//!
//! ```text
//! "GTSIDE1\0"            file magic (8 bytes)
//! u32 kind               0 directory, 1 types, 2 search, 3 complete
//! u32 version            currently 1
//! u64 store_fingerprint  fold of the manifest's shard fingerprints
//! u64 tables             total tables in the store
//! str format             shard format name ("jsonl"/"colv1")
//! str name               corpus name          (str := u32 len + UTF-8)
//! payload                kind-specific, see below
//! u64 checksum           FNV-1a over every preceding byte
//! "GTSIDF1\0"            footer magic (8 bytes)
//! ```
//!
//! The footer magic is the commit mark (torn writes fail before any
//! field is trusted, exactly like `colv1` segments), and the checksum
//! makes *every* flipped bit a typed [`StoreError::Corrupt`] — a
//! corrupted sidecar can trigger a rebuild, never a wrong answer. The
//! `store_fingerprint`/`tables`/`format`/`name` quadruple binds a
//! sidecar to the exact store contents it was built from: re-saving,
//! resuming, or migrating the store changes the binding, so a stale
//! sidecar is *detected* ([`SidecarIssue::Stale`]), never silently
//! served. On load the directory's per-table fingerprints are
//! additionally folded per shard and compared against each manifest
//! entry, and every decoded table is verified against its directory
//! fingerprint before it leaves [`LazyCorpus::get`].
//!
//! ## Payloads
//!
//! * **directory** — shard file list, then per global table id:
//!   `u32 shard, u64 offset, u64 len, u64 fingerprint`.
//! * **types** — sorted labels, then each label's posting list
//!   (`u64 table, u64 column, u8 method, u8 ontology, u32 sim bits`).
//! * **search** — `u64 entries, u64 dim`, per-entry table ids, schemas,
//!   zero-padding to 8 bytes, then the raw `f32` embedding matrix
//!   (row-major, `entries × dim`).
//! * **complete** — `u64 schemas, u64 dim, u64 total_rows`, schemas,
//!   padding, then the per-attribute embedding matrix
//!   (`total_rows × dim`; row ranges follow from schema lengths).
//!
//! Matrices are 8-byte aligned in the file so a mapped sidecar serves
//! `&[f32]` rows zero-copy ([`F32Matrix`]); misaligned or big-endian
//! fallbacks copy once.

use std::path::Path;
use std::sync::Arc;

use gittables_table::Schema;

use crate::codec::{codec_for, span_bytes, StoreFormat};
use crate::colv1::{
    corrupt, method_from_tag, method_tag, ontology_from_tag, ontology_tag, put_str, put_u32,
    put_u64, put_u8, Arena, Cursor,
};
use crate::corpus::{AnnotatedTable, TableId};
use crate::dedup::combine_fingerprints;
use crate::store::{CorpusStore, StoreError};
use crate::typeindex::{TypeIndex, TypePosting};

/// Magic bytes opening every sidecar file.
pub const SIDECAR_MAGIC: &[u8; 8] = b"GTSIDE1\0";

/// Magic bytes closing every sidecar file (the commit mark).
pub const SIDECAR_FOOTER_MAGIC: &[u8; 8] = b"GTSIDF1\0";

/// Sidecar container version this build writes and reads.
pub const SIDECAR_VERSION: u32 = 1;

/// The kind of index a sidecar file persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SidecarKind {
    /// Table-id → (shard, block span, fingerprint) directory.
    Directory,
    /// Inverted semantic-type index.
    Types,
    /// Schema-embedding search index.
    Search,
    /// Schema-completion index.
    Complete,
}

impl SidecarKind {
    /// All kinds, in tag order.
    pub const ALL: [SidecarKind; 4] = [
        SidecarKind::Directory,
        SidecarKind::Types,
        SidecarKind::Search,
        SidecarKind::Complete,
    ];

    fn tag(self) -> u32 {
        match self {
            SidecarKind::Directory => 0,
            SidecarKind::Types => 1,
            SidecarKind::Search => 2,
            SidecarKind::Complete => 3,
        }
    }

    /// The sidecar's file name inside the store directory.
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            SidecarKind::Directory => "index-directory.gtsc",
            SidecarKind::Types => "index-types.gtsc",
            SidecarKind::Search => "index-search.gtsc",
            SidecarKind::Complete => "index-complete.gtsc",
        }
    }
}

/// Every sidecar file name, for cleanup and docs.
pub const SIDECAR_FILES: [&str; 4] = [
    "index-directory.gtsc",
    "index-types.gtsc",
    "index-search.gtsc",
    "index-complete.gtsc",
];

/// What binds a sidecar set to one exact store state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidecarBinding {
    /// Order-sensitive fold of the manifest's shard fingerprints.
    pub store_fingerprint: u64,
    /// Total tables across committed shards.
    pub tables: u64,
    /// Shard format name the store records.
    pub format: String,
    /// Corpus name the store records.
    pub name: String,
}

/// The binding of `store` as it is right now.
#[must_use]
pub fn binding_of(store: &CorpusStore) -> SidecarBinding {
    let entries = store.shard_entries();
    SidecarBinding {
        store_fingerprint: combine_fingerprints(entries.iter().map(|e| e.fingerprint)),
        tables: store.len() as u64,
        format: store.format().name().to_string(),
        name: store.name(),
    }
}

/// Why a sidecar set could not be served. Every variant is a *safe*
/// outcome: the caller falls back to rebuilding from the corpus.
#[derive(Debug)]
pub enum SidecarIssue {
    /// A sidecar file does not exist (store was never indexed).
    Missing {
        /// The missing file name.
        file: String,
    },
    /// The sidecar is structurally valid but was built for a different
    /// store state (older corpus, other format, renamed shards…).
    Stale {
        /// The stale file name.
        file: String,
        /// What disagreed with the store.
        detail: String,
    },
    /// Structurally invalid bytes: torn write, truncation, bad magic,
    /// or any flipped bit (checksum mismatch).
    Corrupt(StoreError),
}

impl SidecarIssue {
    /// Stable machine-readable reason, surfaced in engine build stats:
    /// `"no_sidecar"`, `"stale"`, or `"corrupt"`.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            SidecarIssue::Missing { .. } => "no_sidecar",
            SidecarIssue::Stale { .. } => "stale",
            SidecarIssue::Corrupt(_) => "corrupt",
        }
    }
}

impl std::fmt::Display for SidecarIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SidecarIssue::Missing { file } => write!(f, "sidecar `{file}` is missing"),
            SidecarIssue::Stale { file, detail } => {
                write!(f, "sidecar `{file}` is stale: {detail}")
            }
            SidecarIssue::Corrupt(e) => write!(f, "sidecar is corrupt: {e}"),
        }
    }
}

impl std::error::Error for SidecarIssue {}

/// FNV-1a 64 over `bytes` — the whole-file checksum that turns every
/// flipped bit into a typed error.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------- encoding

fn put_schema(out: &mut Vec<u8>, schema: &Schema, file: &str) -> Result<(), StoreError> {
    let n = u32::try_from(schema.len())
        .map_err(|_| corrupt(file, "schema attribute count overflows u32"))?;
    put_u32(out, n);
    for a in schema.iter() {
        put_str(out, a, file)?;
    }
    Ok(())
}

/// Zero-pads `out` to the next 8-byte boundary, so `f32` matrices start
/// aligned in the file (and thus in a page-aligned mapping).
fn pad8(out: &mut Vec<u8>) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
}

/// Appends a kind-specific payload to the container buffer being built
/// for the named sidecar file.
type PayloadWriter<'a> = &'a dyn Fn(&mut Vec<u8>, &str) -> Result<(), StoreError>;

/// Writes one sidecar file: header, payload, checksum, footer magic —
/// replaced atomically and durably ([`crate::persist::write_durably`]).
fn write_container(
    dir: &Path,
    kind: SidecarKind,
    binding: &SidecarBinding,
    payload: PayloadWriter<'_>,
) -> Result<(), StoreError> {
    let file = kind.file_name();
    let mut out = Vec::new();
    out.extend_from_slice(SIDECAR_MAGIC);
    put_u32(&mut out, kind.tag());
    put_u32(&mut out, SIDECAR_VERSION);
    put_u64(&mut out, binding.store_fingerprint);
    put_u64(&mut out, binding.tables);
    put_str(&mut out, &binding.format, file)?;
    put_str(&mut out, &binding.name, file)?;
    payload(&mut out, file)?;
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out.extend_from_slice(SIDECAR_FOOTER_MAGIC);

    Ok(crate::persist::write_durably(dir, file, &out)?)
}

/// Removes every sidecar file under `dir`, best-effort. Used after
/// store mutations (e.g. migration) so unreadable-stale files don't
/// linger; a leftover would be detected as stale anyway.
pub fn remove_sidecars(dir: &Path) {
    for file in SIDECAR_FILES {
        std::fs::remove_file(dir.join(file)).ok();
    }
}

/// One table's location inside the store: which shard, which block
/// span, and the content fingerprint the decoded table must match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Ordinal of the shard in manifest commit order.
    pub shard: u32,
    /// Byte offset of the table's block inside the shard file.
    pub offset: u64,
    /// Byte length of the block.
    pub len: u64,
    /// [`crate::dedup::table_fingerprint`] of the table.
    pub fingerprint: u64,
}

/// Writes the directory sidecar: `shard_files` in manifest commit
/// order, then one [`DirEntry`] per global table id.
///
/// # Errors
/// Propagates I/O and encoding failures.
pub fn write_directory(
    dir: &Path,
    binding: &SidecarBinding,
    shard_files: &[String],
    entries: &[DirEntry],
) -> Result<(), StoreError> {
    assert_eq!(entries.len() as u64, binding.tables, "entry per table");
    write_container(dir, SidecarKind::Directory, binding, &|out, file| {
        put_u64(out, shard_files.len() as u64);
        for f in shard_files {
            put_str(out, f, file)?;
        }
        for e in entries {
            put_u32(out, e.shard);
            put_u64(out, e.offset);
            put_u64(out, e.len);
            put_u64(out, e.fingerprint);
        }
        Ok(())
    })
}

/// Builds and writes the directory sidecar of `store` straight from its
/// shard segments' block spans — no table block is decoded. The
/// per-table content fingerprints come from the caller (one
/// [`crate::dedup::table_fingerprints`] pass over the corpus being
/// indexed), ordered by [`TableId`] ([`CorpusStore::table_ids`]).
///
/// # Errors
/// [`StoreError::Corrupt`] when a segment's block count, or the number of
/// fingerprints, disagrees with the manifest, plus I/O and encoding
/// failures.
pub fn write_directory_for_store(
    store: &CorpusStore,
    binding: &SidecarBinding,
    fingerprints: &[u64],
) -> Result<(), StoreError> {
    let shards = store.table_ids();
    let total: usize = shards.iter().map(|(_, ids)| ids.len()).sum();
    if total != fingerprints.len() {
        return Err(corrupt(
            "manifest.json",
            format!(
                "store holds {total} tables, {} fingerprints were given",
                fingerprints.len()
            ),
        ));
    }
    let codec = store.codec();
    // Ids are a permutation of `0..total`: every slot is written once.
    let mut dir_entries = vec![DirEntry::default(); total];
    let mut files = Vec::with_capacity(shards.len());
    for (s, (entry, ids)) in shards.iter().enumerate() {
        let arena = store.map_shard(entry)?;
        let spans = codec.block_spans(arena.bytes(), &entry.file)?;
        if spans.len() != ids.len() {
            return Err(corrupt(
                &entry.file,
                format!(
                    "segment holds {} tables, manifest records {}",
                    spans.len(),
                    ids.len()
                ),
            ));
        }
        for (&(offset, len), &id) in spans.iter().zip(ids) {
            dir_entries[id] = DirEntry {
                shard: s as u32,
                offset,
                len,
                fingerprint: fingerprints[id],
            };
        }
        files.push(entry.file.clone());
    }
    write_directory(store.path(), binding, &files, &dir_entries)
}

/// Writes the types sidecar from a built [`TypeIndex`].
///
/// # Errors
/// Propagates I/O and encoding failures.
pub fn write_types(
    dir: &Path,
    binding: &SidecarBinding,
    index: &TypeIndex,
) -> Result<(), StoreError> {
    write_container(dir, SidecarKind::Types, binding, &|out, file| {
        let labels = index.labels();
        let lists = index.posting_lists();
        put_u64(out, labels.len() as u64);
        for (label, postings) in labels.iter().zip(lists) {
            put_str(out, label, file)?;
            put_u64(out, postings.len() as u64);
            for p in postings {
                put_u64(out, p.table as u64);
                put_u64(out, p.column as u64);
                put_u8(out, method_tag(p.method));
                put_u8(out, ontology_tag(p.ontology));
                put_u32(out, p.similarity.to_bits());
            }
        }
        Ok(())
    })
}

/// Writes the search sidecar: per-entry stable table ids and schemas,
/// plus the row-major schema-embedding matrix.
///
/// # Errors
/// Propagates I/O and encoding failures.
pub fn write_search(
    dir: &Path,
    binding: &SidecarBinding,
    ids: &[usize],
    schemas: &[Schema],
    rows: &F32Matrix,
) -> Result<(), StoreError> {
    assert_eq!(ids.len(), schemas.len(), "id per schema");
    assert_eq!(ids.len(), rows.rows(), "row per schema");
    write_container(dir, SidecarKind::Search, binding, &|out, file| {
        put_u64(out, ids.len() as u64);
        put_u64(out, rows.dim() as u64);
        for &id in ids {
            put_u64(out, id as u64);
        }
        for s in schemas {
            put_schema(out, s, file)?;
        }
        pad8(out);
        for v in rows.as_slice() {
            put_u32(out, v.to_bits());
        }
        Ok(())
    })
}

/// Writes the completion sidecar: deduplicated schemas plus the flat
/// per-attribute embedding matrix (row ranges follow from the schema
/// lengths).
///
/// # Errors
/// Propagates I/O and encoding failures.
pub fn write_complete(
    dir: &Path,
    binding: &SidecarBinding,
    schemas: &[Schema],
    rows: &F32Matrix,
) -> Result<(), StoreError> {
    let total: usize = schemas.iter().map(Schema::len).sum();
    assert_eq!(total, rows.rows(), "row per schema attribute");
    write_container(dir, SidecarKind::Complete, binding, &|out, file| {
        put_u64(out, schemas.len() as u64);
        put_u64(out, rows.dim() as u64);
        put_u64(out, rows.rows() as u64);
        for s in schemas {
            put_schema(out, s, file)?;
        }
        pad8(out);
        for v in rows.as_slice() {
            put_u32(out, v.to_bits());
        }
        Ok(())
    })
}

// ---------------------------------------------------------------- matrices

/// A row-major `f32` matrix whose storage is either owned or a live
/// zero-copy view into a mapped sidecar ([`Arena`]). Rows are served as
/// plain `&[f32]` slices either way, so index code is storage-agnostic
/// and bit-identical across boot paths.
pub struct F32Matrix {
    data: MatrixData,
    rows: usize,
    dim: usize,
}

enum MatrixData {
    Owned(Vec<f32>),
    /// Zero-copy view: `offset` bytes into the arena, 4-byte aligned,
    /// `rows * dim * 4` bytes long (validated at construction).
    Mapped {
        arena: Arc<Arena>,
        offset: usize,
    },
}

impl std::fmt::Debug for F32Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("F32Matrix")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .field("mapped", &matches!(self.data, MatrixData::Mapped { .. }))
            .finish()
    }
}

impl F32Matrix {
    /// Wraps an owned row-major buffer of `rows_count * dim` values.
    ///
    /// # Panics
    /// When `data.len() != rows_count * dim`.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, rows_count: usize, dim: usize) -> F32Matrix {
        assert_eq!(data.len(), rows_count * dim, "matrix shape");
        F32Matrix {
            data: MatrixData::Owned(data),
            rows: rows_count,
            dim,
        }
    }

    /// A zero-copy view of `rows * dim` little-endian `f32`s starting
    /// `offset` bytes into `arena`. Bounds are checked here once; a
    /// misaligned base (owned-arena fallback) or a big-endian target
    /// copies the values out instead of failing.
    fn from_arena(
        arena: &Arc<Arena>,
        offset: usize,
        rows: usize,
        dim: usize,
        file: &str,
    ) -> Result<F32Matrix, StoreError> {
        let values = rows
            .checked_mul(dim)
            .ok_or_else(|| corrupt(file, "matrix shape overflows"))?;
        let bytes_len = values
            .checked_mul(4)
            .ok_or_else(|| corrupt(file, "matrix size overflows"))?;
        let end = offset
            .checked_add(bytes_len)
            .ok_or_else(|| corrupt(file, "matrix extends past the sidecar"))?;
        let all = arena.bytes();
        let Some(bytes) = all.get(offset..end) else {
            return Err(corrupt(file, "matrix extends past the sidecar"));
        };
        if cfg!(target_endian = "little") && gittables_sys::as_f32s(bytes).is_some() {
            Ok(F32Matrix {
                data: MatrixData::Mapped {
                    arena: Arc::clone(arena),
                    offset,
                },
                rows,
                dim,
            })
        } else {
            let copied = bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
                .collect();
            Ok(F32Matrix::from_vec(copied, rows, dim))
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Values per row.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The whole matrix, row-major.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        match &self.data {
            MatrixData::Owned(v) => v,
            MatrixData::Mapped { arena, offset } => {
                let bytes = &arena.bytes()[*offset..*offset + self.rows * self.dim * 4];
                gittables_sys::as_f32s(bytes).expect("alignment was checked at construction")
            }
        }
    }

    /// Row `i` as a `dim`-length slice.
    ///
    /// # Panics
    /// When `i >= rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.as_slice()[i * self.dim..(i + 1) * self.dim]
    }

    /// A matrix over rows `start..end`. On the mapped path this is a
    /// zero-copy view into the same arena (a whole-row offset keeps the
    /// 4-byte alignment); on the owned path the rows are copied. Row `i`
    /// of the slice is row `start + i` of `self`, bit for bit — how a
    /// scale-out server carves one mapped search sidecar into
    /// shard-local indexes without re-embedding anything.
    ///
    /// # Panics
    /// When `start > end` or `end > self.rows()`.
    #[must_use]
    pub fn slice_rows(&self, start: usize, end: usize) -> F32Matrix {
        assert!(start <= end && end <= self.rows, "row slice in bounds");
        let rows = end - start;
        match &self.data {
            MatrixData::Owned(v) => {
                F32Matrix::from_vec(v[start * self.dim..end * self.dim].to_vec(), rows, self.dim)
            }
            MatrixData::Mapped { arena, offset } => F32Matrix {
                data: MatrixData::Mapped {
                    arena: Arc::clone(arena),
                    offset: offset + start * self.dim * 4,
                },
                rows,
                dim: self.dim,
            },
        }
    }
}

// ------------------------------------------------------------- lazy corpus

/// A corpus served straight off mapped shard segments: nothing is
/// decoded until a table is asked for, and then only that table's block.
/// Every decoded table is verified against the directory fingerprint
/// recorded at index time, so block-level corruption (or a directory
/// that drifted from the shards) surfaces as a typed error, never a
/// wrong table.
pub struct LazyCorpus {
    name: String,
    format: StoreFormat,
    /// `(file name, bytes)` per shard, manifest commit order.
    shards: Vec<(String, Arc<Arena>)>,
    /// Per global table id.
    entries: Vec<DirEntry>,
}

impl Clone for LazyCorpus {
    /// Cheap: the mapped shard arenas are shared (`Arc`), only the
    /// directory entries are copied. Every clone serves the exact same
    /// bytes — the basis for shard-local engines sharing one mapped
    /// store.
    fn clone(&self) -> Self {
        LazyCorpus {
            name: self.name.clone(),
            format: self.format,
            shards: self.shards.clone(),
            entries: self.entries.clone(),
        }
    }
}

impl std::fmt::Debug for LazyCorpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyCorpus")
            .field("name", &self.name)
            .field("format", &self.format)
            .field("shards", &self.shards.len())
            .field("tables", &self.entries.len())
            .finish()
    }
}

impl LazyCorpus {
    /// Corpus name recorded in the store.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tables addressable by id.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus has no tables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Decodes the single table with global id `id`, touching only that
    /// table's block (and, on the mmap path, only its pages). `Ok(None)`
    /// when `id` is out of range; corruption and fingerprint mismatches
    /// are typed errors.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the block fails to decode or the
    /// decoded table does not match its recorded fingerprint.
    pub fn get(&self, id: TableId) -> Result<Option<AnnotatedTable>, StoreError> {
        let Some(entry) = self.entries.get(id) else {
            return Ok(None);
        };
        let (file, arena) = self
            .shards
            .get(entry.shard as usize)
            .ok_or_else(|| corrupt("index-directory.gtsc", "shard ordinal out of range"))?;
        let block = span_bytes(arena.bytes(), entry.offset, entry.len, file)?;
        let at = codec_for(self.format).read_block(block, file)?;
        let actual = crate::dedup::table_fingerprint(&at.table);
        if actual != entry.fingerprint {
            return Err(corrupt(
                file,
                format!(
                    "table {id} fingerprint {actual:#018x} != directory {:#018x}",
                    entry.fingerprint
                ),
            ));
        }
        Ok(Some(at))
    }
}

// ----------------------------------------------------------------- loading

/// The raw parts of the search index as persisted in its sidecar.
#[derive(Debug)]
pub struct SearchParts {
    /// Stable table id per entry.
    pub ids: Vec<usize>,
    /// Schema per entry.
    pub schemas: Vec<Schema>,
    /// One schema embedding per entry.
    pub rows: F32Matrix,
}

/// The raw parts of the completion index as persisted in its sidecar.
#[derive(Debug)]
pub struct CompleteParts {
    /// Deduplicated schemas, in first-seen order.
    pub schemas: Vec<Schema>,
    /// Flat per-attribute embeddings; schema `i`'s rows start at
    /// `starts[i]` (length `schemas[i].len()`).
    pub starts: Vec<usize>,
    /// The matrix behind `starts`.
    pub rows: F32Matrix,
}

/// Everything a query engine needs to boot without materializing the
/// corpus: the lazy table view plus the three persisted indexes.
#[derive(Debug)]
pub struct SidecarIndexes {
    /// Lazy per-table access over the mapped shards.
    pub corpus: LazyCorpus,
    /// The inverted semantic-type index.
    pub types: TypeIndex,
    /// Search-index raw parts.
    pub search: SearchParts,
    /// Completion-index raw parts.
    pub complete: CompleteParts,
}

struct Header<'a> {
    cur: Cursor<'a>,
}

/// Validates one sidecar container end to end (magic, footer, checksum,
/// version, binding) and returns a cursor positioned at the payload.
/// The cursor's bounds exclude the checksum/footer trailer, so payload
/// reads can never wander into it.
fn open_container<'a>(
    bytes: &'a [u8],
    file: &'a str,
    kind: SidecarKind,
    binding: &SidecarBinding,
) -> Result<Header<'a>, SidecarIssue> {
    let trailer = 8 + SIDECAR_FOOTER_MAGIC.len();
    let min = SIDECAR_MAGIC.len() + 4 + 4 + 8 + 8 + 4 + 4 + trailer;
    if bytes.len() < min {
        return Err(SidecarIssue::Corrupt(corrupt(
            file,
            format!("sidecar of {} bytes is truncated", bytes.len()),
        )));
    }
    if &bytes[..SIDECAR_MAGIC.len()] != SIDECAR_MAGIC {
        return Err(SidecarIssue::Corrupt(corrupt(
            file,
            "bad file magic (not a sidecar)",
        )));
    }
    if &bytes[bytes.len() - SIDECAR_FOOTER_MAGIC.len()..] != SIDECAR_FOOTER_MAGIC {
        return Err(SidecarIssue::Corrupt(corrupt(
            file,
            "bad footer magic (sidecar not fully written)",
        )));
    }
    let body = bytes.len() - trailer;
    let stored = u64::from_le_bytes(bytes[body..body + 8].try_into().expect("8"));
    if fnv1a(&bytes[..body]) != stored {
        return Err(SidecarIssue::Corrupt(corrupt(
            file,
            "checksum mismatch (sidecar bytes were altered)",
        )));
    }
    let mut cur = Cursor {
        bytes: &bytes[..body],
        pos: SIDECAR_MAGIC.len(),
        file,
    };
    let tag = cur.u32().map_err(SidecarIssue::Corrupt)?;
    if tag != kind.tag() {
        return Err(SidecarIssue::Corrupt(corrupt(
            file,
            format!("sidecar kind {tag} where {} was expected", kind.tag()),
        )));
    }
    let version = cur.u32().map_err(SidecarIssue::Corrupt)?;
    if version != SIDECAR_VERSION {
        return Err(SidecarIssue::Stale {
            file: file.to_string(),
            detail: format!("sidecar version {version}, this build reads {SIDECAR_VERSION}"),
        });
    }
    let store_fingerprint = cur.u64().map_err(SidecarIssue::Corrupt)?;
    let tables = cur.u64().map_err(SidecarIssue::Corrupt)?;
    let format = cur.str().map_err(SidecarIssue::Corrupt)?;
    let name = cur.str().map_err(SidecarIssue::Corrupt)?;
    if store_fingerprint != binding.store_fingerprint
        || tables != binding.tables
        || format != binding.format
        || name != binding.name
    {
        return Err(SidecarIssue::Stale {
            file: file.to_string(),
            detail: format!(
                "built for corpus `{name}` ({tables} tables, {format}, {store_fingerprint:#018x}); \
                 store is `{}` ({} tables, {}, {:#018x})",
                binding.name, binding.tables, binding.format, binding.store_fingerprint
            ),
        });
    }
    Ok(Header { cur })
}

/// The payload must end exactly at the checksum; trailing bytes mean a
/// length field lied somewhere upstream.
fn finish_payload(cur: &Cursor<'_>) -> Result<(), SidecarIssue> {
    if cur.pos != cur.bytes.len() {
        return Err(SidecarIssue::Corrupt(corrupt(
            cur.file,
            format!("payload ends at byte {} of {}", cur.pos, cur.bytes.len()),
        )));
    }
    Ok(())
}

fn load_arena(dir: &Path, kind: SidecarKind) -> Result<Arc<Arena>, SidecarIssue> {
    match Arena::load(&dir.join(kind.file_name())) {
        Ok(a) => Ok(Arc::new(a)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(SidecarIssue::Missing {
            file: kind.file_name().to_string(),
        }),
        Err(e) => Err(SidecarIssue::Corrupt(StoreError::Io(e))),
    }
}

fn read_schema(cur: &mut Cursor<'_>) -> Result<Schema, StoreError> {
    let n = cur.u32()? as usize;
    let mut attrs = Vec::with_capacity(cur.cap(n));
    for _ in 0..n {
        attrs.push(cur.str()?);
    }
    Ok(Schema::new(attrs))
}

/// Skips the zero padding [`pad8`] wrote before a matrix.
fn skip_pad(cur: &mut Cursor<'_>) -> Result<(), StoreError> {
    let pad = (8 - cur.pos % 8) % 8;
    cur.take(pad)?;
    Ok(())
}

/// Loads, verifies, and assembles the full sidecar set of `store`.
///
/// O(index size), not O(corpus): shard segments are mapped but no table
/// block is decoded. Verification covers container structure (magic,
/// footer, whole-file checksum), the binding of every file to the
/// store's current fingerprint/format/size, the directory's shard file
/// list against the manifest, and a per-shard fold of the directory's
/// table fingerprints against each manifest entry.
///
/// # Errors
/// [`SidecarIssue`] describing exactly why the set cannot be served
/// (missing / stale / corrupt); callers fall back to a rebuild.
pub fn load_indexes(store: &CorpusStore) -> Result<SidecarIndexes, SidecarIssue> {
    let binding = binding_of(store);
    let shards = store.table_ids();
    let dir = store.path();

    // -- directory ---------------------------------------------------
    let dir_arena = load_arena(dir, SidecarKind::Directory)?;
    let file = SidecarKind::Directory.file_name();
    let mut h = open_container(dir_arena.bytes(), file, SidecarKind::Directory, &binding)?;
    let cur = &mut h.cur;
    let read = |r: Result<u64, StoreError>| r.map_err(SidecarIssue::Corrupt);
    let nshards = read(cur.u64())? as usize;
    if nshards != shards.len() {
        return Err(SidecarIssue::Stale {
            file: file.to_string(),
            detail: format!(
                "sidecar lists {nshards} shards, manifest has {}",
                shards.len()
            ),
        });
    }
    for (entry, _) in &shards {
        let f = cur.str().map_err(SidecarIssue::Corrupt)?;
        if f != entry.file {
            return Err(SidecarIssue::Stale {
                file: file.to_string(),
                detail: format!(
                    "sidecar references shard `{f}`, manifest has `{}`",
                    entry.file
                ),
            });
        }
    }
    let tables = binding.tables as usize;
    let mut dir_entries = Vec::with_capacity(cur.cap(tables));
    for _ in 0..tables {
        let shard = cur.u32().map_err(SidecarIssue::Corrupt)?;
        let offset = read(cur.u64())?;
        let len = read(cur.u64())?;
        let fingerprint = read(cur.u64())?;
        if shard as usize >= nshards {
            return Err(SidecarIssue::Corrupt(corrupt(
                file,
                format!("shard ordinal {shard} out of range"),
            )));
        }
        dir_entries.push(DirEntry {
            shard,
            offset,
            len,
            fingerprint,
        });
    }
    finish_payload(cur)?;

    // Bind the directory's per-table fingerprints to every manifest
    // entry: fold them in each shard's write order and compare. This is
    // what makes a sidecar from an older (same-name, same-shape) corpus
    // detectable without touching a single corpus page.
    for (s, (entry, ids)) in shards.iter().enumerate() {
        let mut fps = Vec::with_capacity(ids.len());
        for &gid in ids {
            let Some(de) = dir_entries.get(gid) else {
                return Err(SidecarIssue::Stale {
                    file: file.to_string(),
                    detail: format!("table id {gid} outside the sidecar directory"),
                });
            };
            if de.shard as usize != s {
                return Err(SidecarIssue::Stale {
                    file: file.to_string(),
                    detail: format!("table {gid} recorded in shard {} not {s}", de.shard),
                });
            }
            fps.push(de.fingerprint);
        }
        let folded = combine_fingerprints(fps);
        if folded != entry.fingerprint {
            return Err(SidecarIssue::Stale {
                file: file.to_string(),
                detail: format!(
                    "shard `{}` fingerprint fold {folded:#018x} != manifest {:#018x}",
                    entry.id, entry.fingerprint
                ),
            });
        }
    }

    // Map the shard segments (no pages are touched yet) and bounds-check
    // every directory span once, so `get` failures can only mean real
    // block corruption.
    let mut arenas = Vec::with_capacity(nshards);
    for (entry, _) in &shards {
        let arena = store.map_shard(entry).map_err(SidecarIssue::Corrupt)?;
        arenas.push((entry.file.clone(), Arc::new(arena)));
    }
    for (gid, de) in dir_entries.iter().enumerate() {
        let shard_len = arenas[de.shard as usize].1.bytes().len() as u64;
        let ok = de
            .offset
            .checked_add(de.len)
            .is_some_and(|end| end <= shard_len);
        if !ok {
            return Err(SidecarIssue::Corrupt(corrupt(
                file,
                format!(
                    "table {gid} span outside shard `{}`",
                    arenas[de.shard as usize].0
                ),
            )));
        }
    }
    let lazy = LazyCorpus {
        name: binding.name.clone(),
        format: store.format(),
        shards: arenas,
        entries: dir_entries,
    };

    // -- types ---------------------------------------------------------
    let types_arena = load_arena(dir, SidecarKind::Types)?;
    let file = SidecarKind::Types.file_name();
    let mut h = open_container(types_arena.bytes(), file, SidecarKind::Types, &binding)?;
    let cur = &mut h.cur;
    let nlabels = cur.u64().map_err(SidecarIssue::Corrupt)? as usize;
    let mut labels: Vec<String> = Vec::with_capacity(cur.cap(nlabels));
    let mut lists: Vec<Vec<TypePosting>> = Vec::with_capacity(cur.cap(nlabels));
    for _ in 0..nlabels {
        let label = cur.str().map_err(SidecarIssue::Corrupt)?;
        if let Some(prev) = labels.last() {
            if *prev >= label {
                // Sorted-unique labels are what makes lookup's binary
                // search correct; anything else is structural damage.
                return Err(SidecarIssue::Corrupt(corrupt(
                    file,
                    "labels are not sorted and distinct",
                )));
            }
        }
        let count = cur.u64().map_err(SidecarIssue::Corrupt)? as usize;
        let mut postings = Vec::with_capacity(cur.cap(count));
        for _ in 0..count {
            let table = cur.u64().map_err(SidecarIssue::Corrupt)?;
            let table = cur
                .len_of(table, "posting table id")
                .map_err(SidecarIssue::Corrupt)?;
            let column = cur.u64().map_err(SidecarIssue::Corrupt)?;
            let column = cur
                .len_of(column, "posting column")
                .map_err(SidecarIssue::Corrupt)?;
            let method = method_from_tag(cur.u8().map_err(SidecarIssue::Corrupt)?)
                .ok_or_else(|| SidecarIssue::Corrupt(corrupt(file, "unknown method tag")))?;
            let ontology = ontology_from_tag(cur.u8().map_err(SidecarIssue::Corrupt)?)
                .ok_or_else(|| SidecarIssue::Corrupt(corrupt(file, "unknown ontology tag")))?;
            let similarity = f32::from_bits(cur.u32().map_err(SidecarIssue::Corrupt)?);
            postings.push(TypePosting {
                table,
                column,
                method,
                ontology,
                similarity,
            });
        }
        labels.push(label);
        lists.push(postings);
    }
    finish_payload(cur)?;
    let types = TypeIndex::from_raw_parts(labels, lists);

    // -- search ----------------------------------------------------------
    let search_arena = load_arena(dir, SidecarKind::Search)?;
    let file = SidecarKind::Search.file_name();
    let mut h = open_container(search_arena.bytes(), file, SidecarKind::Search, &binding)?;
    let cur = &mut h.cur;
    let entries = cur.u64().map_err(SidecarIssue::Corrupt)? as usize;
    let dim_v = cur.u64().map_err(SidecarIssue::Corrupt)?;
    let dim = cur
        .len_of(dim_v, "embedding dim")
        .map_err(SidecarIssue::Corrupt)?;
    let mut ids = Vec::with_capacity(cur.cap(entries));
    for _ in 0..entries {
        let id = cur.u64().map_err(SidecarIssue::Corrupt)?;
        ids.push(cur.len_of(id, "table id").map_err(SidecarIssue::Corrupt)?);
    }
    let mut schemas = Vec::with_capacity(cur.cap(entries));
    for _ in 0..entries {
        schemas.push(read_schema(cur).map_err(SidecarIssue::Corrupt)?);
    }
    skip_pad(cur).map_err(SidecarIssue::Corrupt)?;
    let rows = F32Matrix::from_arena(&search_arena, cur.pos, entries, dim, file)
        .map_err(SidecarIssue::Corrupt)?;
    cur.take(entries * dim * 4).map_err(SidecarIssue::Corrupt)?;
    finish_payload(cur)?;
    let search = SearchParts { ids, schemas, rows };

    // -- complete ----------------------------------------------------------
    let complete_arena = load_arena(dir, SidecarKind::Complete)?;
    let file = SidecarKind::Complete.file_name();
    let mut h = open_container(
        complete_arena.bytes(),
        file,
        SidecarKind::Complete,
        &binding,
    )?;
    let cur = &mut h.cur;
    let nschemas = cur.u64().map_err(SidecarIssue::Corrupt)? as usize;
    let cdim_v = cur.u64().map_err(SidecarIssue::Corrupt)?;
    let cdim = cur
        .len_of(cdim_v, "embedding dim")
        .map_err(SidecarIssue::Corrupt)?;
    let total_v = cur.u64().map_err(SidecarIssue::Corrupt)?;
    let total = cur
        .len_of(total_v, "total rows")
        .map_err(SidecarIssue::Corrupt)?;
    let mut cschemas = Vec::with_capacity(cur.cap(nschemas));
    let mut starts = Vec::with_capacity(cur.cap(nschemas) + 1);
    starts.push(0usize);
    for _ in 0..nschemas {
        let s = read_schema(cur).map_err(SidecarIssue::Corrupt)?;
        let next = starts
            .last()
            .expect("seeded")
            .checked_add(s.len())
            .ok_or_else(|| SidecarIssue::Corrupt(corrupt(file, "schema rows overflow")))?;
        starts.push(next);
        cschemas.push(s);
    }
    if *starts.last().expect("seeded") != total {
        return Err(SidecarIssue::Corrupt(corrupt(
            file,
            "schema lengths do not sum to the matrix rows",
        )));
    }
    skip_pad(cur).map_err(SidecarIssue::Corrupt)?;
    let crows = F32Matrix::from_arena(&complete_arena, cur.pos, total, cdim, file)
        .map_err(SidecarIssue::Corrupt)?;
    cur.take(total * cdim * 4).map_err(SidecarIssue::Corrupt)?;
    finish_payload(cur)?;
    let complete = CompleteParts {
        schemas: cschemas,
        starts,
        rows: crows,
    };

    if search.rows.dim() != complete.rows.dim() {
        return Err(SidecarIssue::Corrupt(corrupt(
            file,
            "search and completion sidecars disagree on embedding dim",
        )));
    }

    Ok(SidecarIndexes {
        corpus: lazy,
        types,
        search,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::store::save_store_as;
    use gittables_table::Table;

    fn corpus(n: usize) -> Corpus {
        let mut c = Corpus::new("sc-test");
        for i in 0..n {
            let rows = vec![
                vec![format!("{i}"), "alice".to_string()],
                vec![format!("{}", i + 1), "bob".to_string()],
            ];
            let t = Table::from_string_rows(format!("t{i}"), &["id", "name"], rows).unwrap();
            c.push(AnnotatedTable::new(t));
        }
        c
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gt_sidecar_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Minimal write path: directory entries computed from block spans,
    /// empty-ish indexes. The full builder lives in `gittables_serve`.
    fn write_minimal_sidecars(dir: &std::path::Path) {
        let store = CorpusStore::open(dir).unwrap();
        let binding = binding_of(&store);
        let mut dir_entries = vec![None; store.len()];
        let mut files = Vec::new();
        for (s, (entry, ids)) in store.table_ids().iter().enumerate() {
            let arena = Arena::load(&dir.join(&entry.file)).unwrap();
            let spans = store
                .codec()
                .block_spans(arena.bytes(), &entry.file)
                .unwrap();
            for (i, (off, len)) in spans.iter().enumerate() {
                let block = &arena.bytes()[*off as usize..(*off + *len) as usize];
                let at = store.codec().read_block(block, &entry.file).unwrap();
                dir_entries[ids[i]] = Some(DirEntry {
                    shard: s as u32,
                    offset: *off,
                    len: *len,
                    fingerprint: crate::dedup::table_fingerprint(&at.table),
                });
            }
            files.push(entry.file.clone());
        }
        let dir_entries: Vec<DirEntry> = dir_entries.into_iter().map(Option::unwrap).collect();
        write_directory(dir, &binding, &files, &dir_entries).unwrap();
        write_types(
            dir,
            &binding,
            &TypeIndex::from_raw_parts(Vec::new(), Vec::new()),
        )
        .unwrap();
        write_search(
            dir,
            &binding,
            &[0],
            &[Schema::new(["id", "name"])],
            &F32Matrix::from_vec(vec![1.0, 2.0, 3.0], 1, 3),
        )
        .unwrap();
        write_complete(
            dir,
            &binding,
            &[Schema::new(["id", "name"])],
            &F32Matrix::from_vec(vec![1.0; 6], 2, 3),
        )
        .unwrap();
    }

    #[test]
    fn roundtrip_and_lazy_get_both_formats() {
        for format in StoreFormat::ALL {
            let dir = tmp(&format!("rt_{format}"));
            let c = corpus(7);
            save_store_as(&c, &dir, 3, format).unwrap();
            write_minimal_sidecars(&dir);
            let store = CorpusStore::open(&dir).unwrap();
            let loaded = load_indexes(&store).unwrap();
            assert_eq!(loaded.corpus.len(), 7);
            assert_eq!(loaded.corpus.name(), "sc-test");
            for id in 0..7 {
                let at = loaded.corpus.get(id).unwrap().unwrap();
                assert_eq!(&at, &c.tables[id], "format {format} table {id}");
            }
            assert!(loaded.corpus.get(7).unwrap().is_none());
            assert_eq!(loaded.search.ids, vec![0]);
            assert_eq!(loaded.search.rows.row(0), &[1.0, 2.0, 3.0]);
            assert_eq!(loaded.complete.starts, vec![0, 2]);
            assert!(loaded.types.is_empty());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn missing_stale_and_corrupt_are_distinguished() {
        let dir = tmp("issues");
        let c = corpus(4);
        let store = save_store_as(&c, &dir, 2, StoreFormat::ColV1).unwrap();
        // Missing before anything is written.
        assert!(matches!(
            load_indexes(&store).unwrap_err(),
            SidecarIssue::Missing { .. }
        ));
        write_minimal_sidecars(&dir);
        assert!(load_indexes(&store).is_ok());

        // Growing the store invalidates the binding → stale.
        let mut w = store.begin_shard("extra").unwrap();
        w.push(4, &corpus(5).tables[4]).unwrap();
        store.commit_shard(w.finish().unwrap()).unwrap();
        let reopened = CorpusStore::open(&dir).unwrap();
        assert!(matches!(
            load_indexes(&reopened).unwrap_err(),
            SidecarIssue::Stale { .. }
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_flipped_byte_is_typed() {
        let dir = tmp("flip");
        let c = corpus(3);
        let store = save_store_as(&c, &dir, 2, StoreFormat::ColV1).unwrap();
        write_minimal_sidecars(&dir);
        for kind in SidecarKind::ALL {
            let path = dir.join(kind.file_name());
            let clean = std::fs::read(&path).unwrap();
            for at in (0..clean.len()).step_by(7) {
                let mut bad = clean.clone();
                bad[at] ^= 0x20;
                std::fs::write(&path, &bad).unwrap();
                match load_indexes(&store) {
                    Err(SidecarIssue::Corrupt(_) | SidecarIssue::Stale { .. }) => {}
                    other => panic!(
                        "{}: flip at {at} must be typed, got {:?}",
                        kind.file_name(),
                        other.err().map(|e| e.to_string())
                    ),
                }
            }
            std::fs::write(&path, &clean).unwrap();
            assert!(
                load_indexes(&store).is_ok(),
                "restored {}",
                kind.file_name()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn f32_matrix_owned_and_shapes() {
        let m = F32Matrix::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.as_slice().len(), 6);
    }
}
