//! The index sidecar: the derived query indexes of a store, persisted
//! next to its shards as one file and mmap-bootable in O(index size).
//!
//! A [`crate::store::CorpusStore`] holds *tables*; answering queries
//! also needs three derived structures (the inverted semantic-type
//! index, the schema-embedding search matrix, and the schema-completion
//! matrix) plus a *directory* locating each table's block inside its
//! shard. Building those reads every table of the store — cold start
//! would scale with corpus size. [`write_indexes`] persists them once,
//! at index time, as
//! [`SIDECAR_FILE`], so an engine boots by mapping that one file
//! ([`load_indexes`]) and decodes individual tables on demand through
//! [`LazyCorpus`]. One file means one commit: a re-index replaces the
//! whole set with one atomic rename, so a boot sees the old indexes
//! (stale, rewritten by the boot) or the new ones, never a mix.
//!
//! ## Container layout (all integers little-endian)
//!
//! ```text
//! "GTSIDE1\0"            file magic (8 bytes)
//! u32 version            currently 5
//! u64 store_fingerprint  fold of the manifest's shard fingerprints
//! u64 tables             total tables in the store
//! str format             shard format name ("jsonl"/"colv1")
//! str name               corpus name          (str := u32 len + UTF-8)
//! u64 dim                values per embedding row, both matrices
//! u64 len, directory     four sections in this order, each prefixed
//! u64 len, types         with its byte length and consumed exactly
//! u64 len, search
//! u64 len, complete
//! u64 checksum           [`checksum`] of every preceding byte
//! "GTSIDF1\0"            footer magic (8 bytes)
//! ```
//!
//! The footer magic is the commit mark (torn writes fail before any
//! field is trusted, exactly like `colv1` segments), and the checksum
//! makes *every* altered byte a typed [`StoreError::Corrupt`] — a
//! corrupted sidecar can cost a rewrite, never a wrong answer. The
//! `store_fingerprint`/`tables`/`format`/`name` quadruple binds the
//! sidecar to the exact store contents it was built from: re-saving,
//! resuming, or migrating the store changes the binding, so a stale
//! sidecar is *detected* ([`SidecarIssue::Stale`]), never silently
//! served. On load the directory's per-table check values are
//! additionally folded per shard and compared against each manifest
//! entry, and every table's check value — for `colv1` its block's seal,
//! verified against the block's bytes before any field is decoded — is
//! compared with its directory entry before it leaves
//! [`LazyCorpus::get`]. A `get` hashes exactly one block body, once.
//!
//! ## Sections
//!
//! * **directory** — shard file list, then per global table id one
//!   28-byte record: `u32 shard, u64 offset, u64 len, u64 check`, where
//!   `check` is the table's check value (`crate::codec`): its `colv1`
//!   block seal, or its `jsonl` content fingerprint.
//! * **types** — `u64 labels`, the sorted, distinct labels as one
//!   arena, one `u64` posting count per label, then every posting in
//!   label order as one run of 22-byte records
//!   (`u64 table, u64 column, u8 method, u8 ontology, u32 sim bits`).
//! * **search** — `u64 entries`, per-entry `u64` table ids, then the
//!   **schema table** (`u64 count`, then each schema as its `u32`
//!   attribute count and its names as one arena): every distinct schema
//!   once, first seen over the search entries and then the completion
//!   schemas. Then one
//!   `u32` schema ref (an index into the table) per entry, zero-padding
//!   to 8 bytes, and the raw `f32` embedding matrix (row-major,
//!   `entries × dim`).
//! * **complete** — `u64 schemas`, one `u32` ref into the search
//!   section's schema table per schema, padding, then the per-attribute
//!   embedding matrix (one row per schema attribute; row ranges follow
//!   from schema lengths).
//!
//! An **arena** is the `colv1` cell layout (`crate::colv1`): one `u32`
//! cumulative end offset per string, then the strings' UTF-8 bytes
//! back to back. It decodes as two copies out of the mapping, checked
//! once as a whole (valid UTF-8; ends non-decreasing, on character
//! boundaries, the last one the byte count), into the
//! [`gittables_table::CellArena`] a [`Schema`] or the [`TypeIndex`]
//! keeps as it is. So a boot allocates a fixed number of times per
//! schema and for the whole label list, however many names they hold.
//!
//! No schema's bytes are written twice, and each is decoded once: a
//! search entry and the completion schema that share a table slot share
//! one [`Schema`] (one attribute list, one rendered JSON body). A ref
//! past the table is `Corrupt`, named after its section. Fixed-width
//! records (directory entries, posting counts, postings, ids, refs) are
//! bounds-checked as one slice per list before anything is allocated for
//! them; the posting counts are summed with overflow checks first.
//!
//! Matrices are 8-byte aligned in the file so the mapped sidecar serves
//! `&[f32]` rows zero-copy ([`F32Matrix`]) out of the one shared arena;
//! misaligned or big-endian fallbacks copy once. A section that ends
//! before or after its parser does means a length field lied: it is
//! `Corrupt`, named after the section.
//!
//! ## The checksum
//!
//! `checksum` is [`crate::checksum`]'s lane checksum, the one function
//! that also seals every `colv1` table block and hashes table
//! fingerprints. It changes when any single byte does, so one flip
//! anywhere in the file fails the load.
//!
//! ## No reader for older versions
//!
//! Version 1 spread the same data over four files
//! (`index-{directory,types,search,complete}.gtsc`); version 2 had this
//! container but wrote every search entry's schema in full and every
//! completion schema again; version 3 wrote each name and each label as
//! its own length-prefixed string, each label followed by its postings;
//! version 4 had this layout but recorded each table's content
//! fingerprint in the directory where version 5 records its check value.
//! Sidecars are derived and disposable, so there is no compatibility
//! path: the version-1 files are never opened (the boot reports the
//! sidecar missing), a version-2, -3 or -4 file is
//! [`SidecarIssue::Stale`] ("sidecar version 4, this build reads 5"),
//! and either way the boot writes a version-5 file from the store and
//! serves the same bytes.

use std::collections::HashMap;
use std::sync::Arc;

use gittables_table::Schema;

use crate::checksum::checksum;
use crate::codec::{codec_for, StoreFormat};
use crate::colv1::{
    corrupt, method_from_tag, method_tag, ontology_from_tag, ontology_tag, put_arena, put_str,
    put_u32, put_u64, put_u8, Arena, Cursor,
};
use crate::corpus::{AnnotatedTable, TableId};
use crate::dedup::combine_fingerprints;
use crate::store::{CorpusStore, StoreError};
use crate::typeindex::{TypeIndex, TypePosting};

/// The sidecar's file name inside the store directory.
pub const SIDECAR_FILE: &str = "index.gtsc";

/// Magic bytes opening the sidecar file.
pub const SIDECAR_MAGIC: &[u8; 8] = b"GTSIDE1\0";

/// Magic bytes closing the sidecar file (the commit mark).
pub const SIDECAR_FOOTER_MAGIC: &[u8; 8] = b"GTSIDF1\0";

/// Sidecar container version this build writes and reads.
pub const SIDECAR_VERSION: u32 = 5;

/// Section names as they appear in errors, in file order.
const DIRECTORY: &str = "index.gtsc#directory";
const TYPES: &str = "index.gtsc#types";
const SEARCH: &str = "index.gtsc#search";
const COMPLETE: &str = "index.gtsc#complete";

/// What binds a sidecar to one exact store state.
struct SidecarBinding {
    /// Order-sensitive fold of the manifest's shard fingerprints.
    store_fingerprint: u64,
    /// Total tables across committed shards.
    tables: u64,
    /// Shard format name the store records.
    format: String,
    /// Corpus name the store records.
    name: String,
}

/// The binding of `store` as it is right now.
fn binding_of(store: &CorpusStore) -> SidecarBinding {
    let entries = store.shard_entries();
    SidecarBinding {
        store_fingerprint: combine_fingerprints(entries.iter().map(|e| e.fingerprint)),
        tables: store.len() as u64,
        format: store.format().name().to_string(),
        name: store.name(),
    }
}

/// Why the sidecar could not be served. Every variant is a *safe*
/// outcome: the caller rewrites the sidecar from the store.
#[derive(Debug)]
pub enum SidecarIssue {
    /// [`SIDECAR_FILE`] does not exist (the store was never indexed, or
    /// only by a build that wrote the four version-1 files).
    Missing,
    /// The sidecar is structurally valid but was built for a different
    /// store state (older corpus, other format, renamed shards…) or by a
    /// build with another container version or embedding.
    Stale {
        /// What disagreed with the store or this build.
        detail: String,
    },
    /// Structurally invalid bytes: torn write, truncation, bad magic,
    /// or any altered byte (checksum mismatch).
    Corrupt(StoreError),
}

impl SidecarIssue {
    /// Stable machine-readable reason, surfaced in engine build stats:
    /// `"no_sidecar"`, `"stale"`, or `"corrupt"`.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            SidecarIssue::Missing => "no_sidecar",
            SidecarIssue::Stale { .. } => "stale",
            SidecarIssue::Corrupt(_) => "corrupt",
        }
    }
}

impl std::fmt::Display for SidecarIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SidecarIssue::Missing => write!(f, "sidecar `{SIDECAR_FILE}` is missing"),
            SidecarIssue::Stale { detail } => {
                write!(f, "sidecar `{SIDECAR_FILE}` is stale: {detail}")
            }
            SidecarIssue::Corrupt(e) => write!(f, "sidecar is corrupt: {e}"),
        }
    }
}

impl std::error::Error for SidecarIssue {}

/// The one place a structural failure of the container or of a section
/// becomes the `corrupt` fallback reason.
impl From<StoreError> for SidecarIssue {
    fn from(e: StoreError) -> Self {
        SidecarIssue::Corrupt(e)
    }
}

// ---------------------------------------------------------------- encoding

/// A schema: its `u32` attribute count, then its names as one arena.
fn put_schema(out: &mut Vec<u8>, schema: &Schema, file: &str) -> Result<(), StoreError> {
    let n = u32::try_from(schema.len())
        .map_err(|_| corrupt(file, "schema attribute count overflows u32"))?;
    put_u32(out, n);
    put_arena(out, schema.iter(), file)
}

/// Every distinct schema of `schemas` once, in first-seen order
/// (compared by attribute list), and each input schema's index in that
/// table.
fn schema_table<'s>(
    schemas: impl Iterator<Item = &'s Schema>,
) -> Result<(Vec<&'s Schema>, Vec<u32>), StoreError> {
    let mut table = Vec::new();
    // Keyed by the names, not the `Schema`: its rendered-body cache is
    // interior mutability, which a hash key must not have.
    let mut slots: HashMap<Vec<&str>, usize> = HashMap::new();
    let mut refs = Vec::new();
    for schema in schemas {
        let next = table.len();
        let slot = *slots.entry(schema.iter().collect()).or_insert_with(|| {
            table.push(schema);
            next
        });
        refs.push(u32::try_from(slot).map_err(|_| corrupt(SEARCH, "schema table overflows u32"))?);
    }
    Ok((table, refs))
}

/// Zero-pads `out` to the next 8-byte boundary and appends `rows`, so
/// the matrix starts aligned in the file (and thus in a page-aligned
/// mapping).
fn put_matrix(out: &mut Vec<u8>, rows: &F32Matrix) {
    while !out.len().is_multiple_of(8) {
        out.push(0);
    }
    for v in rows.as_slice() {
        put_u32(out, v.to_bits());
    }
}

/// Appends one section: the byte length of what `body` writes, then
/// that.
fn put_section(
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let at = out.len();
    put_u64(out, 0);
    body(out)?;
    let len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// One table's location inside the store: which shard, which block
/// span, and the check value its read must return.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Ordinal of the shard in manifest (id) order.
    shard: u32,
    /// Byte offset of the table's block inside the shard file.
    offset: u64,
    /// Byte length of the block.
    len: u64,
    /// The table's check value (`colv1` block seal, `jsonl` content
    /// fingerprint).
    check: u64,
}

/// The directory of `store` — shard files in manifest order and one
/// [`DirEntry`] per [`TableId`] — straight from its shard segments'
/// block spans: no table block is decoded.
fn directory_of(
    store: &CorpusStore,
    checks: &[u64],
) -> Result<(Vec<String>, Vec<DirEntry>), StoreError> {
    let shards = store.table_ids();
    let total: usize = shards.iter().map(|(_, ids)| ids.len()).sum();
    if total != checks.len() {
        return Err(corrupt(
            "manifest.json",
            format!(
                "store holds {total} tables, {} check values were given",
                checks.len()
            ),
        ));
    }
    let codec = store.codec();
    // Ids are a permutation of `0..total`: every slot is written once.
    let mut entries = vec![DirEntry::default(); total];
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
            entries[id] = DirEntry {
                shard: s as u32,
                offset,
                len,
                check: checks[id],
            };
        }
        files.push(entry.file.clone());
    }
    Ok((files, entries))
}

/// Builds the sidecar of `store` in one buffer and commits it with one
/// atomic, durable replace (`persist::write_durably`): after a
/// failure the previous file, if any, is untouched. Returns the file's
/// length in bytes.
///
/// `checks` are the per-table check values that
/// [`CorpusStore::load_shard`] returns (or [`CorpusStore::check_values`]
/// collects), ordered by [`TableId`] ([`CorpusStore::table_ids`]);
/// `search` is the search index's per-entry table ids and schemas with
/// its row-major embedding matrix; `complete` the completion index's
/// deduplicated schemas with its flat per-attribute matrix. Each
/// distinct schema of the two is written once, in the search section's
/// schema table.
///
/// # Errors
/// [`StoreError::Corrupt`] when a segment's block count, or the number of
/// check values, disagrees with the manifest, plus I/O and encoding
/// failures.
///
/// # Panics
/// When the parts disagree on their own shapes (an id, a schema and a
/// row per search entry; a row per completion attribute; one `dim`).
pub fn write_indexes(
    store: &CorpusStore,
    checks: &[u64],
    types: &TypeIndex,
    search: (&[usize], &[Schema], &F32Matrix),
    complete: (&[Schema], &F32Matrix),
) -> Result<u64, StoreError> {
    let (ids, search_schemas, search_rows) = search;
    let (complete_schemas, complete_rows) = complete;
    assert_eq!(ids.len(), search_schemas.len(), "id per schema");
    assert_eq!(ids.len(), search_rows.rows(), "row per schema");
    let attributes: usize = complete_schemas.iter().map(Schema::len).sum();
    assert_eq!(attributes, complete_rows.rows(), "row per schema attribute");
    assert_eq!(search_rows.dim(), complete_rows.dim(), "one embedding dim");
    let binding = binding_of(store);
    let (shard_files, entries) = directory_of(store, checks)?;
    // One ref per search entry, then one per completion schema.
    let (schemas, mut search_refs) = schema_table(search_schemas.iter().chain(complete_schemas))?;
    let complete_refs = search_refs.split_off(search_schemas.len());

    let mut out = Vec::new();
    out.extend_from_slice(SIDECAR_MAGIC);
    put_u32(&mut out, SIDECAR_VERSION);
    put_u64(&mut out, binding.store_fingerprint);
    put_u64(&mut out, binding.tables);
    put_str(&mut out, &binding.format, SIDECAR_FILE)?;
    put_str(&mut out, &binding.name, SIDECAR_FILE)?;
    put_u64(&mut out, search_rows.dim() as u64);
    put_section(&mut out, |out| {
        put_u64(out, shard_files.len() as u64);
        for f in &shard_files {
            put_str(out, f, DIRECTORY)?;
        }
        for e in &entries {
            put_u32(out, e.shard);
            put_u64(out, e.offset);
            put_u64(out, e.len);
            put_u64(out, e.check);
        }
        Ok(())
    })?;
    put_section(&mut out, |out| {
        put_u64(out, types.len() as u64);
        put_arena(out, types.labels().iter(), TYPES)?;
        for postings in types.posting_lists() {
            put_u64(out, postings.len() as u64);
        }
        for p in types.posting_lists().flatten() {
            put_u64(out, p.table as u64);
            put_u64(out, p.column as u64);
            put_u8(out, method_tag(p.method));
            put_u8(out, ontology_tag(p.ontology));
            put_u32(out, p.similarity.to_bits());
        }
        Ok(())
    })?;
    put_section(&mut out, |out| {
        put_u64(out, ids.len() as u64);
        for &id in ids {
            put_u64(out, id as u64);
        }
        put_u64(out, schemas.len() as u64);
        for s in &schemas {
            put_schema(out, s, SEARCH)?;
        }
        for &r in &search_refs {
            put_u32(out, r);
        }
        put_matrix(out, search_rows);
        Ok(())
    })?;
    put_section(&mut out, |out| {
        put_u64(out, complete_refs.len() as u64);
        for &r in &complete_refs {
            put_u32(out, r);
        }
        put_matrix(out, complete_rows);
        Ok(())
    })?;
    let sum = checksum(&out);
    put_u64(&mut out, sum);
    out.extend_from_slice(SIDECAR_FOOTER_MAGIC);

    crate::persist::write_durably(store.path(), SIDECAR_FILE, &out)?;
    Ok(out.len() as u64)
}

// ---------------------------------------------------------------- matrices

/// A row-major `f32` matrix whose storage is either owned or a live
/// zero-copy view into a mapped sidecar. Rows are served as
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
/// A colv1 block is checked against its seal before it is decoded, and
/// the seal against the check value the directory recorded at index
/// time, so block-level corruption (or a shard file swapped for another
/// valid one) surfaces as a typed error, never a wrong table.
pub struct LazyCorpus {
    name: String,
    format: StoreFormat,
    /// `(file name, bytes)` per shard, manifest (id) order.
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
    /// when `id` is out of range; corruption and check-value mismatches
    /// are typed errors.
    ///
    /// # Errors
    /// [`StoreError::Corrupt`] when the block fails to decode or its check
    /// value is not the one the directory recorded.
    pub fn get(&self, id: TableId) -> Result<Option<AnnotatedTable>, StoreError> {
        let Some(entry) = self.entries.get(id) else {
            return Ok(None);
        };
        let (file, arena) = self
            .shards
            .get(entry.shard as usize)
            .ok_or_else(|| corrupt(DIRECTORY, "shard ordinal out of range"))?;
        let (at, check) =
            codec_for(self.format).read_block(arena.bytes(), (entry.offset, entry.len), file)?;
        if check != entry.check {
            return Err(corrupt(
                file,
                format!(
                    "table {id} check value {check:#018x} != directory {:#018x}",
                    entry.check
                ),
            ));
        }
        Ok(Some(at))
    }
}

// ----------------------------------------------------------------- loading

/// The raw parts of the search index as persisted in the sidecar.
#[derive(Debug)]
pub struct SearchParts {
    /// Stable table id per entry.
    pub ids: Vec<usize>,
    /// Schema per entry.
    pub schemas: Vec<Schema>,
    /// One schema embedding per entry.
    pub rows: F32Matrix,
}

/// The raw parts of the completion index as persisted in the sidecar.
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

/// Validates the container end to end (magic, footer, checksum, version,
/// binding) and returns a cursor positioned at the first section, plus
/// the embedding `dim`. The cursor's bounds exclude the checksum/footer
/// trailer, so section reads can never wander into it.
fn open_container<'a>(
    bytes: &'a [u8],
    binding: &SidecarBinding,
) -> Result<(Cursor<'a>, usize), SidecarIssue> {
    let file = SIDECAR_FILE;
    let trailer = 8 + SIDECAR_FOOTER_MAGIC.len();
    if bytes.len() < SIDECAR_MAGIC.len() + trailer {
        return Err(corrupt(
            file,
            format!("sidecar of {} bytes is truncated", bytes.len()),
        )
        .into());
    }
    if &bytes[..SIDECAR_MAGIC.len()] != SIDECAR_MAGIC {
        return Err(corrupt(file, "bad file magic (not a sidecar)").into());
    }
    if &bytes[bytes.len() - SIDECAR_FOOTER_MAGIC.len()..] != SIDECAR_FOOTER_MAGIC {
        return Err(corrupt(file, "bad footer magic (sidecar not fully written)").into());
    }
    let body = bytes.len() - trailer;
    let stored = u64::from_le_bytes(bytes[body..body + 8].try_into().expect("8"));
    if checksum(&bytes[..body]) != stored {
        return Err(corrupt(file, "checksum mismatch (sidecar bytes were altered)").into());
    }
    let mut cur = Cursor {
        bytes: &bytes[..body],
        pos: SIDECAR_MAGIC.len(),
        file,
    };
    let version = cur.u32()?;
    if version != SIDECAR_VERSION {
        return Err(SidecarIssue::Stale {
            detail: format!("sidecar version {version}, this build reads {SIDECAR_VERSION}"),
        });
    }
    let store_fingerprint = cur.u64()?;
    let tables = cur.u64()?;
    let format = cur.str()?;
    let name = cur.str()?;
    if store_fingerprint != binding.store_fingerprint
        || tables != binding.tables
        || format != binding.format
        || name != binding.name
    {
        return Err(SidecarIssue::Stale {
            detail: format!(
                "built for corpus `{name}` ({tables} tables, {format}, {store_fingerprint:#018x}); \
                 store is `{}` ({} tables, {}, {:#018x})",
                binding.name, binding.tables, binding.format, binding.store_fingerprint
            ),
        });
    }
    let dim = cur.u64()?;
    let dim = cur.len_of(dim, "embedding dim")?;
    Ok((cur, dim))
}

/// Reads the next section of `cur` with `parse`, which sees the
/// section's bytes and nothing after them and must consume them
/// exactly. Every error is filed under `name`.
fn section<'a, T>(
    cur: &mut Cursor<'a>,
    name: &'a str,
    parse: impl FnOnce(&mut Cursor<'a>) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let mut sub = Cursor {
        bytes: cur.bytes,
        pos: cur.pos,
        file: name,
    };
    let len = sub.u64()?;
    let len = sub.len_of(len, "section length")?;
    let end = sub
        .pos
        .checked_add(len)
        .filter(|&end| end <= cur.bytes.len())
        .ok_or_else(|| corrupt(name, "section extends past the checksum"))?;
    sub.bytes = &cur.bytes[..end];
    let value = parse(&mut sub)?;
    if sub.pos != end {
        // A length field lied, here or upstream.
        return Err(corrupt(
            name,
            format!("section parsed to byte {} but ends at {end}", sub.pos),
        ));
    }
    cur.pos = end;
    Ok(value)
}

/// A schema as [`put_schema`] wrote it: the arena's two buffers are
/// copied out of the mapping in one piece each and checked once, and
/// become the schema's list as they are.
fn read_schema(cur: &mut Cursor<'_>) -> Result<Schema, StoreError> {
    let n = cur.u32()? as usize;
    Ok(Schema::from_arena(cur.arena(n)?))
}

/// The next `count` records of `N` bytes each, bounds-checked as one
/// slice: a count that runs past the section fails here, before anything
/// is allocated for the records.
fn records<'a, const N: usize>(
    cur: &mut Cursor<'a>,
    count: usize,
) -> Result<&'a [[u8; N]], StoreError> {
    let len = count
        .checked_mul(N)
        .ok_or_else(|| corrupt(cur.file, "record count overflows"))?;
    let (records, _) = cur.take(len)?.as_chunks::<N>();
    Ok(records)
}

/// The `N` bytes at `at` of a fixed-width record.
fn field<const N: usize>(record: &[u8], at: usize) -> [u8; N] {
    record[at..at + N]
        .try_into()
        .expect("field inside its record")
}

/// One schema per `u32` ref into `table`, which every ref must index.
fn read_refs(
    cur: &mut Cursor<'_>,
    count: usize,
    table: &[Schema],
) -> Result<Vec<Schema>, StoreError> {
    let refs = records::<4>(cur, count)?;
    let mut schemas = Vec::with_capacity(refs.len());
    for &r in refs {
        let r = u32::from_le_bytes(r);
        let schema = table.get(r as usize).ok_or_else(|| {
            corrupt(
                cur.file,
                format!("schema ref {r} past the table of {}", table.len()),
            )
        })?;
        schemas.push(schema.clone());
    }
    Ok(schemas)
}

/// Skips the zero padding [`put_matrix`] wrote and views the `rows ×
/// dim` matrix behind it in `arena` (whose bytes `cur` walks).
fn read_matrix(
    cur: &mut Cursor<'_>,
    arena: &Arc<Arena>,
    rows: usize,
    dim: usize,
) -> Result<F32Matrix, StoreError> {
    cur.take((8 - cur.pos % 8) % 8)?;
    let matrix = F32Matrix::from_arena(arena, cur.pos, rows, dim, cur.file)?;
    // `from_arena` refused a size that overflows.
    cur.take(rows * dim * 4)?;
    Ok(matrix)
}

fn read_directory(
    cur: &mut Cursor<'_>,
    tables: usize,
) -> Result<(Vec<String>, Vec<DirEntry>), StoreError> {
    let nshards = cur.u64()?;
    let nshards = cur.len_of(nshards, "shard count")?;
    let mut files = Vec::with_capacity(cur.cap(nshards));
    for _ in 0..nshards {
        files.push(cur.str()?);
    }
    let records = records::<28>(cur, tables)?;
    let mut entries = Vec::with_capacity(records.len());
    for r in records {
        let entry = DirEntry {
            shard: u32::from_le_bytes(field(r, 0)),
            offset: u64::from_le_bytes(field(r, 4)),
            len: u64::from_le_bytes(field(r, 12)),
            check: u64::from_le_bytes(field(r, 20)),
        };
        if entry.shard as usize >= nshards {
            return Err(corrupt(
                cur.file,
                format!("shard ordinal {} out of range", entry.shard),
            ));
        }
        entries.push(entry);
    }
    Ok((files, entries))
}

/// The label arena, one posting count per label, then every posting in
/// label order. The counts are summed (checked) and the postings'
/// bytes bounds-checked as one slice before either list is allocated.
fn read_types(cur: &mut Cursor<'_>) -> Result<TypeIndex, StoreError> {
    let nlabels = cur.u64()?;
    let nlabels = cur.len_of(nlabels, "label count")?;
    let labels = cur.arena(nlabels)?;
    if labels
        .iter()
        .zip(labels.iter().skip(1))
        .any(|(a, b)| a >= b)
    {
        // Sorted-unique labels are what makes lookup's binary search
        // correct; anything else is structural damage.
        return Err(corrupt(cur.file, "labels are not sorted and distinct"));
    }
    let counts = records::<8>(cur, nlabels)?;
    let mut total = 0usize;
    for &count in counts {
        let count = cur.len_of(u64::from_le_bytes(count), "posting count")?;
        total = total
            .checked_add(count)
            .ok_or_else(|| corrupt(cur.file, "posting counts overflow"))?;
    }
    let records = records::<22>(cur, total)?;
    let mut starts = Vec::with_capacity(nlabels + 1);
    let mut end = 0;
    starts.push(end);
    for &count in counts {
        // Each count fit a `usize`, and so did their sum.
        end += u64::from_le_bytes(count) as usize;
        starts.push(end);
    }
    let mut postings = Vec::with_capacity(records.len());
    for r in records {
        postings.push(TypePosting {
            table: cur.len_of(u64::from_le_bytes(field(r, 0)), "posting table id")?,
            column: cur.len_of(u64::from_le_bytes(field(r, 8)), "posting column")?,
            method: method_from_tag(r[16])
                .ok_or_else(|| corrupt(cur.file, "unknown method tag"))?,
            ontology: ontology_from_tag(r[17])
                .ok_or_else(|| corrupt(cur.file, "unknown ontology tag"))?,
            similarity: f32::from_bits(u32::from_le_bytes(field(r, 18))),
        });
    }
    Ok(TypeIndex::from_raw_parts(labels, postings, starts))
}

/// The search parts, and the schema table the completion section's
/// refs point into.
fn read_search(
    cur: &mut Cursor<'_>,
    arena: &Arc<Arena>,
    dim: usize,
) -> Result<(SearchParts, Vec<Schema>), StoreError> {
    let entries = cur.u64()?;
    let entries = cur.len_of(entries, "search entries")?;
    let id_records = records::<8>(cur, entries)?;
    let mut ids = Vec::with_capacity(id_records.len());
    for &id in id_records {
        ids.push(cur.len_of(u64::from_le_bytes(id), "table id")?);
    }
    let nschemas = cur.u64()?;
    let nschemas = cur.len_of(nschemas, "schema table length")?;
    let mut table = Vec::with_capacity(cur.cap(nschemas));
    for _ in 0..nschemas {
        table.push(read_schema(cur)?);
    }
    let schemas = read_refs(cur, entries, &table)?;
    let rows = read_matrix(cur, arena, entries, dim)?;
    Ok((SearchParts { ids, schemas, rows }, table))
}

fn read_complete(
    cur: &mut Cursor<'_>,
    arena: &Arc<Arena>,
    dim: usize,
    table: &[Schema],
) -> Result<CompleteParts, StoreError> {
    let nschemas = cur.u64()?;
    let nschemas = cur.len_of(nschemas, "schema count")?;
    let schemas = read_refs(cur, nschemas, table)?;
    let mut starts = Vec::with_capacity(schemas.len() + 1);
    let mut total = 0usize;
    starts.push(total);
    for s in &schemas {
        total = total
            .checked_add(s.len())
            .ok_or_else(|| corrupt(cur.file, "schema rows overflow"))?;
        starts.push(total);
    }
    let rows = read_matrix(cur, arena, total, dim)?;
    Ok(CompleteParts {
        schemas,
        starts,
        rows,
    })
}

/// Binds a parsed directory to `store` as it is now and maps its shard
/// segments: the shard file list against the manifest, a per-shard fold
/// of the directory's table check values against each manifest entry,
/// and every span against its mapped segment.
fn bind_directory(
    store: &CorpusStore,
    files: &[String],
    entries: Vec<DirEntry>,
) -> Result<LazyCorpus, SidecarIssue> {
    let stale = |detail: String| SidecarIssue::Stale { detail };
    let shards = store.table_ids();
    if files.len() != shards.len() {
        return Err(stale(format!(
            "sidecar lists {} shards, manifest has {}",
            files.len(),
            shards.len()
        )));
    }
    for (s, ((entry, ids), file)) in shards.iter().zip(files).enumerate() {
        if *file != entry.file {
            return Err(stale(format!(
                "sidecar references shard `{file}`, manifest has `{}`",
                entry.file
            )));
        }
        // Fold the directory's per-table check values in the shard's
        // write order and compare with the manifest entry. This is what
        // makes a sidecar from an older (same-name, same-shape) corpus
        // detectable without touching a single corpus page.
        let mut checks = Vec::with_capacity(ids.len());
        for &gid in ids {
            let Some(de) = entries.get(gid) else {
                return Err(stale(format!(
                    "table id {gid} outside the sidecar directory"
                )));
            };
            if de.shard as usize != s {
                return Err(stale(format!(
                    "table {gid} recorded in shard {} not {s}",
                    de.shard
                )));
            }
            checks.push(de.check);
        }
        let folded = combine_fingerprints(checks);
        if folded != entry.fingerprint {
            return Err(stale(format!(
                "shard `{}` fingerprint fold {folded:#018x} != manifest {:#018x}",
                entry.id, entry.fingerprint
            )));
        }
    }

    // Map the shard segments (no pages are touched yet) and bounds-check
    // every directory span once, so `get` failures can only mean real
    // block corruption.
    let mut arenas = Vec::with_capacity(shards.len());
    for (entry, _) in &shards {
        arenas.push((entry.file.clone(), Arc::new(store.map_shard(entry)?)));
    }
    for (gid, de) in entries.iter().enumerate() {
        let (shard_file, arena) = &arenas[de.shard as usize];
        let inside = de
            .offset
            .checked_add(de.len)
            .is_some_and(|end| end <= arena.bytes().len() as u64);
        if !inside {
            return Err(corrupt(
                DIRECTORY,
                format!("table {gid} span outside shard `{shard_file}`"),
            )
            .into());
        }
    }
    Ok(LazyCorpus {
        name: store.name(),
        format: store.format(),
        shards: arenas,
        entries,
    })
}

/// Loads, verifies, and assembles the sidecar of `store`.
///
/// O(index size), not O(corpus): one file is mapped and read once, shard
/// segments are mapped but no table block is decoded. Verification
/// covers container structure (magic, footer, whole-file checksum,
/// every section consumed exactly), the binding to the store's current
/// fingerprint/format/size, the directory's shard file list against the
/// manifest, and a per-shard fold of the directory's table check values
/// against each manifest entry.
///
/// # Errors
/// [`SidecarIssue`] describing exactly why the sidecar cannot be served
/// (missing / stale / corrupt); the engine's boot then rewrites it.
pub fn load_indexes(store: &CorpusStore) -> Result<SidecarIndexes, SidecarIssue> {
    let binding = binding_of(store);
    let arena = match Arena::load(&store.path().join(SIDECAR_FILE)) {
        Ok(arena) => Arc::new(arena),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(SidecarIssue::Missing),
        Err(e) => return Err(StoreError::Io(e).into()),
    };
    let (mut cur, dim) = open_container(arena.bytes(), &binding)?;
    let tables = cur.len_of(binding.tables, "table count")?;
    let (files, entries) = section(&mut cur, DIRECTORY, |cur| read_directory(cur, tables))?;
    let types = section(&mut cur, TYPES, read_types)?;
    let (search, schemas) = section(&mut cur, SEARCH, |cur| read_search(cur, &arena, dim))?;
    let complete = section(&mut cur, COMPLETE, |cur| {
        read_complete(cur, &arena, dim, &schemas)
    })?;
    if cur.pos != cur.bytes.len() {
        return Err(corrupt(
            SIDECAR_FILE,
            format!("sections end at byte {} of {}", cur.pos, cur.bytes.len()),
        )
        .into());
    }
    Ok(SidecarIndexes {
        corpus: bind_directory(store, &files, entries)?,
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
    use gittables_annotate::Method;
    use gittables_ontology::OntologyKind;
    use gittables_table::{CellArena, Table};

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

    fn types_of(labels: &[&str]) -> TypeIndex {
        let posting = TypePosting {
            table: 0,
            column: 1,
            method: Method::Semantic,
            ontology: OntologyKind::SchemaOrg,
            similarity: 0.5,
        };
        TypeIndex::from_raw_parts(
            CellArena::from_values(labels).unwrap(),
            vec![posting; labels.len()],
            (0..=labels.len()).collect(),
        )
    }

    /// Minimal write path: the store's real directory, `types`, and
    /// one-entry indexes of dim 3. The full builder lives in
    /// `gittables_serve`.
    fn write_minimal(store: &CorpusStore, types: &TypeIndex) -> u64 {
        write_with_schema(store, types, Schema::new(["id", "name"]))
    }

    /// [`write_minimal`] with `schema` as the one search entry's and the
    /// one completion schema, whatever its length.
    fn write_with_schema(store: &CorpusStore, types: &TypeIndex, schema: Schema) -> u64 {
        let checks = store.check_values().unwrap();
        let rows = schema.len();
        let schema = [schema];
        write_indexes(
            store,
            &checks,
            types,
            (
                &[0],
                &schema,
                &F32Matrix::from_vec(vec![1.0, 2.0, 3.0], 1, 3),
            ),
            (&schema, &F32Matrix::from_vec(vec![1.0; rows * 3], rows, 3)),
        )
        .unwrap()
    }

    /// `(offset of the length prefix, end)` of the four sections of a
    /// well-formed container.
    fn sections(bytes: &[u8]) -> [(usize, usize); 4] {
        let mut cur = Cursor {
            bytes,
            pos: SIDECAR_MAGIC.len() + 4 + 8 + 8,
            file: "test",
        };
        cur.str().unwrap();
        cur.str().unwrap();
        cur.u64().unwrap();
        [(); 4].map(|()| {
            let at = cur.pos;
            let len = cur.u64().unwrap() as usize;
            cur.take(len).unwrap();
            (at, cur.pos)
        })
    }

    /// Writes `clean` with `edit` applied and the checksum recomputed —
    /// damage the checksum cannot see — and returns what the load says.
    fn load_edited(
        store: &CorpusStore,
        clean: &[u8],
        edit: impl FnOnce(&mut [u8]),
    ) -> SidecarIssue {
        let mut bytes = clean.to_vec();
        edit(&mut bytes);
        let body = bytes.len() - 16;
        let sum = checksum(&bytes[..body]);
        bytes[body..body + 8].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(store.path().join(SIDECAR_FILE), bytes).unwrap();
        load_indexes(store).expect_err("edited sidecar must be refused")
    }

    fn corrupt_parts(issue: SidecarIssue) -> (String, String) {
        match issue {
            SidecarIssue::Corrupt(StoreError::Corrupt { file, detail }) => (file, detail),
            other => panic!("expected corrupt, got {other}"),
        }
    }

    fn stale_detail(issue: SidecarIssue) -> String {
        match issue {
            SidecarIssue::Stale { detail } => detail,
            other => panic!("expected stale, got {other}"),
        }
    }

    #[test]
    fn roundtrip_and_lazy_get_both_formats() {
        for format in [StoreFormat::Jsonl, StoreFormat::ColV1] {
            let dir = tmp(&format!("rt_{format}"));
            let c = corpus(7);
            let store = save_store_as(&c, &dir, 3, format).unwrap();
            let written = write_minimal(&store, &types_of(&["id", "name"]));
            assert_eq!(
                written,
                std::fs::metadata(dir.join(SIDECAR_FILE)).unwrap().len()
            );
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
            assert_eq!(loaded.complete.rows.as_slice(), &[1.0; 6]);
            assert_eq!(loaded.types, types_of(&["id", "name"]));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Counted, not clocked: a lazy get hashes its one block body once
    /// (the seal check) and nothing else.
    #[test]
    fn a_lazy_get_hashes_its_one_block_body_once() {
        let dir = tmp("hashed_get");
        let store = save_store_as(&corpus(5), &dir, 2, StoreFormat::ColV1).unwrap();
        write_minimal(&store, &types_of(&[]));
        let lazy = load_indexes(&store).unwrap().corpus;
        for id in 0..lazy.len() {
            let body = lazy.entries[id].len - crate::colv1::SEAL_LEN as u64;
            crate::checksum::take_hashed();
            assert!(lazy.get(id).unwrap().is_some());
            assert_eq!(crate::checksum::take_hashed(), body, "table {id}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_stale_and_corrupt_are_distinguished() {
        let dir = tmp("issues");
        let c = corpus(4);
        let store = save_store_as(&c, &dir, 2, StoreFormat::ColV1).unwrap();
        // Missing before anything is written.
        assert!(matches!(
            load_indexes(&store).unwrap_err(),
            SidecarIssue::Missing
        ));
        write_minimal(&store, &types_of(&[]));
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
        let store = save_store_as(&corpus(3), &dir, 2, StoreFormat::ColV1).unwrap();
        write_minimal(&store, &types_of(&["id"]));
        let path = dir.join(SIDECAR_FILE);
        let clean = std::fs::read(&path).unwrap();
        for at in (0..clean.len()).step_by(7) {
            let mut bad = clean.clone();
            bad[at] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            match load_indexes(&store) {
                Err(SidecarIssue::Corrupt(_) | SidecarIssue::Stale { .. }) => {}
                other => panic!(
                    "flip at {at} must be typed, got {:?}",
                    other.err().map(|e| e.to_string())
                ),
            }
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(load_indexes(&store).is_ok(), "restored");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_section_length_off_by_one_is_corrupt_naming_the_section() {
        let dir = tmp("prefix");
        let store = save_store_as(&corpus(3), &dir, 2, StoreFormat::ColV1).unwrap();
        write_minimal(&store, &types_of(&["id"]));
        let clean = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
        let names = [DIRECTORY, TYPES, SEARCH, COMPLETE];
        for ((at, _), name) in sections(&clean).into_iter().zip(names) {
            let len = u64::from_le_bytes(clean[at..at + 8].try_into().unwrap());
            for lied in [len + 1, len - 1] {
                let issue = load_edited(&store, &clean, |bytes| {
                    bytes[at..at + 8].copy_from_slice(&lied.to_le_bytes());
                });
                let (file, detail) = corrupt_parts(issue);
                assert_eq!(file, name, "length {len} given as {lied}: {detail}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn another_version_in_a_valid_container_is_stale() {
        let dir = tmp("version");
        let store = save_store_as(&corpus(3), &dir, 2, StoreFormat::ColV1).unwrap();
        write_minimal(&store, &types_of(&[]));
        let clean = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
        for version in [1u32, 2, 3, 4] {
            let issue = load_edited(&store, &clean, |bytes| {
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
            });
            assert_eq!(
                stale_detail(issue),
                format!("sidecar version {version}, this build reads 5")
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The checks behind the checksum, each met by bytes the checksum
    /// vouches for.
    #[test]
    fn resealed_damage_is_caught_by_the_check_it_breaks() {
        let dir = tmp("reseal");
        let store = save_store_as(&corpus(3), &dir, 2, StoreFormat::ColV1).unwrap();
        write_minimal(&store, &types_of(&["id"]));
        let clean = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
        let [(dir_at, dir_end), (types_at, types_end), (search_at, _), (complete_at, _)] =
            sections(&clean);

        // Directory: first shard file name, then the last entry's
        // check value, length and shard ordinal.
        let name_at = dir_at + 8 + 8 + 4;
        let detail = stale_detail(load_edited(&store, &clean, |b| b[name_at] ^= 1));
        assert!(detail.contains("references shard"), "{detail}");
        let detail = stale_detail(load_edited(&store, &clean, |b| b[dir_end - 1] ^= 1));
        assert!(detail.contains("fingerprint fold"), "{detail}");
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| b[dir_end - 9] = 0x7f));
        assert_eq!(file, DIRECTORY);
        assert!(detail.contains("span outside shard"), "{detail}");
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| b[dir_end - 28] = 9));
        assert_eq!(file, DIRECTORY);
        assert!(detail.contains("shard ordinal 9 out of range"), "{detail}");

        // Types: the one posting ends `method, ontology, similarity`.
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| b[types_end - 6] = 9));
        assert_eq!(
            (file.as_str(), detail.as_str()),
            (TYPES, "unknown method tag")
        );
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| b[types_end - 5] = 9));
        assert_eq!(
            (file.as_str(), detail.as_str()),
            (TYPES, "unknown ontology tag")
        );

        // A posting count whose records run past the section: too many
        // to fit, and so many that their byte length overflows. Either
        // is refused before a list that size is allocated.
        let count_at = types_end - 22 - 8;
        for count in [2, 1 << 40, u64::MAX] {
            let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| {
                b[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
            }));
            assert_eq!(file, TYPES, "count {count}: {detail}");
        }

        // The label arena's one end (after the length and the label
        // count) short of and past "id": the counts behind it are read
        // a byte early or late, and the section no longer adds up.
        let label_end = types_at + 8 + 8;
        assert_eq!(clean[label_end..label_end + 4], 2u32.to_le_bytes());
        for end in [1u32, 3] {
            let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| {
                b[label_end..label_end + 4].copy_from_slice(&end.to_le_bytes());
            }));
            assert_eq!(file, TYPES, "label end {end}: {detail}");
        }

        // The `[id, name]` schema's arena (after the length, entry
        // count, id, table length and attribute count): ends 2 and 6.
        let ends_at = search_at + 8 + 8 + 8 + 8 + 4;
        assert_eq!(clean[ends_at + 4..ends_at + 8], 6u32.to_le_bytes());
        // An end that decreases.
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| {
            b[ends_at + 4..ends_at + 8].copy_from_slice(&1u32.to_le_bytes());
        }));
        assert_eq!(file, SEARCH);
        assert!(detail.contains("bad arena offsets"), "{detail}");
        // A last end short of the names: the ref behind them is read
        // from the name bytes.
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| {
            b[ends_at + 4..ends_at + 8].copy_from_slice(&5u32.to_le_bytes());
        }));
        assert_eq!(file, SEARCH);
        assert!(detail.contains("past the table"), "{detail}");
        // A first end past the last.
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| {
            b[ends_at..ends_at + 4].copy_from_slice(&7u32.to_le_bytes());
        }));
        assert_eq!(file, SEARCH);
        assert!(detail.contains("bad arena offsets"), "{detail}");

        // Schema refs at and past the one-schema table: the search
        // entry's (after the length, entry count, id, table length and
        // the `[id, name]` schema) and the completion schema's.
        let search_ref = search_at + 8 + 8 + 8 + 8 + (4 + 2 * 4 + 6);
        let complete_ref = complete_at + 8 + 8;
        for (at, name) in [(search_ref, SEARCH), (complete_ref, COMPLETE)] {
            assert_eq!(clean[at..at + 4], 0u32.to_le_bytes(), "{name} ref at {at}");
            for r in [1, u32::MAX] {
                let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| {
                    b[at..at + 4].copy_from_slice(&r.to_le_bytes());
                }));
                assert_eq!(file, name);
                assert_eq!(detail, format!("schema ref {r} past the table of 1"));
            }
        }

        // Two labels: the label count, the arena's ends and "idname",
        // then their two posting counts.
        write_minimal(&store, &types_of(&["id", "name"]));
        let clean = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
        let [_, (types_at, _), _, _] = sections(&clean);
        let blob_at = types_at + 8 + 8 + 2 * 4;
        assert_eq!(&clean[blob_at..blob_at + 6], b"idname");
        // Resealed out of order: "zd" after "name".
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| b[blob_at] = b'z'));
        assert_eq!(file, TYPES);
        assert!(detail.contains("not sorted and distinct"), "{detail}");
        // Counts of `u64::MAX` each, and counts whose sum overflows:
        // refused while summing, before any posting is read.
        let counts_at = blob_at + 6;
        for (first, second) in [(u64::MAX, u64::MAX), (u64::MAX, 1), (1 << 63, 1 << 63)] {
            let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| {
                b[counts_at..counts_at + 8].copy_from_slice(&first.to_le_bytes());
                b[counts_at + 8..counts_at + 16].copy_from_slice(&second.to_le_bytes());
            }));
            assert_eq!(
                (file.as_str(), detail.as_str()),
                (TYPES, "posting counts overflow")
            );
        }

        // An end inside a multi-byte name: `["é", "x"]` has ends 2 and 3.
        write_with_schema(&store, &types_of(&["id"]), Schema::new(["é", "x"]));
        let clean = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
        let [_, _, (search_at, _), _] = sections(&clean);
        let ends_at = search_at + 8 + 8 + 8 + 8 + 4;
        assert_eq!(clean[ends_at..ends_at + 4], 2u32.to_le_bytes());
        let (file, detail) = corrupt_parts(load_edited(&store, &clean, |b| {
            b[ends_at..ends_at + 4].copy_from_slice(&1u32.to_le_bytes());
        }));
        assert_eq!(file, SEARCH);
        assert!(detail.contains("bad arena offsets"), "{detail}");

        // Labels out of order and repeated, as a writer would persist them.
        for labels in [["name", "id"], ["id", "id"]] {
            write_minimal(&store, &types_of(&labels));
            let (file, detail) = corrupt_parts(load_indexes(&store).unwrap_err());
            assert_eq!(file, TYPES);
            assert!(detail.contains("not sorted and distinct"), "{detail}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_schema_is_written_once_and_decoded_into_one_shared_list() {
        let dim = 3;
        let schema = Schema::new(["id", "name"]);
        let mut search_len = Vec::new();
        for k in 1..=4 {
            let dir = tmp(&format!("share{k}"));
            let store = save_store_as(&corpus(k), &dir, 2, StoreFormat::ColV1).unwrap();
            let checks = store.check_values().unwrap();
            let ids: Vec<usize> = (0..k).collect();
            write_indexes(
                &store,
                &checks,
                &types_of(&[]),
                (
                    &ids,
                    &vec![schema.clone(); k],
                    &F32Matrix::from_vec(vec![0.5; k * dim], k, dim),
                ),
                (
                    std::slice::from_ref(&schema),
                    &F32Matrix::from_vec(vec![0.25; 2 * dim], 2, dim),
                ),
            )
            .unwrap();
            let bytes = std::fs::read(dir.join(SIDECAR_FILE)).unwrap();
            let names = b"idname";
            let written = bytes.windows(names.len()).filter(|w| w == names).count();
            assert_eq!(written, 1, "{k} tables write the schema once");
            // Length, entry count, ids, table length, the one schema
            // (count, two ends, names), refs; then the padding up to the
            // matrix.
            let [_, _, (at, end), _] = sections(&bytes);
            let refs_end = at + 8 + 8 + 8 * k + 8 + (4 + 2 * 4 + 6) + 4 * k;
            let padding = end - k * dim * 4 - refs_end;
            assert!(padding < 8 && bytes[refs_end..refs_end + padding].iter().all(|&b| b == 0));
            search_len.push(end - at - padding);

            let loaded = load_indexes(&store).unwrap();
            let first = |s: &Schema| s.iter().next().map(str::as_ptr);
            let list = first(&loaded.complete.schemas[0]);
            assert_eq!(loaded.search.schemas.len(), k);
            for s in &loaded.search.schemas {
                assert_eq!(s, &schema);
                assert_eq!(first(s), list, "one list, shared");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        // Past the alignment padding, one more entry is an id, a ref
        // and a row.
        for k in 1..4 {
            assert_eq!(search_len[k] - search_len[k - 1], 8 + 4 + 4 * dim);
        }
    }

    /// The schemas `gittables_table`'s schema tests pin the rendered
    /// bodies of (no names, one empty name, every kind of escape and
    /// non-ASCII) come back from a sidecar equal, rendering the same
    /// bytes.
    #[test]
    fn odd_schemas_round_trip_through_a_sidecar() {
        let odd = [
            Schema::default(),
            Schema::new([""]),
            Schema::new([
                "say \"hi\"",
                "C:\\dir\\",
                "line\nbreak",
                "\u{1}bell\u{1f}",
                "größe 東京 🦀",
                "",
                "tab\there\r",
            ]),
        ];
        let dir = tmp("odd");
        let store = save_store_as(&corpus(3), &dir, 2, StoreFormat::ColV1).unwrap();
        let checks = store.check_values().unwrap();
        let attributes = odd.iter().map(Schema::len).sum();
        write_indexes(
            &store,
            &checks,
            &types_of(&[]),
            (&[0, 1, 2], &odd, &F32Matrix::from_vec(vec![0.5; 9], 3, 3)),
            (
                &odd,
                &F32Matrix::from_vec(vec![0.25; attributes * 3], attributes, 3),
            ),
        )
        .unwrap();
        let loaded = load_indexes(&store).unwrap();
        for schemas in [&loaded.search.schemas, &loaded.complete.schemas] {
            assert_eq!(schemas, &odd);
            for (got, want) in schemas.iter().zip(&odd) {
                assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(want).unwrap()
                );
            }
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
