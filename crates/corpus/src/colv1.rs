//! `colv1` — the zero-copy binary columnar shard segment format.
//!
//! JSONL shards pay three times on every load: the raw document is read
//! into memory, parsed into a JSON value tree, and only then folded into
//! tables — so cold-start wall time and peak RSS both scale with the
//! *textual* corpus size. A `colv1` segment instead lays every table out
//! as flat, length-prefixed binary columns and is decoded by **slicing**:
//! the file is `mmap`ed (or read once into an arena), fixed-width fields
//! are read in place, and a column's cells are two copies — its offsets
//! and its text blob, the in-memory [`CellArena`] layout — checked once
//! and never split into per-cell `String`s. No intermediate tree, no text
//! parsing, no escape handling.
//!
//! ## Segment layout, version 2 (all integers little-endian)
//!
//! ```text
//! "GTCOLV2\0"                      file magic (8 bytes)
//! table block × N                  see below
//! u64 offset[N]                    byte offset of each table block
//! u64 N                            table count
//! u64 footer_start                 where offset[0] begins
//! "GTCOLF2\0"                      footer magic (8 bytes)
//! ```
//!
//! The footer is written last and read first: a truncated or partially
//! written segment fails the trailing-magic check before any block is
//! touched. Every multi-byte read is bounds-checked against the arena,
//! so corrupted offsets surface as typed [`StoreError::Corrupt`] values,
//! never panics or silent partial loads.
//!
//! ### Table block
//!
//! ```text
//! str name                         str := u32 len + UTF-8 bytes
//! str repository, str path         provenance
//! u8 has_license (+ str license)
//! str topic, u64 file_size
//! u32 num_columns, u64 num_rows
//! column × num_columns:
//!   str name
//!   u8 atomic type tag
//!   cell arena: u32 end_offset[num_rows] (cumulative), then the bytes
//! annotation set × 4 (syntactic/semantic × DBpedia/Schema.org):
//!   u64 num_columns, u32 count
//!   annotation × count: u64 column, u32 type_id, u8 ontology, u8 method,
//!                       u32 similarity (f32 bits)
//!   label arena: u32 end_offset[count], then the bytes
//! u64 seal                         lane checksum of the block's bytes above
//! ```
//!
//! ## The seal
//!
//! Each block ends in [`crate::checksum`]'s lane checksum of its own
//! bytes, and [`decode_block`] compares the two before it reads any
//! field. A single altered byte anywhere in a block — a name, a
//! provenance field, an atomic type tag, an annotation, not only the
//! cells the content fingerprint covers — is therefore a typed
//! [`StoreError::Corrupt`] naming the shard and the block's offset,
//! never a different table. The footer needs no seal of its own: an
//! altered offset moves a block's boundary, and the block it then
//! names fails its seal (or the footer's own consistency checks).
//!
//! Version 1 segments (magic `GTCOLV1\0`) had no seal. There is no
//! reader for them: a store that holds them records manifest version 1,
//! which [`crate::CorpusStore::open`] refuses with a typed error.
//!
//! Cell and label arenas store one shared byte blob plus cumulative end
//! offsets, so decoding cell `i` is two offset reads and one slice.
//!
//! ## Memory mapping
//!
//! Segments are mapped read-only ([`gittables_sys::Mmap`]). Pages stream
//! in on demand and live in the page cache, so a load's peak RSS is the
//! *decoded* corpus, not decoded + raw + tree. An empty file, a refused
//! mapping or a target without one falls back to reading the file once
//! into an owned arena.
//! Caveat shared with every file-mapping reader: truncating a segment
//! while another process has it mapped is undefined behavior at the OS
//! level (`SIGBUS`); stores are private directories, and a store changes
//! only by writing new segments and an atomic manifest rename, never by
//! truncating a segment.

use std::io::Write;
use std::path::Path;

use gittables_annotate::{Annotation, Method, TableAnnotations};
use gittables_ontology::OntologyKind;
use gittables_sys::Mmap;
use gittables_table::{AtomicType, CellArena, Column, Provenance, Table};

use crate::checksum::checksum;
use crate::corpus::AnnotatedTable;
use crate::store::StoreError;

/// Magic bytes opening every `colv1` segment.
pub const FILE_MAGIC: &[u8; 8] = b"GTCOLV2\0";

/// Magic bytes closing every `colv1` segment (the commit mark: a segment
/// without it was never fully written).
pub const FOOTER_MAGIC: &[u8; 8] = b"GTCOLF2\0";

/// Bytes of the seal closing every table block.
const SEAL_LEN: usize = 8;

pub(crate) fn corrupt(file: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        file: file.to_string(),
        detail: detail.into(),
    }
}

// ------------------------------------------------------------------- arena

/// The bytes of a segment: memory-mapped where supported, otherwise read
/// once into an owned buffer. Either way decoding slices out of one
/// contiguous region.
#[derive(Debug)]
pub enum Arena {
    /// Read-once fallback (empty files, a refused or unsupported mapping).
    Owned(Vec<u8>),
    /// Live mapping of the segment file.
    Mapped(Mmap),
}

impl Arena {
    /// Loads `path`, preferring a mapping.
    ///
    /// # Errors
    /// Propagates `open`/`read` failures (including `NotFound`, which the
    /// store maps to [`StoreError::MissingShard`]).
    pub fn load(path: &Path) -> std::io::Result<Arena> {
        let mut file = std::fs::File::open(path)?;
        if let Ok(meta) = file.metadata() {
            let len = usize::try_from(meta.len()).unwrap_or(0);
            if let Some(map) = Mmap::map(&file, len) {
                return Ok(Arena::Mapped(map));
            }
        }
        let mut buf = Vec::new();
        std::io::Read::read_to_end(&mut file, &mut buf)?;
        Ok(Arena::Owned(buf))
    }

    /// The segment bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        match self {
            Arena::Owned(v) => v,
            Arena::Mapped(m) => m.bytes(),
        }
    }
}

// ----------------------------------------------------------------- encoding

/// Tag bytes for [`AtomicType`]; the decoder rejects anything else.
fn atomic_tag(t: AtomicType) -> u8 {
    match t {
        AtomicType::Integer => 0,
        AtomicType::Float => 1,
        AtomicType::Boolean => 2,
        AtomicType::Date => 3,
        AtomicType::String => 4,
        AtomicType::Empty => 5,
    }
}

fn atomic_from_tag(tag: u8) -> Option<AtomicType> {
    Some(match tag {
        0 => AtomicType::Integer,
        1 => AtomicType::Float,
        2 => AtomicType::Boolean,
        3 => AtomicType::Date,
        4 => AtomicType::String,
        5 => AtomicType::Empty,
        _ => return None,
    })
}

// The ontology and method tags are also what the type-postings sidecar
// writes ([`crate::sidecar`]): one table for both formats, so a shard and
// its sidecar cannot disagree on a tag.
pub(crate) fn ontology_tag(o: OntologyKind) -> u8 {
    match o {
        OntologyKind::DBpedia => 0,
        OntologyKind::SchemaOrg => 1,
    }
}

pub(crate) fn ontology_from_tag(tag: u8) -> Option<OntologyKind> {
    Some(match tag {
        0 => OntologyKind::DBpedia,
        1 => OntologyKind::SchemaOrg,
        _ => return None,
    })
}

pub(crate) fn method_tag(m: Method) -> u8 {
    match m {
        Method::Syntactic => 0,
        Method::Semantic => 1,
    }
}

pub(crate) fn method_from_tag(tag: u8) -> Option<Method> {
    Some(match tag {
        0 => Method::Syntactic,
        1 => Method::Semantic,
        _ => return None,
    })
}

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed string. Lengths beyond `u32::MAX` (a 4 GiB single
/// value) are refused at encode time rather than truncated.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str, file: &str) -> Result<(), StoreError> {
    let len = u32::try_from(s.len())
        .map_err(|_| corrupt(file, format!("string of {} bytes overflows u32", s.len())))?;
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Shared byte arena: cumulative end offsets then the blob. Decoding item
/// `i` is `blob[end[i-1]..end[i]]`.
fn put_arena<'a>(
    out: &mut Vec<u8>,
    items: impl Iterator<Item = &'a str> + Clone,
    file: &str,
) -> Result<(), StoreError> {
    let mut end = 0u64;
    for s in items.clone() {
        end += s.len() as u64;
        let end32 = u32::try_from(end)
            .map_err(|_| corrupt(file, format!("arena of {end} bytes overflows u32")))?;
        put_u32(out, end32);
    }
    for s in items {
        out.extend_from_slice(s.as_bytes());
    }
    Ok(())
}

fn encode_annotations(
    out: &mut Vec<u8>,
    set: &TableAnnotations,
    file: &str,
) -> Result<(), StoreError> {
    put_u64(out, set.num_columns as u64);
    let count = u32::try_from(set.annotations.len())
        .map_err(|_| corrupt(file, "annotation count overflows u32"))?;
    put_u32(out, count);
    for a in &set.annotations {
        put_u64(out, a.column as u64);
        put_u32(out, a.type_id);
        put_u8(out, ontology_tag(a.ontology));
        put_u8(out, method_tag(a.method));
        put_u32(out, a.similarity.to_bits());
    }
    put_arena(out, set.annotations.iter().map(|a| a.label.as_str()), file)
}

/// Encodes one sealed table block into `out` (cleared first).
pub(crate) fn encode_table(
    out: &mut Vec<u8>,
    at: &AnnotatedTable,
    file: &str,
) -> Result<(), StoreError> {
    out.clear();
    let t = &at.table;
    put_str(out, t.name(), file)?;
    let p = t.provenance();
    put_str(out, &p.repository, file)?;
    put_str(out, &p.path, file)?;
    match &p.license {
        Some(l) => {
            put_u8(out, 1);
            put_str(out, l, file)?;
        }
        None => put_u8(out, 0),
    }
    put_str(out, &p.topic, file)?;
    put_u64(out, p.file_size as u64);
    let ncols =
        u32::try_from(t.num_columns()).map_err(|_| corrupt(file, "column count overflows u32"))?;
    put_u32(out, ncols);
    put_u64(out, t.num_rows() as u64);
    for c in t.columns() {
        put_str(out, c.name(), file)?;
        put_u8(out, atomic_tag(c.atomic_type()));
        // The column's arena is already the on-disk layout.
        let cells = c.cells();
        out.reserve(cells.ends().len() * 4 + cells.blob().len());
        for end in cells.ends() {
            out.extend_from_slice(&end.to_le_bytes());
        }
        out.extend_from_slice(cells.blob().as_bytes());
    }
    for (method, ontology) in crate::corpus::Corpus::annotation_configs() {
        encode_annotations(out, at.annotations(method, ontology), file)?;
    }
    let seal = checksum(out);
    put_u64(out, seal);
    Ok(())
}

// ----------------------------------------------------------------- decoding

/// Bounds-checked cursor over the segment arena. Also reused by the
/// sidecar decoder ([`crate::sidecar`]), which shares the same
/// never-panic-on-untrusted-bytes obligations.
pub(crate) struct Cursor<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
    pub(crate) file: &'a str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        // `checked_add`: a crafted length near usize::MAX must error, not
        // overflow (dev/test builds run with overflow checks = panic).
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt(self.file, "length overflows the segment"))?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| corrupt(self.file, format!("truncated at byte {}", self.pos)))?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn len_of(&self, v: u64, what: &str) -> Result<usize, StoreError> {
        usize::try_from(v).map_err(|_| corrupt(self.file, format!("{what} {v} overflows usize")))
    }

    /// Capacity hint bounded by the bytes actually left in the segment, so
    /// a corrupt count can never trigger a huge allocation before the
    /// bounds-checked reads reject it.
    pub(crate) fn cap(&self, n: usize) -> usize {
        n.min(self.bytes.len().saturating_sub(self.pos))
    }

    pub(crate) fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(self.file, "string is not valid UTF-8"))
    }

    /// Decodes a shared arena of `count` strings (cumulative end offsets
    /// then the blob) with two copies out of the mapping. The blob is
    /// UTF-8-validated **once** as a whole and [`CellArena::from_raw_parts`]
    /// checks every offset (non-decreasing, on a char boundary, the last
    /// one the blob length) — there is no per-cell allocation on the load
    /// path.
    fn arena(&mut self, count: usize) -> Result<CellArena, StoreError> {
        let index_bytes = count
            .checked_mul(4)
            .ok_or_else(|| corrupt(self.file, "arena count overflows"))?;
        let ends: Vec<u32> = self
            .take(index_bytes)?
            .chunks_exact(4)
            .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("4")))
            .collect();
        let total = ends.last().map_or(0, |&end| end as usize);
        let blob = std::str::from_utf8(self.take(total)?)
            .map_err(|_| corrupt(self.file, "arena bytes are not valid UTF-8"))?;
        CellArena::from_raw_parts(blob.to_string(), ends)
            .map_err(|e| corrupt(self.file, format!("bad arena offsets: {e}")))
    }
}

fn decode_annotations(cur: &mut Cursor<'_>) -> Result<TableAnnotations, StoreError> {
    let num_columns = cur.u64()?;
    let num_columns = cur.len_of(num_columns, "annotation num_columns")?;
    let count = cur.u32()? as usize;
    let mut fixed = Vec::with_capacity(cur.cap(count));
    for _ in 0..count {
        let column = cur.u64()?;
        let column = cur.len_of(column, "annotation column")?;
        let type_id = cur.u32()?;
        let ontology = ontology_from_tag(cur.u8()?)
            .ok_or_else(|| corrupt(cur.file, "unknown ontology tag"))?;
        let method =
            method_from_tag(cur.u8()?).ok_or_else(|| corrupt(cur.file, "unknown method tag"))?;
        let similarity = f32::from_bits(cur.u32()?);
        fixed.push((column, type_id, ontology, method, similarity));
    }
    let labels = cur.arena(count)?;
    let annotations = fixed
        .into_iter()
        .zip(&labels)
        .map(
            |((column, type_id, ontology, method, similarity), label)| Annotation {
                column,
                type_id,
                label: label.to_string(),
                ontology,
                method,
                similarity,
            },
        )
        .collect();
    Ok(TableAnnotations {
        annotations,
        num_columns,
    })
}

fn decode_table(cur: &mut Cursor<'_>) -> Result<AnnotatedTable, StoreError> {
    let name = cur.str()?;
    let repository = cur.str()?;
    let path = cur.str()?;
    let license = match cur.u8()? {
        0 => None,
        1 => Some(cur.str()?),
        _ => return Err(corrupt(cur.file, "bad license tag")),
    };
    let topic = cur.str()?;
    let file_size = cur.u64()?;
    let file_size = cur.len_of(file_size, "file_size")?;
    let ncols = cur.u32()? as usize;
    let nrows = cur.u64()?;
    let nrows = cur.len_of(nrows, "row count")?;
    let mut columns = Vec::with_capacity(cur.cap(ncols));
    for _ in 0..ncols {
        let col_name = cur.str()?;
        let atomic =
            atomic_from_tag(cur.u8()?).ok_or_else(|| corrupt(cur.file, "unknown atomic tag"))?;
        let values = cur.arena(nrows)?;
        columns.push(Column::from_raw_parts(col_name, values, atomic));
    }
    let table = Table::new(name, columns)
        .map_err(|e| corrupt(cur.file, format!("inconsistent table block: {e}")))?
        .with_provenance(Provenance {
            repository,
            path,
            license,
            topic,
            file_size,
        });
    let mut at = AnnotatedTable::new(table);
    for (method, ontology) in crate::corpus::Corpus::annotation_configs() {
        *at.annotations_mut(method, ontology) = decode_annotations(cur)?;
    }
    Ok(at)
}

/// Parses the segment trailer — the only place it is parsed — and returns
/// each table block's `(offset, len)` span, without decoding any block.
/// Every structural violation (missing magic, truncation, a footer index
/// that disagrees with the table count, offsets out of range or out of
/// order) is a typed [`StoreError::Corrupt`]; the function never panics
/// on untrusted bytes. The spans tile `[file magic, footer)`, so a block
/// can never read into the index.
pub(crate) fn block_spans(bytes: &[u8], file: &str) -> Result<Vec<(u64, u64)>, StoreError> {
    let min = FILE_MAGIC.len() + 8 + 8 + FOOTER_MAGIC.len();
    if bytes.len() < min {
        return Err(corrupt(
            file,
            format!("segment of {} bytes is truncated", bytes.len()),
        ));
    }
    if &bytes[..FILE_MAGIC.len()] == b"GTCOLV1\0" {
        return Err(corrupt(
            file,
            "segment version 1 has unsealed blocks; this build reads version 2",
        ));
    }
    if &bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
        return Err(corrupt(file, "bad file magic (not a colv1 segment)"));
    }
    if &bytes[bytes.len() - FOOTER_MAGIC.len()..] != FOOTER_MAGIC {
        return Err(corrupt(
            file,
            "bad footer magic (segment not fully written)",
        ));
    }
    let fixed = bytes.len() - FOOTER_MAGIC.len() - 16;
    let count = u64::from_le_bytes(bytes[fixed..fixed + 8].try_into().expect("8"));
    let footer_start = u64::from_le_bytes(bytes[fixed + 8..fixed + 16].try_into().expect("8"));
    let count = usize::try_from(count).map_err(|_| corrupt(file, "table count overflows usize"))?;
    let footer_start = usize::try_from(footer_start)
        .map_err(|_| corrupt(file, "footer offset overflows usize"))?;
    if count
        .checked_mul(8)
        .and_then(|n| footer_start.checked_add(n))
        != Some(fixed)
    {
        return Err(corrupt(file, "footer index does not match table count"));
    }
    if footer_start < FILE_MAGIC.len() {
        return Err(corrupt(file, "footer overlaps file magic"));
    }
    let mut offsets = Vec::with_capacity(count);
    let mut prev = 0usize;
    for i in 0..count {
        let at = footer_start + i * 8;
        let offset = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8"));
        let offset =
            usize::try_from(offset).map_err(|_| corrupt(file, "block offset overflows usize"))?;
        if offset < FILE_MAGIC.len() || offset >= footer_start || (i > 0 && offset <= prev) {
            return Err(corrupt(file, format!("block offset {offset} out of range")));
        }
        offsets.push(offset);
        prev = offset;
    }
    Ok(offsets
        .iter()
        .enumerate()
        .map(|(i, &off)| {
            let end = offsets.get(i + 1).copied().unwrap_or(footer_start);
            (off as u64, (end - off) as u64)
        })
        .collect())
}

/// Decodes exactly one sealed table block, the one at byte `offset` of
/// the segment (a span produced by [`block_spans`]): the seal is checked
/// first, then the block must consume the bytes it seals exactly. Same
/// typed-error discipline as [`block_spans`].
pub(crate) fn decode_block(
    block: &[u8],
    offset: u64,
    file: &str,
) -> Result<AnnotatedTable, StoreError> {
    let Some(body_len) = block.len().checked_sub(SEAL_LEN) else {
        return Err(corrupt(
            file,
            format!(
                "table block at byte {offset} of {} bytes has no seal",
                block.len()
            ),
        ));
    };
    let (body, seal) = block.split_at(body_len);
    let seal = u64::from_le_bytes(seal.try_into().expect("8"));
    let actual = checksum(body);
    if actual != seal {
        return Err(corrupt(
            file,
            format!(
                "table block at byte {offset}: checksum {actual:#018x} != seal {seal:#018x} \
                 (block bytes were altered)"
            ),
        ));
    }
    let mut cur = Cursor {
        bytes: body,
        pos: 0,
        file,
    };
    let at = decode_table(&mut cur)?;
    if cur.pos != body.len() {
        return Err(corrupt(
            file,
            format!(
                "table block at byte {offset} seals {} bytes, decoded only {}",
                body.len(),
                cur.pos
            ),
        ));
    }
    Ok(at)
}

/// Streaming segment writer: tables are encoded and appended one at a
/// time (one encode buffer of scratch memory), the footer index last.
pub(crate) struct SegmentWriter {
    writer: std::io::BufWriter<std::fs::File>,
    offsets: Vec<u64>,
    pos: u64,
    scratch: Vec<u8>,
    file: String,
    /// Full path, for failpoint filters.
    path: String,
}

impl SegmentWriter {
    pub(crate) fn create(path: &Path, file: String) -> Result<SegmentWriter, StoreError> {
        let handle = std::fs::File::create(path)?;
        let mut writer = std::io::BufWriter::new(handle);
        writer.write_all(FILE_MAGIC)?;
        Ok(SegmentWriter {
            writer,
            offsets: Vec::new(),
            pos: FILE_MAGIC.len() as u64,
            scratch: Vec::new(),
            file,
            path: path.display().to_string(),
        })
    }

    pub(crate) fn push(&mut self, at: &AnnotatedTable) -> Result<(), StoreError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_table(&mut scratch, at, &self.file)?;
        self.writer.write_all(&scratch)?;
        self.offsets.push(self.pos);
        self.pos += scratch.len() as u64;
        self.scratch = scratch;
        Ok(())
    }

    /// Writes the footer and makes the segment durable (flush + fsync).
    pub(crate) fn finish(mut self) -> Result<(), StoreError> {
        let footer_start = self.pos;
        for off in &self.offsets {
            self.writer.write_all(&off.to_le_bytes())?;
        }
        self.writer
            .write_all(&(self.offsets.len() as u64).to_le_bytes())?;
        self.writer.write_all(&footer_start.to_le_bytes())?;
        self.writer.write_all(FOOTER_MAGIC)?;
        self.writer.flush()?;
        if crate::failpoint::hit("store::shard_fsync", &self.path).is_some() {
            return Err(crate::failpoint::injected("store::shard_fsync").into());
        }
        self.writer.get_ref().sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gittables_table::Table;

    fn sample() -> AnnotatedTable {
        let t = Table::from_rows(
            "t",
            &["id", "note"],
            &[&["1", "plain"], &["2", "has,comma \"q\" \n line"]],
        )
        .unwrap()
        .with_provenance(
            Provenance::new("alice/rides", "data/rides.csv")
                .with_license("mit")
                .with_topic("ride"),
        );
        let mut at = AnnotatedTable::new(t);
        at.semantic_schema.annotations.push(Annotation {
            column: 1,
            type_id: 7,
            label: "note".into(),
            ontology: OntologyKind::SchemaOrg,
            method: Method::Semantic,
            similarity: 0.875,
        });
        at
    }

    /// The whole-shard read every store load goes through.
    fn decode_whole(bytes: &[u8]) -> Result<Vec<AnnotatedTable>, StoreError> {
        crate::store::decode_shard(&crate::codec::ColV1Codec, bytes, "seg.colv1")
            .map(|(tables, _)| tables)
    }

    #[test]
    fn block_roundtrip() {
        let at = sample();
        let mut buf = Vec::new();
        encode_table(&mut buf, &at, "test").unwrap();
        let mut cur = Cursor {
            bytes: &buf,
            pos: 0,
            file: "test",
        };
        let back = decode_table(&mut cur).unwrap();
        assert_eq!(
            cur.pos + SEAL_LEN,
            buf.len(),
            "block decodes exactly its bytes"
        );
        assert_eq!(at, back);
        assert_eq!(decode_block(&buf, 0, "test").unwrap(), at);
    }

    /// `block` with its seal recomputed over whatever its body now holds.
    fn resealed(mut block: Vec<u8>) -> Vec<u8> {
        let body = block.len() - SEAL_LEN;
        let seal = checksum(&block[..body]);
        block[body..].copy_from_slice(&seal.to_le_bytes());
        block
    }

    #[test]
    fn every_altered_block_byte_fails_the_seal_naming_the_block() {
        let mut block = Vec::new();
        encode_table(&mut block, &sample(), "test").unwrap();
        for pos in 0..block.len() {
            let mut bytes = block.clone();
            bytes[pos] ^= 0x01;
            match decode_block(&bytes, 96, "seg.colv1") {
                Err(StoreError::Corrupt { file, detail }) => {
                    assert_eq!(file, "seg.colv1");
                    assert!(detail.contains("block at byte 96"), "{pos}: {detail}");
                    assert!(detail.contains("seal"), "{pos}: {detail}");
                }
                other => panic!("byte {pos}: {other:?}"),
            }
        }
        for len in 0..SEAL_LEN {
            let err = decode_block(&block[..len], 96, "seg.colv1").unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        }
    }

    #[test]
    fn segment_roundtrip_and_truncation() {
        let dir = std::env::temp_dir().join(format!("gt_colv1_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.colv1");
        let mut w = SegmentWriter::create(&path, "seg.colv1".into()).unwrap();
        w.push(&sample()).unwrap();
        w.push(&sample()).unwrap();
        w.finish().unwrap();

        let arena = Arena::load(&path).unwrap();
        // Whether this target maps at all is `gittables_sys`'s test.
        let mappable = Mmap::map(&std::fs::File::open(&path).unwrap(), 1).is_some();
        assert_eq!(
            matches!(arena, Arena::Mapped(_)),
            mappable,
            "a load must map wherever the platform does"
        );
        let tables = decode_whole(arena.bytes()).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0], sample());

        // The read-once fallback decodes identically.
        let owned = Arena::Owned(std::fs::read(&path).unwrap());
        assert_eq!(decode_whole(owned.bytes()).unwrap(), tables);

        // Any truncation point must produce a typed error, never a panic.
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            let err = decode_whole(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt { .. }),
                "cut={cut}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn block_spans_tile_the_segment_and_decode_alone() {
        let dir = std::env::temp_dir().join(format!("gt_colv1_spans_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.colv1");
        let mut w = SegmentWriter::create(&path, "seg.colv1".into()).unwrap();
        for _ in 0..3 {
            w.push(&sample()).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let spans = block_spans(&bytes, "seg.colv1").unwrap();
        assert_eq!(spans.len(), 3);
        // Spans tile [magic, footer) with no gaps.
        assert_eq!(spans[0].0 as usize, FILE_MAGIC.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].0 + w[0].1, w[1].0);
        }
        let whole = decode_whole(&bytes).unwrap();
        for (span, at) in spans.iter().zip(&whole) {
            let block = &bytes[span.0 as usize..(span.0 + span.1) as usize];
            assert_eq!(&decode_block(block, span.0, "seg.colv1").unwrap(), at);
        }
        // A block with trailing garbage must be rejected, not silently
        // decoded short.
        let (off, len) = spans[0];
        let padded = &bytes[off as usize..(off + len) as usize + 1];
        assert!(matches!(
            decode_block(padded, off, "seg.colv1").unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        // So must one that seals more bytes than its fields take.
        let mut long = bytes[off as usize..(off + len) as usize - SEAL_LEN].to_vec();
        long.extend_from_slice(&[0; 1 + SEAL_LEN]);
        let err = decode_block(&resealed(long), off, "seg.colv1").unwrap_err();
        assert!(err.to_string().contains("decoded only"), "{err}");
        // Truncation of the trailer is typed for the span parse too.
        for cut in [0, 1, 8, bytes.len() - 1] {
            assert!(matches!(
                block_spans(&bytes[..cut], "seg.colv1").unwrap_err(),
                StoreError::Corrupt { .. }
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An encoded block of one table whose first column holds
    /// `["ab", "é", "c"]`, plus the position of that column's end offsets
    /// (`3 × u32`, the blob right after).
    fn block_and_first_arena() -> (Vec<u8>, usize) {
        let t =
            Table::from_rows("t", &["k", "v"], &[&["ab", "1"], &["é", "2"], &["c", "3"]]).unwrap();
        let mut block = Vec::new();
        encode_table(&mut block, &AnnotatedTable::new(t), "test").unwrap();
        let mut cur = Cursor {
            bytes: &block,
            pos: 0,
            file: "test",
        };
        for _ in 0..3 {
            cur.str().unwrap(); // name, repository, path
        }
        assert_eq!(cur.u8().unwrap(), 0); // no license
        cur.str().unwrap(); // topic
        cur.u64().unwrap(); // file_size
        assert_eq!(cur.u32().unwrap(), 2); // columns
        assert_eq!(cur.u64().unwrap(), 3); // rows
        assert_eq!(cur.str().unwrap(), "k");
        cur.u8().unwrap(); // atomic tag
        let ends = cur.pos;
        assert_eq!(block[ends..ends + 12], [2, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0]);
        assert_eq!(&block[ends + 12..ends + 17], "abéc".as_bytes());
        (block, ends)
    }

    /// Damage the seal cannot see (the block is resealed after it) is
    /// still typed: the decoder behind the seal trusts no field either.
    #[test]
    fn corrupt_arena_offsets_and_bytes_are_typed_never_partial() {
        let (block, ends) = block_and_first_arena();
        assert!(decode_block(&block, 0, "test").is_ok());
        let put = |at: usize, v: u32| {
            let mut b = block.clone();
            b[at..at + 4].copy_from_slice(&v.to_le_bytes());
            b
        };
        let row_count = ends - 1 - (4 + 1) - 8; // back over tag, name, nrows
        let mut more_rows = block.clone();
        more_rows[row_count..row_count + 8].copy_from_slice(&(u64::MAX / 8).to_le_bytes());
        let mut not_utf8 = block.clone();
        not_utf8[ends + 12] = 0xFF;
        let cases = [
            ("an end offset decreases", put(ends + 4, 1)),
            (
                "an offset lands inside a multi-byte character",
                put(ends + 4, 3),
            ),
            ("the first offset is past the last", put(ends, 9)),
            ("the last offset is short of the blob", put(ends + 8, 4)),
            (
                "the last offset runs past the block",
                put(ends + 8, 1 << 20),
            ),
            ("the offsets array is shorter than the row count", more_rows),
            ("the blob is not UTF-8", not_utf8),
        ];
        for (what, bytes) in cases {
            let bytes = resealed(bytes);
            for result in [
                decode_block(&bytes, 0, "test").map(|_| ()),
                decode_table(&mut Cursor {
                    bytes: &bytes,
                    pos: 0,
                    file: "test",
                })
                .map(|_| ()),
            ] {
                assert!(
                    matches!(result, Err(StoreError::Corrupt { .. })),
                    "{what}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn huge_length_errors_instead_of_overflowing() {
        // A crafted length near usize::MAX must produce a typed error,
        // not an add overflow (dev/test builds panic on overflow).
        let bytes = [0u8; 16];
        let mut cur = Cursor {
            bytes: &bytes,
            pos: 8,
            file: "t",
        };
        assert!(matches!(
            cur.take(usize::MAX - 4),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = decode_whole(b"NOTCOLV1 some random bytes that are long enough").unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }
}
