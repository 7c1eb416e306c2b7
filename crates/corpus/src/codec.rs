//! The [`ShardCodec`] abstraction: how shard bytes become tables. It is
//! this crate's own business; nothing outside it names a codec.
//!
//! A [`crate::store::CorpusStore`] records its shard format in
//! `manifest.json` (`"format"`) and resolves it to a codec once at
//! open/create time; every shard write streams through its encoder, and
//! every read — whole-shard load, export, lazy single-table access —
//! goes through the same two methods ([`ShardCodec::block_spans`] +
//! [`ShardCodec::read_block`]). Two codecs exist:
//!
//! * [`StoreFormat::ColV1`] — the binary columnar segment of
//!   [`crate::colv1`], decoded by slicing an `mmap`ed arena. Every store
//!   the crate creates uses it.
//! * [`StoreFormat::Jsonl`] — one JSON document per line. It is kept only
//!   as the format the benchmark's `corpus.load_jsonl_s` comparison row
//!   writes and reads through [`crate::save_store_as`]; no command writes
//!   it and no default picks it.
//!
//! Each codec also owns its tables' **check values**: the `u64`
//! [`ShardEncoder::push`] returns for a table it wrote and
//! [`ShardCodec::read_block`] returns for a table it read back. For
//! `colv1` that is the block's seal — the lane checksum of every byte of
//! the block, computed once as it is written and verified once, before
//! any field is decoded, as it is read. `jsonl` has no seal, so its check
//! value is the table's content fingerprint
//! ([`crate::dedup::table_fingerprint`]). What binds the values is
//! *outside* the codec: the store compares a shard's table count and the
//! fold of its check values with the manifest on every load path, and
//! the sidecar directory records each table's value, so both formats
//! share one enforcement point and no byte is hashed twice.

use std::io::Write;
use std::path::Path;

use crate::colv1;
use crate::corpus::AnnotatedTable;
use crate::dedup::table_fingerprint;
use crate::store::StoreError;

/// On-disk shard format of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFormat {
    /// One JSON document per line (`<id>.jsonl`).
    Jsonl,
    /// Binary columnar segments (`<id>.colv1`), mmap-decoded.
    ColV1,
}

impl StoreFormat {
    /// The name written into `manifest.json` (and used as the file
    /// extension).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StoreFormat::Jsonl => "jsonl",
            StoreFormat::ColV1 => "colv1",
        }
    }

    /// Parses a manifest format name.
    #[must_use]
    pub(crate) fn parse(s: &str) -> Option<StoreFormat> {
        match s {
            "jsonl" => Some(StoreFormat::Jsonl),
            "colv1" => Some(StoreFormat::ColV1),
            _ => None,
        }
    }
}

impl std::fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A streaming single-shard encoder produced by [`ShardCodec::begin`].
/// Push tables one at a time; [`ShardEncoder::finish`] makes the file
/// durable (flush + fsync) but does *not* commit it to the manifest.
pub(crate) trait ShardEncoder: Send {
    /// Appends one table and returns its check value (module docs).
    ///
    /// # Errors
    /// Propagates I/O and encoding failures.
    fn push(&mut self, table: &AnnotatedTable) -> Result<u64, StoreError>;

    /// Flushes and fsyncs the shard file.
    ///
    /// # Errors
    /// Propagates I/O failures.
    fn finish(self: Box<Self>) -> Result<(), StoreError>;
}

/// One shard format: naming, streaming encode, and block-wise decode.
pub(crate) trait ShardCodec: Send + Sync {
    /// The format this codec implements.
    fn format(&self) -> StoreFormat;

    /// The shard file name for shard `id`.
    fn file_name(&self, id: &str) -> String {
        format!("{id}.{}", self.format().name())
    }

    /// Starts writing a shard file at `path`.
    ///
    /// # Errors
    /// Propagates file-creation failures.
    fn begin(&self, path: &Path) -> Result<Box<dyn ShardEncoder>, StoreError>;

    /// The `(offset, len)` byte span of every table in an already-loaded
    /// shard arena, in write order, **without decoding any table** — the
    /// cheap structural read behind whole-shard loads, lazy single-table
    /// access ([`crate::sidecar::LazyCorpus`]) and sidecar directory
    /// builds.
    ///
    /// # Errors
    /// Typed [`StoreError::Corrupt`] on structurally invalid bytes, never
    /// a panic or a partial list.
    fn block_spans(&self, bytes: &[u8], file: &str) -> Result<Vec<(u64, u64)>, StoreError>;

    /// Decodes exactly one table: the block at `span = (offset, len)` of
    /// the shard arena `bytes`, a span produced by [`Self::block_spans`]
    /// (or recorded in the sidecar directory). The block must be consumed
    /// exactly: trailing garbage is a typed error, never silently
    /// ignored. A `colv1` block is checked against its seal before any
    /// field of it is read. Returns the table and its check value (module
    /// docs), for the caller to compare with what the manifest or the
    /// sidecar directory recorded.
    ///
    /// # Errors
    /// Typed decode errors, never a panic; a span outside `bytes` is
    /// [`StoreError::Corrupt`].
    fn read_block(
        &self,
        bytes: &[u8],
        span: (u64, u64),
        file: &str,
    ) -> Result<(AnnotatedTable, u64), StoreError>;
}

/// The bytes of one block span of a shard arena, bounds-checked: a span
/// that a corrupt footer or directory points outside the shard is a typed
/// [`StoreError::Corrupt`].
fn span_bytes<'a>(
    bytes: &'a [u8],
    offset: u64,
    len: u64,
    file: &str,
) -> Result<&'a [u8], StoreError> {
    usize::try_from(offset)
        .ok()
        .zip(usize::try_from(len).ok())
        .and_then(|(offset, len)| bytes.get(offset..offset.checked_add(len)?))
        .ok_or_else(|| StoreError::Corrupt {
            file: file.to_string(),
            detail: format!("block span {offset}+{len} out of range"),
        })
}

/// The codec for `format` (codecs are stateless, so one static each).
#[must_use]
pub(crate) fn codec_for(format: StoreFormat) -> &'static dyn ShardCodec {
    match format {
        StoreFormat::Jsonl => &JsonlCodec,
        StoreFormat::ColV1 => &ColV1Codec,
    }
}

// -------------------------------------------------------------------- jsonl

/// One JSON document per line.
struct JsonlCodec;

struct JsonlEncoder {
    writer: std::io::BufWriter<std::fs::File>,
    /// Full path, for failpoint filters.
    path: String,
}

impl ShardEncoder for JsonlEncoder {
    fn push(&mut self, table: &AnnotatedTable) -> Result<u64, StoreError> {
        // The JSON printer escapes raw newlines inside strings, so
        // lines == tables.
        let line = serde_json::to_string(table)?;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(table_fingerprint(&table.table))
    }

    fn finish(mut self: Box<Self>) -> Result<(), StoreError> {
        self.writer.flush()?;
        if crate::failpoint::hit("store::shard_fsync", &self.path).is_some() {
            return Err(crate::failpoint::injected("store::shard_fsync").into());
        }
        // The durability promise of `commit_shard` requires the shard's
        // bytes to hit disk before its manifest entry does.
        self.writer.get_ref().sync_all()?;
        Ok(())
    }
}

impl ShardCodec for JsonlCodec {
    fn format(&self) -> StoreFormat {
        StoreFormat::Jsonl
    }

    fn begin(&self, path: &Path) -> Result<Box<dyn ShardEncoder>, StoreError> {
        let handle = std::fs::File::create(path)?;
        Ok(Box::new(JsonlEncoder {
            writer: std::io::BufWriter::new(handle),
            path: path.display().to_string(),
        }))
    }

    fn block_spans(&self, bytes: &[u8], _file: &str) -> Result<Vec<(u64, u64)>, StoreError> {
        // One table per non-blank line; a span covers the line's content
        // without its terminator.
        let mut spans = Vec::new();
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                let line = &bytes[start..i];
                if !line.iter().all(|c| c.is_ascii_whitespace()) {
                    spans.push((start as u64, (i - start) as u64));
                }
                start = i + 1;
            }
        }
        if start < bytes.len() {
            let line = &bytes[start..];
            if !line.iter().all(|c| c.is_ascii_whitespace()) {
                spans.push((start as u64, (bytes.len() - start) as u64));
            }
        }
        Ok(spans)
    }

    fn read_block(
        &self,
        bytes: &[u8],
        (offset, len): (u64, u64),
        file: &str,
    ) -> Result<(AnnotatedTable, u64), StoreError> {
        let block = span_bytes(bytes, offset, len, file)?;
        let at: AnnotatedTable = serde_json::from_slice(block)?;
        let check = table_fingerprint(&at.table);
        Ok((at, check))
    }
}

// -------------------------------------------------------------------- colv1

/// Binary columnar segments (see [`crate::colv1`] for the layout).
pub(crate) struct ColV1Codec;

struct ColV1Encoder {
    writer: colv1::SegmentWriter,
}

impl ShardEncoder for ColV1Encoder {
    fn push(&mut self, table: &AnnotatedTable) -> Result<u64, StoreError> {
        self.writer.push(table)
    }

    fn finish(self: Box<Self>) -> Result<(), StoreError> {
        self.writer.finish()
    }
}

impl ShardCodec for ColV1Codec {
    fn format(&self) -> StoreFormat {
        StoreFormat::ColV1
    }

    fn begin(&self, path: &Path) -> Result<Box<dyn ShardEncoder>, StoreError> {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        Ok(Box::new(ColV1Encoder {
            writer: colv1::SegmentWriter::create(path, file)?,
        }))
    }

    fn block_spans(&self, bytes: &[u8], file: &str) -> Result<Vec<(u64, u64)>, StoreError> {
        colv1::block_spans(bytes, file)
    }

    fn read_block(
        &self,
        bytes: &[u8],
        (offset, len): (u64, u64),
        file: &str,
    ) -> Result<(AnnotatedTable, u64), StoreError> {
        colv1::decode_block(span_bytes(bytes, offset, len, file)?, offset, file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_roundtrip() {
        for f in [StoreFormat::Jsonl, StoreFormat::ColV1] {
            assert_eq!(StoreFormat::parse(f.name()), Some(f));
        }
        assert_eq!(StoreFormat::parse("nope"), None);
    }

    #[test]
    fn file_names_carry_the_extension() {
        assert_eq!(codec_for(StoreFormat::Jsonl).file_name("s1"), "s1.jsonl");
        assert_eq!(codec_for(StoreFormat::ColV1).file_name("s1"), "s1.colv1");
    }
}
