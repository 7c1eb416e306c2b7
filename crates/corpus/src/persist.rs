//! Monolithic single-file JSON persistence of corpora.
//!
//! This is the interop format (`corpus.json`): one self-describing JSON
//! document, easy to ship to other tools, and the way a store is carried
//! into another build or format (`gittables load`, then `gittables
//! save`). Production loading goes through the sharded [`crate::store`]
//! instead, whose mmap-decoded binary [`crate::colv1`] segments carry
//! per-shard integrity checks this single file does not have.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::corpus::Corpus;

/// Errors from persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// (De)serialization failure.
    Json(serde_json::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

/// Replaces `dir/name` with `bytes` so that the replacement survives a
/// crash: the bytes go to `name.tmp`, which is fsynced, renamed over
/// `name`, and then `dir` itself is fsynced — without that last step the
/// rename can be lost with the directory's dirty page. A crash at any
/// point leaves the old file or the new one, never a torn one.
///
/// Each step is a [`crate::failpoint`] site, hit with the temp file's
/// path: `store::manifest_write` (whose `short` mode leaves half the
/// bytes in the temp file), `store::manifest_fsync`,
/// `store::manifest_rename` and `store::dir_fsync`.
///
/// # Errors
/// Propagates I/O failures; `name` is untouched unless the rename ran.
pub fn write_durably(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    use crate::failpoint::{hit, injected, Triggered};

    let tmp = dir.join(format!("{name}.tmp"));
    let tag = tmp.display().to_string();
    let fail_at = |site: &str| match hit(site, &tag) {
        Some(_) => Err(injected(site)),
        None => Ok(()),
    };
    {
        let mut file = std::fs::File::create(&tmp)?;
        match hit("store::manifest_write", &tag) {
            // Torn write (ENOSPC mid-write): half the bytes land, then the
            // error propagates. The temp file is garbage, but it is never
            // renamed — the live file is untouched.
            Some(Triggered::Short) => {
                file.write_all(&bytes[..bytes.len() / 2])?;
                return Err(injected("store::manifest_write"));
            }
            Some(Triggered::Error) => return Err(injected("store::manifest_write")),
            None => {}
        }
        file.write_all(bytes)?;
        fail_at("store::manifest_fsync")?;
        file.sync_all()?;
    }
    fail_at("store::manifest_rename")?;
    std::fs::rename(&tmp, dir.join(name))?;
    fail_at("store::dir_fsync")?;
    std::fs::File::open(dir)?.sync_all()
}

fn invalid_data(e: serde_json::Error) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Reads the JSON state file `dir/name` (a store's `quarantine.json`,
/// `crawl_state.json`); a missing file is the default state.
///
/// # Errors
/// I/O failures other than the file not existing, and malformed JSON
/// (surfaced as [`std::io::ErrorKind::InvalidData`]).
pub fn load_state<T: Deserialize + Default>(dir: &Path, name: &str) -> std::io::Result<T> {
    match std::fs::read_to_string(dir.join(name)) {
        Ok(text) => serde_json::from_str(&text).map_err(invalid_data),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(T::default()),
        Err(e) => Err(e),
    }
}

/// Replaces the JSON state file `dir/name` with `state` through
/// `write_durably`, so a crash mid-save can never leave a torn file
/// and a crash after it cannot lose the save.
///
/// # Errors
/// Underlying I/O failures.
pub fn save_state<T: Serialize>(dir: &Path, name: &str, state: &T) -> std::io::Result<()> {
    let text = serde_json::to_string(state).map_err(invalid_data)?;
    write_durably(dir, name, text.as_bytes())
}

/// Saves a corpus as JSON.
///
/// # Errors
/// Propagates I/O and serialization failures.
pub fn save_corpus(corpus: &Corpus, path: &Path) -> Result<(), PersistError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    serde_json::to_writer(&mut w, corpus)?;
    w.flush()?;
    Ok(())
}

/// Loads a corpus from JSON.
///
/// # Errors
/// Propagates I/O and deserialization failures.
pub fn load_corpus(path: &Path) -> Result<Corpus, PersistError> {
    // Hand the reader straight to the deserializer: `from_reader` frees the
    // raw document bytes before materializing the corpus, so peak memory no
    // longer holds document + parse tree + corpus simultaneously.
    let file = std::fs::File::open(path)?;
    Ok(serde_json::from_reader(BufReader::new(file))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;
    use gittables_table::Table;

    #[test]
    fn roundtrip() {
        let mut c = Corpus::new("roundtrip");
        let t = Table::from_rows("t", &["id", "x"], &[&["1", "a"], &["2", "b"]]).unwrap();
        c.push(AnnotatedTable::new(t));
        let dir = std::env::temp_dir().join("gittables_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        save_corpus(&c, &path).unwrap();
        let loaded = load_corpus(&path).unwrap();
        assert_eq!(c, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = load_corpus(Path::new("/nonexistent/nope.json")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
        assert!(err.to_string().contains("io error"));
    }

    #[test]
    fn load_garbage_errors() {
        let dir = std::env::temp_dir().join("gittables_persist_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = load_corpus(&path).unwrap_err();
        assert!(matches!(err, PersistError::Json(_)));
        std::fs::remove_file(&path).ok();
    }
}
