//! Persisted quarantine: the `quarantine.json` sidecar a store-backed run
//! leaves next to the corpus manifest.
//!
//! Each [`Pipeline::run_to_store_with`](crate::Pipeline::run_to_store_with)
//! invocation rewrites the sidecar with the repositories *that run*
//! quarantined (host faults, exhausted retry budgets, worker panics). On
//! the next invocation the log makes quarantine *sticky* — listed
//! repositories are skipped without host traffic — unless the run opts
//! into re-attempting them ([`RetrySelection`](crate::RetrySelection)),
//! in which case healed repositories join the corpus and drop out of the
//! log.

use std::collections::HashMap;
use std::path::Path;

use gittables_corpus::persist;
use serde::{Deserialize, Serialize};

use crate::pipeline::Quarantined;

/// Sidecar file name inside the store directory.
pub const QUARANTINE_FILE: &str = "quarantine.json";

/// The persisted quarantine list of a corpus store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuarantineLog {
    /// Quarantined repositories with their reasons, sorted by name.
    pub repos: Vec<Quarantined>,
}

impl QuarantineLog {
    /// Reads the sidecar from a store directory; a missing file is an
    /// empty log (no repository is quarantined).
    ///
    /// # Errors
    /// I/O failures other than the file not existing, and malformed JSON
    /// (surfaced as [`std::io::ErrorKind::InvalidData`]).
    pub fn load(dir: &Path) -> std::io::Result<Self> {
        persist::load_state(dir, QUARANTINE_FILE)
    }

    /// Atomically and durably rewrites the sidecar (write-to-temp, fsync,
    /// rename, directory fsync) so a crash mid-save can never leave a torn
    /// log and a crash after it cannot lose the save.
    ///
    /// # Errors
    /// Underlying I/O failures.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        persist::save_state(dir, QUARANTINE_FILE, self)
    }

    /// The log as a skip map (`repository → recorded reason`) for the
    /// extraction stage.
    #[must_use]
    pub fn skip_map(&self) -> HashMap<String, String> {
        self.repos
            .iter()
            .map(|q| (q.name.clone(), q.reason.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_missing_is_empty() {
        let dir = std::env::temp_dir().join(format!(
            "gt_quarantine_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(QuarantineLog::load(&dir).unwrap(), QuarantineLog::default());
        let log = QuarantineLog {
            repos: vec![Quarantined {
                name: "a/b".into(),
                reason: "corrupt content".into(),
            }],
        };
        log.save(&dir).unwrap();
        let loaded = QuarantineLog::load(&dir).unwrap();
        assert_eq!(loaded, log);
        assert_eq!(loaded.skip_map().get("a/b").unwrap(), "corrupt content");
        std::fs::remove_dir_all(&dir).ok();
    }
}
