//! Deterministic filesystem failpoints for crash-consistency testing.
//!
//! A failpoint is a named site in the store's write path that can be
//! armed to misbehave exactly once, on its *n*-th hit. The sites are
//! `store::shard_fsync` (both shard formats' writers) and the four steps
//! of [`crate::persist::write_durably`] — `store::manifest_write`,
//! `store::manifest_fsync`, `store::manifest_rename`, `store::dir_fsync`
//! — which every durably replaced file of a store passes through:
//! `manifest.json`, `index.gtsc`, `quarantine.json` and
//! `crawl_state.json`. The four keep their `manifest` names; a path
//! filter on the temp file (`manifest.json.tmp`) picks one file. Modes:
//!
//! * **err** — the site returns an injected I/O error (simulating
//!   `EIO`/`ENOSPC`), which surfaces as a typed
//!   [`StoreError::Io`](crate::store::StoreError::Io);
//! * **short** — the site writes only half its bytes and then errors
//!   (a torn write: what `ENOSPC` mid-`write(2)` leaves behind);
//! * **kill** — the process `SIGKILL`s itself at the site, simulating a
//!   crash at that exact point for torture tests.
//!
//! Arming is either programmatic ([`configure_failpoint`], for in-process
//! tests — a `path_filter` scopes the point to one store directory so
//! parallel tests cannot trip each other's points) or via the environment
//! variable `GITTABLES_FAILPOINTS` (`name=mode[@N];name2=mode`, for
//! child processes in crash-torture harnesses). Points are one-shot:
//! they disarm when they fire. When nothing is armed, the hot-path cost
//! is one relaxed atomic load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable arming failpoints in a child process:
/// `"name=mode[@N];..."` with modes `err`, `short`, `kill`.
pub const FAILPOINTS_ENV: &str = "GITTABLES_FAILPOINTS";

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Return an injected I/O error from the site.
    Err,
    /// Write roughly half the site's bytes, then error (torn write).
    Short,
    /// `SIGKILL` the current process at the site (simulated crash).
    Kill,
}

impl FailMode {
    fn parse(s: &str) -> Option<FailMode> {
        match s {
            "err" => Some(FailMode::Err),
            "short" => Some(FailMode::Short),
            "kill" => Some(FailMode::Kill),
            _ => None,
        }
    }
}

/// What a site must do because its failpoint fired ([`FailMode::Kill`]
/// never returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triggered {
    /// Fail with [`injected`] without side effects.
    Error,
    /// Write half the bytes, then fail with [`injected`]. Sites that
    /// cannot write partially treat this as [`Triggered::Error`].
    Short,
}

#[derive(Debug)]
struct Point {
    mode: FailMode,
    /// Fires on the `nth` matching hit (1-based).
    nth: u64,
    hits: u64,
    /// Only hits whose `path` contains this substring count.
    path_filter: Option<String>,
}

/// Fast-path guard: true iff any point is (or ever was) armed, so
/// production runs pay one relaxed load per site and no lock.
static ARMED: AtomicBool = AtomicBool::new(false);

static REGISTRY: OnceLock<Mutex<HashMap<String, Point>>> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<String, Point>> {
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var(FAILPOINTS_ENV) {
            for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
                let Some((name, rest)) = entry.split_once('=') else {
                    continue;
                };
                let (mode, nth) = match rest.split_once('@') {
                    Some((m, n)) => (m, n.parse().unwrap_or(1)),
                    None => (rest, 1),
                };
                if let Some(mode) = FailMode::parse(mode.trim()) {
                    map.insert(
                        name.trim().to_string(),
                        Point {
                            mode,
                            nth: nth.max(1),
                            hits: 0,
                            path_filter: None,
                        },
                    );
                }
            }
        }
        if !map.is_empty() {
            ARMED.store(true, Ordering::Release);
        }
        Mutex::new(map)
    })
}

/// Arms failpoint `name` to fire on its `nth` (1-based) hit whose path
/// contains `path_filter` (every hit matches when `None`). Rearming an
/// armed point replaces it.
pub fn configure_failpoint(name: &str, mode: FailMode, nth: u64, path_filter: Option<&str>) {
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    reg.insert(
        name.to_string(),
        Point {
            mode,
            nth: nth.max(1),
            hits: 0,
            path_filter: path_filter.map(str::to_string),
        },
    );
    ARMED.store(true, Ordering::Release);
}

/// Disarms failpoint `name` (a no-op when not armed).
pub fn clear_failpoint(name: &str) {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .remove(name);
}

/// The error an [`Triggered::Error`]/[`Triggered::Short`] site returns.
#[must_use]
pub fn injected(name: &str) -> std::io::Error {
    std::io::Error::other(format!("injected failpoint `{name}`"))
}

/// Registers one hit of site `name` on `path`. Returns what the site
/// must do: `None` (proceed normally — the common case, one atomic load
/// when nothing was ever armed), or [`Triggered`]. [`FailMode::Kill`]
/// does not return: the process is `SIGKILL`ed in place.
#[must_use]
pub fn hit(name: &str, path: &str) -> Option<Triggered> {
    // Initialize from the environment even before the first arm, so
    // child processes reach `registry()` at least once.
    if REGISTRY.get().is_none() {
        let _ = registry();
    }
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    let point = reg.get_mut(name)?;
    if let Some(filter) = &point.path_filter {
        if !path.contains(filter.as_str()) {
            return None;
        }
    }
    point.hits += 1;
    if point.hits < point.nth {
        return None;
    }
    let mode = point.mode;
    reg.remove(name);
    drop(reg);
    match mode {
        FailMode::Err => Some(Triggered::Error),
        FailMode::Short => Some(Triggered::Short),
        // Simulated crash: no flush, no unwinding, no destructors.
        FailMode::Kill => gittables_sys::kill_self(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_on_nth_matching_hit() {
        configure_failpoint("fp::test_a", FailMode::Err, 2, Some("/fp-a/"));
        assert_eq!(hit("fp::test_a", "/elsewhere/x"), None);
        assert_eq!(hit("fp::test_a", "/fp-a/x"), None);
        assert_eq!(hit("fp::test_a", "/fp-a/x"), Some(Triggered::Error));
        // One-shot: disarmed after firing.
        assert_eq!(hit("fp::test_a", "/fp-a/x"), None);
    }

    #[test]
    fn unarmed_sites_are_silent() {
        assert_eq!(hit("fp::never_armed", "/anywhere"), None);
        configure_failpoint("fp::test_b", FailMode::Short, 1, None);
        assert_eq!(hit("fp::test_b", "/any/path"), Some(Triggered::Short));
        clear_failpoint("fp::test_b");
    }
}
