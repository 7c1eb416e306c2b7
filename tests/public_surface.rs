//! Structural guard on the workspace's public paths: reads the tree, runs
//! nothing.
//!
//! Every crate keeps its modules private and re-exports at its root only
//! what something outside the crate names, so each public item has one
//! path and rustc's `dead_code` lint sees every item no caller reaches.
//! The exceptions are the modules whose paths the out-of-tree benchmark
//! package (`benchmark/src`) names: they stay `pub mod` because that
//! package compiles against them. A new `pub mod` is a reviewed diff of
//! [`PINNED`].

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The only `pub mod` paths in `crates/*/src`.
const PINNED: [&str; 4] = [
    "gittables_core::apps",
    "gittables_synth::repo",
    "gittables_synth::schema",
    "gittables_synth::wordnet",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Each `pub mod` declaration under `crates/*/src`, as the path it
/// publishes: `gittables_<crate>::<module>` when it stands in the crate
/// root, the declaring file and module name otherwise (a nested one is
/// never pinned, so it fails the comparison with its location).
fn pub_mods() -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let krate = entry.expect("dir entry").path();
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let name = krate.file_name().expect("crate dir name").to_string_lossy();
        for file in rust_files(&src) {
            for line in read(&file).lines() {
                let Some(rest) = line.trim_start().strip_prefix("pub mod ") else {
                    continue;
                };
                let module = rest.trim_end_matches([';', '{', ' ']);
                if file == src.join("lib.rs") {
                    found.insert(format!("gittables_{name}::{module}"));
                } else {
                    let rel = file.strip_prefix(root()).unwrap_or(&file);
                    found.insert(format!("{}: {module}", rel.display()));
                }
            }
        }
    }
    found
}

#[test]
fn only_the_benchmark_pinned_modules_are_public() {
    let want: BTreeSet<String> = PINNED.iter().map(|p| (*p).to_string()).collect();
    assert_eq!(pub_mods(), want);
}

#[test]
fn every_pinned_module_path_is_named_by_the_benchmark() {
    let bench: Vec<String> = rust_files(&root().join("benchmark/src"))
        .iter()
        .map(|path| read(path))
        .collect();
    assert!(!bench.is_empty(), "benchmark/src was not read");
    for path in PINNED {
        assert!(
            bench.iter().any(|text| text.contains(path)),
            "`{path}` is pinned but benchmark/src never names it: make it private"
        );
    }
}
