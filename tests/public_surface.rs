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
//!
//! The same holds for serde impls, which `dead_code` cannot see: only
//! what the store writes and reads back, and what the server answers,
//! implements `Serialize` or `Deserialize`. A new impl is a reviewed diff
//! of [`SERDE_IMPLS`].

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The only `pub mod` paths in `crates/*/src` and `src/`.
const PINNED: [&str; 4] = [
    "gittables_core::apps",
    "gittables_synth::repo",
    "gittables_synth::schema",
    "gittables_synth::wordnet",
];

/// Every `(crate, type, trait)` under `crates/*/src` and `src/` that
/// derives or implements `Serialize` or `Deserialize`.
const SERDE_IMPLS: [(&str, &str, &str); 68] = [
    ("gittables_annotate", "Annotation", "Deserialize"),
    ("gittables_annotate", "Annotation", "Serialize"),
    ("gittables_annotate", "Method", "Deserialize"),
    ("gittables_annotate", "Method", "Serialize"),
    ("gittables_annotate", "TableAnnotations", "Deserialize"),
    ("gittables_annotate", "TableAnnotations", "Serialize"),
    ("gittables_core", "CrawlState", "Deserialize"),
    ("gittables_core", "CrawlState", "Serialize"),
    ("gittables_core", "PipelineReport", "Deserialize"),
    ("gittables_core", "PipelineReport", "Serialize"),
    ("gittables_core", "QuarantineLog", "Deserialize"),
    ("gittables_core", "QuarantineLog", "Serialize"),
    ("gittables_core", "Quarantined", "Deserialize"),
    ("gittables_core", "Quarantined", "Serialize"),
    ("gittables_core", "RepoCooldown", "Deserialize"),
    ("gittables_core", "RepoCooldown", "Serialize"),
    ("gittables_core", "SchemaCompletion", "Deserialize"),
    ("gittables_core", "SchemaCompletion", "Serialize"),
    ("gittables_core", "SearchHit", "Deserialize"),
    ("gittables_core", "SearchHit", "Serialize"),
    ("gittables_corpus", "AnnotatedTable", "Deserialize"),
    ("gittables_corpus", "AnnotatedTable", "Serialize"),
    ("gittables_corpus", "Corpus", "Deserialize"),
    ("gittables_corpus", "Corpus", "Serialize"),
    ("gittables_corpus", "ShardEntry", "Deserialize"),
    ("gittables_corpus", "ShardEntry", "Serialize"),
    ("gittables_corpus", "StoreManifest", "Deserialize"),
    ("gittables_corpus", "StoreManifest", "Serialize"),
    ("gittables_corpus", "TypeCount", "Serialize"),
    ("gittables_corpus", "TypePosting", "Deserialize"),
    ("gittables_corpus", "TypePosting", "Serialize"),
    ("gittables_embed", "MemoStats", "Deserialize"),
    ("gittables_embed", "MemoStats", "Serialize"),
    ("gittables_ontology", "OntologyKind", "Deserialize"),
    ("gittables_ontology", "OntologyKind", "Serialize"),
    ("gittables_serve", "AnnotationSet", "Deserialize"),
    ("gittables_serve", "AnnotationSet", "Serialize"),
    ("gittables_serve", "CacheStats", "Deserialize"),
    ("gittables_serve", "CacheStats", "Serialize"),
    ("gittables_serve", "EndpointCount", "Deserialize"),
    ("gittables_serve", "EndpointCount", "Serialize"),
    ("gittables_serve", "EngineBuildStats", "Deserialize"),
    ("gittables_serve", "EngineBuildStats", "Serialize"),
    ("gittables_serve", "ErrorResponse", "Deserialize"),
    ("gittables_serve", "ErrorResponse", "Serialize"),
    ("gittables_serve", "HealthResponse", "Deserialize"),
    ("gittables_serve", "HealthResponse", "Serialize"),
    ("gittables_serve", "MetricsSnapshot", "Deserialize"),
    ("gittables_serve", "MetricsSnapshot", "Serialize"),
    ("gittables_serve", "ReloadResponse", "Deserialize"),
    ("gittables_serve", "ReloadResponse", "Serialize"),
    ("gittables_serve", "ShutdownResponse", "Serialize"),
    ("gittables_serve", "TableSummary", "Deserialize"),
    ("gittables_serve", "TableSummary", "Serialize"),
    ("gittables_serve", "TypeTablesResponse", "Deserialize"),
    ("gittables_serve", "TypeTablesResponse", "Serialize"),
    ("gittables_table", "AtomicType", "Deserialize"),
    ("gittables_table", "AtomicType", "Serialize"),
    ("gittables_table", "CellArena", "Deserialize"),
    ("gittables_table", "CellArena", "Serialize"),
    ("gittables_table", "Column", "Deserialize"),
    ("gittables_table", "Column", "Serialize"),
    ("gittables_table", "Provenance", "Deserialize"),
    ("gittables_table", "Provenance", "Serialize"),
    ("gittables_table", "Schema", "Deserialize"),
    ("gittables_table", "Schema", "Serialize"),
    ("gittables_table", "Table", "Deserialize"),
    ("gittables_table", "Table", "Serialize"),
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

/// Each `pub mod` declaration under `crates/*/src` and `src/`, as the
/// path it publishes: `<crate>::<module>` when it stands in the crate
/// root, the declaring file and module name otherwise (a nested one is
/// never pinned, so it fails the comparison with its location).
fn pub_mods() -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for (krate, src) in crate_sources() {
        for file in rust_files(&src) {
            for line in read(&file).lines() {
                let Some(rest) = line.trim_start().strip_prefix("pub mod ") else {
                    continue;
                };
                let module = rest.trim_end_matches([';', '{', ' ']);
                if file == src.join("lib.rs") {
                    found.insert(format!("{krate}::{module}"));
                } else {
                    let rel = file.strip_prefix(root()).unwrap_or(&file);
                    found.insert(format!("{}: {module}", rel.display()));
                }
            }
        }
    }
    found
}

/// The crate directories whose sources are scanned, with their crate
/// names: each `crates/<name>` is `gittables_<name>`, the root is the
/// `gittables` CLI.
fn crate_sources() -> Vec<(String, PathBuf)> {
    let mut sources = vec![("gittables".to_string(), root().join("src"))];
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let krate = entry.expect("dir entry").path();
        let src = krate.join("src");
        if src.is_dir() {
            let name = krate.file_name().expect("crate dir name").to_string_lossy();
            sources.push((format!("gittables_{name}"), src));
        }
    }
    sources
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

/// The serde trait a path names (`Serialize`, `serde::Deserialize`, ...),
/// generic arguments aside.
fn serde_trait(path: &str) -> Option<&'static str> {
    let path = path.split('<').next().unwrap_or(path).trim();
    match path.rsplit("::").next() {
        Some("Serialize") => Some("Serialize"),
        Some("Deserialize") => Some("Deserialize"),
        _ => None,
    }
}

/// The name of the struct or enum that the first code line of `lines`
/// declares (attributes and comments before it are skipped).
fn item_name<'a>(lines: impl Iterator<Item = &'a str>) -> Option<String> {
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with("//") || line.starts_with('#') {
            continue;
        }
        let mut words = line
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty());
        while let Some(word) = words.next() {
            if word == "struct" || word == "enum" {
                return words.next().map(str::to_string);
            }
        }
        return None;
    }
    None
}

/// Every `(crate, type, trait)` whose source derives (`#[derive(..)]`,
/// also over several lines) or implements (`impl .. Serialize for T`) a
/// serde trait.
fn serde_impls() -> BTreeSet<(String, String, String)> {
    let mut found = BTreeSet::new();
    for (krate, src) in crate_sources() {
        for file in rust_files(&src) {
            let text = read(&file);
            let lines: Vec<&str> = text.lines().collect();
            let mut i = 0;
            while i < lines.len() {
                let line = lines[i].trim();
                i += 1;
                if let Some(rest) = line.strip_prefix("#[derive(") {
                    let mut attr = rest.to_string();
                    while !attr.contains(")]") && i < lines.len() {
                        attr.push_str(lines[i]);
                        i += 1;
                    }
                    let traits: Vec<&str> = attr
                        .split(")]")
                        .next()
                        .unwrap_or_default()
                        .split(',')
                        .filter_map(serde_trait)
                        .collect();
                    if traits.is_empty() {
                        continue;
                    }
                    let name = item_name(lines[i..].iter().copied()).unwrap_or_else(|| {
                        panic!(
                            "{}:{i}: a serde derive on no struct or enum",
                            file.display()
                        )
                    });
                    for t in traits {
                        found.insert((krate.clone(), name.clone(), t.to_string()));
                    }
                } else if line.starts_with("impl") {
                    let Some((head, ty)) = line.split_once(" for ") else {
                        continue;
                    };
                    let Some(t) = head.split_whitespace().last().and_then(serde_trait) else {
                        continue;
                    };
                    let ty: String = ty
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
                        .collect();
                    let ty = ty.rsplit("::").next().unwrap_or_default().to_string();
                    found.insert((krate.clone(), ty, t.to_string()));
                }
            }
        }
    }
    found
}

#[test]
fn only_the_pinned_types_implement_serde() {
    let want: BTreeSet<(String, String, String)> = SERDE_IMPLS
        .iter()
        .map(|(k, ty, t)| ((*k).to_string(), (*ty).to_string(), (*t).to_string()))
        .collect();
    let found = serde_impls();
    let unpinned: Vec<_> = found.difference(&want).collect();
    let gone: Vec<_> = want.difference(&found).collect();
    assert!(
        unpinned.is_empty() && gone.is_empty(),
        "serde impls not in SERDE_IMPLS: {unpinned:?}\npinned but not found: {gone:?}"
    );
}
