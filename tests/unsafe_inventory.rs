//! Structural guard on the workspace's foreign-call surface: reads the
//! tree, runs nothing.
//!
//! `crates/sys` is the only crate allowed `unsafe`. The compiler enforces
//! that wherever `#![forbid(unsafe_code)]` stands, so what is left to
//! check is that it stands everywhere — a new crate cannot forget it —
//! and that `sys` still declares exactly the five libc symbols its docs
//! and the README justify — a sixth is a reviewed diff of this file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const FORBID: &str = "#![forbid(unsafe_code)]";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_crate_root_but_sys_forbids_unsafe_code() {
    let mut roots: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|dir| dir.is_dir() && dir.file_name().is_some_and(|name| name != "sys"))
        .map(|dir| dir.join("src/lib.rs"))
        .collect();
    assert!(roots.len() > 1, "crates/ was not listed: {roots:?}");
    roots.push(root().join("src/bin/gittables.rs"));
    for path in roots {
        let text = read(&path);
        // The attribute opens the file: only crate docs may precede it.
        let first_code_line = text
            .lines()
            .map(str::trim)
            .find(|line| !line.is_empty() && !line.starts_with("//!"));
        assert_eq!(
            first_code_line,
            Some(FORBID),
            "{} must open with {FORBID}",
            path.display()
        );
    }
}

#[test]
fn sys_declares_exactly_the_five_symbols() {
    let mut declared = BTreeSet::new();
    for entry in std::fs::read_dir(root().join("crates/sys/src")).expect("crates/sys/src") {
        let path = entry.expect("dir entry").path();
        assert!(
            path.extension().is_some_and(|ext| ext == "rs"),
            "crates/sys/src holds flat .rs files only, found {}",
            path.display()
        );
        let text = read(&path);
        let mut in_extern_block = false;
        for line in text.lines().map(str::trim) {
            if line.ends_with("extern \"C\" {") {
                in_extern_block = true;
            } else if in_extern_block && line == "}" {
                in_extern_block = false;
            } else if in_extern_block {
                if let Some(rest) = line
                    .strip_prefix("pub fn ")
                    .or_else(|| line.strip_prefix("fn "))
                {
                    let name = rest.split('(').next().expect("split yields one item");
                    assert!(
                        declared.insert(name.to_string()),
                        "`{name}` is declared twice in crates/sys/src"
                    );
                }
            }
        }
        assert!(
            !in_extern_block,
            "{}: unclosed extern block",
            path.display()
        );
    }
    let expected: BTreeSet<String> = ["kill", "mmap", "munmap", "poll", "signal"]
        .map(String::from)
        .into();
    assert_eq!(
        declared, expected,
        "a foreign symbol was added to or removed from crates/sys: update its docs, \
         the README's inventory and this list in the same change"
    );
}
