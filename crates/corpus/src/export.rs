//! Exporting a corpus back to CSV files on disk, in the per-topic directory
//! layout the published GitTables distribution uses.

use std::io::Write;
use std::path::{Path, PathBuf};

use gittables_tablecsv::{write_csv, Dialect};

use crate::corpus::{AnnotatedTable, Corpus};
use crate::persist::PersistError;
use crate::store::{CorpusStore, StoreError};

/// Writes one table as `root/<topic>/<ordinal>_<table>.csv` and appends its
/// manifest row. `ordinal` is the table's position in the corpus ordering.
fn export_table(
    root: &Path,
    manifest: &mut impl Write,
    ordinal: usize,
    at: &AnnotatedTable,
) -> Result<(), PersistError> {
    let t = &at.table;
    let topic = sanitize(if t.provenance().topic.is_empty() {
        "untopical"
    } else {
        &t.provenance().topic
    });
    let dir = root.join(&topic);
    std::fs::create_dir_all(&dir)?;
    let file: PathBuf = dir.join(format!("{ordinal}_{}.csv", sanitize(t.name())));
    let schema = t.schema();
    let header: Vec<&str> = schema.iter().collect();
    let rows: Vec<Vec<&str>> = (0..t.num_rows())
        .map(|r| t.row(r).expect("row in range"))
        .collect();
    let text = write_csv(&header, &rows, Dialect::default());
    std::fs::write(&file, text)?;
    writeln!(
        manifest,
        "{}\t{}\t{}\t{}",
        file.display(),
        t.provenance().url(),
        t.provenance().license.as_deref().unwrap_or("-"),
        topic
    )?;
    Ok(())
}

/// Writes every table of `corpus` under `root/<topic>/<n>_<table>.csv` and a
/// `manifest.tsv` mapping file paths to source URLs. Returns the number of
/// files written.
///
/// # Errors
/// Propagates I/O failures.
pub fn export_csv(corpus: &Corpus, root: &Path) -> Result<usize, PersistError> {
    std::fs::create_dir_all(root)?;
    let manifest_path = root.join("manifest.tsv");
    let mut manifest = std::io::BufWriter::new(std::fs::File::create(manifest_path)?);
    writeln!(manifest, "path\tsource_url\tlicense\ttopic")?;
    let mut written = 0usize;
    for (i, at) in corpus.tables.iter().enumerate() {
        export_table(root, &mut manifest, i, at)?;
        written += 1;
    }
    manifest.flush()?;
    Ok(written)
}

/// Streams a sharded store out as CSV files, one shard in memory at a time,
/// producing the same files as `export_csv(&store.load_corpus()?, root)`.
/// File ordinals are the tables' ids ([`CorpusStore::table_ids`]);
/// `manifest.tsv` rows are emitted in shard order.
///
/// # Errors
/// Propagates shard-load ([`StoreError`]) and I/O failures.
pub fn export_csv_store(store: &CorpusStore, root: &Path) -> Result<usize, StoreError> {
    std::fs::create_dir_all(root)?;
    let manifest_path = root.join("manifest.tsv");
    let mut manifest = std::io::BufWriter::new(std::fs::File::create(manifest_path)?);
    writeln!(manifest, "path\tsource_url\tlicense\ttopic")?;
    // A table's id is its position in the assembled corpus, so file
    // ordinals match without materializing more than one shard.
    let mut written = 0usize;
    for (entry, ids) in store.table_ids() {
        for (id, at) in ids.into_iter().zip(store.load_shard(&entry)?) {
            export_table(root, &mut manifest, id, &at)?;
            written += 1;
        }
    }
    manifest.flush()?;
    Ok(written)
}

/// Makes a string filesystem-safe.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::AnnotatedTable;
    use gittables_table::{Provenance, Table};

    fn corpus() -> Corpus {
        let mut c = Corpus::new("t");
        for (topic, name) in [("id", "alpha"), ("id", "beta"), ("order item", "gamma")] {
            let t = Table::from_rows(
                name,
                &["id", "note"],
                &[&["1", "has,comma"], &["2", "plain"]],
            )
            .unwrap()
            .with_provenance(Provenance::new("r/x", format!("{name}.csv")).with_topic(topic));
            c.push(AnnotatedTable::new(t));
        }
        c
    }

    #[test]
    fn export_roundtrips() {
        let dir = std::env::temp_dir().join(format!("gt_export_{}", std::process::id()));
        let n = export_csv(&corpus(), &dir).unwrap();
        assert_eq!(n, 3);
        assert!(dir.join("manifest.tsv").exists());
        assert!(dir.join("id").is_dir());
        assert!(dir.join("order_item").is_dir());
        // A written file parses back identically.
        let path = dir.join("id").join("0_alpha.csv");
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = gittables_tablecsv::read_csv(&text, &Default::default()).unwrap();
        assert_eq!(parsed.header, vec!["id", "note"]);
        assert_eq!(parsed.records[0][1], "has,comma");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_lists_all_files() {
        let dir = std::env::temp_dir().join(format!("gt_export_m_{}", std::process::id()));
        export_csv(&corpus(), &dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
        // Header + 3 rows.
        assert_eq!(manifest.lines().count(), 4);
        assert!(manifest.contains("r/x/alpha.csv"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file under `root`, relative, with its bytes (the manifest's
    /// absolute paths rewritten relative to `root`).
    fn tree(root: &Path) -> Vec<(PathBuf, String)> {
        let mut files = Vec::new();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    let text = std::fs::read_to_string(&path).unwrap();
                    let text = text.replace(root.to_str().unwrap(), "<root>");
                    files.push((path.strip_prefix(root).unwrap().to_path_buf(), text));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn store_export_matches_corpus_export() {
        let c = corpus();
        let base = std::env::temp_dir().join(format!("gt_export_s_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let dense = crate::store::save_store(&c, base.join("dense"), 2).unwrap();
        // The same tables under gapped keys, one repeated across shards:
        // `beta` and `alpha` tie at 1024, the earlier commit first.
        let sparse = CorpusStore::create(base.join("sparse"), &c.name).unwrap();
        for (id, tables) in [
            ("b", [(1024, 1), (4096, 2)].as_slice()),
            ("a", &[(1024, 0)]),
        ] {
            let mut w = sparse.begin_shard(id).unwrap();
            for &(key, t) in tables {
                w.push(key, &c.tables[t]).unwrap();
            }
            sparse.commit_shard(w.finish().unwrap()).unwrap();
        }
        for (tag, store) in [("dense", dense), ("sparse", sparse)] {
            let loaded = store.load_corpus().unwrap();
            let direct = base.join(format!("{tag}_direct"));
            let streamed = base.join(format!("{tag}_streamed"));
            assert_eq!(
                export_csv(&loaded, &direct).unwrap(),
                export_csv_store(&store, &streamed).unwrap()
            );
            let mut want = tree(&direct);
            let mut got = tree(&streamed);
            // `manifest.tsv` rows follow shard order in the streamed
            // export: compare them as a set.
            for files in [&mut want, &mut got] {
                let manifest = files.iter_mut().find(|(p, _)| p.ends_with("manifest.tsv"));
                let (_, text) = manifest.expect("manifest written");
                let mut lines: Vec<&str> = text.lines().collect();
                lines.sort_unstable();
                *text = lines.join("\n");
            }
            assert_eq!(want, got, "{tag}");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn sanitize_paths() {
        assert_eq!(sanitize("a/b c"), "a_b_c");
        assert_eq!(sanitize("ok-name_1"), "ok-name_1");
    }
}
