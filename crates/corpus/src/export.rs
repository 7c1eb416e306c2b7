//! Exporting a corpus back to CSV files on disk, in the per-topic directory
//! layout the published GitTables distribution uses.

use std::io::Write;
use std::path::{Path, PathBuf};

use gittables_tablecsv::{write_csv, Dialect};

use crate::corpus::Corpus;
use crate::persist::PersistError;

/// Writes every table of `corpus` under `root/<topic>/<n>_<table>.csv`
/// (`n` is the table's position in the corpus) and a `manifest.tsv`
/// mapping file paths to source URLs. Returns the number of files written.
///
/// # Errors
/// Propagates I/O failures.
pub fn export_csv(corpus: &Corpus, root: &Path) -> Result<usize, PersistError> {
    std::fs::create_dir_all(root)?;
    let manifest_path = root.join("manifest.tsv");
    let mut manifest = std::io::BufWriter::new(std::fs::File::create(manifest_path)?);
    writeln!(manifest, "path\tsource_url\tlicense\ttopic")?;
    for (ordinal, at) in corpus.tables.iter().enumerate() {
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
    }
    manifest.flush()?;
    Ok(corpus.len())
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

    #[test]
    fn sanitize_paths() {
        assert_eq!(sanitize("a/b c"), "a_b_c");
        assert_eq!(sanitize("ok-name_1"), "ok-name_1");
    }
}
