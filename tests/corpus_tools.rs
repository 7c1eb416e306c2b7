//! Integration tests of the corpus tooling (export, dedup) over a
//! pipeline-built corpus.

use gittables_core::{Pipeline, PipelineConfig};
use gittables_corpus::{dedup_indices, exact_duplicates, export_csv};
use gittables_githost::GitHost;

fn corpus(seed: u64) -> gittables_corpus::Corpus {
    let pipeline = Pipeline::new(PipelineConfig::sized(seed, 4, 15));
    let host = GitHost::new();
    pipeline.populate_host(&host);
    pipeline.run(&host).0
}

#[test]
fn export_writes_parseable_files_for_whole_corpus() {
    let c = corpus(41);
    let dir = std::env::temp_dir().join(format!("gt_it_export_{}", std::process::id()));
    let n = export_csv(&c, &dir).expect("export");
    assert_eq!(n, c.len());
    // Every topic subset got a directory; spot-check files parse back.
    let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).expect("manifest");
    assert_eq!(manifest.lines().count(), n + 1);
    let mut checked = 0;
    for line in manifest.lines().skip(1).take(10) {
        let path = line.split('\t').next().expect("path column");
        let text = std::fs::read_to_string(path).expect("exported file");
        let parsed = gittables_tablecsv::read_csv(&text, &Default::default()).expect("reparse");
        assert!(!parsed.records.is_empty());
        checked += 1;
    }
    assert!(checked > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dedup_is_idempotent_and_order_preserving() {
    let c = corpus(43);
    let idx = dedup_indices(&c);
    assert!(idx.len() <= c.len());
    for w in idx.windows(2) {
        assert!(w[0] < w[1]);
    }
    // Groups and survivors are consistent: survivors = total - extra members.
    let dup_extra: usize = exact_duplicates(&c)
        .iter()
        .map(|g| g.members.len() - 1)
        .sum();
    assert_eq!(idx.len(), c.len() - dup_extra);
}
