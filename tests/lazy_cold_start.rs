//! Cold-start regression pin for the sidecar boot path: booting the
//! engine off mapped sidecars must keep peak RSS near-flat as the corpus
//! doubles (an engine over the materialized corpus grows linearly — that
//! gap is the point of the lazy path), report `boot_path: "sidecar"`
//! under `/metrics`, and spend ≈ 0 ms in index builds. Writing the
//! sidecar — `build_sidecars`, or a boot that finds none — reads the
//! store one shard at a time, so its peak grows with the sidecar, not
//! with the corpus.
//!
//! Peak RSS (`VmHWM`) is a per-process high-water mark, so each boot is
//! measured in a **child process**: the test re-execs its own binary
//! filtered to [`child_probe`], which boots, answers one query per
//! endpoint family, and prints one `COLDSTART` line of four numbers.

use std::path::PathBuf;

use gittables_corpus::{
    load_store, save_store_as, AnnotatedTable, Corpus, StoreFormat, SIDECAR_FILE,
};
use gittables_serve::{build_sidecars, QueryEngine};
use gittables_table::{Provenance, Table};

const DIR_VAR: &str = "GT_COLD_START_DIR";
const MODE_VAR: &str = "GT_COLD_START_MODE";

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`).
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let hwm = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .expect("VmHWM line");
    hwm.trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("kB")
}

/// Child half: boots the engine over `$GT_COLD_START_DIR` (off the
/// sidecar via [`QueryEngine::load`], or over the loaded corpus when
/// `$GT_COLD_START_MODE=materialized`), exercises each endpoint family,
/// and prints its boot stats plus this process's peak RSS; with
/// `$GT_COLD_START_MODE=index` it only runs [`build_sidecars`]. Runs as
/// an inert no-op in a normal suite invocation (the env vars are unset).
#[test]
fn child_probe() {
    let Ok(dir) = std::env::var(DIR_VAR) else {
        return;
    };
    let engine = match std::env::var(MODE_VAR).as_deref() {
        Ok("index") => {
            let report = build_sidecars(&dir).unwrap();
            println!("COLDSTART 0 0 {} {}", report.tables, peak_rss_kb());
            return;
        }
        Ok("materialized") => QueryEngine::from_corpus(load_store(&dir).unwrap()),
        _ => QueryEngine::load(&dir).unwrap(),
    };
    // Touch every index (search scores the full matrix) and one table
    // block, so the measured high-water mark covers real serving.
    let hits = engine.search("status quantity price", 3).len();
    let completions = engine.complete(&["col0"], 3).len();
    let _types = engine.type_counts().len(); // synth corpus is unannotated
    let summary = engine.table_summary(0).is_some();
    assert!(hits > 0 && completions > 0 && summary);
    let stats = engine.build_stats();
    println!(
        "COLDSTART {} {:.4} {} {}",
        u8::from(stats.boot_path == "sidecar"),
        stats.index_build_ms,
        engine.num_tables(),
        peak_rss_kb()
    );
}

/// A synth corpus whose cell data dominates memory: `tables` tables of
/// 300 rows x 6 columns of distinct strings.
fn synth_corpus(tables: usize) -> Corpus {
    let mut c = Corpus::new(format!("cold-{tables}"));
    let header = ["col0", "quantity", "status", "price", "city", "note"];
    for ti in 0..tables {
        let rows: Vec<Vec<String>> = (0..300)
            .map(|r| {
                (0..header.len())
                    .map(|col| format!("cell {ti} {r} {col} padding padding"))
                    .collect()
            })
            .collect();
        let t = Table::from_string_rows(format!("t{ti}"), &header, rows)
            .unwrap()
            .with_provenance(Provenance::new(format!("o/r{ti}"), format!("t{ti}.csv")));
        c.push(AnnotatedTable::new(t));
    }
    c
}

struct Probe {
    boot_sidecar: bool,
    index_build_ms: f64,
    tables: usize,
    peak_rss_kb: u64,
}

/// Re-execs this test binary filtered to [`child_probe`] and parses its
/// `COLDSTART` line.
fn spawn_probe(dir: &PathBuf, mode: &str) -> Probe {
    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(exe)
        .args(["child_probe", "--exact", "--nocapture", "--test-threads=1"])
        .env(DIR_VAR, dir)
        .env(MODE_VAR, mode)
        .output()
        .expect("spawn probe child");
    assert!(
        out.status.success(),
        "probe child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // `--nocapture` can interleave libtest's own "test child_probe ..."
    // prefix onto the same line, so split on the marker, not the line
    // start.
    let line = stdout
        .split_once("COLDSTART ")
        .unwrap_or_else(|| panic!("no COLDSTART line in probe output:\n{stdout}"))
        .1
        .lines()
        .next()
        .expect("marker is followed by the four numbers");
    let mut fields = line.split_whitespace();
    let mut next = || fields.next().expect("four COLDSTART fields");
    Probe {
        boot_sidecar: next() == "1",
        index_build_ms: next().parse().expect("index_build_ms"),
        tables: next().parse().expect("tables"),
        peak_rss_kb: next().parse().expect("peak_rss_kb"),
    }
}

fn store_with_sidecars(tag: &str, tables: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gt_cold_start_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    save_store_as(&synth_corpus(tables), &dir, 8, StoreFormat::ColV1).unwrap();
    build_sidecars(&dir).unwrap();
    dir
}

#[test]
fn sidecar_boot_rss_stays_near_flat_as_corpus_doubles() {
    // A materialized column is one arena, not a `String` per cell, so it
    // takes this many tables for the doubling to cost over 2 MB.
    let small = store_with_sidecars("small", 64);
    let big = store_with_sidecars("big", 128);

    let lazy_small = spawn_probe(&small, "lazy");
    let lazy_big = spawn_probe(&big, "lazy");
    let mat_small = spawn_probe(&small, "materialized");
    let mat_big = spawn_probe(&big, "materialized");
    std::fs::remove_dir_all(&small).ok();
    std::fs::remove_dir_all(&big).ok();

    assert_eq!(lazy_small.tables, 64);
    assert_eq!(lazy_big.tables, 128);
    assert!(lazy_small.boot_sidecar && lazy_big.boot_sidecar);
    assert!(!mat_small.boot_sidecar && !mat_big.boot_sidecar);

    // The materialized boot visibly pays for the doubled corpus...
    let mat_growth = mat_big.peak_rss_kb.saturating_sub(mat_small.peak_rss_kb);
    assert!(
        mat_growth > 2048,
        "materialized growth only {mat_growth} KB — corpus too small for the regression to be observable \
         (mat {} -> {} KB)",
        mat_small.peak_rss_kb,
        mat_big.peak_rss_kb
    );
    // ...while the sidecar boot's high-water mark stays near flat: its
    // growth is a small fraction of the materialized growth.
    let lazy_growth = lazy_big.peak_rss_kb.saturating_sub(lazy_small.peak_rss_kb);
    assert!(
        lazy_growth * 4 < mat_growth,
        "sidecar boot RSS grew {lazy_growth} KB vs materialized {mat_growth} KB \
         (lazy {} -> {} KB, mat {} -> {} KB)",
        lazy_small.peak_rss_kb,
        lazy_big.peak_rss_kb,
        mat_small.peak_rss_kb,
        mat_big.peak_rss_kb
    );
    assert!(
        lazy_big.peak_rss_kb < mat_big.peak_rss_kb,
        "sidecar boot must peak below the materialized boot ({} vs {} KB)",
        lazy_big.peak_rss_kb,
        mat_big.peak_rss_kb
    );

    // Sidecar boots reassemble, they don't rebuild: ≈ 0 index time.
    assert!(
        lazy_big.index_build_ms < 5.0,
        "sidecar index assembly took {:.2} ms",
        lazy_big.index_build_ms
    );
}

#[test]
fn writing_the_sidecar_grows_with_the_sidecar_not_the_corpus() {
    // What a 4x store may add to the peak of `build_sidecars`, and of a
    // boot that has to write the sidecar, beyond the growth of the
    // sidecar and one shard file (mapped, then decoded): allocator and
    // page-cache noise.
    const SLACK_KB: u64 = 3 * 1024;
    let small = store_with_sidecars("write_1x", 64);
    let big = store_with_sidecars("write_4x", 256);
    let size = |dir: &PathBuf, file: &str| dir.join(file).metadata().unwrap().len() / 1024;
    let largest_shard_kb = std::fs::read_dir(&big)
        .unwrap()
        .map(|f| f.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "colv1"))
        .map(|p| p.metadata().unwrap().len() / 1024)
        .max()
        .unwrap();
    let bound = size(&big, SIDECAR_FILE).saturating_sub(size(&small, SIDECAR_FILE))
        + largest_shard_kb
        + SLACK_KB;

    let mut peaks = Vec::new();
    for dir in [&small, &big] {
        let index = spawn_probe(dir, "index");
        std::fs::remove_file(dir.join(SIDECAR_FILE)).unwrap();
        let rewrite = spawn_probe(dir, "lazy");
        assert!(rewrite.boot_sidecar && dir.join(SIDECAR_FILE).exists());
        assert_eq!(index.tables, rewrite.tables);
        peaks.push((index.peak_rss_kb, rewrite.peak_rss_kb));
    }
    std::fs::remove_dir_all(&small).ok();
    std::fs::remove_dir_all(&big).ok();

    let [(index_1x, boot_1x), (index_4x, boot_4x)] = peaks[..] else {
        unreachable!("two stores")
    };
    for (what, at_1x, at_4x) in [
        ("build_sidecars", index_1x, index_4x),
        ("a boot writing the sidecar", boot_1x, boot_4x),
    ] {
        let growth = at_4x.saturating_sub(at_1x);
        assert!(
            growth <= bound,
            "{what}: peak RSS grew {growth} KB from 1x to 4x ({at_1x} -> {at_4x} KB), \
             more than the {bound} KB of sidecar growth, one shard and slack"
        );
    }
}

#[test]
fn metrics_report_sidecar_boot_path() {
    let dir = store_with_sidecars("metrics", 4);
    let engine = std::sync::Arc::new(QueryEngine::load(&dir).unwrap());
    let handle = gittables_serve::Server::start(
        engine,
        "127.0.0.1:0",
        gittables_serve::ServerConfig::default(),
    )
    .expect("bind");
    let (status, body) = gittables_serve::get(handle.addr(), "/metrics").expect("metrics");
    assert_eq!(status, 200);
    let snap: gittables_serve::MetricsSnapshot = serde_json::from_str(&body).expect("json");
    assert_eq!(snap.engine.boot_path, "sidecar", "{body}");
    assert_eq!(snap.engine.fallback_reason, None);
    assert!(snap.engine.index_build_ms < 5.0, "{body}");
    gittables_serve::get(handle.addr(), "/shutdown").ok();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
