//! Demonstrates the pipeline's one parallelism setting,
//! `PipelineConfig::workers`: the per-repository fan-out yields the same
//! corpus and report on four workers as on one.
//!
//! ```sh
//! cargo run --release --example parallel_pipeline
//! ```

use std::time::Instant;

use gittables_core::{Pipeline, PipelineConfig};
use gittables_githost::GitHost;

fn main() {
    // Single-worker serial baseline vs a four-worker fan-out (`workers: 0`,
    // the default, means the machine's available parallelism).
    let on_workers = |workers: usize| {
        Pipeline::new(PipelineConfig {
            workers,
            ..PipelineConfig::sized(42, 3, 12)
        })
    };
    let (serial, parallel) = (on_workers(1), on_workers(4));
    let host = GitHost::new();
    serial.populate_host(&host);

    let t0 = Instant::now();
    let (serial_corpus, serial_report) = serial.run(&host);
    let serial_time = t0.elapsed();

    let t1 = Instant::now();
    let (parallel_corpus, parallel_report) = parallel.run(&host);
    let parallel_time = t1.elapsed();

    println!(
        "serial   : {} tables, {} columns in {serial_time:?}",
        serial_corpus.len(),
        serial_report.total_columns
    );
    println!(
        "parallel : {} tables, {} columns in {parallel_time:?}",
        parallel_corpus.len(),
        parallel_report.total_columns
    );
    assert_eq!(serial_report, parallel_report, "reports must match exactly");
    assert_eq!(serial_corpus, parallel_corpus, "corpora must match exactly");
    println!("parallel output is bit-identical to serial ✓");
}
