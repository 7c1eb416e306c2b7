//! Pipeline configuration.

use gittables_curate::CurationConfig;
use gittables_synth::wordnet::{topic_subset, Topic};
use gittables_tablecsv::ReadOptions;
use gittables_tablesql::SqlReadOptions;

/// Configuration of the full pipeline. Scale knobs (`topics`,
/// `repos_per_topic`) control corpus size; everything else defaults to the
/// paper's settings.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// The query topics.
    pub topics: Vec<Topic>,
    /// Repositories generated per topic when populating a host.
    pub repos_per_topic: usize,
    /// CSV read options.
    pub read_options: ReadOptions,
    /// SQL-dump read options (dialect is sniffed per file by default).
    pub sql_options: SqlReadOptions,
    /// Probability a synthesized file is a SQL dump instead of CSV when
    /// populating a host. `0.0` (the default) generates the exact
    /// CSV-only corpora of earlier versions, bit for bit.
    pub sql_file_prob: f64,
    /// Curation filter configuration.
    pub curation: CurationConfig,
    /// Semantic-annotation similarity threshold.
    pub semantic_threshold: f32,
    /// Whether to run the PII anonymization pass.
    pub anonymize: bool,
    /// Worker threads for the parse/curate/annotate stage (0 ⇒ available
    /// parallelism).
    pub workers: usize,
    /// Retry, backoff, and quarantine policy for host faults.
    pub fault: FaultPolicy,
}

/// How the pipeline reacts to host faults: retry transient errors with
/// jittered exponential backoff (5 ms doubling per retry, capped at
/// 100 ms), bounded per operation and per repository; quarantine the
/// repository (and keep going) when a bound is hit or a fault is
/// permanent.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Attempts per host operation before giving up on it (1 ⇒ never
    /// retry).
    pub max_attempts: u32,
    /// Total retries allowed across all of one repository's fetches
    /// before the repository is quarantined.
    pub repo_retry_budget: u32,
    /// Whether backoff actually sleeps. Scheduled delays are accounted in
    /// the report either way; tests disable sleeping to stay fast.
    pub sleep: bool,
    /// Test hook for the worker-panic quarantine path: processing any
    /// file whose content contains this marker panics, standing in for a
    /// pathological table that crashes a worker.
    pub poison_marker: Option<String>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_attempts: 4,
            repo_retry_budget: 16,
            sleep: true,
            poison_marker: None,
        }
    }
}

impl PipelineConfig {
    /// The paper-scale analysis run: 97 topics.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        PipelineConfig {
            seed,
            topics: topic_subset(97),
            repos_per_topic: 120,
            ..PipelineConfig::small(seed)
        }
    }

    /// A laptop-scale run for tests and examples: 3 topics, a few repos.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        PipelineConfig {
            seed,
            topics: topic_subset(3),
            repos_per_topic: 12,
            read_options: ReadOptions::default(),
            sql_options: SqlReadOptions::default(),
            sql_file_prob: 0.0,
            curation: CurationConfig {
                // The analysis corpus keeps unlicensed tables; the published
                // corpus filters them. Default to keeping (analysis mode).
                require_license: false,
                ..CurationConfig::default()
            },
            semantic_threshold: gittables_annotate::DEFAULT_THRESHOLD,
            anonymize: true,
            workers: 0,
            fault: FaultPolicy::default(),
        }
    }

    /// A medium run for experiments: `n_topics` topics, `repos` repos each.
    #[must_use]
    pub fn sized(seed: u64, n_topics: usize, repos: usize) -> Self {
        PipelineConfig {
            topics: topic_subset(n_topics),
            repos_per_topic: repos,
            ..PipelineConfig::small(seed)
        }
    }

    /// Effective worker count.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let s = PipelineConfig::small(1);
        assert_eq!(s.topics.len(), 3);
        assert!(!s.curation.require_license);
        let p = PipelineConfig::paper(1);
        assert_eq!(p.topics.len(), 97);
        let m = PipelineConfig::sized(1, 10, 5);
        assert_eq!(m.topics.len(), 10);
        assert_eq!(m.repos_per_topic, 5);
    }

    #[test]
    fn workers_default_positive() {
        let s = PipelineConfig::small(1);
        assert!(s.effective_workers() >= 1);
        let w = PipelineConfig {
            workers: 3,
            ..PipelineConfig::small(1)
        };
        assert_eq!(w.effective_workers(), 3);
    }
}
