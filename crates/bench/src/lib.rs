//! Shared harness utilities for the experiment binaries that regenerate
//! every table and figure of the paper (see DESIGN.md §3 for the index and
//! EXPERIMENTS.md for recorded results).
//!
//! Every binary accepts the same CLI knobs:
//!
//! * `--seed <u64>`     master seed (default 42)
//! * `--topics <n>`     number of query topics (default 12)
//! * `--repos <n>`      repositories generated per topic (default 40)
//!
//! and prints the paper's rows/series to stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gittables_core::{Pipeline, PipelineConfig, PipelineReport};
use gittables_corpus::Corpus;
use gittables_githost::GitHost;
use gittables_synth::wordnet::{self, Topic};

/// Parsed CLI options common to all experiments.
#[derive(Debug, Clone)]
pub struct ExptArgs {
    /// Master seed.
    pub seed: u64,
    /// Number of topics queried.
    pub topics: usize,
    /// Repositories per topic.
    pub repos: usize,
    /// Free-form extras (`--key value`).
    pub extra: Vec<(String, String)>,
}

impl Default for ExptArgs {
    fn default() -> Self {
        ExptArgs {
            seed: 42,
            topics: 12,
            repos: 40,
            extra: Vec::new(),
        }
    }
}

impl ExptArgs {
    /// Parses `std::env::args()`.
    #[must_use]
    pub fn parse() -> Self {
        let mut out = ExptArgs::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            let value = args.get(i + 1).cloned().unwrap_or_default();
            match key.as_str() {
                "--seed" => out.seed = value.parse().unwrap_or(out.seed),
                "--topics" => out.topics = value.parse().unwrap_or(out.topics),
                "--repos" => out.repos = value.parse().unwrap_or(out.repos),
                k if k.starts_with("--") => {
                    out.extra.push((k[2..].to_string(), value));
                }
                _ => {
                    i += 1;
                    continue;
                }
            }
            i += 2;
        }
        out
    }

    /// An extra option by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.extra
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// An extra option parsed to a number, with default.
    #[must_use]
    pub fn get_num<T: std::str::FromStr + Copy>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Selects `n` topics round-robin across domains, so every content domain
/// (People, Science, Business, …) is represented regardless of `n`. The
/// plain prefix of `wordnet::topics()` is Generic-heavy, which would starve
/// PII/bias experiments of person tables.
#[must_use]
pub fn mixed_topics(n: usize) -> Vec<Topic> {
    use gittables_synth::schema::Domain;
    let all = wordnet::topics();
    let by_domain: Vec<Vec<Topic>> = Domain::ALL
        .iter()
        .map(|d| all.iter().filter(|t| t.domain == *d).cloned().collect())
        .collect();
    let mut out = Vec::with_capacity(n);
    let mut round = 0usize;
    while out.len() < n {
        let mut advanced = false;
        for dom in &by_domain {
            if out.len() >= n {
                break;
            }
            if round < dom.len() {
                out.push(dom[round].clone());
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
        round += 1;
    }
    out
}

/// Builds the standard experiment corpus: populate a host with mixed-domain
/// topics, run the full pipeline.
#[must_use]
pub fn build_corpus(args: &ExptArgs) -> (Corpus, PipelineReport) {
    let pipeline = build_pipeline(args);
    let host = GitHost::new();
    pipeline.populate_host(&host);
    pipeline.run(&host)
}

/// Builds the pipeline (annotators etc.) without running it, for experiments
/// that need the annotators or ontologies directly.
#[must_use]
pub fn build_pipeline(args: &ExptArgs) -> Pipeline {
    Pipeline::new(PipelineConfig {
        topics: mixed_topics(args.topics),
        repos_per_topic: args.repos,
        ..PipelineConfig::small(args.seed)
    })
}

/// Prints a Markdown-ish table: header row then aligned value rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(4)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Renders a small ASCII bar for histogram series.
#[must_use]
pub fn bar(count: usize, max: usize, width: usize) -> String {
    if max == 0 {
        return String::new();
    }
    let n = (count * width).div_ceil(max.max(1)).min(width);
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_topics_cover_domains() {
        use gittables_synth::schema::Domain;
        let t = mixed_topics(18);
        assert_eq!(t.len(), 18);
        let domains: std::collections::HashSet<Domain> = t.iter().map(|t| t.domain).collect();
        assert!(domains.len() >= 8, "only {domains:?}");
    }

    #[test]
    fn args_defaults() {
        let a = ExptArgs::default();
        assert_eq!(a.seed, 42);
        assert!(a.get("none").is_none());
        assert_eq!(a.get_num("x", 5usize), 5);
    }

    #[test]
    fn bar_bounds() {
        assert_eq!(bar(0, 0, 10), "");
        assert_eq!(bar(10, 10, 10).len(), 10);
        assert!(bar(1, 100, 10).len() <= 10);
    }

    #[test]
    fn small_corpus_builds() {
        let args = ExptArgs {
            topics: 2,
            repos: 4,
            ..Default::default()
        };
        let (corpus, report) = build_corpus(&args);
        assert!(!corpus.is_empty());
        assert!(report.parsed > 0);
    }
}
