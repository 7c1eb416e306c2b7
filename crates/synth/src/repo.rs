//! Repository population: turns schema plans into CSV files inside simulated
//! GitHub repositories.
//!
//! Reproduces the provenance structure §3.2–§4.1 relies on:
//!
//! * license distribution — ≈16 % of repositories carry a license permitting
//!   redistribution (§3.3);
//! * fork flags — forked repositories are excluded from search (§3.2);
//! * per-repository table counts — 75 % of repositories contribute ≤ 5
//!   tables, with a heavy tail of "snapshot" repositories holding many
//!   near-identical tables (§4.1);
//! * file sizes bounded by the GitHub search cap of 438 kB.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csvrender::{render_csv, MessModel};
use crate::schema::SchemaSampler;
use crate::sqlrender::{render_sql, SqlRenderOptions};
use crate::tablegen::generate_table;
use crate::values::{uniform, LAST_NAMES, WORDS};
use crate::wordnet::Topic;

/// Licenses allowing content redistribution (counted as "permissive").
pub const PERMISSIVE_LICENSES: &[&str] = &[
    "mit",
    "apache-2.0",
    "bsd-3-clause",
    "bsd-2-clause",
    "cc0-1.0",
    "unlicense",
    "cc-by-4.0",
    "mpl-2.0",
];

/// Licenses that do not permit redistribution of contents (or no license).
pub const RESTRICTIVE_LICENSES: &[&str] = &["proprietary", "cc-by-nc-4.0"];

/// GitHub's search API file-size cap in bytes (§3.2).
pub const MAX_FILE_SIZE: usize = 438 * 1024;

/// A generated CSV file.
#[derive(Debug, Clone)]
pub struct SynthFile {
    /// Path within the repository.
    pub path: String,
    /// Raw CSV contents.
    pub content: String,
    /// The topic whose vocabulary seeded this file.
    pub topic: String,
}

/// A generated repository.
#[derive(Debug, Clone)]
pub struct RepoSpec {
    /// `owner/name` identifier.
    pub full_name: String,
    /// SPDX-ish license id, `None` for unlicensed.
    pub license: Option<String>,
    /// Whether this repository is a fork.
    pub fork: bool,
    /// CSV files in the repository.
    pub files: Vec<SynthFile>,
}

/// Configuration for repository generation.
#[derive(Debug, Clone)]
pub struct RepoConfig {
    /// Probability a repository carries a permissive license (§3.3: ≈16 %).
    pub permissive_prob: f64,
    /// Probability a repository is a fork (excluded from search).
    pub fork_prob: f64,
    /// Probability a repository is a "snapshot" repo with many files.
    pub snapshot_prob: f64,
    /// File count range for ordinary repositories.
    pub files_ordinary: (usize, usize),
    /// File count range for snapshot repositories.
    pub files_snapshot: (usize, usize),
    /// CSV mess model applied when rendering.
    pub mess: MessModel,
    /// Probability a file is rendered as a SQL dump instead of CSV. The
    /// default of `0.0` draws **no** randomness for the decision, so
    /// corpora generated before SQL ingestion existed stay bit-identical.
    pub sql_file_prob: f64,
    /// Dump-style options applied when rendering SQL files.
    pub sql: SqlRenderOptions,
}

impl Default for RepoConfig {
    fn default() -> Self {
        RepoConfig {
            permissive_prob: 0.16,
            fork_prob: 0.12,
            snapshot_prob: 0.02,
            files_ordinary: (1, 5),
            files_snapshot: (30, 120),
            mess: MessModel::default(),
            sql_file_prob: 0.0,
            sql: SqlRenderOptions::default(),
        }
    }
}

/// Deterministic repository generator.
#[derive(Debug, Clone)]
pub struct RepoGenerator {
    /// Generator configuration.
    pub config: RepoConfig,
    sampler: SchemaSampler,
    seed: u64,
}

impl RepoGenerator {
    /// Creates a generator with the default config.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RepoGenerator {
            config: RepoConfig::default(),
            sampler: SchemaSampler::default(),
            seed,
        }
    }

    /// Creates a generator with a custom configuration.
    #[must_use]
    pub fn with_config(seed: u64, config: RepoConfig) -> Self {
        RepoGenerator {
            config,
            sampler: SchemaSampler::default(),
            seed,
        }
    }

    /// Generates the `index`-th repository for `topic`. The `(seed, topic,
    /// index)` triple fully determines the output.
    #[must_use]
    pub fn generate(&self, topic: &Topic, index: usize) -> RepoSpec {
        let mut hash = self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in topic.noun.bytes() {
            hash = hash.wrapping_mul(0x100_0000_01b3) ^ u64::from(b);
        }
        let mut rng = StdRng::seed_from_u64(hash);
        let owner = uniform(&mut rng, LAST_NAMES).to_lowercase();
        let word = uniform(&mut rng, WORDS);
        // A short hash suffix keeps full names unique (as on real GitHub)
        // even when the owner/word pools collide across indices.
        let full_name = format!(
            "{owner}/{word}-{}-{:04x}",
            topic.noun.replace(' ', "-"),
            hash & 0xffff
        );

        let license = if rng.gen_bool(self.config.permissive_prob) {
            Some(PERMISSIVE_LICENSES[rng.gen_range(0..PERMISSIVE_LICENSES.len())].to_string())
        } else if rng.gen_bool(0.3) {
            Some(RESTRICTIVE_LICENSES[rng.gen_range(0..RESTRICTIVE_LICENSES.len())].to_string())
        } else {
            None
        };
        let fork = rng.gen_bool(self.config.fork_prob);

        let snapshot = rng.gen_bool(self.config.snapshot_prob);
        let (lo, hi) = if snapshot {
            self.config.files_snapshot
        } else {
            self.config.files_ordinary
        };
        let n_files = rng.gen_range(lo..=hi);

        // Snapshot repositories reuse one schema plan across files (daily
        // dumps of the same database, §4.1). Database dumps have proper
        // headers, so the shared plan is sampled without header defects —
        // otherwise one defective plan would be amplified across the whole
        // snapshot series and skew the curation rates.
        let shared_plan = snapshot.then(|| {
            let clean = SchemaSampler::new(crate::schema::SamplerConfig {
                unnamed_prob: 0.0,
                numeric_header_prob: 0.0,
                social_prob: 0.0,
                ..self.sampler.config.clone()
            });
            clean.sample(&mut rng, &topic.noun, topic.domain)
        });

        let mut files = Vec::with_capacity(n_files);
        for f in 0..n_files {
            let plan = match &shared_plan {
                Some(p) => {
                    // Vary only the row count between snapshots (a growing
                    // database dump: later snapshots are at least half-size).
                    let mut p = p.clone();
                    p.rows = rng.gen_range(p.rows.max(2) / 2..=p.rows.max(2));
                    p
                }
                None => self.sampler.sample(&mut rng, &topic.noun, topic.domain),
            };
            let table = generate_table(&mut rng, &plan);
            // The `> 0.0` guard keeps the zero-probability path from
            // consuming a random draw — seeded CSV-only corpora must stay
            // bit-identical to those generated before SQL support existed.
            let as_sql = self.config.sql_file_prob > 0.0 && rng.gen_bool(self.config.sql_file_prob);
            let stem = topic.noun.replace(' ', "_");
            let (mut content, ext) = if as_sql {
                let sql_name = format!("{stem}_{f}");
                (
                    render_sql(&mut rng, &sql_name, &table, &self.config.sql),
                    "sql",
                )
            } else {
                (render_csv(&mut rng, &table, &self.config.mess), "csv")
            };
            if content.len() > MAX_FILE_SIZE {
                content.truncate(MAX_FILE_SIZE);
                // Cut at the last full line so truncation looks like a
                // size-capped download, not corruption.
                if let Some(nl) = content.rfind('\n') {
                    content.truncate(nl + 1);
                }
            }
            let dir = if snapshot { "snapshots" } else { "data" };
            let path = format!("{dir}/{stem}_{f}.{ext}");
            files.push(SynthFile {
                path,
                content,
                topic: topic.noun.clone(),
            });
        }
        RepoSpec {
            full_name,
            license,
            fork,
            files,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Domain;

    fn topic() -> Topic {
        Topic {
            noun: "order".into(),
            domain: Domain::Business,
        }
    }

    #[test]
    fn deterministic() {
        let g = RepoGenerator::new(11);
        let a = g.generate(&topic(), 0);
        let b = g.generate(&topic(), 0);
        assert_eq!(a.full_name, b.full_name);
        assert_eq!(a.files.len(), b.files.len());
        assert_eq!(a.files[0].content, b.files[0].content);
    }

    #[test]
    fn different_indices_differ() {
        let g = RepoGenerator::new(11);
        let a = g.generate(&topic(), 0);
        let b = g.generate(&topic(), 1);
        assert_ne!(a.full_name, b.full_name);
    }

    #[test]
    fn license_rate_near_16_percent() {
        let g = RepoGenerator::new(13);
        let t = topic();
        let n = 1000;
        let permissive = (0..n)
            .filter(|&i| {
                g.generate(&t, i)
                    .license
                    .is_some_and(|l| PERMISSIVE_LICENSES.contains(&l.as_str()))
            })
            .count();
        let rate = permissive as f64 / n as f64;
        assert!((0.10..0.24).contains(&rate), "rate {rate}");
    }

    #[test]
    fn file_sizes_capped() {
        let g = RepoGenerator::new(17);
        for i in 0..50 {
            let r = g.generate(&topic(), i);
            for f in &r.files {
                assert!(f.content.len() <= MAX_FILE_SIZE);
            }
        }
    }

    #[test]
    fn snapshot_repos_share_schema() {
        let cfg = RepoConfig {
            snapshot_prob: 1.0,
            ..Default::default()
        };
        let g = RepoGenerator::with_config(19, cfg);
        let r = g.generate(&topic(), 0);
        assert!(r.files.len() >= 30);
        // All snapshot files share the schema (header names), even though
        // each file may render with a different delimiter or preamble.
        let headers: Vec<Vec<String>> = r
            .files
            .iter()
            .filter_map(|f| {
                gittables_tablecsv::read_csv(&f.content, &Default::default())
                    .ok()
                    .map(|p| p.header)
            })
            .collect();
        assert!(headers.len() >= r.files.len() / 2, "most files parse");
        let same = headers.iter().filter(|h| **h == headers[0]).count();
        assert!(
            same >= headers.len() * 3 / 4,
            "{same}/{} share the schema",
            headers.len()
        );
    }

    #[test]
    fn sql_files_emitted_when_enabled() {
        let cfg = RepoConfig {
            sql_file_prob: 1.0,
            snapshot_prob: 0.0,
            ..Default::default()
        };
        let g = RepoGenerator::with_config(29, cfg);
        let mut parsed = 0;
        for i in 0..20 {
            let r = g.generate(&topic(), i);
            for f in &r.files {
                assert!(f.path.ends_with(".sql"), "{}", f.path);
                if gittables_tablesql::read_sql_tables(&f.content, &Default::default()).is_ok() {
                    parsed += 1;
                }
            }
        }
        // Garbage injection aside, the dumps must decode.
        assert!(parsed >= 15, "only {parsed} dumps decoded");
    }

    #[test]
    fn default_config_emits_no_sql() {
        let g = RepoGenerator::new(31);
        for i in 0..20 {
            for f in g.generate(&topic(), i).files {
                assert!(f.path.ends_with(".csv"), "{}", f.path);
            }
        }
    }

    #[test]
    fn ordinary_repos_small() {
        let cfg = RepoConfig {
            snapshot_prob: 0.0,
            ..Default::default()
        };
        let g = RepoGenerator::with_config(23, cfg);
        for i in 0..50 {
            let r = g.generate(&topic(), i);
            assert!(r.files.len() <= 5);
        }
    }
}
