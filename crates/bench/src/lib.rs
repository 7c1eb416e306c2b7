//! The `expt` harness: one binary regenerates every table and figure of
//! the paper from a registry of experiments ([`experiments::REGISTRY`], in
//! the paper's order; README "Experiments" holds the index and the
//! measured suite time).
//!
//! ```sh
//! cargo run --release -p gittables_bench --bin expt -- table1
//! cargo run --release -p gittables_bench --bin expt -- all --topics 12 --repos 40
//! ```
//!
//! Every experiment takes the same options:
//!
//! * `--seed <u64>`     master seed (default 42)
//! * `--topics <n>`     number of query topics (default 12)
//! * `--repos <n>`      repositories generated per topic (default 40)
//!
//! plus the per-experiment extras [`USAGE`] lists, and prints the paper's
//! rows/series to stdout. The populated host, the pipeline and the corpus
//! are built at most once per process by [`Ctx`] and lent to every
//! experiment that asks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use std::fmt;
use std::sync::OnceLock;

use experiments::{Experiment, REGISTRY};
use gittables_core::{Pipeline, PipelineConfig, PipelineReport};
use gittables_corpus::{Corpus, Histogram};
use gittables_githost::GitHost;
use gittables_synth::wordnet::{self, Topic};

/// The command line, above the registry index [`usage`] appends.
pub const USAGE: &str = "\
usage: expt <name>|all [--seed N] [--topics N] [--repos N] [--<extra> V]

extras (defaults): table7 --per-type 150 --classifier forest|logistic|mlp
                   domain_shift --columns 400 --folds 10
                   t2d --tables 300
                   search_benchmark --k 10
                   completion_eval --k 10 --max-schemas 300";

/// [`USAGE`] followed by the registry index: every experiment's name and
/// the paper artefact it regenerates, in the paper's order.
#[must_use]
pub fn usage() -> String {
    let mut out = format!("{USAGE}\n\nexperiments:\n");
    for e in REGISTRY {
        out.push_str(&format!("  {:<20}{}\n", e.name, e.artefact));
    }
    out
}

/// Why a command line was rejected. Every variant exits 2 with the usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No experiment name (or `all`) was given.
    NoExperiment,
    /// The name is not in the registry.
    UnknownExperiment(String),
    /// A second bare word after the experiment name.
    UnexpectedArgument(String),
    /// A `--flag` no experiment reads.
    UnknownOption(String),
    /// A `--flag` at the end of the line or followed by another flag.
    MissingValue(String),
    /// A numeric option whose value does not parse.
    BadNumber {
        /// The option, with its dashes.
        flag: String,
        /// What was given for it.
        value: String,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::NoExperiment => write!(f, "no experiment named"),
            ArgsError::UnknownExperiment(name) => write!(f, "unknown experiment {name:?}"),
            ArgsError::UnexpectedArgument(arg) => write!(f, "unexpected argument {arg:?}"),
            ArgsError::UnknownOption(flag) => write!(f, "unknown option {flag}"),
            ArgsError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgsError::BadNumber { flag, value } => {
                write!(f, "{flag} needs a number, got {value:?}")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

/// Parsed CLI options: the three every experiment takes, then the extras
/// only the named experiments read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExptArgs {
    /// Master seed.
    pub seed: u64,
    /// Number of topics queried.
    pub topics: usize,
    /// Repositories per topic.
    pub repos: usize,
    /// `--k`: the cut-off of `search_benchmark` and `completion_eval`.
    pub k: usize,
    /// `--max-schemas`: how many schemas `completion_eval` holds out.
    pub max_schemas: usize,
    /// `--per-type`: `table7`'s training columns per type (paper: 500).
    pub per_type: usize,
    /// `--classifier`: `table7`'s model — `forest`, `logistic` or `mlp`.
    pub classifier: String,
    /// `--columns`: columns `domain_shift` samples per corpus.
    pub columns: usize,
    /// `--folds`: `domain_shift`'s cross-validation folds.
    pub folds: usize,
    /// `--tables`: size of `t2d`'s gold standard (paper: 779).
    pub tables: usize,
}

impl Default for ExptArgs {
    fn default() -> Self {
        ExptArgs {
            seed: 42,
            topics: 12,
            repos: 40,
            k: 10,
            max_schemas: 300,
            per_type: 150,
            classifier: "forest".to_string(),
            columns: 400,
            folds: 10,
            tables: 300,
        }
    }
}

impl ExptArgs {
    /// Parses a command line (without the program name) into the selected
    /// experiments — a one-element slice of [`REGISTRY`], or all of it for
    /// `all` — and their options. Nothing is defaulted on bad input: an
    /// unknown name or option, a flag without a value, an unparsable
    /// number or a stray word is an [`ArgsError`].
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(&'static [Experiment], ExptArgs), ArgsError> {
        fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ArgsError> {
            value.parse().map_err(|_| ArgsError::BadNumber {
                flag: flag.to_string(),
                value: value.to_string(),
            })
        }
        let mut out = ExptArgs::default();
        let mut name: Option<String> = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                if name.is_some() {
                    return Err(ArgsError::UnexpectedArgument(arg));
                }
                name = Some(arg);
                continue;
            };
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| ArgsError::MissingValue(arg.clone()))?;
            match key {
                "seed" => out.seed = number(&arg, &value)?,
                "topics" => out.topics = number(&arg, &value)?,
                "repos" => out.repos = number(&arg, &value)?,
                "k" => out.k = number(&arg, &value)?,
                "max-schemas" => out.max_schemas = number(&arg, &value)?,
                "per-type" => out.per_type = number(&arg, &value)?,
                "classifier" => out.classifier = value,
                "columns" => out.columns = number(&arg, &value)?,
                "folds" => out.folds = number(&arg, &value)?,
                "tables" => out.tables = number(&arg, &value)?,
                _ => return Err(ArgsError::UnknownOption(arg)),
            }
        }
        let name = name.ok_or(ArgsError::NoExperiment)?;
        let selected = if name == "all" {
            REGISTRY
        } else {
            let i = REGISTRY
                .iter()
                .position(|e| e.name == name)
                .ok_or(ArgsError::UnknownExperiment(name))?;
            &REGISTRY[i..=i]
        };
        Ok((selected, out))
    }
}

/// What the experiments of one process share: the options, and — each
/// built on first use, at most once — the pipeline, the populated host and
/// the corpus with its report. Everything is lent immutably; an experiment
/// that has to change the host takes a copy of its own
/// ([`Ctx::populated_host`]).
pub struct Ctx {
    args: ExptArgs,
    pipeline: OnceLock<Pipeline>,
    host: OnceLock<GitHost>,
    built: OnceLock<(Corpus, PipelineReport)>,
}

impl Ctx {
    /// A context that has built nothing yet.
    #[must_use]
    pub fn new(args: ExptArgs) -> Self {
        Ctx {
            args,
            pipeline: OnceLock::new(),
            host: OnceLock::new(),
            built: OnceLock::new(),
        }
    }

    /// The parsed options.
    #[must_use]
    pub fn args(&self) -> &ExptArgs {
        &self.args
    }

    /// The pipeline (ontologies, annotators) over mixed-domain topics.
    pub fn pipeline(&self) -> &Pipeline {
        self.pipeline.get_or_init(|| {
            Pipeline::new(PipelineConfig {
                topics: mixed_topics(self.args.topics),
                repos_per_topic: self.args.repos,
                ..PipelineConfig::small(self.args.seed)
            })
        })
    }

    /// A fresh host populated with the pipeline's synthetic repositories:
    /// the same content as [`Ctx::host`], owned by the caller.
    #[must_use]
    pub fn populated_host(&self) -> GitHost {
        let host = GitHost::new();
        self.pipeline().populate_host(&host);
        host
    }

    /// The shared populated host.
    pub fn host(&self) -> &GitHost {
        self.host.get_or_init(|| self.populated_host())
    }

    fn built(&self) -> &(Corpus, PipelineReport) {
        self.built.get_or_init(|| self.pipeline().run(self.host()))
    }

    /// The standard experiment corpus: the full pipeline over the shared
    /// host.
    pub fn corpus(&self) -> &Corpus {
        &self.built().0
    }

    /// The report of the run that built [`Ctx::corpus`].
    pub fn report(&self) -> &PipelineReport {
        &self.built().1
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

/// Table rows pairing two histograms over the same bins: the bin's label,
/// then each series' count with a [`bar`] scaled to the larger of the two.
#[must_use]
pub fn histogram_rows(
    a: &Histogram,
    b: &Histogram,
    label: impl Fn(f64) -> String,
) -> Vec<Vec<String>> {
    let max = a.bins.iter().chain(&b.bins).copied().max().unwrap_or(1);
    let cell = |count: usize| format!("{count:>6} {}", bar(count, max, 22));
    a.series()
        .iter()
        .zip(b.series())
        .map(|(&(mid, x), (_, y))| vec![label(mid), cell(x), cell(y)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(&'static [Experiment], ExptArgs), ArgsError> {
        ExptArgs::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn mixed_topics_cover_domains() {
        use gittables_synth::schema::Domain;
        let t = mixed_topics(18);
        assert_eq!(t.len(), 18);
        let domains: std::collections::HashSet<Domain> = t.iter().map(|t| t.domain).collect();
        assert!(domains.len() >= 8, "only {domains:?}");
    }

    #[test]
    fn parse_accepts_names_defaults_and_extras() {
        let (selected, args) = parse("table7").unwrap();
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].name, "table7");
        assert_eq!(args, ExptArgs::default());

        let (selected, args) =
            parse("--seed 7 all --topics 4 --repos 6 --k 5 --classifier logistic").unwrap();
        assert_eq!(selected.len(), REGISTRY.len());
        assert_eq!((args.seed, args.topics, args.repos), (7, 4, 6));
        assert_eq!((args.k, args.classifier.as_str()), (5, "logistic"));
    }

    #[test]
    fn parse_rejects_a_missing_or_unknown_experiment() {
        assert_eq!(parse("").unwrap_err(), ArgsError::NoExperiment);
        assert_eq!(parse("--topics 3").unwrap_err(), ArgsError::NoExperiment);
        assert_eq!(
            parse("table9").unwrap_err(),
            ArgsError::UnknownExperiment("table9".into())
        );
        assert_eq!(
            parse("table1 table2").unwrap_err(),
            ArgsError::UnexpectedArgument("table2".into())
        );
    }

    #[test]
    fn parse_rejects_an_unparsable_number() {
        for line in ["table1 --topics x", "table1 --seed -1", "t2d --tables 6o"] {
            assert!(
                matches!(parse(line).unwrap_err(), ArgsError::BadNumber { .. }),
                "{line}"
            );
        }
        assert_eq!(
            parse("table1 --topics x").unwrap_err().to_string(),
            "--topics needs a number, got \"x\""
        );
    }

    #[test]
    fn parse_rejects_a_flag_without_a_value_and_an_unknown_flag() {
        assert_eq!(
            parse("table1 --repos").unwrap_err(),
            ArgsError::MissingValue("--repos".into())
        );
        assert_eq!(
            parse("table1 --topics --repos 3").unwrap_err(),
            ArgsError::MissingValue("--topics".into())
        );
        assert_eq!(
            parse("table1 --per_type 40").unwrap_err(),
            ArgsError::UnknownOption("--per_type".into())
        );
    }

    #[test]
    fn bar_bounds() {
        assert_eq!(bar(0, 0, 10), "");
        assert_eq!(bar(10, 10, 10).len(), 10);
        assert!(bar(1, 100, 10).len() <= 10);
    }
}
