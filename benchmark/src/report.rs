//! What a run reports: the one-line result on stdout, the readable
//! table on stderr, and the result file `--compare` reads.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::stats::{self, Reading, Summary};
use crate::workloads::{self, MetricDef};

/// One reported metric. Timings carry the summary of the samples their
/// value is the median (or stated percentile) of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
    /// Samples behind the value; 1 for a single reading or a count.
    pub n: usize,
    /// Readings taken, of which the `n` undisturbed ones were kept
    /// (`stats::quiet`); `None` where nothing is set aside.
    pub readings: Option<usize>,
    /// Median of the kept readings as the wall clock read them, where
    /// `value` is at reference speed (README, *What a timing is*).
    pub wall: Option<f64>,
    pub q1: Option<f64>,
    pub q3: Option<f64>,
    /// Highest percentile with at least ten samples beyond it.
    pub tail_percentile: Option<f64>,
    pub tail: Option<f64>,
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    pub nproc: usize,
    /// The CPU the run was confined to (`proc::pin_to_one_cpu`).
    pub cpu: Option<usize>,
    pub commit: String,
    pub kernel: String,
    pub seed: u64,
    pub seconds: f64,
    /// Corpus counts of this seed.
    pub repositories: usize,
    pub files: usize,
    pub input_bytes: u64,
    pub kept_tables: usize,
    pub annotations: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub fingerprint: Fingerprint,
    pub attempted: usize,
    pub failed: usize,
    /// True when more than 30 % of the run's CPU time was system time:
    /// the page-fault noise described in the README.
    pub noisy: bool,
    /// CPU seconds the hypervisor withheld from the machine during the
    /// run (`proc::steal_ticks`).
    pub stolen_s: f64,
    /// Seconds spent on rounds given up as disturbed and the pauses
    /// after them (`run::PATIENCE`).
    pub waited_s: f64,
    pub metrics: BTreeMap<String, Measured>,
}

/// Collects metrics by name, checking each against the metric table.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Measured>);

impl Metrics {
    fn def(name: &str) -> &'static MetricDef {
        workloads::metric(name).unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
    }

    fn insert(
        &mut self,
        name: &str,
        value: f64,
        summary: Option<&Summary>,
        readings: Option<usize>,
        wall: Option<f64>,
    ) {
        let tail = summary.and_then(|s| s.tail);
        self.0.insert(
            name.to_string(),
            Measured {
                value,
                unit: Self::def(name).unit.to_string(),
                n: summary.map_or(1, |s| s.n),
                readings,
                wall,
                q1: summary.map(|s| s.q1),
                q3: summary.map(|s| s.q3),
                tail_percentile: tail.map(|t| t.0),
                tail: tail.map(|t| t.1),
            },
        );
    }

    /// A single reading or an exact count.
    pub fn value(&mut self, name: &str, value: f64) {
        self.insert(name, value, None, None, None);
    }

    /// `value` derived from the sample `summary` describes (its median,
    /// a percentile, or a rate over its median).
    pub fn sampled(&mut self, name: &str, value: f64, summary: &Summary) {
        self.insert(name, value, Some(summary), None, None);
    }

    /// The median of `samples`.
    pub fn median_of(&mut self, name: &str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.insert(name, s.median, Some(&s), None, None);
    }

    /// The median of the undisturbed `readings` (`stats::quiet`).
    pub fn quiet_median(&mut self, name: &str, readings: &[Reading]) {
        let kept = stats::quiet(readings);
        let values: Vec<f64> = kept.iter().map(|r| r.value).collect();
        let raw: Vec<f64> = kept.iter().map(|r| r.raw).collect();
        let s = Summary::of(&values);
        self.insert(
            name,
            s.median,
            Some(&s),
            Some(readings.len()),
            Some(stats::median(&raw)),
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    /// The metrics of `defs`, all of which must have been recorded.
    pub fn finish(self, defs: &[MetricDef]) -> Result<BTreeMap<String, Measured>, String> {
        let mut out = BTreeMap::new();
        for d in defs {
            let m = self
                .0
                .get(d.name)
                .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is {}", d.name, m.value));
            }
            out.insert(d.name.to_string(), m.clone());
        }
        Ok(out)
    }
}

impl RunResult {
    /// The one JSON object the driver reads from the last stdout line.
    pub fn line(&self) -> String {
        // `{:?}` prints an f64 with every digit needed to read it back.
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let f = &self.fingerprint;
        let mut out = format!(
            "{} seed {} ({}): {} repositories, {} files, {:.1} MB in, {} tables kept, {} annotations; {} of {} operations failed; {:.2} CPU-s stolen, {:.1} s given up as disturbed{}\n",
            self.workload,
            f.seed,
            if self.traced { "traced" } else { "untraced" },
            f.repositories,
            f.files,
            f.input_bytes as f64 / (1024.0 * 1024.0),
            f.kept_tables,
            f.annotations,
            self.failed,
            self.attempted,
            self.stolen_s,
            self.waited_s,
            if self.noisy { "; NOISY (system time above 30 %)" } else { "" },
        );
        for (name, m) in &self.metrics {
            out.push_str(&format!("  {name:<34} {:>14.4} {:<6}", m.value, m.unit));
            if let (Some(q1), Some(q3)) = (m.q1, m.q3) {
                let of = m.readings.map_or(String::new(), |r| format!(" of {r}"));
                out.push_str(&format!(" n={}{of} q1={q1:.4} q3={q3:.4}", m.n));
            }
            if let (Some(p), Some(t)) = (m.tail_percentile, m.tail) {
                out.push_str(&format!(" p{p}={t:.4}"));
            }
            if let Some(wall) = m.wall {
                out.push_str(&format!(" wall={wall:.4}"));
            }
            out.push('\n');
        }
        out
    }
}
