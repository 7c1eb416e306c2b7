//! `--compare <baseline> <candidate>`: per (workload, metric), both
//! sides' medians and quartiles over their runs, the relative change,
//! and a verdict against the metric's bound.

use std::collections::BTreeMap;
use std::path::Path;

use crate::report::RunResult;
use crate::stats::Summary;
use crate::workloads::{Better, MetricDef, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the baseline by more than the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// Within the bound, but the runs of one side spread wider than the
    /// bound, so "unchanged" cannot be told from "changed".
    Unresolved,
    /// A per-layer metric: shown, never judged.
    Info,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub base: Summary,
    pub cand: Summary,
    /// Share of the baseline median the candidate is worse by
    /// (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Judges one metric of one workload from each side's per-run values.
pub fn judge(def: &MetricDef, base: &[f64], cand: &[f64]) -> Row {
    let (b, c) = (Summary::of(base), Summary::of(cand));
    let change = if b.median == 0.0 {
        0.0
    } else {
        (c.median - b.median) / b.median.abs()
    };
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let verdict = match def.bound {
        None => Verdict::Info,
        Some(bound) if worse_by > bound => Verdict::Regression,
        Some(bound) if b.spread().max(c.spread()) > bound => {
            // Too noisy to call unchanged, unless every candidate run
            // beats every baseline run.
            if cand.iter().all(|&x| base.iter().all(|&y| better(x, y))) {
                Verdict::Ok
            } else {
                Verdict::Unresolved
            }
        }
        Some(_) => Verdict::Ok,
    };
    Row {
        base: b,
        cand: c,
        worse_by,
        verdict,
    }
}

/// workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Side {
    runs: Runs,
    /// workload → (attempted, failed) over all its runs.
    operations: BTreeMap<String, (usize, usize)>,
}

fn load(path: &Path) -> Result<Side, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("result-") && name.ends_with(".json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        return Err(format!("{} holds no result-*.json", path.display()));
    }
    let mut side = Side {
        runs: Runs::new(),
        operations: BTreeMap::new(),
    };
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let r: RunResult =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let ops = side.operations.entry(r.workload.clone()).or_insert((0, 0));
        ops.0 += r.attempted;
        ops.1 += r.failed;
        let metrics = side.runs.entry(r.workload).or_default();
        for (name, m) in r.metrics {
            metrics.entry(name).or_default().push(m.value);
        }
    }
    Ok(side)
}

pub fn run(baseline: &Path, candidate: &Path) -> Result<(), String> {
    let (base, cand) = (load(baseline)?, load(candidate)?);
    let (mut regressions, mut unresolved) = (0, 0);
    for (workload, base_metrics) in &base.runs {
        let Some(cand_metrics) = cand.runs.get(workload) else {
            println!("{workload}: no candidate runs");
            continue;
        };
        println!(
            "{workload}\n  {:<34} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict",
            "metric [unit]", "base median", "iqr", "cand median", "iqr", "worse by", "bound"
        );
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(b), Some(c)) = (base_metrics.get(def.name), cand_metrics.get(def.name))
            else {
                continue;
            };
            let row = judge(def, b, c);
            match row.verdict {
                Verdict::Regression => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok | Verdict::Info => {}
            }
            println!(
                "  {:<34} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>+7.1}% {:>6}  {}",
                format!("{} [{}]", def.name, def.unit),
                row.base.median,
                row.base.spread() * 100.0,
                row.cand.median,
                row.cand.spread() * 100.0,
                row.worse_by * 100.0,
                def.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                match row.verdict {
                    Verdict::Ok => format!("ok (n={}/{})", row.base.n, row.cand.n),
                    Verdict::Regression => "REGRESSION".to_string(),
                    Verdict::Unresolved => "unresolved".to_string(),
                    Verdict::Info => String::new(),
                },
            );
        }
        let ratio = |(attempted, failed): (usize, usize)| failed as f64 / attempted.max(1) as f64;
        let (b, c) = (
            ratio(base.operations[workload]),
            ratio(cand.operations.get(workload).copied().unwrap_or((0, 0))),
        );
        let worse = c > b;
        if worse {
            regressions += 1;
        }
        println!(
            "  {:<34} {b:>12.6} {:>7} {c:>12.6} {:>7} {:>8} {:>6}  {}",
            "fail_ratio [failed/attempted]",
            "",
            "",
            "",
            "0",
            if worse { "REGRESSION" } else { "ok" }
        );
    }
    println!("{regressions} regressions, {unresolved} unresolved");
    if regressions > 0 {
        return Err(format!(
            "{regressions} metrics regressed beyond their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn def(better: Better, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = &def(Better::Lower, Some(0.10));
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let near = judge(lower, &steady, &[10.4, 10.5, 10.6, 10.5, 10.45]);
        assert_eq!(near.verdict, Verdict::Ok);
        assert!((near.worse_by - 0.05).abs() < 1e-9);
        assert_eq!(
            judge(lower, &steady, &[11.5, 11.6, 11.4, 11.5, 11.5]).verdict,
            Verdict::Regression
        );
        // Within the bound at the median, but one side spreads wider.
        assert_eq!(
            judge(lower, &steady, &[8.0, 10.2, 12.5, 9.0, 11.5]).verdict,
            Verdict::Unresolved
        );
        // As noisy, but every candidate run beats every baseline run.
        assert_eq!(
            judge(lower, &steady, &[5.0, 7.0, 9.0, 6.0, 8.0]).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let higher = &def(Better::Higher, Some(0.10));
        let base = [1000.0, 1010.0, 990.0];
        let slower = judge(higher, &base, &[850.0, 860.0, 840.0]);
        assert_eq!(slower.verdict, Verdict::Regression);
        assert!((slower.worse_by - 0.15).abs() < 1e-9);
        let faster = judge(higher, &base, &[1500.0, 1510.0, 1490.0]);
        assert_eq!(faster.verdict, Verdict::Ok);
        assert!(faster.worse_by < 0.0);
        let info = judge(&def(Better::Lower, None), &[1.0], &[5.0]);
        assert_eq!(info.verdict, Verdict::Info);
    }
}
