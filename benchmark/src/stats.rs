//! Sample summaries: median, quartiles, and the highest percentile the
//! sample count supports.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quartile `k` (1 or 3) of an ascending slice as Python's
/// `statistics.quantiles(values, n=4)` gives it — the rule the driver
/// judges run-to-run spread by: position `k (n + 1) / 4`, counted from
/// one, interpolated, clamped to the sample.
fn quartile_sorted(sorted: &[f64], k: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = (k * (n + 1)) as f64 / 4.0 - 1.0;
            let lo = (pos.floor().max(0.0) as usize).min(n - 1);
            let hi = (lo + 1).min(n - 1);
            let frac = (pos - lo as f64).clamp(0.0, 1.0);
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The percentiles a timing may be reported at, ascending, each with
/// the sample count from which ten samples lie beyond it.
const TAIL_LADDER: [(f64, usize); 6] = [
    (75.0, 40),
    (90.0, 100),
    (95.0, 200),
    (99.0, 1_000),
    (99.9, 10_000),
    (99.99, 100_000),
];

/// The highest percentile of [`TAIL_LADDER`] that still leaves at least
/// ten samples beyond it, or `None` when even p75 does not (n < 40).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, needed)| n >= *needed)
        .map(|(p, _)| *p)
}

/// Median, quartiles, supported tail and count of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: quantile_sorted(&sorted, 0.5),
            q1: quartile_sorted(&sorted, 1),
            q3: quartile_sorted(&sorted, 3),
            tail: supported_tail(sorted.len()).map(|p| (p, quantile_sorted(&sorted, p / 100.0))),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One reading of a metric: at reference speed (`run::Gauge`), as the
/// wall clock read it, and the share of the run's CPU time the
/// hypervisor withheld while it was taken (`proc::stolen_during`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// What the metric is the median of.
    pub value: f64,
    /// The same stretch by the wall clock, not scaled; kept for a person
    /// to read beside `value`, never compared.
    pub raw: f64,
    pub stolen: f64,
}

/// The most CPU time a reading may have lost to the hypervisor and still
/// count as undisturbed. The sandbox's background is 0.5 % (README,
/// *Known noise*); during an episode it is 5–30 %.
const QUIET_SHARE: f64 = 0.01;

impl Reading {
    pub fn is_quiet(&self) -> bool {
        self.stolen <= QUIET_SHARE
    }
}

/// The undisturbed readings; when those are fewer than a third, the
/// third that lost least. Stolen time costs a two-thread phase far more
/// than its length (the other thread waits for the one that lost its
/// CPU), and no change to the program can win it back, so the
/// undisturbed readings are the ones that compare.
pub fn quiet(readings: &[Reading]) -> Vec<Reading> {
    let mut by_stolen = readings.to_vec();
    by_stolen.sort_by(|a, b| a.stolen.total_cmp(&b.stolen));
    let undisturbed = by_stolen.iter().take_while(|r| r.is_quiet()).count();
    by_stolen.truncate(undisturbed.max(readings.len().div_ceil(3)));
    by_stolen
}

/// One percentile of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, p / 100.0)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(99_999), Some(99.9));
        assert_eq!(supported_tail(1_000_000), Some(99.99));
    }

    #[test]
    fn quiet_keeps_undisturbed_readings_or_the_least_disturbed_third() {
        let r = |value: f64, stolen: f64| Reading {
            value,
            raw: value,
            stolen,
        };
        let quiet = |readings: &[Reading]| -> Vec<f64> {
            super::quiet(readings).iter().map(|r| r.value).collect()
        };
        let mostly_quiet = [
            r(1.0, 0.0),
            r(9.0, 0.2),
            r(2.0, 0.01),
            r(3.0, 0.0),
            r(8.0, 0.02),
        ];
        assert_eq!(quiet(&mostly_quiet), vec![1.0, 3.0, 2.0]);
        let disturbed = [
            r(9.0, 0.35),
            r(5.0, 0.1),
            r(1.0, 0.005),
            r(6.0, 0.15),
            r(8.0, 0.25),
            r(7.0, 0.2),
        ];
        assert_eq!(quiet(&disturbed), vec![1.0, 5.0]);
        assert_eq!(quiet(&[r(4.0, 0.3)]), vec![4.0]);
        assert!(quiet(&[]).is_empty());
    }

    #[test]
    fn quartiles_interpolate() {
        // As `statistics.quantiles([...], n=4)` answers.
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 1.5, 3.0, 4.5));
        assert_eq!(s.tail, None);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.25, 2.5, 3.75));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        let two = Summary::of(&[1.0, 3.0]);
        assert_eq!((two.q1, two.q3), (1.0, 3.0));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&values);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-9);
        assert_eq!(Summary::of(&[]).median, 0.0);
        assert_eq!(Summary::of(&[7.0]).q3, 7.0);
    }
}
