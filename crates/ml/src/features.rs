//! Sherlock-style column feature extraction (Hulsebos et al., KDD 2019).
//!
//! Exactly **1 188 features** per column, mirroring the original's structure:
//!
//! * **960** character-distribution features — for each of the 96 printable
//!   ASCII characters, ten aggregates of the per-cell occurrence counts:
//!   `any`, `all`, `mean`, `variance`, `min`, `max`, `median`, `sum`,
//!   `skewness`, `kurtosis`;
//! * **192** word-embedding features — the 64-dim char-n-gram embedding of
//!   each cell, aggregated per dimension by `mean`, `std`, `max`;
//! * **36** global statistics — lengths, entropy, distinctness, atomic-type
//!   fractions, numeric-value moments.
//!
//! These are the features used for the data-shift detection (§4.2) and the
//! semantic-type detection experiments (§5.1, Table 7).

use gittables_embed::NgramEmbedder;
use gittables_table::{infer_value_type, is_missing, AtomicType};

/// The 96 printable ASCII characters tracked by the character features.
pub const TRACKED_CHARS: usize = 96; // 0x20 ..= 0x7e plus a catch-all bin

/// Aggregates per tracked character.
pub const CHAR_AGGREGATES: usize = 10;

/// Embedding dimensionality used by the extractor.
pub const EMBED_DIM: usize = 64;

/// Embedding aggregates (`mean`, `std`, `max`).
pub const EMBED_AGGREGATES: usize = 3;

/// Number of global statistics.
pub const GLOBAL_STATS: usize = 36;

/// Total feature count — matches Sherlock's 1 188.
pub const FEATURE_COUNT: usize =
    TRACKED_CHARS * CHAR_AGGREGATES + EMBED_DIM * EMBED_AGGREGATES + GLOBAL_STATS;

/// Column feature extractor. Construction builds the embedder; reuse one
/// extractor across columns.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    embedder: NgramEmbedder,
    /// Maximum number of cells examined per column (cost bound; Sherlock
    /// samples cells too).
    pub max_cells: usize,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor {
            embedder: NgramEmbedder {
                dim: EMBED_DIM,
                ..NgramEmbedder::default()
            },
            max_cells: 256,
        }
    }
}

/// Simple aggregate bundle over a series of per-cell numbers.
fn aggregates(values: &[f64]) -> [f64; CHAR_AGGREGATES] {
    let n = values.len() as f64;
    if values.is_empty() {
        return [0.0; CHAR_AGGREGATES];
    }
    let any = f64::from(values.iter().any(|&v| v > 0.0));
    let all = f64::from(values.iter().all(|&v| v > 0.0));
    let sum: f64 = values.iter().sum();
    let mean = sum / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let median = median_of(values);
    let std = var.sqrt();
    let (skew, kurt) = if std > 1e-12 {
        let m3 = values
            .iter()
            .map(|v| ((v - mean) / std).powi(3))
            .sum::<f64>()
            / n;
        let m4 = values
            .iter()
            .map(|v| ((v - mean) / std).powi(4))
            .sum::<f64>()
            / n
            - 3.0;
        (m3, m4)
    } else {
        (0.0, 0.0)
    };
    [any, all, mean, var, min, max, median, sum, skew, kurt]
}

fn median_of(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

impl FeatureExtractor {
    /// Creates an extractor with a custom embedder.
    #[must_use]
    pub fn new(embedder: NgramEmbedder, max_cells: usize) -> Self {
        FeatureExtractor {
            embedder,
            max_cells,
        }
    }

    /// Extracts the 1 188-dimensional feature vector of a column's values.
    #[must_use]
    pub fn extract<'a, S>(&self, values: impl IntoIterator<Item = &'a S>) -> Vec<f32>
    where
        S: AsRef<str> + ?Sized + 'a,
    {
        let cells: Vec<&str> = values
            .into_iter()
            .take(self.max_cells)
            .map(AsRef::as_ref)
            .collect();
        let mut out = Vec::with_capacity(FEATURE_COUNT);
        self.char_features(&cells, &mut out);
        self.embed_features(&cells, &mut out);
        self.global_features(&cells, &mut out);
        debug_assert_eq!(out.len(), FEATURE_COUNT);
        out
    }

    fn char_features(&self, cells: &[&str], out: &mut Vec<f32>) {
        // counts[char_bin][cell] = occurrences.
        let n = cells.len();
        let mut counts = vec![vec![0.0f64; n]; TRACKED_CHARS];
        for (ci, cell) in cells.iter().enumerate() {
            for b in cell.bytes() {
                let bin = if (0x20..0x7f).contains(&b) {
                    (b - 0x20) as usize
                } else {
                    TRACKED_CHARS - 1 // non-printable / non-ASCII catch-all
                };
                counts[bin][ci] += 1.0;
            }
        }
        for bin in &counts {
            for a in aggregates(bin) {
                out.push(clamp_f32(a));
            }
        }
    }

    fn embed_features(&self, cells: &[&str], out: &mut Vec<f32>) {
        let n = cells.len().max(1) as f32;
        let mut mean = vec![0.0f32; EMBED_DIM];
        let mut max = vec![f32::NEG_INFINITY; EMBED_DIM];
        let mut sq = vec![0.0f32; EMBED_DIM];
        let mut any = false;
        // Embedding short samples of text cells only (numeric cells embed to
        // near-noise; Sherlock embeds the raw strings, we do the same).
        for cell in cells.iter().take(64) {
            let v = self.embedder.embed(cell);
            any = true;
            for d in 0..EMBED_DIM {
                mean[d] += v[d];
                sq[d] += v[d] * v[d];
                if v[d] > max[d] {
                    max[d] = v[d];
                }
            }
        }
        if !any {
            out.extend(std::iter::repeat_n(0.0, EMBED_DIM * EMBED_AGGREGATES));
            return;
        }
        let m = cells.len().clamp(1, 64) as f32;
        let _ = n;
        for v in &mut mean {
            *v /= m;
        }
        for &v in &mean {
            out.push(clamp_f32(f64::from(v)));
        }
        for (s, mn) in sq.iter().zip(&mean) {
            let var = (s / m - mn * mn).max(0.0);
            out.push(clamp_f32(f64::from(var.sqrt())));
        }
        for &v in &max {
            out.push(clamp_f32(f64::from(v)));
        }
    }

    #[allow(clippy::too_many_lines)]
    fn global_features(&self, cells: &[&str], out: &mut Vec<f32>) {
        let n = cells.len();
        let nf = n.max(1) as f64;
        let lengths: Vec<f64> = cells.iter().map(|c| c.chars().count() as f64).collect();
        let mut distinct: Vec<&str> = cells.to_vec();
        distinct.sort_unstable();
        let mut mode_count = 0usize;
        {
            let mut run = 0usize;
            let mut prev: Option<&str> = None;
            for c in &distinct {
                if prev == Some(*c) {
                    run += 1;
                } else {
                    run = 1;
                    prev = Some(*c);
                }
                mode_count = mode_count.max(run);
            }
        }
        distinct.dedup();
        let distinct_count = distinct.len() as f64;
        // Shannon entropy of the value distribution.
        let mut entropy = 0.0f64;
        {
            let mut i = 0;
            let mut sorted: Vec<&str> = cells.to_vec();
            sorted.sort_unstable();
            while i < sorted.len() {
                let mut j = i;
                while j < sorted.len() && sorted[j] == sorted[i] {
                    j += 1;
                }
                let p = (j - i) as f64 / nf;
                entropy -= p * p.log2();
                i = j;
            }
        }

        let frac =
            |pred: &dyn Fn(&str) -> bool| cells.iter().filter(|c| pred(c)).count() as f64 / nf;
        let type_of = |c: &str| infer_value_type(c);
        let frac_numeric = frac(&|c| type_of(c).is_numeric());
        let frac_date = frac(&|c| type_of(c) == AtomicType::Date);
        let frac_bool = frac(&|c| type_of(c) == AtomicType::Boolean);
        let frac_empty = frac(&is_missing);
        let frac_alpha = frac(&|c| !c.is_empty() && c.chars().all(char::is_alphabetic));
        let frac_alnum = frac(&|c| !c.is_empty() && c.chars().all(char::is_alphanumeric));
        let frac_negative = frac(&|c| c.trim_start().starts_with('-'));
        let frac_integer = frac(&|c| type_of(c) == AtomicType::Integer);

        let per_cell = |f: &dyn Fn(&str) -> f64| cells.iter().map(|c| f(c)).sum::<f64>() / nf;
        let mean_digits = per_cell(&|c| c.bytes().filter(u8::is_ascii_digit).count() as f64);
        let mean_letters = per_cell(&|c| c.chars().filter(|ch| ch.is_alphabetic()).count() as f64);
        let mean_upper = per_cell(&|c| c.chars().filter(|ch| ch.is_uppercase()).count() as f64);
        let mean_lower = per_cell(&|c| c.chars().filter(|ch| ch.is_lowercase()).count() as f64);
        let mean_space = per_cell(&|c| c.chars().filter(|ch| ch.is_whitespace()).count() as f64);
        let mean_punct =
            per_cell(&|c| c.chars().filter(|ch| ch.is_ascii_punctuation()).count() as f64);
        let mean_tokens = per_cell(&|c| c.split_whitespace().count() as f64);

        // Numeric-value moments over parseable cells.
        // `"nan"`/`"inf"` missing markers parse as non-finite floats; exclude
        // them so the moment features stay finite.
        let nums: Vec<f64> = cells
            .iter()
            .filter_map(|c| c.trim().parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .collect();
        let num_agg = aggregates(&nums);
        let (n_mean, n_var, n_min, n_max, n_median, n_skew, n_kurt) = (
            num_agg[2], num_agg[3], num_agg[4], num_agg[5], num_agg[6], num_agg[8], num_agg[9],
        );
        let n_range = if nums.is_empty() { 0.0 } else { n_max - n_min };
        let sorted_numeric = f64::from(nums.windows(2).all(|w| w[0] <= w[1]) && nums.len() > 1);

        let len_agg = aggregates(&lengths);

        let stats: [f64; GLOBAL_STATS] = [
            n as f64,
            distinct_count,
            distinct_count / nf,
            entropy,
            mode_count as f64 / nf,
            len_agg[2], // mean length
            len_agg[3].sqrt(),
            len_agg[4],
            len_agg[5],
            len_agg[6],
            len_agg[7], // sum length
            frac_numeric,
            frac_integer,
            frac_date,
            frac_bool,
            frac_empty,
            frac_alpha,
            frac_alnum,
            frac_negative,
            mean_digits,
            mean_letters,
            mean_upper,
            mean_lower,
            mean_space,
            mean_punct,
            mean_tokens,
            nums.len() as f64 / nf,
            n_mean,
            n_var.sqrt(),
            n_min.clamp(-1e18, 1e18),
            n_max.clamp(-1e18, 1e18),
            n_median,
            n_skew,
            n_kurt,
            n_range,
            sorted_numeric,
        ];
        for s in stats {
            out.push(clamp_f32(s));
        }
    }
}

fn clamp_f32(v: f64) -> f32 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(-1e18, 1e18) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract_features(values: &[String]) -> Vec<f32> {
        FeatureExtractor::default().extract(values)
    }

    fn col(vals: &[&str]) -> Vec<String> {
        vals.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn feature_count_is_1188() {
        assert_eq!(FEATURE_COUNT, 1188);
        let f = extract_features(&col(&["a", "b"]));
        assert_eq!(f.len(), 1188);
    }

    #[test]
    fn empty_column() {
        let f = extract_features(&[]);
        assert_eq!(f.len(), FEATURE_COUNT);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn no_nans_on_constant_column() {
        let f = extract_features(&col(&["same", "same", "same"]));
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn numeric_vs_text_columns_differ() {
        let a = extract_features(&col(&["1", "2", "3", "4"]));
        let b = extract_features(&col(&["red", "green", "blue", "cyan"]));
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1.0);
    }

    #[test]
    fn at_count_feature_reflects_emails() {
        // '@' is printable char 0x40; bin = 0x20 offset = 32. Its "any"
        // aggregate (index bin*10) must be 1 for email columns.
        let f = extract_features(&col(&["a@b.com", "c@d.org"]));
        let bin = (b'@' - 0x20) as usize;
        assert_eq!(f[bin * CHAR_AGGREGATES], 1.0);
        let g = extract_features(&col(&["hello", "world"]));
        assert_eq!(g[bin * CHAR_AGGREGATES], 0.0);
    }

    #[test]
    fn global_entropy_zero_for_constant() {
        let f = extract_features(&col(&["x", "x", "x"]));
        let entropy_idx = TRACKED_CHARS * CHAR_AGGREGATES + EMBED_DIM * EMBED_AGGREGATES + 3;
        assert!(f[entropy_idx].abs() < 1e-6);
        let g = extract_features(&col(&["a", "b", "c", "d"]));
        assert!(g[entropy_idx] > 1.9); // log2(4) = 2
    }

    #[test]
    fn deterministic() {
        let v = col(&["1", "x", "2020-01-01"]);
        assert_eq!(extract_features(&v), extract_features(&v));
    }

    #[test]
    fn max_cells_bounds_cost() {
        let many: Vec<String> = (0..10_000).map(|i| i.to_string()).collect();
        let e = FeatureExtractor {
            max_cells: 100,
            ..Default::default()
        };
        let f = e.extract(&many);
        // n-values global stat reflects the cap.
        let n_idx = TRACKED_CHARS * CHAR_AGGREGATES + EMBED_DIM * EMBED_AGGREGATES;
        assert_eq!(f[n_idx], 100.0);
    }

    #[test]
    fn nan_and_inf_markers_stay_finite() {
        // Regression: "nan"/"inf" cells parse as non-finite f64 and must not
        // poison the numeric-moment features.
        let f = extract_features(&col(&["nan", "inf", "-inf", "NaN", "3.5"]));
        assert!(f.iter().all(|v| v.is_finite()), "non-finite feature");
    }

    #[test]
    fn non_ascii_goes_to_catch_all_bin() {
        let f = extract_features(&col(&["héllo"]));
        let bin = TRACKED_CHARS - 1;
        assert!(f[bin * CHAR_AGGREGATES] > 0.0);
    }
}
