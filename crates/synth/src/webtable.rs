//! VizNet/WDC-style *web table* generator.
//!
//! Web tables extracted from HTML pages are structurally different from
//! GitTables (paper Table 1, §4.2): ≈11–17 rows, 3–6 columns, entity-centric
//! headers (`name`, `date`, `title`, `artist`, `location`, …; notably *not*
//! `id`), roughly 50/50 numeric-vs-string content, and short text cells.
//! [`WebTableGenerator`] reproduces those statistics so the data-shift
//! classifier (§4.2) and the cross-corpus Sherlock experiment (Table 7) have
//! a faithful comparison corpus.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::schema::{ColumnSpec, Domain, SchemaPlan};
use crate::tablegen::{generate_table, Cells, GeneratedTable};
use crate::values::ValueKind;

/// Header pool for web tables: the WDC top types (name, date, title, artist,
/// description, size, type, location, model, year — §4.2), without `id`.
const WEB_POOL: &[(&str, ValueKind)] = &[
    ("name", ValueKind::FullName),
    ("date", ValueKind::Date),
    ("title", ValueKind::Text),
    ("artist", ValueKind::FullName),
    ("description", ValueKind::Text),
    ("size", ValueKind::Quantity),
    ("type", ValueKind::Word),
    ("location", ValueKind::City),
    ("model", ValueKind::Product),
    ("year", ValueKind::Year),
    ("price", ValueKind::Price),
    ("rank", ValueKind::Quantity),
    ("country", ValueKind::Country),
    ("team", ValueKind::Word),
    ("score", ValueKind::Score),
    ("album", ValueKind::Text),
    ("genre", ValueKind::Category),
    ("address", ValueKind::Address),
    ("status", ValueKind::Status),
    ("class", ValueKind::Word),
    ("population", ValueKind::Count),
    ("height", ValueKind::Measurement),
    ("weight", ValueKind::Measurement),
    ("points", ValueKind::Score),
    ("wins", ValueKind::Quantity),
    ("goals", ValueKind::Quantity),
    ("area", ValueKind::Measurement),
    ("length", ValueKind::Measurement),
    ("number", ValueKind::Quantity),
    ("total", ValueKind::Count),
];

/// Generates small entity-centric web tables.
#[derive(Debug, Clone)]
pub struct WebTableGenerator {
    seed: u64,
}

impl WebTableGenerator {
    /// Creates a generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WebTableGenerator { seed }
    }

    /// Generates the `index`-th web table.
    #[must_use]
    pub fn generate(&self, index: usize) -> GeneratedTable {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (index as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        // Rows: geometric-ish around 15 (web tables are small).
        let rows = 3 + rng.gen_range(0..25);
        // Columns: 2..=6, mean ≈ 3.7.
        let ncols = 2 + rng.gen_range(0..5);
        let mut idx: Vec<usize> = (0..WEB_POOL.len()).collect();
        // Fisher–Yates prefix shuffle for column choice.
        for i in 0..ncols.min(idx.len()) {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        let columns: Vec<ColumnSpec> = idx[..ncols]
            .iter()
            .map(|&i| ColumnSpec {
                name: WEB_POOL[i].0.to_string(),
                kind: WEB_POOL[i].1,
                missing_prob: 0.01,
            })
            .collect();
        let plan = SchemaPlan {
            topic: "web".to_string(),
            domain: Domain::Generic,
            rows,
            columns,
        };
        let mut table = generate_table(&mut rng, &plan);
        // HTML-extracted tables are noisier than database dumps: scraping
        // artifacts, footnote markers, merged cells. Corrupt an extra slice
        // of cells with free text so web columns are *less* internally
        // consistent than GitTables columns — the reason the paper's
        // VizNet-trained model scores 0.77 in-corpus vs GitTables' 0.86.
        let mut cells = Cells::with_capacity(table.rows.width(), table.rows.len());
        for r in 0..table.rows.len() {
            cells.push_row(|c, out| {
                if rng.gen_bool(0.16) {
                    ValueKind::Text.write(&mut rng, 0, out);
                } else {
                    out.push_str(table.rows.cell(r, c));
                }
            });
        }
        table.rows = cells;
        table
    }

    /// Generates `n` web tables.
    #[must_use]
    pub fn generate_many(&self, n: usize) -> Vec<GeneratedTable> {
        (0..n).map(|i| self.generate(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_are_web_like() {
        let g = WebTableGenerator::new(1);
        let tables = g.generate_many(500);
        let mean_rows: f64 = tables.iter().map(|t| t.rows.len()).sum::<usize>() as f64 / 500.0;
        let mean_cols: f64 = tables.iter().map(|t| t.header.len()).sum::<usize>() as f64 / 500.0;
        assert!((8.0..22.0).contains(&mean_rows), "rows {mean_rows}");
        assert!((2.0..6.0).contains(&mean_cols), "cols {mean_cols}");
    }

    #[test]
    fn no_id_column() {
        let g = WebTableGenerator::new(2);
        for t in g.generate_many(100) {
            assert!(!t.header.iter().any(|h| h == "id"));
        }
    }

    #[test]
    fn deterministic() {
        let a = WebTableGenerator::new(3).generate(7);
        let b = WebTableGenerator::new(3).generate(7);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_tables() {
        let g = WebTableGenerator::new(4);
        let a = g.generate(0);
        let b = g.generate(1);
        assert!(a.header != b.header || a.rows != b.rows);
    }
}
