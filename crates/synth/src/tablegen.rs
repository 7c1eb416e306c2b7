//! Materializes a [`SchemaPlan`] into a full table: a header and the
//! row-major [`Cells`] that [`generate_table`] writes in one buffer.

use rand::Rng;

use crate::schema::SchemaPlan;

/// Missing-value markers rotated through when a cell is dropped.
const MISSING: &[&str] = &["", "nan", "NULL", "NA", "-"];

/// A generated table: header plus row-major records, ready for CSV rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedTable {
    /// Header names.
    pub header: Vec<String>,
    /// Row-major cell values.
    pub rows: Cells,
    /// The plan the table was generated from.
    pub plan: SchemaPlan,
}

/// A table's cells, row-major, in one buffer: every cell's text back to
/// back in one `String`, and where each cell ends. Every row holds exactly
/// [`Cells::width`] cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cells {
    text: String,
    /// Cell `i` is `text[bounds[i]..bounds[i + 1]]`; `bounds[0] == 0`.
    bounds: Vec<u32>,
    width: usize,
    rows: usize,
}

impl Cells {
    /// An empty table of `width` columns with room for `rows` rows.
    #[must_use]
    pub(crate) fn with_capacity(width: usize, rows: usize) -> Self {
        let mut bounds = Vec::with_capacity(width * rows + 1);
        bounds.push(0);
        Cells {
            text: String::new(),
            bounds,
            width,
            rows: 0,
        }
    }

    /// Copies `rows` of exactly `width` cells each.
    ///
    /// # Panics
    /// When a row holds more or fewer than `width` cells.
    #[must_use]
    pub fn from_rows<I, R, S>(width: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cells = Cells::with_capacity(width, 0);
        for row in rows {
            let mut row = row.into_iter();
            cells.push_row(|_, out| {
                out.push_str(row.next().expect("row has `width` cells").as_ref())
            });
            assert!(row.next().is_none(), "row has more than `width` cells");
        }
        cells
    }

    /// Appends one row: `cell(c, text)` appends column `c`'s text, for
    /// `c` in `0..width`.
    ///
    /// # Panics
    /// When the table's text outgrows `u32` offsets (4 GiB).
    pub(crate) fn push_row(&mut self, mut cell: impl FnMut(usize, &mut String)) {
        for c in 0..self.width {
            cell(c, &mut self.text);
            let end = u32::try_from(self.text.len()).expect("a table's cells fit in 4 GiB");
            self.bounds.push(end);
        }
        self.rows += 1;
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of cells per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The cell at row `r`, column `c`.
    ///
    /// # Panics
    /// When `r >= len()` or `c >= width()`.
    #[must_use]
    pub fn cell(&self, r: usize, c: usize) -> &str {
        assert!(
            r < self.rows && c < self.width,
            "cell ({r}, {c}) out of range"
        );
        let i = r * self.width + c;
        &self.text[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// Row `r`'s cells, left to right.
    ///
    /// # Panics
    /// When `r >= len()`.
    pub fn row(&self, r: usize) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        assert!(r < self.rows, "row {r} out of range");
        let first = r * self.width;
        self.bounds[first..=first + self.width]
            .windows(2)
            .map(|w| &self.text[w[0] as usize..w[1] as usize])
    }

    /// Every row, top to bottom.
    pub fn rows(
        &self,
    ) -> impl ExactSizeIterator<Item = impl ExactSizeIterator<Item = &str> + Clone + '_> + '_ {
        (0..self.rows).map(|r| self.row(r))
    }

    /// Column `c`'s cells, top to bottom.
    ///
    /// # Panics
    /// When `c >= width()`.
    pub fn column(&self, c: usize) -> impl ExactSizeIterator<Item = &str> + '_ {
        assert!(c < self.width, "column {c} out of range");
        (0..self.rows).map(move |r| self.cell(r, c))
    }
}

/// Fraction of columns that carry *contamination* — occasional cells drawn
/// from a foreign value domain. Real CSV columns are rarely pure (typos,
/// free-text overrides, legacy encodings), which is why the paper's learned
/// models top out well below perfect F1.
const CONTAMINATED_COLUMN_PROB: f64 = 0.25;

/// Per-cell probability of a foreign value within a contaminated column.
const CONTAMINATION_CELL_PROB: f64 = 0.12;

/// Foreign kinds injected into contaminated columns.
const CONTAMINANTS: &[crate::values::ValueKind] = &[
    crate::values::ValueKind::Word,
    crate::values::ValueKind::Text,
    crate::values::ValueKind::Code,
    crate::values::ValueKind::Quantity,
];

/// Generates the cell contents for `plan`. The same `rng` stream drives
/// every cell, so a `(seed, plan)` pair is fully reproducible.
pub fn generate_table<R: Rng>(rng: &mut R, plan: &SchemaPlan) -> GeneratedTable {
    let header: Vec<String> = plan.columns.iter().map(|c| c.name.clone()).collect();
    // Choose one missing marker per column (files tend to be internally
    // consistent about their missing encoding).
    let markers: Vec<&str> = plan
        .columns
        .iter()
        .map(|_| MISSING[rng.gen_range(0..MISSING.len())])
        .collect();
    // Decide contamination per column up front.
    let contaminant: Vec<Option<crate::values::ValueKind>> = plan
        .columns
        .iter()
        .map(|_| {
            rng.gen_bool(CONTAMINATED_COLUMN_PROB)
                .then(|| CONTAMINANTS[rng.gen_range(0..CONTAMINANTS.len())])
        })
        .collect();
    let mut rows = Cells::with_capacity(plan.columns.len(), plan.rows);
    for r in 0..plan.rows {
        rows.push_row(|c, out| {
            let spec = &plan.columns[c];
            if spec.missing_prob > 0.0 && rng.gen_bool(spec.missing_prob.min(1.0)) {
                out.push_str(markers[c]);
            } else if let Some(kind) =
                contaminant[c].filter(|_| rng.gen_bool(CONTAMINATION_CELL_PROB))
            {
                kind.write(rng, r, out);
            } else {
                spec.kind.write(rng, r, out);
            }
        });
    }
    GeneratedTable {
        header,
        rows,
        plan: plan.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Domain, SchemaSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan(seed: u64) -> SchemaPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        SchemaSampler::default().sample(&mut rng, "order", Domain::Business)
    }

    #[test]
    fn dimensions_match_plan() {
        let p = plan(1);
        let mut rng = StdRng::seed_from_u64(2);
        let t = generate_table(&mut rng, &p);
        assert_eq!(t.rows.len(), p.rows);
        assert_eq!(t.header.len(), p.columns.len());
        for row in t.rows.rows() {
            assert_eq!(row.len(), p.columns.len());
        }
    }

    #[test]
    fn deterministic() {
        let p = plan(3);
        let mut a = StdRng::seed_from_u64(4);
        let mut b = StdRng::seed_from_u64(4);
        assert_eq!(generate_table(&mut a, &p), generate_table(&mut b, &p));
    }

    #[test]
    fn missing_prob_one_yields_all_missing() {
        let mut p = plan(5);
        for c in &mut p.columns {
            c.missing_prob = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(6);
        let t = generate_table(&mut rng, &p);
        for row in t.rows.rows() {
            for cell in row {
                assert!(MISSING.contains(&cell), "cell {cell:?}");
            }
        }
    }

    #[test]
    fn missing_prob_zero_yields_no_marker_cells() {
        let mut p = plan(7);
        for c in &mut p.columns {
            c.missing_prob = 0.0;
        }
        let mut rng = StdRng::seed_from_u64(8);
        let t = generate_table(&mut rng, &p);
        for row in t.rows.rows() {
            for cell in row {
                assert!(!cell.is_empty());
            }
        }
    }
}
