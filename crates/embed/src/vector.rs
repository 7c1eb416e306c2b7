//! Dense f32 vector operations.

/// Dot product of two equal-length vectors.
///
/// # Panics
/// Debug-asserts equal lengths; in release the shorter length governs.
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[must_use]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity in `[-1, 1]`; `0.0` when either vector is all-zero.
#[must_use]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norm(a, norm(a), b)
}

/// [`cosine`] with `na = norm(a)` supplied by the caller, for scoring one
/// query against many rows without recomputing its norm per row. The
/// float operations are `cosine`'s own (it is this function applied to
/// `norm(a)`), so the result is bit-identical.
#[must_use]
pub fn cosine_with_norm(a: &[f32], na: f32, b: &[f32]) -> f32 {
    cosine_of_dot(dot(a, b), na, norm(b))
}

/// The cosine of two vectors from their dot product `ab` and their norms:
/// `0.0` when either norm is zero, else `ab / (na * nb)` clamped to
/// `[-1, 1]`. The one place these expressions are written, so every
/// cosine in this crate, packed or per row, shares their bits.
#[must_use]
#[inline]
pub fn cosine_of_dot(ab: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (ab / (na * nb)).clamp(-1.0, 1.0)
}

/// Rows per block of [`PackedRows`]: the rows one query element
/// multiplies side by side, eight adjacent values in memory.
pub const ROW_BLOCK: usize = 8;

/// Blocks [`PackedRows::dots_into`] sweeps together: four blocks, 32 rows
/// per pass over the query.
const SWEEP_BLOCKS: usize = 4;

/// The value `f32`'s `Sum` starts from — what [`dot`] folds its products
/// into. Taken from `sum` itself so the packed kernel can never disagree
/// with it about the sign of an empty or all-`-0.0` sum.
#[inline]
fn sum_identity() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// A fixed set of equal-length rows laid out for scoring one query
/// against all of them (see the crate docs, *Scoring kernel*). Rows are
/// grouped in blocks of [`ROW_BLOCK`], each block element-major —
/// `block[j * ROW_BLOCK + r] == row(ROW_BLOCK * b + r)[j]` — so the
/// eight values one query element multiplies sit side by side in memory.
/// The last block is filled up with zero rows; their dots are computed
/// and dropped, so every row is scored by the same code and any run of
/// rows maps to whole blocks.
#[derive(Debug, Clone)]
pub struct PackedRows {
    blocks: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl PackedRows {
    /// Packs rows `row(0) … row(n - 1)`, each `dim` long.
    ///
    /// # Panics
    /// When a row is not `dim` long.
    #[must_use]
    pub fn pack<'r>(n: usize, dim: usize, row: impl Fn(usize) -> &'r [f32]) -> Self {
        let mut blocks = vec![0.0; n.div_ceil(ROW_BLOCK) * ROW_BLOCK * dim];
        // At `dim` 0 there is nothing to fill, but a chunk size of 0 panics.
        for (b, block) in blocks.chunks_exact_mut(ROW_BLOCK * dim.max(1)).enumerate() {
            for r in 0..ROW_BLOCK.min(n - b * ROW_BLOCK) {
                let values = row(b * ROW_BLOCK + r);
                assert_eq!(values.len(), dim, "row {} is {dim} long", b * ROW_BLOCK + r);
                for (lane, &x) in block.chunks_exact_mut(ROW_BLOCK).zip(values) {
                    lane[r] = x;
                }
            }
        }
        PackedRows {
            blocks,
            rows: n,
            dim,
        }
    }

    /// Replaces `out` with `dot(a, row(i))` for every `i` in `rows`, in
    /// order — bit-identical to calling [`dot`] per row: each row has an
    /// accumulator of its own that starts from `f32`'s `Sum` start value
    /// and takes `a[0]·row[0], a[1]·row[1], …` in that order. Blocks are
    /// swept `SWEEP_BLOCKS` at a time (32 independent accumulators per
    /// pass over `a`), then one at a time.
    ///
    /// # Panics
    /// When `a` is not as long as the rows, or `rows` reaches past them.
    pub fn dots_into(&self, a: &[f32], rows: std::ops::Range<usize>, out: &mut Vec<f32>) {
        assert_eq!(a.len(), self.dim, "query as long as the rows");
        assert!(
            rows.start <= rows.end && rows.end <= self.rows,
            "rows in range"
        );
        out.clear();
        if self.dim == 0 {
            out.resize(rows.len(), sum_identity());
            return;
        }
        let block_len = ROW_BLOCK * self.dim;
        let first = rows.start / ROW_BLOCK;
        let swept = &self.blocks[first * block_len..rows.end.div_ceil(ROW_BLOCK) * block_len];
        let mut sweeps = swept.chunks_exact(SWEEP_BLOCKS * block_len);
        for sweep in &mut sweeps {
            let (b01, b23) = sweep.split_at(2 * block_len);
            let (b0, b1) = b01.split_at(block_len);
            let (b2, b3) = b23.split_at(block_len);
            let mut acc = [[sum_identity(); ROW_BLOCK]; SWEEP_BLOCKS];
            let lanes = b0
                .chunks_exact(ROW_BLOCK)
                .zip(b1.chunks_exact(ROW_BLOCK))
                .zip(b2.chunks_exact(ROW_BLOCK))
                .zip(b3.chunks_exact(ROW_BLOCK));
            for (&x, (((l0, l1), l2), l3)) in a.iter().zip(lanes) {
                for r in 0..ROW_BLOCK {
                    acc[0][r] += x * l0[r];
                    acc[1][r] += x * l1[r];
                    acc[2][r] += x * l2[r];
                    acc[3][r] += x * l3[r];
                }
            }
            out.extend(acc.as_flattened());
        }
        for block in sweeps.remainder().chunks_exact(block_len) {
            let mut acc = [sum_identity(); ROW_BLOCK];
            for (&x, lane) in a.iter().zip(block.chunks_exact(ROW_BLOCK)) {
                for r in 0..ROW_BLOCK {
                    acc[r] += x * lane[r];
                }
            }
            out.extend(acc);
        }
        out.truncate(rows.end - first * ROW_BLOCK);
        out.drain(..rows.start - first * ROW_BLOCK);
    }
}

/// Normalizes `a` to unit length in place; a zero vector is left unchanged.
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n > 0.0 {
        for x in a {
            *x /= n;
        }
    }
}

/// Adds `b` into `a`, scaled: `a += scale * b`.
pub fn add_scaled(a: &mut [f32], b: &[f32], scale: f32) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += scale * y;
    }
}

/// Divides `a` by `by` in place (no-op when `by == 0`).
pub fn scale_inv(a: &mut [f32], by: f32) {
    if by != 0.0 {
        for x in a {
            *x /= by;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_identical_is_one() {
        let v = [0.3, -0.7, 1.2];
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        assert!((cosine(&[1.0, 2.0], &[-1.0, -2.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn cosine_with_hoisted_norm_is_bit_identical() {
        let a = [0.3f32, -0.7, 1.2, 1e-3];
        for b in [[0.1f32, 0.9, -0.4, 2.0], [0.0; 4], [0.3, -0.7, 1.2, 1e-3]] {
            let hoisted = cosine_with_norm(&a, norm(&a), &b);
            assert_eq!(hoisted.to_bits(), cosine(&a, &b).to_bits());
        }
        assert_eq!(cosine_with_norm(&[0.0; 4], 0.0, &a), 0.0);
    }

    /// Values that separate summation orders and zero signs: signed zeros,
    /// subnormals, magnitudes far enough apart to round differently when
    /// regrouped.
    const SPECIALS: [f32; 10] = [
        0.0,
        -0.0,
        1.0e-45,
        -1.0e-45,
        1.1754942e-38,
        1.0,
        -1.0,
        16_777_216.0,
        -3.0e-7,
        0.333_333_34,
    ];

    /// A value from a seed: every fourth a special, else a full-mantissa
    /// number in `[-2, 2)`.
    fn value(seed: u64) -> f32 {
        let z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
        if z.is_multiple_of(4) {
            SPECIALS[(z >> 2) as usize % SPECIALS.len()]
        } else {
            ((z >> 2) as u32 & 0x00ff_ffff) as f32 / (1u32 << 22) as f32 - 2.0
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every remainder of 8 and of 32 rows (0–69) at dims 0–130, with
        /// an all-`-0.0` row, sometimes a zero query, and any run of rows:
        /// the packed kernel has `dot`'s bits, row by row.
        #[test]
        fn packed_kernel_is_bit_identical_to_dot(
            n_rows in 0usize..70,
            dim in 0usize..131,
            seed in any::<u64>(),
            all_negative_zero_row in 0usize..70,
            zero_query in any::<bool>(),
            cut in (any::<usize>(), any::<usize>()),
        ) {
            let a: Vec<f32> = (0..dim)
                .map(|j| if zero_query { 0.0 } else { value(seed ^ j as u64) })
                .collect();
            let rows: Vec<Vec<f32>> = (0..n_rows)
                .map(|r| {
                    if r == all_negative_zero_row {
                        return vec![-0.0; dim];
                    }
                    (0..dim).map(|j| value(seed.rotate_left(17) ^ (r * 131 + j) as u64)).collect()
                })
                .collect();
            let want: Vec<u32> = rows.iter().map(|b| dot(&a, b).to_bits()).collect();
            prop_assert_eq!(&collect_packed(&a, &rows, 0..n_rows), &want);
            let (lo, hi) = (cut.0 % (n_rows + 1), cut.1 % (n_rows + 1));
            let run = lo.min(hi)..lo.max(hi);
            prop_assert_eq!(collect_packed(&a, &rows, run.clone()), want[run].to_vec());
        }
    }

    /// `dots_into` over a fresh packing of `rows`, as bits, into a buffer
    /// holding stale values it must replace.
    fn collect_packed(a: &[f32], rows: &[Vec<f32>], run: std::ops::Range<usize>) -> Vec<u32> {
        let packed = PackedRows::pack(rows.len(), a.len(), |i| &rows[i]);
        let mut out = vec![f32::NAN; 3];
        packed.dots_into(a, run, &mut out);
        out.iter().map(|d| d.to_bits()).collect()
    }

    #[test]
    fn packed_kernel_keeps_the_sign_of_zero_sums() {
        for dim in [0, 1, 5, 64] {
            let a = vec![1.0f32; dim];
            let rows = vec![vec![-0.0f32; dim]; 4 * ROW_BLOCK + 3];
            let want = dot(&a, &rows[0]).to_bits();
            let got = collect_packed(&a, &rows, 0..rows.len());
            assert_eq!(got, vec![want; rows.len()], "dim {dim}");
        }
    }

    #[test]
    fn normalize_unit() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn add_scaled_and_scale_inv() {
        let mut a = vec![1.0, 1.0];
        add_scaled(&mut a, &[2.0, 4.0], 0.5);
        assert_eq!(a, vec![2.0, 3.0]);
        scale_inv(&mut a, 2.0);
        assert_eq!(a, vec![1.0, 1.5]);
        scale_inv(&mut a, 0.0); // no-op
        assert_eq!(a, vec![1.0, 1.5]);
    }
}
