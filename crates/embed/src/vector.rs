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
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
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
