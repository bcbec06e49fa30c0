//! BLAS-like building blocks on [`Matrix`] values.
//!
//! [`dgemm`] is backed by a BLIS-style packed, register-blocked engine
//! (`crate::gemm`) with a runtime-dispatched AVX2+FMA microkernel on
//! `x86_64`; it reaches a large fraction of scalar-peak-times-SIMD-width on
//! tile sizes (`nb` up to a few hundred) and falls back to cache-aware
//! jki-ordered loops below a crossover size where packing overhead would
//! dominate. The remaining routines (TRMM/TRSM and the level-1 helpers) are
//! simple loops sized for the narrow triangular factors the kernels use.

use crate::gemm::{gemm_into_impl, MatMut, MatRef};
use crate::matrix::Matrix;
use crate::workspace::with_thread_workspace;

/// Transposition selector for [`dgemm`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Algorithm selector for [`dgemm_with`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GemmAlgo {
    /// Pick packed or reference by problem size (what [`dgemm`] does).
    Auto,
    /// Force the packed, register-blocked engine regardless of size.
    Packed,
    /// Force the plain jki-ordered reference loops.
    Reference,
}

/// General matrix multiply: `C := alpha * op(A) * op(B) + beta * C`.
///
/// `beta == 0` overwrites `C` without reading it (BLAS convention: NaN/Inf
/// garbage in an uninitialized `C` does not propagate); `beta == 1` skips
/// the scale pass.
pub fn dgemm(ta: Trans, tb: Trans, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    dgemm_with(GemmAlgo::Auto, ta, tb, alpha, a, b, beta, c);
}

/// [`dgemm`] with an explicit algorithm choice (for tests and benchmarks).
#[allow(clippy::too_many_arguments)]
pub fn dgemm_with(
    algo: GemmAlgo,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    if algo == GemmAlgo::Reference {
        dgemm_reference(ta, tb, alpha, a, b, beta, c);
        return;
    }
    let av = match ta {
        Trans::No => MatRef::from_matrix(a),
        Trans::Yes => MatRef::from_matrix(a).t(),
    };
    let bv = match tb {
        Trans::No => MatRef::from_matrix(b),
        Trans::Yes => MatRef::from_matrix(b).t(),
    };
    let (m, n) = (c.nrows(), c.ncols());
    with_thread_workspace(|ws| {
        let mut cv = MatMut::new(c.data_mut(), m, n, 1, m.max(1));
        gemm_into_impl(
            alpha,
            av,
            bv,
            beta,
            &mut cv,
            &mut ws.gemm,
            algo == GemmAlgo::Packed,
        );
    });
}

/// The original cache-aware jki-ordered loops, kept as the reference
/// algorithm and the small-size fallback.
fn dgemm_reference(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (am, an) = match ta {
        Trans::No => (a.nrows(), a.ncols()),
        Trans::Yes => (a.ncols(), a.nrows()),
    };
    let (bm, bn) = match tb {
        Trans::No => (b.nrows(), b.ncols()),
        Trans::Yes => (b.ncols(), b.nrows()),
    };
    assert_eq!(an, bm, "gemm inner dimensions");
    assert_eq!(am, c.nrows(), "gemm C rows");
    assert_eq!(bn, c.ncols(), "gemm C cols");
    let k = an;

    if beta == 0.0 {
        c.data_mut().fill(0.0);
    } else if beta != 1.0 {
        for x in c.data_mut() {
            *x *= beta;
        }
    }
    if alpha == 0.0 || k == 0 {
        return;
    }

    let m = am;
    let n = bn;
    match (ta, tb) {
        (Trans::No, Trans::No) => {
            // C[:,j] += alpha * A[:,l] * B[l,j] — unit-stride on A and C.
            for j in 0..n {
                for l in 0..k {
                    let blj = alpha * b[(l, j)];
                    if blj == 0.0 {
                        continue;
                    }
                    let acol = a.col(l);
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += acol[i] * blj;
                    }
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            // C[i,j] += alpha * dot(A[:,i], B[:,j]) — both unit stride.
            for j in 0..n {
                for i in 0..m {
                    let dot: f64 = a.col(i).iter().zip(b.col(j)).map(|(x, y)| x * y).sum();
                    c[(i, j)] += alpha * dot;
                }
            }
        }
        (Trans::No, Trans::Yes) => {
            for j in 0..n {
                for l in 0..k {
                    let blj = alpha * b[(j, l)];
                    if blj == 0.0 {
                        continue;
                    }
                    let acol = a.col(l);
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += acol[i] * blj;
                    }
                }
            }
        }
        (Trans::Yes, Trans::Yes) => {
            for j in 0..n {
                for i in 0..m {
                    let mut dot = 0.0;
                    for l in 0..k {
                        dot += a[(l, i)] * b[(j, l)];
                    }
                    c[(i, j)] += alpha * dot;
                }
            }
        }
    }
}

/// Triangle selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum UpLo {
    /// Upper triangle.
    Upper,
    /// Lower triangle.
    Lower,
}

/// Diagonal selector.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal stored explicitly.
    NonUnit,
    /// Diagonal implicitly all ones.
    Unit,
}

/// Triangular matrix multiply from the left: `B := op(T) * B`, with `T`
/// `n x n` triangular (only the selected triangle of `t` is read).
pub fn dtrmm_left(uplo: UpLo, trans: Trans, diag: Diag, t: &Matrix, b: &mut Matrix) {
    let n = t.nrows();
    assert_eq!(t.ncols(), n);
    assert_eq!(b.nrows(), n);
    let cols = b.ncols();
    // Effective triangle after transposition.
    let eff_upper = matches!(
        (uplo, trans),
        (UpLo::Upper, Trans::No) | (UpLo::Lower, Trans::Yes)
    );
    let get = |i: usize, k: usize| -> f64 {
        if i == k && diag == Diag::Unit {
            1.0
        } else {
            match trans {
                Trans::No => t[(i, k)],
                Trans::Yes => t[(k, i)],
            }
        }
    };
    for j in 0..cols {
        let col = b.col_mut(j);
        if eff_upper {
            // Row i depends on rows >= i: compute top-down in place.
            for i in 0..n {
                let mut s = get(i, i) * col[i];
                #[allow(clippy::needless_range_loop)]
                for k in i + 1..n {
                    s += get(i, k) * col[k];
                }
                col[i] = s;
            }
        } else {
            // Row i depends on rows <= i: compute bottom-up in place.
            for i in (0..n).rev() {
                let mut s = get(i, i) * col[i];
                #[allow(clippy::needless_range_loop)]
                for k in 0..i {
                    s += get(i, k) * col[k];
                }
                col[i] = s;
            }
        }
    }
}

/// Solve the upper-triangular system `U * x = b` in place (`b` becomes `x`).
/// `U` is `n x n`; only its upper triangle is read.
pub fn dtrsm_upper_left(u: &Matrix, b: &mut Matrix) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n);
    assert_eq!(b.nrows(), n);
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        for i in (0..n).rev() {
            let mut s = col[i];
            for k in i + 1..n {
                s -= u[(i, k)] * col[k];
            }
            col[i] = s / u[(i, i)];
        }
    }
}

/// Solve the transposed system `U^T * x = b` in place (forward
/// substitution); only the upper triangle of `u` is read.
pub fn dtrsm_upper_trans_left(u: &Matrix, b: &mut Matrix) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n);
    assert_eq!(b.nrows(), n);
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        for i in 0..n {
            let mut s = col[i];
            for k in 0..i {
                s -= u[(k, i)] * col[k];
            }
            col[i] = s / u[(i, i)];
        }
    }
}

/// `y := alpha * x + y` on slices.
#[inline]
pub fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dot product on slices.
#[inline]
pub fn ddot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm of a slice, accumulated relative to the largest entry
/// so that no square overflows or underflows (LAPACK's scaled `dnrm2`).
/// NaN when any entry is NaN.
pub fn dnrm2(x: &[f64]) -> f64 {
    let (mut scale, mut ssq) = (0.0f64, 1.0f64);
    for a in x.iter().map(|xi| xi.abs()) {
        if a.is_nan() {
            return f64::NAN;
        }
        if a > scale {
            ssq = 1.0 + ssq * (scale / a) * (scale / a);
            scale = a;
        } else if a > 0.0 && a.is_finite() {
            ssq += (a / scale) * (a / scale);
        }
    }
    scale * ssq.sqrt()
}

/// `x := alpha * x` on a slice.
#[inline]
pub fn dscal(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn naive_gemm(ta: Trans, tb: Trans, a: &Matrix, b: &Matrix) -> Matrix {
        let at = match ta {
            Trans::No => a.clone(),
            Trans::Yes => a.transpose(),
        };
        let bt = match tb {
            Trans::No => b.clone(),
            Trans::Yes => b.transpose(),
        };
        let mut c = Matrix::zeros(at.nrows(), bt.ncols());
        for i in 0..c.nrows() {
            for j in 0..c.ncols() {
                let mut s = 0.0;
                for l in 0..at.ncols() {
                    s += at[(i, l)] * bt[(l, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn gemm_all_trans_combos() {
        let mut rng = rand::rng();
        for &(ta, tb) in &[
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            let (m, n, k) = (4, 5, 3);
            let a = match ta {
                Trans::No => Matrix::random(m, k, &mut rng),
                Trans::Yes => Matrix::random(k, m, &mut rng),
            };
            let b = match tb {
                Trans::No => Matrix::random(k, n, &mut rng),
                Trans::Yes => Matrix::random(n, k, &mut rng),
            };
            let mut c = Matrix::zeros(m, n);
            dgemm(ta, tb, 1.0, &a, &b, 0.0, &mut c);
            let want = naive_gemm(ta, tb, &a, &b);
            assert!(c.sub(&want).norm_fro() < 1e-12, "{ta:?} {tb:?}");
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let mut rng = rand::rng();
        let a = Matrix::random(3, 3, &mut rng);
        let b = Matrix::random(3, 3, &mut rng);
        let c0 = Matrix::random(3, 3, &mut rng);
        let mut c = c0.clone();
        dgemm(Trans::No, Trans::No, 2.0, &a, &b, -1.0, &mut c);
        let mut want = naive_gemm(Trans::No, Trans::No, &a, &b);
        for j in 0..3 {
            for i in 0..3 {
                want[(i, j)] = 2.0 * want[(i, j)] - c0[(i, j)];
            }
        }
        assert!(c.sub(&want).norm_fro() < 1e-12);
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan_c() {
        let mut rng = rand::rng();
        let a = Matrix::random(6, 6, &mut rng);
        let b = Matrix::random(6, 6, &mut rng);
        for algo in [GemmAlgo::Reference, GemmAlgo::Packed, GemmAlgo::Auto] {
            let mut c = Matrix::from_fn(6, 6, |_, _| f64::NAN);
            dgemm_with(algo, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
            assert!(
                c.data().iter().all(|x| x.is_finite()),
                "NaN leaked through beta=0 ({algo:?})"
            );
        }
    }

    #[test]
    fn gemm_packed_matches_reference() {
        let mut rng = rand::rng();
        let (m, n, k) = (23, 17, 19);
        let a = Matrix::random(m, k, &mut rng);
        let b = Matrix::random(k, n, &mut rng);
        let c0 = Matrix::random(m, n, &mut rng);
        let mut cp = c0.clone();
        let mut cr = c0.clone();
        dgemm_with(
            GemmAlgo::Packed,
            Trans::No,
            Trans::No,
            1.5,
            &a,
            &b,
            -0.5,
            &mut cp,
        );
        dgemm_with(
            GemmAlgo::Reference,
            Trans::No,
            Trans::No,
            1.5,
            &a,
            &b,
            -0.5,
            &mut cr,
        );
        assert!(cp.sub(&cr).norm_fro() < 1e-12 * cr.norm_fro().max(1.0));
    }

    #[test]
    fn trmm_upper_matches_dense() {
        let mut rng = rand::rng();
        let t = Matrix::random(4, 4, &mut rng).upper_triangle();
        let b0 = Matrix::random(4, 2, &mut rng);
        let mut b = b0.clone();
        dtrmm_left(UpLo::Upper, Trans::No, Diag::NonUnit, &t, &mut b);
        let want = t.matmul(&b0);
        assert!(b.sub(&want).norm_fro() < 1e-12);
    }

    #[test]
    fn trmm_upper_trans_matches_dense() {
        let mut rng = rand::rng();
        let t = Matrix::random(4, 4, &mut rng).upper_triangle();
        let b0 = Matrix::random(4, 2, &mut rng);
        let mut b = b0.clone();
        dtrmm_left(UpLo::Upper, Trans::Yes, Diag::NonUnit, &t, &mut b);
        let want = t.transpose().matmul(&b0);
        assert!(b.sub(&want).norm_fro() < 1e-12);
    }

    #[test]
    fn trmm_lower_unit_matches_dense() {
        let mut rng = rand::rng();
        let mut t = Matrix::random(4, 4, &mut rng);
        // Build explicit unit-lower-triangular dense version.
        let mut dense = Matrix::identity(4);
        for j in 0..4 {
            for i in j + 1..4 {
                dense[(i, j)] = t[(i, j)];
            }
            t[(j, j)] = 99.0; // must be ignored by Diag::Unit
        }
        let b0 = Matrix::random(4, 3, &mut rng);
        let mut b = b0.clone();
        dtrmm_left(UpLo::Lower, Trans::No, Diag::Unit, &t, &mut b);
        let want = dense.matmul(&b0);
        assert!(b.sub(&want).norm_fro() < 1e-12);
    }

    #[test]
    fn trsm_solves_upper_system() {
        let mut rng = rand::rng();
        let mut u = Matrix::random(5, 5, &mut rng).upper_triangle();
        for i in 0..5 {
            u[(i, i)] += 3.0; // keep well conditioned
        }
        let b0 = Matrix::random(5, 2, &mut rng);
        let mut x = b0.clone();
        dtrsm_upper_left(&u, &mut x);
        let back = u.matmul(&x);
        assert!(back.sub(&b0).norm_fro() < 1e-10);
    }

    #[test]
    fn vector_ops() {
        let x = [1.0, 2.0, 2.0];
        let mut y = [1.0, 1.0, 1.0];
        assert_eq!(dnrm2(&x), 3.0);
        assert_eq!(ddot(&x, &y), 5.0);
        daxpy(2.0, &x, &mut y);
        assert_eq!(y, [3.0, 5.0, 5.0]);
        let mut z = [2.0, 4.0];
        dscal(0.5, &mut z);
        assert_eq!(z, [1.0, 2.0]);
    }

    #[test]
    fn dnrm2_is_scaled_and_propagates_nan() {
        for scale in [1e160, 1e-170, 1e-320] {
            let x = [scale, 2.0 * scale, 2.0 * scale];
            let rel = (dnrm2(&x) / (3.0 * scale) - 1.0).abs();
            assert!(rel < 1e-15 || scale < 1e-300, "{scale}: {rel}");
            assert!(dnrm2(&x) > 0.0);
        }
        assert_eq!(dnrm2(&[0.0, 0.0]), 0.0);
        assert_eq!(dnrm2(&[]), 0.0);
        assert_eq!(dnrm2(&[1.0, f64::INFINITY, f64::INFINITY]), f64::INFINITY);
        assert!(dnrm2(&[1.0, f64::NAN, 2.0]).is_nan());
        assert!(dnrm2(&[f64::INFINITY, f64::NAN]).is_nan());
    }
}
