//! Column-major dense matrix storage.
//!
//! All tile kernels in this crate operate on [`Matrix`] values in
//! column-major (Fortran) order, matching LAPACK/PLASMA conventions so the
//! kernel loops can be transcribed from the reference algorithms directly.

use rand::distr::{Distribution, StandardUniform};
use rand::Rng;
use std::fmt;

/// A dense, column-major, `f64` matrix.
///
/// Storage is a single contiguous buffer of length `m * n` with element
/// `(i, j)` at offset `i + j * m` (leading dimension equals the row count;
/// kernels that need sub-views take explicit slices).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    m: usize,
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create an `m x n` zero matrix.
    pub fn zeros(m: usize, n: usize) -> Self {
        Matrix {
            m,
            n,
            data: vec![0.0; m * n],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut a = Self::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 1.0;
        }
        a
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(m: usize, n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut a = Self::zeros(m, n);
        for j in 0..n {
            for i in 0..m {
                a[(i, j)] = f(i, j);
            }
        }
        a
    }

    /// Build from a column-major buffer (`data.len() == m * n`).
    pub fn from_col_major(m: usize, n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), m * n, "buffer length must equal m*n");
        Matrix { m, n, data }
    }

    /// A matrix with entries drawn uniformly from `[-1, 1)`.
    pub fn random<R: Rng>(m: usize, n: usize, rng: &mut R) -> Self
    where
        StandardUniform: Distribution<f64>,
    {
        Self::from_fn(m, n, |_, _| rng.random::<f64>() * 2.0 - 1.0)
    }

    /// Row count.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Column count.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Flat column-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat column-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.m..(j + 1) * self.m]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.m..(j + 1) * self.m]
    }

    /// Two distinct columns, mutably (`j1 != j2`).
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(j1, j2);
        let m = self.m;
        if j1 < j2 {
            let (lo, hi) = self.data.split_at_mut(j2 * m);
            (&mut lo[j1 * m..j1 * m + m], &mut hi[..m])
        } else {
            let (lo, hi) = self.data.split_at_mut(j1 * m);
            let c2 = &mut lo[j2 * m..j2 * m + m];
            (&mut hi[..m], c2)
        }
    }

    /// Split the flat buffer at column `j`: returns the data of columns
    /// `0..j` and `j..n` as two mutable slices (for kernels that update
    /// trailing columns with reflectors stored in leading columns).
    pub fn split_cols_mut(&mut self, j: usize) -> (&mut [f64], &mut [f64]) {
        assert!(j <= self.n);
        self.data.split_at_mut(j * self.m)
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max-abs entry (infinity norm of vec(A)).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.n, self.m, |i, j| self[(j, i)])
    }

    /// Copy of the sub-matrix `rows x cols` starting at `(i0, j0)`.
    pub fn submatrix(&self, i0: usize, j0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(i0 + rows <= self.m && j0 + cols <= self.n);
        let mut data = Vec::with_capacity(rows * cols);
        for j in j0..j0 + cols {
            data.extend_from_slice(&self.col(j)[i0..i0 + rows]);
        }
        Matrix::from_col_major(rows, cols, data)
    }

    /// Overwrite the block at `(i0, j0)` with `b`.
    pub fn set_submatrix(&mut self, i0: usize, j0: usize, b: &Matrix) {
        assert!(i0 + b.m <= self.m && j0 + b.n <= self.n);
        for j in 0..b.n {
            for i in 0..b.m {
                self[(i0 + i, j0 + j)] = b[(i, j)];
            }
        }
    }

    /// Upper-triangular copy (entries below the diagonal zeroed).
    pub fn upper_triangle(&self) -> Matrix {
        Matrix::from_fn(
            self.m,
            self.n,
            |i, j| if i <= j { self[(i, j)] } else { 0.0 },
        )
    }

    /// `self - other`, requiring equal shapes.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.m, self.n), (other.m, other.n));
        let mut r = self.clone();
        for (a, b) in r.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
        r
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.m, "inner dimensions must agree");
        let mut c = Matrix::zeros(self.m, other.n);
        crate::blas::dgemm(
            crate::blas::Trans::No,
            crate::blas::Trans::No,
            1.0,
            self,
            other,
            0.0,
            &mut c,
        );
        c
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.m && j < self.n);
        &self.data[i + j * self.m]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.m && j < self.n);
        &mut self.data[i + j * self.m]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.m, self.n)?;
        let show_m = self.m.min(8);
        let show_n = self.n.min(8);
        for i in 0..show_m {
            write!(f, "  ")?;
            for j in 0..show_n {
                write!(f, "{:>11.4e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.n > show_n { "..." } else { "" })?;
        }
        if self.m > show_m {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_column_major() {
        let mut a = Matrix::zeros(3, 2);
        a[(2, 1)] = 5.0;
        assert_eq!(a.data()[2 + 3], 5.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let mut rng = rand::rng();
        let a = Matrix::random(4, 3, &mut rng);
        let i4 = Matrix::identity(4);
        let b = i4.matmul(&a);
        assert!(a.sub(&b).norm_fro() < 1e-14);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = rand::rng();
        let a = Matrix::random(5, 3, &mut rng);
        assert_eq!(a, a.transpose().transpose());
    }

    #[test]
    fn two_cols_mut_both_orders() {
        let mut a = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        {
            let (c0, c2) = a.two_cols_mut(0, 2);
            assert_eq!(c0, &[0.0, 1.0]);
            assert_eq!(c2, &[20.0, 21.0]);
        }
        {
            let (c2, c0) = a.two_cols_mut(2, 0);
            assert_eq!(c0, &[0.0, 1.0]);
            assert_eq!(c2, &[20.0, 21.0]);
        }
    }

    #[test]
    fn submatrix_roundtrip() {
        let a = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let s = a.submatrix(1, 2, 3, 2);
        assert_eq!(s[(0, 0)], a[(1, 2)]);
        let mut b = Matrix::zeros(5, 5);
        b.set_submatrix(1, 2, &s);
        assert_eq!(b[(3, 3)], a[(3, 3)]);
        assert_eq!(b[(0, 0)], 0.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_fn(2, 2, |i, j| if i == 0 && j == 0 { -3.0 } else { 4.0 });
        assert!((a.norm_fro() - (9.0 + 48.0f64).sqrt()).abs() < 1e-15);
        assert_eq!(a.norm_max(), 4.0);
    }
}
