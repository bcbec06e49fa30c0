//! Triangular-solve entry points for the least-squares service verbs.
//!
//! [`crate::blas::dtrsm_upper_left`] divides blindly: a zero pivot turns
//! the whole solution into inf/NaN garbage that only surfaces much later
//! (or never, if the caller forwards it over a wire). The service needs a
//! *typed* verdict instead, so [`back_substitute`] scans the pivots first,
//! refuses exactly-singular systems with [`SolveError::Singular`] naming
//! the offending column, and only then runs that same loop. Neither step
//! holds temporaries, so a warm solve against cached factors stays
//! allocation-free (proved in `tests/alloc_count.rs`).

use crate::matrix::Matrix;

/// Why a triangular solve produced no solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The triangular factor has an exactly-zero pivot: the system is
    /// singular and the least-squares problem is rank-deficient.
    Singular {
        /// Column of the zero diagonal entry.
        col: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular { col } => {
                write!(f, "singular triangular factor: zero pivot at column {col}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Solve the upper-triangular system `U * x = b` in place (`b` becomes
/// `x`), returning a typed error instead of dividing by an exactly-zero
/// pivot. `U` is `n x n`; only its upper triangle is read. Near-singular
/// systems still solve — use a condition estimate
/// (`pulsar_linalg::cond::cond_est_upper`) to judge trustworthiness.
///
/// Performs zero heap allocations: safe on the warm service path.
pub fn back_substitute(u: &Matrix, b: &mut Matrix) -> Result<(), SolveError> {
    let n = u.nrows();
    assert_eq!(u.ncols(), n, "triangular factor must be square");
    assert_eq!(b.nrows(), n, "rhs row count must match the factor");
    for i in 0..n {
        if u[(i, i)] == 0.0 {
            return Err(SolveError::Singular { col: i });
        }
    }
    crate::blas::dtrsm_upper_left(u, b);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_untyped_trsm() {
        let mut rng = rand::rng();
        let u = Matrix::random(6, 6, &mut rng).upper_triangle();
        let b = Matrix::random(6, 3, &mut rng);
        let mut x1 = b.clone();
        back_substitute(&u, &mut x1).expect("well-conditioned");
        let mut x2 = b;
        crate::blas::dtrsm_upper_left(&u, &mut x2);
        assert_eq!(x1.sub(&x2).norm_fro(), 0.0, "same arithmetic, same bits");
    }

    #[test]
    fn zero_pivot_is_a_typed_error() {
        let mut rng = rand::rng();
        let mut u = Matrix::random(5, 5, &mut rng).upper_triangle();
        u[(3, 3)] = 0.0;
        let mut b = Matrix::random(5, 1, &mut rng);
        assert_eq!(
            back_substitute(&u, &mut b),
            Err(SolveError::Singular { col: 3 })
        );
    }
}
