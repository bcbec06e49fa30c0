//! High-level least-squares driver — the paper's motivating application
//! ("such a QR decomposition is used, for example, to compute a least
//! squares solution of an overdetermined system").

use crate::applyq::apply_q_vsa;
use crate::factors::TileQrFactors;
use crate::vsa3d::tile_qr_vsa;
use crate::QrOptions;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::Matrix;
use pulsar_runtime::RunConfig;

/// Solution of `min_x ||A x - b||_2` for each column of `b`.
pub struct LsSolution {
    /// The `n x k` solution.
    pub x: Matrix,
    /// Per-column residual norms `||A x_j - b_j||_2`, computed for free
    /// from the tail of `Q^T b`.
    pub residual_norms: Vec<f64>,
    /// The factorization, reusable for further right-hand sides.
    pub factors: TileQrFactors,
}

/// Factorize `a` on the virtual systolic array and solve the
/// least-squares problem for every column of `b`.
///
/// Requires `m >= n`, full column rank, and `m % opts.nb == 0`.
/// Both the factorization and the `Q^T b` application run as VSAs under
/// `config`. Panics naming the zero-pivot column when `R` is exactly
/// singular (rank-deficient `A`), like [`TileQrFactors::solve_ls`].
pub fn least_squares(a: &Matrix, b: &Matrix, opts: &QrOptions, config: &RunConfig) -> LsSolution {
    let (m, n) = (a.nrows(), a.ncols());
    assert!(m >= n, "least squares needs m >= n");
    assert_eq!(b.nrows(), m, "b must have m rows");

    let factors = tile_qr_vsa(a, opts, config).factors;
    let qtb = apply_q_vsa(&factors, b, ApplyTrans::Trans, config);
    solve_from_qtb(factors, &qtb, b.ncols())
}

/// Solve additional right-hand sides with an existing factorization
/// (consumes and returns the factors inside the solution).
pub fn solve_more(factors: TileQrFactors, b: &Matrix, config: &RunConfig) -> LsSolution {
    assert_eq!(b.nrows(), factors.m);
    let qtb = apply_q_vsa(&factors, b, ApplyTrans::Trans, config);
    solve_from_qtb(factors, &qtb, b.ncols())
}

fn solve_from_qtb(factors: TileQrFactors, qtb: &Matrix, nrhs: usize) -> LsSolution {
    let n = factors.n;
    let m = factors.m;
    let mut x = qtb.submatrix(0, 0, n, nrhs);
    pulsar_linalg::back_substitute(&factors.r, &mut x).expect("singular R in least_squares");
    // ||A x - b|| == ||Q^T b - [R x; 0]|| == ||(Q^T b)[n..]||.
    let residual_norms: Vec<f64> = (0..nrhs)
        .map(|j| {
            (n..m)
                .map(|i| qtb[(i, j)] * qtb[(i, j)])
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    LsSolution {
        x,
        residual_norms,
        factors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Tree;

    #[test]
    fn consistent_system_recovers_exactly() {
        let mut rng = rand::rng();
        let a = Matrix::random(40, 8, &mut rng);
        let x0 = Matrix::random(8, 2, &mut rng);
        let b = a.matmul(&x0);
        let opts = QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 3 });
        let sol = least_squares(&a, &b, &opts, &RunConfig::smp(3));
        assert!(sol.x.sub(&x0).norm_fro() < 1e-10);
        for r in &sol.residual_norms {
            assert!(*r < 1e-10, "consistent system must have zero residual");
        }
    }

    #[test]
    fn residual_norm_matches_direct_computation() {
        let mut rng = rand::rng();
        let a = Matrix::random(32, 6, &mut rng);
        let b = Matrix::random(32, 3, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::Binary);
        let sol = least_squares(&a, &b, &opts, &RunConfig::smp(2));
        let resid = a.matmul(&sol.x).sub(&b);
        for j in 0..3 {
            let direct: f64 = (0..32).map(|i| resid[(i, j)].powi(2)).sum::<f64>().sqrt();
            assert!(
                (direct - sol.residual_norms[j]).abs() < 1e-9 * direct.max(1.0),
                "column {j}: {direct} vs {}",
                sol.residual_norms[j]
            );
        }
    }

    #[test]
    fn condition_estimate_flags_bad_systems() {
        let mut rng = rand::rng();
        // Well-conditioned random system.
        let a = Matrix::random(32, 8, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 2 });
        let sol = least_squares(
            &a,
            &Matrix::random(32, 1, &mut rng),
            &opts,
            &RunConfig::smp(2),
        );
        assert!(sol.factors.r_condition_estimate() < 1e4);

        // Nearly rank-deficient: last column almost a copy of the first.
        let mut bad = a.clone();
        for i in 0..32 {
            bad[(i, 7)] = bad[(i, 0)] * (1.0 + 1e-13);
        }
        let sol2 = least_squares(
            &bad,
            &Matrix::random(32, 1, &mut rng),
            &opts,
            &RunConfig::smp(2),
        );
        assert!(sol2.factors.r_condition_estimate() > 1e8);
    }

    #[test]
    #[should_panic(expected = "singular R in least_squares: Singular { col: 2 }")]
    fn zero_column_fails_typed_instead_of_returning_nan() {
        let mut rng = rand::rng();
        let mut a = Matrix::random(24, 6, &mut rng);
        for i in 0..24 {
            a[(i, 2)] = 0.0;
        }
        let b = Matrix::random(24, 1, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 2 });
        least_squares(&a, &b, &opts, &RunConfig::smp(2));
    }

    #[test]
    fn solve_more_reuses_factors() {
        let mut rng = rand::rng();
        let a = Matrix::random(24, 4, &mut rng);
        let b1 = Matrix::random(24, 1, &mut rng);
        let b2 = Matrix::random(24, 1, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::Flat);
        let cfg = RunConfig::smp(2);
        let sol1 = least_squares(&a, &b1, &opts, &cfg);
        let sol2 = solve_more(sol1.factors, &b2, &cfg);
        // Cross-check against the dense reference.
        let xref = pulsar_linalg::reference::geqrf(a).solve_ls(&b2);
        assert!(sol2.x.sub(&xref).norm_fro() < 1e-9);
    }
}
