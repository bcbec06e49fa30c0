//! Streaming row updates: append rows to a completed [`TileQrFactors`]
//! without re-factoring the matrix.
//!
//! Given `A = Q0 [R; 0]` and `p` new rows `E`, the stacked matrix factors
//! as `[A; E] = diag(Q0, I) · Q1 · [R'; 0]` where `Q1` comes from a TSQRT
//! chain eliminating each tile row of `E` against the stored `R`. The
//! chain reuses the exact PLASMA kernels of the factorization itself, so
//! the new transformations append to the recorded panel list and every
//! existing consumer (`apply_q`, `solve_ls`, `residual`) works unchanged
//! on the updated factors.
//!
//! Cost: `O(p n^2)` instead of the `O((m + p) n^2)` of a fresh
//! factorization — for tall stored problems (`m ≫ p`) absorbing a row
//! burst is cheaper by the ratio `m/p` (benchmarked in
//! `crates/bench/benches/qr_solve.rs`).
//!
//! Because `tsqrt` reads and writes only the upper triangle of its
//! `R` operand, eliminating `E` against the *extracted* `R` performs
//! bit-for-bit the same arithmetic as continuing the original tile grid.
//! Under a flat reduction tree the old transformation chain is a prefix
//! of the chain a from-scratch factorization of `[A; E]` would build, so
//! the updated `R'` (and the new `V`/`T` tiles) are **bit-identical** to
//! re-factoring — the unit tests below assert exact equality, not a
//! tolerance.

use crate::factors::{Reflectors, TileQrFactors};
use crate::ops::{apply_op, factor_op};
use crate::plan::PanelOp;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{with_thread_workspace, Matrix, TileMatrix};

/// Why a row update cannot be applied to a stored factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// The appended block's column count does not match the factorization.
    ColsMismatch {
        /// Columns of the stored factorization.
        expected: usize,
        /// Columns of the appended block.
        got: usize,
    },
    /// The appended block's row count is not a positive multiple of the
    /// factorization's tile size (domain heads must be full-height tiles,
    /// same rule as factoring).
    RowsNotTiled {
        /// Rows of the appended block.
        rows: usize,
        /// Tile size of the stored factorization.
        nb: usize,
    },
    /// The stored factorization is wide (`m < n`): its `R` is trapezoidal,
    /// not triangular, so there is nothing to eliminate new rows against.
    Underdetermined {
        /// Rows of the stored factorization.
        m: usize,
        /// Columns of the stored factorization.
        n: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::ColsMismatch { expected, got } => {
                write!(
                    f,
                    "appended rows have {got} columns, factorization has {expected}"
                )
            }
            UpdateError::RowsNotTiled { rows, nb } => {
                write!(
                    f,
                    "appended row count {rows} is not a positive multiple of nb={nb}"
                )
            }
            UpdateError::Underdetermined { m, n } => {
                write!(
                    f,
                    "cannot append rows to a wide factorization ({m}x{n}, m < n)"
                )
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Append the rows of `e` to a stored factorization, producing factors of
/// the stacked matrix `[A; E]`. See the module docs for the math and the
/// flat-tree bit-identity guarantee. Uses the thread-local workspace.
pub fn append_rows(f: &TileQrFactors, e: &Matrix) -> Result<TileQrFactors, UpdateError> {
    if f.m < f.n {
        return Err(UpdateError::Underdetermined { m: f.m, n: f.n });
    }
    if e.ncols() != f.n {
        return Err(UpdateError::ColsMismatch {
            expected: f.n,
            got: e.ncols(),
        });
    }
    let nb = f.nb;
    if e.nrows() == 0 || !e.nrows().is_multiple_of(nb) {
        return Err(UpdateError::RowsNotTiled {
            rows: e.nrows(),
            nb,
        });
    }
    let n = f.n;
    let p = e.nrows();
    let mt_old = f.m / nb;

    // Working copy of R (n x n upper triangular for m >= n) and the tile
    // rows of E; both are updated in place by the TSQRT chain.
    let mut r = f.r.clone();
    let mut etiles = TileMatrix::from_matrix(e, nb);
    let (pt, kt) = (etiles.mt(), etiles.nt());

    let mut panels: Vec<Vec<Reflectors>> = f.panels.clone();
    with_thread_workspace(|ws| {
        for j in 0..kt {
            let w = nb.min(n - j * nb);
            let mut recorded = Vec::with_capacity(pt);
            for i in 0..pt {
                // Eliminate E_ij against the diagonal block R_jj, then fold the
                // trailing updates into R_jl / E_il for every column right of j —
                // the same op -> trailing-update order the executors use.
                let op = PanelOp::Tsqrt {
                    head: j,
                    row: mt_old + i,
                };
                let mut rjj = r.submatrix(j * nb, j * nb, w, w);
                let refl = factor_op(op, &mut rjj, Some(etiles.take_tile(i, j)), f.ib, ws);
                r.set_submatrix(j * nb, j * nb, &rjj);
                for l in j + 1..kt {
                    let mut rjl = r.submatrix(j * nb, l * nb, w, nb.min(n - l * nb));
                    let eil = etiles.tile_mut(i, l);
                    apply_op(&refl, ApplyTrans::Trans, &mut rjl, Some(eil), f.ib, ws);
                    r.set_submatrix(j * nb, l * nb, &rjl);
                }
                recorded.push(refl);
            }
            panels.push(recorded);
        }
    });

    Ok(TileQrFactors {
        m: f.m + p,
        n,
        nb,
        ib: f.ib,
        r,
        panels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Tree;
    use crate::{tile_qr_seq, QrOptions};
    use pulsar_linalg::reference::geqrf;

    fn vstack(a: &Matrix, e: &Matrix) -> Matrix {
        let mut s = Matrix::zeros(a.nrows() + e.nrows(), a.ncols());
        s.set_submatrix(0, 0, a);
        s.set_submatrix(a.nrows(), 0, e);
        s
    }

    #[test]
    fn flat_tree_update_is_bit_identical_to_refactoring() {
        let mut rng = rand::rng();
        let opts = QrOptions::new(4, 2, Tree::Flat);
        let a = Matrix::random(24, 8, &mut rng);
        let e = Matrix::random(8, 8, &mut rng);

        let updated = append_rows(&tile_qr_seq(&a, &opts), &e).expect("valid update");
        let scratch = tile_qr_seq(&vstack(&a, &e), &opts);

        assert_eq!(updated.m, 32);
        assert_eq!(
            updated.r.sub(&scratch.r).norm_max(),
            0.0,
            "flat-tree updated R must match re-factoring bit for bit"
        );
        // The appended V/T tiles are the same transformations the fresh
        // factorization records for the new rows — compare them exactly.
        let mt_old = a.nrows() / opts.nb;
        for group in &updated.panels[scratch.panels.len()..] {
            for refl in group {
                let twin = scratch
                    .panels
                    .iter()
                    .flatten()
                    .find(|r| r.op == refl.op)
                    .expect("refactored chain has the same op");
                assert_eq!(refl.v, twin.v, "V mismatch for {:?}", refl.op);
                assert_eq!(refl.t, twin.t, "T mismatch for {:?}", refl.op);
                let (_, row) = match refl.op {
                    PanelOp::Tsqrt { head, row } => (head, row),
                    ref op => panic!("update recorded non-TS op {op:?}"),
                };
                assert!(row >= mt_old, "update must only touch appended rows");
            }
        }
    }

    #[test]
    fn updated_factors_solve_the_stacked_problem() {
        let mut rng = rand::rng();
        // Greedy tree + ragged column edge: the general (non-bit-exact) path.
        let opts = QrOptions::new(4, 2, Tree::Greedy);
        let a = Matrix::random(28, 6, &mut rng);
        let e = Matrix::random(12, 6, &mut rng);
        let stacked = vstack(&a, &e);

        let updated = append_rows(&tile_qr_seq(&a, &opts), &e).expect("valid update");
        assert!(updated.residual(&stacked) < 1e-13, "residual off");

        let b = Matrix::random(40, 2, &mut rng);
        let x = updated.solve_ls(&b);
        let xref = geqrf(stacked).solve_ls(&b);
        assert!(
            x.sub(&xref).norm_fro() < 1e-9 * xref.norm_fro().max(1.0),
            "updated solve disagrees with the reference"
        );
    }

    #[test]
    fn repeated_updates_keep_absorbing_rows() {
        let mut rng = rand::rng();
        let opts = QrOptions::new(4, 4, Tree::Binary);
        let a = Matrix::random(16, 8, &mut rng);
        let mut f = tile_qr_seq(&a, &opts);
        let mut full = a.clone();
        for _ in 0..3 {
            let e = Matrix::random(4, 8, &mut rng);
            full = vstack(&full, &e);
            f = append_rows(&f, &e).expect("valid update");
        }
        assert_eq!(f.m, 28);
        assert!(f.residual(&full) < 1e-13);
        let orth = f.orthogonality_probe(3, &mut rng);
        assert!(orth < 1e-12, "Q drifted from orthogonal: {orth}");
    }

    #[test]
    fn shape_errors_are_typed() {
        let mut rng = rand::rng();
        let opts = QrOptions::new(4, 2, Tree::Flat);
        let f = tile_qr_seq(&Matrix::random(16, 8, &mut rng), &opts);
        assert_eq!(
            append_rows(&f, &Matrix::zeros(4, 6)).unwrap_err(),
            UpdateError::ColsMismatch {
                expected: 8,
                got: 6
            }
        );
        assert_eq!(
            append_rows(&f, &Matrix::zeros(6, 8)).unwrap_err(),
            UpdateError::RowsNotTiled { rows: 6, nb: 4 }
        );
        assert_eq!(
            append_rows(&f, &Matrix::zeros(0, 8)).unwrap_err(),
            UpdateError::RowsNotTiled { rows: 0, nb: 4 }
        );
        let wide = tile_qr_seq(&Matrix::random(4, 8, &mut rng), &opts);
        assert_eq!(
            append_rows(&wide, &Matrix::zeros(4, 8)).unwrap_err(),
            UpdateError::Underdetermined { m: 4, n: 8 }
        );
    }
}
