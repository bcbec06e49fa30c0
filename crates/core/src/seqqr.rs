//! The plan walker: runs the exact Figure-5 schedule over one tile grid.
//! [`tile_qr_seq`] walks it on a single thread — the numerical oracle for
//! the runtime implementations and the reference for plan-equivalence
//! tests; [`crate::tsqr::tile_qr_tsqr`] and a walked service batch are the
//! same walker, the former with each panel's domain stage dispatched onto
//! the workers of a [`VsaPool`].

use crate::factors::{Reflectors, TileQrFactors};
use crate::ops::{apply_op, assemble_r, factor_op};
use crate::plan::{PanelOp, QrPlan};
use crate::QrOptions;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{Matrix, TileMatrix, Workspace};
use pulsar_runtime::VsaPool;

/// Factor `a` with the given options on the current thread.
///
/// Requires `a.nrows() % nb == 0` (exact row tiling; see DESIGN.md — domain
/// heads must be full-height tiles). Ragged column edges are fine.
pub fn tile_qr_seq(a: &Matrix, opts: &QrOptions) -> TileQrFactors {
    walk_plan(a, opts, None, &mut Workspace::new())
}

/// Walk the plan `opts` induces for `a`, panel by panel. With a `pool`
/// the domain stage of each panel runs on its workers
/// ([`crate::tsqr::reduce_domains`]); everything it leaves — the merge
/// tree, or the whole panel without a pool — runs inline in plan order,
/// with its kernels drawing scratch from `ws`. The caller must not be a
/// worker of `pool`.
pub(crate) fn walk_plan(
    a: &Matrix,
    opts: &QrOptions,
    pool: Option<&VsaPool>,
    ws: &mut Workspace,
) -> TileQrFactors {
    assert_eq!(
        a.nrows() % opts.nb,
        0,
        "tree QR requires exact row tiling (m % nb == 0)"
    );
    let mut tiles = TileMatrix::from_matrix(a, opts.nb);
    let (nt, ib) = (tiles.nt(), opts.ib);
    let plan = opts.plan(tiles.mt(), nt);

    let panels = (0..plan.panels())
        .map(|j| {
            let ops = plan.panel_ops(j);
            let mut recorded = Vec::with_capacity(ops.len());
            if let Some(pool) = pool {
                let active = &mut tiles.tiles_mut()[j * nt..];
                crate::tsqr::reduce_domains(active, j, nt, &ops, ib, pool, &mut recorded);
            }
            for &op in &ops[recorded.len()..] {
                recorded.push(run_op(tiles.tiles_mut(), 0, nt, j, op, ib, ws));
            }
            recorded
        })
        .collect();

    TileQrFactors {
        m: a.nrows(),
        n: a.ncols(),
        nb: opts.nb,
        ib,
        r: assemble_r(a.nrows(), a.ncols(), opts.nb, |i, l| tiles.take_tile(i, l)),
        panels,
    }
}

/// Run `op` of panel `j` — the panel kernel, then its trailing update of
/// every column to the right — on `rows`, the row-major tiles of the block
/// rows from `row0` on (the whole grid, or one domain group's chunk).
pub(crate) fn run_op(
    rows: &mut [Matrix],
    row0: usize,
    nt: usize,
    j: usize,
    op: PanelOp,
    ib: usize,
    ws: &mut Workspace,
) -> Reflectors {
    let (p, s) = op.rows();
    let at = |i: usize| (i - row0) * nt;
    let (prim, mut sec) = match s {
        None => (&mut rows[at(p)..][..nt], None),
        Some(s) => {
            let (lo, hi) = rows.split_at_mut(at(s));
            (&mut lo[at(p)..][..nt], Some(&mut hi[..nt]))
        }
    };
    // The eliminated panel tile is spent (no later op or `R` block reads
    // it), so it moves out of the grid and becomes the recorded `v`.
    let a2 = sec
        .as_mut()
        .map(|row| std::mem::replace(&mut row[j], Matrix::zeros(0, 0)));
    let refl = factor_op(op, &mut prim[j], a2, ib, ws);
    for l in j + 1..nt {
        let c2 = sec.as_mut().map(|row| &mut row[l]);
        apply_op(&refl, ApplyTrans::Trans, &mut prim[l], c2, ib, ws);
    }
    refl
}

impl QrOptions {
    /// The plan this option set induces for an `mt x nt` grid.
    pub fn plan(&self, mt: usize, nt: usize) -> QrPlan {
        QrPlan::new(mt, nt, self.tree.clone(), self.boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Boundary, Tree};
    use pulsar_linalg::reference::geqrf;
    use pulsar_linalg::verify::r_factor_distance;

    fn opts(nb: usize, ib: usize, tree: Tree) -> QrOptions {
        QrOptions {
            nb,
            ib,
            tree,
            boundary: Boundary::Shifted,
        }
    }

    fn check(m: usize, n: usize, o: &QrOptions) {
        let mut rng = rand::rng();
        let a = Matrix::random(m, n, &mut rng);
        let f = tile_qr_seq(&a, o);
        let resid = f.residual(&a);
        assert!(resid < 1e-13, "residual {resid} for {m}x{n} {:?}", o.tree);
        let orth = f.orthogonality_probe(3, &mut rng);
        assert!(orth < 1e-12, "orthogonality {orth}");
        // R agrees with the reference QR up to row signs.
        let rref = geqrf(a.clone()).r();
        let d = r_factor_distance(&f.r, &rref.submatrix(0, 0, n.min(m), n));
        assert!(d < 1e-11, "R mismatch {d}");
    }

    #[test]
    fn flat_tree_tall() {
        check(24, 8, &opts(4, 2, Tree::Flat));
    }

    #[test]
    fn binary_tree_tall() {
        check(24, 8, &opts(4, 2, Tree::Binary));
    }

    #[test]
    fn hierarchical_tall() {
        check(24, 8, &opts(4, 2, Tree::BinaryOnFlat { h: 3 }));
        check(32, 8, &opts(4, 4, Tree::BinaryOnFlat { h: 2 }));
    }

    #[test]
    fn fixed_boundary_same_factorization_quality() {
        let o = QrOptions {
            nb: 4,
            ib: 2,
            tree: Tree::BinaryOnFlat { h: 3 },
            boundary: Boundary::Fixed,
        };
        check(28, 8, &o);
    }

    #[test]
    fn square_matrix() {
        check(12, 12, &opts(4, 2, Tree::BinaryOnFlat { h: 2 }));
    }

    #[test]
    fn single_tile_column() {
        check(20, 4, &opts(4, 2, Tree::Binary));
    }

    #[test]
    fn ragged_column_edge() {
        // n not a multiple of nb: last column block is narrower.
        check(16, 6, &opts(4, 2, Tree::BinaryOnFlat { h: 2 }));
        check(16, 5, &opts(4, 2, Tree::Flat));
    }

    #[test]
    fn wide_matrix() {
        check(8, 14, &opts(4, 2, Tree::Binary));
    }

    #[test]
    fn least_squares_via_tree_qr() {
        let mut rng = rand::rng();
        let a = Matrix::random(24, 6, &mut rng);
        let x0 = Matrix::random(6, 2, &mut rng);
        let b = a.matmul(&x0);
        let f = tile_qr_seq(&a, &opts(4, 2, Tree::BinaryOnFlat { h: 2 }));
        let x = f.solve_ls(&b);
        assert!(x.sub(&x0).norm_fro() < 1e-9);
    }

    #[test]
    fn greedy_tree_tall() {
        check(28, 8, &opts(4, 2, Tree::Greedy));
    }

    #[test]
    fn custom_domains_tall() {
        check(28, 8, &opts(4, 2, Tree::custom([3, 2])));
        check(24, 8, &opts(4, 2, Tree::custom([5])));
    }

    #[test]
    fn all_trees_same_r_up_to_signs() {
        let mut rng = rand::rng();
        let a = Matrix::random(20, 8, &mut rng);
        let r1 = tile_qr_seq(&a, &opts(4, 2, Tree::Flat)).r;
        let r2 = tile_qr_seq(&a, &opts(4, 2, Tree::Binary)).r;
        let r3 = tile_qr_seq(&a, &opts(4, 2, Tree::BinaryOnFlat { h: 2 })).r;
        assert!(r_factor_distance(&r1, &r2) < 1e-11);
        assert!(r_factor_distance(&r1, &r3) < 1e-11);
    }

    /// Entries whose squares overflow (1e160) or underflow (1e-170) still
    /// factor: `R` stays finite, its `(0, 0)` is the first column's norm,
    /// and the residual of the rescaled factors is as small as at scale 1.
    #[test]
    fn extreme_scales_factor_accurately() {
        let mut rng = rand::rng();
        let b = Matrix::random(64, 32, &mut rng);
        let scaled =
            |a: &Matrix, s: f64| Matrix::from_fn(a.nrows(), a.ncols(), |i, j| a[(i, j)] * s);
        let col0 = b.col(0).iter().map(|x| x * x).sum::<f64>().sqrt();
        let o = opts(16, 4, Tree::Greedy);
        for s in [1e160, 1.0, 1e-170] {
            let a = scaled(&b, s);
            let mut f = tile_qr_seq(&a, &o);
            assert!(f.r.data().iter().all(|x| x.is_finite()), "R at {s:e}");
            assert!(
                ((f.r[(0, 0)] / s).abs() / col0 - 1.0).abs() < 1e-13,
                "{s:e}"
            );
            f.r = scaled(&f.r, 1.0 / s);
            let resid = f.residual(&scaled(&a, 1.0 / s));
            assert!(resid <= 1e-12, "residual {resid:e} at {s:e}");
        }
    }

    #[test]
    #[should_panic(expected = "exact row tiling")]
    fn ragged_rows_rejected() {
        let a = Matrix::zeros(10, 4);
        let _ = tile_qr_seq(&a, &opts(4, 2, Tree::Flat));
    }
}
