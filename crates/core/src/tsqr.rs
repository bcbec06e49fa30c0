//! Communication-optimal TSQR fast path for tall-skinny factorizations.
//!
//! "Implementing Communication-Optimal Parallel and Sequential QR"
//! (arXiv:0809.2407) factors a tall-skinny matrix by local QRs on row
//! blocks followed by a binary merge tree of the local `R` factors. On the
//! tile grid that is exactly a [`QrPlan`](crate::plan::QrPlan) panel
//! schedule — flat reductions inside each domain, `ttqrt` merges of the
//! domain tops — so TSQR is not a second executor: it is the plan walker
//! of [`crate::seqqr`] with one extra dispatch, and no 3D VSA: no VDPs, no
//! channels, no packet traffic. For jobs with `mt >> nt` (the dominant
//! least-squares serve shape) the array-construction and channel overheads
//! of the VSA dwarf the actual kernel work, and this direct path wins.
//!
//! Parallelism comes from the plan itself: the flat reduction of each
//! domain touches only that domain's block rows, and the tile grid is
//! row-major, so `reduce_domains` hands each scoped thread one
//! contiguous `&mut` chunk of it. The merge tree is executed on the
//! calling thread (it is `O(log domains)` deep and cheap relative to the
//! domain stage whenever `h > log2(mt/h)`).
//!
//! Every op goes through the same `run_op` as the sequential oracle — same
//! inputs, and ops that share a tile run in the same relative order (ops
//! on disjoint rows commute exactly) — so the produced [`TileQrFactors`]
//! are **bit-identical** to `tile_qr_seq` with the same options, and
//! therefore interchangeable with VSA-produced factors for solve /
//! apply-Q / update (all paths share the documented row-sign convention).

use crate::factors::{Reflectors, TileQrFactors};
use crate::plan::PanelOp;
use crate::seqqr::{run_op, walk_plan};
use crate::QrOptions;
use pulsar_linalg::{Matrix, Workspace};

/// Tile-grid aspect ratio `mt / nt` of an `m x n` matrix under tile size
/// `nb` — the quantity the tuner's TSQR routing threshold is compared
/// against (0 when the grid is wider than tall).
pub fn grid_aspect(m: usize, n: usize, nb: usize) -> usize {
    let mt = m.div_ceil(nb).max(1);
    let nt = n.div_ceil(nb).max(1);
    mt / nt
}

/// Run the domain stage of panel `j` — the `Geqrt`/`Tsqrt` ops leading
/// `ops` — on up to `threads` scoped threads, appending the recorded
/// transformations to `recorded` in plan order. `rows` holds the row-major
/// tiles of block rows `j..`. When the stage does not split into at least
/// two groups nothing runs and the walker executes the whole panel inline.
pub(crate) fn reduce_domains(
    rows: &mut [Matrix],
    j: usize,
    nt: usize,
    ops: &[PanelOp],
    ib: usize,
    threads: usize,
    recorded: &mut Vec<Reflectors>,
) {
    let merge_at = ops
        .iter()
        .position(|o| matches!(o, PanelOp::Ttqrt { .. }))
        .unwrap_or(ops.len());
    let ops = &ops[..merge_at];
    // Domains are contiguous and ascending, so the k-th domain op works on
    // block row j + k: a run of whole domains is a run of ops over one
    // contiguous chunk of rows.
    assert!(
        ops.iter()
            .enumerate()
            .all(|(k, op)| op.rows().1.unwrap_or(op.rows().0) == j + k),
        "non-contiguous domain in plan"
    );
    // Cut at domain heads into groups balanced by block-row count.
    let target = ops.len().div_ceil(threads);
    let mut cuts = vec![0];
    for (k, op) in ops.iter().enumerate() {
        let head = matches!(op, PanelOp::Geqrt { .. });
        if head && k - cuts[cuts.len() - 1] >= target && cuts.len() < threads {
            cuts.push(k);
        }
    }
    cuts.push(ops.len());
    if cuts.len() <= 2 {
        return;
    }
    std::thread::scope(|s| {
        let mut rest = rows;
        let handles: Vec<_> = cuts
            .windows(2)
            .map(|w| {
                let group = &ops[w[0]..w[1]];
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(group.len() * nt);
                rest = tail;
                let row0 = j + w[0];
                s.spawn(move || {
                    let mut ws = Workspace::new();
                    group
                        .iter()
                        .map(|&op| run_op(chunk, row0, nt, j, op, ib, &mut ws))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            recorded.extend(h.join().expect("tsqr domain worker panicked"));
        }
    });
}

/// Factor `a` by TSQR reduction, bypassing the 3D VSA: domains of each
/// panel are flat-reduced in parallel on up to `threads` scoped threads,
/// then the domain tops are merged on the calling thread in plan order.
///
/// Executes the exact [`QrPlan`](crate::plan::QrPlan) induced by `opts`,
/// so the result is bit-identical to [`crate::tile_qr_seq`] with the same
/// options and numerically interchangeable with the VSA paths. Requires
/// `a.nrows() % nb == 0`, like every tile executor.
pub fn tile_qr_tsqr(a: &Matrix, opts: &QrOptions, threads: usize) -> TileQrFactors {
    walk_plan(a, opts, threads, &mut Workspace::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Boundary, Tree};
    use crate::seqqr::tile_qr_seq;

    fn opts(nb: usize, ib: usize, tree: Tree) -> QrOptions {
        QrOptions::new(nb, ib, tree)
    }

    fn assert_bit_identical(a: &Matrix, o: &QrOptions, threads: usize) {
        let f = tile_qr_tsqr(a, o, threads);
        let g = tile_qr_seq(a, o);
        assert_eq!(f.r.sub(&g.r).norm_fro(), 0.0, "R differs ({:?})", o.tree);
        assert_eq!(f.panels.len(), g.panels.len());
        for (pf, pg) in f.panels.iter().zip(&g.panels) {
            assert_eq!(pf.len(), pg.len());
            for (rf, rg) in pf.iter().zip(pg) {
                assert_eq!(rf.op, rg.op, "recorded op order differs");
                assert_eq!(rf.v.sub(&rg.v).norm_fro(), 0.0, "V differs at {:?}", rf.op);
                assert_eq!(rf.t.sub(&rg.t).norm_fro(), 0.0, "T differs at {:?}", rf.op);
            }
        }
    }

    #[test]
    fn bit_identical_to_seq_across_trees_and_threads() {
        let mut rng = rand::rng();
        for tree in [
            Tree::Flat,
            Tree::Binary,
            Tree::Greedy,
            Tree::BinaryOnFlat { h: 3 },
            Tree::custom([3, 2]),
        ] {
            let a = Matrix::random(32, 8, &mut rng);
            for threads in [1, 3] {
                assert_bit_identical(&a, &opts(4, 2, tree.clone()), threads);
            }
        }
    }

    #[test]
    fn fixed_boundary_and_ragged_columns() {
        let mut rng = rand::rng();
        let a = Matrix::random(24, 7, &mut rng);
        let o = opts(4, 2, Tree::BinaryOnFlat { h: 3 }).with_fixed_boundary();
        assert_eq!(o.boundary, Boundary::Fixed);
        assert_bit_identical(&a, &o, 2);
    }

    #[test]
    fn square_and_wide_grids() {
        let mut rng = rand::rng();
        assert_bit_identical(
            &Matrix::random(12, 12, &mut rng),
            &opts(4, 2, Tree::Greedy),
            2,
        );
        assert_bit_identical(
            &Matrix::random(8, 14, &mut rng),
            &opts(4, 2, Tree::Binary),
            2,
        );
    }

    #[test]
    fn solves_least_squares() {
        let mut rng = rand::rng();
        let a = Matrix::random(48, 6, &mut rng);
        let x0 = Matrix::random(6, 2, &mut rng);
        let b = a.matmul(&x0);
        let f = tile_qr_tsqr(&a, &opts(8, 4, Tree::BinaryOnFlat { h: 2 }), 2);
        let x = f.solve_ls(&b);
        assert!(x.sub(&x0).norm_fro() < 1e-9);
    }

    #[test]
    fn grid_aspect_ratios() {
        assert_eq!(grid_aspect(2048, 8, 8), 256);
        assert_eq!(grid_aspect(256, 64, 64), 4);
        assert_eq!(grid_aspect(64, 64, 32), 1);
        assert_eq!(grid_aspect(32, 128, 32), 0);
    }
}
