//! The op core under every executor: the only code in `pulsar-core` that
//! calls a tile kernel ([`factor_op`], [`apply_op`]), plus the one `R`
//! assembly and the one exits→[`TileQrFactors`] collector.
//!
//! Every reduction tree is an elimination list over the same six PLASMA
//! kernels, so executors differ only in *who runs an op and when*. Routing
//! every op through these two functions makes bit-identity across
//! executors hold by construction (`scripts/check.sh` greps that no other
//! file under `crates/core/src` calls a kernel), and makes a kernel
//! signature change a one-file edit.

use crate::factors::{Reflectors, TileQrFactors};
use crate::plan::PanelOp;
use crate::QrOptions;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Matrix, Workspace,
};
use pulsar_runtime::{RunOutput, Tuple};

/// Run the panel kernel of `op` and record its transformation.
///
/// `a1` is the primary tile (it keeps the `R` factor); `a2` is the
/// secondary tile of a TS/TT elimination, taken by value because its
/// content is spent: after the kernel it holds only the reflector tails,
/// so it *becomes* the recorded `v` without a copy. `Geqrt` has no
/// secondary and records a copy of the factored tile instead.
pub(crate) fn factor_op(
    op: PanelOp,
    a1: &mut Matrix,
    a2: Option<Matrix>,
    ib: usize,
    ws: &mut Workspace,
) -> Reflectors {
    let nc = a1.ncols();
    let mut t = Matrix::zeros(ib.min(nc).max(1), nc.max(1));
    let v = match (op, a2) {
        (PanelOp::Geqrt { .. }, None) => {
            geqrt_ws(a1, &mut t, ib, ws);
            a1.clone()
        }
        (PanelOp::Tsqrt { .. }, Some(mut a2)) => {
            tsqrt_ws(a1, &mut a2, &mut t, ib, ws);
            a2
        }
        (PanelOp::Ttqrt { .. }, Some(mut a2)) => {
            ttqrt_ws(a1, &mut a2, &mut t, ib, ws);
            a2
        }
        (op, _) => panic!("operand count does not match {op:?}"),
    };
    Reflectors { op, v, t }
}

/// Apply a recorded transformation to the tile(s) of another column: the
/// trailing update of a factorization (`ApplyTrans::Trans`) or one step of
/// a `Q`/`Q^T` application. `c2` is present exactly when `refl.op` has a
/// secondary row.
pub(crate) fn apply_op(
    refl: &Reflectors,
    trans: ApplyTrans,
    c1: &mut Matrix,
    c2: Option<&mut Matrix>,
    ib: usize,
    ws: &mut Workspace,
) {
    let (v, t) = (&refl.v, &refl.t);
    match (refl.op, c2) {
        (PanelOp::Geqrt { .. }, None) => unmqr_ws(v, t, trans, c1, ib, ws),
        (PanelOp::Tsqrt { .. }, Some(c2)) => tsmqr_ws(c1, c2, v, t, trans, ib, ws),
        (PanelOp::Ttqrt { .. }, Some(c2)) => ttmqr_ws(c1, c2, v, t, trans, ib, ws),
        (op, _) => panic!("operand count does not match {op:?}"),
    }
}

/// Block coordinates `(i, l)` of the tiles that hold `R` for an `m x n`
/// matrix on tile size `nb`: the upper block triangle, clipped to the top
/// `min(m, n)` rows.
pub(crate) fn r_blocks(m: usize, n: usize, nb: usize) -> impl Iterator<Item = (usize, usize)> {
    let nt = n.div_ceil(nb);
    let kt = m.min(n).div_ceil(nb);
    (0..kt).flat_map(move |i| (i..nt).map(move |l| (i, l)))
}

/// Assemble the `min(m,n) x n` upper-trapezoidal `R` from finished tiles;
/// `tile(i, l)` hands over block `(i, l)` of [`r_blocks`].
pub(crate) fn assemble_r(
    m: usize,
    n: usize,
    nb: usize,
    mut tile: impl FnMut(usize, usize) -> Matrix,
) -> Matrix {
    let k = m.min(n);
    let mut r = Matrix::zeros(k, n);
    for (i, l) in r_blocks(m, n, nb) {
        let block = tile(i, l);
        // Clip to the top k rows (rows beyond hold reflectors).
        let rows = block.nrows().min(k - i * nb);
        r.set_submatrix(i * nb, l * nb, &block.submatrix(0, 0, rows, block.ncols()));
    }
    // Diagonal blocks still carry reflectors below the diagonal.
    r.upper_triangle()
}

/// Drain a finished array's exits into the factorization of `a` (only its
/// shape is read). `exit_r(i, l)` names the exit holding `R` block `(i, l)`;
/// `panel_exits(j, ops)` lists, in schedule order, the exits holding
/// panel `j`'s transformations. The drained transformations must be
/// exactly the plan's ops in plan order — a missing or misrouted packet
/// fails here, not in a later solve.
pub(crate) fn collect_factors(
    out: &mut RunOutput,
    a: &Matrix,
    opts: &QrOptions,
    exit_r: impl Fn(usize, usize) -> Tuple,
    panel_exits: impl Fn(usize, &[PanelOp]) -> Vec<Tuple>,
) -> TileQrFactors {
    let (m, n, nb) = (a.nrows(), a.ncols(), opts.nb);
    let r = assemble_r(m, n, nb, |i, l| {
        let mut p = out.take_exit(exit_r(i, l), 0);
        assert_eq!(p.len(), 1, "missing R tile ({i},{l})");
        p.remove(0).into_tile()
    });
    let plan = opts.plan(m / nb, n.div_ceil(nb));
    let panels = (0..plan.panels())
        .map(|j| {
            let ops = plan.panel_ops(j);
            let panel: Vec<Reflectors> = panel_exits(j, &ops)
                .into_iter()
                .flat_map(|exit| out.take_exit(exit, 0))
                .map(|p| p.take::<Reflectors>())
                .collect();
            assert!(
                panel.iter().map(|r| r.op).eq(ops.iter().copied()),
                "stage {j} transforms are not the plan's ops"
            );
            panel
        })
        .collect();
    TileQrFactors {
        m,
        n,
        nb,
        ib: opts.ib,
        r,
        panels,
    }
}
