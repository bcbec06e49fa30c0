//! Distributed application of `Q`/`Q^T` as a Virtual Systolic Array.
//!
//! [`TileQrFactors::apply_qt`](crate::factors::TileQrFactors::apply_qt)
//! replays the transformation tree sequentially; this module builds a VSA
//! that streams the right-hand-side row tiles through the same tree on the
//! runtime — the shape a distributed least-squares solve needs. Each
//! recorded transformation becomes one VDP; a row tile flows through the
//! chain of ops touching its block row, in schedule order for `Q^T`
//! (factorization direction) and in reverse for `Q`.

use crate::factors::{Reflectors, TileQrFactors};
use crate::ops::apply_op;
use crate::plan::{row_hops, PanelOp};
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{Matrix, Workspace};
use pulsar_runtime::{ChannelSpec, Packet, RunConfig, Tuple, VdpContext, VdpSpec, Vsa};
use std::sync::Arc;

fn vdp_tuple(k: usize) -> Tuple {
    Tuple::new2(0, k as i32)
}

fn exit_tuple(row: usize) -> Tuple {
    Tuple::new2(-1, row as i32)
}

/// One VDP of the apply array: applies a fixed recorded transformation to
/// the arriving row tile(s).
struct ApplyVdp {
    refl: Arc<Reflectors>,
    trans: ApplyTrans,
    ib: usize,
}

impl pulsar_runtime::VdpLogic for ApplyVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let (r, trans, ib) = (&self.refl, self.trans, self.ib);
        let scratch = ctx.scratch();
        let mut c1 = ctx.pop(0).into_tile();
        let mut c2 = r.op.rows().1.map(|_| ctx.pop(1).into_tile());
        ctx.kernel(r.op.update_kernel(), || {
            scratch.with(|ws: &mut Workspace| apply_op(r, trans, &mut c1, c2.as_mut(), ib, ws))
        });
        ctx.push(0, Packet::tile(c1));
        if let Some(c2) = c2 {
            ctx.push(1, Packet::tile(c2));
        }
    }

    // The recorded transformation is immutable configuration rebuilt from
    // the factors on resume; no mutable local store to snapshot.
    fn snapshot(&self, out: &mut Vec<u8>) {
        crate::store::snapshot_tile(&None, out);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), pulsar_runtime::WireError> {
        crate::store::restore_tile(bytes)?;
        Ok(())
    }
}

/// Apply `op(Q)` to the `m x k` matrix `b` by streaming its row tiles
/// through a VSA of the factorization's transformations.
pub fn apply_q_vsa(
    factors: &TileQrFactors,
    b: &Matrix,
    trans: ApplyTrans,
    config: &RunConfig,
) -> Matrix {
    assert_eq!(b.nrows(), factors.m, "operand row count must match A");
    assert_eq!(factors.m % factors.nb, 0, "row tiling must be exact");
    let nb = factors.nb;
    let mt = factors.m / nb;

    // Flatten the transformation tree into application order: schedule
    // order for `Q^T`, its exact reverse for `Q`.
    let mut seq: Vec<Arc<Reflectors>> = factors
        .panels
        .iter()
        .flatten()
        .cloned()
        .map(Arc::new)
        .collect();
    if matches!(trans, ApplyTrans::NoTrans) {
        seq.reverse();
    }

    let ops: Vec<PanelOp> = seq.iter().map(|r| r.op).collect();
    let (next, first) = row_hops(&ops, mt);

    let tile_bytes = 8 * nb * b.ncols().max(1);
    let mut vsa = Vsa::new();
    for (k, refl) in seq.iter().enumerate() {
        vsa.add_vdp(VdpSpec::new(
            vdp_tuple(k),
            1,
            2,
            2,
            ApplyVdp {
                refl: refl.clone(),
                trans,
                ib: factors.ib,
            },
        ));
        // Wire each touched row's outgoing hop.
        let (prim, sec) = refl.op.rows();
        for (slot, row) in std::iter::once(prim).chain(sec).enumerate() {
            let (dst, dst_slot) = match next[k][slot] {
                Some((k2, s)) => (vdp_tuple(k2), s),
                None => (exit_tuple(row), 0),
            };
            vsa.add_channel(ChannelSpec::new(
                tile_bytes,
                vdp_tuple(k),
                slot,
                dst,
                dst_slot,
            ));
        }
    }

    // Seed each row tile at its first op (rows untouched by any op pass
    // through unchanged).
    let mut passthrough: Vec<Option<Matrix>> = vec![None; mt];
    for (i, pass) in passthrough.iter_mut().enumerate() {
        let tile = b.submatrix(i * nb, 0, nb, b.ncols());
        match first[i] {
            Some((k0, slot)) => vsa.seed(vdp_tuple(k0), slot, Packet::tile(tile)),
            None => *pass = Some(tile),
        }
    }

    let mut out = vsa
        .run(config)
        .unwrap_or_else(|e| panic!("apply_q_vsa: {e}"));
    let mut result = Matrix::zeros(factors.m, b.ncols());
    for (i, pt) in passthrough.into_iter().enumerate() {
        let tile = match pt {
            Some(t) => t,
            None => {
                let mut p = out.take_exit(exit_tuple(i), 0);
                assert_eq!(p.len(), 1, "missing result tile for row {i}");
                p.remove(0).into_tile()
            }
        };
        result.set_submatrix(i * nb, 0, &tile);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Tree;
    use crate::vsa3d::tile_qr_vsa;
    use crate::QrOptions;

    fn fixture(tree: Tree) -> (Matrix, TileQrFactors) {
        let mut rng = rand::rng();
        let a = Matrix::random(32, 12, &mut rng);
        let opts = QrOptions::new(4, 2, tree);
        let f = tile_qr_vsa(&a, &opts, &RunConfig::smp(2)).factors;
        (a, f)
    }

    #[test]
    fn vsa_apply_matches_sequential() {
        let mut rng = rand::rng();
        for tree in [Tree::Flat, Tree::Binary, Tree::BinaryOnFlat { h: 3 }] {
            let (_, f) = fixture(tree.clone());
            let b = Matrix::random(32, 3, &mut rng);
            for trans in [ApplyTrans::Trans, ApplyTrans::NoTrans] {
                let via_vsa = apply_q_vsa(&f, &b, trans, &RunConfig::smp(3));
                let seq = match trans {
                    ApplyTrans::Trans => f.apply_qt(&b),
                    ApplyTrans::NoTrans => f.apply_q(&b),
                };
                assert!(
                    via_vsa.sub(&seq).norm_fro() < 1e-12,
                    "{tree:?} {trans:?} mismatch"
                );
            }
        }
    }

    #[test]
    fn vsa_apply_roundtrip() {
        let (_, f) = fixture(Tree::BinaryOnFlat { h: 2 });
        let mut rng = rand::rng();
        let b = Matrix::random(32, 2, &mut rng);
        let qt = apply_q_vsa(&f, &b, ApplyTrans::Trans, &RunConfig::smp(2));
        let back = apply_q_vsa(&f, &qt, ApplyTrans::NoTrans, &RunConfig::smp(2));
        assert!(back.sub(&b).norm_fro() < 1e-12);
    }

    #[test]
    fn vsa_apply_reduces_a_to_r() {
        // Q^T A must be [R; 0].
        let (a, f) = fixture(Tree::BinaryOnFlat { h: 3 });
        let qta = apply_q_vsa(&f, &a, ApplyTrans::Trans, &RunConfig::smp(2));
        for j in 0..12 {
            for i in 0..32 {
                let want = if i <= j.min(11) && i < 12 {
                    f.r[(i, j)]
                } else {
                    0.0
                };
                assert!(
                    (qta[(i, j)] - want).abs() < 1e-11,
                    "Q^T A mismatch at ({i},{j})"
                );
            }
        }
    }
}
