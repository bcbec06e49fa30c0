//! The 2D **domino QR** — the previous paper's (IPDPS'13) flat-tree virtual
//! systolic array, transcribed from this paper's Figure 9.
//!
//! Unlike the unrolled 3D array, the domino array uses *multi-fire* VDPs
//! with persistent local stores (`qr_local_t`): VDP `(i, j)` implements
//! stage `i` of the factorization for block column `j`, fires once per row
//! tile streaming through, and keeps the evolving `R` (factor VDPs) or the
//! top tile `C1` (update VDPs) in its local state. Tiles flow downward to
//! stage `i+1`; `V`/`T` transformation packets flow rightward along each
//! stage on separate channels, forwarded before use (bypass), exactly as in
//! Figure 9.

use crate::ops::{apply_op, collect_factors, factor_op};
use crate::plan::{PanelOp, Tree};
use crate::store::stream_operands;
use crate::vsa3d::VsaQrResult;
use crate::QrOptions;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{Matrix, TileMatrix, Workspace};
use pulsar_runtime::{ChannelSpec, Packet, RunConfig, Tuple, VdpContext, VdpLogic, VdpSpec, Vsa};

fn vdp(i: usize, j: usize) -> Tuple {
    Tuple::new2(i as i32, j as i32)
}

fn exit_r(i: usize, j: usize) -> Tuple {
    Tuple::new3(-1, i as i32, j as i32)
}

fn exit_refl(i: usize) -> Tuple {
    Tuple::new2(-2, i as i32)
}

/// Panel-factorization VDP `(i, i)`: `dgeqrt` on the first firing, then a
/// chain of `dtsqrt`s against the locally held `R`.
struct FactorVdp {
    stage: usize,
    ib: usize,
    r: Option<Matrix>, // persistent local store
}

impl VdpLogic for FactorVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let ib = self.ib;
        let scratch = ctx.scratch();
        let k = ctx.firing() as usize;
        let op = PanelOp::flat_step(self.stage, k);
        let (r, tile) = stream_operands(&mut self.r, ctx.pop(0).into_tile(), k == 0);
        let refl = ctx.kernel(op.factor_kernel(), || {
            scratch.with(|ws: &mut Workspace| factor_op(op, r, tile, ib, ws))
        });
        ctx.set_label(|c| format!("{}{:?}", op.factor_kernel(), c.tuple()));
        // Figure 9 wiring: V and T travel on separate channels.
        if ctx.output_connected(1) {
            ctx.push(1, Packet::tile(refl.v.clone()));
            ctx.push(2, Packet::tile(refl.t.clone()));
        }
        ctx.push(3, Packet::wire(refl));
        if ctx.remaining() == 0 {
            // Last firing: the locally held tile is the finished R(i, i).
            ctx.push(0, Packet::tile(self.r.take().unwrap()));
        }
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        crate::store::snapshot_tile(&self.r, out);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), pulsar_runtime::WireError> {
        self.r = crate::store::restore_tile(bytes)?;
        Ok(())
    }
}

/// Trailing-update VDP `(i, j)`, `j > i`: `dormqr` on the first firing
/// (storing the top tile), then a chain of `dtsmqr`s streaming updated
/// tiles down to stage `i+1`.
struct UpdateVdp {
    stage: usize,
    ib: usize,
    c1: Option<Matrix>, // persistent local store
}

impl VdpLogic for UpdateVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let ib = self.ib;
        let k = ctx.firing() as usize;
        let op = PanelOp::flat_step(self.stage, k);
        let (c1, mut tile) = stream_operands(&mut self.c1, ctx.pop(0).into_tile(), k == 0);
        let vp = ctx.pop(1);
        let tp = ctx.pop(2);
        // Bypass: forward V and T to the next column before applying them.
        if ctx.output_connected(1) {
            ctx.push(1, vp.clone());
            ctx.push(2, tp.clone());
        }
        let v = vp.as_tile().expect("V channel carries a tile");
        let t = tp.as_tile().expect("T channel carries a tile");
        let scratch = ctx.scratch();
        ctx.kernel(op.update_kernel(), || {
            scratch.with(|ws: &mut Workspace| {
                apply_op(op, v, t, ApplyTrans::Trans, c1, tile.as_mut(), ib, ws)
            })
        });
        ctx.set_label(|c| format!("{}{:?}", op.update_kernel(), c.tuple()));
        if let Some(tile) = tile {
            ctx.push(0, Packet::tile(tile)); // stream the updated row down
        }
        if ctx.remaining() == 0 {
            // Last firing: the locally held tile is the finished R(i, j).
            ctx.push(3, Packet::tile(self.c1.take().unwrap()));
        }
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        crate::store::snapshot_tile(&self.c1, out);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), pulsar_runtime::WireError> {
        self.c1 = crate::store::restore_tile(bytes)?;
        Ok(())
    }
}

/// Factor `a` with the 2D domino QR (flat tree) on the PULSAR runtime.
///
/// `opts.tree`/`opts.boundary` are ignored — the domino array *is* the flat
/// tree. Requires exact row tiling (`m % nb == 0`).
pub fn tile_qr_domino(a: &Matrix, opts: &QrOptions, config: &RunConfig) -> VsaQrResult {
    let t0 = std::time::Instant::now();
    assert_eq!(
        a.nrows() % opts.nb,
        0,
        "tree QR requires exact row tiling (m % nb == 0)"
    );
    let mut tiles = TileMatrix::from_matrix(a, opts.nb);
    let (mt, nt, nb, ib) = (tiles.mt(), tiles.nt(), opts.nb, opts.ib);
    let kt = mt.min(nt);
    let tile_bytes = 8 * nb * nb;
    let trans_bytes = 8 * nb * nb + 8 * ib * nb;

    let mut vsa = Vsa::new();
    for i in 0..kt {
        let counter = (mt - i) as u32;
        // Factor VDP (i, i): in 0 = tile stream; out 0 = R exit, 1/2 = V/T
        // chain, 3 = transform record.
        vsa.add_vdp(VdpSpec::new(
            vdp(i, i),
            counter,
            1,
            4,
            FactorVdp {
                stage: i,
                ib,
                r: None,
            },
        ));
        vsa.add_channel(ChannelSpec::new(tile_bytes, vdp(i, i), 0, exit_r(i, i), 0));
        if i + 1 < nt {
            vsa.add_channel(ChannelSpec::new(tile_bytes, vdp(i, i), 1, vdp(i, i + 1), 1));
            vsa.add_channel(ChannelSpec::new(
                trans_bytes,
                vdp(i, i),
                2,
                vdp(i, i + 1),
                2,
            ));
        }
        vsa.add_channel(ChannelSpec::new(trans_bytes, vdp(i, i), 3, exit_refl(i), 0));
        // Update VDPs (i, j): in 0 = tile stream, 1 = V, 2 = T; out 0 = tile
        // stream down, 1/2 = V/T chain, 3 = R exit.
        for j in i + 1..nt {
            vsa.add_vdp(VdpSpec::new(
                vdp(i, j),
                counter,
                3,
                4,
                UpdateVdp {
                    stage: i,
                    ib,
                    c1: None,
                },
            ));
            if counter > 1 {
                vsa.add_channel(ChannelSpec::new(tile_bytes, vdp(i, j), 0, vdp(i + 1, j), 0));
            }
            if j + 1 < nt {
                vsa.add_channel(ChannelSpec::new(tile_bytes, vdp(i, j), 1, vdp(i, j + 1), 1));
                vsa.add_channel(ChannelSpec::new(
                    trans_bytes,
                    vdp(i, j),
                    2,
                    vdp(i, j + 1),
                    2,
                ));
            }
            vsa.add_channel(ChannelSpec::new(tile_bytes, vdp(i, j), 3, exit_r(i, j), 0));
        }
    }

    // Seed the whole matrix into stage 0, column by column, in row order.
    for j in 0..nt {
        for i in 0..mt {
            let t = tiles.take_tile(i, j);
            vsa.seed(vdp(0, j), 0, Packet::tile(t));
        }
    }

    let build = t0.elapsed();
    let mut out = vsa
        .run(config)
        .unwrap_or_else(|e| panic!("tile_qr_domino: {e}"));
    let flat = QrOptions::new(nb, ib, Tree::Flat);
    let factors = collect_factors(&mut out, a, &flat, exit_r, |i, _| vec![exit_refl(i)]);
    VsaQrResult {
        factors,
        stats: out.stats,
        trace: out.trace,
        build,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Tree;
    use crate::seqqr::tile_qr_seq;
    use crate::QrOptions;
    use pulsar_linalg::verify::r_factor_distance;

    fn check(m: usize, n: usize, nb: usize, ib: usize, threads: usize) {
        let mut rng = rand::rng();
        let a = Matrix::random(m, n, &mut rng);
        let opts = QrOptions::new(nb, ib, Tree::Flat);
        let res = tile_qr_domino(&a, &opts, &RunConfig::smp(threads));
        let resid = res.factors.residual(&a);
        assert!(resid < 1e-13, "domino residual {resid} ({m}x{n})");
        // Identical schedule to the sequential flat tree => same R.
        let seq = tile_qr_seq(&a, &opts);
        let d = r_factor_distance(&res.factors.r, &seq.r);
        assert!(d < 1e-12, "domino vs sequential R differ by {d}");
    }

    #[test]
    fn domino_tall() {
        check(24, 8, 4, 2, 4);
    }

    #[test]
    fn domino_square() {
        check(12, 12, 4, 2, 3);
    }

    #[test]
    fn domino_single_column() {
        check(16, 4, 4, 2, 2);
    }

    #[test]
    fn domino_ragged_columns() {
        check(16, 6, 4, 2, 2);
    }

    #[test]
    fn domino_single_tile() {
        check(4, 4, 4, 2, 1);
    }

    #[test]
    fn domino_counts_multifire() {
        // mt=5, nt=2: factor(0,0) fires 5x, update(0,1) 5x, factor(1,1) 4x.
        let mut rng = rand::rng();
        let a = Matrix::random(20, 8, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::Flat);
        let res = tile_qr_domino(&a, &opts, &RunConfig::smp(2));
        assert_eq!(res.stats.fired, 5 + 5 + 4);
    }
}
