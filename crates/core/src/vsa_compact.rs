//! The **compact** QR array — the paper's literal Figure 8 geometry
//! (Section V-C), wired from the same [`QrPlan`](crate::plan::QrPlan) as
//! the unrolled array:
//!
//! - each domain's flat reduction at each column is *one multi-fire* VDP,
//!   named after the domain's `Geqrt` op: it fires once per row of the
//!   domain (`geqrt`/`unmqr`, then a chain of `tsqrt`s/`tsmqr`s) against a
//!   locally held tile — `R` under construction, or the update's `C1` —
//!   and streams each updated row down to the next panel's flat VDP;
//! - every merge (`Ttqrt`) of the domain tops is the unrolled array's
//!   single-fire [`QrVdp`];
//! - after a merge, the merged-away tile is passed right to the next
//!   panel, where it is the **last** row of a domain. The channel carrying
//!   it — the paper's dashed channel — is created **disabled**; the flat
//!   VDP enables it (and retires its exhausted stream) only once it has
//!   processed every other row, so the flat and tree reductions of
//!   consecutive panels overlap.
//!
//! Under [`Tree::Flat`](crate::plan::Tree::Flat) there are no merges: one
//! flat VDP per (panel, column), which is the IPDPS'13 domino QR of the
//! paper's Figure 9.
//!
//! VDPs and exits carry the unrolled array's `(j, q, l)` names, so
//! [`crate::mapping::qr_mapping`] places them (a flat chain on its head's
//! thread, a merge with its first child) and the one collector drains
//! them. Same schedule, same op core: the factors are bit-identical to
//! [`crate::tile_qr_seq`]'s. Structurally the array exercises what the
//! unrolled one does not need: firing counters > 1, persistent local
//! stores, and mid-run channel enable/disable.
//!
//! Runs every tree under [`Boundary::Shifted`], the one rule the dashed
//! channel needs: panel `j + 1`'s domains are panel `j`'s shifted down one
//! row, so a merged-away top is always the last row of a next-panel domain.

use crate::factors::Reflectors;
use crate::ops::{apply_op, factor_op};
use crate::plan::{Boundary, PanelOp};
use crate::store::stream_operands;
use crate::vsa3d::{emit_transform, pop_transform, Ns, QrVdp, VsaQrResult};
use crate::QrOptions;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{Matrix, TileMatrix, Workspace};
use pulsar_runtime::{ChannelSpec, Packet, RunConfig, Tuple, VdpContext, VdpLogic, VdpSpec, Vsa};

/// One domain's flat reduction at one column (factor when `l == j`).
///
/// Slots as [`QrVdp`]'s: in 0 = the row stream, 1 = the dashed last row,
/// 2 = transformation (updates); out 0 = the head's finished tile (last
/// firing), 1 = transformation chain (factor) / each eliminated row's
/// updated tile, down to the next panel (update), 2 = transformation
/// record (factor) / chain (update).
struct FlatDomainVdp {
    head: usize,
    factor: bool,
    dashed: bool,
    ib: usize,
    held: Option<Matrix>, // persistent local store: R (factor) or C1 (update)
}

impl VdpLogic for FlatDomainVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let ib = self.ib;
        let k = ctx.firing() as usize;
        let last = ctx.remaining() == 0;
        let slot = usize::from(last && self.dashed);
        let op = PanelOp::flat_step(self.head, k);
        let (c1, mut tile) = stream_operands(&mut self.held, ctx.pop(slot).into_tile(), k == 0);

        let scratch = ctx.scratch();
        if self.factor {
            let refl = ctx.kernel(op.factor_kernel(), || {
                scratch.with(|ws: &mut Workspace| factor_op(op, c1, tile, ib, ws))
            });
            emit_transform(ctx, refl);
        } else {
            let trans = pop_transform(ctx);
            let refl = trans.get::<Reflectors>().expect("transformation packet");
            ctx.kernel(op.update_kernel(), || {
                scratch.with(|ws: &mut Workspace| {
                    apply_op(refl, ApplyTrans::Trans, c1, tile.as_mut(), ib, ws)
                })
            });
            ctx.set_label(|c| format!("{}{:?}", op.update_kernel(), c.tuple()));
            if let Some(tile) = tile {
                ctx.push(1, Packet::tile(tile)); // stream the row down
            }
        }

        // The Section V-C channel switch: the stream is exhausted after the
        // next-to-last firing; activate the dashed channel and retire the
        // stream so readiness is gated by the tree reduction's delivery.
        if self.dashed && ctx.remaining() == 1 {
            ctx.disable_input(0);
            ctx.enable_input(1);
        }
        if last {
            // The locally held tile is final: R(j, l) or a domain top.
            ctx.push(0, Packet::tile(self.held.take().expect("local tile")));
        }
    }

    fn snapshot(&self, out: &mut Vec<u8>) {
        crate::store::snapshot_tile(&self.held, out);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), pulsar_runtime::WireError> {
        self.held = crate::store::restore_tile(bytes)?;
        Ok(())
    }
}

/// Factor `a` with the compact (Figure 8) array.
///
/// Requires `m % nb == 0` and shifted boundaries; runs any tree.
pub fn tile_qr_compact(a: &Matrix, opts: &QrOptions, config: &RunConfig) -> VsaQrResult {
    let t0 = std::time::Instant::now();
    assert_eq!(
        a.nrows() % opts.nb,
        0,
        "tree QR requires exact row tiling (m % nb == 0)"
    );
    assert_eq!(
        opts.boundary,
        Boundary::Shifted,
        "the compact array needs shifted boundaries: its dashed channel \
         delivers each merged-away domain top as the last row of a \
         next-panel domain"
    );
    let mut tiles = TileMatrix::from_matrix(a, opts.nb);
    let (mt, nt, ib) = (tiles.mt(), tiles.nt(), opts.ib);
    let plan = opts.plan(mt, nt);
    let ns = Ns::default();
    let heads: Vec<Vec<usize>> = (0..plan.panels()).map(|j| plan.domain_heads(j)).collect();
    // Panel `j`'s domain holding row `i` as `(flat VDP at column l, head,
    // end)`. The VDP is op `head - j`, the domain's `Geqrt`: the plan lists
    // every domain's flat steps first, in row order.
    let domain = |j: usize, i: usize, l: usize| {
        let d = heads[j].partition_point(|&h| h <= i) - 1;
        let (head, end) = (heads[j][d], heads[j].get(d + 1).copied().unwrap_or(mt));
        (ns.vdp(j, head - j, l), head, end)
    };
    let stages: Vec<Vec<PanelOp>> = (0..plan.panels()).map(|j| plan.panel_ops(j)).collect();

    let mut vsa = Vsa::new();
    for (j, ops) in stages.iter().enumerate() {
        for (q, &op) in ops.iter().enumerate() {
            for l in j..nt {
                let (factor, tuple) = (l == j, ns.vdp(j, q, l));
                vsa.add_vdp(match op {
                    PanelOp::Geqrt { row: head } => {
                        let (_, _, end) = domain(j, head, l);
                        // The last row arrives on the dashed channel when it
                        // was a domain top of the previous panel.
                        let dashed = j > 0 && heads[j - 1].binary_search(&(end - 1)).is_ok();
                        let logic = FlatDomainVdp {
                            head,
                            factor,
                            dashed,
                            ib,
                            held: None,
                        };
                        VdpSpec::new(tuple, (end - head) as u32, 3, 3, logic)
                    }
                    PanelOp::Ttqrt { .. } => QrVdp::spec(tuple, op, ib, factor),
                    PanelOp::Tsqrt { .. } => continue, // a firing of its domain's VDP
                });
            }
        }
    }

    // Channels, panel by panel. Walking the ops in plan order, `holder`
    // names the VDP holding each domain top's tile on its out 0: first the
    // domain's flat VDP, then each merge the top survives.
    let tile_bytes = 8 * opts.nb * opts.nb;
    let trans_bytes = tile_bytes + 8 * ib * opts.nb;
    let tile =
        |src: Tuple, out, dst: Tuple, slot| ChannelSpec::new(tile_bytes, src, out, dst, slot);
    let mut holder = vec![0usize; mt];
    for (j, ops) in stages.iter().enumerate() {
        for (q, &op) in ops.iter().enumerate() {
            if let PanelOp::Tsqrt { .. } = op {
                continue;
            }
            let (top, bot) = op.rows();
            for l in j..nt {
                let src = ns.vdp(j, q, l);
                match bot {
                    Some(bot) => {
                        let held = |row: usize| ns.vdp(j, holder[row], l);
                        vsa.add_channel(tile(held(top), 0, src.clone(), 0));
                        vsa.add_channel(tile(held(bot), 0, src.clone(), 1));
                        if l > j {
                            // The dashed channel, disabled until the flat VDP
                            // has drained its stream (Section V-C); enabled
                            // at creation when there is no stream to wait for.
                            let (dst, head, end) = domain(j + 1, bot, l);
                            debug_assert_eq!(end, bot + 1, "the dashed row ends its domain");
                            let dashed = tile(src.clone(), 1, dst, 1);
                            vsa.add_channel(if head < bot {
                                dashed.disabled()
                            } else {
                                dashed
                            });
                        }
                    }
                    // Updated rows stream down to the next panel, whose
                    // domain starts one row lower.
                    None if l > j && domain(j, top, l).2 > top + 1 => {
                        vsa.add_channel(tile(src.clone(), 1, domain(j + 1, top + 1, l).0, 0));
                    }
                    None => {}
                }
                for (out, dst, slot) in ns.transform_hops(j, q, l, nt) {
                    vsa.add_channel(ChannelSpec::new(trans_bytes, src.clone(), out, dst, slot));
                }
            }
            holder[top] = q;
        }
        // The survivor of the panel is the finished R(j, l).
        for l in j..nt {
            vsa.add_channel(tile(ns.vdp(j, holder[j], l), 0, ns.exit_r(j, l), 0));
        }
    }

    // Seeds: panel 0's streams carry whole domains in row order.
    for &head in &heads[0] {
        for l in 0..nt {
            let (dst, _, end) = domain(0, head, l);
            for i in head..end {
                vsa.seed(dst.clone(), 0, Packet::tile(tiles.take_tile(i, l)));
            }
        }
    }

    let build = t0.elapsed();
    let mut out = vsa
        .run(config)
        .unwrap_or_else(|e| panic!("tile_qr_compact: {e}"));
    // A flat VDP records all its firings on its `Geqrt`'s exit, in firing
    // order, so draining the exits in plan order yields the plan's ops.
    VsaQrResult {
        factors: ns.collect(&mut out, a, opts),
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
    use pulsar_linalg::verify::r_factor_distance;

    fn check(m: usize, n: usize, nb: usize, ib: usize, tree: Tree, threads: usize) {
        let mut rng = rand::rng();
        let a = Matrix::random(m, n, &mut rng);
        let opts = QrOptions::new(nb, ib, tree);
        let res = tile_qr_compact(&a, &opts, &RunConfig::smp(threads));
        let resid = res.factors.residual(&a);
        assert!(resid < 1e-13, "compact residual {resid} ({m}x{n})");
        let seq = tile_qr_seq(&a, &opts);
        let d = r_factor_distance(&res.factors.r, &seq.r);
        assert!(d < 1e-12, "compact vs sequential R differ by {d}");
    }

    #[test]
    fn compact_hierarchical() {
        check(24, 8, 4, 2, Tree::BinaryOnFlat { h: 3 }, 4);
    }

    #[test]
    fn compact_many_domains() {
        check(40, 8, 4, 2, Tree::BinaryOnFlat { h: 2 }, 4);
    }

    #[test]
    fn compact_partial_last_domain() {
        // 7 block rows with h=3: domains of 3, 3, 1.
        check(28, 8, 4, 2, Tree::BinaryOnFlat { h: 3 }, 3);
    }

    #[test]
    fn compact_flat_is_the_domino_array() {
        check(20, 8, 4, 2, Tree::Flat, 3);
        check(16, 6, 4, 2, Tree::Flat, 2); // ragged columns
        check(4, 4, 4, 2, Tree::Flat, 1); // one tile
                                          // Figure 9's multi-fire count, mt = 5, nt = 2: factor (0, 0) fires
                                          // 5x, update (0, 1) 5x, factor (1, 1) 4x — one VDP each.
        let mut rng = rand::rng();
        let a = Matrix::random(20, 8, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::Flat);
        let res = tile_qr_compact(&a, &opts, &RunConfig::smp(2));
        assert_eq!(res.stats.fired, 5 + 5 + 4);
    }

    #[test]
    fn compact_single_column() {
        check(24, 4, 4, 2, Tree::BinaryOnFlat { h: 2 }, 2);
    }

    #[test]
    fn compact_square() {
        check(12, 12, 4, 2, Tree::BinaryOnFlat { h: 2 }, 3);
    }

    #[test]
    fn compact_h_one_pure_binary() {
        check(16, 8, 4, 2, Tree::BinaryOnFlat { h: 1 }, 4);
    }

    #[test]
    fn compact_runs_every_tree() {
        for tree in [
            Tree::Binary,
            Tree::Greedy,
            Tree::custom([3, 2]),
            Tree::custom([1, 4]),
        ] {
            check(36, 12, 4, 2, tree.clone(), 3);
            check(8, 14, 4, 2, tree, 2); // wide: mt < nt
        }
    }

    #[test]
    fn compact_fires_fewer_vdps_than_unrolled() {
        // Same work, far fewer VDPs than the unrolled array (the compact
        // array reuses VDPs across firings).
        let mut rng = rand::rng();
        let a = Matrix::random(32, 12, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 3 });
        let compact = tile_qr_compact(&a, &opts, &RunConfig::smp(2));
        let unrolled = crate::vsa3d::tile_qr_vsa(&a, &opts, &RunConfig::smp(2));
        assert_eq!(
            compact.stats.fired, unrolled.stats.fired,
            "same kernel count"
        );
        let d = r_factor_distance(&compact.factors.r, &unrolled.factors.r);
        assert!(d < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shifted")]
    fn compact_rejects_fixed_boundaries() {
        let a = Matrix::zeros(8, 4);
        let opts = QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 2 }).with_fixed_boundary();
        let _ = tile_qr_compact(&a, &opts, &RunConfig::smp(1));
    }
}
