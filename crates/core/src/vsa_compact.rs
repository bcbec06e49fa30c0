//! The **compact** hierarchical QR array — the paper's literal Figure 8
//! geometry (Section V-C), with one *multi-fire* VDP per circle:
//!
//! - a red VDP per (stage, domain) performs the whole flat-tree reduction
//!   of its domain (`geqrt` then a chain of `tsqrt`s against a locally
//!   held `R`);
//! - an orange VDP per (stage, domain, trailing column) applies the
//!   corresponding updates, holding the domain-top tile `C1` locally and
//!   streaming the updated tiles down to the next stage;
//! - blue VDPs perform the binary reduction of the domain tops
//!   (`ttqrt`/`ttmqr`, single-fire);
//! - after each binary merge, the *second* tile is passed right to the
//!   next stage's flat VDP, where it is that domain's **last** tile. The
//!   channel carrying it — the paper's dashed channel — is created
//!   **disabled**; the flat VDP enables it (and retires its exhausted
//!   stream channel) only once it has processed every other tile, so the
//!   flat and binary reductions of consecutive panels overlap.
//!
//! Functionally equivalent to [`crate::vsa3d`] (same schedule, same
//! numbers); structurally it exercises the runtime features the unrolled
//! array does not need: firing counters > 1, persistent local stores, and
//! mid-run channel enable/disable.
//!
//! Supports the paper's configuration: [`Tree::Flat`] or
//! [`Tree::BinaryOnFlat`] with [`Boundary::Shifted`].

use crate::factors::Reflectors;
use crate::ops::{apply_op, collect_factors, factor_op};
use crate::plan::{Boundary, PanelOp, Tree};
use crate::store::stream_operands;
use crate::vsa3d::{emit_transform, pop_transform, VsaQrResult};
use crate::QrOptions;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{Matrix, TileMatrix, Workspace};
use pulsar_runtime::{ChannelSpec, Packet, RunConfig, Tuple, VdpContext, VdpLogic, VdpSpec, Vsa};

fn flat_tuple(j: usize, d: usize, l: usize) -> Tuple {
    Tuple::new4(0, j as i32, d as i32, l as i32)
}

fn binary_tuple(j: usize, lvl: usize, pair: usize, l: usize) -> Tuple {
    assert!(pair < 10_000);
    Tuple::new4(1, j as i32, (lvl * 10_000 + pair) as i32, l as i32)
}

fn exit_r(j: usize, l: usize) -> Tuple {
    Tuple::new3(-1, j as i32, l as i32)
}

fn exit_refl_flat(j: usize, d: usize) -> Tuple {
    Tuple::new3(-2, j as i32, d as i32)
}

fn exit_refl_binary(j: usize, lvl: usize, pair: usize) -> Tuple {
    Tuple::new3(-3, j as i32, (lvl * 10_000 + pair) as i32)
}

/// Red (factor) or orange (update) VDP of one (stage, domain) at column `l`.
///
/// Inputs: 0 = tile stream, 1 = the dashed last-tile channel (optional),
/// 2 = transformations (updates only). Outputs: 0 = C2 stream to the next
/// stage, 1 = transformation chain, 2 = transformation record (factor
/// only), 3 = final local tile (R exit or binary-tree input).
struct FlatDomainVdp {
    j: usize,
    l: usize,
    head_row: usize,
    has_dashed: bool,
    ib: usize,
    c1: Option<Matrix>, // persistent local store: R (factor) or C1 (update)
}

impl VdpLogic for FlatDomainVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let ib = self.ib;
        let k = ctx.firing() as usize;
        let last = ctx.remaining() == 0;
        let slot = if last && self.has_dashed { 1 } else { 0 };
        let op = PanelOp::flat_step(self.head_row, k);
        let (c1, mut tile) = stream_operands(&mut self.c1, ctx.pop(slot).into_tile(), k == 0);

        let scratch = ctx.scratch();
        if self.l == self.j {
            let refl = ctx.kernel(op.factor_kernel(), || {
                scratch.with(|ws: &mut Workspace| factor_op(op, c1, tile, ib, ws))
            });
            emit_transform(ctx, refl);
        } else {
            let trans = pop_transform(ctx, 1);
            let refl = trans.get::<Reflectors>().expect("transformation packet");
            ctx.kernel(op.update_kernel(), || {
                scratch.with(|ws: &mut Workspace| {
                    let c2 = tile.as_mut();
                    apply_op(op, &refl.v, &refl.t, ApplyTrans::Trans, c1, c2, ib, ws)
                })
            });
            ctx.set_label(|c| format!("{}{:?}", op.update_kernel(), c.tuple()));
            if let Some(tile) = tile.filter(|_| ctx.output_connected(0)) {
                ctx.push(0, Packet::tile(tile)); // stream the row down
            }
        }

        // The Section V-C channel switch: the stream is exhausted after the
        // next-to-last firing; activate the dashed channel and retire the
        // stream so readiness is gated by the binary reduction's delivery.
        if self.has_dashed && ctx.remaining() == 1 {
            ctx.disable_input(0);
            ctx.enable_input(1);
        }
        if last {
            // The locally held tile is final: R(j, l) or a domain top.
            ctx.push(3, Packet::tile(self.c1.take().expect("local tile")));
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

/// Blue (binary) VDP: one `ttqrt`/`ttmqr` merge of two domain tops.
///
/// Inputs: 0 = surviving top, 1 = merged-away top, 2 = transformation
/// (updates only). Outputs: 0 = surviving tile onward, 1 = transformation
/// chain, 2 = transformation record (factor) / second tile to the next
/// stage's flat VDP (update).
struct BinaryVdp {
    j: usize,
    l: usize,
    top: usize,
    bot: usize,
    ib: usize,
}

impl VdpLogic for BinaryVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let ib = self.ib;
        let op = PanelOp::Ttqrt {
            top: self.top,
            bot: self.bot,
        };
        let mut a1 = ctx.pop(0).into_tile();
        let mut a2 = ctx.pop(1).into_tile();
        let scratch = ctx.scratch();
        if self.l == self.j {
            let refl = ctx.kernel(op.factor_kernel(), || {
                scratch.with(|ws: &mut Workspace| factor_op(op, &mut a1, Some(a2), ib, ws))
            });
            emit_transform(ctx, refl);
        } else {
            let trans = pop_transform(ctx, 1);
            let refl = trans.get::<Reflectors>().expect("transformation packet");
            ctx.kernel(op.update_kernel(), || {
                scratch.with(|ws: &mut Workspace| {
                    let c2 = Some(&mut a2);
                    apply_op(op, &refl.v, &refl.t, ApplyTrans::Trans, &mut a1, c2, ib, ws)
                })
            });
            ctx.set_label(|c| format!("{}{:?}", op.update_kernel(), c.tuple()));
            // The paper: "after each binary-reduction of two top tiles, the
            // second tile is passed right to the flat-tree" of the next
            // stage (it is that domain's last tile).
            if ctx.output_connected(2) {
                ctx.push(2, Packet::tile(a2));
            }
        }
        ctx.push(0, Packet::tile(a1));
    }
}

/// Factor `a` with the compact (Figure 8) hierarchical array.
///
/// Requires `m % nb == 0`, shifted boundaries, and a flat or
/// binary-on-flat tree.
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
        "the compact array implements the paper's shifted boundaries"
    );
    let h = match &opts.tree {
        Tree::Flat => usize::MAX,
        Tree::BinaryOnFlat { h } => *h,
        other => panic!("compact array supports Flat/BinaryOnFlat, not {other:?}"),
    };

    let mut tiles = TileMatrix::from_matrix(a, opts.nb);
    let (mt, nt, nb, ib) = (tiles.mt(), tiles.nt(), opts.nb, opts.ib);
    let kt = mt.min(nt);
    let tile_bytes = 8 * nb * nb;
    let trans_bytes = 8 * nb * nb + 8 * ib * nb;
    let heads_of = |j: usize| -> Vec<usize> { (j..mt).step_by(h.min(mt.max(1))).collect() };
    let size_of =
        |heads: &[usize], d: usize| -> usize { heads.get(d + 1).copied().unwrap_or(mt) - heads[d] };
    // Transformation outputs of a VDP: out 1 down the chain to the same VDP
    // one column right (its in 2), and, on a factor VDP, out 2 to a record.
    let wire_transforms =
        |vsa: &mut Vsa, src: &Tuple, right: Option<Tuple>, record: Option<Tuple>| {
            for (out, dst, slot) in [(1, right, 2), (2, record, 0)] {
                if let Some(dst) = dst {
                    vsa.add_channel(ChannelSpec::new(trans_bytes, src.clone(), out, dst, slot));
                }
            }
        };

    let mut vsa = Vsa::new();

    // --- Create all flat-domain VDPs with their counters. -----------------
    for j in 0..kt {
        let heads = heads_of(j);
        for (d, &head) in heads.iter().enumerate() {
            let size = size_of(&heads, d);
            // A stage-j>0 domain receives `prev_size - 1` tiles from the
            // previous stage's stream; the remainder (0 or 1) arrives on
            // the dashed channel from the binary tree.
            let has_dashed = j > 0 && {
                let stream_in = size_of(&heads_of(j - 1), d) - 1;
                debug_assert!(size == stream_in || size == stream_in + 1);
                size == stream_in + 1
            };
            for l in j..nt {
                let src = flat_tuple(j, d, l);
                let logic = FlatDomainVdp {
                    j,
                    l,
                    head_row: head,
                    has_dashed,
                    ib,
                    c1: None,
                };
                vsa.add_vdp(VdpSpec::new(src.clone(), size as u32, 3, 4, logic));
                wire_transforms(
                    &mut vsa,
                    &src,
                    (l + 1 < nt).then(|| flat_tuple(j, d, l + 1)),
                    (l == j).then(|| exit_refl_flat(j, d)),
                );
                // Stream to the next stage's same-domain flat VDP.
                if size > 1 && l > j && j + 1 < kt {
                    let next = flat_tuple(j + 1, d, l);
                    vsa.add_channel(ChannelSpec::new(tile_bytes, src, 0, next, 0));
                }
            }
        }
    }

    // --- Binary reductions and final-tile routing, stage by stage. --------
    for j in 0..kt {
        let heads = heads_of(j);
        let next_domains = if j + 1 < kt { heads_of(j + 1).len() } else { 0 };
        for l in j..nt {
            // Producers of each domain-top tile: (tuple, out_slot, top_row,
            // head index in `heads`).
            let mut producers: Vec<(Tuple, usize, usize, usize)> = heads
                .iter()
                .enumerate()
                .map(|(d, &row)| (flat_tuple(j, d, l), 3, row, d))
                .collect();
            let mut lvl = 0usize;
            while producers.len() > 1 {
                let mut next = Vec::with_capacity(producers.len().div_ceil(2));
                for (pair, chunk) in producers.chunks(2).enumerate() {
                    let [aa, bb] = chunk else {
                        next.push(chunk[0].clone());
                        continue;
                    };
                    let bt = binary_tuple(j, lvl, pair, l);
                    let logic = BinaryVdp {
                        j,
                        l,
                        top: aa.2,
                        bot: bb.2,
                        ib,
                    };
                    vsa.add_vdp(VdpSpec::new(bt.clone(), 1, 3, 3, logic));
                    for (slot, from) in [aa, bb].into_iter().enumerate() {
                        let src = from.0.clone();
                        vsa.add_channel(ChannelSpec::new(
                            tile_bytes,
                            src,
                            from.1,
                            bt.clone(),
                            slot,
                        ));
                    }
                    wire_transforms(
                        &mut vsa,
                        &bt,
                        (l + 1 < nt).then(|| binary_tuple(j, lvl, pair, l + 1)),
                        (l == j).then(|| exit_refl_binary(j, lvl, pair)),
                    );
                    // The dashed channel: the merged-away top is the last
                    // tile of next stage's domain (d_b - 1).
                    let d_next = bb.3 - 1;
                    if l > j && d_next < next_domains {
                        let dashed = flat_tuple(j + 1, d_next, l);
                        let mut ch = ChannelSpec::new(tile_bytes, bt.clone(), 2, dashed, 1);
                        // Disabled until the flat VDP has drained its
                        // stream (Section V-C); enabled at creation when
                        // there is no stream to wait for.
                        if size_of(&heads, d_next) > 1 {
                            ch = ch.disabled();
                        }
                        vsa.add_channel(ch);
                    }
                    next.push((bt, 0, aa.2, aa.3));
                }
                producers = next;
                lvl += 1;
            }
            // The surviving tile is the finished R(j, l).
            let (tuple, slot, row, _) = producers.pop().unwrap();
            debug_assert_eq!(row, j);
            vsa.add_channel(ChannelSpec::new(tile_bytes, tuple, slot, exit_r(j, l), 0));
        }
    }

    // --- Seeds: stage-0 streams carry whole domains in row order. ---------
    let heads = heads_of(0);
    for (d, &head) in heads.iter().enumerate() {
        for l in 0..nt {
            for i in head..head + size_of(&heads, d) {
                let t = tiles.take_tile(i, l);
                vsa.seed(flat_tuple(0, d, l), 0, Packet::tile(t));
            }
        }
    }

    // --- Run and collect. --------------------------------------------------
    let build = t0.elapsed();
    let mut out = vsa
        .run(config)
        .unwrap_or_else(|e| panic!("tile_qr_vsa_compact: {e}"));
    // The transformation tree in plan order: each domain's flat record,
    // then the binary records level by level (an odd top out passes up
    // unpaired, so level `lvl` of `width` tops has `width / 2` merges).
    let panel_exits = |j: usize, _: &[PanelOp]| {
        let mut width = heads_of(j).len();
        let mut exits: Vec<Tuple> = (0..width).map(|d| exit_refl_flat(j, d)).collect();
        let mut lvl = 0usize;
        while width > 1 {
            exits.extend((0..width / 2).map(|pair| exit_refl_binary(j, lvl, pair)));
            width = width.div_ceil(2);
            lvl += 1;
        }
        exits
    };
    VsaQrResult {
        factors: collect_factors(&mut out, a, opts, exit_r, panel_exits),
        stats: out.stats,
        trace: out.trace,
        build,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn compact_flat_is_domino_like() {
        check(20, 8, 4, 2, Tree::Flat, 3);
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
