//! The 3D Virtual Systolic Array for hierarchical QR (Section V-C, Fig. 8).
//!
//! The array's three dimensions map onto the three nested loops of the tile
//! QR algorithm: panel `j`, elimination step `q` of the panel's plan, and
//! block column `l`. At `l == j` a VDP runs panel kernels
//! (`geqrt`/`tsqrt`/`ttqrt`); at `l > j` the matching trailing updates
//! (`unmqr`/`tsmqr`/`ttmqr`). Per panel and column there are two kinds:
//!
//! - one **multi-fire chain** VDP per domain, named after the domain's
//!   `Geqrt` op, firing once per row of the domain (`geqrt`/`unmqr`, then a
//!   `tsqrt`/`tsmqr` per further row) against a tile it holds in its local
//!   store — `R` under construction, or the update's `C1`;
//! - one single-fire [`QrVdp`] per binary merge (`Ttqrt`) of domain tops.
//!
//! Channel geometry:
//! - **Vertical** channels carry the transformation of step `(j, q)` across
//!   columns `l = j+1, j+2, ...`; every update VDP forwards the packet
//!   *before* applying it (the paper's bypass, overlapping the broadcast
//!   with compute).
//! - **Horizontal** channels carry tiles: a domain's held tile through the
//!   merges it survives to the `R` exit; each eliminated row's updated tile
//!   down the *row stream* to the next panel's chain; and a merged-away
//!   domain top down the paper's **dashed** channel to the next panel's
//!   chain. The dashed row is the chain's last row under shifted
//!   boundaries and its head under fixed ones, so the chain reads it on its
//!   last or its first firing. Whichever of the two tile inputs is not
//!   read first is created **disabled**, and the chain switches them
//!   mid-run; that is how the next panel's flat reduction overlaps this
//!   panel's binary reduction (Figure 7).
//! - **Exit** channels deliver finished `R` tiles and the recorded
//!   transformations out of the array.
//!
//! Under [`Tree::Flat`](crate::plan::Tree::Flat) there are no merges: one
//! chain per (panel, column), the IPDPS'13 domino QR of the paper's
//! Figure 9. The factors are bit-identical to [`crate::tile_qr_seq`]'s: same
//! schedule, same op core.

use crate::factors::{Reflectors, TileQrFactors};
use crate::ops::{apply_op, collect_factors, factor_op, r_blocks};
use crate::plan::{Boundary, PanelOp, QrPlan};
use crate::policy::Backend;
use crate::seqqr::walk_plan;
use crate::store::stream_operands;
use crate::QrOptions;
use pulsar_linalg::flops::qr_flops;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{Matrix, TileMatrix, Workspace};
use pulsar_runtime::{
    panic_message, ChannelSpec, Packet, RunConfig, RunError, RunOutput, RunStats, TaskSpan, Trace,
    Tuple, VdpContext, VdpLogic, VdpSpec, Vsa, VsaPool,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Result of a VSA-executed factorization.
pub struct VsaQrResult {
    /// The factorization (same machinery as the sequential oracle).
    pub factors: TileQrFactors,
    /// Runtime statistics.
    pub stats: RunStats,
    /// Execution trace, when the config requested one.
    pub trace: Option<Trace>,
    /// Time spent describing the array (VDPs, channels, seeds) before
    /// handing it to the runtime.
    pub build: Duration,
}

/// Tuple namespace for one job's sub-array — the names of its VDPs and
/// exits. `None` keeps the legacy 3-tuple ids (bit-compatible
/// with single-job arrays); `Some(b)` prefixes every tuple — VDPs and
/// exits alike — with batch job id `b`, so many independent QR arrays
/// coexist disjointly in one VSA launch.
#[derive(Copy, Clone, Default)]
struct Ns {
    job: Option<i32>,
}

impl Ns {
    fn tuple(self, a: i32, b: i32, c: i32) -> Tuple {
        match self.job {
            None => Tuple::new3(a, b, c),
            Some(id) => Tuple::new4(id, a, b, c),
        }
    }

    /// The VDP of op `q` of panel `j` at block column `l`.
    fn vdp(self, j: usize, q: usize, l: usize) -> Tuple {
        self.tuple(j as i32, q as i32, l as i32)
    }

    /// The exit receiving the finished `R` block `(i, l)`.
    fn exit_r(self, i: usize, l: usize) -> Tuple {
        self.tuple(-1, i as i32, l as i32)
    }

    fn exit_trans(self, j: usize, q: usize) -> Tuple {
        self.tuple(-2, j as i32, q as i32)
    }

    /// The transformation channels out of VDP `(j, q, l)`, as `(output,
    /// destination, input)`: down the chain to the same op one column
    /// right (a factor VDP sends on output 1, an update VDP on 2), and from
    /// the factor VDP to op `q`'s record exit.
    fn transform_hops(
        self,
        j: usize,
        q: usize,
        l: usize,
        nt: usize,
    ) -> impl Iterator<Item = (usize, Tuple, usize)> {
        let chain_out = if l == j { 1 } else { 2 };
        let chain = (l + 1 < nt).then(|| (chain_out, self.vdp(j, q, l + 1), 2));
        let record = (l == j).then(|| (2, self.exit_trans(j, q), 0));
        chain.into_iter().chain(record)
    }

    /// Drain this job's exits from a finished run into its factorization:
    /// each op's record exit in plan order. A chain records all its firings
    /// on its `Geqrt`'s exit, in firing order, so its `Tsqrt`s' are empty.
    fn collect(self, out: &mut RunOutput, a: &Matrix, opts: &QrOptions) -> TileQrFactors {
        collect_factors(
            out,
            a,
            opts,
            |i, l| self.exit_r(i, l),
            |j, ops| (0..ops.len()).map(|q| self.exit_trans(j, q)).collect(),
        )
    }
}

/// One domain's flat reduction at one column (factor when `l == j`): the
/// paper's multi-fire VDP, with its persistent local store.
///
/// Slots as [`QrVdp`]'s: in 0 = the row stream, 1 = the dashed row, 2 =
/// transformation (updates); out 0 = the held tile once final (last
/// firing), 1 = transformation chain (factor) / each eliminated row's
/// updated tile, down the row stream (update), 2 = transformation record
/// (factor) / chain (update).
struct FlatDomainVdp {
    head: usize,
    /// The firing that reads the dashed row, if the domain has one.
    dashed: Option<u32>,
    factor: bool,
    ib: usize,
    held: Option<Matrix>, // R (factor) or C1 (update)
}

impl VdpLogic for FlatDomainVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let ib = self.ib;
        let k = ctx.firing();
        let slot = usize::from(self.dashed == Some(k));
        let op = PanelOp::flat_step(self.head, k as usize);
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

        if ctx.remaining() == 0 {
            // The held tile is final: R(j, l) or a domain top.
            ctx.push(0, Packet::tile(self.held.take().expect("local tile")));
            return;
        }
        // The Section V-C channel switch: readiness waits only on the input
        // the next firing reads.
        let next = usize::from(self.dashed == Some(k + 1));
        if next != slot {
            ctx.disable_input(slot);
            ctx.enable_input(next);
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

/// Add `a`'s QR sub-array to `vsa` under tuple namespace `ns` (every rank
/// of an SPMD run builds the identical array; the runtime materializes
/// only the local part). With distinct namespaces this composes: a batch
/// launch builds one sub-array per job into a single [`Vsa`] and runs them
/// all at once.
fn build_qr_array_into(vsa: &mut Vsa, a: &Matrix, opts: &QrOptions, ns: Ns) {
    assert_eq!(
        a.nrows() % opts.nb,
        0,
        "tree QR requires exact row tiling (m % nb == 0)"
    );
    let mut tiles = TileMatrix::from_matrix(a, opts.nb);
    let (mt, nt, nb, ib) = (tiles.mt(), tiles.nt(), opts.nb, opts.ib);
    let plan = opts.plan(mt, nt);
    let stages: Vec<Vec<PanelOp>> = (0..plan.panels()).map(|j| plan.panel_ops(j)).collect();
    let heads: Vec<Vec<usize>> = (0..plan.panels()).map(|j| plan.domain_heads(j)).collect();
    // Panel `j`'s domain holding row `i`, as `(head, end)`. Its chain is op
    // `head - j`, the domain's `Geqrt`: the plan lists every domain's flat
    // steps first, in row order.
    let domain = |j: usize, i: usize| {
        let d = heads[j].partition_point(|&h| h <= i) - 1;
        (heads[j][d], heads[j].get(d + 1).copied().unwrap_or(mt))
    };

    for (j, ops) in stages.iter().enumerate() {
        for (q, &op) in ops.iter().enumerate() {
            for l in j..nt {
                let (factor, tuple) = (l == j, ns.vdp(j, q, l));
                vsa.add_vdp(match op {
                    PanelOp::Geqrt { row: head } => {
                        let end = domain(j, head).1;
                        // A domain top merged away in panel `j - 1` arrives
                        // on the dashed channel.
                        let row = match plan.boundary {
                            Boundary::Shifted => end - 1,
                            Boundary::Fixed => head,
                        };
                        let dashed = (j > 0 && heads[j - 1].binary_search(&row).is_ok())
                            .then_some((row - head) as u32);
                        let logic = FlatDomainVdp {
                            head,
                            dashed,
                            factor,
                            ib,
                            held: None,
                        };
                        VdpSpec::new(tuple, (end - head) as u32, 3, 3, logic)
                    }
                    PanelOp::Ttqrt { .. } => QrVdp::spec(tuple, op, ib, factor),
                    PanelOp::Tsqrt { .. } => continue, // a firing of its domain's chain
                });
            }
        }
    }

    let tile_bytes = 8 * nb * nb;
    let trans_bytes = tile_bytes + 8 * ib * nb;
    let tile =
        |src: Tuple, out, dst: Tuple, slot| ChannelSpec::new(tile_bytes, src, out, dst, slot);
    // A tile channel from out 1 of `src` into slot `slot` of the panel-`j`
    // chain holding `row`, the first row the channel carries: disabled at
    // creation unless the chain's first firing reads it.
    let to_chain = |src: Tuple, j: usize, row: usize, l: usize, slot| {
        let head = domain(j, row).0;
        let spec = tile(src, 1, ns.vdp(j, head - j, l), slot);
        if head < row {
            spec.disabled()
        } else {
            spec
        }
    };
    // Walking the ops in plan order, `holder[row]` names the op whose VDP
    // holds domain top `row`'s tile on its out 0: first the domain's
    // chain, then each merge the top survives.
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
                            vsa.add_channel(to_chain(src.clone(), j + 1, bot, l, 1));
                        }
                    }
                    None if l > j && domain(j, top).1 > top + 1 => {
                        vsa.add_channel(to_chain(src.clone(), j + 1, top + 1, l, 0));
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

    // Panel 0's row streams carry whole domains, in row order.
    for i in 0..mt {
        let head = domain(0, i).0;
        for l in 0..nt {
            vsa.seed(ns.vdp(0, head, l), 0, Packet::tile(tiles.take_tile(i, l)));
        }
    }
}

/// Build the 3D VSA for `a`, run it under `config`, and collect the factors.
///
/// Requires `a.nrows() % nb == 0` (exact row tiling). Any mapping is
/// *correct*; [`crate::mapping::qr_mapping`] gives the paper's locality
/// (cyclic rows, binary parents with their first child).
///
/// Expects every exit to arrive locally — use it with
/// [`pulsar_runtime::Backend::InProcess`]; distributed ranks use
/// [`tile_qr_vsa_partial`].
pub fn tile_qr_vsa(a: &Matrix, opts: &QrOptions, config: &RunConfig) -> VsaQrResult {
    let t0 = Instant::now();
    let mut vsa = Vsa::new();
    build_qr_array_into(&mut vsa, a, opts, Ns::default());
    let build = t0.elapsed();
    let mut out = vsa
        .run(config)
        .unwrap_or_else(|e| panic!("tile_qr_vsa: {e}"));
    VsaQrResult {
        factors: Ns::default().collect(&mut out, a, opts),
        stats: out.stats,
        trace: out.trace,
        build,
    }
}

/// Result of a batched launch: one factorization per job, in submission
/// order, plus the batch's trace.
pub struct BatchQrResult {
    /// Per-job factorizations, indexed like the input slice.
    pub factors: Vec<TileQrFactors>,
    /// Execution trace of the whole batch, when requested.
    pub trace: Option<Trace>,
    /// The executor that ran the batch ([`batch_backend`]).
    pub backend: Backend,
}

/// The executor for `jobs` on `workers` pool threads. A *balanced* batch
/// (its largest job's flops times `workers` at most the total: a job for
/// every worker) walks each job whole on one worker, [`Backend::Seq`]; a
/// lone or lopsided one shares the array.
pub fn batch_backend(jobs: &[(&Matrix, &QrOptions)], workers: usize) -> Backend {
    let flops = jobs.iter().map(|(a, _)| job_flops(a));
    let (max, total) = flops.fold((0.0, 0.0), |(max, total), f| (f64::max(max, f), total + f));
    if max * workers as f64 <= total {
        Backend::Seq
    } else {
        Backend::Vsa3d
    }
}

/// A job's weight in the balance rule (wide jobs count as transposed).
fn job_flops(a: &Matrix) -> f64 {
    qr_flops(a.nrows().max(a.ncols()), a.nrows().min(a.ncols()))
}

/// Factor several matrices on a persistent [`VsaPool`] — the warm path of
/// `pulsar-qr serve`. A balanced batch ([`batch_backend`]) is walked: the
/// workers pull jobs, largest first, and run the plan walker on their warm
/// workspaces, reading only `config.trace` and `config.chaos_panic`.
/// Otherwise each job's sub-array gets a disjoint tuple namespace (its
/// batch index prefixes every tuple) in ONE VSA launch. Either way every
/// job's factors are bit-identical to [`crate::tile_qr_seq`]'s, and a
/// panic in job `b` returns [`RunError::VdpPanicked`] whose tuple leads
/// with `b`.
pub fn tile_qr_vsa_batch_pooled(
    jobs: &[(&Matrix, &QrOptions)],
    config: &RunConfig,
    pool: &VsaPool,
) -> Result<BatchQrResult, RunError> {
    assert!(!jobs.is_empty(), "batch needs at least one job");
    if batch_backend(jobs, pool.threads()) == Backend::Seq {
        return walk_batch(jobs, config, pool);
    }
    let ns = |b: usize| Ns {
        job: Some(b as i32),
    };
    let mut vsa = Vsa::new();
    for (b, (a, opts)) in jobs.iter().enumerate() {
        build_qr_array_into(&mut vsa, a, opts, ns(b));
    }
    let mut out = vsa.run_pooled(config, pool)?;
    let factors = jobs
        .iter()
        .enumerate()
        .map(|(b, (a, opts))| ns(b).collect(&mut out, a, opts))
        .collect();
    Ok(BatchQrResult {
        factors,
        trace: out.trace,
        backend: Backend::Vsa3d,
    })
}

/// Walk a balanced batch. A panic in a walk is caught per job, stops every
/// worker taking another job, and fails the call; with `config.trace`
/// each walk is one `walk` span on its worker.
fn walk_batch(
    jobs: &[(&Matrix, &QrOptions)],
    config: &RunConfig,
    pool: &VsaPool,
) -> Result<BatchQrResult, RunError> {
    let t0 = Instant::now();
    let us = || t0.elapsed().as_secs_f64() * 1e6;
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&x, &y| job_flops(jobs[y].0).total_cmp(&job_flops(jobs[x].0)));
    let factors: Vec<OnceLock<TileQrFactors>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let (next, failure, spans) = (AtomicUsize::new(0), OnceLock::new(), Mutex::new(Vec::new()));
    pool.run_scoped(&|thread, scratch| {
        while failure.get().is_none() {
            let Some(&b) = order.get(next.fetch_add(1, Relaxed)) else {
                return;
            };
            let (a, opts) = jobs[b];
            let start_us = us();
            let walked = catch_unwind(AssertUnwindSafe(|| {
                let chaos = config.chaos_panic.as_ref();
                if chaos.is_some_and(|t| t.len() == 4 && t.ids()[0] == b as i32) {
                    panic!("chaos: injected panic walking batch job {b}");
                }
                scratch.with(|ws: &mut Workspace| walk_plan(a, opts, 1, ws))
            }));
            match walked {
                Ok(f) => drop(factors[b].set(f)),
                Err(e) => {
                    let tuple = Tuple::new4(b as i32, 0, 0, 0); // the job's first VDP
                    let payload = panic_message(&*e);
                    let _ = failure.set(RunError::VdpPanicked { tuple, payload });
                    return;
                }
            }
            if config.trace {
                spans.lock().expect("span list").push(TaskSpan {
                    node: 0,
                    thread,
                    tuple: Tuple::new1(b as i32).to_string(),
                    label: "walk".to_string(),
                    start_us,
                    end_us: us(),
                });
            }
        }
    });
    if let Some(e) = failure.into_inner() {
        return Err(e);
    }
    let spans = spans.into_inner().expect("span list");
    Ok(BatchQrResult {
        factors: factors
            .into_iter()
            .map(|f| f.into_inner().expect("walked"))
            .collect(),
        trace: config.trace.then_some(Trace { spans }),
        backend: Backend::Seq,
    })
}

/// What one rank of a distributed run collected: the `R` tiles whose
/// producing VDPs were mapped to this rank.
pub struct VsaQrPartial {
    /// Finished `R` blocks as `(block_row, block_col, tile)`; diagonal
    /// blocks are already upper-triangularized.
    pub r_tiles: Vec<(usize, usize, Matrix)>,
    /// Tile size the blocks are laid out on.
    pub nb: usize,
    /// This rank's runtime statistics.
    pub stats: RunStats,
}

/// Build the 3D VSA for `a`, run it under `config`, and collect whatever
/// `R` tiles exited locally.
///
/// This is the SPMD entry point for [`pulsar_runtime::Backend::Tcp`]: every
/// rank calls it with identical `a`, `opts`, and mapping; each gets back
/// its own share of the `R` factor (and its local stats). Under an
/// in-process backend it returns every tile.
///
/// Unlike the single-process helpers this returns `Err` instead of
/// panicking when the run fails: in an SPMD deployment a lost peer or a
/// stalled array is an expected runtime outcome the caller must translate
/// into an exit code, not a crash.
pub fn tile_qr_vsa_partial(
    a: &Matrix,
    opts: &QrOptions,
    config: &RunConfig,
) -> Result<VsaQrPartial, RunError> {
    let ns = Ns::default();
    let mut vsa = Vsa::new();
    build_qr_array_into(&mut vsa, a, opts, ns);
    let mut out = vsa.run(config)?;
    let r_tiles = r_blocks(a.nrows(), a.ncols(), opts.nb)
        .filter_map(|(i, l)| {
            let tile = out.take_exit(ns.exit_r(i, l), 0).pop()?.into_tile();
            let block = if i == l { tile.upper_triangle() } else { tile };
            Some((i, l, block))
        })
        .collect();
    Ok(VsaQrPartial {
        r_tiles,
        nb: opts.nb,
        stats: out.stats,
    })
}

/// The logic of one single-fire merge VDP (factor when `l == j`, update
/// when `l > j` — recorded at build time so the role is independent of the
/// tuple arity a batch namespace gives the VDP).
struct QrVdp {
    op: PanelOp,
    ib: usize,
    factor: bool,
}

impl QrVdp {
    /// The VDP running `op` as `tuple`, a factor or an update.
    fn spec(tuple: Tuple, op: PanelOp, ib: usize, factor: bool) -> VdpSpec {
        let n_in = if factor { 2 } else { 3 };
        VdpSpec::new(tuple, 1, n_in, 3, QrVdp { op, ib, factor })
    }
}

/// Pop an update VDP's transformation (input 2) and forward it down the
/// chain on output 2 *before* it is used — the paper's bypass, overlapping
/// the broadcast with compute.
fn pop_transform(ctx: &mut VdpContext<'_>) -> Packet {
    let trans = ctx.pop(2);
    if ctx.output_connected(2) {
        ctx.push(2, trans.clone());
    }
    trans
}

/// Label the firing, then send a factor VDP's transformation on its way:
/// down the chain on output 1 first (bypass), then to the record on
/// output 2.
fn emit_transform(ctx: &mut VdpContext<'_>, refl: Reflectors) {
    ctx.set_label(|c| format!("{}{:?}", refl.op.factor_kernel(), c.tuple()));
    let pkt = Packet::wire(refl);
    if ctx.output_connected(1) {
        ctx.push(1, pkt.clone());
    }
    ctx.push(2, pkt);
}

impl VdpLogic for QrVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let (op, ib) = (self.op, self.ib);
        let scratch = ctx.scratch();
        if self.factor {
            let mut a1 = ctx.pop(0).into_tile();
            let a2 = op.rows().1.map(|_| ctx.pop(1).into_tile());
            let refl = ctx.kernel(op.factor_kernel(), || {
                scratch.with(|ws: &mut Workspace| factor_op(op, &mut a1, a2, ib, ws))
            });
            // The transformation first, then pass the R factor along.
            emit_transform(ctx, refl);
            if ctx.output_connected(0) {
                ctx.push(0, Packet::tile(a1));
            }
        } else {
            let trans = pop_transform(ctx);
            let refl = trans
                .get::<Reflectors>()
                .expect("transform channel carries Reflectors");
            let mut c1 = ctx.pop(0).into_tile();
            let mut c2 = op.rows().1.map(|_| ctx.pop(1).into_tile());
            ctx.kernel(op.update_kernel(), || {
                scratch.with(|ws: &mut Workspace| {
                    apply_op(refl, ApplyTrans::Trans, &mut c1, c2.as_mut(), ib, ws)
                })
            });
            ctx.push(0, Packet::tile(c1));
            if let Some(c2) = c2 {
                ctx.push(1, Packet::tile(c2));
            }
            ctx.set_label(|c| format!("{}{:?}", op.update_kernel(), c.tuple()));
        }
    }

    // Single-fire VDP: `op`/`ib` come from the plan, which a resume
    // rebuilds identically, so the local-store snapshot is empty.
    fn snapshot(&self, out: &mut Vec<u8>) {
        crate::store::snapshot_tile(&None, out);
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), pulsar_runtime::WireError> {
        crate::store::restore_tile(bytes)?;
        Ok(())
    }
}

/// Summary of the array a plan builds (for Figure 8-style inspection).
pub struct ArrayShape {
    /// Total VDPs.
    pub vdps: usize,
    /// Total channels.
    pub channels: usize,
    /// VDPs per stage.
    pub per_stage: Vec<usize>,
}

/// Compute the array shape without running it.
pub fn array_shape(plan: &QrPlan) -> ArrayShape {
    // Tile sizes do not change which VDPs and channels exist.
    let (tree, boundary) = (plan.tree.clone(), plan.boundary);
    let opts = QrOptions {
        nb: 1,
        ib: 1,
        tree,
        boundary,
    };
    let mut vsa = Vsa::new();
    build_qr_array_into(
        &mut vsa,
        &Matrix::zeros(plan.mt, plan.nt),
        &opts,
        Ns::default(),
    );
    // A chain per domain and a merge per domain but the first, per column.
    let per_stage = (0..plan.panels())
        .map(|j| (2 * plan.domain_heads(j).len() - 1) * (plan.nt - j))
        .collect();
    ArrayShape {
        vdps: vsa.vdp_count(),
        channels: vsa.channel_count(),
        per_stage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Boundary, Tree};
    use crate::seqqr::tile_qr_seq;

    /// Factor an `m x n` matrix under both boundaries and require the
    /// sequential oracle's `R` bit for bit.
    fn run_case(m: usize, n: usize, opts: &QrOptions, threads: usize) {
        let mut rng = rand::rng();
        let a = Matrix::random(m, n, &mut rng);
        for opts in [opts.clone(), opts.clone().with_fixed_boundary()] {
            let res = tile_qr_vsa(&a, &opts, &RunConfig::smp(threads));
            let what = format!("{m}x{n} {} {:?}", opts.tree, opts.boundary);
            let resid = res.factors.residual(&a);
            assert!(resid < 1e-13, "residual {resid} ({what})");
            let seq = tile_qr_seq(&a, &opts);
            let same = (res.factors.r.data().iter().zip(seq.r.data()))
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "VSA and sequential R differ ({what})");
        }
    }

    #[test]
    fn vsa_flat() {
        run_case(16, 8, &QrOptions::new(4, 2, Tree::Flat), 3);
    }

    #[test]
    fn vsa_binary() {
        run_case(16, 8, &QrOptions::new(4, 2, Tree::Binary), 4);
    }

    #[test]
    fn vsa_hierarchical() {
        run_case(24, 8, &QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 3 }), 4);
    }

    #[test]
    fn vsa_many_domains() {
        run_case(40, 8, &QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 2 }), 4);
    }

    #[test]
    fn vsa_partial_last_domain() {
        // 7 block rows with h=3: domains of 3, 3, 1.
        run_case(28, 8, &QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 3 }), 3);
    }

    #[test]
    fn vsa_h_one_pure_binary() {
        run_case(16, 8, &QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 1 }), 4);
    }

    #[test]
    fn vsa_single_panel() {
        run_case(20, 4, &QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 2 }), 2);
    }

    #[test]
    fn vsa_square() {
        run_case(
            12,
            12,
            &QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 2 }),
            4,
        );
    }

    #[test]
    fn vsa_ragged_columns() {
        run_case(16, 7, &QrOptions::new(4, 2, Tree::Binary), 3);
    }

    #[test]
    fn vsa_single_thread() {
        run_case(16, 8, &QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 2 }), 1);
    }

    #[test]
    fn vsa_greedy_tree() {
        run_case(24, 8, &QrOptions::new(4, 2, Tree::Greedy), 4);
    }

    #[test]
    fn vsa_custom_domains() {
        run_case(28, 8, &QrOptions::new(4, 2, Tree::custom([3, 2])), 4);
    }

    #[test]
    fn vsa_runs_every_tree_tall_and_wide() {
        for tree in [
            Tree::Binary,
            Tree::Greedy,
            Tree::custom([3, 2]),
            Tree::custom([1, 4]),
        ] {
            let opts = QrOptions::new(4, 2, tree);
            run_case(36, 12, &opts, 3);
            run_case(8, 14, &opts, 2); // wide: mt < nt
        }
    }

    #[test]
    fn flat_tree_is_the_domino_array() {
        run_case(20, 8, &QrOptions::new(4, 2, Tree::Flat), 3);
        run_case(16, 6, &QrOptions::new(4, 2, Tree::Flat), 2); // ragged columns
        run_case(4, 4, &QrOptions::new(4, 2, Tree::Flat), 1); // one tile
                                                              // Figure 9's multi-fire count, mt = 5, nt = 2: factor (0, 0) fires
                                                              // 5x, update (0, 1) 5x, factor (1, 1) 4x — one VDP each.
        let mut rng = rand::rng();
        let a = Matrix::random(20, 8, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::Flat);
        let res = tile_qr_vsa(&a, &opts, &RunConfig::smp(2));
        assert_eq!(res.stats.fired, 5 + 5 + 4);
        assert_eq!(array_shape(&opts.plan(5, 2)).vdps, 3);
    }

    #[test]
    fn batch_matches_sequential_per_job() {
        let mut rng = rand::rng();
        let specs = [
            (16usize, 8usize, QrOptions::new(4, 2, Tree::Binary)),
            (24, 4, QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 3 })),
            (
                12,
                12,
                QrOptions::new(4, 2, Tree::Flat).with_fixed_boundary(),
            ),
        ];
        let mats: Vec<Matrix> = specs
            .iter()
            .map(|&(m, n, _)| Matrix::random(m, n, &mut rng))
            .collect();
        let jobs: Vec<(&Matrix, &QrOptions)> = mats
            .iter()
            .zip(&specs)
            .map(|(a, (_, _, o))| (a, o))
            .collect();
        let pool = VsaPool::new(4);
        let out = tile_qr_vsa_batch_pooled(&jobs, &RunConfig::smp(4), &pool).expect("batch run");
        assert_eq!(out.factors.len(), 3);
        for ((a, opts), f) in jobs.iter().zip(&out.factors) {
            let seq = tile_qr_seq(a, opts);
            // Same dataflow, same kernels, same operands: bit-identical.
            assert_eq!(f.r, seq.r, "batched job's R differs from sequential");
            let resid = f.residual(a);
            assert!(resid < 1e-13, "batch residual {resid}");
        }
    }

    #[test]
    fn batch_pooled_reuses_one_pool_across_launches() {
        let pool = pulsar_runtime::VsaPool::new(3);
        let mut rng = rand::rng();
        let opts = QrOptions::new(4, 2, Tree::Binary);
        for _ in 0..2 {
            let mats: Vec<Matrix> = (0..2).map(|_| Matrix::random(16, 8, &mut rng)).collect();
            let jobs: Vec<(&Matrix, &QrOptions)> = mats.iter().map(|a| (a, &opts)).collect();
            let out =
                tile_qr_vsa_batch_pooled(&jobs, &RunConfig::smp(3), &pool).expect("pooled batch");
            for (a, f) in mats.iter().zip(&out.factors) {
                assert_eq!(f.r, tile_qr_seq(a, &opts).r);
            }
        }
    }

    #[test]
    fn walked_batch_traces_one_walk_span_per_job() {
        let pool = VsaPool::new(2);
        let mut rng = rand::rng();
        let opts = QrOptions::new(4, 2, Tree::Greedy);
        let mats: Vec<Matrix> = (0..3).map(|_| Matrix::random(16, 8, &mut rng)).collect();
        let jobs: Vec<(&Matrix, &QrOptions)> = mats.iter().map(|a| (a, &opts)).collect();
        let out = tile_qr_vsa_batch_pooled(&jobs, &RunConfig::smp(2).with_trace(), &pool)
            .expect("walked batch");
        assert_eq!(out.backend, Backend::Seq);
        let trace = out.trace.expect("traced");
        let mut slots: Vec<&str> = trace.spans.iter().map(|s| s.tuple.as_str()).collect();
        slots.sort_unstable();
        assert_eq!(slots, ["(0)", "(1)", "(2)"]);
        assert!(trace
            .spans
            .iter()
            .all(|s| s.label == "walk" && s.thread < 2));
    }

    #[test]
    fn pooled_rejects_mismatched_thread_count() {
        let pool = pulsar_runtime::VsaPool::new(2);
        let mut rng = rand::rng();
        let a = Matrix::random(8, 4, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::Flat);
        let err = tile_qr_vsa_batch_pooled(&[(&a, &opts)], &RunConfig::smp(3), &pool)
            .err()
            .expect("must reject");
        assert!(matches!(err, RunError::Protocol { .. }), "got {err:?}");
    }

    #[test]
    fn array_shape_matches_built_vsa() {
        // The paper's Figure 8 example: 6x3 tiles, h = 3. Per stage: two
        // chains and one merge at each of its columns.
        let plan = QrPlan::new(6, 3, Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);
        let shape = array_shape(&plan);
        assert_eq!(shape.per_stage, [3 * 3, 3 * 2, 3]);
        assert_eq!(shape.vdps, shape.per_stage.iter().sum::<usize>());
        let mut vsa = Vsa::new();
        let opts = QrOptions::new(2, 1, plan.tree.clone());
        build_qr_array_into(&mut vsa, &Matrix::zeros(12, 6), &opts, Ns::default());
        assert_eq!((vsa.vdp_count(), vsa.channel_count()), (18, shape.channels));
    }

    /// The benchmark's `tall_fine` plan (8192x128, nb 16, h = 4): one chain
    /// per domain and column instead of one VDP per op and column.
    #[test]
    fn tall_fine_array_shape_is_pinned() {
        let opts = QrOptions::new(16, 4, Tree::BinaryOnFlat { h: 4 });
        let plan = opts.plan(512, 8);
        let shape = array_shape(&plan);
        assert_eq!((shape.vdps, shape.channels), (9_160, 25_444));
        let mut vsa = Vsa::new();
        build_qr_array_into(&mut vsa, &Matrix::zeros(8192, 128), &opts, Ns::default());
        assert_eq!((vsa.vdp_count(), vsa.channel_count()), (9_160, 25_444));
    }
}
