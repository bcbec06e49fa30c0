//! The 3D Virtual Systolic Array for hierarchical QR (Section V-C, Fig. 8).
//!
//! The array's three dimensions map directly onto the three nested loops of
//! the tile QR algorithm: panel `j`, elimination step `q` (which encodes the
//! block rows the step touches), and block column `l`. VDP `(j, q, l)` with
//! `l == j` performs the panel kernel of step `q` (`geqrt`/`tsqrt`/`ttqrt`);
//! with `l > j` it performs the matching trailing update
//! (`unmqr`/`tsmqr`/`ttmqr`).
//!
//! Channel geometry:
//! - **Vertical** channels carry the Householder transformation of step
//!   `(j, q)` across columns `l = j+1, j+2, ...`; every update VDP forwards
//!   the packet *before* applying it (the paper's bypass, overlapping the
//!   broadcast with compute).
//! - **Horizontal** channels carry tiles: within a stage, along each block
//!   row's chain of ops; between stages, from the last stage-`j` op touching
//!   a row to the first stage-`j+1` op touching it (this is where the
//!   shifted-boundary pipelining materializes: the next panel's flat
//!   reduction starts as soon as its tiles arrive, while the binary
//!   reduction of the current panel is still running).
//! - **Exit** channels deliver finished `R` tiles and the recorded
//!   transformations out of the array.

use crate::factors::{Reflectors, TileQrFactors};
use crate::ops::{apply_op, collect_factors, factor_op, r_blocks};
use crate::plan::{PanelOp, QrPlan};
use crate::QrOptions;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{Matrix, TileMatrix, Workspace};
use pulsar_runtime::{
    ChannelSpec, Packet, RunConfig, RunError, RunOutput, RunStats, Trace, Tuple, VdpContext,
    VdpSpec, Vsa, VsaPool,
};
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

/// Tuple namespace for one job's sub-array — the names of every QR array's
/// VDPs and exits. `None` keeps the legacy 3-tuple ids (bit-compatible
/// with single-job arrays); `Some(b)` prefixes every tuple — VDPs and
/// exits alike — with batch job id `b`, so many independent QR arrays
/// coexist disjointly in one VSA launch.
#[derive(Copy, Clone, Default)]
pub(crate) struct Ns {
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
    pub(crate) fn vdp(self, j: usize, q: usize, l: usize) -> Tuple {
        self.tuple(j as i32, q as i32, l as i32)
    }

    /// The exit receiving the finished `R` block `(i, l)`.
    pub(crate) fn exit_r(self, i: usize, l: usize) -> Tuple {
        self.tuple(-1, i as i32, l as i32)
    }

    fn exit_trans(self, j: usize, q: usize) -> Tuple {
        self.tuple(-2, j as i32, q as i32)
    }

    /// The transformation channels out of VDP `(j, q, l)`, as `(output,
    /// destination, input)`: down the chain to the same op one column
    /// right (a factor VDP sends on output 1, an update VDP on 2), and from
    /// the factor VDP to op `q`'s record exit.
    pub(crate) fn transform_hops(
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
    /// each op's record exit in plan order (an op whose records travel on
    /// another op's exit has an empty one).
    pub(crate) fn collect(
        self,
        out: &mut RunOutput,
        a: &Matrix,
        opts: &QrOptions,
    ) -> TileQrFactors {
        collect_factors(
            out,
            a,
            opts,
            |i, l| self.exit_r(i, l),
            |j, ops| (0..ops.len()).map(|q| self.exit_trans(j, q)).collect(),
        )
    }
}

/// Where a row's tile goes next: `(op index, input slot)` within a stage.
type Touch = Option<(u32, u8)>;

/// Op lists over `mt` block rows, each routed on its own by [`Hops`]: a
/// plan's panels, or one flattened sequence of recorded transformations.
pub(crate) struct Stages {
    pub(crate) ops: Vec<Vec<PanelOp>>,
    pub(crate) mt: usize,
}

impl From<&QrPlan> for Stages {
    fn from(plan: &QrPlan) -> Self {
        let ops = (0..plan.panels()).map(|j| plan.panel_ops(j)).collect();
        Stages { ops, mt: plan.mt }
    }
}

/// The tile routing of every stage, built in one backward pass each: for
/// every op, the next op of its stage touching each of its two rows, and
/// for every row, the first op of the stage touching it.
pub(crate) struct Hops {
    ops: Vec<Vec<PanelOp>>,
    /// `next[j][q][side]`: the hop after op `q` for its primary (side 0)
    /// and secondary (side 1) row.
    pub(crate) next: Vec<Vec<[Touch; 2]>>,
    /// `first[j][row]`.
    pub(crate) first: Vec<Vec<Touch>>,
}

impl Hops {
    pub(crate) fn new(stages: impl Into<Stages>) -> Self {
        let Stages { ops, mt } = stages.into();
        let mut next = Vec::with_capacity(ops.len());
        let mut first = Vec::with_capacity(ops.len());
        for stage in &ops {
            // Walking backwards, `seen[row]` is the nearest later op
            // touching `row`; what is left at the end is the first.
            let mut seen: Vec<Touch> = vec![None; mt];
            let mut stage_next = vec![[None; 2]; stage.len()];
            for (q, op) in stage.iter().enumerate().rev() {
                let (prim, sec) = op.rows();
                for (side, row) in [Some(prim), sec].into_iter().enumerate() {
                    if let Some(row) = row {
                        stage_next[q][side] = seen[row].replace((q as u32, side as u8));
                    }
                }
            }
            next.push(stage_next);
            first.push(seen);
        }
        Hops { ops, next, first }
    }

    /// Where row `row`'s tile at column `l` goes once `hop` (the rest of
    /// stage `j`) is exhausted, as `(destination, input slot)`: the next op
    /// touching the row, the `R` exit once the row is finished, or `None`
    /// when the tile's content is spent (its reflectors travel separately).
    fn resolve(
        &self,
        mut hop: Touch,
        mut j: usize,
        row: usize,
        l: usize,
        ns: Ns,
    ) -> Option<(Tuple, usize)> {
        loop {
            if let Some((q, slot)) = hop {
                return Some((ns.vdp(j, q as usize, l), slot as usize));
            }
            if row == j {
                return Some((ns.exit_r(row, l), 0));
            }
            j += 1;
            if j == self.ops.len() {
                return None;
            }
            debug_assert!(l >= j, "panel-column tiles of eliminated rows are spent");
            hop = self.first[j][row];
        }
    }
}

/// Enumerate every channel of the array, in creation order. The builder
/// adds them to the VSA; [`array_shape`] counts them.
///
/// Factor VDPs (`l == j`): in 0/1 = primary/secondary tile; out 0 = R
/// onward, 1 = transform chain, 2 = transform exit. Update VDPs: in 0/1 =
/// C1/C2, in 2 = transform; out 0/1 = tiles onward, out 2 = transform
/// chain.
fn for_each_channel(
    hops: &Hops,
    nt: usize,
    nb: usize,
    ib: usize,
    ns: Ns,
    mut emit: impl FnMut(ChannelSpec),
) {
    let tile_bytes = 8 * nb * nb;
    let trans_bytes = 8 * nb * nb + 8 * ib * nb;
    let mut chan = |bytes, src: &Tuple, out, (dst, slot)| {
        emit(ChannelSpec::new(bytes, src.clone(), out, dst, slot))
    };
    for (j, ops) in hops.ops.iter().enumerate() {
        for (q, &op) in ops.iter().enumerate() {
            for l in j..nt {
                let src = ns.vdp(j, q, l);
                // Tile channels out of this VDP (the factor's secondary
                // tile becomes the transformation, not a tile).
                let (prim, sec) = op.rows();
                let rows = [Some(prim), sec.filter(|_| l > j)];
                for (slot, row) in rows.into_iter().enumerate() {
                    let hop =
                        row.and_then(|row| hops.resolve(hops.next[j][q][slot], j, row, l, ns));
                    if let Some(hop) = hop {
                        chan(tile_bytes, &src, slot, hop);
                    }
                }
                // Transformation channels: down the vertical chain, and
                // from the factor to the exit store.
                for (out, dst, slot) in ns.transform_hops(j, q, l, nt) {
                    chan(trans_bytes, &src, out, (dst, slot));
                }
            }
        }
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
    let (mt, nt, ib) = (tiles.mt(), tiles.nt(), opts.ib);
    let hops = Hops::new(&opts.plan(mt, nt));

    for (j, ops) in hops.ops.iter().enumerate() {
        for (q, &op) in ops.iter().enumerate() {
            for l in j..nt {
                vsa.add_vdp(QrVdp::spec(ns.vdp(j, q, l), op, ib, l == j));
            }
        }
    }
    for_each_channel(&hops, nt, opts.nb, ib, ns, |c| vsa.add_channel(c));

    // Seed every tile into the first stage-0 op that touches its row.
    for i in 0..mt {
        let (q0, slot) = hops.first[0][i].expect("every row is touched in stage 0");
        for l in 0..nt {
            let tile = Packet::tile(tiles.take_tile(i, l));
            vsa.seed(ns.vdp(0, q0 as usize, l), slot as usize, tile);
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

/// Result of a batched VSA launch: one factorization per job, in
/// submission order, plus the shared run's stats and trace.
pub struct BatchQrResult {
    /// Per-job factorizations, indexed like the input slice.
    pub factors: Vec<TileQrFactors>,
    /// Statistics of the single run that executed every job.
    pub stats: RunStats,
    /// Execution trace of the whole batch, when requested.
    pub trace: Option<Trace>,
    /// Time spent describing every job's sub-array before the launch.
    pub build: Duration,
}

/// Factor several matrices in ONE VSA launch on a persistent [`VsaPool`]
/// — the warm path of `pulsar-qr serve`, where the pool's kernel
/// workspaces persist from batch to batch. Each job's sub-array gets a
/// disjoint tuple namespace (its batch index prefixes every tuple), and the
/// runtime schedules all of them together — the service's small-job
/// batching, amortizing thread wake-up and run setup across jobs.
///
/// The dataflow of each sub-array is independent, so every job's factors
/// are identical to what a solo [`tile_qr_vsa`] run would produce.
pub fn tile_qr_vsa_batch_pooled(
    jobs: &[(&Matrix, &QrOptions)],
    config: &RunConfig,
    pool: &VsaPool,
) -> Result<BatchQrResult, RunError> {
    assert!(!jobs.is_empty(), "batch needs at least one job");
    let ns = |b: usize| Ns {
        job: Some(b as i32),
    };
    let t0 = Instant::now();
    let mut vsa = Vsa::new();
    for (b, (a, opts)) in jobs.iter().enumerate() {
        build_qr_array_into(&mut vsa, a, opts, ns(b));
    }
    let build = t0.elapsed();
    let mut out = vsa.run_pooled(config, pool)?;
    let factors = jobs
        .iter()
        .enumerate()
        .map(|(b, (a, opts))| ns(b).collect(&mut out, a, opts))
        .collect();
    Ok(BatchQrResult {
        factors,
        stats: out.stats,
        trace: out.trace,
        build,
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

/// The logic of one single-fire op VDP (factor when `l == j`, update when
/// `l > j` — recorded at build time so the role is independent of the
/// tuple arity a batch namespace gives the VDP). Every op of the 3D array,
/// and every merge of the compact one.
pub(crate) struct QrVdp {
    op: PanelOp,
    ib: usize,
    factor: bool,
}

impl QrVdp {
    /// The VDP running `op` as `tuple`, a factor or an update.
    pub(crate) fn spec(tuple: Tuple, op: PanelOp, ib: usize, factor: bool) -> VdpSpec {
        let n_in = if factor { 2 } else { 3 };
        VdpSpec::new(tuple, 1, n_in, 3, QrVdp { op, ib, factor })
    }
}

/// Pop an update VDP's transformation (input 2) and forward it down the
/// chain on output 2 *before* it is used — the paper's bypass, overlapping
/// the broadcast with compute. Shared with the compact array.
pub(crate) fn pop_transform(ctx: &mut VdpContext<'_>) -> Packet {
    let trans = ctx.pop(2);
    if ctx.output_connected(2) {
        ctx.push(2, trans.clone());
    }
    trans
}

/// Label the firing, then send a factor VDP's transformation on its way:
/// down the chain on output 1 first (bypass), then to the record on
/// output 2. Shared with the compact array, which wires the same slots.
pub(crate) fn emit_transform(ctx: &mut VdpContext<'_>, refl: Reflectors) {
    ctx.set_label(|c| format!("{}{:?}", refl.op.factor_kernel(), c.tuple()));
    let pkt = Packet::wire(refl);
    if ctx.output_connected(1) {
        ctx.push(1, pkt.clone());
    }
    ctx.push(2, pkt);
}

impl pulsar_runtime::VdpLogic for QrVdp {
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
    let hops = Hops::new(plan);
    let per_stage: Vec<usize> = hops
        .ops
        .iter()
        .enumerate()
        .map(|(j, ops)| ops.len() * (plan.nt - j))
        .collect();
    // Tile and transform sizes do not change which channels exist.
    let mut channels = 0usize;
    for_each_channel(&hops, plan.nt, 1, 1, Ns::default(), |_| channels += 1);
    ArrayShape {
        vdps: per_stage.iter().sum(),
        channels,
        per_stage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Boundary, Tree};
    use crate::seqqr::tile_qr_seq;
    use pulsar_linalg::verify::r_factor_distance;

    fn run_case(m: usize, n: usize, opts: &QrOptions, threads: usize) {
        let mut rng = rand::rng();
        let a = Matrix::random(m, n, &mut rng);
        let res = tile_qr_vsa(&a, opts, &RunConfig::smp(threads));
        let resid = res.factors.residual(&a);
        assert!(resid < 1e-13, "residual {resid} ({m}x{n} {:?})", opts.tree);
        // Same R as the sequential oracle (identical schedule => identical
        // arithmetic, so this is exact equality territory; allow roundoff
        // slack for nondeterministic summation order differences — there
        // are none, but stay robust).
        let seq = tile_qr_seq(&a, opts);
        let d = r_factor_distance(&res.factors.r, &seq.r);
        assert!(d < 1e-12, "VSA and sequential R differ by {d}");
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
    fn vsa_fixed_boundary() {
        let opts = QrOptions {
            nb: 4,
            ib: 2,
            tree: Tree::BinaryOnFlat { h: 3 },
            boundary: Boundary::Fixed,
        };
        run_case(24, 8, &opts, 4);
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
    fn batch_matches_sequential_per_job() {
        let mut rng = rand::rng();
        let specs = [
            (16usize, 8usize, QrOptions::new(4, 2, Tree::Binary)),
            (24, 4, QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 3 })),
            (12, 12, QrOptions::new(4, 2, Tree::Flat)),
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
            let d = r_factor_distance(&f.r, &seq.r);
            assert_eq!(d, 0.0, "batched job's R differs from sequential by {d}");
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
                let seq = tile_qr_seq(a, &opts);
                assert_eq!(r_factor_distance(&f.r, &seq.r), 0.0);
            }
        }
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
        // The paper's Figure 8 example: 6x3 tiles, h = 3.
        let plan = QrPlan::new(6, 3, Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);
        let shape = array_shape(&plan);
        assert_eq!(shape.per_stage.len(), 3);
        assert_eq!(shape.per_stage[0], 7 * 3); // 7 ops x 3 columns
        assert!(shape.vdps > 0 && shape.channels > 0);
    }

    /// The benchmark's `tall_fine` plan (8192x128, nb 16, h = 4): the
    /// next-hop tables enumerate exactly the channels the per-channel
    /// rescan of the op list used to.
    #[test]
    fn tall_fine_array_shape_is_pinned() {
        let plan = QrPlan::new(512, 8, Tree::BinaryOnFlat { h: 4 }, Boundary::Shifted);
        let shape = array_shape(&plan);
        assert_eq!((shape.vdps, shape.channels), (22_910, 60_072));
    }

    /// The tables against the definition they replace: for every op and
    /// row, the next op of the stage touching that row, found by scanning.
    #[test]
    fn hops_agree_with_a_scan_of_the_op_list() {
        for tree in [Tree::Greedy, Tree::Binary, Tree::BinaryOnFlat { h: 3 }] {
            let plan = QrPlan::new(11, 4, tree, Boundary::Shifted);
            let hops = Hops::new(&plan);
            for (j, ops) in hops.ops.iter().enumerate() {
                let scan = |from: usize, row: usize| {
                    (from..ops.len())
                        .find(|&q| ops[q].touches(row))
                        .map(|q| (q as u32, ops[q].role_slot(row) as u8))
                };
                for row in 0..plan.mt {
                    assert_eq!(hops.first[j][row], scan(0, row));
                }
                for (q, op) in ops.iter().enumerate() {
                    let (prim, sec) = op.rows();
                    assert_eq!(hops.next[j][q][0], scan(q + 1, prim));
                    assert_eq!(hops.next[j][q][1], sec.and_then(|r| scan(q + 1, r)));
                }
            }
        }
    }
}
