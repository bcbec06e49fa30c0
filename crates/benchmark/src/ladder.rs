//! The per-layer ladder of the traced run: every rung from a single tile
//! kernel up to a routed job over TCP, each measured at the workload's own
//! job shape, plan and tile sizes by timing calls into the crates' public
//! functions. Nothing inside the measured crates is touched; in-program
//! spans are a later change.

use crate::daemon::{
    closed_loop, connect, keep, off_by, serve_config, stat, Burst, Check, Daemon, InprocPort,
    JobPort, MixInputs, StorePort, TcpPort, TracedPort,
};
use crate::gen::{self, streams};
use crate::metrics::{Kind, Shape, Workload};
use crate::offline::{bit_diff, cluster_config, options, run_config};
use crate::served::{burst_rate, BURST};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::Settings;
use pulsar_core::vsa3d::{tile_qr_vsa, tile_qr_vsa_batch_pooled};
use pulsar_core::{
    append_rows, tile_qr_seq, tile_qr_tsqr, Backend, PanelOp, QrOptions, QrPlan, TileQrFactors,
};
use pulsar_fabric::{Completion, Fabric, InProcFabric, TcpFabric};
use pulsar_linalg::blas::{dgemm, Trans};
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{
    flops, geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Matrix, Workspace,
};
use pulsar_runtime::{
    ChannelSpec, NetModel, Packet, RunConfig, Tuple, VdpContext, VdpSpec, Vsa, VsaPool,
};
use pulsar_server::{
    decode_msg, encode_msg, route, FactorHandle, FactorStore, Msg, RouteConfig, Router, Service,
};
use pulsar_tuner::json::Json;
use pulsar_tuner::{ProfileCell, ProfileTable};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer metric values by name, plus what the rungs verified.
pub struct Ladder {
    /// Metric values.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations the rungs attempted and failed.
    pub check: Check,
}

/// Call `f` back to back until `budget_s` is spent (at least `min` times, at
/// most `max`); returns each call's duration in seconds.
fn timed_reps(budget_s: f64, min: usize, max: usize, mut f: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    let mut durs = Vec::new();
    while durs.len() < min || (durs.len() < max && t0.elapsed().as_secs_f64() < budget_s) {
        let t = Instant::now();
        f();
        durs.push(t.elapsed().as_secs_f64());
    }
    durs
}

/// Seconds per call of a tile kernel: batches of fresh inputs (cloning is
/// off the clock), one warm workspace, median over the batches.
fn kernel_time<I>(
    ws: &mut Workspace,
    prepare: impl Fn() -> I,
    run: impl Fn(&mut I, &mut Workspace),
) -> f64 {
    const BATCH: usize = 8;
    const BATCHES: usize = 9;
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut inputs: Vec<I> = (0..BATCH).map(|_| prepare()).collect();
            let t = Instant::now();
            for i in &mut inputs {
                run(i, ws);
            }
            let dt = t.elapsed().as_secs_f64() / BATCH as f64;
            black_box(inputs);
            dt
        })
        .collect();
    median(&per_call)
}

/// How often each of the six kernels runs under `plan`.
fn kernel_calls(plan: &QrPlan) -> BTreeMap<&'static str, usize> {
    let mut calls = BTreeMap::new();
    for j in 0..plan.panels() {
        for op in plan.panel_ops(j) {
            *calls.entry(op.factor_kernel()).or_insert(0) += 1;
            *calls.entry(op.update_kernel()).or_insert(0) += plan.nt - j - 1;
        }
    }
    calls
}

/// The `linalg` rung: GFLOP/s of each tile kernel and of a tile-sized GEMM
/// at the workload's `nb`/`ib`, the plan's exact kernel-call and flop
/// counts, and `linalg.kernel_mix_s` — the plan's kernel mix priced at the
/// measured per-call times, i.e. what the factorization would cost if
/// nothing but warm kernels ran.
fn linalg_rung(shape: &Shape, plan: &QrPlan, seed: u64, v: &mut BTreeMap<&'static str, f64>) {
    let (nb, ib) = (shape.nb, shape.ib);
    let mut rng = gen::stream(seed, streams::MATRIX + 1);
    let a = gen::matrix(&mut rng, nb, nb);
    let b = gen::matrix(&mut rng, nb, nb);
    let ws = &mut Workspace::new();
    let t_zero = || Matrix::zeros(ib, nb);
    let trans = ApplyTrans::Trans;

    let mut secs: BTreeMap<&'static str, f64> = BTreeMap::new();
    secs.insert(
        "geqrt",
        kernel_time(
            ws,
            || (a.clone(), t_zero()),
            |(tile, t), ws| geqrt_ws(tile, t, ib, ws),
        ),
    );
    let (mut vg, mut tg) = (a.clone(), t_zero());
    geqrt_ws(&mut vg, &mut tg, ib, ws);
    secs.insert(
        "unmqr",
        kernel_time(
            ws,
            || b.clone(),
            |c, ws| unmqr_ws(&vg, &tg, trans, c, ib, ws),
        ),
    );
    let r1 = a.upper_triangle();
    secs.insert(
        "tsqrt",
        kernel_time(
            ws,
            || (r1.clone(), b.clone(), t_zero()),
            |(a1, a2, t), ws| tsqrt_ws(a1, a2, t, ib, ws),
        ),
    );
    let (mut vts, mut tts) = (b.clone(), t_zero());
    tsqrt_ws(&mut r1.clone(), &mut vts, &mut tts, ib, ws);
    secs.insert(
        "tsmqr",
        kernel_time(
            ws,
            || (a.clone(), b.clone()),
            |(c1, c2), ws| tsmqr_ws(c1, c2, &vts, &tts, trans, ib, ws),
        ),
    );
    let r2 = b.upper_triangle();
    secs.insert(
        "ttqrt",
        kernel_time(
            ws,
            || (r1.clone(), r2.clone(), t_zero()),
            |(a1, a2, t), ws| ttqrt_ws(a1, a2, t, ib, ws),
        ),
    );
    let (mut vtt, mut ttt) = (r2.clone(), t_zero());
    ttqrt_ws(&mut r1.clone(), &mut vtt, &mut ttt, ib, ws);
    secs.insert(
        "ttmqr",
        kernel_time(
            ws,
            || (a.clone(), b.clone()),
            |(c1, c2), ws| ttmqr_ws(c1, c2, &vtt, &ttt, trans, ib, ws),
        ),
    );
    let gemm_s = kernel_time(
        ws,
        || Matrix::zeros(nb, nb),
        |c, _| dgemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, c),
    );

    let per_call_flops: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("geqrt", flops::geqrt_flops(nb, nb)),
        ("unmqr", flops::unmqr_flops(nb, nb, nb)),
        ("tsqrt", flops::tsqrt_flops(nb, nb)),
        ("tsmqr", flops::tsmqr_flops(nb, nb, nb)),
        ("ttqrt", flops::ttqrt_flops(nb)),
        ("ttmqr", flops::ttmqr_flops(nb, nb)),
    ]);
    for (name, metric) in [
        ("geqrt", "linalg.geqrt_gflops"),
        ("unmqr", "linalg.unmqr_gflops"),
        ("tsqrt", "linalg.tsqrt_gflops"),
        ("tsmqr", "linalg.tsmqr_gflops"),
        ("ttqrt", "linalg.ttqrt_gflops"),
        ("ttmqr", "linalg.ttmqr_gflops"),
    ] {
        v.insert(metric, per_call_flops[name] / secs[name] / 1e9);
    }
    v.insert(
        "linalg.dgemm_gflops",
        flops::gemm_flops(nb, nb, nb) / gemm_s / 1e9,
    );
    let calls = kernel_calls(plan);
    let total = |per_call: &BTreeMap<&'static str, f64>| -> f64 {
        calls.iter().map(|(k, &n)| n as f64 * per_call[k]).sum()
    };
    v.insert("linalg.kernel_calls", calls.values().sum::<usize>() as f64);
    v.insert("linalg.flops", total(&per_call_flops));
    v.insert("linalg.kernel_mix_s", total(&secs));
}

/// Nanoseconds per firing of a chain of VDPs that pass an empty packet on:
/// the runtime's cost of one firing with no work in it.
fn null_firing_ns(budget_s: f64) -> f64 {
    const CHAIN: i32 = 4000;
    let runs = timed_reps(budget_s, 3, 50, || {
        let mut vsa = Vsa::new();
        for i in 0..CHAIN {
            vsa.add_vdp(VdpSpec::new(
                Tuple::new1(i),
                1,
                1,
                1,
                |ctx: &mut VdpContext| {
                    let p = ctx.pop(0);
                    ctx.push(0, p);
                },
            ));
            vsa.add_channel(ChannelSpec::new(
                8,
                Tuple::new1(i),
                0,
                Tuple::new1(i + 1),
                0,
            ));
        }
        vsa.seed(Tuple::new1(0), 0, Packet::new((), 0));
        black_box(vsa.run(&RunConfig::smp(1)).expect("null chain runs"));
    });
    median(&runs) / CHAIN as f64 * 1e9
}

/// Round-trip microseconds of one `bytes`-sized payload between rank 0 and
/// an echoing rank 1.
fn pingpong_us(
    mut f0: impl Fabric<Payload = Vec<u8>>,
    f1: impl Fabric<Payload = Vec<u8>> + Send + 'static,
    bytes: usize,
    budget_s: f64,
) -> f64 {
    const STOP: u32 = u32::MAX;
    const NAP: Duration = Duration::from_micros(20);
    fn send(f: &mut impl Fabric<Payload = Vec<u8>>, dst: usize, id: u32, payload: Vec<u8>) {
        let n = payload.len();
        let s = f.post_send(dst, id, payload, n).expect("post_send");
        while !matches!(f.test(s).expect("test send"), Completion::SendDone) {
            f.idle(NAP);
        }
    }
    fn recv(f: &mut impl Fabric<Payload = Vec<u8>>) -> (u32, Vec<u8>) {
        let r = f.post_recv().expect("post_recv");
        loop {
            match f.test(r).expect("test recv") {
                Completion::Recv {
                    wire_id, payload, ..
                } => return (wire_id, payload),
                _ => f.idle(NAP),
            }
        }
    }
    let echo = std::thread::spawn(move || {
        let mut f1 = f1;
        loop {
            let (id, payload) = recv(&mut f1);
            if id == STOP {
                return;
            }
            send(&mut f1, 0, id, payload);
        }
    });
    let payload: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    let trips = timed_reps(budget_s, 20, 2000, || {
        send(&mut f0, 1, 1, payload.clone());
        black_box(recv(&mut f0));
    });
    send(&mut f0, 1, STOP, Vec::new());
    echo.join().expect("echo thread exits");
    median(&trips) * 1e6
}

fn tcp_pingpong_us(bytes: usize, budget_s: f64) -> f64 {
    let bind = || TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let (l0, l1) = (bind(), bind());
    let addr = |l: &TcpListener| l.local_addr().expect("bound").to_string();
    let addrs = vec![addr(&l0), addr(&l1)];
    let (a0, a1) = (addrs.clone(), addrs);
    let timeout = Duration::from_secs(5);
    let peer = std::thread::spawn(move || TcpFabric::connect(1, l1, &a1, timeout));
    let f0 = TcpFabric::connect(0, l0, &a0, timeout).expect("rank 0 joins the mesh");
    let f1 = peer
        .join()
        .expect("rank 1 thread")
        .expect("rank 1 joins the mesh");
    pingpong_us(f0, f1, bytes, budget_s)
}

/// The words-moved lower bound of TSQR (arXiv:0809.2407, Table 3:
/// `(n^2 / 2) log2 P` words per processor) for an `m x n` matrix split by
/// rows over `p` processors, in bytes. Computed, not measured.
pub fn tsqr_lower_bound_bytes(n: usize, p: usize) -> f64 {
    8.0 * (n * n) as f64 / 2.0 * (p as f64).log2()
}

/// The end-to-end run's closed-loop statistics, on one connection's bursts.
fn jobs_per_s(bursts: &[Burst]) -> f64 {
    burst_rate(&[bursts]).expect("every rung runs at least two bursts")
}

/// Median per-job time of the bursts (burst wall time over its jobs), ms.
fn per_job_ms(bursts: &[Burst]) -> f64 {
    let each: Vec<f64> = bursts
        .iter()
        .map(|b| (b.end_s - b.start_s) / b.jobs as f64 * 1e3)
        .collect();
    median(&each)
}

/// What every rung shares: the job, the per-rung time budget, the span
/// recorder, and the metric values and tallies collected so far.
struct Rig<'a> {
    kind: Kind,
    shape: &'a Shape,
    seed: u64,
    opts: QrOptions,
    /// The workload's matrix (its first pool matrix on daemon workloads).
    a: Matrix,
    /// Seconds each timed rung may take.
    rung: f64,
    tracer: &'a Tracer,
    v: BTreeMap<&'static str, f64>,
    check: Check,
}

impl Rig<'_> {
    /// Median seconds per call of `f`, called for about one rung budget (at
    /// least 3 times) inside a span of `layer`.
    fn timed(&self, layer: &'static str, name: &str, f: impl FnMut()) -> f64 {
        let run = || median(&timed_reps(self.rung, 3, 200, f));
        self.tracer.span(layer, name, None, 0, 1, run).0
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.v.insert(name, value);
    }
}

/// Measure every per-layer metric of `w` within about `seconds`.
pub fn measure(w: &Workload, s: &Settings, seconds: f64, tracer: &Tracer) -> Ladder {
    let shape = s.shape(w);
    let mut rig = Rig {
        kind: w.kind,
        shape,
        seed: s.seed,
        opts: options(shape),
        a: gen::matrix(&mut gen::stream(s.seed, streams::MATRIX), shape.m, shape.n),
        rung: seconds / 14.0,
        tracer,
        v: BTreeMap::new(),
        check: Check::default(),
    };
    let (seq, seq_s) = core_rungs(&mut rig);
    let smp2_s = runtime_rungs(&mut rig, &seq, seq_s);
    fabric_rungs(&mut rig, smp2_s);
    proto_rung(&mut rig, &seq.r);
    daemon_rungs(&mut rig, &seq.r, seq_s);
    store_rung(&mut rig);
    tuner_rung(&mut rig);
    Ladder {
        values: rig.v,
        check: rig.check,
    }
}

/// `linalg` and `core`: the plan, the tile kernels, the single-thread
/// baseline, TSQR, and solve / append on the baseline's factors. Returns the
/// sequential factors and their median time.
fn core_rungs(rig: &mut Rig) -> (TileQrFactors, f64) {
    let (shape, opts) = (rig.shape, rig.opts.clone());
    let (mt, nt) = (shape.m / shape.nb, shape.n.div_ceil(shape.nb));
    let plan = opts.plan(mt, nt);
    let builds = timed_reps(rig.rung / 10.0, 3, 1000, || {
        let plan = opts.plan(mt, nt);
        black_box(
            (0..plan.panels())
                .map(|j| plan.panel_ops(j))
                .collect::<Vec<Vec<PanelOp>>>(),
        );
    });
    rig.put("core.plan_build_us", median(&builds) * 1e6);
    let plan_ops: usize = (0..plan.panels()).map(|j| plan.panel_ops(j).len()).sum();
    rig.put("core.plan_ops", plan_ops as f64);

    let (tracer, seed) = (rig.tracer, rig.seed);
    tracer.span("linalg", "kernels", None, 0, 1, || {
        linalg_rung(shape, &plan, seed, &mut rig.v)
    });

    let mut seq = None;
    let seq_s = rig.timed("core", "tile_qr_seq", || {
        seq = Some(tile_qr_seq(&rig.a, &opts))
    });
    let seq = seq.expect("at least three reps ran");
    rig.put("core.seq_s_p50", seq_s);
    rig.put(
        "core.seq_over_kernel_mix",
        seq_s / rig.v["linalg.kernel_mix_s"],
    );
    rig.put("core.residual", seq.residual(&rig.a));
    let mut tsqr = None;
    let tsqr_s = rig.timed("core", "tile_qr_tsqr", || {
        tsqr = Some(tile_qr_tsqr(&rig.a, &opts, 2))
    });
    rig.put("core.tsqr_s_p50", tsqr_s);
    let tsqr = tsqr.expect("at least three reps ran");
    let diff = bit_diff(&tsqr.r, &seq.r);
    rig.check
        .op((diff != 0).then(|| format!("{diff} R entries of tile_qr_tsqr differ")));
    rig.put("core.r_bitdiff", diff as f64);

    let x0 = gen::matrix(&mut gen::stream(seed, streams::RHS), shape.n, 1);
    let b = rig.a.matmul(&x0);
    let e = gen::matrix(&mut gen::stream(seed, streams::ROWS), shape.nb, shape.n);
    let solves = timed_reps(rig.rung / 2.0, 5, 2000, || {
        black_box(seq.try_solve_ls(&b).expect("R is nonsingular"));
    });
    rig.put("core.solve_us_p50", median(&solves) * 1e6);
    let appends = timed_reps(rig.rung / 2.0, 5, 2000, || {
        black_box(append_rows(&seq, &e).expect("tall factors take a tile row"));
    });
    rig.put("core.append_rows_us_p50", median(&appends) * 1e6);
    (seq, seq_s)
}

/// `runtime`: one worker, the workload's own executor configuration, an
/// empty firing, and the pool. Returns the median time on `smp(2)`.
fn runtime_rungs(rig: &mut Rig, seq: &TileQrFactors, seq_s: f64) -> f64 {
    let opts = rig.opts.clone();
    let smp1 = RunConfig::smp(1);
    let smp1_s = rig.timed("runtime", "tile_qr_vsa smp(1)", || {
        black_box(tile_qr_vsa(&rig.a, &opts, &smp1));
    });
    let cfg = run_config(rig.kind, rig.shape);
    let mut run = None;
    let vsa_s = rig.timed("runtime", "tile_qr_vsa", || {
        run = Some(tile_qr_vsa(&rig.a, &opts, &cfg))
    });
    let run = run.expect("at least three reps ran");
    let firings = run.stats.fired as f64;
    rig.put("runtime.firings", firings);
    rig.put(
        "runtime.peak_channel_depth",
        run.stats.peak_channel_depth as f64,
    );
    rig.put("runtime.imbalance", run.stats.imbalance());
    rig.put("runtime.smp1_s_p50", smp1_s);
    rig.put("runtime.ns_per_firing", (smp1_s - seq_s) / firings * 1e9);
    rig.put("runtime.vsa_over_seq", vsa_s / seq_s);
    rig.put("runtime.null_firing_ns", null_firing_ns(rig.rung / 2.0));

    // Every executor must reproduce the sequential R bit for bit.
    let diff = bit_diff(&run.factors.r, &seq.r);
    rig.check
        .op((diff != 0).then(|| format!("{diff} R entries of tile_qr_vsa differ")));
    rig.put("core.r_bitdiff", rig.v["core.r_bitdiff"] + diff as f64);

    let pool = VsaPool::new(2);
    let dispatches = timed_reps(rig.rung / 4.0, 100, 20_000, || pool.run_scoped(&|_, _| {}));
    rig.put("runtime.pool_dispatch_us", median(&dispatches) * 1e6);
    let smp2 = RunConfig::smp(2);
    let smp2_s = rig.timed("runtime", "tile_qr_vsa smp(2)", || {
        black_box(tile_qr_vsa(&rig.a, &opts, &smp2));
    });
    let pooled_s = rig.timed("runtime", "tile_qr_vsa_batch_pooled", || {
        let job = [(&rig.a, &opts)];
        black_box(tile_qr_vsa_batch_pooled(&job, &smp2, &pool).expect("pooled run"));
    });
    rig.put("runtime.pooled_over_fresh", pooled_s / smp2_s);
    smp2_s
}

/// `fabric`: the same job over two virtual nodes, and the raw transports.
fn fabric_rungs(rig: &mut Rig, smp2_s: f64) {
    let opts = rig.opts.clone();
    let cluster = cluster_config(rig.shape);
    let mut run = None;
    let cluster_s = rig.timed("fabric", "tile_qr_vsa cluster(2,1)", || {
        run = Some(tile_qr_vsa(&rig.a, &opts, &cluster))
    });
    let stats = run.expect("at least three reps ran").stats;
    rig.put("fabric.remote_msgs", stats.remote_msgs as f64);
    rig.put("fabric.wire_bytes", stats.wire_bytes_sent as f64);
    rig.put("fabric.deferred_msgs", stats.deferred_msgs as f64);
    rig.put("fabric.proxy_idle_spins", stats.proxy_idle_spins as f64);
    rig.put(
        "fabric.bytes_over_lower_bound",
        stats.wire_bytes_sent as f64 / tsqr_lower_bound_bytes(rig.shape.n, 2),
    );
    let net = NetModel::seastar2();
    rig.put(
        "fabric.netmodel_pred_s",
        (stats.remote_msgs as f64 * net.latency_us
            + stats.wire_bytes_sent as f64 / net.bytes_per_us)
            * 1e-6,
    );
    rig.put("fabric.cluster_over_smp", cluster_s / smp2_s);
    let tile_bytes = 8 * rig.shape.nb * rig.shape.nb;
    let mut mesh = InProcFabric::<Vec<u8>>::mesh(2);
    let (f1, f0) = (mesh.pop().expect("rank 1"), mesh.pop().expect("rank 0"));
    rig.put(
        "fabric.inproc_pingpong_us",
        pingpong_us(f0, f1, tile_bytes, rig.rung / 4.0),
    );
    rig.put(
        "fabric.tcp_pingpong_us",
        tcp_pingpong_us(tile_bytes, rig.rung / 4.0),
    );
}

/// `proto`: encoding and decoding the four messages of one job.
fn proto_rung(rig: &mut Rig, r: &Matrix) {
    let msgs = [
        Msg::Submit {
            nb: rig.shape.nb as u32,
            ib: rig.shape.ib as u32,
            deadline_ms: 0,
            keep: false,
            idem: 0,
            tree: rig.shape.tree.to_string(),
            a: rig.a.clone(),
        },
        Msg::SubmitOk { job: 1 },
        Msg::Result { job: 1 },
        Msg::RFactor {
            job: 1,
            r: r.clone(),
        },
    ];
    let mut frames = Vec::new();
    let encodes = timed_reps(rig.rung / 4.0, 5, 2000, || {
        frames = msgs.iter().map(|m| encode_msg(m, 7)).collect();
    });
    let decodes = timed_reps(rig.rung / 4.0, 5, 2000, || {
        for f in &frames {
            black_box(decode_msg(f).expect("own frames decode"));
        }
    });
    rig.put("proto.encode_us", median(&encodes) * 1e6);
    rig.put("proto.decode_us", median(&decodes) * 1e6);
    rig.put(
        "proto.bytes_per_job",
        frames.iter().map(Vec::len).sum::<usize>() as f64,
    );
}

/// `service`, `wire`, `router`: the same job through the daemon's layers —
/// the in-process service, one TCP connection, and a router in front.
fn daemon_rungs(rig: &mut Rig, oracle_r: &Matrix, seq_s: f64) {
    let job_pool = Arc::new(vec![rig.a.clone()]);
    let port_inputs = || (job_pool.clone(), rig.opts.clone());
    let verify = |_: usize, r: &Matrix| bit_diff(r, oracle_r) == 0;
    let mut picks = std::iter::repeat(0usize);
    let (rung, tracer) = (rig.rung, rig.tracer);
    let burst = BURST;
    let mut run_closed = |port: &mut dyn JobPort, burst: usize, check: &mut Check| {
        // One job to warm the path, then at least two bursts.
        closed_loop(port, 0.0, 1, &mut picks, &verify, check);
        let mut bursts = closed_loop(port, rung, burst, &mut picks, &verify, check);
        if bursts.len() < 2 {
            bursts.extend(closed_loop(port, 0.0, burst, &mut picks, &verify, check));
        }
        bursts
    };

    let daemon = Daemon::start(serve_config());
    let (pool, opts) = port_inputs();
    let mut inproc = InprocPort {
        service: daemon.service.clone(),
        pool,
        opts,
    };
    let inproc_bursts = run_closed(
        &mut TracedPort::new(&mut inproc, tracer, "service", 2),
        burst,
        &mut rig.check,
    );
    let stats = Json::parse(&daemon.service.stats_json()).expect("service stats are JSON");
    let mut v = BTreeMap::new();
    v.insert("service.inproc_jobs_per_s", jobs_per_s(&inproc_bursts));
    v.insert("service.inproc_job_ms_p50", per_job_ms(&inproc_bursts));
    v.insert(
        "service.over_core",
        per_job_ms(&inproc_bursts) / (seq_s * 1e3),
    );
    v.insert("service.batches", stat(&stats, &["batches"]));
    v.insert(
        "service.jobs_per_batch",
        stat(&stats, &["jobs_done"]) / stat(&stats, &["batches"]),
    );
    v.insert("service.queue_peak", stat(&stats, &["queue_peak"]));
    v.insert(
        "service.pool_utilization",
        stat(&stats, &["pool_utilization"]),
    );
    v.insert("service.jobs_rejected", stat(&stats, &["jobs_rejected"]));

    let (pool, opts) = port_inputs();
    let mut tcp = TcpPort {
        client: daemon.connect(),
        pool,
        opts,
    };
    let pings = timed_reps(rung / 4.0, 20, 5000, || {
        tcp.client.ping().expect("daemon answers pings");
    });
    v.insert("wire.rtt_us_p50", median(&pings) * 1e6);
    let mut traced_tcp = TracedPort::new(&mut tcp, tracer, "wire", 3);
    let tcp_bursts = run_closed(&mut traced_tcp, burst, &mut rig.check);
    v.insert("wire.submit_ack_us_p50", median(&traced_tcp.acks_us));
    v.insert(
        "wire.result_wait_ms_p50",
        median(&traced_tcp.waits_us) / 1e3,
    );
    v.insert(
        "wire.tcp_over_inproc",
        jobs_per_s(&tcp_bursts) / jobs_per_s(&inproc_bursts),
    );

    let direct_ms = per_job_ms(&run_closed(&mut tcp, 1, &mut rig.check));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let raddr = listener.local_addr().expect("bound").to_string();
    let router = Router::new(RouteConfig {
        replicate_under: 0,
        ..RouteConfig::default()
    });
    let front = std::thread::spawn(move || route(listener, router));
    let (pool, opts) = port_inputs();
    let mut routed = TcpPort {
        client: connect(&raddr),
        pool,
        opts,
    };
    routed
        .client
        .join(&daemon.addr, 2, 256 << 20, "benchmark")
        .expect("the daemon joins the router");
    let routed_ms = per_job_ms(&run_closed(
        &mut TracedPort::new(&mut routed, tracer, "router", 4),
        1,
        &mut rig.check,
    ));
    v.insert("router.hop_ms_p50", routed_ms - direct_ms);
    let routed_bursts = run_closed(&mut routed, burst, &mut rig.check);
    v.insert("router.jobs_per_s", jobs_per_s(&routed_bursts));
    // Draining the router cascades to its worker: both accept loops end.
    routed.client.drain().expect("router drains");
    front
        .join()
        .expect("router front end does not panic")
        .expect("router front end exits cleanly");
    drop((tcp, routed, inproc));
    daemon.join();
    rig.v.extend(v);
}

/// `tuner`: one lookup in a small profile table holding this shape.
fn tuner_rung(rig: &mut Rig) {
    let shape = rig.shape;
    let mut table = ProfileTable::new();
    let shapes = [
        (512, 512),
        (1024, 256),
        (1024, 32),
        (4096, 16),
        (shape.m, shape.n),
    ];
    for (i, (m, n)) in shapes.into_iter().enumerate() {
        table.insert(ProfileCell {
            m,
            n,
            threads: 2,
            tree: shape.tree.clone(),
            nb: shape.nb,
            ib: shape.ib,
            backend: Backend::Vsa3d,
            gflops: 1.0 + i as f64,
            samples: 1,
        });
    }
    let lookups = timed_reps(rig.rung / 10.0, 1000, 200_000, || {
        black_box(table.lookup(black_box(shape.m), black_box(shape.n), 2));
    });
    rig.put("tuner.lookup_ns", median(&lookups) * 1e9);
}

/// `store`: one kept factorization in a fresh in-process service, 40 solves
/// and 10 updates (so `store.hits` and friends repeat exactly), then direct
/// `FactorStore` inserts and gets.
fn store_rung(rig: &mut Rig) {
    let (shape, seed) = (rig.shape, rig.seed);
    let service = Service::start(serve_config());
    let mut port = InprocPort {
        service: service.clone(),
        pool: Arc::new(Vec::new()),
        opts: rig.opts.clone(),
    };
    let inputs = MixInputs {
        pool: Arc::new(vec![rig.a.clone()]),
        x0: vec![gen::matrix(
            &mut gen::stream(seed, streams::RHS),
            shape.n,
            1,
        )],
        rows: vec![gen::matrix(
            &mut gen::stream(seed, streams::ROWS),
            shape.nb,
            shape.n,
        )],
    };
    let kept = keep(&mut port, &inputs, 0).expect("keep one factorization");
    let (handle, rhs) = (kept.handle(), kept.rhs());
    let check = &mut rig.check;
    let solves = timed_reps(0.0, 40, 40, || {
        check.op(match port.solve(handle, &rhs) {
            Err(e) => Some(format!("store solve failed: {e}")),
            // Loose on purpose: a square shape is ill-conditioned, and the
            // end-to-end run holds solves to the tight tolerance.
            Ok(x) => {
                off_by(&x, kept.solution(), 1e-6).map(|err| format!("store solve off by {err:e}"))
            }
        });
    });
    let updates = timed_reps(0.0, 10, 10, || {
        let rows = port.update(handle, &inputs.rows[0]);
        check.op(rows.err().map(|e| format!("store update failed: {e}")));
    });
    let stats = Json::parse(&service.drain()).expect("service stats are JSON");
    let (hits, misses) = (
        stat(&stats, &["store", "hits"]),
        stat(&stats, &["store", "misses"]),
    );
    rig.put("store.solve_us_p50", median(&solves) * 1e6);
    rig.put("store.update_us_p50", median(&updates) * 1e6);
    rig.put("store.hits", hits);
    rig.put("store.misses", misses);
    rig.put("store.inserts", stat(&stats, &["store", "inserts"]));
    rig.put("store.evictions", stat(&stats, &["store", "evictions"]));
    rig.put("store.hit_ratio", hits / (hits + misses).max(1.0));
    rig.put("store.bytes", stat(&stats, &["store", "bytes"]));

    let factors = Arc::new(tile_qr_seq(&rig.a, &rig.opts));
    let mut store = FactorStore::new(usize::MAX / 2);
    let mut next = 0u64;
    let inserts = timed_reps(rig.rung / 8.0, 20, 5000, || {
        next += 1;
        store
            .insert(FactorHandle::from_raw(next), factors.clone())
            .expect("budget is unbounded");
    });
    let mut at = 0u64;
    let gets = timed_reps(rig.rung / 8.0, 20, 5000, || {
        at = at % next + 1;
        black_box(store.get(FactorHandle::from_raw(at)).expect("resident"));
    });
    rig.put("store.direct_insert_us", median(&inserts) * 1e6);
    rig.put("store.direct_get_us", median(&gets) * 1e6);
}
