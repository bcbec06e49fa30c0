//! The CLI subcommands. Each returns its report as a `String` so the whole
//! surface is unit-testable without capturing stdout.

use crate::args::{parse_tree, Args};
use crate::error::CliError;
use pulsar_core::mapping::{qr_mapping, RowDist};
use pulsar_core::plan::Tree;
use pulsar_core::policy::PlanPolicy;
use pulsar_core::vsa3d::VsaQrResult;
use pulsar_core::QrOptions;
use pulsar_linalg::{flops, Matrix};
use pulsar_runtime::{NetModel, RunConfig};
use pulsar_sim::{Machine, RuntimeModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Top-level usage text. The exit-code section is rendered from
/// [`crate::error::EXIT_CODES`] so `--help` cannot drift from the code.
pub fn usage() -> String {
    let mut text = String::from(
        "\
pulsar-qr — tree-based QR on a virtual systolic array

USAGE: pulsar-qr <command> [--option value]...

COMMANDS
  factor    factorize a random tall-skinny matrix on the runtime and verify
            --rows N --cols N [--nb 64] [--ib nb/4] [--tree hier:4]
            [--threads 4] [--nodes 1]
            [--engine vsa3d|seq|tsqr]
            [--seed 42] [--net seastar] [--trace-out trace.json]
            [--profile table.json] (plan defaults from the tuned policy;
            prints the chosen `PLAN ...`) [--stats true] (adds the
            build / prepare / run / collect split of the call)
  ls        solve a random least-squares problem, report residuals/cond
            --rows N --cols N [--rhs 1] [--nb 64] [--ib nb/4]
            [--tree hier:4] [--threads 4] [--seed 42]
  simulate  model a factorization on a Kraken-like machine (paper Figs 10/11)
            --m N --n N --cores N [--nb 192] [--ib 48] [--tree hier:6]
            [--dist block|cyclic] [--runtime pulsar|parsec]
  tune      rank candidate trees on the machine model, or — with
            --profile — measure candidate plans on this machine's real
            executors and write each shape's winner to a profile table
            model:    --m N --n N --cores N [--nb 192] [--ib 48]
            measured: --profile table.json
            [--shapes 256x256,512x128,1024x32,2048x8] [--threads 4]
            [--reps 3] [--nb-list 8,16,32,64] [--seed 42]
            [--pool-crossover false]
  cholesky  factor a random SPD matrix on the runtime and verify
            --n N [--nb 64] [--threads 4] [--seed 42]
  launch    distributed QR: spawn N worker processes meshed over TCP,
            verify each rank's R tiles against a shared-memory run
            [--nodes 2] [--rows 64] [--cols 16] [--nb 8] [--ib nb/4]
            [--tree hier:2] [--threads 2] [--seed 42] [--stats]
            [--rendezvous-timeout-ms 10000] [--heartbeat-ms MS]
            [--fault-plan SPEC] [--retry-attempts N] [--retry-backoff-ms 50]
            [--checkpoint-dir DIR] [--checkpoint-every-ms MS]
  resume    finish a checkpointed `launch` run after a crash: restore every
            rank from the newest epoch all ranks completed, continue, verify
            <dir> (the --checkpoint-dir of the original launch)
  worker    one rank of a distributed run (spawned by `launch`; reads the
            peer address table on stdin)
            --rank R --nodes N [qr options as for launch]
  serve     run a persistent QR service: warm worker pool, job batching,
            typed backpressure; prints `SERVE <addr>` when ready and runs
            until a client drains it
            [--port 0] [--threads 2] [--queue-cap 32] [--batch-max 4]
            [--batch-mb 64] [--retry-ms 50] [--store-mb 256] [--stats true]
            [--trace-out trace.json] [--profile table.json] (route
            tall-skinny jobs to the TSQR fast path, refine the table
            online, persist it on drain)
  submit    drive a serve daemon: factor a random matrix (default verb) or
            exercise a stored factorization; every verb self-verifies
            against a local oracle re-derived from the seed
            --addr HOST:PORT --rows N --cols N [--nb 8] [--ib nb/4]
            [--tree greedy] [--seed 42] [--deadline-ms 0] [--cancel true]
            [--verb factor|solve|apply-q|update] [--keep true] (prints
            `HANDLE <id>`) [--handle H] [--rhs 1] [--append-rows P]
            [--burst N] (pipeline N identical jobs, print BURST-JOBS-PER-S)
            [--profile table.json] (unpinned nb/ib/tree from the tuned
            policy for --rows x --cols at [--threads 2])
  drain     shut a serve daemon down (queued jobs finish first) and print
            its final stats JSON
            --addr HOST:PORT
  route     shard submits across worker nodes: health-checked least-loaded
            placement, small jobs replicated (first answer wins), node
            death re-dispatches journaled jobs to survivors; prints
            `ROUTE <addr>` when ready and runs until drained (a drain
            cascades to every member worker)
            [--port 0] [--heartbeat-ms 50] [--probe-timeout-ms 250]
            [--replicate-under-kb 32] [--ledger-cap 256]
            [--redispatch-max 3] [--dial-timeout-ms 1000]
            [--idem-cap 1024] [--drain-grace-ms 250] [--stats true]
  join      register a worker with a router (capability report attached);
            prints `NODE <id>` — routed handles are `<id>:<handle>`
            --addr ROUTER --worker HOST:PORT [--threads 2]
            [--store-mb 256] [--gemm-tier detected]
  leave     stop a router placing new jobs on a node (drain-then-leave:
            in-flight work and stored factors keep routing); prints
            `LEFT <id>`
            --addr ROUTER --node ID
TREES: flat | binary | greedy | hier:H | domains:a,b,...
FAULT PLANS: comma-separated seed=N,drop=P,dup=P,delay=P,delay-steps=N,
             corrupt=P,trunc=P,kill=RANK@SENDS,disconnect=RANK@SENDS
             (probabilities in [0,1])
EXIT CODES
",
    );
    for (code, what) in crate::error::EXIT_CODES {
        writeln!(text, "  {code}  {what}").unwrap();
    }
    text
}

/// Dispatch a parsed command line.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "factor" => factor(args).map_err(CliError::from),
        "ls" => least_squares(args).map_err(CliError::from),
        "simulate" => simulate(args).map_err(CliError::from),
        "tune" => tune(args).map_err(CliError::from),
        "cholesky" => cholesky(args).map_err(CliError::from),
        "launch" => crate::dist::launch(args),
        "resume" => crate::dist::resume(args),
        "worker" => crate::dist::worker(args),
        "serve" => crate::serve_cmd::serve(args),
        "submit" => crate::serve_cmd::submit(args),
        "drain" => crate::serve_cmd::drain(args),
        "route" => crate::route_cmd::route(args),
        "join" => crate::route_cmd::join(args),
        "leave" => crate::route_cmd::leave(args),
        "help" | "--help" => Ok(usage()),
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// `value` of flag `--name`, refused when zero.
fn positive(name: &str, value: usize) -> Result<usize, String> {
    if value == 0 {
        return Err(format!("--{name} must be positive"));
    }
    Ok(value)
}

/// `--cores`, refused below one Kraken node: the machine model has no
/// partial nodes.
fn kraken_cores(args: &Args) -> Result<(usize, Machine), String> {
    let cores = positive("cores", args.req("cores")?)?;
    if cores < 12 {
        return Err("--cores must be at least 12 (one Kraken node)".into());
    }
    Ok((cores, Machine::kraken_cores(cores)))
}

fn opts_from(args: &Args, default_nb: usize, default_tree: Tree) -> Result<QrOptions, String> {
    let nb = positive("nb", args.opt("nb", default_nb)?)?;
    let ib = positive("ib", args.opt("ib", (nb / 4).max(1))?)?;
    let tree = match args.get("tree") {
        Some(s) => parse_tree(s)?,
        None => default_tree,
    };
    Ok(QrOptions::new(nb, ib, tree))
}

fn factor(args: &Args) -> Result<String, String> {
    args.ensure_known(&[
        "rows",
        "cols",
        "nb",
        "ib",
        "tree",
        "threads",
        "nodes",
        "engine",
        "seed",
        "net",
        "trace-out",
        "profile",
        "stats",
    ])?;
    let m = positive("rows", args.req("rows")?)?;
    let n = positive("cols", args.req("cols")?)?;
    let threads = positive("threads", args.opt("threads", 4)?)?;
    let want_stats: bool = args.opt("stats", false)?;

    // With a profile table, the plan defaults come from the tuned policy
    // for this shape; explicit --nb/--ib/--tree/--engine still win
    // field-by-field.
    let mut plan_line = None;
    let (default_nb, default_ib, default_tree, default_engine) = match args.get("profile") {
        Some(path) => {
            let table = pulsar_tuner::ProfileTable::load(std::path::Path::new(path))
                .map_err(|e| format!("loading profile {path}: {e}"))?;
            let policy = pulsar_tuner::ProfilePolicy::new(table);
            let choice = PlanPolicy::choose(&policy, m, n, threads);
            plan_line = Some(format!("PLAN {}", choice.describe()));
            let engine = choice.backend.to_string();
            (choice.nb, choice.ib, choice.tree, engine)
        }
        None => (64, 16, Tree::BinaryOnFlat { h: 4 }, "vsa3d".to_string()),
    };
    let nb = positive("nb", args.opt("nb", default_nb)?)?;
    let ib = args.opt(
        "ib",
        if nb == default_nb {
            default_ib
        } else {
            (nb / 4).max(1)
        },
    )?;
    let ib = positive("ib", ib)?;
    let tree = match args.get("tree") {
        Some(s) => parse_tree(s)?,
        None => default_tree,
    };
    let opts = QrOptions::new(nb, ib, tree);
    if !m.is_multiple_of(opts.nb) {
        return Err(format!("--rows must be a multiple of nb ({})", opts.nb));
    }
    let nodes: usize = args.opt("nodes", 1)?;
    let engine: String = args.opt("engine", default_engine)?;
    let seed: u64 = args.opt("seed", 42)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(m, n, &mut rng);
    let mut config = if nodes <= 1 {
        RunConfig::smp(threads)
    } else {
        let plan = opts.plan(m / opts.nb, n.div_ceil(opts.nb));
        RunConfig::cluster(
            nodes,
            threads,
            qr_mapping(&plan, RowDist::Block, nodes, threads),
        )
    };
    if args.get("net") == Some("seastar") {
        config = config.with_net(NetModel::seastar2());
    }
    let trace_out = args.get("trace-out").map(str::to_string);
    if trace_out.is_some() {
        if matches!(engine.as_str(), "seq" | "tsqr") {
            return Err("--trace-out needs the runtime engine (vsa3d)".into());
        }
        config = config.with_trace();
    }

    let t0 = Instant::now();
    // The runtime engines also report their run; the others only factor.
    let on_runtime = |r: VsaQrResult| (r.factors, Some((r.stats, r.build)), r.trace);
    let (factors, stats, trace) = match engine.as_str() {
        "vsa3d" => on_runtime(pulsar_core::vsa3d::tile_qr_vsa(&a, &opts, &config)),
        "seq" => (pulsar_core::tile_qr_seq(&a, &opts), None, None),
        "tsqr" => (pulsar_core::tile_qr_tsqr(&a, &opts, threads), None, None),
        other => return Err(format!("unknown engine `{other}`")),
    };
    let dt = t0.elapsed().as_secs_f64();

    let mut out = String::new();
    if let Some(line) = plan_line {
        writeln!(out, "{line}").unwrap();
    }
    writeln!(
        out,
        "factor {m}x{n}  nb={} ib={} tree={:?} engine={engine}",
        opts.nb, opts.ib, opts.tree
    )
    .unwrap();
    writeln!(
        out,
        "time {:.1} ms   {:.2} Gflop/s",
        dt * 1e3,
        flops::qr_flops(m, n) / dt * 1e-9
    )
    .unwrap();
    if let Some((s, build)) = stats {
        writeln!(
            out,
            "firings {}   remote msgs {}   load imbalance {:.2}",
            s.fired,
            s.remote_msgs,
            s.imbalance()
        )
        .unwrap();
        if want_stats {
            // The call's phases: describing the array, wiring it into the
            // run's arenas, the workers, and draining exits into factors.
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            writeln!(
                out,
                "build_ms {:.2}   prepare_ms {:.2}   run_ms {:.2}   collect_ms {:.2}   peak channel depth {}",
                ms(build),
                ms(s.prepare),
                ms(s.wall - s.prepare),
                dt * 1e3 - ms(build) - ms(s.wall),
                s.peak_channel_depth
            )
            .unwrap();
        }
    }
    if let Some(path) = trace_out {
        let trace = trace.ok_or("engine produced no trace")?;
        std::fs::write(&path, trace.to_chrome_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(out, "trace: {} spans -> {path}", trace.spans.len()).unwrap();
    }
    let resid = factors.residual(&a);
    writeln!(out, "residual ||A-QR||/(||A|| max(m,n)) = {resid:.2e}").unwrap();
    if resid > 1e-12 {
        return Err(format!("verification FAILED: residual {resid:.2e}\n{out}"));
    }
    writeln!(out, "verification OK").unwrap();
    Ok(out)
}

fn least_squares(args: &Args) -> Result<String, String> {
    args.ensure_known(&["rows", "cols", "rhs", "nb", "ib", "tree", "threads", "seed"])?;
    let m = positive("rows", args.req("rows")?)?;
    let n = positive("cols", args.req("cols")?)?;
    if m < n {
        return Err("least squares needs --rows >= --cols".into());
    }
    let nrhs: usize = args.opt("rhs", 1)?;
    let opts = opts_from(args, 64, Tree::BinaryOnFlat { h: 4 })?;
    if !m.is_multiple_of(opts.nb) {
        return Err(format!("--rows must be a multiple of nb ({})", opts.nb));
    }
    let threads = positive("threads", args.opt("threads", 4)?)?;
    let seed: u64 = args.opt("seed", 42)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(m, n, &mut rng);
    let b = Matrix::random(m, nrhs, &mut rng);
    let t0 = Instant::now();
    let sol = pulsar_core::least_squares(&a, &b, &opts, &RunConfig::smp(threads));
    let dt = t0.elapsed().as_secs_f64();

    let mut out = String::new();
    writeln!(out, "least squares {m}x{n}, {nrhs} rhs: {:.1} ms", dt * 1e3).unwrap();
    writeln!(
        out,
        "cond(R) estimate: {:.2e}",
        sol.factors.r_condition_estimate()
    )
    .unwrap();
    for (j, r) in sol.residual_norms.iter().enumerate() {
        writeln!(out, "rhs {j}: ||Ax-b|| = {r:.6e}").unwrap();
    }
    // Optimality check: A^T (A x - b) ~ 0.
    let resid = a.matmul(&sol.x).sub(&b);
    let atr = a.transpose().matmul(&resid).norm_fro();
    writeln!(out, "||A^T (Ax-b)|| = {atr:.2e}").unwrap();
    if atr > 1e-8 * a.norm_fro() * b.norm_fro().max(1.0) {
        return Err(format!("normal equations not satisfied\n{out}"));
    }
    writeln!(out, "verification OK").unwrap();
    Ok(out)
}

fn simulate(args: &Args) -> Result<String, String> {
    args.ensure_known(&["m", "n", "cores", "nb", "ib", "tree", "dist", "runtime"])?;
    let m = positive("m", args.req("m")?)?;
    let n = positive("n", args.req("n")?)?;
    let (_, mach) = kraken_cores(args)?;
    let opts = opts_from(args, 192, Tree::BinaryOnFlat { h: 6 })?;
    if !m.is_multiple_of(opts.nb) {
        return Err(format!("--m must be a multiple of nb ({})", opts.nb));
    }
    let dist = match args.opt("dist", "block".to_string())?.as_str() {
        "block" => RowDist::Block,
        "cyclic" => RowDist::Cyclic,
        other => return Err(format!("unknown dist `{other}`")),
    };
    let model = match args.opt("runtime", "pulsar".to_string())?.as_str() {
        "pulsar" => RuntimeModel::pulsar(),
        "parsec" => pulsar_sim::baselines::parsec_model(),
        other => return Err(format!("unknown runtime model `{other}`")),
    };
    let g = pulsar_sim::build_tree_qr_graph(m, n, &opts, dist, &mach, model);
    let cp = g.critical_path_us(&mach);
    let r = pulsar_sim::simulate(&g, &mach);

    let mut out = String::new();
    writeln!(
        out,
        "simulate {m}x{n} on {} nodes x {} cores (Kraken model), tree={:?}",
        mach.nodes, mach.cores_per_node, opts.tree
    )
    .unwrap();
    writeln!(
        out,
        "makespan  {:.3} s   ({:.0} Gflop/s)",
        r.makespan_s, r.gflops
    )
    .unwrap();
    writeln!(out, "critical path lower bound {:.3} s", cp * 1e-6).unwrap();
    writeln!(
        out,
        "tasks {}   busy {:.1}%   remote {} msgs / {:.2} GB   peak node mem {:.2} GB",
        r.tasks,
        r.busy_fraction * 100.0,
        r.remote_messages,
        r.remote_bytes as f64 / 1e9,
        g.peak_node_bytes as f64 / 1e9
    )
    .unwrap();
    writeln!(out, "kernel breakdown (busy us):").unwrap();
    for (k, t) in &r.kernel_breakdown_us {
        writeln!(out, "  {k:<6} {t:>15.0}").unwrap();
    }
    Ok(out)
}

fn tune(args: &Args) -> Result<String, String> {
    // Two modes share the verb: `--profile PATH` runs a *measured* sweep
    // on this machine's real executors and writes the winners to a
    // profile table; without it, the original machine-model ranking runs.
    if args.get("profile").is_some() {
        return tune_measured(args);
    }
    args.ensure_known(&["m", "n", "cores", "nb", "ib"])?;
    let m = positive("m", args.req("m")?)?;
    let n = positive("n", args.req("n")?)?;
    let (cores, mach) = kraken_cores(args)?;
    let nb = positive("nb", args.opt("nb", 192)?)?;
    let ib = positive("ib", args.opt("ib", (nb / 4).max(1))?)?;
    if !m.is_multiple_of(nb) {
        return Err(format!("--m must be a multiple of nb ({nb})"));
    }
    let mt = m / nb;
    let mut hs = vec![2usize, 3, 6, 12, 24];
    hs.retain(|&h| h < mt);
    let report = pulsar_sim::autotune::tune_h(m, n, nb, ib, &mach, RowDist::Block, &hs);

    let mut out = String::new();
    writeln!(out, "tuning {m}x{n} on {cores} cores (nb={nb}, ib={ib})").unwrap();
    writeln!(out, "{:<26} {:>12} {:>10}", "tree", "Gflop/s", "time (s)").unwrap();
    for (tree, r) in &report.ranked {
        writeln!(
            out,
            "{:<26} {:>12.0} {:>10.3}",
            format!("{tree:?}"),
            r.gflops,
            r.makespan_s
        )
        .unwrap();
    }
    writeln!(out, "winner: {:?}", report.best().0).unwrap();
    Ok(out)
}

/// `tune --profile`: measure candidate plans per shape on the real
/// executors and persist each shape's winner. An existing table at the
/// path is extended (cells for re-swept shapes are replaced), so repeated
/// runs refine coverage instead of discarding it.
fn tune_measured(args: &Args) -> Result<String, String> {
    args.ensure_known(&[
        "profile",
        "shapes",
        "threads",
        "reps",
        "nb-list",
        "seed",
        "pool-crossover",
    ])?;
    let path = std::path::PathBuf::from(args.get("profile").expect("dispatched on --profile"));
    let shapes_spec: String = args.opt("shapes", "256x256,512x128,1024x32,2048x8".to_string())?;
    let mut shapes = Vec::new();
    for part in shapes_spec.split(',') {
        let (m, n) = part
            .split_once('x')
            .ok_or_else(|| format!("bad shape `{part}` (use MxN)"))?;
        let m: usize = m
            .trim()
            .parse()
            .map_err(|_| format!("bad rows in `{part}`"))?;
        let n: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("bad cols in `{part}`"))?;
        if m == 0 || n == 0 {
            return Err(format!("shape `{part}` must be positive"));
        }
        shapes.push((m, n));
    }
    let nb_spec: String = args.opt("nb-list", "8,16,32,64".to_string())?;
    let mut nb_list = Vec::new();
    for part in nb_spec.split(',') {
        let nb: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("bad nb `{part}` in --nb-list"))?;
        if nb == 0 {
            return Err("--nb-list entries must be positive".into());
        }
        nb_list.push(nb);
    }
    let cfg = pulsar_tuner::SweepConfig {
        shapes,
        threads: args.opt("threads", 4)?,
        reps: args.opt("reps", 3)?,
        nb_list,
        seed: args.opt("seed", 42)?,
        pool_crossover: args.opt("pool-crossover", false)?,
    };

    let report = pulsar_tuner::run_sweep(&cfg);
    let mut table = if path.exists() {
        pulsar_tuner::ProfileTable::load(&path).map_err(|e| format!("loading {path:?}: {e}"))?
    } else {
        pulsar_tuner::ProfileTable::new()
    };
    for cell in report.table.cells() {
        table.insert(cell.clone());
    }
    if report.table.pool_min_mnk.is_some() {
        table.pool_min_mnk = report.table.pool_min_mnk;
    }
    table
        .save(&path)
        .map_err(|e| format!("writing {path:?}: {e}"))?;

    let mut out = String::new();
    writeln!(
        out,
        "measured sweep on {} threads, {} rep(s)",
        cfg.threads, cfg.reps
    )
    .unwrap();
    for shape in &report.shapes {
        writeln!(out, "{}x{}:", shape.m, shape.n).unwrap();
        for (rank, c) in shape.ranked.iter().enumerate() {
            writeln!(
                out,
                "  {} {:<40} {:>9.2} Gflop/s",
                if rank == 0 { "*" } else { " " },
                c.choice.describe(),
                c.gflops
            )
            .unwrap();
        }
    }
    if cfg.pool_crossover {
        match table.pool_min_mnk {
            Some(mnk) => writeln!(out, "pooled-GEMM crossover: m*n*k >= {mnk}").unwrap(),
            None => writeln!(out, "pooled-GEMM crossover: not reached (pool stays off)").unwrap(),
        }
    }
    writeln!(
        out,
        "PROFILE {} ({} cells)",
        path.display(),
        table.cells().len()
    )
    .unwrap();
    Ok(out)
}

fn cholesky(args: &Args) -> Result<String, String> {
    args.ensure_known(&["n", "nb", "threads", "seed"])?;
    let n = positive("n", args.req("n")?)?;
    let nb = positive("nb", args.opt("nb", 64)?)?;
    if !n.is_multiple_of(nb) {
        return Err(format!("--n must be a multiple of nb ({nb})"));
    }
    let threads = positive("threads", args.opt("threads", 4)?)?;
    let seed: u64 = args.opt("seed", 42)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let b = Matrix::random(n, n, &mut rng);
    let mut a = Matrix::zeros(n, n);
    pulsar_linalg::blas::dgemm(
        pulsar_linalg::blas::Trans::No,
        pulsar_linalg::blas::Trans::Yes,
        1.0,
        &b,
        &b,
        0.0,
        &mut a,
    );
    for i in 0..n {
        a[(i, i)] += n as f64;
    }

    let t0 = Instant::now();
    let res = pulsar_core::cholesky::tile_cholesky_vsa(&a, nb, &RunConfig::smp(threads));
    let dt = t0.elapsed().as_secs_f64();
    let resid = pulsar_core::cholesky::cholesky_residual(&a, &res.l);

    let mut out = String::new();
    writeln!(out, "cholesky {n}x{n}  nb={nb}  threads={threads}").unwrap();
    writeln!(
        out,
        "time {:.1} ms   {:.2} Gflop/s   {} tasks",
        dt * 1e3,
        flops::cholesky_flops(n) / dt * 1e-9,
        res.stats.fired
    )
    .unwrap();
    writeln!(out, "residual ||A - L L^T||/(||A|| n) = {resid:.2e}").unwrap();
    if resid > 1e-12 {
        return Err(format!("verification FAILED\n{out}"));
    }
    writeln!(out, "verification OK").unwrap();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(line.iter().map(|s| s.to_string()))?;
        run(&args)
    }

    #[test]
    fn factor_smoke() {
        let out = run_line(&[
            "factor",
            "--rows",
            "32",
            "--cols",
            "8",
            "--nb",
            "4",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("verification OK"), "{out}");
    }

    #[test]
    fn factor_writes_a_chrome_trace() {
        let dir = std::env::temp_dir().join(format!("pulsar-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        // The engine on the runtime traces.
        let out = run_line(&[
            "factor",
            "--rows",
            "16",
            "--cols",
            "8",
            "--nb",
            "4",
            "--threads",
            "2",
            "--engine",
            "vsa3d",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("trace:"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "complete events: {json}");
        assert!(json.contains("\"pid\":"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
        // Engines without a tracing runtime refuse the flag.
        let err = run_line(&[
            "factor",
            "--rows",
            "16",
            "--cols",
            "8",
            "--nb",
            "4",
            "--engine",
            "seq",
            "--trace-out",
            "/dev/null",
        ])
        .unwrap_err();
        assert!(err.msg.contains("vsa3d"), "{}", err.msg);
    }

    #[test]
    fn factor_all_engines_agree_on_ok() {
        let engines = ["vsa3d", "seq", "tsqr"];
        for (engine, tree) in engines
            .iter()
            .flat_map(|e| ["flat", "hier:2", "greedy", "domains:3,2"].map(|t| (e, t)))
        {
            let out = run_line(&[
                "factor",
                "--rows",
                "24",
                "--cols",
                "8",
                "--nb",
                "4",
                "--engine",
                engine,
                "--tree",
                tree,
                "--threads",
                "2",
            ])
            .unwrap_or_else(|e| panic!("{engine} {tree}: {e}"));
            assert!(out.contains("verification OK"), "{engine} {tree}: {out}");
        }
        // The runtime engine places its VDPs with `qr_mapping`.
        let out = run_line(&[
            "factor",
            "--rows",
            "24",
            "--cols",
            "8",
            "--nb",
            "4",
            "--engine",
            "vsa3d",
            "--nodes",
            "2",
            "--threads",
            "2",
        ])
        .unwrap_or_else(|e| panic!("vsa3d on 2 nodes: {e}"));
        assert!(out.contains("verification OK"), "{out}");
    }

    #[test]
    fn factor_multinode_with_net() {
        let out = run_line(&[
            "factor",
            "--rows",
            "32",
            "--cols",
            "8",
            "--nb",
            "4",
            "--nodes",
            "2",
            "--threads",
            "2",
            "--net",
            "seastar",
        ])
        .unwrap();
        assert!(out.contains("remote msgs"), "{out}");
        assert!(out.contains("verification OK"));
    }

    #[test]
    fn ls_smoke() {
        let out = run_line(&[
            "ls",
            "--rows",
            "32",
            "--cols",
            "8",
            "--nb",
            "4",
            "--rhs",
            "2",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("verification OK"), "{out}");
        assert!(out.contains("cond(R)"));
    }

    #[test]
    fn simulate_smoke() {
        let out = run_line(&[
            "simulate", "--m", "9216", "--n", "768", "--cores", "96", "--nb", "192",
        ])
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("kernel breakdown"));
    }

    #[test]
    fn tune_smoke() {
        let out = run_line(&["tune", "--m", "9216", "--n", "384", "--cores", "48"]).unwrap();
        assert!(out.contains("winner:"), "{out}");
    }

    /// End-to-end acceptance: a measured `tune --profile` writes a table
    /// that `factor --profile` consumes, and the chosen `{tree, nb}`
    /// (plus backend) differs between a square and a tall-skinny shape.
    #[test]
    fn tune_profile_feeds_factor_with_shape_dependent_plans() {
        let path =
            std::env::temp_dir().join(format!("pulsar-tune-e2e-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let out = run_line(&[
            "tune",
            "--profile",
            path.to_str().unwrap(),
            "--shapes",
            "64x64,512x8",
            "--threads",
            "2",
            "--reps",
            "1",
            "--nb-list",
            "8",
        ])
        .unwrap();
        assert!(out.contains("PROFILE"), "{out}");
        assert!(out.contains("(2 cells)"), "{out}");

        let plan_of = |rows: &str, cols: &str| -> String {
            let out = run_line(&[
                "factor",
                "--rows",
                rows,
                "--cols",
                cols,
                "--threads",
                "2",
                "--profile",
                path.to_str().unwrap(),
            ])
            .unwrap();
            assert!(out.contains("verification OK"), "{out}");
            out.lines()
                .find(|l| l.starts_with("PLAN "))
                .unwrap_or_else(|| panic!("no PLAN line in {out}"))
                .to_string()
        };
        let square = plan_of("64", "64");
        let tall = plan_of("512", "8");
        assert_ne!(square, tall, "tuned plans must differ by shape");
        assert!(tall.contains("backend=tsqr"), "{tall}");
        assert!(square.contains("backend=vsa3d"), "{square}");
        // Explicit flags still beat the profile.
        let pinned = run_line(&[
            "factor",
            "--rows",
            "512",
            "--cols",
            "8",
            "--nb",
            "4",
            "--engine",
            "seq",
            "--profile",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(pinned.contains("nb=4"), "{pinned}");
        assert!(pinned.contains("engine=seq"), "{pinned}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cholesky_smoke() {
        let out = run_line(&["cholesky", "--n", "16", "--nb", "4", "--threads", "2"]).unwrap();
        assert!(out.contains("verification OK"), "{out}");
    }

    /// `--help`, the README table, and [`crate::error::EXIT_CODES`] must
    /// agree on every exit code the CLI can produce.
    #[test]
    fn exit_code_docs_stay_in_sync() {
        let help = usage();
        let readme = include_str!("../../../README.md");
        for (code, what) in crate::error::EXIT_CODES {
            assert!(
                help.contains(&format!("{code}  {what}")),
                "--help is missing exit code {code} ({what})"
            );
            assert!(
                readme.contains(&format!("| `{code}` | {what} |")),
                "README exit-code table is missing {code} ({what})"
            );
        }
    }

    /// Run `line` and require a typed exit-1 error mentioning `want`.
    fn refused(line: &[&str], want: &str) {
        let err = run_line(line).unwrap_err();
        assert_eq!(err.code, 1, "{line:?}: {}", err.msg);
        assert!(err.msg.contains(want), "{line:?}: {}", err.msg);
    }

    #[test]
    fn ls_refuses_zero_sizes() {
        refused(
            &["ls", "--rows", "64", "--cols", "16", "--threads", "0"],
            "--threads must be positive",
        );
        refused(
            &["ls", "--rows", "64", "--cols", "0"],
            "--cols must be positive",
        );
    }

    #[test]
    fn simulate_refuses_zero_sizes_and_partial_nodes() {
        refused(
            &["simulate", "--m", "0", "--n", "192", "--cores", "12"],
            "--m must be positive",
        );
        refused(
            &["simulate", "--m", "1920", "--n", "192", "--cores", "0"],
            "--cores must be positive",
        );
        refused(
            &["simulate", "--m", "1920", "--n", "192", "--cores", "11"],
            "--cores must be at least 12 (one Kraken node)",
        );
    }

    #[test]
    fn tune_refuses_zero_sizes_and_partial_nodes() {
        let line = [
            "tune", "--m", "1920", "--n", "192", "--cores", "12", "--ib", "0",
        ];
        refused(&line, "--ib must be positive");
        refused(
            &["tune", "--m", "1920", "--n", "192", "--cores", "1"],
            "at least 12",
        );
    }

    #[test]
    fn cholesky_refuses_zero_threads() {
        refused(
            &["cholesky", "--n", "64", "--threads", "0"],
            "--threads must be positive",
        );
    }

    #[test]
    fn helpful_errors() {
        assert!(run_line(&["factor"]).unwrap_err().msg.contains("--rows"));
        assert!(
            run_line(&["factor", "--rows", "10", "--cols", "4", "--nb", "4"])
                .unwrap_err()
                .msg
                .contains("multiple of nb")
        );
        // A zero size is a typed error (exit 1), not a panic.
        for flag in ["--rows", "--cols", "--ib", "--threads"] {
            let mut line = [
                "factor",
                "--rows",
                "8",
                "--cols",
                "4",
                "--nb",
                "4",
                "--ib",
                "2",
                "--threads",
                "2",
            ];
            let at = line.iter().position(|a| *a == flag).unwrap();
            line[at + 1] = "0";
            let err = run_line(&line).unwrap_err();
            assert_eq!(err.code, 1, "{flag} 0: {}", err.msg);
            assert!(
                err.msg.contains(&format!("{flag} must be positive")),
                "{}",
                err.msg
            );
        }
        let unknown = run_line(&["nope"]).unwrap_err();
        assert!(unknown.msg.contains("unknown command"));
        assert_eq!(unknown.code, 2, "usage errors exit with code 2");
        assert!(
            run_line(&["factor", "--rows", "8", "--cols", "4", "--zzz", "1"])
                .unwrap_err()
                .msg
                .contains("unknown option")
        );
    }
}
