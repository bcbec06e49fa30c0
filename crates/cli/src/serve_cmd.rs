//! The `serve`, `submit`, and `drain` subcommands: a long-lived QR
//! service daemon and its client-side drivers.
//!
//! Rendezvous follows the `launch`/`worker` idiom: the daemon prints
//! `SERVE <addr>` on stdout as soon as the socket is bound, so a parent
//! process (or `scripts/check.sh`) can scrape the ephemeral port.

use crate::args::Args;
use crate::commands::plan_opts;
use crate::error::CliError;
use pulsar_core::plan::Tree;
use pulsar_core::QrOptions;
use pulsar_linalg::verify::r_factor_distance;
use pulsar_linalg::Matrix;
use pulsar_server::{Client, ServeConfig, ServeFaultPlan, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::time::Duration;

/// `pulsar-qr serve`: run the QR service until a client drains it.
pub fn serve(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&[
        "port",
        "threads",
        "queue-cap",
        "batch-max",
        "batch-mb",
        "retry-ms",
        "retry-budget",
        "store-mb",
        "store-path",
        "idem-cap",
        "drain-grace-ms",
        "wal-compact-mb",
        "fault-plan",
        "stats",
        "trace-out",
    ])
    .map_err(CliError::usage)?;
    let port: u16 = args.opt("port", 0)?;
    let trace_out = args.get("trace-out").map(str::to_string);
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        threads: args.opt("threads", d.threads)?,
        queue_cap: args.opt("queue-cap", d.queue_cap)?,
        batch_max: args.opt("batch-max", d.batch_max)?,
        batch_bytes: args.opt("batch-mb", d.batch_bytes >> 20)? << 20,
        default_retry_after_ms: args.opt("retry-ms", d.default_retry_after_ms)?,
        retry_budget: args.opt("retry-budget", d.retry_budget)?,
        store_bytes: args.opt("store-mb", d.store_bytes >> 20)? << 20,
        store_path: args.get("store-path").map(std::path::PathBuf::from),
        idem_cap: args.opt("idem-cap", d.idem_cap)?,
        drain_grace: Duration::from_millis(
            args.opt("drain-grace-ms", d.drain_grace.as_millis() as u64)?,
        ),
        wal_compact_bytes: args.opt("wal-compact-mb", d.wal_compact_bytes >> 20)? << 20,
        trace: trace_out.is_some(),
    };
    let faults = args
        .get("fault-plan")
        .map(ServeFaultPlan::parse)
        .transpose()
        .map_err(CliError::usage)?;
    let want_stats: bool = args.opt("stats", false)?;
    if cfg.threads == 0 || cfg.queue_cap == 0 || cfg.batch_max == 0 {
        return Err(CliError::usage(
            "--threads, --queue-cap, and --batch-max must be positive",
        ));
    }

    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| CliError::from(format!("bind failed: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::from(e.to_string()))?;
    // Stdout is line-buffered: the newline flushes the rendezvous line
    // before the accept loop blocks.
    println!("SERVE {addr}");

    // A corrupt snapshot is a hard error (restore nothing rather than
    // something subtly wrong); a torn WAL tail is not (it truncates).
    let service = Service::try_start(cfg)
        .map_err(|e| CliError::from(format!("factor store recovery failed: {e}")))?;
    pulsar_server::serve_with_faults(listener, service.clone(), faults)
        .map_err(|e| CliError::from(format!("serve failed: {e}")))?;

    let mut out = String::new();
    if let Some(path) = trace_out {
        let trace = service.take_trace();
        let spans = trace.spans.len();
        std::fs::write(&path, trace.to_chrome_json())
            .map_err(|e| CliError::from(format!("writing {path}: {e}")))?;
        writeln!(out, "trace: {spans} spans -> {path}").unwrap();
    }
    if want_stats {
        writeln!(out, "STATS-JSON {}", service.stats_json()).unwrap();
    }
    writeln!(out, "drained").unwrap();
    Ok(out)
}

/// The job's options, through the read path `factor` uses. Which executor
/// runs the job stays the server's choice, so the profile's is dropped.
pub(crate) fn submit_opts(args: &Args) -> Result<QrOptions, String> {
    let shape = (
        args.req("rows")?,
        args.req("cols")?,
        args.opt("threads", 2)?,
    );
    Ok(plan_opts(args, shape, 8, Tree::Greedy)?.0)
}

/// `pulsar-qr submit`: drive a serve daemon with one request. The default
/// verb factors a random matrix and verifies the returned R; the handle
/// verbs (`solve`, `apply-q`, `update`) exercise a factorization stored
/// by an earlier `submit --keep true`, re-deriving their oracles locally
/// from the same `--seed`/`--rows`/`--cols` so every flow self-verifies.
pub fn submit(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&[
        "addr",
        "rows",
        "cols",
        "nb",
        "ib",
        "tree",
        "seed",
        "deadline-ms",
        "cancel",
        "verb",
        "keep",
        "handle",
        "rhs",
        "append-rows",
        "burst",
        "timeout-ms",
        "retry-for-ms",
        "profile",
        "threads",
    ])
    .map_err(CliError::usage)?;
    match args.get("verb").unwrap_or("factor") {
        "factor" => submit_factor(args),
        "solve" => verb_solve(args),
        "apply-q" => verb_apply_q(args),
        "update" => verb_update(args),
        other => Err(CliError::usage(format!(
            "unknown --verb `{other}`; expected factor|solve|apply-q|update"
        ))),
    }
}

/// Dial the daemon, arming per-call read/write deadlines when the user
/// passed `--timeout-ms` (a wedged or fault-injected server then surfaces
/// as exit code 10 instead of hanging the client).
fn connect(args: &Args) -> Result<Client, CliError> {
    let addr: String = args.req("addr")?;
    let timeout_ms: u64 = args.opt("timeout-ms", 0)?;
    Ok(if timeout_ms > 0 {
        Client::connect_timeout(&addr, Duration::from_millis(timeout_ms))?
    } else {
        Client::connect(&addr)?
    })
}

/// The problem every verb re-derives: matrix first, then right-hand
/// sides, always drawn in the same order from one seeded stream, so a
/// `solve` invocation reproduces the exact matrix an earlier
/// `submit --keep true` run factored.
fn seeded_problem(args: &Args) -> Result<(Matrix, StdRng, usize, usize), String> {
    let m: usize = args.req("rows")?;
    let n: usize = args.req("cols")?;
    let seed: u64 = args.opt("seed", 42)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random(m, n, &mut rng);
    Ok((a, rng, m, n))
}

fn submit_factor(args: &Args) -> Result<String, CliError> {
    let opts = submit_opts(args)?;
    let (a, _, m, n) = seeded_problem(args)?;
    if !m.is_multiple_of(opts.nb) || !n.is_multiple_of(opts.nb) {
        return Err(CliError::usage(format!(
            "--rows and --cols must be multiples of nb ({})",
            opts.nb
        )));
    }
    let deadline_ms: u32 = args.opt("deadline-ms", 0)?;
    let cancel: bool = args.opt("cancel", false)?;
    let keep: bool = args.opt("keep", false)?;
    let retry_for_ms: u64 = args.opt("retry-for-ms", 0)?;
    let burst: usize = args.opt("burst", 1)?;
    if keep && cancel {
        return Err(CliError::usage("--keep and --cancel are exclusive"));
    }
    if burst > 1 && (keep || cancel) {
        return Err(CliError::usage("--burst is exclusive with --keep/--cancel"));
    }

    let mut client = connect(args)?;
    if burst > 1 {
        return submit_burst(client, &a, &opts, deadline_ms, retry_for_ms, burst, m, n);
    }
    let job = if retry_for_ms > 0 {
        // Idempotent retries: a dropped ACK or a backpressure reject is
        // retried under one idempotency key until the budget runs out.
        client.submit_retrying(
            &a,
            &opts,
            deadline_ms,
            keep,
            Duration::from_millis(retry_for_ms),
        )?
    } else if keep {
        client.submit_keep(&a, &opts, deadline_ms)?
    } else {
        client.submit(&a, &opts, deadline_ms)?
    };

    let mut out = String::new();
    writeln!(
        out,
        "submitted job {job}  {m}x{n}  nb={} ib={} tree={:?}",
        opts.nb, opts.ib, opts.tree
    )
    .unwrap();
    if cancel {
        // Cancellation races the scheduler by design: a queued job is
        // cancelled, a scheduled one completes. Both are valid outcomes.
        if client.cancel(job)? {
            writeln!(out, "job {job} cancelled").unwrap();
        } else {
            writeln!(out, "job {job} already past the queue; not cancelled").unwrap();
        }
        return Ok(out);
    }
    let r = if retry_for_ms > 0 {
        // The long-poll mutates nothing server-side, so a reply lost to
        // the wire (or a read deadline firing mid-run) is safely re-asked.
        client.result_retrying(job, Duration::from_millis(retry_for_ms))?
    } else {
        client.result(job)?
    };
    let oracle = pulsar_core::tile_qr_seq(&a, &opts);
    let dist = r_factor_distance(&r, &oracle.r);
    writeln!(out, "R distance to sequential oracle: {dist:.2e}").unwrap();
    if dist != 0.0 {
        return Err(CliError::from(format!(
            "verification FAILED: served R differs from oracle by {dist:.2e}\n{out}"
        )));
    }
    writeln!(out, "verification OK").unwrap();
    if keep {
        // Rendezvous line for scripts, like `SERVE <addr>`: the job id
        // doubles as the factor handle while the store keeps it. A
        // router mints routed handles, printed `node:handle`.
        writeln!(out, "HANDLE {}", crate::route_cmd::show_handle(job)).unwrap();
    }
    Ok(out)
}

/// Pipeline `burst` copies of one job through the daemon: submit all,
/// then collect and verify every result against the one local oracle.
/// The `BURST-JOBS-PER-S` line is what `scripts/bench_serve.sh` scrapes
/// in its multi-node mode.
#[allow(clippy::too_many_arguments)]
fn submit_burst(
    mut client: Client,
    a: &Matrix,
    opts: &QrOptions,
    deadline_ms: u32,
    retry_for_ms: u64,
    burst: usize,
    m: usize,
    n: usize,
) -> Result<String, CliError> {
    let budget = Duration::from_millis(retry_for_ms);
    let t0 = std::time::Instant::now();
    let mut jobs = Vec::with_capacity(burst);
    for _ in 0..burst {
        let job = if retry_for_ms > 0 {
            client.submit_retrying(a, opts, deadline_ms, false, budget)?
        } else {
            client.submit(a, opts, deadline_ms)?
        };
        jobs.push(job);
    }
    let oracle = pulsar_core::tile_qr_seq(a, opts);
    for &job in &jobs {
        let r = if retry_for_ms > 0 {
            client.result_retrying(job, budget)?
        } else {
            client.result(job)?
        };
        let dist = r_factor_distance(&r, &oracle.r);
        if dist != 0.0 {
            return Err(CliError::from(format!(
                "verification FAILED: job {job} R differs from oracle by {dist:.2e}"
            )));
        }
    }
    let dt = t0.elapsed().as_secs_f64().max(1e-9);
    let mut out = String::new();
    writeln!(
        out,
        "burst {burst} jobs  {m}x{n}  nb={} ib={}",
        opts.nb, opts.ib
    )
    .unwrap();
    writeln!(out, "BURST-JOBS-PER-S {:.3}", burst as f64 / dt).unwrap();
    writeln!(out, "verification OK").unwrap();
    Ok(out)
}

/// `--handle` accepts both the bare form a single daemon prints and the
/// `node:handle` form a router prints.
fn routed_handle_arg(args: &Args) -> Result<u64, CliError> {
    let raw = args
        .get("handle")
        .ok_or_else(|| CliError::usage("missing required option --handle"))?;
    crate::route_cmd::parse_handle(raw).map_err(CliError::usage)
}

fn verb_solve(args: &Args) -> Result<String, CliError> {
    let handle = routed_handle_arg(args)?;
    let k: usize = args.opt("rhs", 1)?;
    let (a, mut rng, m, n) = seeded_problem(args)?;
    let b = Matrix::random(m, k, &mut rng);

    let mut client = connect(args)?;
    let x = client.solve(handle, &b)?;

    let oracle = pulsar_linalg::reference::geqrf(a).solve_ls(&b);
    let rel = x.sub(&oracle).norm_fro() / oracle.norm_fro().max(1.0);
    let mut out = String::new();
    writeln!(
        out,
        "solve handle {}  {m}x{n}  {k} rhs",
        crate::route_cmd::show_handle(handle)
    )
    .unwrap();
    writeln!(out, "solution distance to reference QR: {rel:.2e}").unwrap();
    if rel > 1e-8 {
        return Err(CliError::from(format!(
            "verification FAILED: served solution off by {rel:.2e}\n{out}"
        )));
    }
    writeln!(out, "verification OK").unwrap();
    Ok(out)
}

fn verb_apply_q(args: &Args) -> Result<String, CliError> {
    let handle = routed_handle_arg(args)?;
    let k: usize = args.opt("rhs", 1)?;
    let (_, mut rng, m, n) = seeded_problem(args)?;
    let b = Matrix::random(m, k, &mut rng);

    let mut client = connect(args)?;
    let qb = client.apply_q(handle, &b, false)?;
    let back = client.apply_q(handle, &qb, true)?;

    // Orthogonality is the whole contract: Q^T(Qb) = b and ||Qb|| = ||b||.
    let roundtrip = back.sub(&b).norm_fro() / b.norm_fro().max(1.0);
    let norm_drift = (qb.norm_fro() - b.norm_fro()).abs() / b.norm_fro().max(1.0);
    let mut out = String::new();
    writeln!(
        out,
        "apply-q handle {}  {m}x{n}  {k} columns",
        crate::route_cmd::show_handle(handle)
    )
    .unwrap();
    writeln!(
        out,
        "round trip ||Q^T Q b - b||/||b|| = {roundtrip:.2e}   norm drift {norm_drift:.2e}"
    )
    .unwrap();
    if roundtrip > 1e-10 || norm_drift > 1e-10 {
        return Err(CliError::from(format!(
            "verification FAILED: Q application is not orthogonal\n{out}"
        )));
    }
    writeln!(out, "verification OK").unwrap();
    Ok(out)
}

fn verb_update(args: &Args) -> Result<String, CliError> {
    let handle = routed_handle_arg(args)?;
    let p: usize = args.req("append-rows")?;
    let k: usize = args.opt("rhs", 1)?;
    let (a, mut rng, m, n) = seeded_problem(args)?;
    let e = Matrix::random(p, n, &mut rng);

    let mut client = connect(args)?;
    let rows = client.update(handle, &e)?;

    let mut out = String::new();
    writeln!(
        out,
        "update handle {}  +{p} rows -> {rows} total",
        crate::route_cmd::show_handle(handle)
    )
    .unwrap();
    if rows != (m + p) as u64 {
        return Err(CliError::from(format!(
            "verification FAILED: expected {} rows after update, server says {rows}\n{out}",
            m + p
        )));
    }
    // The updated factors must solve the stacked problem [A; E].
    let stacked = Matrix::from_fn(
        m + p,
        n,
        |i, j| if i < m { a[(i, j)] } else { e[(i - m, j)] },
    );
    let b = Matrix::random(m + p, k, &mut rng);
    let x = client.solve(handle, &b)?;
    let oracle = pulsar_linalg::reference::geqrf(stacked).solve_ls(&b);
    let rel = x.sub(&oracle).norm_fro() / oracle.norm_fro().max(1.0);
    writeln!(out, "stacked-solve distance to reference QR: {rel:.2e}").unwrap();
    if rel > 1e-8 {
        return Err(CliError::from(format!(
            "verification FAILED: updated factors mis-solve the stacked problem\n{out}"
        )));
    }
    writeln!(out, "verification OK").unwrap();
    Ok(out)
}

/// `pulsar-qr drain`: shut a daemon down and print its final stats.
pub fn drain(args: &Args) -> Result<String, CliError> {
    args.ensure_known(&["addr", "timeout-ms"])
        .map_err(CliError::usage)?;
    let mut client = connect(args)?;
    let stats = client.drain()?;
    Ok(format!("STATS-JSON {stats}\ndrained\n"))
}
