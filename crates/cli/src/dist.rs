//! Multi-process distributed runs: `pulsar-qr launch` spawns one worker
//! process per node, plays rendezvous broker, and aggregates their reports;
//! `pulsar-qr worker` is one SPMD rank over the TCP fabric.
//!
//! Rendezvous protocol (launcher <-> worker, over pipes):
//! 1. each worker binds `127.0.0.1:0` and prints `ADDR <rank> <addr>`;
//! 2. the launcher collects all addresses and writes the full table —
//!    one address per line, rank order — to every worker's stdin;
//! 3. workers mesh up over TCP and run; each prints `TILES`/`RDIST`/
//!    `WIREBYTES`/`REMOTE` counters and `WORKER-OK`, which the launcher
//!    checks and sums.
//!
//! The launcher is defensive: worker stdout is drained by reader threads so
//! rendezvous is bounded by `--rendezvous-timeout-ms` (a worker that dies or
//! hangs before announcing its address is named, and every spawned child is
//! killed and reaped before the error is reported). Fault-tolerance flags
//! (`--heartbeat-ms`, `--fault-plan`, `--stats`) are validated up front and
//! forwarded verbatim to every worker.
//!
//! Every rank builds the identical VSA from the same seed and compares its
//! local `R` tiles against a rank-local SMP run of the same engine — the
//! distributed and shared-memory executions must agree to ~1e-12.

use crate::args::{parse_tree, Args};
use crate::error::CliError;
use pulsar_core::mapping::{qr_mapping, RowDist};
use pulsar_core::vsa3d::tile_qr_vsa_partial;
use pulsar_core::{wire_registry, QrOptions};
use pulsar_linalg::Matrix;
use pulsar_runtime::{Backend, FaultPlan, RetryPolicy, RunConfig, TcpBackend};
use pulsar_tuner::json::obj;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options both subcommands share, forwarded verbatim to workers.
const QR_OPTS: &[&str] = &["rows", "cols", "nb", "ib", "tree", "threads", "seed"];

/// Fault-tolerance options, also forwarded to workers.
const FT_OPTS: &[&str] = &[
    "heartbeat-ms",
    "fault-plan",
    "stats",
    "retry-attempts",
    "retry-backoff-ms",
];

/// Checkpoint/restart options, also forwarded to workers.
const CKPT_OPTS: &[&str] = &["checkpoint-dir", "checkpoint-every-ms"];

/// Name of the run manifest `launch` leaves in the checkpoint directory so
/// `resume` can rebuild the identical run.
const MANIFEST: &str = "manifest.txt";

struct QrParams {
    m: usize,
    n: usize,
    opts: QrOptions,
    threads: usize,
    seed: u64,
    tree_spec: String,
}

fn qr_params(args: &Args) -> Result<QrParams, String> {
    let m: usize = args.opt("rows", 64)?;
    let n: usize = args.opt("cols", 16)?;
    let nb: usize = args.opt("nb", 8)?;
    if nb == 0 {
        return Err("--nb must be positive".into());
    }
    let ib: usize = args.opt("ib", (nb / 4).max(1))?;
    let tree_spec: String = args.opt("tree", "hier:2".to_string())?;
    let tree = parse_tree(&tree_spec)?;
    if !m.is_multiple_of(nb) {
        return Err(format!("--rows must be a multiple of nb ({nb})"));
    }
    Ok(QrParams {
        m,
        n,
        opts: QrOptions::new(nb, ib, tree),
        threads: args.opt("threads", 2)?,
        seed: args.opt("seed", 42)?,
        tree_spec,
    })
}

/// Parsed fault-tolerance flags, validated before any process is spawned.
struct FtParams {
    heartbeat_ms: Option<u64>,
    fault_plan: Option<String>,
    stats: bool,
    retry_attempts: u32,
    retry_backoff_ms: u64,
}

fn ft_params(args: &Args) -> Result<FtParams, String> {
    let heartbeat_ms = match args.get("heartbeat-ms") {
        None => None,
        Some(v) => {
            let ms: u64 = v.parse().map_err(|_| "could not parse --heartbeat-ms")?;
            if ms == 0 {
                return Err("--heartbeat-ms must be positive".into());
            }
            Some(ms)
        }
    };
    let fault_plan = match args.get("fault-plan") {
        None => None,
        Some(spec) => {
            // Validate eagerly so a typo is a usage error here, not a
            // cryptic failure inside a worker process.
            FaultPlan::parse(spec).map_err(|e| format!("bad --fault-plan: {e}"))?;
            Some(spec.to_string())
        }
    };
    Ok(FtParams {
        heartbeat_ms,
        fault_plan,
        stats: args.opt("stats", false)?,
        retry_attempts: args.opt("retry-attempts", 0u32)?,
        retry_backoff_ms: args.opt("retry-backoff-ms", 50u64)?,
    })
}

/// Parsed checkpoint flags, validated before any process is spawned.
struct CkptParams {
    dir: Option<String>,
    every_ms: Option<u64>,
}

fn ckpt_params(args: &Args) -> Result<CkptParams, String> {
    let dir = args.get("checkpoint-dir").map(str::to_string);
    let every_ms = match args.get("checkpoint-every-ms") {
        None => None,
        Some(v) => {
            let ms: u64 = v
                .parse()
                .map_err(|_| "could not parse --checkpoint-every-ms")?;
            if ms == 0 {
                return Err("--checkpoint-every-ms must be positive".into());
            }
            Some(ms)
        }
    };
    if every_ms.is_some() && dir.is_none() {
        return Err("--checkpoint-every-ms needs --checkpoint-dir".into());
    }
    Ok(CkptParams { dir, every_ms })
}

/// Kills and reaps every child it still holds when dropped, so no code path
/// out of `launch` — error or success — leaks worker processes.
struct Brood {
    children: Vec<Option<Child>>,
}

impl Brood {
    fn wait(&mut self, rank: usize) -> std::io::Result<std::process::ExitStatus> {
        self.children[rank]
            .take()
            .expect("child already reaped")
            .wait()
    }
}

impl Drop for Brood {
    fn drop(&mut self) {
        for child in self.children.iter_mut().filter_map(Option::take) {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `pulsar-qr launch --nodes N [qr options]`: run a distributed QR across
/// `N` worker OS processes on localhost and verify their reports.
pub fn launch(args: &Args) -> Result<String, CliError> {
    launch_impl(args, false)
}

/// `pulsar-qr resume <dir>`: relaunch the run recorded in `<dir>`'s
/// manifest, restoring every rank from the newest checkpoint epoch all
/// ranks completed. The fault plan of the original run (if any) is *not*
/// replayed — resume is for finishing the work, not re-injecting the fault.
pub fn resume(args: &Args) -> Result<String, CliError> {
    args.ensure_known_pos(&[], 1)?;
    let dir = args
        .positionals()
        .first()
        .ok_or_else(|| CliError::usage("resume needs a directory: pulsar-qr resume <dir>"))?;
    let path = Path::new(dir).join(MANIFEST);
    let manifest =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut argv = vec!["launch".to_string()];
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad manifest line {line:?} in {}", path.display()))?;
        argv.push(format!("--{k}"));
        argv.push(v.to_string());
    }
    // The directory on the command line wins over whatever path the
    // manifest was written under (the tree may have been moved).
    argv.push("--checkpoint-dir".to_string());
    argv.push(dir.to_string());
    let largs = Args::parse(argv).map_err(|e| format!("manifest {}: {e}", path.display()))?;
    launch_impl(&largs, true)
}

fn launch_impl(args: &Args, resume: bool) -> Result<String, CliError> {
    let mut known = vec!["nodes", "rendezvous-timeout-ms"];
    known.extend_from_slice(QR_OPTS);
    known.extend_from_slice(FT_OPTS);
    known.extend_from_slice(CKPT_OPTS);
    args.ensure_known(&known)?;
    let nodes: usize = args.opt("nodes", 2)?;
    if nodes == 0 {
        return Err(CliError::from(String::from("--nodes must be positive")));
    }
    let rendezvous_timeout = Duration::from_millis(args.opt("rendezvous-timeout-ms", 10_000u64)?);
    let p = qr_params(args)?; // validate before spawning anything
    let ft = ft_params(args)?;
    let ck = ckpt_params(args)?;
    if resume && ck.dir.is_none() {
        return Err(CliError::from(String::from(
            "resume needs a checkpoint directory",
        )));
    }
    if let (Some(dir), false) = (&ck.dir, resume) {
        write_manifest(dir, nodes, &p, &ft, &ck).map_err(CliError::from)?;
    }

    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut children = Vec::new();
    let mut stdins: Vec<Option<ChildStdin>> = Vec::new();
    let mut readers: Vec<Receiver<std::io::Result<String>>> = Vec::new();
    for rank in 0..nodes {
        let mut argv = vec![
            "worker".to_string(),
            "--rank".to_string(),
            rank.to_string(),
            "--nodes".to_string(),
            nodes.to_string(),
            "--rows".to_string(),
            p.m.to_string(),
            "--cols".to_string(),
            p.n.to_string(),
            "--nb".to_string(),
            p.opts.nb.to_string(),
            "--ib".to_string(),
            p.opts.ib.to_string(),
            "--tree".to_string(),
            p.tree_spec.clone(),
            "--threads".to_string(),
            p.threads.to_string(),
            "--seed".to_string(),
            p.seed.to_string(),
        ];
        if let Some(ms) = ft.heartbeat_ms {
            argv.extend(["--heartbeat-ms".to_string(), ms.to_string()]);
        }
        if let Some(spec) = &ft.fault_plan {
            argv.extend(["--fault-plan".to_string(), spec.clone()]);
        }
        if ft.stats {
            argv.extend(["--stats".to_string(), "true".to_string()]);
        }
        if ft.retry_attempts > 0 {
            argv.extend([
                "--retry-attempts".to_string(),
                ft.retry_attempts.to_string(),
            ]);
            argv.extend([
                "--retry-backoff-ms".to_string(),
                ft.retry_backoff_ms.to_string(),
            ]);
        }
        if let Some(dir) = &ck.dir {
            argv.extend(["--checkpoint-dir".to_string(), dir.clone()]);
        }
        if let Some(ms) = ck.every_ms {
            argv.extend(["--checkpoint-every-ms".to_string(), ms.to_string()]);
        }
        if resume {
            argv.extend(["--resume".to_string(), "true".to_string()]);
        }
        let mut child = Command::new(&exe)
            .args(&argv)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning worker {rank}: {e}"))?;
        stdins.push(child.stdin.take());
        let stdout = BufReader::new(child.stdout.take().expect("worker stdout is piped"));
        // Drain stdout on a thread so the launcher can time out instead of
        // blocking forever on a worker that never speaks.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in stdout.lines() {
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        readers.push(rx);
        children.push(Some(child));
    }
    let mut brood = Brood { children };

    // Phase 1: collect `ADDR <rank> <addr>` from every worker, bounded by
    // the rendezvous timeout. A dead or silent worker is named; `brood`
    // kills and reaps the others on the way out.
    let deadline = Instant::now() + rendezvous_timeout;
    let mut addrs = vec![String::new(); nodes];
    for (rank, rx) in readers.iter().enumerate() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let line = match rx.recv_timeout(remaining) {
            Ok(line) => line.map_err(|e| format!("reading worker {rank} address: {e}"))?,
            Err(RecvTimeoutError::Timeout) => {
                return Err(CliError::from(format!(
                    "worker {rank} did not announce an address within {}ms; \
                     killing all workers",
                    rendezvous_timeout.as_millis()
                )))
            }
            Err(RecvTimeoutError::Disconnected) => {
                let status = brood.wait(rank).map(|s| s.to_string()).unwrap_or_default();
                return Err(CliError::from(format!(
                    "worker {rank} exited before rendezvous ({status})"
                )));
            }
        };
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some("ADDR"), Some(r), Some(addr)) if r == rank.to_string() => {
                addrs[rank] = addr.to_string();
            }
            _ => {
                return Err(CliError::from(format!(
                    "worker {rank}: bad rendezvous line {line:?}"
                )))
            }
        }
    }

    // Phase 2: broadcast the address table.
    for (rank, stdin) in stdins.iter_mut().enumerate() {
        let pipe = stdin.as_mut().expect("worker stdin is piped");
        for a in &addrs {
            writeln!(pipe, "{a}").map_err(|e| format!("writing table to worker {rank}: {e}"))?;
        }
        // Close the pipe so the worker's table read terminates cleanly.
        drop(stdin.take());
    }

    // Phase 3: collect reports until each worker closes stdout, then reap.
    let mut total_tiles = 0usize;
    let mut total_remote = 0usize;
    let mut total_wire_sent = 0u64;
    let mut total_wire_recv = 0u64;
    let mut max_rdist = 0.0f64;
    let mut per_rank = String::new();
    for (rank, rx) in readers.iter().enumerate() {
        let mut ok = false;
        // Drain until the channel disconnects (EOF: worker closed stdout).
        while let Ok(line) = rx.recv() {
            let line = line.map_err(|e| format!("reading worker {rank}: {e}"))?;
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("TILES") => total_tiles += num(parts.next(), rank, "TILES")? as usize,
                Some("RDIST") => {
                    let d: f64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("worker {rank}: bad RDIST line"))?;
                    max_rdist = max_rdist.max(d);
                }
                Some("WIREBYTES") => {
                    total_wire_sent += num(parts.next(), rank, "WIREBYTES")?;
                    total_wire_recv += num(parts.next(), rank, "WIREBYTES")?;
                }
                Some("REMOTE") => total_remote += num(parts.next(), rank, "REMOTE")? as usize,
                Some("WORKER-OK") => ok = true,
                _ => {}
            }
            writeln!(per_rank, "  rank {rank}: {line}").unwrap();
        }
        let status = brood
            .wait(rank)
            .map_err(|e| format!("waiting for worker {rank}: {e}"))?;
        if !status.success() || !ok {
            return Err(CliError::from(format!(
                "worker {rank} failed (status {status}, ok={ok})\n{per_rank}"
            )));
        }
    }

    let mt = p.m / p.opts.nb;
    let nt = p.n.div_ceil(p.opts.nb);
    let kt = mt.min(nt);
    let expect_tiles: usize = (0..kt).map(|i| nt - i).sum();
    let mut out = String::new();
    writeln!(
        out,
        "launch {}x{} over {nodes} worker processes (nb={} ib={} tree={:?}, {} threads/node)",
        p.m, p.n, p.opts.nb, p.opts.ib, p.opts.tree, p.threads
    )
    .unwrap();
    if resume {
        writeln!(
            out,
            "resumed from checkpoints in {}",
            ck.dir.as_deref().unwrap_or("?")
        )
        .unwrap();
    }
    out.push_str(&per_rank);
    writeln!(
        out,
        "R tiles {total_tiles}/{expect_tiles}   remote msgs {total_remote}   \
         wire bytes {total_wire_sent} sent / {total_wire_recv} recv"
    )
    .unwrap();
    writeln!(out, "max |R_tcp - R_smp| = {max_rdist:.2e}").unwrap();
    if total_tiles != expect_tiles {
        return Err(CliError::from(format!("missing R tiles\n{out}")));
    }
    if nodes > 1 && total_wire_sent == 0 {
        return Err(CliError::from(format!("no bytes crossed the wire\n{out}")));
    }
    if max_rdist > 1e-12 {
        return Err(CliError::from(format!(
            "distributed R diverges from SMP\n{out}"
        )));
    }
    writeln!(out, "verification OK").unwrap();
    Ok(out)
}

fn num(tok: Option<&str>, rank: usize, what: &str) -> Result<u64, String> {
    tok.and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("worker {rank}: bad {what} line"))
}

/// Record the launch parameters as `key value` lines so `resume <dir>` can
/// rebuild the identical SPMD run. The fault plan is deliberately omitted.
fn write_manifest(
    dir: &str,
    nodes: usize,
    p: &QrParams,
    ft: &FtParams,
    ck: &CkptParams,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let mut man = String::new();
    writeln!(man, "nodes {nodes}").unwrap();
    writeln!(man, "rows {}", p.m).unwrap();
    writeln!(man, "cols {}", p.n).unwrap();
    writeln!(man, "nb {}", p.opts.nb).unwrap();
    writeln!(man, "ib {}", p.opts.ib).unwrap();
    writeln!(man, "tree {}", p.tree_spec).unwrap();
    writeln!(man, "threads {}", p.threads).unwrap();
    writeln!(man, "seed {}", p.seed).unwrap();
    if let Some(ms) = ft.heartbeat_ms {
        writeln!(man, "heartbeat-ms {ms}").unwrap();
    }
    if ft.stats {
        writeln!(man, "stats true").unwrap();
    }
    if ft.retry_attempts > 0 {
        writeln!(man, "retry-attempts {}", ft.retry_attempts).unwrap();
        writeln!(man, "retry-backoff-ms {}", ft.retry_backoff_ms).unwrap();
    }
    if let Some(ms) = ck.every_ms {
        writeln!(man, "checkpoint-every-ms {ms}").unwrap();
    }
    let path = Path::new(dir).join(MANIFEST);
    std::fs::write(&path, man).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `pulsar-qr worker --rank R --nodes N [qr options]`: one SPMD rank.
/// Normally spawned by [`launch`]; runnable by hand with the address table
/// on stdin. Exits with the typed codes of [`crate::error::exit_code_for`]
/// when the run fails (lost peer, stall, panicking VDP, ...).
pub fn worker(args: &Args) -> Result<String, CliError> {
    let mut known = vec!["rank", "nodes", "resume"];
    known.extend_from_slice(QR_OPTS);
    known.extend_from_slice(FT_OPTS);
    known.extend_from_slice(CKPT_OPTS);
    args.ensure_known(&known)?;
    let rank: usize = args.req("rank")?;
    let nodes: usize = args.req("nodes")?;
    if rank >= nodes {
        return Err(CliError::from(format!(
            "--rank {rank} out of range for --nodes {nodes}"
        )));
    }
    let p = qr_params(args)?;
    let ft = ft_params(args)?;
    let ck = ckpt_params(args)?;
    let resume: bool = args.opt("resume", false)?;

    // Rendezvous: bind, announce, read the table.
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding listener: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    println!("ADDR {rank} {local}");
    std::io::stdout().flush().ok();
    let stdin = std::io::stdin();
    let mut peers = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let mut line = String::new();
        stdin
            .lock()
            .read_line(&mut line)
            .map_err(|e| format!("reading peer table: {e}"))?;
        let addr = line.trim();
        if addr.is_empty() {
            return Err(CliError::from(format!("peer table truncated at rank {i}")));
        }
        peers.push(addr.to_string());
    }

    // Every rank builds the identical matrix and array (SPMD).
    let mut rng = StdRng::seed_from_u64(p.seed);
    let a = Matrix::random(p.m, p.n, &mut rng);
    let plan = p.opts.plan(p.m / p.opts.nb, p.n.div_ceil(p.opts.nb));
    let mapping = qr_mapping(&plan, RowDist::Block, nodes, p.threads);
    let mut config = RunConfig::cluster(nodes, p.threads, mapping).with_backend(Backend::Tcp(
        TcpBackend::new(rank, listener, peers, wire_registry()),
    ));
    if let Some(ms) = ft.heartbeat_ms {
        config = config.with_heartbeat(Duration::from_millis(ms));
    }
    if let Some(spec) = &ft.fault_plan {
        let fault = FaultPlan::parse(spec).map_err(|e| format!("bad --fault-plan: {e}"))?;
        config = config.with_fault(fault, Arc::new(wire_registry()));
    }
    if ft.retry_attempts > 0 {
        config = config.with_retry(RetryPolicy {
            attempts: ft.retry_attempts,
            backoff: Duration::from_millis(ft.retry_backoff_ms),
        });
    }
    if let Some(dir) = &ck.dir {
        config = config.with_checkpoints(dir, ck.every_ms.map(Duration::from_millis));
        if resume {
            config = config.resuming();
        }
    }
    let part = tile_qr_vsa_partial(&a, &p.opts, &config).map_err(CliError::from)?;

    // Rank-local SMP reference run: the distributed R must match it.
    let reference = pulsar_core::vsa3d::tile_qr_vsa(&a, &p.opts, &RunConfig::smp(p.threads));
    let k = p.m.min(p.n);
    let nb = part.nb;
    let mut rdist = 0.0f64;
    for (i, l, block) in &part.r_tiles {
        let rows = block.nrows().min(k - i * nb);
        let cols = block.ncols();
        let mine = block.submatrix(0, 0, rows, cols);
        let smp = reference.factors.r.submatrix(i * nb, l * nb, rows, cols);
        rdist = rdist.max(mine.sub(&smp).norm_max());
    }

    let s = &part.stats;
    println!("TILES {}", part.r_tiles.len());
    println!("RDIST {rdist:e}");
    println!("WIREBYTES {} {}", s.wire_bytes_sent, s.wire_bytes_recv);
    println!("REMOTE {}", s.remote_msgs);
    println!(
        "STATS fired {} idle-spins {} peak-depth {}",
        s.fired, s.proxy_idle_spins, s.peak_channel_depth
    );
    if ft.stats {
        println!(
            "ROBUST heartbeats {}/{} missed   reconnect-attempts {}   \
             retried-sends {}   quarantined-vdps {}",
            s.heartbeats_sent,
            s.heartbeats_missed,
            s.reconnect_attempts,
            s.retried_sends,
            s.quarantined_vdps
        );
        // Machine-readable recovery counters, one line.
        let counters = obj([
            ("fired", s.fired.into()),
            ("remote_msgs", s.remote_msgs.into()),
            ("wire_bytes_sent", s.wire_bytes_sent.into()),
            ("wire_bytes_recv", s.wire_bytes_recv.into()),
            ("heartbeats_sent", s.heartbeats_sent.into()),
            ("heartbeats_missed", s.heartbeats_missed.into()),
            ("reconnect_attempts", s.reconnect_attempts.into()),
            ("retried_sends", s.retried_sends.into()),
            ("quarantined_vdps", s.quarantined_vdps.into()),
            ("checkpoints_written", s.checkpoints_written.into()),
            ("checkpoint_bytes", s.checkpoint_bytes.into()),
            ("frames_replayed", s.frames_replayed.into()),
            ("retries_healed", s.retries_healed.into()),
        ]);
        println!("STATS-JSON {}", counters.write());
    }
    if ft.fault_plan.is_some() {
        // Audit line for chaos runs: what the injector actually did.
        match &s.fault_log {
            Some(log) => println!("FAULTS {log}"),
            None => println!("FAULTS none"),
        }
    }
    println!("WORKER-OK");
    Ok(String::new())
}
