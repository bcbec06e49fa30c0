//! The two daemon workloads. `serve_small` drives fire-and-forget factor
//! jobs over 2 TCP connections (closed-loop bursts, then open-loop Poisson
//! arrivals); `store_mixed` runs the seeded solve / update / keep mix on
//! kept factorizations for the whole measured phase.

use crate::daemon::{
    closed_loop, job_port, keep, off_by, open_loop, run_mix, serve_config, stat, Arrival, Burst,
    Check, Daemon, JobPort, Kept, MixInputs, MixOp, OpKind, StorePort, TcpPort, Until, SOLVE_TOL,
};
use crate::gen::{self, streams, StoreOps};
use crate::metrics::{Kind, Workload};
use crate::offline::{bit_diff, options};
use crate::spans::Tracer;
use crate::stats::{median, percentile, windows, Summary, Windowed};
use crate::workload::{Outcome, Settings};
use pulsar_core::tile_qr_seq;
use pulsar_linalg::Matrix;
use pulsar_server::ServeConfig;
use pulsar_tuner::json::Json;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Client connections (and load-generating threads): the host has 2 cores.
pub const CONNECTIONS: usize = 2;
/// Kept factorizations each connection owns.
pub const RING: usize = 8;
/// Jobs pipelined per closed-loop burst, and the open loop's pipelining cap.
pub const BURST: usize = 4;
/// Total open-loop arrival rate of the gated phase, jobs/s.
pub const GATED_RATE: f64 = 400.0;
/// Total arrival rate of the ungated diagnostic phase, jobs/s.
pub const TAIL_RATE: f64 = 1000.0;
/// Service-side task spans adopted into the benchmark's trace file.
const ADOPTED_TASKS: usize = 20_000;

/// A live daemon with its connections, inputs and kept handles.
pub struct Served {
    seed: u64,
    daemon: Daemon,
    started: Instant,
    ports: Vec<TcpPort>,
    /// `R` of `tile_qr_seq` per pool matrix (the job oracle).
    oracles: Vec<Matrix>,
    inputs: MixInputs,
    rings: Vec<VecDeque<Kept>>,
    ops: Vec<StoreOps>,
    /// Failures seen while pre-populating (reported at tear-down).
    setup_check: Check,
}

/// Start the daemon, connect, and warm up: `serve_small` with bursts of
/// jobs, `store_mixed` by keeping a ring of factorizations per connection
/// (each checked against the unblocked reference QR) and 20 ops of the mix.
pub fn setup(w: &Workload, s: &Settings, traced: bool) -> Served {
    let shape = s.shape(w);
    let opts = options(shape);
    let pool_len = if w.kind == Kind::Serve { 64 } else { 16 };
    let mut rng = gen::stream(s.seed, streams::MATRIX);
    let pool: Arc<Vec<Matrix>> = Arc::new(
        (0..pool_len)
            .map(|_| gen::matrix(&mut rng, shape.m, shape.n))
            .collect(),
    );
    let mut rng = gen::stream(s.seed, streams::RHS);
    let x0 = (0..pool_len)
        .map(|_| gen::matrix(&mut rng, shape.n, 1))
        .collect();
    let mut rng = gen::stream(s.seed, streams::ROWS);
    let rows = (0..8)
        .map(|_| gen::matrix(&mut rng, shape.nb, shape.n))
        .collect();
    let inputs = MixInputs {
        pool: pool.clone(),
        x0,
        rows,
    };
    let oracles = if w.kind == Kind::Serve {
        pool.iter().map(|a| tile_qr_seq(a, &opts).r).collect()
    } else {
        Vec::new()
    };

    let started = Instant::now();
    let daemon = Daemon::start(ServeConfig {
        trace: traced,
        ..serve_config()
    });
    let mut ports: Vec<TcpPort> = (0..CONNECTIONS)
        .map(|_| TcpPort {
            client: daemon.connect(),
            pool: pool.clone(),
            opts: opts.clone(),
        })
        .collect();

    let mut setup_check = Check::default();
    let mut rings = Vec::new();
    let mut ops = Vec::new();
    for (c, port) in ports.iter_mut().enumerate() {
        let mut stream =
            StoreOps::new(gen::stream(s.seed, streams::OPS + c as u64), RING, pool_len);
        let mut picks = gen::stream(s.seed, streams::OPS + 64 + c as u64);
        let mut ring = VecDeque::new();
        if w.kind == Kind::Serve {
            let mut warm = (0..).map(|i| i % pool_len);
            for _ in 0..8 * s.warmups() {
                let job: Vec<_> = (0..BURST)
                    .map(|_| port.submit(warm.next().expect("endless")))
                    .collect();
                for j in job {
                    let r = j.and_then(|j| JobPort::result(port, j));
                    setup_check.op(r.err().map(|e| format!("warm-up job failed: {e}")));
                }
            }
        } else {
            for _ in 0..RING {
                let pick = picks.random_below(pool_len as u64) as usize;
                let k = keep(port, &inputs, pick).expect("pre-populating the store");
                // The oracle of the first solve on every pre-populated handle
                // is the plain Householder QR of `linalg::reference`.
                let want = pulsar_linalg::reference::geqrf(pool[pick].clone()).solve_ls(&k.rhs());
                setup_check.op(match port.solve(k.handle(), &k.rhs()) {
                    Err(e) => Some(format!("solve failed: {e}")),
                    Ok(x) => off_by(&x, &want, SOLVE_TOL)
                        .map(|err| format!("solve is {err:e} away from reference::geqrf")),
                });
                ring.push_back(k);
            }
            let warm_ops = Until::Ops(20);
            run_mix(
                port,
                &inputs,
                &mut ring,
                &mut stream,
                warm_ops,
                &mut setup_check,
            );
        }
        rings.push(ring);
        ops.push(stream);
    }
    Served {
        seed: s.seed,
        daemon,
        started,
        ports,
        oracles,
        inputs,
        rings,
        ops,
        setup_check,
    }
}

/// One connection's view of the state, handed to its load-generator thread.
struct Conn<'a> {
    index: usize,
    port: &'a mut TcpPort,
    ring: &'a mut VecDeque<Kept>,
    ops: &'a mut StoreOps,
    inputs: &'a MixInputs,
    oracles: &'a [Matrix],
}

/// Run `f` on every connection at once, one thread each; returns what each
/// produced, in connection order, and folds their tallies into `check`.
fn on_every_connection<R: Send>(
    st: &mut Served,
    check: &mut Check,
    f: impl Fn(Conn<'_>, &mut Check) -> R + Sync,
) -> Vec<R> {
    let (f, inputs, oracles) = (&f, &st.inputs, &st.oracles[..]);
    let parts: Vec<(R, Check)> = std::thread::scope(|scope| {
        let threads: Vec<_> = st
            .ports
            .iter_mut()
            .zip(&mut st.rings)
            .zip(&mut st.ops)
            .enumerate()
            .map(|(index, ((port, ring), ops))| {
                let conn = Conn {
                    index,
                    port,
                    ring,
                    ops,
                    inputs,
                    oracles,
                };
                scope.spawn(move || {
                    let mut check = Check::default();
                    (f(conn, &mut check), check)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a load-generator thread panicked"))
            .collect()
    });
    parts
        .into_iter()
        .map(|(r, c)| {
            check.merge(c);
            r
        })
        .collect()
}

/// One value per window index, computed from that window's chunk of every
/// connection; windows for which `stat` has nothing to say are left out.
/// `counts` says which samples are behind the metric. Panics when no window
/// has a value: the phase was too short.
fn across_connections<T>(
    per_conn: &[Vec<T>],
    what: &str,
    counts: impl Fn(&T) -> bool,
    stat: impl Fn(&[&[T]]) -> Option<f64>,
) -> Windowed {
    let chunked: Vec<Vec<&[T]>> = per_conn.iter().map(|v| windows(v)).collect();
    let k = chunked.iter().map(Vec::len).min().unwrap_or(0);
    let values: Vec<f64> = (0..k)
        .filter_map(|w| {
            let chunks: Vec<&[T]> = chunked.iter().map(|c| c[w]).collect();
            stat(&chunks)
        })
        .collect();
    assert!(!values.is_empty(), "phase too short to measure {what}");
    Windowed {
        values,
        n: per_conn.iter().flatten().filter(|t| counts(t)).count(),
    }
}

/// Jobs per second of closed-loop bursts: per connection, jobs over the
/// span from its first submit to its last result, summed over connections.
pub fn burst_rate(chunks: &[&[Burst]]) -> Option<f64> {
    chunks
        .iter()
        .map(|c| {
            let jobs: usize = c.iter().map(|b| b.jobs).sum();
            let span = c.last()?.end_s - c.first()?.start_s;
            (span > 0.0).then(|| jobs as f64 / span)
        })
        .sum()
}

/// The `p`-th percentile of open-loop latency (result received minus due
/// time) per window, arrivals of all connections ordered by due time.
fn arrival_latency(per_conn: &[Vec<Arrival>], p: f64) -> Windowed {
    let mut all: Vec<Arrival> = per_conn.concat();
    all.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let ms: Vec<f64> = all.iter().map(Arrival::latency_ms).collect();
    Windowed {
        values: windows(&ms).into_iter().map(|w| percentile(w, p)).collect(),
        n: ms.len(),
    }
}

/// `serve_small`: closed-loop bursts (capacity), then open-loop Poisson
/// arrivals at [`GATED_RATE`] (latency at a fixed rate), half of `seconds`
/// each. With `tails`, the last 30 % go to an ungated phase at
/// [`TAIL_RATE`]. A traced run books every job as spans.
pub fn measure_serve(
    st: &mut Served,
    seconds: f64,
    tracer: Option<&Tracer>,
    tails: bool,
) -> Outcome {
    let (closed_s, open_s, tail_s) = if tails {
        (0.3, 0.4, 0.3)
    } else {
        (0.5, 0.5, 0.0)
    };
    let (seed, pool_len) = (st.seed, st.inputs.pool.len() as u64);
    let mut check = Check::default();

    let bursts = on_every_connection(st, &mut check, |conn, check| {
        let verify = |pick: usize, r: &Matrix| bit_diff(r, &conn.oracles[pick]) == 0;
        let mut rng = gen::stream(seed, streams::ARRIVALS + 32 + conn.index as u64);
        let mut picks = std::iter::repeat_with(|| rng.random_below(pool_len) as usize);
        let mut port = job_port(conn.port, tracer, conn.index);
        let phase = seconds * closed_s;
        closed_loop(&mut *port, phase, BURST, &mut picks, &verify, check)
    });
    let mut open_phase = |rate: f64, share: f64, stream: u64| {
        on_every_connection(st, &mut check, |conn, check| {
            let verify = |pick: usize, r: &Matrix| bit_diff(r, &conn.oracles[pick]) == 0;
            let mut rng = gen::stream(seed, stream + conn.index as u64);
            let due: Vec<(f64, usize)> =
                gen::poisson_schedule(&mut rng, rate / CONNECTIONS as f64, seconds * share)
                    .into_iter()
                    .map(|t| (t, rng.random_below(pool_len) as usize))
                    .collect();
            let mut port = job_port(conn.port, tracer, conn.index);
            open_loop(&mut *port, &due, BURST, &verify, check)
        })
    };
    let gated = open_phase(GATED_RATE, open_s, streams::ARRIVALS);
    let tail = if tails {
        open_phase(TAIL_RATE, tail_s, streams::ARRIVALS + 16)
    } else {
        Vec::new()
    };

    let mut out = Outcome::new(check);
    out.put(
        "jobs_per_s",
        across_connections(&bursts, "jobs_per_s", |_| true, burst_rate),
    );
    out.put("job_ms_p50", arrival_latency(&gated, 50.0));
    out.put("job_ms_p90", arrival_latency(&gated, 90.0));
    if tails {
        let ms = |a: &[Vec<Arrival>]| -> Vec<f64> {
            a.iter().flatten().map(Arrival::latency_ms).collect()
        };
        let late = gated
            .iter()
            .chain(&tail)
            .flatten()
            .map(Arrival::late_ms)
            .fold(0.0, f64::max);
        let (gated, tail) = (ms(&gated), ms(&tail));
        let mut put = |name, samples: &[f64], value: f64| {
            let mut s = Summary::single(value);
            s.n = samples.len();
            out.tails.insert(name, s);
        };
        put("service.job_ms_p99", &gated, percentile(&gated, 99.0));
        put("service.job_ms_p50_r1000", &tail, percentile(&tail, 50.0));
        put("service.job_ms_p90_r1000", &tail, percentile(&tail, 90.0));
        put("service.generator_late_ms_max", &tail, late);
    }
    out
}

/// `store_mixed`: the seeded 70/20/10 solve / update / replace mix on every
/// connection's ring for the whole phase. The rates are per class (ops of a
/// class over the connection time spent in that class, summed over
/// connections): the closed loop locks the op counts together, so only the
/// per-class time shows a faster solve beside a slower update.
pub fn measure_store(st: &mut Served, seconds: f64) -> Outcome {
    let mut check = Check::default();
    let rows_per_update = st.inputs.rows[0].nrows() as f64;
    let mix = on_every_connection(st, &mut check, |conn, check| {
        let until = Until::Seconds(seconds);
        run_mix(conn.port, conn.inputs, conn.ring, conn.ops, until, check)
    });

    type Chunks<'a> = [&'a [MixOp]];
    let dur = |o: &MixOp| o.end_s - o.start_s;
    let class_rate = |kind: OpKind, scale: f64| {
        move |chunks: &Chunks| -> Option<f64> {
            chunks
                .iter()
                .map(|c| {
                    let d: Vec<f64> = c.iter().filter(|o| o.kind == kind).map(dur).collect();
                    let busy: f64 = d.iter().sum();
                    (busy > 0.0).then(|| scale * d.len() as f64 / busy)
                })
                .sum()
        }
    };
    let keep_ms = |chunks: &Chunks| -> Option<f64> {
        let keeps = chunks
            .iter()
            .flat_map(|c| c.iter())
            .filter(|o| o.kind == OpKind::Keep);
        let ms: Vec<f64> = keeps.map(|o| dur(o) * 1e3).collect();
        (!ms.is_empty()).then(|| median(&ms))
    };
    let mut out = Outcome::new(check);
    let mut put = |name, kind: OpKind, stat: &dyn Fn(&Chunks) -> Option<f64>| {
        out.put(
            name,
            across_connections(&mix, name, |o| o.kind == kind, stat),
        );
    };
    put(
        "solves_per_s",
        OpKind::Solve,
        &class_rate(OpKind::Solve, 1.0),
    );
    put(
        "update_rows_per_s",
        OpKind::Update,
        &class_rate(OpKind::Update, rows_per_update),
    );
    put("keep_ms_p50", OpKind::Keep, &keep_ms);
    out
}

/// Drain the daemon and hold its final counters against the gate: no
/// failed, rejected, expired or panicked job, no eviction and no refused
/// keep (the store budget holds every live handle by construction).
pub fn teardown(st: Served, tracer: Option<&Tracer>) -> Check {
    let Served {
        daemon,
        started,
        ports,
        mut setup_check,
        ..
    } = st;
    drop(ports);
    if let Some(t) = tracer {
        let mut trace = daemon.service.take_trace();
        trace.spans.truncate(ADOPTED_TASKS);
        let offset = t.us_since_start(started);
        t.adopt(&trace, None, 0, offset, (offset, t.now_us()));
    }
    let stats = Json::parse(&daemon.stop()).expect("daemon stats are JSON");
    for path in [
        &["jobs_failed"][..],
        &["jobs_rejected"],
        &["jobs_expired"],
        &["jobs_panicked"],
        &["store", "evictions"],
        &["store", "rejected"],
    ] {
        let n = stat(&stats, path);
        if n != 0.0 {
            setup_check.fail(format!("daemon reports {path:?} = {n}, expected 0"));
        }
    }
    setup_check
}
