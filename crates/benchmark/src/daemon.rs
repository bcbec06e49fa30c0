//! The serve daemon as the benchmark drives it: an in-process [`Service`]
//! behind `pulsar_server::serve` on a loopback socket, the two ports the
//! load generators talk through (factor jobs, store verbs — each with a TCP
//! and an in-process implementation, and fakes in the tests), and the three
//! generators: closed-loop bursts, open-loop Poisson arrivals timed from
//! their due time, and the seeded store mix.

use crate::gen::{StoreOp, StoreOps};
use crate::spans::Tracer;
use pulsar_core::QrOptions;
use pulsar_linalg::Matrix;
use pulsar_server::{serve, Client, ServeConfig, Service};
use pulsar_tuner::json::Json;
use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client calls give up after this long, so a wedged daemon fails the run
/// instead of hanging it.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// A live daemon: service, accept loop, address.
pub struct Daemon {
    /// `127.0.0.1:<port>` the daemon listens on.
    pub addr: String,
    /// The service behind the socket (for in-process stats).
    pub service: Arc<Service>,
    accept: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Start a service and serve it on an ephemeral loopback port.
    pub fn start(cfg: ServeConfig) -> Daemon {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener
            .local_addr()
            .expect("listener has an address")
            .to_string();
        let service = Service::start(cfg);
        let svc = service.clone();
        let accept = std::thread::spawn(move || serve(listener, svc));
        Daemon {
            addr,
            service,
            accept,
        }
    }

    /// A client connection with call deadlines.
    pub fn connect(&self) -> Client {
        connect(&self.addr)
    }

    /// Drain the daemon, join its accept loop, and return the final stats
    /// JSON.
    pub fn stop(self) -> String {
        let stats = self.connect().drain().expect("daemon drains");
        self.join();
        stats
    }

    /// Wait for the accept loop of a daemon something else drained.
    pub fn join(self) {
        self.accept
            .join()
            .expect("accept loop does not panic")
            .expect("accept loop exits cleanly");
    }
}

/// Dial `addr` with the benchmark's call deadlines.
pub fn connect(addr: &str) -> Client {
    Client::connect_timeout(addr, CALL_TIMEOUT).expect("connect to the daemon")
}

/// A number out of a stats JSON by key path; the daemon's stats are part of
/// its public surface, so a missing key is a broken build, not bad input.
pub fn stat(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats lack {path:?}"))
}

/// The benchmark's service settings: 2 pool threads, queue 64, batches of 4.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        queue_cap: 64,
        batch_max: 4,
        ..ServeConfig::default()
    }
}

/// Where fire-and-forget factor jobs go. `pick` indexes the workload's
/// matrix pool; errors come back as text and count as failed operations.
pub trait JobPort {
    /// Submit pool matrix `pick`; returns the job id once acknowledged.
    fn submit(&mut self, pick: usize) -> Result<u64, String>;
    /// Block until `job` finishes; returns its `R`.
    fn result(&mut self, job: u64) -> Result<Matrix, String>;
}

impl<T: JobPort + ?Sized> JobPort for &mut T {
    fn submit(&mut self, pick: usize) -> Result<u64, String> {
        (**self).submit(pick)
    }

    fn result(&mut self, job: u64) -> Result<Matrix, String> {
        (**self).result(job)
    }
}

/// Where store verbs go.
pub trait StorePort {
    /// Factor `a` and keep the factors; returns the handle once resident.
    fn keep(&mut self, a: &Matrix) -> Result<u64, String>;
    /// Least-squares solve against `handle`.
    fn solve(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, String>;
    /// Append rows to `handle`; returns the new row count.
    fn update(&mut self, handle: u64, e: &Matrix) -> Result<u64, String>;
    /// Drop `handle`; false when it was not resident.
    fn release(&mut self, handle: u64) -> Result<bool, String>;
}

/// A TCP connection to a daemon (or router), with the job inputs it sends.
pub struct TcpPort {
    /// The connection.
    pub client: Client,
    /// Matrix pool `submit(pick)` draws from.
    pub pool: Arc<Vec<Matrix>>,
    /// Plan options every job uses.
    pub opts: QrOptions,
}

impl JobPort for TcpPort {
    fn submit(&mut self, pick: usize) -> Result<u64, String> {
        self.client
            .submit(&self.pool[pick], &self.opts, 0)
            .map_err(|e| e.to_string())
    }

    fn result(&mut self, job: u64) -> Result<Matrix, String> {
        self.client.result(job).map_err(|e| e.to_string())
    }
}

impl StorePort for TcpPort {
    fn keep(&mut self, a: &Matrix) -> Result<u64, String> {
        let handle = self
            .client
            .submit_keep(a, &self.opts, 0)
            .map_err(|e| e.to_string())?;
        self.client.result(handle).map_err(|e| e.to_string())?;
        Ok(handle)
    }

    fn solve(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, String> {
        self.client.solve(handle, b).map_err(|e| e.to_string())
    }

    fn update(&mut self, handle: u64, e: &Matrix) -> Result<u64, String> {
        self.client.update(handle, e).map_err(|e| e.to_string())
    }

    fn release(&mut self, handle: u64) -> Result<bool, String> {
        self.client.release(handle).map_err(|e| e.to_string())
    }
}

/// The service called directly, no socket: the rung below [`TcpPort`].
pub struct InprocPort {
    /// The service.
    pub service: Arc<Service>,
    /// Matrix pool `submit(pick)` draws from.
    pub pool: Arc<Vec<Matrix>>,
    /// Plan options every job uses.
    pub opts: QrOptions,
}

impl InprocPort {
    fn submit_matrix(&self, a: &Matrix, keep: bool) -> Result<u64, String> {
        self.service
            .submit(a.clone(), self.opts.clone(), None, keep)
            .map_err(|e| e.to_string())
    }
}

impl JobPort for InprocPort {
    fn submit(&mut self, pick: usize) -> Result<u64, String> {
        self.submit_matrix(&self.pool[pick], false)
    }

    fn result(&mut self, job: u64) -> Result<Matrix, String> {
        self.service.wait_result(job).map_err(|e| e.to_string())
    }
}

impl StorePort for InprocPort {
    fn keep(&mut self, a: &Matrix) -> Result<u64, String> {
        let handle = self.submit_matrix(a, true)?;
        self.service
            .wait_result(handle)
            .map_err(|e| e.to_string())?;
        Ok(handle)
    }

    fn solve(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, String> {
        self.service.solve(handle, b).map_err(|e| e.to_string())
    }

    fn update(&mut self, handle: u64, e: &Matrix) -> Result<u64, String> {
        self.service.update(handle, e).map_err(|e| e.to_string())
    }

    fn release(&mut self, handle: u64) -> Result<bool, String> {
        Ok(self.service.release(handle))
    }
}

/// `port`, wrapped to record spans when the run is traced.
pub fn job_port<'a>(
    port: &'a mut TcpPort,
    tracer: Option<&'a Tracer>,
    lane: usize,
) -> Box<dyn JobPort + 'a> {
    match tracer {
        Some(t) => Box::new(TracedPort::new(port, t, "wire", lane)),
        None => Box::new(port),
    }
}

/// A [`JobPort`] that records a `job` span per request with `submit` and
/// `result` children (the traced run only).
pub struct TracedPort<'a, P> {
    /// The port being traced.
    pub inner: P,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// Layer the spans are booked under (`wire`, `service`, `router`).
    pub layer: &'static str,
    /// Display lane (the connection index).
    pub lane: usize,
    /// Submit-to-acknowledgement time of every finished job, microseconds.
    pub acks_us: Vec<f64>,
    /// Time every finished job's `result` call blocked, microseconds.
    pub waits_us: Vec<f64>,
    /// Jobs awaiting their result: id to (submit start, ack time), tracer µs.
    open: HashMap<u64, (f64, f64)>,
}

impl<'a, P> TracedPort<'a, P> {
    /// Trace `inner`'s jobs into `tracer` under `layer`, drawn on `lane`.
    pub fn new(inner: P, tracer: &'a Tracer, layer: &'static str, lane: usize) -> Self {
        TracedPort {
            inner,
            tracer,
            layer,
            lane,
            acks_us: Vec::new(),
            waits_us: Vec::new(),
            open: HashMap::new(),
        }
    }
}

impl<P: JobPort> JobPort for TracedPort<'_, P> {
    fn submit(&mut self, pick: usize) -> Result<u64, String> {
        let start = self.tracer.now_us();
        let job = self.inner.submit(pick)?;
        self.open.insert(job, (start, self.tracer.now_us()));
        Ok(job)
    }

    fn result(&mut self, job: u64) -> Result<Matrix, String> {
        let wait_start = self.tracer.now_us();
        let r = self.inner.result(job)?;
        let end = self.tracer.now_us();
        if let Some((start, acked)) = self.open.remove(&job) {
            self.acks_us.push(acked - start);
            self.waits_us.push(end - wait_start);
            let span = |name: &str, a: f64, b: f64, parent| crate::spans::Span {
                layer: self.layer,
                name: name.to_string(),
                start_us: a,
                end_us: b,
                parent,
                request: job,
                lane: self.lane,
            };
            let parent = Some(self.tracer.record(span("job", start, end, None)));
            self.tracer.record(span("submit", start, acked, parent));
            self.tracer.record(span("result", wait_start, end, parent));
        }
        Ok(r)
    }
}

/// Counts operations and failures; keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// The first failures, for the report.
    pub notes: Vec<String>,
}

impl Check {
    /// Count one operation; `problem` describes why it failed, if it did.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Count a failure of an already-counted operation (a wrong result).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(problem);
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// One closed-loop burst: `jobs` submits, then their results.
#[derive(Copy, Clone, Debug)]
pub struct Burst {
    /// Seconds from the phase start to the first submit.
    pub start_s: f64,
    /// Seconds from the phase start to the last result.
    pub end_s: f64,
    /// Jobs in the burst.
    pub jobs: usize,
}

/// Closed loop on one connection: pipeline bursts of `burst` jobs (submit
/// all, then collect all) until `seconds` have passed (at least one burst).
/// `picks` chooses the pool matrix of each job; `verify(pick, r)` is asked
/// about every 16th result.
pub fn closed_loop(
    port: &mut dyn JobPort,
    seconds: f64,
    burst: usize,
    picks: &mut impl Iterator<Item = usize>,
    verify: &dyn Fn(usize, &Matrix) -> bool,
    check: &mut Check,
) -> Vec<Burst> {
    let t0 = Instant::now();
    let mut bursts = Vec::new();
    let mut jobs_done = 0u64;
    loop {
        let start_s = t0.elapsed().as_secs_f64();
        let sent: Vec<(usize, Result<u64, String>)> = (0..burst)
            .map(|_| {
                let pick = picks.next().expect("pick stream is endless");
                (pick, port.submit(pick))
            })
            .collect();
        for (pick, job) in sent {
            let outcome = job.and_then(|j| port.result(j));
            jobs_done += 1;
            check.op(match outcome {
                Err(e) => Some(format!("factor job failed: {e}")),
                Ok(r) if jobs_done.is_multiple_of(16) && !verify(pick, &r) => {
                    Some(format!("R of pool matrix {pick} differs from tile_qr_seq"))
                }
                Ok(_) => None,
            });
        }
        bursts.push(Burst {
            start_s,
            end_s: t0.elapsed().as_secs_f64(),
            jobs: burst,
        });
        if t0.elapsed().as_secs_f64() >= seconds {
            return bursts;
        }
    }
}

/// One open-loop job.
#[derive(Copy, Clone, Debug)]
pub struct Arrival {
    /// When the job was due, seconds from the phase start.
    pub due_s: f64,
    /// When its submit was actually issued.
    pub sent_s: f64,
    /// When its result arrived.
    pub done_s: f64,
}

impl Arrival {
    /// Latency a caller sees: result received minus the time the job was
    /// due, so a stall is charged to every job that waited behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// How late the generator issued the job.
    pub fn late_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// Open loop on one connection: job `i` is due at `due[i].0` seconds and
/// factors pool matrix `due[i].1`. Jobs already due are pipelined up to
/// `burst` deep; the schedule never waits for the server.
pub fn open_loop(
    port: &mut dyn JobPort,
    due: &[(f64, usize)],
    burst: usize,
    verify: &dyn Fn(usize, &Matrix) -> bool,
    check: &mut Check,
) -> Vec<Arrival> {
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let mut out = Vec::with_capacity(due.len());
    let mut i = 0;
    while i < due.len() {
        let wait = due[i].0 - now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        let t = now();
        let mut end = i + 1;
        while end < due.len() && end - i < burst && due[end].0 <= t {
            end += 1;
        }
        let sent: Vec<(f64, Result<u64, String>)> = due[i..end]
            .iter()
            .map(|&(_, pick)| (now(), port.submit(pick)))
            .collect();
        for (k, (sent_s, job)) in sent.into_iter().enumerate() {
            let (due_s, pick) = due[i + k];
            let outcome = job.and_then(|j| port.result(j));
            let verified = (i + k).is_multiple_of(16);
            check.op(match &outcome {
                Err(e) => Some(format!("factor job failed: {e}")),
                Ok(r) if verified && !verify(pick, r) => {
                    Some(format!("R of pool matrix {pick} differs from tile_qr_seq"))
                }
                Ok(_) => None,
            });
            out.push(Arrival {
                due_s,
                sent_s,
                done_s: now(),
            });
        }
        i = end;
    }
    out
}

/// The op classes of the store mix.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `solve` with one right-hand side.
    Solve,
    /// `update` appending one tile row.
    Update,
    /// `submit_keep` until the handle is resident.
    Keep,
    /// `release` of the oldest handle.
    Release,
}

/// One timed store op.
#[derive(Copy, Clone, Debug)]
pub struct MixOp {
    /// Its class.
    pub kind: OpKind,
    /// Seconds from the phase start to the call.
    pub start_s: f64,
    /// Seconds from the phase start to the reply.
    pub end_s: f64,
}

/// A kept factorization as the generator tracks it. The right-hand side is
/// always `A x0` for the current (grown) `A`, so the exact least-squares
/// solution of every solve is the seeded `x0`.
pub struct Kept {
    handle: u64,
    rows: usize,
    b: Vec<f64>,
    x0: Matrix,
}

/// Inputs of the store mix, generated once per run from the seed.
pub struct MixInputs {
    /// Matrices `keep` draws from.
    pub pool: Arc<Vec<Matrix>>,
    /// One seeded solution vector per pool matrix.
    pub x0: Vec<Matrix>,
    /// Tile-row blocks `update` appends, cycled.
    pub rows: Vec<Matrix>,
}

/// Solves must reproduce the seeded solution to this relative error.
pub const SOLVE_TOL: f64 = 1e-10;

/// The relative error of `x` against `want` when it is not within `tol`
/// (a wrong shape or a NaN is not within any tolerance).
pub fn off_by(x: &Matrix, want: &Matrix, tol: f64) -> Option<f64> {
    let err = if (x.nrows(), x.ncols()) == (want.nrows(), want.ncols()) {
        x.sub(want).norm_fro() / want.norm_fro().max(f64::MIN_POSITIVE)
    } else {
        f64::INFINITY
    };
    (err.is_nan() || err > tol).then_some(err)
}

/// Keep pool matrix `pick` through `port` and start tracking it.
pub fn keep(port: &mut impl StorePort, inputs: &MixInputs, pick: usize) -> Result<Kept, String> {
    let a = &inputs.pool[pick];
    let handle = port.keep(a)?;
    let x0 = inputs.x0[pick].clone();
    Ok(Kept {
        handle,
        rows: a.nrows(),
        b: a.matmul(&x0).data().to_vec(),
        x0,
    })
}

impl Kept {
    /// The handle's current right-hand side as an `m x 1` matrix.
    pub fn rhs(&self) -> Matrix {
        Matrix::from_col_major(self.rows, 1, self.b.clone())
    }

    /// The server-side handle.
    pub fn handle(&self) -> u64 {
        self.handle
    }

    /// The exact solution of [`Self::rhs`].
    pub fn solution(&self) -> &Matrix {
        &self.x0
    }
}

/// When a mix phase ends.
#[derive(Copy, Clone, Debug)]
pub enum Until {
    /// After this many seconds.
    Seconds(f64),
    /// After exactly this many ops (counters then repeat exactly).
    Ops(usize),
}

/// Closed-loop store mix on one connection over its ring of kept handles.
/// Every solve is checked against the seeded solution, every update's row
/// count against the generator's own, every release must find its handle.
pub fn run_mix(
    port: &mut impl StorePort,
    inputs: &MixInputs,
    ring: &mut VecDeque<Kept>,
    ops: &mut StoreOps,
    until: Until,
    check: &mut Check,
) -> Vec<MixOp> {
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let mut out = Vec::new();
    let mut appended = 0usize;
    loop {
        match until {
            Until::Seconds(s) if now() >= s => break,
            Until::Ops(n) if out.len() >= n => break,
            _ => {}
        }
        let op = ops.next().expect("op stream is endless");
        let mut timed = |kind: OpKind, f: &mut dyn FnMut() -> Option<String>| {
            let start_s = now();
            let problem = f();
            out.push(MixOp {
                kind,
                start_s,
                end_s: now(),
            });
            check.op(problem);
        };
        match op {
            StoreOp::Solve { slot } => {
                let k = &ring[slot % ring.len()];
                let b = k.rhs();
                timed(OpKind::Solve, &mut || match port.solve(k.handle, &b) {
                    Err(e) => Some(format!("solve failed: {e}")),
                    Ok(x) => off_by(&x, &k.x0, SOLVE_TOL)
                        .map(|err| format!("solve on handle {} is off by {err:e}", k.handle)),
                });
            }
            StoreOp::Update { slot } => {
                let slot = slot % ring.len();
                let e = &inputs.rows[appended % inputs.rows.len()];
                appended += 1;
                let k = &mut ring[slot];
                let want = k.rows + e.nrows();
                timed(OpKind::Update, &mut || match port.update(k.handle, e) {
                    Err(e) => Some(format!("update failed: {e}")),
                    Ok(rows) if rows as usize != want => {
                        Some(format!("update returned {rows} rows, expected {want}"))
                    }
                    Ok(_) => None,
                });
                k.b.extend_from_slice(e.matmul(&k.x0).data());
                k.rows = want;
            }
            StoreOp::Replace { pick } => {
                let oldest = ring.pop_front().expect("ring is never empty");
                timed(OpKind::Release, &mut || match port.release(oldest.handle) {
                    Err(e) => Some(format!("release failed: {e}")),
                    Ok(false) => Some(format!("handle {} was not resident", oldest.handle)),
                    Ok(true) => None,
                });
                let mut fresh = None;
                timed(OpKind::Keep, &mut || match keep(port, inputs, pick) {
                    Err(e) => Some(format!("keep failed: {e}")),
                    Ok(k) => {
                        fresh = Some(k);
                        None
                    }
                });
                // A failed keep already counted; keep the ring populated so
                // later ops still have a target.
                ring.push_back(fresh.unwrap_or(oldest));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake server that answers instantly except for one stall.
    struct Stalling {
        next: u64,
        stall_at: u64,
        stall: Duration,
    }

    impl JobPort for Stalling {
        fn submit(&mut self, _pick: usize) -> Result<u64, String> {
            self.next += 1;
            Ok(self.next)
        }

        fn result(&mut self, job: u64) -> Result<Matrix, String> {
            if job == self.stall_at {
                std::thread::sleep(self.stall);
            }
            Ok(Matrix::zeros(1, 1))
        }
    }

    #[test]
    fn a_stalled_server_inflates_open_loop_latency_of_the_jobs_behind_it() {
        // 100 jobs, one every millisecond; job 10 stalls the server for
        // 60 ms. Timed from the send, only that job would look slow; timed
        // from the due time, every job that queued behind it is charged.
        let due: Vec<(f64, usize)> = (0..100).map(|i| (i as f64 * 1e-3, 0)).collect();
        let mut port = Stalling {
            next: 0,
            stall_at: 10,
            stall: Duration::from_millis(60),
        };
        let mut check = Check::default();
        let got = open_loop(&mut port, &due, 4, &|_, _| true, &mut check);
        assert_eq!((check.attempted, check.failed), (100, 0));
        assert_eq!(got.len(), 100);
        let slow = got.iter().filter(|a| a.latency_ms() > 20.0).count();
        assert!(slow >= 10, "only {slow} jobs saw the stall");
        let from_send = got
            .iter()
            .filter(|a| (a.done_s - a.sent_s) * 1e3 > 20.0)
            .count();
        assert!(from_send <= 4, "{from_send} jobs slow from their send time");
        let late = got.iter().map(Arrival::late_ms).fold(0.0, f64::max);
        assert!(late > 20.0, "generator lateness {late} ms must be reported");
        // The tail of the schedule has caught up again.
        assert!(got[99].latency_ms() < 20.0);
    }

    #[test]
    fn failures_and_wrong_results_are_counted() {
        struct Failing;
        impl JobPort for Failing {
            fn submit(&mut self, pick: usize) -> Result<u64, String> {
                if pick == 1 {
                    Err("refused".into())
                } else {
                    Ok(1)
                }
            }
            fn result(&mut self, _job: u64) -> Result<Matrix, String> {
                Ok(Matrix::zeros(1, 1))
            }
        }
        let due = [(0.0, 0), (0.0, 1), (0.0, 0)];
        let mut check = Check::default();
        open_loop(&mut Failing, &due, 4, &|_, _| false, &mut check);
        // Job 1 is refused; job 0 is the verified one (index 0) and wrong.
        assert_eq!((check.attempted, check.failed), (3, 2));
        assert_eq!(check.notes.len(), 2);
    }
}
