//! The in-process QR service: admission queue, batching scheduler, and
//! the warm [`VsaPool`] that executes every job.
//!
//! One scheduler thread owns the pool. It pops jobs FIFO off a bounded
//! queue, packs up to `batch_max` of them into one batch (capped by
//! `batch_bytes` of matrix data so one giant job cannot drag a batch of
//! small ones behind it), runs
//! [`tile_qr_vsa_batch_pooled`](pulsar_core::vsa3d::tile_qr_vsa_batch_pooled)
//! on the warm pool — each job walked whole on one worker when the batch
//! has a job for every worker, one shared VSA launch otherwise — and
//! distributes each R to its waiters. Admission is
//! rejected — not stalled — when the queue is full, with a retry hint
//! derived from the observed batch rate.

use crate::proto::{ErrCode, JobState};
use crate::server::{validate_job, IdemMap};
use crate::store::{FactorHandle, FactorStore, StoreError, WalError};
use parking_lot::{Condvar, Mutex};
use pulsar_core::update::append_rows;
use pulsar_core::vsa3d::{batch_backend, tile_qr_vsa_batch_pooled};
use pulsar_core::{grid_aspect, tile_qr_tsqr, QrOptions, TileQrFactors};
use pulsar_linalg::Matrix;
use pulsar_runtime::trace::{TaskSpan, Trace};
use pulsar_runtime::{RunConfig, RunError, Tuple, VsaPool};
use pulsar_tuner::json::{obj, Json};
use pulsar_tuner::{qr_flops, PlanKey, ProfileTable, Refiner};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads in the VSA pool.
    pub threads: usize,
    /// Admission queue capacity; submits beyond this are rejected.
    pub queue_cap: usize,
    /// Most jobs packed into one VSA launch.
    pub batch_max: usize,
    /// Soft cap on the summed matrix bytes of one batch. The first job of
    /// a batch is always admitted regardless of size.
    pub batch_bytes: usize,
    /// Retry hint handed out before any batch has completed (no rate
    /// estimate exists yet).
    pub default_retry_after_ms: u32,
    /// Byte budget of the factorization store (`submit --keep` results).
    /// LRU entries are evicted past this; a single factorization larger
    /// than the whole budget is refused with a typed `StoreFull`.
    pub store_bytes: usize,
    /// Collect per-task execution traces across all batches.
    pub trace: bool,
    /// How many times an innocent job may be re-dispatched after a
    /// co-batched job's VDP panicked (or the batch failed for another
    /// transient runtime reason) before it fails for good.
    pub retry_budget: u32,
    /// Directory for the durable factor store (checksummed snapshot +
    /// append-only WAL). `None` keeps the store purely in memory; kept
    /// handles then die with the process.
    pub store_path: Option<PathBuf>,
    /// How many idempotency keys the service remembers (FIFO). Enough to
    /// cover any realistic retry window without unbounded growth; a
    /// router fronting many clients may want this larger.
    pub idem_cap: usize,
    /// How long the TCP front end keeps read halves open after a drain
    /// for unclaimed outcomes before closing anyway.
    pub drain_grace: Duration,
    /// WAL size past which the durable factor store folds the log into a
    /// fresh snapshot.
    pub wal_compact_bytes: u64,
    /// Path of a tuner profile table (JSON, written by `pulsar-qr tune`).
    /// When set, the service loads it at start (a missing file starts
    /// empty), routes tall-skinny jobs to the TSQR fast path, refines the
    /// table online from observed service times, and persists the refined
    /// table back to the same path on drain. `None` disables the tuner
    /// entirely — every job runs on the 3D VSA exactly as before.
    pub profile_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 2,
            queue_cap: 32,
            batch_max: 4,
            batch_bytes: 64 << 20,
            default_retry_after_ms: 50,
            store_bytes: 256 << 20,
            trace: false,
            retry_budget: 2,
            store_path: None,
            idem_cap: 1024,
            drain_grace: Duration::from_millis(250),
            wal_compact_bytes: 32 << 20,
            profile_path: None,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The queue is full or the service is draining. Typed backpressure:
    /// the caller should retry after `retry_after_ms` (unless draining).
    Backpressure {
        /// Suggested back-off.
        retry_after_ms: u32,
        /// Queue depth at rejection time.
        queued: u32,
        /// True when the service is shutting down (do not retry).
        draining: bool,
    },
    /// The job parameters are invalid (bad shape, tile sizes, ...).
    Invalid(String),
    /// A router's refusal: no live node to place the job on, or the node
    /// it was placed on refused it or died mid-dispatch.
    Node(ErrCode, String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure {
                retry_after_ms,
                queued,
                draining,
            } => write!(
                f,
                "service over capacity ({queued} queued, draining: {draining}); \
                 retry after {retry_after_ms} ms"
            ),
            SubmitError::Invalid(m) => write!(f, "invalid job: {m}"),
            SubmitError::Node(code, m) => write!(f, "not placed ({code:?}): {m}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a job produced no R factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The runtime reported an error while factoring the batch.
    Failed(String),
    /// The deadline passed before the job left the queue.
    DeadlineExpired,
    /// The job was cancelled while queued.
    Cancelled,
    /// No job with that id was ever admitted.
    Unknown,
    /// The factor handle is not resident in the store: never kept,
    /// explicitly released, or evicted by the byte budget.
    HandleExpired(u64),
    /// The factorization does not fit the store's whole byte budget.
    StoreFull {
        /// Bytes the factorization needs.
        needed: u64,
        /// The store's total budget.
        budget: u64,
    },
    /// The request is invalid against the stored factorization (shape
    /// mismatch, wide problem, rows not tiled, ...).
    Invalid(String),
    /// This job's own VDP panicked mid-batch. The offending worker was
    /// quarantined and respawned; co-batched jobs were re-dispatched.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Failed(m) => write!(f, "factorization failed: {m}"),
            JobError::DeadlineExpired => write!(f, "deadline expired in queue"),
            JobError::Cancelled => write!(f, "cancelled"),
            JobError::Unknown => write!(f, "unknown job"),
            JobError::HandleExpired(h) => {
                write!(f, "factor handle {h} expired (released or evicted)")
            }
            JobError::StoreFull { needed, budget } => {
                write!(
                    f,
                    "factorization needs {needed} bytes, store budget is {budget}"
                )
            }
            JobError::Invalid(m) => write!(f, "invalid request: {m}"),
            JobError::Panicked(m) => write!(f, "job panicked: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<StoreError> for JobError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::HandleExpired(h) => JobError::HandleExpired(h.raw()),
            StoreError::StoreFull { needed, budget } => JobError::StoreFull { needed, budget },
            StoreError::Io(m) => JobError::Failed(m),
        }
    }
}

struct Job {
    /// Present while queued; taken when scheduled (or dropped on
    /// cancel/expiry) so the queue holds each matrix exactly once.
    a: Option<Matrix>,
    opts: QrOptions,
    deadline: Option<Instant>,
    submitted: Instant,
    state: JobState,
    /// Keep the full factorization in the store when done (the job id
    /// becomes its factor handle).
    keep: bool,
    /// Times this job has been re-dispatched after a poisoned batch.
    retries: u32,
    /// The outcome has been delivered to a waiter at least once; drain's
    /// grace period only waits for unclaimed outcomes.
    claimed: bool,
    outcome: Option<Result<Matrix, JobError>>,
}

#[derive(Default)]
struct Counters {
    done: u64,
    failed: u64,
    cancelled: u64,
    expired: u64,
    rejected: u64,
    batches: u64,
    /// Batches whose jobs were each walked whole on one pool worker
    /// ([`pulsar_core::vsa3d::batch_backend`]), poisoned ones included.
    batches_walked: u64,
    solves: u64,
    applies: u64,
    updates: u64,
    update_rows: u64,
    /// Jobs whose own VDP panicked (typed `JobError::Panicked`).
    panicked: u64,
    /// Innocent jobs re-queued after a poisoned batch.
    redispatched: u64,
}

struct State {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: HashMap<u64, Job>,
    draining: bool,
    /// Scheduler has exited (drain finished).
    stopped: bool,
    running: usize,
    counters: Counters,
    latencies_ms: Vec<f64>,
    queue_peak: usize,
    /// Wall time the pool spent inside batches.
    busy: Duration,
    /// Accumulated spans from every batch, shifted to service time.
    spans: Vec<TaskSpan>,
    /// Client idempotency keys of admitted jobs.
    idem: IdemMap,
    /// Chaos directive: panic the factor VDP of this job's next batch
    /// (consumed one-shot, so a re-dispatch runs clean).
    chaos_panic_job: Option<u64>,
    /// Chaos directive: stall the scheduler this long before every batch,
    /// modelling a fixed service rate (multi-node bench and tests).
    chaos_sched_delay: Option<Duration>,
}

/// Tuner state behind its own lock (never held together with `state` —
/// the scheduler takes them strictly one at a time).
struct TunerState {
    table: ProfileTable,
    refiner: Refiner,
    /// Routing lookups answered by a profile cell (exact or nearest).
    hits: u64,
    /// Routing lookups with no cell at all (empty table).
    misses: u64,
    /// Jobs executed on the TSQR fast path instead of the VSA.
    tsqr_jobs: u64,
}

/// A running QR service. Cheap to share behind an [`Arc`]; every method
/// takes `&self` and is safe to call from any connection thread.
pub struct Service {
    cfg: ServeConfig,
    started: Instant,
    state: Mutex<State>,
    /// Kept factorizations, behind their own short-held lock. Lock order:
    /// `state` may nest `store` (the scheduler does); never the reverse.
    store: Mutex<FactorStore>,
    /// The warm VSA pool. Owned by the service (not the scheduler thread)
    /// so connection threads can read its respawn counter for stats.
    pool: VsaPool,
    /// Signals the scheduler that work (or drain) arrived.
    work: Condvar,
    /// Signals waiters that some job reached a terminal state.
    done: Condvar,
    sched: Mutex<Option<JoinHandle<()>>>,
    /// Shape-aware plan tuner; `None` when no profile path is configured
    /// (the service then behaves exactly as before the tuner existed).
    tuner: Option<Mutex<TunerState>>,
}

impl Service {
    /// Start the scheduler thread and its warm VSA pool. Panics when the
    /// durable store (if configured) cannot be recovered; use
    /// [`Self::try_start`] to handle that as a typed error.
    pub fn start(cfg: ServeConfig) -> Arc<Service> {
        match Self::try_start(cfg) {
            Ok(svc) => svc,
            Err(e) => panic!("factor store recovery failed: {e}"),
        }
    }

    /// Start the service, recovering the durable factor store from
    /// [`ServeConfig::store_path`] when one is configured: the snapshot is
    /// loaded, the WAL replayed (truncating any torn or corrupt tail), and
    /// every recovered handle is resident again — bit-identical — before
    /// the first connection is accepted.
    pub fn try_start(cfg: ServeConfig) -> Result<Arc<Service>, WalError> {
        assert!(cfg.threads > 0, "service needs at least one pool thread");
        assert!(cfg.queue_cap > 0, "queue capacity must be positive");
        assert!(cfg.batch_max > 0, "batch size must be positive");
        let (mut store, max_handle) = match &cfg.store_path {
            Some(dir) => FactorStore::recover(cfg.store_bytes, dir)?,
            None => (FactorStore::new(cfg.store_bytes), 0),
        };
        store.set_wal_compact_bytes(cfg.wal_compact_bytes);
        let tuner = cfg.profile_path.as_ref().map(|path| {
            let table = if path.exists() {
                ProfileTable::load(path).unwrap_or_else(|e| {
                    eprintln!("warning: ignoring unreadable profile {path:?}: {e}");
                    ProfileTable::new()
                })
            } else {
                ProfileTable::new()
            };
            // The measured pooled-GEMM crossover (if the sweep recorded
            // one) replaces the library's fixed heuristic process-wide.
            if let Some(mnk) = table.pool_min_mnk {
                pulsar_linalg::gemm::set_pool_min_mnk(mnk);
            }
            Mutex::new(TunerState {
                table,
                refiner: Refiner::default(),
                hits: 0,
                misses: 0,
                tsqr_jobs: 0,
            })
        });
        let svc = Arc::new(Service {
            cfg: cfg.clone(),
            started: Instant::now(),
            state: Mutex::new(State {
                // Never reuse a recovered handle's id for a new job: a
                // colliding keep would silently replace the survivor.
                next_id: max_handle + 1,
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                draining: false,
                stopped: false,
                running: 0,
                counters: Counters::default(),
                latencies_ms: Vec::new(),
                queue_peak: 0,
                busy: Duration::ZERO,
                spans: Vec::new(),
                idem: IdemMap::new(cfg.idem_cap),
                chaos_panic_job: None,
                chaos_sched_delay: None,
            }),
            store: Mutex::new(store),
            pool: VsaPool::new(cfg.threads),
            work: Condvar::new(),
            done: Condvar::new(),
            sched: Mutex::new(None),
            tuner,
        });
        let runner = svc.clone();
        let handle = std::thread::Builder::new()
            .name("qr-sched".into())
            .spawn(move || runner.scheduler())
            .expect("failed to spawn service scheduler");
        *svc.sched.lock() = Some(handle);
        Ok(svc)
    }

    /// The configuration this service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Admit a job, or reject it with typed backpressure. `deadline` bounds
    /// the time the job may *wait in the queue*; once running it completes.
    ///
    /// With `keep`, the completed factorization (V/T reflector tree + R)
    /// enters the factor store under the returned id, ready for
    /// [`Self::solve`] / [`Self::apply_q`] / [`Self::update`] until
    /// released or evicted. Without it — the default, fire-and-forget path
    /// — the factors are dropped at completion and never pin store bytes.
    pub fn submit(
        &self,
        a: Matrix,
        opts: QrOptions,
        deadline: Option<Duration>,
        keep: bool,
    ) -> Result<u64, SubmitError> {
        self.submit_idem(a, opts, deadline, keep, 0)
    }

    /// [`Self::submit`] with a client-generated idempotency key (0 =
    /// none). When a nonzero key is remembered — the original submit's ACK
    /// was lost and the client retried — the original job id is returned
    /// and nothing is admitted: one factorization, one store charge, no
    /// matter how often the submit is repeated.
    pub fn submit_idem(
        &self,
        a: Matrix,
        opts: QrOptions,
        deadline: Option<Duration>,
        keep: bool,
        idem: u64,
    ) -> Result<u64, SubmitError> {
        validate_job(&a, &opts).map_err(SubmitError::Invalid)?;
        let mut st = self.state.lock();
        // A remembered key wins over every other admission outcome — the
        // job already exists, so not even draining turns the retry away.
        if let Some(id) = st.idem.lookup(idem) {
            return Ok(id);
        }
        if st.draining {
            st.counters.rejected += 1;
            return Err(SubmitError::Backpressure {
                retry_after_ms: 0,
                queued: st.queue.len() as u32,
                draining: true,
            });
        }
        if st.queue.len() >= self.cfg.queue_cap {
            st.counters.rejected += 1;
            let retry_after_ms = self.estimate_retry_ms(&st);
            return Err(SubmitError::Backpressure {
                retry_after_ms,
                queued: st.queue.len() as u32,
                draining: false,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.idem.remember(idem, id);
        st.jobs.insert(
            id,
            Job {
                a: Some(a),
                opts,
                deadline: deadline.map(|d| Instant::now() + d),
                submitted: Instant::now(),
                state: JobState::Queued,
                keep,
                retries: 0,
                claimed: false,
                outcome: None,
            },
        );
        st.queue.push_back(id);
        st.queue_peak = st.queue_peak.max(st.queue.len());
        self.work.notify_one();
        Ok(id)
    }

    /// How long a rejected client should back off: the observed per-batch
    /// wall time times the number of batches queued ahead of it.
    fn estimate_retry_ms(&self, st: &State) -> u32 {
        if st.counters.batches == 0 {
            return self.cfg.default_retry_after_ms;
        }
        let per_batch_ms = st.busy.as_millis() as u64 / st.counters.batches;
        let batches_ahead = (st.queue.len() / self.cfg.batch_max) as u64 + 1;
        (per_batch_ms * batches_ahead).clamp(1, 60_000) as u32
    }

    /// A job's lifecycle state and queue position (0 when not queued).
    pub fn status(&self, id: u64) -> Option<(JobState, u32)> {
        let st = self.state.lock();
        let job = st.jobs.get(&id)?;
        let pos = st
            .queue
            .iter()
            .position(|&q| q == id)
            .map_or(0, |p| p as u32);
        Some((job.state, pos))
    }

    /// Cancel a queued job. Returns false when the job is unknown or has
    /// already started, finished, or been resolved.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = self.state.lock();
        let Some(job) = st.jobs.get_mut(&id) else {
            return false;
        };
        if job.state != JobState::Queued {
            return false;
        }
        job.state = JobState::Cancelled;
        job.outcome = Some(Err(JobError::Cancelled));
        // The canceller has been told; drain need not wait for a Result
        // call that may never come.
        job.claimed = true;
        job.a = None;
        st.counters.cancelled += 1;
        self.done.notify_all();
        true
    }

    /// Block until the job reaches a terminal state and return its R.
    pub fn wait_result(&self, id: u64) -> Result<Matrix, JobError> {
        let mut st = self.state.lock();
        loop {
            match st.jobs.get_mut(&id) {
                None => return Err(JobError::Unknown),
                Some(job) => {
                    if let Some(outcome) = &job.outcome {
                        let outcome = outcome.clone();
                        job.claimed = true;
                        return outcome;
                    }
                }
            }
            self.done.wait(&mut st);
        }
    }

    /// Admitted jobs whose outcome no waiter has collected yet. The TCP
    /// front end keeps read halves open after a drain until this hits
    /// zero (or a grace period lapses), so a client that submitted just
    /// before the drain still gets its result instead of an EOF.
    pub fn unclaimed_outcomes(&self) -> usize {
        let st = self.state.lock();
        st.jobs
            .values()
            .filter(|j| j.outcome.is_some() && !j.claimed)
            .count()
    }

    /// Chaos hook: make the factor VDP of job `id` panic when its batch
    /// launches. Consumed one-shot — a re-dispatched co-batched job runs
    /// clean — so a single directive proves both the typed `Panicked`
    /// outcome and the innocent jobs' recovery.
    pub fn inject_panic_job(&self, id: u64) {
        self.state.lock().chaos_panic_job = Some(id);
    }

    /// Chaos hook: stall the scheduler `delay` before every batch. Models
    /// a fixed per-batch service rate, which makes multi-node throughput
    /// comparisons meaningful on any host regardless of core count.
    pub fn inject_sched_delay(&self, delay: Duration) {
        self.state.lock().chaos_sched_delay = Some(delay);
    }

    /// Load snapshot for placement and liveness probes: jobs waiting in
    /// the admission queue and jobs currently inside the pool.
    pub fn load(&self) -> (u32, u32) {
        let st = self.state.lock();
        (st.queue.len() as u32, st.running as u32)
    }

    /// Worker threads quarantined and respawned by the pool.
    pub fn pool_respawns(&self) -> u64 {
        self.pool.respawns()
    }

    /// Least-squares solve `min ||A x - b||` against the stored
    /// factorization `handle`: `Q^T b` through the V/T reflector tree,
    /// then back-substitution against `R`. Runs entirely on the calling
    /// thread — the store lock is held only for the lookup, so solves on
    /// different handles (or the same one) proceed concurrently.
    pub fn solve(&self, handle: u64, b: &Matrix) -> Result<Matrix, JobError> {
        let f = self.store.lock().get(FactorHandle::from_raw(handle))?;
        if f.m < f.n {
            return Err(JobError::Invalid(format!(
                "solve needs a tall factorization, handle {handle} is {}x{}",
                f.m, f.n
            )));
        }
        if b.nrows() != f.m {
            return Err(JobError::Invalid(format!(
                "rhs has {} rows, factorization has {}",
                b.nrows(),
                f.m
            )));
        }
        let x = f
            .try_solve_ls(b)
            .map_err(|e| JobError::Failed(e.to_string()))?;
        self.state.lock().counters.solves += 1;
        Ok(x)
    }

    /// Apply `Q` (or `Q^T` when `transpose`) from the stored factorization
    /// to an `m x k` operand, using the recorded block reflectors.
    pub fn apply_q(&self, handle: u64, b: &Matrix, transpose: bool) -> Result<Matrix, JobError> {
        let f = self.store.lock().get(FactorHandle::from_raw(handle))?;
        if b.nrows() != f.m {
            return Err(JobError::Invalid(format!(
                "operand has {} rows, factorization has {}",
                b.nrows(),
                f.m
            )));
        }
        let c = if transpose {
            f.apply_qt(b)
        } else {
            f.apply_q(b)
        };
        self.state.lock().counters.applies += 1;
        Ok(c)
    }

    /// Absorb the rows of `e` into the stored factorization without
    /// re-factoring (TSQRT chain against the resident `R`), and commit
    /// the grown factors back under the same handle. Returns the updated
    /// row count. Updates on one handle serialize on its gate; eviction
    /// between the read and the commit surfaces as `HandleExpired`.
    pub fn update(&self, handle: u64, e: &Matrix) -> Result<u64, JobError> {
        let h = FactorHandle::from_raw(handle);
        let gate = self.store.lock().update_gate(h)?;
        // Hold the per-handle gate (not the store lock) across the math.
        let _serialized = gate.lock();
        let f = self.store.lock().get(h)?;
        let updated = append_rows(&f, e).map_err(|err| JobError::Invalid(err.to_string()))?;
        let rows = updated.m as u64;
        let absorbed = e.nrows() as u64;
        {
            let mut store = self.store.lock();
            // Commit only if still resident: an eviction while we were
            // computing means the handle is gone and must stay gone.
            store.update_gate(h)?;
            store.insert(h, Arc::new(updated))?;
        }
        let mut st = self.state.lock();
        st.counters.updates += 1;
        st.counters.update_rows += absorbed;
        Ok(rows)
    }

    /// Drop a stored factorization, freeing its cache bytes. Returns
    /// false when the handle was not resident.
    pub fn release(&self, handle: u64) -> bool {
        self.store.lock().release(FactorHandle::from_raw(handle))
    }

    /// Stop admitting jobs, let the scheduler finish everything already
    /// queued, join it, and return the final stats JSON.
    pub fn drain(&self) -> String {
        {
            let mut st = self.state.lock();
            st.draining = true;
            self.work.notify_all();
            while !st.stopped {
                self.done.wait(&mut st);
            }
        }
        if let Some(handle) = self.sched.lock().take() {
            let _ = handle.join();
        }
        // A clean shutdown folds the WAL into a fresh snapshot so the next
        // boot replays nothing. Failure is not fatal — the un-compacted
        // log is still valid, just longer to replay.
        if let Err(e) = self.store.lock().compact_log() {
            eprintln!("warning: factor store compaction failed: {e}");
        }
        // Persist whatever the online refiner learned: the next boot (or
        // an offline `factor --profile`) starts from the refined table.
        if let (Some(path), Some(tuner)) = (&self.cfg.profile_path, &self.tuner) {
            if let Err(e) = tuner.lock().table.save(path) {
                eprintln!("warning: tuner profile save failed: {e}");
            }
        }
        self.stats_json()
    }

    /// Take the accumulated execution trace (spans are in service time:
    /// microseconds since the service started). Empty unless
    /// [`ServeConfig::trace`] was set.
    pub fn take_trace(&self) -> Trace {
        let mut st = self.state.lock();
        let mut spans = std::mem::take(&mut st.spans);
        spans.sort_by(|a, b| a.end_us.total_cmp(&b.end_us));
        Trace { spans }
    }

    /// One-line JSON snapshot of service statistics: latency percentiles,
    /// throughput, queue depth, pool utilization, verb counters, and the
    /// nested factor-store section.
    pub fn stats_json(&self) -> String {
        // The tuner and store sections are built first so no two service
        // locks are ever held together here.
        let tuner = self.tuner.as_ref().map(|t| t.lock());
        let of = |f: fn(&TunerState) -> u64| tuner.as_deref().map_or(0, f).into();
        let tuner_json = obj([
            ("enabled", Json::Bool(tuner.is_some())),
            ("profile_cells", of(|t| t.table.cells().len() as u64)),
            ("profile_hits", of(|t| t.hits)),
            ("profile_misses", of(|t| t.misses)),
            ("refinements", of(|t| t.refiner.refinements())),
            ("tsqr_jobs", of(|t| t.tsqr_jobs)),
        ]);
        drop(tuner);
        let store_json = self.store.lock().stats_json();
        let st = self.state.lock();
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let [p50, p90, p99] = latency_percentiles(&st.latencies_ms);
        let c = &st.counters;
        obj([
            ("jobs_done", c.done.into()),
            ("jobs_failed", c.failed.into()),
            ("jobs_cancelled", c.cancelled.into()),
            ("jobs_expired", c.expired.into()),
            ("jobs_rejected", c.rejected.into()),
            ("batches", c.batches.into()),
            ("batches_walked", c.batches_walked.into()),
            ("jobs_panicked", c.panicked.into()),
            ("jobs_redispatched", c.redispatched.into()),
            ("pool_respawns", self.pool.respawns().into()),
            ("p50_ms", p50),
            ("p90_ms", p90),
            ("p99_ms", p99),
            ("jobs_per_s", milli(c.done as f64 / uptime)),
            ("queue_depth", st.queue.len().into()),
            ("queue_peak", st.queue_peak.into()),
            ("running", st.running.into()),
            (
                "pool_utilization",
                milli((st.busy.as_secs_f64() / uptime).min(1.0)),
            ),
            ("uptime_s", milli(uptime)),
            ("solves", c.solves.into()),
            ("applies", c.applies.into()),
            ("updates", c.updates.into()),
            ("update_rows", c.update_rows.into()),
            ("idem_hits", st.idem.hits.into()),
            ("idem_evictions", st.idem.evictions.into()),
            ("tuner", tuner_json),
            ("store", store_json),
        ])
        .write()
    }

    /// Resolve one successfully factored job. Keeping jobs park their
    /// full factorization in the store *before* the outcome is published:
    /// a client woken by `done` must find its handle resident. The state
    /// lock may nest the store lock (never the reverse).
    fn publish(&self, st: &mut State, id: u64, factors: TileQrFactors) {
        let (latency_ms, kept_ok) = {
            let job = st.jobs.get_mut(&id).expect("running job exists");
            let outcome = if job.keep {
                let r = factors.r.clone();
                match self
                    .store
                    .lock()
                    .insert(FactorHandle::from_raw(id), Arc::new(factors))
                {
                    Ok(()) => Ok(r),
                    // The keep could not be honored; the client asked for
                    // a live handle, so a typed failure beats silently
                    // handing out an R whose handle is dead.
                    Err(e) => Err(JobError::from(e)),
                }
            } else {
                Ok(factors.r)
            };
            let ok = outcome.is_ok();
            job.state = if ok { JobState::Done } else { JobState::Failed };
            job.outcome = Some(outcome);
            (job.submitted.elapsed().as_secs_f64() * 1e3, ok)
        };
        st.latencies_ms.push(latency_ms);
        if kept_ok {
            st.counters.done += 1;
        } else {
            st.counters.failed += 1;
        }
    }

    /// Peel tall-skinny jobs off a batch and run each on the TSQR fast
    /// path (same kernel sequence as the VSA schedule, so the factors are
    /// bit-identical — solve/apply-q/update against a kept handle cannot
    /// tell which executor produced it). Returns the jobs left for the
    /// VSA launch. A no-op returning the batch untouched when the tuner
    /// is disabled.
    fn run_tsqr_routed(
        &self,
        batch: Vec<(u64, Matrix, QrOptions)>,
    ) -> Vec<(u64, Matrix, QrOptions)> {
        let Some(tuner) = &self.tuner else {
            return batch;
        };
        let threads = self.cfg.threads;
        let mut rest = Vec::with_capacity(batch.len());
        let mut routed = Vec::new();
        {
            let mut t = tuner.lock();
            for (id, a, o) in batch {
                match t.table.lookup(a.nrows(), a.ncols(), threads) {
                    Some(_) => t.hits += 1,
                    None => t.misses += 1,
                }
                if grid_aspect(a.nrows(), a.ncols(), o.nb) >= t.table.tsqr_min_aspect {
                    t.tsqr_jobs += 1;
                    routed.push((id, a, o));
                } else {
                    rest.push((id, a, o));
                }
            }
        }
        for job in routed {
            let (id, a, opts) = (job.0, &job.1, &job.2);
            let t0 = Instant::now();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tile_qr_tsqr(a, opts, threads)
            }));
            let wall = t0.elapsed();
            if result.is_ok() {
                self.observe(std::slice::from_ref(&job), pulsar_core::Backend::Tsqr, wall);
            }
            let mut st = self.state.lock();
            st.counters.batches += 1;
            st.busy += wall;
            st.running -= 1;
            match result {
                Ok(factors) => self.publish(&mut st, id, factors),
                Err(_) => {
                    let job = st.jobs.get_mut(&id).expect("running job exists");
                    job.state = JobState::Failed;
                    job.outcome = Some(Err(JobError::Panicked(
                        "TSQR fast path panicked".to_string(),
                    )));
                    st.counters.failed += 1;
                    st.counters.panicked += 1;
                }
            }
            drop(st);
            self.done.notify_all();
        }
        rest
    }

    /// Feed the online refiner (a no-op without a tuner): every job of a
    /// successful run is one throughput observation of the plan it
    /// actually ran. Wall time is attributed by flop share, which reduces
    /// to the run's aggregate throughput for every member.
    fn observe(
        &self,
        jobs: &[(u64, Matrix, QrOptions)],
        backend: pulsar_core::Backend,
        wall: Duration,
    ) {
        let Some(tuner) = &self.tuner else { return };
        let total: f64 = jobs
            .iter()
            .map(|(_, a, _)| qr_flops(a.nrows(), a.ncols()))
            .sum();
        let gflops = total / wall.as_secs_f64().max(1e-9) / 1e9;
        let mut t = tuner.lock();
        let TunerState { table, refiner, .. } = &mut *t;
        for (_, a, o) in jobs {
            let key = PlanKey {
                tree: o.tree.clone(),
                nb: o.nb,
                backend,
            };
            let shape = (a.nrows(), a.ncols(), self.cfg.threads);
            refiner.observe(table, shape, &key, o.ib, gflops);
        }
    }

    /// Scheduler body: pull → batch → route → run on the pool → distribute.
    fn scheduler(self: Arc<Service>) {
        let pool = &self.pool;
        loop {
            let Some(batch) = self.next_batch() else {
                return; // drained
            };
            // Chaos: a fixed pre-batch stall turns the node into a
            // constant-rate server, independent of host core count.
            let stall = self.state.lock().chaos_sched_delay;
            if let Some(d) = stall {
                std::thread::sleep(d);
            }
            // Tuner routing: tall-skinny jobs skip the VSA and run on the
            // TSQR fast path (bit-identical factors). No-op when no
            // profile is configured.
            let batch = self.run_tsqr_routed(batch);
            if batch.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            let offset_us = (t0 - self.started).as_secs_f64() * 1e6;
            let jobs: Vec<(&Matrix, &QrOptions)> = batch.iter().map(|(_, a, o)| (a, o)).collect();
            let mut config = RunConfig::smp(pool.threads());
            if self.cfg.trace {
                config = config.with_trace();
            }
            // A pending chaos directive detonates the factor VDP of its
            // job's batch slot — and is consumed, so the re-dispatch of
            // the surviving jobs runs clean.
            {
                let mut st = self.state.lock();
                if let Some(target) = st.chaos_panic_job {
                    if let Some(pos) = batch.iter().position(|(id, _, _)| *id == target) {
                        st.chaos_panic_job = None;
                        config = config.with_chaos_panic(Tuple::new4(pos as i32, 0, 0, 0));
                    }
                }
            }
            let backend = batch_backend(&jobs, pool.threads());
            let result = tile_qr_vsa_batch_pooled(&jobs, &config, pool);
            let wall = t0.elapsed();
            drop(jobs);

            // A VDP panic unwound through a pool worker's warm arenas;
            // quarantine every worker (fresh scratch) before the next
            // batch touches them.
            if matches!(result, Err(RunError::VdpPanicked { .. })) {
                pool.respawn_all();
            }

            if let Ok(out) = &result {
                self.observe(&batch, out.backend, wall);
            }

            let mut st = self.state.lock();
            st.counters.batches += 1;
            st.counters.batches_walked += u64::from(backend == pulsar_core::Backend::Seq);
            st.busy += wall;
            st.running -= batch.len();
            match result {
                Ok(out) => {
                    if let Some(trace) = out.trace {
                        st.spans.extend(trace.spans.into_iter().map(|mut s| {
                            s.start_us += offset_us;
                            s.end_us += offset_us;
                            s
                        }));
                    }
                    for ((id, _, _), factors) in batch.iter().zip(out.factors) {
                        self.publish(&mut st, *id, factors);
                    }
                }
                Err(e) => {
                    // Isolate the poison instead of failing the launch: a
                    // VDP panic names its batch slot (the tuple's leading
                    // id is the job's position), so only that job gets the
                    // typed outcome. Everyone else re-enters the queue
                    // with its matrix restored, bounded by the per-job
                    // retry budget. Non-panic runtime errors carry no
                    // culprit; every member is re-dispatched under the
                    // same budget.
                    let msg = e.to_string();
                    let panicked_pos = match &e {
                        RunError::VdpPanicked { tuple, .. } if tuple.len() == 4 => {
                            let b = tuple.ids()[0];
                            (b >= 0 && (b as usize) < batch.len()).then_some(b as usize)
                        }
                        _ => None,
                    };
                    let mut requeue = Vec::new();
                    for (pos, (id, a, _)) in batch.into_iter().enumerate() {
                        let job = st.jobs.get_mut(&id).expect("running job exists");
                        if Some(pos) == panicked_pos {
                            job.state = JobState::Failed;
                            job.outcome = Some(Err(JobError::Panicked(msg.clone())));
                            st.counters.failed += 1;
                            st.counters.panicked += 1;
                        } else if job.retries < self.cfg.retry_budget {
                            job.retries += 1;
                            job.state = JobState::Queued;
                            job.a = Some(a);
                            requeue.push(id);
                            st.counters.redispatched += 1;
                        } else {
                            job.state = JobState::Failed;
                            job.outcome = Some(Err(JobError::Failed(format!(
                                "retry budget exhausted after poisoned batch: {msg}"
                            ))));
                            st.counters.failed += 1;
                        }
                    }
                    // Front of the queue, original order: re-dispatched
                    // jobs go ahead of anything admitted since.
                    for id in requeue.into_iter().rev() {
                        st.queue.push_front(id);
                    }
                }
            }
            self.done.notify_all();
        }
    }

    /// Block until at least one schedulable job exists (resolving
    /// cancellations and expired deadlines along the way), then pull up to
    /// `batch_max` / `batch_bytes` of them. `None` means drained.
    fn next_batch(&self) -> Option<Vec<(u64, Matrix, QrOptions)>> {
        let mut st = self.state.lock();
        loop {
            let mut batch: Vec<(u64, Matrix, QrOptions)> = Vec::new();
            let mut bytes = 0usize;
            while batch.len() < self.cfg.batch_max {
                let Some(&id) = st.queue.front() else { break };
                enum Pulled {
                    Run(Matrix, QrOptions),
                    Expired,
                    Skip,
                    BatchFull,
                }
                let pulled = {
                    let job = st.jobs.get_mut(&id).expect("queued id has a job");
                    match job.state {
                        JobState::Queued => {
                            if job.deadline.is_some_and(|d| Instant::now() > d) {
                                job.state = JobState::Expired;
                                job.outcome = Some(Err(JobError::DeadlineExpired));
                                job.a = None;
                                Pulled::Expired
                            } else {
                                let a = job.a.as_ref().expect("queued job holds its matrix");
                                let sz = a.nrows() * a.ncols() * 8;
                                if !batch.is_empty() && bytes + sz > self.cfg.batch_bytes {
                                    Pulled::BatchFull
                                } else {
                                    bytes += sz;
                                    job.state = JobState::Running;
                                    Pulled::Run(job.a.take().unwrap(), job.opts.clone())
                                }
                            }
                        }
                        // Cancelled (or defensively, any other state): the
                        // entry was already resolved; drop it from the queue.
                        _ => Pulled::Skip,
                    }
                };
                match pulled {
                    Pulled::Run(a, opts) => {
                        st.queue.pop_front();
                        st.running += 1;
                        batch.push((id, a, opts));
                    }
                    Pulled::Expired => {
                        st.queue.pop_front();
                        st.counters.expired += 1;
                        self.done.notify_all();
                    }
                    Pulled::Skip => {
                        st.queue.pop_front();
                    }
                    Pulled::BatchFull => break,
                }
            }
            if !batch.is_empty() {
                return Some(batch);
            }
            if st.draining && st.queue.is_empty() {
                st.stopped = true;
                self.done.notify_all();
                return None;
            }
            self.work.wait(&mut st);
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Make sure the scheduler thread exits even if `drain` was never
        // called (e.g. a test that just drops the service).
        {
            let mut st = self.state.lock();
            st.draining = true;
            self.work.notify_all();
        }
        if let Some(handle) = self.sched.lock().take() {
            let _ = handle.join();
        }
    }
}

/// A stats number to three decimals (milliseconds to the microsecond).
pub(crate) fn milli(x: f64) -> Json {
    Json::Num((x * 1e3).round() / 1e3)
}

/// Nearest-rank p50/p90/p99 of a latency sample (all zero when empty) —
/// the percentiles both the service's and the router's stats rollups
/// report.
pub(crate) fn latency_percentiles(latencies_ms: &[f64]) -> [Json; 3] {
    let mut lat = latencies_ms.to_vec();
    lat.sort_by(|a, b| a.total_cmp(b));
    [0.50, 0.90, 0.99].map(|p| match lat.len() {
        0 => milli(0.0),
        n => milli(lat[((n - 1) as f64 * p).round() as usize]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulsar_core::{tile_qr_seq, Tree};
    use pulsar_linalg::verify::r_factor_distance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Matrix::zeros(m, n);
        for v in a.data_mut() {
            *v = rng.random::<f64>() - 0.5;
        }
        a
    }

    fn opts() -> QrOptions {
        QrOptions::new(4, 2, Tree::Greedy)
    }

    #[test]
    fn jobs_match_the_sequential_oracle() {
        let svc = Service::start(ServeConfig {
            threads: 2,
            batch_max: 3,
            ..ServeConfig::default()
        });
        let mats: Vec<Matrix> = (0..5)
            .map(|i| random_matrix(16 + 4 * (i % 2), 8, 100 + i as u64))
            .collect();
        let ids: Vec<u64> = mats
            .iter()
            .map(|a| svc.submit(a.clone(), opts(), None, false).unwrap())
            .collect();
        for (a, id) in mats.iter().zip(ids) {
            let r = svc.wait_result(id).expect("job completes");
            let oracle = tile_qr_seq(a, &opts());
            assert_eq!(r_factor_distance(&r, &oracle.r), 0.0, "bit-identical R");
        }
        let stats = svc.drain();
        assert!(stats.contains("\"jobs_done\":5"), "stats: {stats}");
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let svc = Service::start(ServeConfig {
            threads: 1,
            queue_cap: 1,
            batch_max: 1,
            ..ServeConfig::default()
        });
        // Saturate: many quick submits against a capacity-1 queue must
        // produce at least one typed rejection.
        let mut rejected = 0;
        let mut accepted = Vec::new();
        for i in 0..64 {
            match svc.submit(random_matrix(32, 8, i), opts(), None, false) {
                Ok(id) => accepted.push(id),
                Err(SubmitError::Backpressure { draining, .. }) => {
                    assert!(!draining);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(rejected > 0, "expected at least one backpressure rejection");
        for id in accepted {
            svc.wait_result(id).expect("accepted jobs still complete");
        }
        svc.drain();
    }

    #[test]
    fn cancel_and_deadline_resolve_queued_jobs() {
        let svc = Service::start(ServeConfig {
            threads: 1,
            batch_max: 1,
            ..ServeConfig::default()
        });
        // The scheduler stalls 50 ms after popping each batch, so the head
        // job holds the single worker long enough for the cancel and the
        // 1 ms deadline behind it to take effect, however fast it factors.
        svc.inject_sched_delay(Duration::from_millis(50));
        let head = svc
            .submit(random_matrix(96, 32, 1), opts(), None, false)
            .unwrap();
        let doomed = svc
            .submit(random_matrix(8, 8, 2), opts(), None, false)
            .unwrap();
        let expired = svc
            .submit(
                random_matrix(8, 8, 3),
                opts(),
                Some(Duration::from_millis(1)),
                false,
            )
            .unwrap();
        assert!(svc.cancel(doomed), "queued job is cancellable");
        assert!(!svc.cancel(doomed), "second cancel is a no-op");
        assert_eq!(svc.wait_result(doomed), Err(JobError::Cancelled));
        svc.wait_result(head).expect("head job completes");
        // The deadline is checked when the scheduler pops the job, at
        // least 50 ms after it was submitted.
        match svc.wait_result(expired) {
            Err(JobError::DeadlineExpired) => {}
            Ok(_) => panic!("deadline should have expired"),
            Err(e) => panic!("unexpected outcome: {e}"),
        }
        assert!(!svc.cancel(9999), "unknown job is not cancellable");
        let stats = svc.drain();
        assert!(stats.contains("\"jobs_cancelled\":1"), "stats: {stats}");
        assert!(stats.contains("\"jobs_expired\":1"), "stats: {stats}");
    }

    #[test]
    fn draining_service_rejects_new_submits() {
        let svc = Service::start(ServeConfig::default());
        svc.drain();
        match svc.submit(random_matrix(8, 8, 1), opts(), None, false) {
            Err(SubmitError::Backpressure { draining: true, .. }) => {}
            other => panic!("expected draining rejection, got {other:?}"),
        }
    }

    #[test]
    fn invalid_jobs_are_rejected_before_admission() {
        let svc = Service::start(ServeConfig::default());
        let bad_tile = svc.submit(random_matrix(10, 8, 1), opts(), None, false);
        assert!(matches!(bad_tile, Err(SubmitError::Invalid(_))));
        let bad_ib = svc.submit(
            random_matrix(8, 8, 1),
            QrOptions::new(4, 4, Tree::Flat),
            None,
            false,
        );
        assert!(bad_ib.is_ok(), "ib == nb is legal");
        svc.drain();
    }

    #[test]
    fn kept_jobs_serve_solve_apply_and_update_against_oracles() {
        let svc = Service::start(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let a = random_matrix(24, 8, 11);
        let handle = svc.submit(a.clone(), opts(), None, true).unwrap();
        svc.wait_result(handle).expect("keep job completes");

        // solve: against the LAPACK-style dense reference.
        let b = random_matrix(24, 3, 12);
        let x = svc.solve(handle, &b).expect("resident handle solves");
        let xref = pulsar_linalg::reference::geqrf(a.clone()).solve_ls(&b);
        assert!(
            x.sub(&xref).norm_fro() < 1e-9 * xref.norm_fro().max(1.0),
            "solve disagrees with the reference"
        );

        // apply-q: Q^T (Q B) must round-trip to B.
        let qb = svc.apply_q(handle, &b, false).unwrap();
        let back = svc.apply_q(handle, &qb, true).unwrap();
        assert!(back.sub(&b).norm_fro() < 1e-12 * b.norm_fro());

        // update: absorb rows, then solve the stacked problem.
        let e = random_matrix(8, 8, 13);
        let rows = svc.update(handle, &e).expect("update succeeds");
        assert_eq!(rows, 32);
        let mut stacked = Matrix::zeros(32, 8);
        stacked.set_submatrix(0, 0, &a);
        stacked.set_submatrix(24, 0, &e);
        let b2 = random_matrix(32, 2, 14);
        let x2 = svc.solve(handle, &b2).expect("solve after update");
        let x2ref = pulsar_linalg::reference::geqrf(stacked).solve_ls(&b2);
        assert!(
            x2.sub(&x2ref).norm_fro() < 1e-9 * x2ref.norm_fro().max(1.0),
            "post-update solve disagrees with the reference"
        );

        // Shape errors are typed Invalid, not panics.
        match svc.solve(handle, &random_matrix(8, 1, 15)) {
            Err(JobError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }

        // release: frees the entry; every verb then reports expiry.
        assert!(svc.release(handle));
        assert!(!svc.release(handle));
        match svc.solve(handle, &b2) {
            Err(JobError::HandleExpired(h)) => assert_eq!(h, handle),
            other => panic!("expected HandleExpired, got {other:?}"),
        }
        match svc.update(handle, &e) {
            Err(JobError::HandleExpired(_)) => {}
            other => panic!("expected HandleExpired, got {other:?}"),
        }

        let stats = svc.drain();
        for key in [
            "\"solves\":2",
            "\"applies\":2",
            "\"updates\":1",
            "\"update_rows\":8",
            "\"store\":{",
            "\"released\":1",
        ] {
            assert!(stats.contains(key), "missing {key} in {stats}");
        }
    }

    #[test]
    fn fire_and_forget_jobs_never_pin_store_bytes() {
        let svc = Service::start(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let id = svc
            .submit(random_matrix(16, 8, 1), opts(), None, false)
            .unwrap();
        svc.wait_result(id).unwrap();
        // The default path drops the factors: its id is never a handle.
        match svc.solve(id, &random_matrix(16, 1, 2)) {
            Err(JobError::HandleExpired(_)) => {}
            other => panic!("expected HandleExpired, got {other:?}"),
        }
        let stats = svc.drain();
        assert!(
            stats.contains("\"bytes\":0,") && stats.contains("\"entries\":0,"),
            "store must be empty: {stats}"
        );
    }

    #[test]
    fn evicted_handles_expire_with_a_typed_error() {
        // A store budget that fits one small factorization at a time: the
        // second keep evicts the first.
        let probe = {
            let f = tile_qr_seq(&random_matrix(16, 8, 0), &opts());
            f.approx_bytes()
        };
        let svc = Service::start(ServeConfig {
            threads: 1,
            store_bytes: probe + probe / 2,
            ..ServeConfig::default()
        });
        let first = svc
            .submit(random_matrix(16, 8, 1), opts(), None, true)
            .unwrap();
        svc.wait_result(first).unwrap();
        assert!(svc.solve(first, &random_matrix(16, 1, 3)).is_ok());
        let second = svc
            .submit(random_matrix(16, 8, 2), opts(), None, true)
            .unwrap();
        svc.wait_result(second).unwrap();
        match svc.solve(first, &random_matrix(16, 1, 4)) {
            Err(JobError::HandleExpired(h)) => assert_eq!(h, first),
            other => panic!("expected HandleExpired, got {other:?}"),
        }
        assert!(svc.solve(second, &random_matrix(16, 1, 5)).is_ok());
        let stats = svc.drain();
        assert!(stats.contains("\"evictions\":1"), "stats: {stats}");
    }

    #[test]
    fn oversized_keep_fails_the_job_with_store_full() {
        let svc = Service::start(ServeConfig {
            threads: 1,
            store_bytes: 64, // nothing real fits
            ..ServeConfig::default()
        });
        let id = svc
            .submit(random_matrix(16, 8, 1), opts(), None, true)
            .unwrap();
        match svc.wait_result(id) {
            Err(JobError::StoreFull { needed, budget }) => {
                assert!(needed > budget);
                assert_eq!(budget, 64);
            }
            other => panic!("expected StoreFull, got {other:?}"),
        }
        let stats = svc.drain();
        assert!(stats.contains("\"jobs_failed\":1"), "stats: {stats}");
    }

    #[test]
    fn trace_accumulates_across_batches_in_service_time() {
        let svc = Service::start(ServeConfig {
            threads: 2,
            trace: true,
            ..ServeConfig::default()
        });
        let a = random_matrix(16, 8, 7);
        let id1 = svc.submit(a.clone(), opts(), None, false).unwrap();
        svc.wait_result(id1).unwrap();
        let id2 = svc.submit(a, opts(), None, false).unwrap();
        svc.wait_result(id2).unwrap();
        svc.drain();
        let trace = svc.take_trace();
        assert!(!trace.spans.is_empty(), "tracing was enabled");
        let json = trace.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with("]\n"));
    }
}
