//! A persistent worker pool for repeated VSA runs.
//!
//! [`Vsa::run`](crate::Vsa::run) spawns scoped OS threads per run and tears
//! them down at the end — fine for one-shot factorizations, wasteful for a
//! service that executes thousands of jobs. A [`VsaPool`] keeps the paper's
//! worker layout alive between runs: one OS thread per configured worker,
//! each owning a [`WorkerScratch`] whose typed slots (notably the
//! `linalg::Workspace` arenas the QR kernels allocate from) stay warm from
//! job to job. [`Vsa::run_pooled`](crate::Vsa::run_pooled) dispatches a
//! prepared array onto the pool instead of spawning threads.

use crate::vdp::WorkerScratch;
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// One unit of pool work: a worker-thread body that borrows the pool
/// thread's persistent scratch store for its duration.
pub(crate) type PoolJob = Box<dyn FnOnce(&WorkerScratch) + Send>;

struct Envelope {
    job: PoolJob,
    /// Signals completion; carries the worker's index and the panic payload
    /// if the job panicked. The job (and everything it captured) is dropped
    /// before this fires.
    done: mpsc::Sender<(usize, Option<Box<dyn Any + Send>>)>,
}

/// One pool worker: its dispatch channel and OS thread.
struct Worker {
    tx: mpsc::Sender<Envelope>,
    handle: JoinHandle<()>,
}

fn spawn_worker(i: usize) -> Worker {
    let (tx, rx) = mpsc::channel::<Envelope>();
    let handle = std::thread::Builder::new()
        .name(format!("vsa-pool-{i}"))
        .spawn(move || {
            // The thread's whole reason to exist: this scratch store
            // outlives every job the thread runs.
            let scratch = WorkerScratch::new();
            while let Ok(Envelope { job, done }) = rx.recv() {
                let r = catch_unwind(AssertUnwindSafe(|| job(&scratch)));
                let _ = done.send((i, r.err()));
            }
        })
        .expect("failed to spawn pool thread");
    Worker { tx, handle }
}

/// A fixed-size pool of long-lived worker threads with warm per-thread
/// [`WorkerScratch`] stores.
///
/// Jobs are dispatched positionally — job `i` always runs on pool thread
/// `i` — so a deterministic VDP→thread mapping lands the same work on the
/// same warm arenas across runs. Runs are serialized internally: a second
/// [`Vsa::run_pooled`](crate::Vsa::run_pooled) blocks until the first
/// finishes. A panicking job does not lose its pool slot: the panic is
/// captured and re-raised on the caller, and the worker whose
/// `catch_unwind` tripped is quarantined — retired and respawned with a
/// fresh [`WorkerScratch`], since a panic mid-kernel can leave the warm
/// arenas in an arbitrary state. Dropping the pool joins every thread.
pub struct VsaPool {
    /// The mutex both serializes runs and guards worker replacement, so a
    /// respawn can never race a dispatch.
    workers: Mutex<Vec<Worker>>,
    threads: usize,
    respawns: AtomicU64,
}

impl VsaPool {
    /// Spawn a pool of `threads` persistent workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a VsaPool needs at least one thread");
        VsaPool {
            workers: Mutex::new((0..threads).map(spawn_worker).collect()),
            threads,
            respawns: AtomicU64::new(0),
        }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many workers have been quarantined and respawned with a fresh
    /// scratch store over the pool's lifetime.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Retire worker `idx` and spawn a replacement with a cold scratch.
    /// Dropping the old sender lets the old thread fall out of its recv
    /// loop; it holds no work (its done signal already fired), so the join
    /// is prompt.
    fn replace_worker(&self, workers: &mut [Worker], idx: usize) {
        let old = std::mem::replace(&mut workers[idx], spawn_worker(idx));
        drop(old.tx);
        let _ = old.handle.join();
        self.respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Quarantine every worker: retire all threads and respawn each with a
    /// fresh [`WorkerScratch`]. For callers that detect a poisoned run
    /// out-of-band — e.g. a VDP panic caught *inside* a pooled
    /// `worker_loop` returns normally to the pool (the typed error travels
    /// through the run's shared state, not the panic channel), yet the
    /// unwound kernel may have left that thread's warm arenas suspect.
    /// Blocks until any in-flight run finishes.
    pub fn respawn_all(&self) {
        let mut workers = self.workers.lock();
        for idx in 0..workers.len() {
            self.replace_worker(&mut workers, idx);
        }
    }

    /// Dispatch one job per pool thread (job `i` → thread `i`) and block
    /// until all complete. Returns the first panic payload, if any job
    /// panicked; the caller decides whether to resume it. Panicked workers
    /// are respawned with fresh scratch before this returns.
    pub(crate) fn run_jobs(&self, jobs: Vec<PoolJob>) -> Option<Box<dyn Any + Send>> {
        let mut workers = self.workers.lock();
        assert_eq!(
            jobs.len(),
            workers.len(),
            "run_jobs needs exactly one job per pool thread"
        );
        let (done_tx, done_rx) = mpsc::channel();
        for (w, job) in workers.iter().zip(jobs) {
            w.tx.send(Envelope {
                job,
                done: done_tx.clone(),
            })
            .expect("pool worker thread died");
        }
        drop(done_tx);
        let mut first_panic = None;
        let mut tripped = Vec::new();
        for (idx, outcome) in done_rx.iter() {
            if let Some(payload) = outcome {
                tripped.push(idx);
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
        for idx in tripped {
            self.replace_worker(&mut workers, idx);
        }
        first_panic
    }
}

impl VsaPool {
    /// Run `f(i, scratch_i)` once on every pool thread `i`, borrowing `f`
    /// for the duration of the call (no `'static` bound, no per-call
    /// allocations beyond the dispatch envelopes). Blocks until every
    /// worker finishes; re-raises the first panic.
    pub fn run_scoped(&self, f: &(dyn Fn(usize, &WorkerScratch) + Sync)) {
        let mut workers = self.workers.lock();
        // SAFETY of the lifetime erasure: every dispatched job is dropped by
        // its worker before the matching done signal fires, a failed send
        // drops its envelope (and job) immediately, and we drain every done
        // signal below before returning — so no borrow of `f` survives this
        // call, even if a job panics. Worker replacement happens only after
        // the drain, when no job referencing `f` exists anywhere.
        let f_static: &'static (dyn Fn(usize, &WorkerScratch) + Sync) =
            unsafe { std::mem::transmute(f) };
        let (done_tx, done_rx) = mpsc::channel();
        let mut send_failed = false;
        for (i, w) in workers.iter().enumerate() {
            let job: PoolJob = Box::new(move |s: &WorkerScratch| f_static(i, s));
            if w.tx
                .send(Envelope {
                    job,
                    done: done_tx.clone(),
                })
                .is_err()
            {
                send_failed = true;
            }
        }
        drop(done_tx);
        let mut first_panic = None;
        let mut tripped = Vec::new();
        for (idx, outcome) in done_rx.iter() {
            if let Some(payload) = outcome {
                tripped.push(idx);
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
        for idx in tripped {
            self.replace_worker(&mut workers, idx);
        }
        drop(workers);
        assert!(!send_failed, "pool worker thread died");
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
    }
}

impl Drop for VsaPool {
    fn drop(&mut self) {
        // Closing the channels lets every worker fall out of its recv loop.
        for w in std::mem::take(&mut *self.workers.lock()) {
            drop(w.tx);
            let _ = w.handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn job(f: impl FnOnce(&WorkerScratch) + Send + 'static) -> PoolJob {
        Box::new(f)
    }

    #[test]
    fn scratch_persists_across_runs_on_the_same_thread() {
        let pool = VsaPool::new(2);
        // Run 1 stamps each thread's scratch slot.
        pool.run_jobs(vec![
            job(|s| s.with(|v: &mut Vec<usize>| v.push(10))),
            job(|s| s.with(|v: &mut Vec<usize>| v.push(20))),
        ]);
        // Run 2 must see run 1's state, positionally.
        let seen = Arc::new(Mutex::new(vec![0usize; 2]));
        let (a, b) = (seen.clone(), seen.clone());
        pool.run_jobs(vec![
            job(move |s| a.lock()[0] = s.with(|v: &mut Vec<usize>| v[0])),
            job(move |s| b.lock()[1] = s.with(|v: &mut Vec<usize>| v[0])),
        ]);
        assert_eq!(*seen.lock(), vec![10, 20]);
    }

    #[test]
    fn panicking_job_reports_payload_and_spares_the_thread() {
        let pool = VsaPool::new(2);
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        let payload = pool.run_jobs(vec![
            job(|_| panic!("boom from job 0")),
            job(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
            }),
        ]);
        let payload = payload.expect("panic payload must surface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload {msg:?}");
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // The pool survives: the same slots run another round.
        let f = fired.clone();
        let payload = pool.run_jobs(vec![
            job({
                let f = fired.clone();
                move |_| {
                    f.fetch_add(1, Ordering::SeqCst);
                }
            }),
            job(move |_| {
                f.fetch_add(1, Ordering::SeqCst);
            }),
        ]);
        assert!(payload.is_none());
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn panicked_worker_is_respawned_with_fresh_scratch() {
        let pool = VsaPool::new(2);
        // Warm both scratches, then panic on thread 0.
        pool.run_jobs(vec![
            job(|s| s.with(|v: &mut Vec<usize>| v.push(1))),
            job(|s| s.with(|v: &mut Vec<usize>| v.push(2))),
        ]);
        assert_eq!(pool.respawns(), 0);
        let payload = pool.run_jobs(vec![job(|_| panic!("poison")), job(|_| {})]);
        assert!(payload.is_some());
        assert_eq!(pool.respawns(), 1);
        // Thread 0 was quarantined: its replacement starts cold. Thread 1
        // was innocent: its warm scratch survives.
        let seen = Arc::new(Mutex::new(vec![usize::MAX; 2]));
        let (a, b) = (seen.clone(), seen.clone());
        pool.run_jobs(vec![
            job(move |s| a.lock()[0] = s.with(|v: &mut Vec<usize>| v.len())),
            job(move |s| b.lock()[1] = s.with(|v: &mut Vec<usize>| v.len())),
        ]);
        assert_eq!(*seen.lock(), vec![0, 1]);
    }

    #[test]
    fn respawn_all_replaces_every_scratch() {
        let pool = VsaPool::new(2);
        pool.run_jobs(vec![
            job(|s| s.with(|v: &mut Vec<usize>| v.push(1))),
            job(|s| s.with(|v: &mut Vec<usize>| v.push(2))),
        ]);
        pool.respawn_all();
        assert_eq!(pool.respawns(), 2);
        let seen = Arc::new(Mutex::new(vec![usize::MAX; 2]));
        let (a, b) = (seen.clone(), seen.clone());
        pool.run_jobs(vec![
            job(move |s| a.lock()[0] = s.with(|v: &mut Vec<usize>| v.len())),
            job(move |s| b.lock()[1] = s.with(|v: &mut Vec<usize>| v.len())),
        ]);
        assert_eq!(*seen.lock(), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "one job per pool thread")]
    fn job_count_must_match_thread_count() {
        let pool = VsaPool::new(2);
        pool.run_jobs(vec![job(|_| {})]);
    }

    #[test]
    fn run_scoped_visits_every_worker_with_borrowed_state() {
        let pool = VsaPool::new(3);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.run_scoped(&|i, _s| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn run_scoped_propagates_panic_and_pool_survives() {
        let pool = VsaPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run_scoped(&|i, _s| {
                if i == 1 {
                    panic!("scoped boom");
                }
            });
        }));
        assert!(r.is_err(), "panic must propagate to the caller");
        assert_eq!(pool.respawns(), 1);
        let hits = AtomicUsize::new(0);
        pool.run_scoped(&|_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn run_scoped_sees_warm_scratch_from_run_jobs() {
        let pool = VsaPool::new(2);
        pool.run_jobs(vec![
            job(|s| s.with(|v: &mut Vec<usize>| v.push(7))),
            job(|s| s.with(|v: &mut Vec<usize>| v.push(8))),
        ]);
        let seen = Mutex::new(vec![0usize; 2]);
        pool.run_scoped(&|i, s| {
            seen.lock()[i] = s.with(|v: &mut Vec<usize>| v[0]);
        });
        assert_eq!(*seen.lock(), vec![7, 8]);
    }
}
