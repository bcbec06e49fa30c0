//! A persistent worker pool for repeated VSA runs.
//!
//! [`Vsa::run`](crate::Vsa::run) spawns scoped OS threads per run and tears
//! them down at the end — fine for one-shot factorizations, wasteful for a
//! service that executes thousands of jobs. A [`VsaPool`] keeps the paper's
//! worker layout alive between runs: one OS thread per configured worker,
//! each owning a [`WorkerScratch`] whose typed slots (notably the
//! `linalg::Workspace` arenas the QR kernels allocate from) stay warm from
//! job to job. It has one entry point, [`VsaPool::run_scoped`]:
//! [`Vsa::run_pooled`](crate::Vsa::run_pooled), a walked service batch and
//! the TSQR domain stage all dispatch through it.

use crate::vdp::WorkerScratch;
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// The body every worker of one [`VsaPool::run_scoped`] call runs, with its
/// borrow erased for the hand-off (see the safety note there).
type ScopedBody = &'static (dyn Fn(usize, &WorkerScratch) + Sync);

struct Envelope {
    body: ScopedBody,
    /// Signals completion; carries the worker's index and the panic payload
    /// if the body panicked. The worker never touches `body` after this
    /// fires.
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
            while let Ok(Envelope { body, done }) = rx.recv() {
                let r = catch_unwind(AssertUnwindSafe(|| body(i, &scratch)));
                let _ = done.send((i, r.err()));
            }
        })
        .expect("failed to spawn pool thread");
    Worker { tx, handle }
}

/// A fixed-size pool of long-lived worker threads with warm per-thread
/// [`WorkerScratch`] stores.
///
/// Work is dispatched positionally — worker `i` always runs on pool thread
/// `i` — so a deterministic VDP→thread mapping lands the same work on the
/// same warm arenas across runs. Runs are serialized internally: a second
/// [`VsaPool::run_scoped`] blocks until the first finishes. A panicking
/// worker does not lose its pool slot: the panic is captured and re-raised
/// on the caller, and the worker whose `catch_unwind` tripped is
/// quarantined — retired and respawned with a fresh [`WorkerScratch`],
/// since a panic mid-kernel can leave the warm arenas in an arbitrary
/// state. Dropping the pool joins every thread.
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

    /// Run `f(i, scratch_i)` once on every pool thread `i`, borrowing `f`
    /// for the duration of the call (no `'static` bound, no allocation
    /// beyond the dispatch messages). Blocks until every worker finishes;
    /// re-raises the first panic with its own payload, after respawning
    /// every worker that panicked.
    ///
    /// Must not be called from a pool worker of the same pool: the call
    /// holds the dispatch lock until every worker is done.
    pub fn run_scoped(&self, f: &(dyn Fn(usize, &WorkerScratch) + Sync)) {
        let mut workers = self.workers.lock();
        // SAFETY of the lifetime erasure: a worker calls `body` only
        // between receiving its envelope and sending the matching done
        // signal, a failed send drops its envelope unused, and we drain
        // every done signal below before returning — so no use of `f`
        // survives this call, even if a body panics. Worker replacement
        // happens only after the drain.
        let body: ScopedBody = unsafe { std::mem::transmute(f) };
        let (done_tx, done_rx) = mpsc::channel();
        let mut send_failed = false;
        for w in workers.iter() {
            let done = done_tx.clone();
            send_failed |= w.tx.send(Envelope { body, done }).is_err();
        }
        drop(done_tx);
        let mut first_panic = None;
        let mut tripped = Vec::new();
        for (idx, outcome) in done_rx.iter() {
            if let Some(payload) = outcome {
                tripped.push(idx);
                first_panic.get_or_insert(payload);
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

    /// Push `v[i]` onto worker `i`'s scratch vector.
    fn stamp(pool: &VsaPool, v: &[usize]) {
        pool.run_scoped(&|i, s| s.with(|x: &mut Vec<usize>| x.push(v[i])));
    }

    /// Read `f` of every worker's scratch vector, in worker order.
    fn read(pool: &VsaPool, f: fn(&Vec<usize>) -> usize) -> Vec<usize> {
        let seen = Mutex::new(vec![usize::MAX; pool.threads()]);
        pool.run_scoped(&|i, s| seen.lock()[i] = s.with(|x: &mut Vec<usize>| f(x)));
        seen.into_inner()
    }

    /// Run `f` on the pool, returning the re-raised panic's message.
    fn panic_of(pool: &VsaPool, f: &(dyn Fn(usize, &WorkerScratch) + Sync)) -> Option<String> {
        catch_unwind(AssertUnwindSafe(|| pool.run_scoped(f)))
            .err()
            .map(|p| crate::panic_message(&*p))
    }

    #[test]
    fn scratch_persists_across_runs_on_the_same_thread() {
        let pool = VsaPool::new(2);
        // Run 1 stamps each thread's scratch slot; run 2 must see run 1's
        // state, positionally.
        stamp(&pool, &[10, 20]);
        assert_eq!(read(&pool, |x| x[0]), vec![10, 20]);
    }

    #[test]
    fn panicking_job_reports_payload_and_spares_the_thread() {
        let pool = VsaPool::new(2);
        let fired = AtomicUsize::new(0);
        let msg = panic_of(&pool, &|i, _| {
            if i == 0 {
                panic!("boom from worker 0");
            }
            fired.fetch_add(1, Ordering::SeqCst);
        });
        let msg = msg.expect("panic payload must surface");
        assert!(
            msg.contains("boom from worker 0"),
            "unexpected payload {msg:?}"
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // The pool survives: the same slots run another round.
        pool.run_scoped(&|_, _| {
            fired.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn panicked_worker_is_respawned_with_fresh_scratch() {
        let pool = VsaPool::new(2);
        // Warm both scratches, then panic on thread 0.
        stamp(&pool, &[1, 2]);
        assert_eq!(pool.respawns(), 0);
        let msg = panic_of(&pool, &|i, _| assert!(i != 0, "poison"));
        assert!(msg.is_some());
        assert_eq!(pool.respawns(), 1);
        // Thread 0 was quarantined: its replacement starts cold. Thread 1
        // was innocent: its warm scratch survives.
        assert_eq!(read(&pool, Vec::len), vec![0, 1]);
    }

    #[test]
    fn respawn_all_replaces_every_scratch() {
        let pool = VsaPool::new(2);
        stamp(&pool, &[1, 2]);
        pool.respawn_all();
        assert_eq!(pool.respawns(), 2);
        assert_eq!(read(&pool, Vec::len), vec![0, 0]);
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
}
