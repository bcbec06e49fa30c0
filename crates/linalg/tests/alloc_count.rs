//! Proof that the `_ws` kernel hot path is allocation-free in steady
//! state: a counting global allocator wraps `System`, each kernel is run
//! once to warm its [`Workspace`] up to size, and the second call must
//! perform zero heap allocations.

use pulsar_linalg::blas::{dgemm_pooled, Trans};
use pulsar_linalg::gemm::GemmPool;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{
    back_substitute, geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Matrix, Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

struct CountingAlloc;

thread_local! {
    // const-initialized so first access inside `alloc` cannot recurse.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// nb = 64, ib = 16 puts the rectangular applies (16 x 64 x 64 and larger)
// well above the packed-GEMM crossover, so the counter also covers the
// engine's packing buffers, not just the small-kernel path.
const NB: usize = 64;
const IB: usize = 16;

/// Run `f` twice against the same workspace; the second run must not hit
/// the allocator at all.
fn assert_steady_state_alloc_free(
    name: &str,
    ws: &mut Workspace,
    mut f: impl FnMut(&mut Workspace),
) {
    f(ws); // warm-up sizes every workspace buffer
    let before = alloc_count();
    f(ws);
    let during = alloc_count() - before;
    assert_eq!(during, 0, "{name}: {during} allocations after warm-up");
}

#[test]
fn factor_kernels_are_alloc_free_after_warmup() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut ws = Workspace::new();

    let mut tile = Matrix::random(NB, NB, &mut rng);
    let mut t = Matrix::zeros(IB, NB);
    assert_steady_state_alloc_free("geqrt_ws", &mut ws, |ws| {
        geqrt_ws(&mut tile, &mut t, IB, ws)
    });

    let mut a1 = Matrix::random(NB, NB, &mut rng).upper_triangle();
    let mut a2 = Matrix::random(NB, NB, &mut rng);
    let mut t = Matrix::zeros(IB, NB);
    assert_steady_state_alloc_free("tsqrt_ws", &mut ws, |ws| {
        tsqrt_ws(&mut a1, &mut a2, &mut t, IB, ws)
    });

    let mut a1 = Matrix::random(NB, NB, &mut rng).upper_triangle();
    let mut a2 = Matrix::random(NB, NB, &mut rng).upper_triangle();
    let mut t = Matrix::zeros(IB, NB);
    assert_steady_state_alloc_free("ttqrt_ws", &mut ws, |ws| {
        ttqrt_ws(&mut a1, &mut a2, &mut t, IB, ws)
    });
}

#[test]
fn apply_kernels_are_alloc_free_after_warmup() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut ws = Workspace::new();

    // geqrt reflectors -> unmqr.
    let mut v = Matrix::random(NB, NB, &mut rng);
    let mut t = Matrix::zeros(IB, NB);
    geqrt_ws(&mut v, &mut t, IB, &mut ws);
    let mut c = Matrix::random(NB, NB, &mut rng);
    assert_steady_state_alloc_free("unmqr_ws", &mut ws, |ws| {
        unmqr_ws(&v, &t, ApplyTrans::Trans, &mut c, IB, ws)
    });

    // tsqrt reflectors -> tsmqr.
    let mut r1 = Matrix::random(NB, NB, &mut rng).upper_triangle();
    let mut v = Matrix::random(NB, NB, &mut rng);
    let mut t = Matrix::zeros(IB, NB);
    tsqrt_ws(&mut r1, &mut v, &mut t, IB, &mut ws);
    let mut c1 = Matrix::random(NB, NB, &mut rng);
    let mut c2 = Matrix::random(NB, NB, &mut rng);
    assert_steady_state_alloc_free("tsmqr_ws", &mut ws, |ws| {
        tsmqr_ws(&mut c1, &mut c2, &v, &t, ApplyTrans::Trans, IB, ws)
    });

    // ttqrt reflectors -> ttmqr.
    let mut r1 = Matrix::random(NB, NB, &mut rng).upper_triangle();
    let mut v = Matrix::random(NB, NB, &mut rng).upper_triangle();
    let mut t = Matrix::zeros(IB, NB);
    ttqrt_ws(&mut r1, &mut v, &mut t, IB, &mut ws);
    let mut c1 = Matrix::random(NB, NB, &mut rng);
    let mut c2 = Matrix::random(NB, NB, &mut rng);
    assert_steady_state_alloc_free("ttmqr_ws", &mut ws, |ws| {
        ttmqr_ws(&mut c1, &mut c2, &v, &t, ApplyTrans::Trans, IB, ws)
    });
}

#[test]
fn fine_tile_kernels_are_alloc_free_after_warmup() {
    // The fine-tile shapes, where every block apply is narrower than 16
    // columns and runs the fused per-column pass on stack arrays.
    for (nb, ib) in [(16, 4), (32, 8)] {
        let mut rng = StdRng::seed_from_u64(nb as u64);
        let mut ws = Workspace::new();
        let mut t = Matrix::zeros(ib, nb);
        let mut c1 = Matrix::random(nb, nb, &mut rng);
        let mut c2 = Matrix::random(nb, nb, &mut rng);

        let mut v = Matrix::random(nb, nb, &mut rng);
        assert_steady_state_alloc_free("geqrt_ws", &mut ws, |ws| geqrt_ws(&mut v, &mut t, ib, ws));
        assert_steady_state_alloc_free("unmqr_ws", &mut ws, |ws| {
            unmqr_ws(&v, &t, ApplyTrans::Trans, &mut c1, ib, ws)
        });

        let mut r = Matrix::random(nb, nb, &mut rng).upper_triangle();
        let mut v = Matrix::random(nb, nb, &mut rng);
        assert_steady_state_alloc_free("tsqrt_ws", &mut ws, |ws| {
            tsqrt_ws(&mut r, &mut v, &mut t, ib, ws)
        });
        assert_steady_state_alloc_free("tsmqr_ws", &mut ws, |ws| {
            tsmqr_ws(&mut c1, &mut c2, &v, &t, ApplyTrans::Trans, ib, ws)
        });

        let mut r = Matrix::random(nb, nb, &mut rng).upper_triangle();
        let mut v = Matrix::random(nb, nb, &mut rng).upper_triangle();
        assert_steady_state_alloc_free("ttqrt_ws", &mut ws, |ws| {
            ttqrt_ws(&mut r, &mut v, &mut t, ib, ws)
        });
        assert_steady_state_alloc_free("ttmqr_ws", &mut ws, |ws| {
            ttmqr_ws(&mut c1, &mut c2, &v, &t, ApplyTrans::NoTrans, ib, ws)
        });
    }
}

/// One service "job" worth of kernel work: every `_ws` kernel once, in
/// factor → apply order, against pre-allocated inputs.
#[allow(clippy::too_many_arguments)]
fn job_sweep(
    ws: &mut Workspace,
    geqrt_a: &mut Matrix,
    ts_r: &mut Matrix,
    ts_v: &mut Matrix,
    tt_r: &mut Matrix,
    tt_v: &mut Matrix,
    c1: &mut Matrix,
    c2: &mut Matrix,
    t: &mut Matrix,
) {
    geqrt_ws(geqrt_a, t, IB, ws);
    unmqr_ws(geqrt_a, t, ApplyTrans::Trans, c1, IB, ws);
    tsqrt_ws(ts_r, ts_v, t, IB, ws);
    tsmqr_ws(c1, c2, ts_v, t, ApplyTrans::Trans, IB, ws);
    ttqrt_ws(tt_r, tt_v, t, IB, ws);
    ttmqr_ws(c1, c2, tt_v, t, ApplyTrans::Trans, IB, ws);
}

#[test]
fn two_consecutive_jobs_share_a_warm_workspace_alloc_free() {
    // The serve daemon's worth: a pooled worker runs job after job on one
    // warm workspace. Model two jobs with fresh inputs each (allocated
    // outside the counted region, as the service decodes them off the
    // wire before dispatch); the second job must never hit the allocator.
    let mut rng = StdRng::seed_from_u64(4);
    let mut ws = Workspace::new();
    let mut inputs = || {
        (
            Matrix::random(NB, NB, &mut rng),
            Matrix::random(NB, NB, &mut rng).upper_triangle(),
            Matrix::random(NB, NB, &mut rng),
            Matrix::random(NB, NB, &mut rng).upper_triangle(),
            Matrix::random(NB, NB, &mut rng).upper_triangle(),
            Matrix::random(NB, NB, &mut rng),
            Matrix::random(NB, NB, &mut rng),
        )
    };
    let (mut ga, mut tr, mut tv, mut hr, mut hv, mut c1, mut c2) = inputs();
    let (mut ga2, mut tr2, mut tv2, mut hr2, mut hv2, mut d1, mut d2) = inputs();
    let mut t1 = Matrix::zeros(IB, NB);
    let mut t2 = Matrix::zeros(IB, NB);

    job_sweep(
        &mut ws, &mut ga, &mut tr, &mut tv, &mut hr, &mut hv, &mut c1, &mut c2, &mut t1,
    );
    let before = alloc_count();
    job_sweep(
        &mut ws, &mut ga2, &mut tr2, &mut tv2, &mut hr2, &mut hv2, &mut d1, &mut d2, &mut t2,
    );
    let during = alloc_count() - before;
    assert_eq!(during, 0, "second job made {during} allocations");
}

#[test]
fn warm_solve_on_cached_factors_is_alloc_free() {
    // The serve daemon's `solve` verb against a stored handle: V/T and R
    // already live in the factor store, the right-hand side arrives off
    // the wire, and the only arithmetic is Q^T·b (unmqr + tsmqr chain)
    // followed by back-substitution. Model that hot path exactly: factor
    // a 4-tile-row single-column matrix once (setup, allocation allowed),
    // then run the solve pass twice against preallocated b tiles — the
    // second pass must never hit the allocator.
    const K: usize = 2; // right-hand sides
    const ROWS: usize = 4; // tile rows
    let mut rng = StdRng::seed_from_u64(5);
    let mut ws = Workspace::new();

    // "Stored handle": geqrt on tile 0 plus a flat tsqrt chain.
    let mut v0 = Matrix::random(NB, NB, &mut rng);
    let mut t0 = Matrix::zeros(IB, NB);
    geqrt_ws(&mut v0, &mut t0, IB, &mut ws);
    let mut chain = Vec::new();
    for _ in 1..ROWS {
        let mut v = Matrix::random(NB, NB, &mut rng);
        let mut t = Matrix::zeros(IB, NB);
        // tsqrt reads and writes only v0's upper triangle, exactly as the
        // store's update path does against the cached R.
        let mut r = v0.submatrix(0, 0, NB, NB);
        tsqrt_ws(&mut r, &mut v, &mut t, IB, &mut ws);
        v0.set_submatrix(0, 0, &r);
        chain.push((v, t));
    }
    let r = v0.upper_triangle();

    // Wire operand and its pristine copy (the service decodes b off the
    // socket before dispatch, so these live outside the counted region).
    let b_orig: Vec<Matrix> = (0..ROWS).map(|_| Matrix::random(NB, K, &mut rng)).collect();
    let mut b: Vec<Matrix> = b_orig.clone();

    assert_steady_state_alloc_free("warm solve", &mut ws, |ws| {
        for (tile, orig) in b.iter_mut().zip(&b_orig) {
            tile.data_mut().copy_from_slice(orig.data());
        }
        let (top, rest) = b.split_at_mut(1);
        unmqr_ws(&v0, &t0, ApplyTrans::Trans, &mut top[0], IB, ws);
        for (tile, (v, t)) in rest.iter_mut().zip(&chain) {
            tsmqr_ws(&mut top[0], tile, v, t, ApplyTrans::Trans, IB, ws);
        }
        back_substitute(&r, &mut top[0]).expect("R is nonsingular");
    });
}

/// A dispatch-free [`GemmPool`]: pre-allocated per-worker workspaces, jobs
/// run inline on the calling thread. Proves the pooled GEMM's *algorithm*
/// makes no allocations in steady state — any thread-dispatch overhead a
/// real executor adds is on the executor, not the GEMM.
struct InlinePool {
    scratch: RefCell<Vec<Workspace>>,
}

// SAFETY: each index runs exactly once per `run`, sequentially, each with
// its own pre-allocated Workspace, and `run` returns only when all done.
unsafe impl GemmPool for InlinePool {
    fn workers(&self) -> usize {
        self.scratch.borrow().len()
    }

    fn run(&self, job: &(dyn Fn(usize, &mut Workspace) + Sync)) {
        let mut scratch = self.scratch.borrow_mut();
        for (i, ws) in scratch.iter_mut().enumerate() {
            job(i, ws);
        }
    }
}

#[test]
fn pooled_gemm_is_alloc_free_after_warmup() {
    // 280^3 clears the pooled-GEMM flop threshold, so the counted call runs
    // the real chunked parallel path (inline, 4 workers).
    let mut rng = StdRng::seed_from_u64(6);
    let pool = InlinePool {
        scratch: RefCell::new((0..4).map(|_| Workspace::new()).collect()),
    };
    let a = Matrix::random(280, 280, &mut rng);
    let b = Matrix::random(280, 280, &mut rng);
    let mut c = Matrix::zeros(280, 280);
    dgemm_pooled(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c, &pool);
    let before = alloc_count();
    dgemm_pooled(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c, &pool);
    let during = alloc_count() - before;
    assert_eq!(during, 0, "pooled dgemm made {during} allocations warm");
}

#[test]
fn workspace_capacity_stops_growing() {
    // Independent signal: after one full kernel sweep the arena's capacity
    // is stable across further sweeps.
    let mut rng = StdRng::seed_from_u64(3);
    let mut ws = Workspace::new();
    let mut sweep = |ws: &mut Workspace| {
        let mut r1 = Matrix::random(NB, NB, &mut rng).upper_triangle();
        let mut v = Matrix::random(NB, NB, &mut rng);
        let mut t = Matrix::zeros(IB, NB);
        tsqrt_ws(&mut r1, &mut v, &mut t, IB, ws);
        let mut c1 = Matrix::random(NB, NB, &mut rng);
        let mut c2 = Matrix::random(NB, NB, &mut rng);
        tsmqr_ws(&mut c1, &mut c2, &v, &t, ApplyTrans::Trans, IB, ws);
    };
    sweep(&mut ws);
    let cap = ws.capacity();
    sweep(&mut ws);
    sweep(&mut ws);
    assert_eq!(ws.capacity(), cap, "workspace kept growing across sweeps");
}
