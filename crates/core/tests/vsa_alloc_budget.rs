//! The array is cheap to build and run: a counting global allocator (as in
//! `linalg/tests/alloc_count.rs`, but process-wide, because the firings
//! happen on worker threads) bounds the heap allocations of one whole
//! `tile_qr_vsa` call per VDP firing. The parent of the flat array made
//! about 25 per firing — a heap tuple per channel end, an `Arc` and a
//! `VecDeque` per queue, a trace label per firing; what is left is the
//! VDP's boxed logic, its packets' `Arc`s, the kernels' result tiles and
//! the spill of a queue that holds more than one packet.

use pulsar_core::plan::Tree;
use pulsar_core::vsa3d::tile_qr_vsa;
use pulsar_core::QrOptions;
use pulsar_linalg::Matrix;
use pulsar_runtime::{RunConfig, SchedScheme};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per firing a whole call may make.
const BUDGET: u64 = 5;

// One test function: a second one would run on a parallel test thread and
// allocate into the same counter.
#[test]
fn tile_qr_vsa_stays_within_its_allocation_budget_under_both_schemes() {
    let a = Matrix::random(2048, 64, &mut StdRng::seed_from_u64(7));
    let h = 4;
    let opts = QrOptions::new(16, 4, Tree::BinaryOnFlat { h });
    let mut counts = Vec::new();
    for scheme in [SchedScheme::Lazy, SchedScheme::Aggressive] {
        let config = RunConfig::smp(2).with_scheme(scheme);
        // Warm-up: lazy one-time state (thread-locals, kernel dispatch).
        let warm = tile_qr_vsa(&a, &opts, &config);
        let before = ALLOCS.load(Ordering::Relaxed);
        let run = tile_qr_vsa(&a, &opts, &config);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let firings = run.stats.fired as u64;
        assert_eq!(firings, warm.stats.fired as u64);
        assert!(run.trace.is_none() && run.stats.peak_channel_depth <= h);
        assert!(
            allocs <= BUDGET * firings,
            "{scheme:?}: {allocs} allocations for {firings} firings ({:.1} per firing)",
            allocs as f64 / firings as f64
        );
        counts.push(allocs);
    }
    // Which VDP fires when is the scheduler's business; what gets
    // allocated is the array's, with one exception: a queue allocates its
    // spill (a box and the deque's buffer; at most h - 1 packets wait
    // behind the first, so it never regrows) the first time a packet
    // arrives while another waits, and whether that happens depends on the
    // firing order. Only a multi-fire chain's queues can hold two packets:
    // its row stream, and its transformation input in an update column.
    let plan = opts.plan(128, 4);
    let spillable: usize = (0..plan.panels())
        .map(|j| {
            let heads = plan.domain_heads(j);
            let ends = heads.iter().skip(1).chain([&plan.mt]);
            let chains = heads.iter().zip(ends).filter(|(h, e)| *e - *h > 1).count();
            chains * (1 + 2 * (plan.nt - j - 1))
        })
        .sum();
    assert!(
        counts[0].abs_diff(counts[1]) <= 2 * spillable as u64,
        "allocation counts {counts:?} differ by more than {spillable} spills"
    );
}
