//! Offline tuning sweeps: measure candidate plans on the real executors
//! and record the winners in a [`ProfileTable`].
//!
//! Candidate generation is *structural* and deterministic: which trees and
//! backends are worth measuring depends on the tile-grid aspect ratio.
//! Tall-skinny grids (`mt/nt >=` [`TSQR_MIN_ASPECT`]) sweep the TSQR
//! backend with communication-optimal domain sizes (`h ~ mt/threads`,
//! arXiv:0809.2407) — the 3D VSA has nothing to pipeline there and only
//! pays construction overhead. General grids sweep the VSA with the
//! paper's hierarchy and its neighbours. Within a candidate set the winner
//! is picked by measured throughput (best-of-`reps` wall time).

use crate::profile::{ProfileCell, ProfileTable, TSQR_MIN_ASPECT};
use pulsar_core::policy::{Backend, PlanChoice};
use pulsar_core::vsa3d::tile_qr_vsa;
use pulsar_core::{tile_qr_seq, tile_qr_tsqr, QrOptions, Tree};
use pulsar_linalg::Matrix;
use pulsar_runtime::RunConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Householder QR flop count (the standard `2n^2(m - n/3)` and its wide
/// transpose).
pub fn qr_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    if m >= n {
        2.0 * n * n * (m - n / 3.0)
    } else {
        2.0 * m * m * (n - m / 3.0)
    }
}

/// What one sweep should measure.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Shapes `(m, n)` to tune.
    pub shapes: Vec<(usize, usize)>,
    /// Worker threads for every measurement.
    pub threads: usize,
    /// Timed repetitions per candidate (best is kept).
    pub reps: usize,
    /// Tile sizes to consider (filtered per shape to divisors of `m`).
    pub nb_list: Vec<usize>,
    /// RNG seed for the measurement matrices.
    pub seed: u64,
    /// Also measure the pooled-GEMM crossover ([`measure_pool_crossover`]).
    pub pool_crossover: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            shapes: vec![(256, 256), (512, 128), (1024, 32), (2048, 8)],
            threads: 4,
            reps: 3,
            nb_list: vec![8, 16, 32, 64],
            seed: 42,
            pool_crossover: false,
        }
    }
}

/// One measured candidate.
#[derive(Clone, Debug)]
pub struct CandidateResult {
    /// The plan measured.
    pub choice: PlanChoice,
    /// Its throughput (GFLOP/s, best of `reps`).
    pub gflops: f64,
}

/// Every candidate of one shape, best first.
#[derive(Clone, Debug)]
pub struct ShapeReport {
    /// Rows.
    pub m: usize,
    /// Columns.
    pub n: usize,
    /// Ranked measurements.
    pub ranked: Vec<CandidateResult>,
}

/// The sweep outcome: the table to persist plus the full per-shape
/// rankings for reporting.
pub struct SweepReport {
    /// Winners, one cell per swept shape.
    pub table: ProfileTable,
    /// Full rankings.
    pub shapes: Vec<ShapeReport>,
}

fn push_unique(cands: &mut Vec<PlanChoice>, c: PlanChoice) {
    if !cands.contains(&c) {
        cands.push(c);
    }
}

/// The deterministic candidate set for a shape (see module docs). Every
/// returned `nb` divides `m`.
pub fn candidates(m: usize, n: usize, threads: usize, nb_list: &[usize]) -> Vec<PlanChoice> {
    let mut nbs: Vec<usize> = nb_list
        .iter()
        .copied()
        .filter(|&d| d > 0 && m.is_multiple_of(d))
        .collect();
    if nbs.is_empty() {
        nbs.push(pulsar_core::policy::divisor_nb(m, 64));
    }
    let mut cands = Vec::new();
    for nb in nbs {
        let ib = (nb / 4).max(1);
        let mt = (m / nb).max(1);
        let nt = n.div_ceil(nb).max(1);
        if mt / nt >= TSQR_MIN_ASPECT {
            // Tall-skinny: TSQR backend, one local block per thread (and
            // half that, for overlap), plus the pure binary tree.
            let h1 = mt.div_ceil(threads.max(1)).max(2);
            let h2 = (h1 / 2).max(2);
            for tree in [
                Tree::BinaryOnFlat { h: h1 },
                Tree::BinaryOnFlat { h: h2 },
                Tree::Binary,
            ] {
                push_unique(
                    &mut cands,
                    PlanChoice {
                        tree,
                        nb,
                        ib,
                        backend: Backend::Tsqr,
                    },
                );
            }
        } else {
            // General shapes: the paper's hierarchy, its neighbour, and
            // the greedy tree, all on the VSA.
            for tree in [
                Tree::BinaryOnFlat { h: 4 },
                Tree::BinaryOnFlat { h: 8 },
                Tree::Greedy,
            ] {
                push_unique(
                    &mut cands,
                    PlanChoice {
                        tree,
                        nb,
                        ib,
                        backend: Backend::Vsa3d,
                    },
                );
            }
        }
    }
    cands
}

/// Time one candidate on `a`: best-of-`reps` wall seconds.
fn measure(a: &Matrix, choice: &PlanChoice, threads: usize, reps: usize) -> f64 {
    let opts: QrOptions = choice.options();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        match choice.backend {
            Backend::Tsqr => {
                let f = tile_qr_tsqr(a, &opts, threads);
                std::hint::black_box(&f.r);
            }
            Backend::Vsa3d => {
                let r = tile_qr_vsa(a, &opts, &RunConfig::smp(threads));
                std::hint::black_box(&r.factors.r);
            }
            Backend::Seq => {
                let f = tile_qr_seq(a, &opts);
                std::hint::black_box(&f.r);
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Run the sweep: measure every candidate of every shape, rank them, and
/// record each shape's winner as a profile cell.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let mut table = ProfileTable::new();
    let mut shapes = Vec::with_capacity(cfg.shapes.len());
    for (i, &(m, n)) in cfg.shapes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((i as u64) << 32) ^ (m as u64));
        let a = Matrix::random(m, n, &mut rng);
        let mut ranked: Vec<CandidateResult> = candidates(m, n, cfg.threads, &cfg.nb_list)
            .into_iter()
            .map(|choice| {
                let secs = measure(&a, &choice, cfg.threads, cfg.reps);
                CandidateResult {
                    choice,
                    gflops: qr_flops(m, n) / secs / 1e9,
                }
            })
            .collect();
        ranked.sort_by(|x, y| y.gflops.total_cmp(&x.gflops));
        let best = &ranked[0];
        table.insert(ProfileCell {
            m,
            n,
            threads: cfg.threads,
            tree: best.choice.tree.clone(),
            nb: best.choice.nb,
            ib: best.choice.ib,
            backend: best.choice.backend,
            gflops: best.gflops,
            samples: 1,
        });
        shapes.push(ShapeReport { m, n, ranked });
    }
    if cfg.pool_crossover {
        table.pool_min_mnk = measure_pool_crossover(cfg.threads.max(2));
    }
    SweepReport { table, shapes }
}

/// Measure where pool-split GEMM starts beating single-threaded GEMM:
/// returns the `m*n*k` of the smallest swept size whose pooled run is at
/// least as fast, or `None` if the pool never wins (in which case pooled
/// dispatch should stay effectively disabled for these sizes).
pub fn measure_pool_crossover(threads: usize) -> Option<usize> {
    use pulsar_linalg::blas::{dgemm, dgemm_pooled, Trans};
    let pool = pulsar_runtime::VsaPool::new(threads.max(2));
    let mut rng = StdRng::seed_from_u64(7);
    for size in [256usize, 384, 512, 768, 1024] {
        let a = Matrix::random(size, size, &mut rng);
        let b = Matrix::random(size, size, &mut rng);
        let mut c = Matrix::zeros(size, size);
        let time = |pooled: bool, c: &mut Matrix| {
            let t0 = Instant::now();
            for _ in 0..2 {
                if pooled {
                    dgemm_pooled(Trans::No, Trans::No, 1.0, &a, &b, 0.0, c, &pool);
                } else {
                    dgemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, c);
                }
            }
            t0.elapsed().as_secs_f64()
        };
        // Warm both paths once, then time.
        let _ = time(false, &mut c);
        let single = time(false, &mut c);
        let _ = time(true, &mut c);
        let pooled = time(true, &mut c);
        if pooled <= single {
            return Some(size * size * size);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_sets_are_structural_and_disjoint_by_aspect() {
        // Square: VSA candidates only; tall: TSQR candidates only — and
        // the tree sets do not overlap, so the tuned {tree, h, nb} for
        // these two shapes necessarily differ.
        let square = candidates(64, 64, 2, &[16]);
        assert!(square.iter().all(|c| c.backend == Backend::Vsa3d));
        let tall = candidates(2048, 8, 2, &[16]);
        assert!(tall.iter().all(|c| c.backend == Backend::Tsqr));
        for t in &tall {
            assert!(!square.iter().any(|s| s.tree == t.tree), "{:?}", t.tree);
        }
        // Every candidate nb divides m.
        for c in square.iter().chain(&tall) {
            assert!(2048_usize.is_multiple_of(c.nb) || 64_usize.is_multiple_of(c.nb));
        }
    }

    #[test]
    fn sweep_records_distinct_winners_per_shape() {
        let cfg = SweepConfig {
            shapes: vec![(64, 64), (2048, 8)],
            threads: 2,
            reps: 1,
            nb_list: vec![16],
            seed: 1,
            pool_crossover: false,
        };
        let report = run_sweep(&cfg);
        let sq = report.table.lookup_exact(64, 64, 2).unwrap();
        let tall = report.table.lookup_exact(2048, 8, 2).unwrap();
        assert_ne!(
            (&sq.tree, sq.nb, sq.backend),
            (&tall.tree, tall.nb, tall.backend)
        );
        assert_eq!(tall.backend, Backend::Tsqr);
        assert!(report.shapes.iter().all(|s| !s.ranked.is_empty()));
    }

    #[test]
    fn flops_formula_is_symmetric_enough() {
        assert!(qr_flops(100, 100) > 0.0);
        assert_eq!(qr_flops(50, 200), qr_flops(200, 50));
    }
}
