//! Engine-equivalence suite: the sequential oracle, TSQR and the 3D VSA
//! (on the flat tree, the 2D domino array) run the same schedule through
//! the same op core, so they must produce the *same* factorization — bit
//! for bit, in `R` and in every recorded `op`/`V`/`T`, not merely within a
//! tolerance — under fixed and shifted boundaries alike. A pooled batch
//! holds them to the same bar on both of its executors: each job walked
//! whole on one worker, or all jobs in one shared array.

use pulsar_core::applyq::apply_q_vsa;
use pulsar_core::plan::Tree;
use pulsar_core::vsa3d::{tile_qr_vsa, tile_qr_vsa_batch_pooled};
use pulsar_core::{tile_qr_seq, tile_qr_tsqr, Backend, QrOptions, TileQrFactors};
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::verify::r_factor_distance;
use pulsar_linalg::Matrix;
use pulsar_runtime::{RunConfig, RunError, Tuple, VsaPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Same shape and the same bit pattern in every entry (stricter than
/// `==`, which equates `0.0` with `-0.0`).
fn same_bits(x: &Matrix, y: &Matrix) -> bool {
    (x.nrows(), x.ncols()) == (y.nrows(), y.ncols())
        && x.data()
            .iter()
            .zip(y.data())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Bit-for-bit equality of two factorizations. Walks the recorded
/// transformations in schedule order first, so a failure names the first
/// diverging op instead of a downstream symptom in `R`.
fn assert_identical(want: &TileQrFactors, got: &TileQrFactors, what: &str) {
    assert_eq!(
        want.panels.len(),
        got.panels.len(),
        "{what}: panel counts differ"
    );
    for (j, (pw, pg)) in want.panels.iter().zip(&got.panels).enumerate() {
        assert_eq!(pw.len(), pg.len(), "{what}: panel {j} op counts differ");
        for (q, (rw, rg)) in pw.iter().zip(pg).enumerate() {
            let at = format!("{what}: panel {j} op {q}");
            assert_eq!(rw.op, rg.op, "{at}: schedule order differs");
            assert!(same_bits(&rw.v, &rg.v), "{at}: V differs for {:?}", rw.op);
            assert!(same_bits(&rw.t, &rg.t), "{at}: T differs for {:?}", rw.op);
        }
    }
    assert!(
        same_bits(&want.r, &got.r),
        "{what}: R differs though every recorded op matches"
    );
}

/// Factor `a` with every engine, under shifted and fixed boundaries, and
/// require each to be identical to the sequential oracle: TSQR on 1 and 3
/// threads and the 3D VSA.
fn all_engines_identical(a: &Matrix, opts: &QrOptions, threads: usize) {
    let cfg = RunConfig::smp(threads);
    for opts in [opts.clone(), opts.clone().with_fixed_boundary()] {
        let what = |engine: &str| {
            let (m, n) = (a.nrows(), a.ncols());
            format!("{engine} vs seq, {m}x{n} {} {:?}", opts.tree, opts.boundary)
        };
        let seq = tile_qr_seq(a, &opts);
        assert!(seq.residual(a) < 1e-13, "{}: residual", what("seq"));
        assert_identical(&seq, &tile_qr_tsqr(a, &opts, 1), &what("tsqr(1)"));
        assert_identical(&seq, &tile_qr_tsqr(a, &opts, 3), &what("tsqr(3)"));
        let vsa = tile_qr_vsa(a, &opts, &cfg).factors;
        assert_identical(&seq, &vsa, &what("vsa3d"));
    }
}

#[test]
fn engines_agree_hierarchical() {
    let mut rng = StdRng::seed_from_u64(2014);
    let opts = QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 3 });
    // Tall, ragged last column block, and a wide grid (mt < nt).
    for (m, n) in [(48, 16), (48, 14), (8, 14)] {
        all_engines_identical(&Matrix::random(m, n, &mut rng), &opts, 4);
    }
}

#[test]
fn engines_agree_flat() {
    let mut rng = StdRng::seed_from_u64(7);
    let opts = QrOptions::new(4, 2, Tree::Flat);
    for (m, n) in [(40, 16), (40, 13), (8, 14)] {
        all_engines_identical(&Matrix::random(m, n, &mut rng), &opts, 3);
    }
}

#[test]
fn transforms_are_identical_not_just_r() {
    // Beyond R: the recorded V/T trees must match op for op, on every
    // tree.
    let mut rng = StdRng::seed_from_u64(99);
    let a = Matrix::random(24, 8, &mut rng);
    for tree in [
        Tree::Flat,
        Tree::BinaryOnFlat { h: 2 },
        Tree::Binary,
        Tree::Greedy,
        Tree::custom([3, 2]),
        Tree::custom([1, 4]),
    ] {
        all_engines_identical(&a, &QrOptions::new(4, 2, tree), 3);
    }
}

#[test]
fn vsa_apply_is_identical_to_sequential_apply() {
    let mut rng = StdRng::seed_from_u64(1553);
    let a = Matrix::random(32, 12, &mut rng);
    let b = Matrix::random(32, 3, &mut rng);
    for tree in [Tree::Flat, Tree::Binary, Tree::BinaryOnFlat { h: 3 }] {
        let f = tile_qr_seq(&a, &QrOptions::new(4, 2, tree.clone()));
        let qb = apply_q_vsa(&f, &b, ApplyTrans::NoTrans, &RunConfig::smp(3));
        assert!(same_bits(&qb, &f.apply_q(&b)), "{tree}: Q b differs");
        let qtb = apply_q_vsa(&f, &b, ApplyTrans::Trans, &RunConfig::smp(3));
        assert!(same_bits(&qtb, &f.apply_qt(&b)), "{tree}: Q^T b differs");
    }
}

#[test]
fn q_thin_is_orthonormal_basis() {
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::random(36, 12, &mut rng);
    let opts = QrOptions::new(4, 2, Tree::Binary);
    let f = tile_qr_vsa(&a, &opts, &RunConfig::smp(2)).factors;
    let q1 = f.form_q_thin();
    assert_eq!((q1.nrows(), q1.ncols()), (36, 12));
    // Q1^T Q1 == I.
    let qtq = q1.transpose().matmul(&q1);
    assert!(qtq.sub(&Matrix::identity(12)).norm_fro() < 1e-12);
    // Q1 R == A.
    let back = q1.matmul(&f.r);
    assert!(back.sub(&a).norm_fro() < 1e-12 * a.norm_fro());
}

#[test]
fn many_random_shapes_every_engine_vs_seq() {
    let mut rng = StdRng::seed_from_u64(31415);
    for case in 0..12 {
        let nb = 3 + case % 3;
        let mt = 2 + case % 7;
        let nt = 1 + case % 4;
        let h = 1 + case % 4;
        let m = mt * nb;
        let n = nt * nb - (case % 2); // sometimes ragged columns
        if n == 0 {
            continue;
        }
        let a = Matrix::random(m, n, &mut rng);
        let tree = if h >= mt {
            Tree::Flat
        } else {
            Tree::BinaryOnFlat { h }
        };
        let opts = QrOptions::new(nb, 2, tree);
        all_engines_identical(&a, &opts, 1 + case % 4);
    }
}

#[test]
fn fixed_vs_shifted_same_numerics_different_schedule() {
    let mut rng = StdRng::seed_from_u64(17);
    let a = Matrix::random(36, 12, &mut rng);
    let shifted = QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 3 });
    let fixed = shifted.clone().with_fixed_boundary();
    let fs = tile_qr_vsa(&a, &shifted, &RunConfig::smp(3)).factors;
    let ff = tile_qr_vsa(&a, &fixed, &RunConfig::smp(3)).factors;
    // Same R up to signs (different elimination orders).
    assert!(r_factor_distance(&fs.r, &ff.r) < 1e-11);
    // But genuinely different schedules in later panels.
    let ops_s: Vec<_> = fs.panels[1].iter().map(|r| r.op).collect();
    let ops_f: Vec<_> = ff.panels[1].iter().map(|r| r.op).collect();
    assert_ne!(
        ops_s, ops_f,
        "boundary strategies should differ from panel 1 on"
    );
}

/// Run `mats` as one pooled batch under `opts`, require the executor
/// `want`, and every job identical to its sequential oracle.
fn batch_identical(pool: &VsaPool, mats: &[Matrix], opts: &QrOptions, want: Backend) {
    let jobs: Vec<(&Matrix, &QrOptions)> = mats.iter().map(|a| (a, opts)).collect();
    let cfg = RunConfig::smp(pool.threads());
    let out = tile_qr_vsa_batch_pooled(&jobs, &cfg, pool).expect("batch runs");
    let shapes: Vec<_> = mats.iter().map(|a| (a.nrows(), a.ncols())).collect();
    let what = format!("{shapes:?} {} {:?}", opts.tree, opts.boundary);
    assert_eq!(out.backend, want, "{what}: executor");
    for (b, (a, got)) in mats.iter().zip(&out.factors).enumerate() {
        let want = tile_qr_seq(a, opts);
        assert_identical(&want, got, &format!("{what}: job {b}"));
    }
}

#[test]
fn balanced_batches_walk_lopsided_batches_share_the_array() {
    let mut rng = StdRng::seed_from_u64(28);
    let (pool, one) = (VsaPool::new(2), VsaPool::new(1));
    for tree in [
        Tree::Flat,
        Tree::Binary,
        Tree::BinaryOnFlat { h: 2 },
        Tree::Greedy,
        Tree::custom([3, 2]),
    ] {
        let shifted = QrOptions::new(8, 4, tree);
        for opts in [shifted.clone(), shifted.with_fixed_boundary()] {
            // At least one job per worker: each job walks whole.
            for count in 2..=5 {
                let mats: Vec<Matrix> = (0..count)
                    .map(|_| Matrix::random(64, 32, &mut rng))
                    .collect();
                batch_identical(&pool, &mats, &opts, Backend::Walk);
            }
            // Unequal jobs still balance while the largest is at most
            // 1/workers of the total.
            let mixed = [(64, 32), (48, 16), (64, 32)].map(|(m, n)| Matrix::random(m, n, &mut rng));
            batch_identical(&pool, &mixed, &opts, Backend::Walk);
            // One job outweighs the rest: the shared array spreads it.
            let lopsided =
                [(256, 64), (32, 16), (32, 16)].map(|(m, n)| Matrix::random(m, n, &mut rng));
            batch_identical(&pool, &lopsided, &opts, Backend::Vsa3d);
            // A lone tall job (grid aspect 32) walks, its domain stage on
            // the pool; a lone job of any other shape stays on the array.
            let tall = [Matrix::random(512, 16, &mut rng)];
            batch_identical(&pool, &tall, &opts, Backend::Walk);
            // On one worker every lone job walks whole on that worker.
            batch_identical(&one, &tall, &opts, Backend::Walk);
            let lone = [Matrix::random(64, 32, &mut rng)];
            batch_identical(&pool, &lone, &opts, Backend::Vsa3d);
        }
    }
}

#[test]
fn chaos_panic_in_a_walked_batch_names_its_slot() {
    let mut rng = StdRng::seed_from_u64(1);
    let pool = VsaPool::new(2);
    let opts = QrOptions::new(4, 2, Tree::Greedy);
    let mats: Vec<Matrix> = (0..3).map(|_| Matrix::random(32, 16, &mut rng)).collect();
    let jobs: Vec<(&Matrix, &QrOptions)> = mats.iter().map(|a| (a, &opts)).collect();
    let cfg = RunConfig::smp(2).with_chaos_panic(Tuple::new4(1, 0, 0, 0));
    match tile_qr_vsa_batch_pooled(&jobs, &cfg, &pool) {
        Err(RunError::VdpPanicked { tuple, payload }) => {
            assert_eq!((tuple.len(), tuple.ids()[0]), (4, 1), "{tuple}");
            assert!(payload.contains("chaos"), "{payload}");
        }
        Err(e) => panic!("expected VdpPanicked, got {e}"),
        Ok(out) => panic!("poisoned batch succeeded on {}", out.backend),
    }
    // The pool survives the caught panic: the same batch then walks clean.
    batch_identical(&pool, &mats, &opts, Backend::Walk);
    // A lone tall walk reports its panic the same way, as slot 0.
    let tall = Matrix::random(256, 8, &mut rng);
    let cfg = RunConfig::smp(2).with_chaos_panic(Tuple::new4(0, 0, 0, 0));
    match tile_qr_vsa_batch_pooled(&[(&tall, &opts)], &cfg, &pool) {
        Err(RunError::VdpPanicked { tuple, .. }) => assert_eq!(tuple.ids()[0], 0, "{tuple}"),
        Err(e) => panic!("expected VdpPanicked, got {e}"),
        Ok(out) => panic!("poisoned lone walk succeeded on {}", out.backend),
    }
}
