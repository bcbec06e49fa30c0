//! Cross-crate end-to-end tests: every execution engine (sequential, 3D
//! VSA), every tree, against the dense reference QR — plus the
//! invariant tying the runtime to the plan and the simulator.

use pulsar::core::plan::{Boundary, Tree};
use pulsar::core::vsa3d::tile_qr_vsa;
use pulsar::core::{tile_qr_seq, QrOptions};
use pulsar::linalg::reference::geqrf;
use pulsar::linalg::verify::r_factor_distance;
use pulsar::linalg::Matrix;
use pulsar::runtime::RunConfig;

fn opts(tree: Tree, boundary: Boundary) -> QrOptions {
    QrOptions {
        nb: 8,
        ib: 4,
        tree,
        boundary,
    }
}

#[test]
fn every_engine_matches_reference_r() {
    let mut rng = rand::rng();
    let (m, n) = (48, 16);
    let a = Matrix::random(m, n, &mut rng);
    let r_ref = geqrf(a.clone()).r();

    for tree in [
        Tree::Flat,
        Tree::Binary,
        Tree::Greedy,
        Tree::BinaryOnFlat { h: 2 },
        Tree::BinaryOnFlat { h: 3 },
        Tree::custom([3, 2]),
    ] {
        for boundary in [Boundary::Fixed, Boundary::Shifted] {
            let o = opts(tree.clone(), boundary);
            let seq = tile_qr_seq(&a, &o);
            assert!(
                r_factor_distance(&seq.r, &r_ref) < 1e-11,
                "seq {tree:?}/{boundary:?}"
            );
            let vsa = tile_qr_vsa(&a, &o, &RunConfig::smp(3));
            assert!(
                r_factor_distance(&vsa.factors.r, &r_ref) < 1e-11,
                "vsa {tree:?}/{boundary:?}"
            );
        }
    }
}

#[test]
fn vsa_firing_count_equals_plan_task_count() {
    // The 3D VSA fires exactly once per (op, column) — a chain once per
    // row of its domain — the number the plan (and therefore the
    // simulator's task graph) counts.
    let mut rng = rand::rng();
    let a = Matrix::random(40, 24, &mut rng);
    let o = opts(Tree::BinaryOnFlat { h: 2 }, Boundary::Shifted);
    let plan = o.plan(5, 3);
    let res = tile_qr_vsa(&a, &o, &RunConfig::smp(2));
    assert_eq!(res.stats.fired, plan.total_tasks());
}

#[test]
fn simulator_task_count_matches_runtime_firings() {
    let mut rng = rand::rng();
    let nb = 8;
    let (m, n) = (64, 24);
    let a = Matrix::random(m, n, &mut rng);
    let o = opts(Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);

    let res = tile_qr_vsa(&a, &o, &RunConfig::smp(2));
    let mach = pulsar::sim::Machine::kraken(2);
    let g = pulsar::sim::build_tree_qr_graph(
        m,
        n,
        &o,
        pulsar::core::mapping::RowDist::Cyclic,
        &mach,
        pulsar::sim::RuntimeModel::pulsar(),
    );
    assert_eq!(g.tasks.len(), res.stats.fired);
    let _ = nb;
}

#[test]
fn q_application_roundtrip_and_ls() {
    let mut rng = rand::rng();
    let (m, n) = (64, 16);
    let a = Matrix::random(m, n, &mut rng);
    let o = opts(Tree::BinaryOnFlat { h: 2 }, Boundary::Shifted);
    let f = tile_qr_vsa(&a, &o, &RunConfig::smp(4)).factors;

    // Q Q^T b == b.
    let b = Matrix::random(m, 3, &mut rng);
    let qqt = f.apply_q(&f.apply_qt(&b));
    assert!(qqt.sub(&b).norm_fro() < 1e-11);

    // Least squares agrees with the reference.
    let x_tree = f.solve_ls(&b);
    let x_ref = geqrf(a).solve_ls(&b);
    assert!(x_tree.sub(&x_ref).norm_fro() < 1e-9);
}

#[test]
fn large_threads_small_matrix() {
    // More threads than VDPs per stage must still drain cleanly.
    let mut rng = rand::rng();
    let a = Matrix::random(16, 8, &mut rng);
    let o = opts(Tree::Binary, Boundary::Shifted);
    let res = tile_qr_vsa(&a, &o, &RunConfig::smp(16));
    assert!(res.factors.residual(&a) < 1e-13);
}

#[test]
fn identity_matrix_factors_trivially() {
    let a = Matrix::identity(32);
    let o = opts(Tree::BinaryOnFlat { h: 2 }, Boundary::Shifted);
    let f = tile_qr_vsa(&a, &o, &RunConfig::smp(2)).factors;
    assert!(f.residual(&a) < 1e-14);
    // R of the identity is (sign-flipped) identity.
    for i in 0..32 {
        assert!((f.r[(i, i)].abs() - 1.0).abs() < 1e-13);
    }
}

#[test]
fn rank_deficient_matrix_still_factors() {
    // QR of a rank-1 matrix: residual must stay tiny even though R is
    // singular (least-squares solving would fail, factorization must not).
    let mut rng = rand::rng();
    let u = Matrix::random(48, 1, &mut rng);
    let v = Matrix::random(1, 16, &mut rng);
    let a = u.matmul(&v);
    let o = opts(Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);
    let f = tile_qr_vsa(&a, &o, &RunConfig::smp(3)).factors;
    assert!(f.residual(&a) < 1e-13);
}
