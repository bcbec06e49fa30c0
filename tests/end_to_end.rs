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
    // The simulator's graph is the one the runtime runs: under the same
    // mapping it has the runtime's firings, and its cross-node messages
    // and bytes are the ones the runtime ships, on every tree, boundary,
    // row distribution and node layout — plus the `cluster_cyclic`
    // benchmark shape.
    use pulsar::core::mapping::{qr_mapping, RowDist};
    use pulsar::sim::{build_tree_qr_graph, simulate, Machine, RuntimeModel};
    let mut cells = Vec::new();
    for tree in [
        Tree::Flat,
        Tree::Binary,
        Tree::Greedy,
        Tree::BinaryOnFlat { h: 3 },
        Tree::custom([3, 2]),
    ] {
        for boundary in [Boundary::Shifted, Boundary::Fixed] {
            for dist in [RowDist::Cyclic, RowDist::Block] {
                for (nodes, tpn) in [(2, 1), (3, 2)] {
                    for (m, n) in [(48, 20), (24, 40), (64, 16)] {
                        let o = QrOptions {
                            nb: 4,
                            ib: 2,
                            tree: tree.clone(),
                            boundary,
                        };
                        cells.push((m, n, o, dist, nodes, tpn));
                    }
                }
            }
        }
    }
    let cluster_cyclic = QrOptions::new(32, 8, Tree::BinaryOnFlat { h: 4 });
    cells.push((2048, 256, cluster_cyclic, RowDist::Cyclic, 2, 1));

    let mut rng = rand::rng();
    for (m, n, o, dist, nodes, tpn) in cells {
        let a = Matrix::random(m, n, &mut rng);
        let plan = o.plan(m / o.nb, n.div_ceil(o.nb));
        let config = RunConfig::cluster(nodes, tpn, qr_mapping(&plan, dist, nodes, tpn));
        let run = tile_qr_vsa(&a, &o, &config).stats;
        let machine = Machine {
            workers_per_node: tpn,
            ..Machine::kraken(nodes)
        };
        let graph = build_tree_qr_graph(m, n, &o, dist, &machine, RuntimeModel::pulsar());
        let sim = simulate(&graph, &machine);
        assert_eq!(
            (sim.tasks, sim.remote_messages, sim.remote_bytes),
            (run.fired, run.remote_msgs, run.wire_bytes_sent),
            "{m}x{n} {} {:?} {dist:?} on {nodes}x{tpn}",
            o.tree,
            o.boundary
        );
    }
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
