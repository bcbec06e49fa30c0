//! Distributed-execution integration tests: the QR VSA across virtual
//! nodes with proxy threads, different row distributions, and the network
//! model — results must be identical to single-node execution.

use pulsar::core::mapping::{qr_mapping, RowDist};
use pulsar::core::plan::Tree;
use pulsar::core::vsa3d::tile_qr_vsa;
use pulsar::core::QrOptions;
use pulsar::linalg::verify::r_factor_distance;
use pulsar::linalg::Matrix;
use pulsar::runtime::{NetModel, RunConfig};

fn fixture(mt: usize, nt: usize, nb: usize) -> (Matrix, QrOptions) {
    let mut rng = rand::rng();
    let a = Matrix::random(mt * nb, nt * nb, &mut rng);
    (a, QrOptions::new(nb, 4, Tree::BinaryOnFlat { h: 3 }))
}

#[test]
fn qr_across_nodes_matches_smp() {
    let (a, opts) = fixture(12, 3, 8);
    let smp = tile_qr_vsa(&a, &opts, &RunConfig::smp(3));

    for nodes in [2usize, 3, 4] {
        for dist in [RowDist::Cyclic, RowDist::Block] {
            let plan = opts.plan(12, 3);
            let mapping = qr_mapping(&plan, dist, nodes, 2);
            let cfg = RunConfig::cluster(nodes, 2, mapping);
            let res = tile_qr_vsa(&a, &opts, &cfg);
            assert!(
                r_factor_distance(&res.factors.r, &smp.factors.r) < 1e-12,
                "{nodes} nodes {dist:?}"
            );
            assert!(
                res.stats.remote_msgs > 0,
                "{nodes} nodes {dist:?}: no traffic?"
            );
        }
    }
}

#[test]
fn block_distribution_sends_fewer_tiles_than_cyclic() {
    // With block rows per node and h <= rows-per-node, domain flat
    // reductions stay node-local: strictly less inter-node traffic than a
    // cyclic distribution (the paper's locality argument).
    let (a, opts) = fixture(16, 2, 8);
    let plan = opts.plan(16, 2);
    let nodes = 4;
    let run = |dist| {
        let mapping = qr_mapping(&plan, dist, nodes, 2);
        tile_qr_vsa(&a, &opts, &RunConfig::cluster(nodes, 2, mapping))
            .stats
            .remote_msgs
    };
    let cyclic = run(RowDist::Cyclic);
    let block = run(RowDist::Block);
    assert!(
        block < cyclic,
        "block dist ({block}) should send fewer messages than cyclic ({cyclic})"
    );
}

#[test]
fn network_model_does_not_change_results() {
    let (a, opts) = fixture(8, 2, 8);
    let plan = opts.plan(8, 2);
    let mapping = qr_mapping(&plan, RowDist::Cyclic, 2, 2);
    let cfg = RunConfig::cluster(2, 2, mapping).with_net(NetModel {
        latency_us: 200.0,
        bytes_per_us: 100.0,
    });
    let res = tile_qr_vsa(&a, &opts, &cfg);
    assert!(res.factors.residual(&a) < 1e-13);
}

/// Runs the array across 3 nodes under the paper's mapping (cyclic and
/// block rows) and checks `R` bit for bit against one node. Four panels,
/// so that even block rows put flat chains on two nodes.
fn assert_array_across_nodes(opts: QrOptions) {
    let (a, _) = fixture(9, 4, 8);
    let smp = tile_qr_vsa(&a, &opts, &RunConfig::smp(2));
    let what = format!("{} {:?}", opts.tree, opts.boundary);
    for dist in [RowDist::Cyclic, RowDist::Block] {
        let mapping = qr_mapping(&opts.plan(9, 4), dist, 3, 2);
        let res = tile_qr_vsa(&a, &opts, &RunConfig::cluster(3, 2, mapping));
        let same = (res.factors.r.data().iter().zip(smp.factors.r.data()))
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{what} {dist:?}: R differs from the SMP run");
        assert!(res.stats.remote_msgs > 0, "{what} {dist:?}: no traffic?");
    }
}

#[test]
fn compact_array_across_nodes() {
    // The Figure-8 array, with its mid-run channel enable/disable, must
    // also survive distribution (the dashed channel often crosses nodes).
    assert_array_across_nodes(QrOptions::new(8, 4, Tree::BinaryOnFlat { h: 3 }));
}

#[test]
fn fixed_boundary_array_across_nodes() {
    // Under fixed boundaries the dashed row is a chain's first, and its row
    // stream is the channel enabled mid-run.
    let opts = QrOptions::new(8, 4, Tree::BinaryOnFlat { h: 3 }).with_fixed_boundary();
    assert_array_across_nodes(opts);
}

#[test]
fn domino_across_nodes() {
    // The Figure-9 domino array is the array on the flat tree: multi-fire
    // flat chains whose persistent tiles sit on several nodes.
    assert_array_across_nodes(QrOptions::new(8, 4, Tree::Flat));
}

#[test]
fn trace_works_across_nodes() {
    let (a, opts) = fixture(8, 2, 8);
    let plan = opts.plan(8, 2);
    let mapping = qr_mapping(&plan, RowDist::Cyclic, 2, 2);
    let cfg = RunConfig::cluster(2, 2, mapping).with_trace();
    let res = tile_qr_vsa(&a, &opts, &cfg);
    let trace = res.trace.expect("trace requested");
    // Firing spans recorded on both nodes' threads (global ids 0..4).
    let nodes_seen: std::collections::HashSet<usize> = trace.spans.iter().map(|s| s.node).collect();
    assert_eq!(nodes_seen.len(), 2, "spans from both nodes expected");
    assert!(trace.spans.len() >= res.stats.fired);
}

#[test]
fn transport_stats_account_for_traffic() {
    // Satellite invariants on RunStats: remote messages imply wire bytes,
    // and a network model with nonzero latency must defer deliveries.
    let (a, opts) = fixture(8, 2, 8);
    let plan = opts.plan(8, 2);
    let mapping = qr_mapping(&plan, RowDist::Cyclic, 2, 2);
    let cfg = RunConfig::cluster(2, 2, mapping).with_net(NetModel {
        latency_us: 100.0,
        bytes_per_us: 1000.0,
    });
    let res = tile_qr_vsa(&a, &opts, &cfg);
    let s = &res.stats;
    assert!(s.remote_msgs > 0, "no traffic?");
    assert!(s.wire_bytes_sent > 0, "remote msgs but no wire bytes");
    // In-process both proxies share the counters: everything sent arrives.
    assert_eq!(s.wire_bytes_sent, s.wire_bytes_recv);
    assert!(s.deferred_msgs > 0, "100us latency should defer deliveries");
}

#[test]
fn qr_over_tcp_backend_matches_smp() {
    // The real-socket backend inside one test process: N "rank" threads,
    // each with its own TcpFabric over localhost, each building the
    // identical array (SPMD) and keeping only its local VDPs.
    use pulsar::core::vsa3d::{tile_qr_vsa_partial, VsaQrPartial};
    use pulsar::core::wire_registry;
    use pulsar::runtime::{Backend, TcpBackend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::TcpListener;

    let nodes = 3;
    let (mt, nt, nb) = (12usize, 3usize, 8usize);
    let fixture = || {
        let mut rng = StdRng::seed_from_u64(2014);
        Matrix::random(mt * nb, nt * nb, &mut rng)
    };
    let opts = QrOptions::new(nb, 4, Tree::BinaryOnFlat { h: 3 });
    let smp = tile_qr_vsa(&fixture(), &opts, &RunConfig::smp(2));

    let listeners: Vec<TcpListener> = (0..nodes)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();

    let parts: Vec<VsaQrPartial> = std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let peers = peers.clone();
                let opts = opts.clone();
                let a = fixture();
                s.spawn(move || {
                    let plan = opts.plan(mt, nt);
                    let mapping = qr_mapping(&plan, RowDist::Block, nodes, 2);
                    let cfg = RunConfig::cluster(nodes, 2, mapping).with_backend(Backend::Tcp(
                        TcpBackend::new(rank, listener, peers, wire_registry()),
                    ));
                    tile_qr_vsa_partial(&a, &opts, &cfg).expect("TCP rank failed")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Stitch the per-rank tiles back into one R and compare with SMP.
    let (m, n) = (mt * nb, nt * nb);
    let k = m.min(n);
    let mut r = Matrix::zeros(k, n);
    let mut tiles = 0;
    for p in &parts {
        for (i, l, block) in &p.r_tiles {
            let rows = block.nrows().min(k - i * nb);
            r.set_submatrix(i * nb, l * nb, &block.submatrix(0, 0, rows, block.ncols()));
            tiles += 1;
        }
    }
    let kt = (m / nb).min(nt);
    assert_eq!(
        tiles,
        (0..kt).map(|i| nt - i).sum::<usize>(),
        "missing tiles"
    );
    assert!(r_factor_distance(&r, &smp.factors.r) < 1e-12);
    assert!(
        parts.iter().any(|p| p.stats.wire_bytes_sent > 0),
        "no bytes crossed the sockets"
    );
    let sent: u64 = parts.iter().map(|p| p.stats.wire_bytes_sent).sum();
    let recv: u64 = parts.iter().map(|p| p.stats.wire_bytes_recv).sum();
    assert_eq!(sent, recv, "all sent frames must be received");
}
