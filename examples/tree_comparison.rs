//! Compare the reduction trees of Section V-B on the real runtime:
//! flat (the 2D domino baseline), binary, binary-on-flat (the paper's
//! hierarchical tree) under shifted and fixed domain boundaries, and the
//! sequential oracle — same matrix, same tiles.
//!
//! ```sh
//! cargo run --release --example tree_comparison [threads]
//! ```

use pulsar::core::plan::Tree;
use pulsar::core::vsa3d::tile_qr_vsa;
use pulsar::core::{tile_qr_seq, QrOptions};
use pulsar::linalg::{flops, Matrix};
use pulsar::runtime::RunConfig;
use std::time::Instant;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let nb = 48;
    let ib = 12;
    let (m, n) = (48 * nb, 6 * nb);
    let mut rng = rand::rng();
    let a = Matrix::random(m, n, &mut rng);
    let gf = flops::qr_flops(m, n) * 1e-9;

    println!("tree comparison on a {m}x{n} tall-skinny matrix, nb={nb}, {threads} threads");
    println!(
        "{:<26} {:>10} {:>10} {:>12}",
        "variant", "time (ms)", "Gflop/s", "residual"
    );

    let report = |name: &str, dt: f64, resid: f64| {
        println!(
            "{name:<26} {:>10.1} {:>10.2} {:>12.2e}",
            dt * 1e3,
            gf / dt,
            resid
        );
    };

    let hier = |h| QrOptions::new(nb, ib, Tree::BinaryOnFlat { h });
    for (name, opts) in [
        ("vsa3d flat (domino 2D)", QrOptions::new(nb, ib, Tree::Flat)),
        ("vsa3d binary", QrOptions::new(nb, ib, Tree::Binary)),
        ("vsa3d binary-on-flat h=6", hier(6)),
        ("vsa3d binary-on-flat h=12", hier(12)),
        ("vsa3d h=6 fixed boundary", hier(6).with_fixed_boundary()),
    ] {
        let t0 = Instant::now();
        let res = tile_qr_vsa(&a, &opts, &RunConfig::smp(threads));
        report(name, t0.elapsed().as_secs_f64(), res.factors.residual(&a));
    }

    let t0 = Instant::now();
    let seq = tile_qr_seq(&a, &QrOptions::new(nb, ib, Tree::BinaryOnFlat { h: 6 }));
    report(
        "sequential oracle",
        t0.elapsed().as_secs_f64(),
        seq.residual(&a),
    );
}
