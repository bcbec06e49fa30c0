//! End-to-end QR benchmarks on the real runtime: the three reduction trees
//! of Section VI (the flat tree is the domino baseline) and fixed domain
//! boundaries, on a laptop-scale tall-skinny matrix (the large-scale curves
//! come from `fig10_asymptotic` / `fig11_strong`, which use the calibrated
//! simulator).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pulsar_core::plan::Tree;
use pulsar_core::vsa3d::tile_qr_vsa;
use pulsar_core::{tile_qr_seq, QrOptions};
use pulsar_linalg::{flops, Matrix};
use pulsar_runtime::RunConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_trees(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let nb = 48;
    let ib = 12;
    let (m, n) = (24 * nb, 4 * nb);
    let a = Matrix::random(m, n, &mut rng);
    let threads = 4;

    let mut g = c.benchmark_group("qr_end2end");
    g.throughput(Throughput::Elements(flops::qr_flops(m, n) as u64));
    for (name, tree) in [
        ("flat", Tree::Flat),
        ("binary", Tree::Binary),
        ("hier_h4", Tree::BinaryOnFlat { h: 4 }),
    ] {
        let opts = QrOptions::new(nb, ib, tree);
        g.bench_with_input(BenchmarkId::new("vsa3d", name), &opts, |b, opts| {
            b.iter(|| black_box(tile_qr_vsa(&a, opts, &RunConfig::smp(threads))))
        });
    }
    let fixed = QrOptions::new(nb, ib, Tree::BinaryOnFlat { h: 4 }).with_fixed_boundary();
    g.bench_function("vsa3d_fixed_h4", |b| {
        b.iter(|| black_box(tile_qr_vsa(&a, &fixed, &RunConfig::smp(threads))))
    });
    let flat = QrOptions::new(nb, ib, Tree::Flat);
    g.bench_function("sequential_oracle", |b| {
        b.iter(|| black_box(tile_qr_seq(&a, &flat)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_trees
}
criterion_main!(benches);
