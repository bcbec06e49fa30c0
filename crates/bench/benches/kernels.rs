//! Criterion microbenchmarks for the six tile kernels of Section V-B,
//! at the paper's inner-block ratio (ib = nb/4), plus a dgemm group
//! comparing the packed engine against the reference loops.
//!
//! All kernel bodies use `iter_batched` so input cloning and `T` zero
//! fills are off the clock — the timings are the kernels alone.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use pulsar_linalg::blas::{dgemm_with, GemmAlgo, Trans};
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{flops, geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const SIZES: &[usize] = &[48, 96, 192];

fn bench_dgemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut g = c.benchmark_group("dgemm");
    for &n in SIZES {
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);
        g.throughput(Throughput::Elements(2 * (n * n * n) as u64));
        for (label, algo) in [
            ("packed", GemmAlgo::Packed),
            ("reference", GemmAlgo::Reference),
        ] {
            g.bench_with_input(BenchmarkId::new(label, n), &n, |bch, _| {
                bch.iter_batched(
                    || Matrix::zeros(n, n),
                    |mut cmat| {
                        dgemm_with(algo, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut cmat);
                        black_box(cmat)
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut g = c.benchmark_group("tile_kernels");
    for &nb in SIZES {
        let ib = nb / 4;
        let a = Matrix::random(nb, nb, &mut rng);
        let b = Matrix::random(nb, nb, &mut rng);

        g.throughput(Throughput::Elements(flops::geqrt_flops(nb, nb) as u64));
        g.bench_with_input(BenchmarkId::new("geqrt", nb), &nb, |bch, _| {
            bch.iter_batched(
                || (a.clone(), Matrix::zeros(ib, nb)),
                |(mut tile, mut t)| {
                    geqrt(&mut tile, &mut t, ib);
                    black_box((tile, t))
                },
                BatchSize::LargeInput,
            )
        });

        // Prepare a factored tile for the apply benchmarks.
        let mut v = a.clone();
        let mut tv = Matrix::zeros(ib, nb);
        geqrt(&mut v, &mut tv, ib);
        g.throughput(Throughput::Elements(flops::unmqr_flops(nb, nb, nb) as u64));
        g.bench_with_input(BenchmarkId::new("unmqr", nb), &nb, |bch, _| {
            bch.iter_batched(
                || b.clone(),
                |mut cmat| {
                    unmqr(&v, &tv, ApplyTrans::Trans, &mut cmat, ib);
                    black_box(cmat)
                },
                BatchSize::LargeInput,
            )
        });

        let r1 = a.upper_triangle();
        g.throughput(Throughput::Elements(flops::tsqrt_flops(nb, nb) as u64));
        g.bench_with_input(BenchmarkId::new("tsqrt", nb), &nb, |bch, _| {
            bch.iter_batched(
                || (r1.clone(), b.clone(), Matrix::zeros(ib, nb)),
                |(mut a1, mut a2, mut t)| {
                    tsqrt(&mut a1, &mut a2, &mut t, ib);
                    black_box((a1, a2, t))
                },
                BatchSize::LargeInput,
            )
        });

        let mut vts = b.clone();
        let mut tts = Matrix::zeros(ib, nb);
        {
            let mut a1 = r1.clone();
            tsqrt(&mut a1, &mut vts, &mut tts, ib);
        }
        g.throughput(Throughput::Elements(flops::tsmqr_flops(nb, nb, nb) as u64));
        g.bench_with_input(BenchmarkId::new("tsmqr", nb), &nb, |bch, _| {
            bch.iter_batched(
                || (a.clone(), b.clone()),
                |(mut c1, mut c2)| {
                    tsmqr(&mut c1, &mut c2, &vts, &tts, ApplyTrans::Trans, ib);
                    black_box((c1, c2))
                },
                BatchSize::LargeInput,
            )
        });

        let r2 = b.upper_triangle();
        g.throughput(Throughput::Elements(flops::ttqrt_flops(nb) as u64));
        g.bench_with_input(BenchmarkId::new("ttqrt", nb), &nb, |bch, _| {
            bch.iter_batched(
                || (r1.clone(), r2.clone(), Matrix::zeros(ib, nb)),
                |(mut a1, mut a2, mut t)| {
                    ttqrt(&mut a1, &mut a2, &mut t, ib);
                    black_box((a1, a2, t))
                },
                BatchSize::LargeInput,
            )
        });

        let mut vtt = r2.clone();
        let mut ttt = Matrix::zeros(ib, nb);
        {
            let mut a1 = r1.clone();
            ttqrt(&mut a1, &mut vtt, &mut ttt, ib);
        }
        g.throughput(Throughput::Elements(flops::ttmqr_flops(nb, nb) as u64));
        g.bench_with_input(BenchmarkId::new("ttmqr", nb), &nb, |bch, _| {
            bch.iter_batched(
                || (a.clone(), b.clone()),
                |(mut c1, mut c2)| {
                    ttmqr(&mut c1, &mut c2, &vtt, &ttt, ApplyTrans::Trans, ib);
                    black_box((c1, c2))
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dgemm, bench_kernels
}
criterion_main!(benches);
