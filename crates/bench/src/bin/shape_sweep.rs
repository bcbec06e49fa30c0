//! Shape sweep: tuned-vs-paper plans across aspect ratios, plus the TSQR
//! fast path, as one JSON object on stdout (`scripts/bench_shapes.sh`
//! writes it to `BENCH_shapes.json`).
//!
//! For each aspect ratio (1:1, 4:1, 32:1, 256:1) three numbers are
//! reported, all measured by the same best-of-reps timer in this process:
//!
//! - `fixed` — the paper's fixed plan (`hier:4`, `nb = 64` clamped to
//!   divide `m`, 3D VSA), what every shape ran before the tuner existed.
//! - `tuned` — the best measured plan among the tuner's structural
//!   candidate set *and* the fixed plan. Because the maximum is taken over
//!   a set containing `fixed`, `tuned >= fixed` holds by construction;
//!   the gate asserts it anyway (a violation means the harness is broken).
//! - `tsqr` — the best walked (TSQR) plan for the shape.
//!
//! Gates (exit 1 on failure, numbers still printed):
//! - `tuned >= fixed` on every shape;
//! - `tsqr >= 1.2 * fixed` on the tall-skinny shapes (grid aspect >= 32),
//!   where skipping the 3D VSA construction must pay off, not just tie.

use pulsar_core::policy::{Backend, PaperPolicy, PlanChoice, PlanPolicy};
use pulsar_core::{grid_aspect, Tree};
use pulsar_linalg::flops::qr_flops;
use pulsar_linalg::Matrix;
use pulsar_tuner::json::{obj, Json};
use pulsar_tuner::{candidates, measure};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHAPES: &[(usize, usize, &str)] = &[
    (512, 512, "1:1"),
    (1024, 256, "4:1"),
    (1024, 32, "32:1"),
    (4096, 16, "256:1"),
];
const THREADS: usize = 4;
const REPS: usize = 3;
const TSQR_GATE_ASPECT: usize = 32;
const TSQR_GATE_SPEEDUP: f64 = 1.2;

/// GFLOP/s of `choice` on `a`, best of [`REPS`], on the tuner's timer.
fn gflops(a: &Matrix, choice: &PlanChoice) -> f64 {
    qr_flops(a.nrows(), a.ncols()) / measure(a, choice, THREADS, REPS) / 1e9
}

/// A rate to three decimals.
fn num(x: f64) -> Json {
    Json::Num((x * 1e3).round() / 1e3)
}

fn main() {
    let mut fields = vec![
        ("meta/threads".to_string(), THREADS.into()),
        ("meta/reps".to_string(), REPS.into()),
    ];
    let mut failures = Vec::new();

    for &(m, n, label) in SHAPES {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ m as u64);
        let a = Matrix::random(m, n, &mut rng);

        let fixed_choice = PaperPolicy::default().choose(m, n, THREADS);
        let fixed = gflops(&a, &fixed_choice);

        // The tuner's structural candidates for this shape, with the
        // fixed plan always in the pool so `tuned` can never regress it.
        let mut pool = candidates(m, n, THREADS, &[16, 32, 64]);
        if !pool.contains(&fixed_choice) {
            pool.push(fixed_choice.clone());
        }
        // Every shape also gets a walked (TSQR) contender (the tall ones
        // already have them; square shapes get a binary-tree one for
        // reference).
        if !pool.iter().any(|c| c.backend == Backend::Walk) {
            pool.push(PlanChoice {
                tree: Tree::Binary,
                nb: fixed_choice.nb,
                ib: fixed_choice.ib,
                backend: Backend::Walk,
            });
        }
        let measured: Vec<(PlanChoice, f64)> = pool
            .into_iter()
            .map(|c| {
                let g = gflops(&a, &c);
                (c, g)
            })
            .collect();
        let tuned = measured.iter().map(|&(_, g)| g).fold(fixed, f64::max);
        let tsqr = measured
            .iter()
            .filter(|(c, _)| c.backend == Backend::Walk)
            .map(|&(_, g)| g)
            .fold(0.0, f64::max);

        let key = format!("{m}x{n}");
        fields.extend([
            (format!("{key}/aspect"), Json::Str(label.into())),
            (format!("{key}/fixed"), num(fixed)),
            (format!("{key}/tuned"), num(tuned)),
            (format!("{key}/tsqr"), num(tsqr)),
            (format!("{key}/tuned_speedup"), num(tuned / fixed)),
        ]);

        if tuned < fixed {
            failures.push(format!("{key}: tuned {tuned:.3} < fixed {fixed:.3}"));
        }
        let aspect = grid_aspect(m, n, fixed_choice.nb);
        if aspect >= TSQR_GATE_ASPECT && tsqr < TSQR_GATE_SPEEDUP * fixed {
            failures.push(format!(
                "{key} (grid aspect {aspect}): tsqr {tsqr:.3} < {TSQR_GATE_SPEEDUP} * fixed {fixed:.3}"
            ));
        }
    }

    let gates = if failures.is_empty() { "ok" } else { "FAILED" };
    fields.push(("meta/gates".to_string(), Json::Str(gates.into())));
    println!("{}", obj(fields).write());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
