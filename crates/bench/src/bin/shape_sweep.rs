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
//! - `tsqr` — the best TSQR-backend plan for the shape.
//!
//! Gates (exit 1 on failure, numbers still printed):
//! - `tuned >= fixed` on every shape;
//! - `tsqr >= 1.2 * fixed` on the tall-skinny shapes (grid aspect >= 32),
//!   where skipping the 3D VSA construction must pay off, not just tie.

use pulsar_core::policy::{Backend, PaperPolicy, PlanChoice, PlanPolicy};
use pulsar_core::vsa3d::tile_qr_vsa;
use pulsar_core::{grid_aspect, tile_qr_seq, tile_qr_tsqr, Tree};
use pulsar_linalg::flops::qr_flops;
use pulsar_linalg::Matrix;
use pulsar_runtime::RunConfig;
use pulsar_tuner::candidates;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

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

fn measure(a: &Matrix, choice: &PlanChoice) -> f64 {
    let opts = choice.options();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        match choice.backend {
            Backend::Tsqr => {
                let f = tile_qr_tsqr(a, &opts, THREADS);
                std::hint::black_box(&f.r);
            }
            Backend::Vsa3d => {
                let r = tile_qr_vsa(a, &opts, &RunConfig::smp(THREADS));
                std::hint::black_box(&r.factors.r);
            }
            Backend::Seq => {
                let f = tile_qr_seq(a, &opts);
                std::hint::black_box(&f.r);
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    qr_flops(a.nrows(), a.ncols()) / best / 1e9
}

fn main() {
    let mut fields: Vec<(String, String)> = Vec::new();
    fields.push(("meta/threads".into(), THREADS.to_string()));
    fields.push(("meta/reps".into(), REPS.to_string()));
    let mut failures = Vec::new();

    for &(m, n, label) in SHAPES {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ m as u64);
        let a = Matrix::random(m, n, &mut rng);

        let fixed_choice = PaperPolicy::default().choose(m, n, THREADS);
        let fixed = measure(&a, &fixed_choice);

        // The tuner's structural candidates for this shape, with the
        // fixed plan always in the pool so `tuned` can never regress it.
        let mut pool = candidates(m, n, THREADS, &[16, 32, 64]);
        if !pool.contains(&fixed_choice) {
            pool.push(fixed_choice.clone());
        }
        // Every shape also gets a TSQR contender (the tall ones already
        // have them; square shapes get a binary-tree one for reference).
        if !pool.iter().any(|c| c.backend == Backend::Tsqr) {
            pool.push(PlanChoice {
                tree: Tree::Binary,
                nb: fixed_choice.nb,
                ib: fixed_choice.ib,
                backend: Backend::Tsqr,
            });
        }
        let measured: Vec<(PlanChoice, f64)> = pool
            .into_iter()
            .map(|c| (c.clone(), measure(&a, &c)))
            .collect();
        let tuned = measured.iter().map(|&(_, g)| g).fold(fixed, f64::max);
        let tsqr = measured
            .iter()
            .filter(|(c, _)| c.backend == Backend::Tsqr)
            .map(|&(_, g)| g)
            .fold(0.0, f64::max);

        let key = format!("{m}x{n}");
        fields.push((format!("{key}/aspect"), format!("\"{label}\"")));
        fields.push((format!("{key}/fixed"), format!("{fixed:.3}")));
        fields.push((format!("{key}/tuned"), format!("{tuned:.3}")));
        fields.push((format!("{key}/tsqr"), format!("{tsqr:.3}")));
        fields.push((
            format!("{key}/tuned_speedup"),
            format!("{:.3}", tuned / fixed),
        ));

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

    fields.push((
        "meta/gates".into(),
        if failures.is_empty() {
            "\"ok\"".into()
        } else {
            "\"FAILED\"".into()
        },
    ));

    println!("{{");
    for (i, (k, v)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        println!("  \"{k}\": {v}{comma}");
    }
    println!("}}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
}
