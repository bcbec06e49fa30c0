//! The service's shape rule: a tall-skinny job (grid aspect at least
//! `TSQR_MIN_ASPECT`) runs alone on the plan walker — factors
//! bit-identical to the sequential oracle, so the kept handle serves
//! solve/apply-q like any other, and a panic in it fails only that job.

use pulsar_core::{tile_qr_seq, QrOptions, Tree};
use pulsar_linalg::verify::r_factor_distance;
use pulsar_linalg::Matrix;
use pulsar_server::{JobError, JobState, ServeConfig, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::random(rows, cols, &mut StdRng::seed_from_u64(seed))
}

fn json_u64(stats: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = stats
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} in {stats}"));
    stats[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// A tall job walks: its R is bit-identical to the sequential oracle and
/// it counts as a walked batch. A panic aimed at it fails that job with a
/// typed error through the one batch path, and the next tall job succeeds.
#[test]
fn tall_jobs_walk_without_a_profile() {
    let svc = Service::start(ServeConfig::default());
    let opts = QrOptions::new(8, 4, Tree::Greedy);
    let tall = matrix(256, 8, 1);
    let id = svc.submit(tall.clone(), opts.clone(), None, false).unwrap();
    let r = svc.wait_result(id).unwrap();
    let oracle = tile_qr_seq(&tall, &opts).r;
    let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r), bits(&oracle), "walked R differs from tile_qr_seq");

    // The stall holds each batch between its pull and its launch, so the
    // directive is in place before the poisoned job's batch launches.
    svc.inject_sched_delay(Duration::from_millis(50));
    let poisoned = svc.submit(matrix(256, 8, 2), opts.clone(), None, false);
    let poisoned = poisoned.unwrap();
    svc.inject_panic_job(poisoned);
    match svc.wait_result(poisoned) {
        Err(JobError::Panicked(m)) => assert!(m.contains("chaos"), "{m}"),
        other => panic!("expected a typed panic, got {other:?}"),
    }
    let next = svc.submit(matrix(256, 8, 3), opts, None, false).unwrap();
    svc.wait_result(next)
        .expect("the job after the panic succeeds");

    let stats = svc.drain();
    assert_eq!(json_u64(&stats, "batches_walked"), 3, "{stats}");
    assert_eq!(json_u64(&stats, "jobs_panicked"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "jobs_done"), 2, "{stats}");
}

/// A tall job queued between two small ones runs as its own batch: it
/// closes the batch it would have joined, and nothing joins it. The
/// scheduler stall holds the first batch long enough for the three jobs
/// behind it to queue together, however fast the host factors.
#[test]
fn a_tall_job_between_small_ones_runs_alone() {
    let svc = Service::start(ServeConfig::default());
    svc.inject_sched_delay(Duration::from_millis(100));
    let small = QrOptions::new(8, 4, Tree::Greedy);
    let head = svc.submit(matrix(32, 32, 4), small.clone(), None, false);
    let head = head.unwrap();
    while svc.status(head).map(|(s, _)| s) == Some(JobState::Queued) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let ids = [
        svc.submit(matrix(32, 32, 5), small.clone(), None, false),
        svc.submit(matrix(256, 8, 6), small.clone(), None, false),
        svc.submit(matrix(32, 32, 7), small, None, false),
    ];
    for id in std::iter::once(head).chain(ids.map(Result::unwrap)) {
        svc.wait_result(id).unwrap();
    }
    let stats = svc.drain();
    // [head], [small], [tall] and [small]: without the rule the last three
    // would share one batch.
    assert_eq!(json_u64(&stats, "batches"), 4, "{stats}");
    assert_eq!(json_u64(&stats, "batches_walked"), 1, "{stats}");
}

/// A tall-skinny job walks and a square job stays on the VSA — both match
/// the sequential oracle, and the kept walked handle serves solves like
/// any VSA handle.
#[test]
fn tall_jobs_walk_and_kept_handles_solve() {
    let svc = Service::start(ServeConfig::default());

    // 256x8 at nb=8: 32x1 tiles, aspect 32 -> walk. 32x32: aspect 1 -> VSA.
    let tall = matrix(256, 8, 7);
    let tall_opts = QrOptions::new(8, 4, Tree::BinaryOnFlat { h: 4 });
    let square = matrix(32, 32, 8);
    let square_opts = QrOptions::new(8, 4, Tree::Greedy);

    let jt = svc
        .submit(tall.clone(), tall_opts.clone(), None, true)
        .unwrap();
    let js = svc
        .submit(square.clone(), square_opts.clone(), None, true)
        .unwrap();
    let rt = svc.wait_result(jt).unwrap();
    let rs = svc.wait_result(js).unwrap();

    // Both Rs match the sequential oracle (the walk is the same kernel
    // sequence, so the walked job's R is not merely close — but the
    // public contract is the factorization distance).
    let oracle_t = tile_qr_seq(&tall, &tall_opts);
    let oracle_s = tile_qr_seq(&square, &square_opts);
    assert!(r_factor_distance(&rt, &oracle_t.r) < 1e-12);
    assert!(r_factor_distance(&rs, &oracle_s.r) < 1e-12);

    // The kept walked handle serves solves like any VSA handle.
    let b = matrix(256, 2, 9);
    let x = svc.solve(jt, &b).unwrap();
    let x_ref = oracle_t.solve_ls(&b);
    assert!(x.sub(&x_ref).norm_fro() < 1e-10 * x_ref.norm_fro().max(1.0));

    let stats = svc.drain();
    assert!(json_u64(&stats, "batches_walked") >= 1, "{stats}");
}
