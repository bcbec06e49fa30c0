//! Eviction-churn stress for the factor store behind a live service: a
//! byte budget sized for only a few resident factorizations, hammered by
//! concurrent keep/solve/release traffic. Under constant eviction every
//! call must end in a correct answer or a typed error — `HandleExpired`
//! when the LRU spilled a handle, `StoreFull` when a keep could not be
//! charged — and the service must neither deadlock nor panic. A
//! single-threaded phase first keeps four handles at once, so an eviction
//! happens whatever the later interleaving.

use pulsar_core::{tile_qr_seq, QrOptions, Tree};
use pulsar_linalg::verify::r_factor_distance;
use pulsar_linalg::Matrix;
use pulsar_server::{JobError, ServeConfig, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKERS: usize = 4;
const ITERS: usize = 12;

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::random(rows, cols, &mut StdRng::seed_from_u64(seed))
}

fn opts() -> QrOptions {
    QrOptions::new(4, 2, Tree::Greedy)
}

#[test]
fn eviction_churn_yields_answers_or_typed_errors() {
    // Budget: roughly three resident factorizations. With four workers
    // keeping one each, evictions fire continuously.
    let probe = tile_qr_seq(&matrix(24, 8, 0), &opts());
    let svc = Service::start(ServeConfig {
        threads: 2,
        queue_cap: 64,
        store_bytes: probe.approx_bytes() * 3,
        ..ServeConfig::default()
    });

    // Deterministic phase: one thread keeps four handles without releasing
    // any, so the fourth keep must evict the least recently used, the first.
    let kept: Vec<u64> = (0..4)
        .map(|k| {
            let id = svc
                .submit(matrix(24, 8, 900 + k), opts(), None, true)
                .expect("an idle service admits the keep");
            svc.wait_result(id).expect("a resident-sized keep lands");
            id
        })
        .collect();
    let b = matrix(24, 2, 999);
    match svc.solve(kept[0], &b) {
        Err(JobError::HandleExpired(h)) => assert_eq!(h, kept[0]),
        other => panic!("four keeps in a three-slot budget left the first resident: {other:?}"),
    }
    for &id in &kept[1..] {
        svc.solve(id, &b)
            .expect("the three newest keeps stay resident");
        assert!(svc.release(id));
    }

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let mut solved = 0usize;
                let mut expired = 0usize;
                for i in 0..ITERS {
                    let seed = (w * ITERS + i) as u64 + 1;
                    let a = matrix(24, 8, seed);
                    let oracle = tile_qr_seq(&a, &opts());
                    let id = match svc.submit(a, opts(), None, true) {
                        Ok(id) => id,
                        // Admission pushback under load is a typed,
                        // expected outcome; try the next iteration.
                        Err(pulsar_server::SubmitError::Backpressure { .. }) => continue,
                        Err(e) => panic!("worker {w} iter {i}: untyped admit failure: {e:?}"),
                    };
                    match svc.wait_result(id) {
                        // The keep landed: R is exact, and the handle
                        // serves solves until someone evicts it.
                        Ok(r) => {
                            assert_eq!(
                                r_factor_distance(&r, &oracle.r),
                                0.0,
                                "worker {w} iter {i}: R must stay bit-identical under churn"
                            );
                        }
                        // The store could not hold this factorization —
                        // fine, as long as it said so in type.
                        Err(JobError::StoreFull { .. }) => continue,
                        Err(e) => panic!("worker {w} iter {i}: untyped failure: {e:?}"),
                    }
                    let b = matrix(24, 2, seed + 10_000);
                    match svc.solve(id, &b) {
                        Ok(x) => {
                            solved += 1;
                            let xref = oracle.solve_ls(&b);
                            assert!(
                                x.sub(&xref).norm_fro() <= 1e-9 * xref.norm_fro().max(1.0),
                                "worker {w} iter {i}: solve under churn disagrees with oracle"
                            );
                        }
                        // A sibling's keep evicted us between completion
                        // and solve: typed, never a wrong answer.
                        Err(JobError::HandleExpired(h)) => {
                            assert_eq!(h, id);
                            expired += 1;
                        }
                        Err(e) => panic!("worker {w} iter {i}: untyped solve failure: {e:?}"),
                    }
                    // Release is idempotent bookkeeping: true when the
                    // handle was still resident, false when evicted.
                    svc.release(id);
                }
                (solved, expired)
            })
        })
        .collect();

    let mut solved = 0;
    for h in handles {
        let (s, _) = h.join().expect("churn worker must not panic");
        solved += s;
    }
    assert!(
        solved > 0,
        "the budget admits ~3 residents; some solves must land"
    );

    let stats = svc.drain();
    assert!(
        stats.contains("\"evictions\":") && !stats.contains("\"evictions\":0"),
        "a 3-slot budget under {WORKERS}x{ITERS} keeps must evict: {stats}"
    );
}
