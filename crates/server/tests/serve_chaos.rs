//! Chaos suite for the serve path: worker panics mid-batch, process
//! crashes with a durable store, torn and bit-flipped WAL tails, dropped
//! ACKs against idempotent retries, and corrupted reply frames. The
//! invariant under every fault: an accepted job ends in a correct result
//! or a typed error — never a hang, a double-charge, or a silently wrong
//! answer.

use pulsar_core::{tile_qr_seq, QrOptions, Tree};
use pulsar_linalg::verify::r_factor_distance;
use pulsar_linalg::Matrix;
use pulsar_server::{
    Client, ClientError, FactorHandle, FactorStore, JobError, ServeConfig, ServeFaultPlan, Service,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A unique scratch directory per test; best-effort cleanup on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SALT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pulsar-chaos-{tag}-{}-{}",
            std::process::id(),
            SALT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::random(rows, cols, &mut StdRng::seed_from_u64(seed))
}

fn opts() -> QrOptions {
    QrOptions::new(4, 2, Tree::Greedy)
}

/// A worker panic mid-batch fails only the job whose VDP panicked:
/// co-batched jobs are re-dispatched and finish bit-identical to the
/// sequential oracle, the pool quarantines and respawns the tripped
/// worker, and every counter tells the story.
#[test]
fn panic_mid_batch_fails_only_the_offending_job() {
    let svc = Service::start(ServeConfig {
        threads: 2,
        queue_cap: 16,
        batch_max: 4,
        ..ServeConfig::default()
    });

    // A meaty decoy keeps the scheduler busy while the victims queue up
    // behind it, so they land in one batch together.
    let decoy = matrix(128, 32, 1);
    let d = svc.submit(decoy.clone(), opts(), None, false).unwrap();
    for _ in 0..500 {
        match svc.status(d) {
            Some((pulsar_server::JobState::Queued, _)) => {
                std::thread::sleep(Duration::from_millis(1))
            }
            _ => break,
        }
    }

    let a1 = matrix(32, 16, 2);
    let a2 = matrix(32, 16, 3);
    let a3 = matrix(32, 16, 4);
    let j1 = svc.submit(a1.clone(), opts(), None, false).unwrap();
    let j2 = svc.submit(a2.clone(), opts(), None, false).unwrap();
    let j3 = svc.submit(a3.clone(), opts(), None, false).unwrap();
    svc.inject_panic_job(j2);

    match svc.wait_result(j2) {
        Err(JobError::Panicked(msg)) => {
            assert!(msg.contains("chaos"), "panic payload survives: {msg}")
        }
        other => panic!("poisoned job must fail typed, got {other:?}"),
    }
    // The innocents were re-dispatched and must be bit-identical to the
    // oracle — a re-run on a respawned worker changes nothing numerically.
    let r1 = svc.wait_result(j1).expect("co-batched job 1 recovers");
    let r3 = svc.wait_result(j3).expect("co-batched job 3 recovers");
    assert_eq!(r_factor_distance(&r1, &tile_qr_seq(&a1, &opts()).r), 0.0);
    assert_eq!(r_factor_distance(&r3, &tile_qr_seq(&a3, &opts()).r), 0.0);
    svc.wait_result(d).expect("decoy unaffected");

    assert!(
        svc.pool_respawns() >= 1,
        "tripped worker must be respawned, respawns = {}",
        svc.pool_respawns()
    );
    let stats = svc.drain();
    assert!(stats.contains("\"jobs_panicked\":1"), "stats: {stats}");
    assert!(stats.contains("\"jobs_redispatched\":2"), "stats: {stats}");
    assert!(!stats.contains("\"pool_respawns\":0"), "stats: {stats}");
    // The three equal victims fill both workers, so the poisoned batch and
    // its re-dispatch were each walked; the lone decoy used the array.
    assert!(stats.contains("\"batches_walked\":2"), "stats: {stats}");
}

/// A job whose batch is poisoned repeatedly exhausts its retry budget and
/// fails typed instead of looping forever.
#[test]
fn retry_budget_bounds_redispatch() {
    let svc = Service::start(ServeConfig {
        threads: 1,
        retry_budget: 0,
        ..ServeConfig::default()
    });
    // With a zero budget, an innocent co-batched job fails typed on the
    // first poisoned batch instead of requeuing.
    let decoy = matrix(128, 32, 1);
    let d = svc.submit(decoy, opts(), None, false).unwrap();
    for _ in 0..500 {
        match svc.status(d) {
            Some((pulsar_server::JobState::Queued, _)) => {
                std::thread::sleep(Duration::from_millis(1))
            }
            _ => break,
        }
    }
    let j1 = svc.submit(matrix(32, 16, 2), opts(), None, false).unwrap();
    let j2 = svc.submit(matrix(32, 16, 3), opts(), None, false).unwrap();
    svc.inject_panic_job(j1);
    assert!(matches!(svc.wait_result(j1), Err(JobError::Panicked(_))));
    match svc.wait_result(j2) {
        Err(JobError::Failed(msg)) => {
            assert!(msg.contains("retry budget"), "typed exhaustion: {msg}")
        }
        other => panic!("budget-exhausted innocent must fail typed, got {other:?}"),
    }
    svc.wait_result(d).unwrap();
    svc.drain();
}

/// Crash (no drain) and restart with the same `--store-path`: every kept
/// handle is resident again and a pre-crash solve answer is reproduced
/// bit-identically.
#[test]
fn crash_and_restart_recovers_kept_handles_bit_identically() {
    let dir = TempDir::new("recover");
    let cfg = || ServeConfig {
        threads: 2,
        store_path: Some(dir.path().clone()),
        ..ServeConfig::default()
    };

    let a1 = matrix(24, 8, 10);
    let a2 = matrix(24, 8, 11);
    let b = matrix(24, 2, 12);

    let svc = Service::try_start(cfg()).unwrap();
    let h1 = svc.submit(a1.clone(), opts(), None, true).unwrap();
    let h2 = svc.submit(a2, opts(), None, true).unwrap();
    svc.wait_result(h1).unwrap();
    svc.wait_result(h2).unwrap();
    let x_before = svc.solve(h1, &b).unwrap();
    // Crash: the service is abandoned without drain. Every keep was
    // WAL-logged and fsynced at insert time, so the disk already has it.
    drop(svc);

    let svc = Service::try_start(cfg()).unwrap();
    let x_after = svc.solve(h1, &b).expect("pre-crash handle is resident");
    assert_eq!(
        x_after.sub(&x_before).norm_fro(),
        0.0,
        "recovered solve must be bit-identical"
    );
    assert!(svc.solve(h2, &b).is_ok(), "second handle recovered too");

    // Fresh ids never collide with recovered handles.
    let j = svc.submit(matrix(24, 8, 13), opts(), None, false).unwrap();
    assert!(j > h2, "next_id resumes past the recovered maximum");
    svc.wait_result(j).unwrap();
    svc.drain();
}

/// A torn WAL tail (half-written record from a crash mid-append) is
/// truncated on recovery: complete records survive, the tear is never
/// parsed into factors.
#[test]
fn torn_wal_tail_is_truncated_never_trusted() {
    let dir = TempDir::new("torn");
    let f1 = Arc::new(tile_qr_seq(&matrix(24, 8, 20), &opts()));
    let f2 = Arc::new(tile_qr_seq(&matrix(24, 8, 21), &opts()));

    let (mut store, _) = FactorStore::recover(64 << 20, dir.path()).unwrap();
    store.insert(FactorHandle::from_raw(1), f1.clone()).unwrap();
    store.insert(FactorHandle::from_raw(2), f2).unwrap();
    drop(store);

    // Tear the tail: a record header claiming a fat body, with almost
    // none of it present.
    let wal = dir.path().join("factors.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    let intact = bytes.len();
    bytes.push(1u8); // kind = insert
    bytes.extend_from_slice(&3u64.to_le_bytes()); // handle
    bytes.extend_from_slice(&10_000u64.to_le_bytes()); // body_len
    bytes.extend_from_slice(&[0xAB; 9]); // crc + 5 body bytes, then: crash
    std::fs::write(&wal, &bytes).unwrap();

    let (mut store, max_handle) = FactorStore::recover(64 << 20, dir.path()).unwrap();
    assert_eq!(max_handle, 2, "torn record contributes nothing");
    assert_eq!(store.len(), 2);
    let got = store.get(FactorHandle::from_raw(1)).unwrap();
    assert_eq!(got.r.sub(&f1.r).norm_fro(), 0.0, "recovered bit-identical");
    assert!(store.get(FactorHandle::from_raw(3)).is_err());
    drop(store);
    // Recovery rewrote the log without the tear.
    assert!(
        std::fs::metadata(&wal).unwrap().len() <= intact as u64,
        "torn tail must not survive recovery"
    );
}

/// A flipped bit inside a WAL record body fails the record checksum; the
/// log is cut at the damage. Entries before the flip survive, the damaged
/// record is dropped — corrupt factors are never served.
#[test]
fn bit_flipped_wal_record_is_detected_and_truncated() {
    let dir = TempDir::new("bitflip");
    let f1 = Arc::new(tile_qr_seq(&matrix(24, 8, 30), &opts()));
    let f2 = Arc::new(tile_qr_seq(&matrix(24, 8, 31), &opts()));

    let (mut store, _) = FactorStore::recover(64 << 20, dir.path()).unwrap();
    store.insert(FactorHandle::from_raw(1), f1.clone()).unwrap();
    store.insert(FactorHandle::from_raw(2), f2).unwrap();
    drop(store);

    let wal = dir.path().join("factors.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    // Record layout: [kind 1][handle 8][body_len 8][crc 4][body]. The
    // first record starts at the 8-byte file header; flip a byte deep in
    // the SECOND record's body.
    let len1 = u64::from_le_bytes(bytes[17..25].try_into().unwrap()) as usize;
    let rec2_body = 8 + 21 + len1 + 21;
    bytes[rec2_body + 40] ^= 0x20;
    std::fs::write(&wal, &bytes).unwrap();

    let (mut store, max_handle) = FactorStore::recover(64 << 20, dir.path()).unwrap();
    assert_eq!(max_handle, 1, "damaged record is not replayed");
    assert_eq!(store.len(), 1);
    let got = store.get(FactorHandle::from_raw(1)).unwrap();
    assert_eq!(got.r.sub(&f1.r).norm_fro(), 0.0);
    assert!(
        store.get(FactorHandle::from_raw(2)).is_err(),
        "the damaged entry is gone, not wrong"
    );
}

/// Two submits with the same idempotency key yield one job, one
/// factorization, and one store charge — the shape of a client retrying
/// after a dropped ACK.
#[test]
fn duplicate_submit_with_idem_key_factors_once() {
    let svc = Service::start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let a = matrix(24, 8, 40);
    let key = 0x5eed_cafe;
    let id1 = svc.submit_idem(a.clone(), opts(), None, true, key).unwrap();
    // Retry before completion: same job.
    let id2 = svc.submit_idem(a.clone(), opts(), None, true, key).unwrap();
    assert_eq!(id1, id2);
    svc.wait_result(id1).unwrap();
    // Retry after completion: still the same job.
    let id3 = svc.submit_idem(a.clone(), opts(), None, true, key).unwrap();
    assert_eq!(id1, id3);
    // A different key is a different job.
    let id4 = svc.submit_idem(a, opts(), None, true, 0x0dd).unwrap();
    assert_ne!(id1, id4);
    svc.wait_result(id4).unwrap();

    assert!(svc.release(id1), "the deduped job kept exactly one handle");
    let stats = svc.drain();
    assert!(stats.contains("\"jobs_done\":2"), "stats: {stats}");
    assert!(stats.contains("\"inserts\":2"), "stats: {stats}");
}

/// Dropped ACKs on the wire: with a fault plan eating half the replies,
/// an idempotent retrying submit still factors exactly once, and the
/// result is exact.
#[test]
fn dropped_acks_with_retrying_submit_factor_once() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let svc = Service::start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let plan = ServeFaultPlan {
        seed: 11,
        drop: 0.5,
        ..ServeFaultPlan::none()
    };
    let server = {
        let svc = svc.clone();
        std::thread::spawn(move || pulsar_server::serve_with_faults(listener, svc, Some(plan)))
    };

    let a = matrix(24, 8, 50);
    let mut c = Client::connect_timeout(&addr, Duration::from_millis(300)).unwrap();
    let job = c
        .submit_retrying(&a, &opts(), 0, true, Duration::from_secs(60))
        .expect("retrying submit lands despite dropped ACKs");

    // Result replies can be eaten too; the long-poll is idempotent, so
    // the retrying variant reconnects and asks again until one lands.
    let r = c
        .result_retrying(job, Duration::from_secs(60))
        .expect("retrying result lands despite dropped replies");
    assert_eq!(r_factor_distance(&r, &tile_qr_seq(&a, &opts()).r), 0.0);

    // Drain: the request always arrives even when its reply is eaten.
    let _ = c.drain();
    server.join().unwrap().unwrap();
    let stats = svc.stats_json();
    assert!(
        stats.contains("\"jobs_done\":1"),
        "every retry deduped into ONE factorization: {stats}"
    );
    assert!(stats.contains("\"inserts\":1"), "one store charge: {stats}");
}

/// Every reply corrupted on the wire: the client must see typed decode
/// errors (or deadline expiry when the length field was hit) — never an
/// `Ok` carrying silently wrong bytes.
#[test]
fn corrupted_reply_frames_yield_typed_errors_never_wrong_answers() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let svc = Service::start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let plan = ServeFaultPlan {
        seed: 7,
        corrupt: 1.0,
        ..ServeFaultPlan::none()
    };
    let server = {
        let svc = svc.clone();
        std::thread::spawn(move || pulsar_server::serve_with_faults(listener, svc, Some(plan)))
    };

    let a = matrix(16, 8, 60);
    for attempt in 0..4 {
        let mut c = Client::connect_timeout(&addr, Duration::from_millis(500)).unwrap();
        match c.submit(&a, &opts(), 0) {
            Ok(_) => panic!("attempt {attempt}: a corrupted frame decoded as success"),
            Err(
                ClientError::Proto(_)
                | ClientError::Timeout
                | ClientError::Io(_)
                | ClientError::Unexpected(_),
            ) => {}
            Err(e) => panic!("attempt {attempt}: unexpected error class: {e}"),
        }
    }

    let mut c = Client::connect_timeout(&addr, Duration::from_millis(500)).unwrap();
    let _ = c.drain(); // reply is corrupt, but the drain itself happens
    server.join().unwrap().unwrap();
}

/// Drain-vs-in-flight regression: a result request racing a drain is
/// served before the connections are torn down — admitted jobs always
/// deliver their outcome.
#[test]
fn drain_delivers_results_for_admitted_jobs() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let svc = Service::start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let server = {
        let svc = svc.clone();
        std::thread::spawn(move || pulsar_server::serve(listener, svc))
    };

    let a = matrix(96, 32, 70);
    let mut c1 = Client::connect(&addr).unwrap();
    let job = c1.submit(&a, &opts(), 0).unwrap();

    // Drain from a second connection while the first has not collected
    // its result yet.
    let drainer = {
        let addr = addr.clone();
        std::thread::spawn(move || Client::connect(&addr).unwrap().drain())
    };
    // Give the drain a head start so the grace window is what saves us.
    std::thread::sleep(Duration::from_millis(50));
    let r = c1
        .result(job)
        .expect("admitted job delivers its result across a drain");
    assert_eq!(r_factor_distance(&r, &tile_qr_seq(&a, &opts()).r), 0.0);
    drainer.join().unwrap().expect("drain succeeds");
    server.join().unwrap().unwrap();
}
