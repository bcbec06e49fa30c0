//! End-to-end tests of the QR service: a real `pulsar-qr serve` daemon
//! process, concurrent clients submitting over real TCP sockets, results
//! verified bit-identical against the sequential oracle, typed
//! backpressure on over-admission, and a clean drain.

use pulsar_core::{tile_qr_seq, QrOptions, Tree};
use pulsar_linalg::verify::r_factor_distance;
use pulsar_linalg::Matrix;
use pulsar_server::{Client, ClientError, JobState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Spawn a serve daemon and scrape its `SERVE <addr>` rendezvous line.
/// The rest of its stdout is drained in the background (returned at join
/// time through the channel's tail) so the pipe never fills.
fn spawn_daemon(extra: &[&str]) -> (Child, String, mpsc::Receiver<String>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pulsar-qr"));
    cmd.arg("serve")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawning pulsar-qr serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let (addr_tx, addr_rx) = mpsc::channel();
    let (tail_tx, tail_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        if let Some(Ok(first)) = lines.next() {
            let _ = addr_tx.send(first);
        }
        let tail: Vec<String> = lines.map_while(Result::ok).collect();
        let _ = tail_tx.send(tail.join("\n"));
    });
    let first = addr_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("daemon never announced its address");
    let addr = first
        .strip_prefix("SERVE ")
        .unwrap_or_else(|| panic!("unexpected rendezvous line {first:?}"))
        .to_string();
    (child, addr, tail_rx)
}

fn wait_success(mut child: Child) {
    let status = child.wait().expect("waiting for daemon");
    assert!(status.success(), "daemon exited with {status}");
}

fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::random(m, n, &mut rng)
}

#[test]
fn eight_concurrent_clients_get_bit_identical_factors() {
    let (child, addr, tail) = spawn_daemon(&[
        "--threads",
        "2",
        "--queue-cap",
        "64",
        "--batch-max",
        "4",
        "--stats",
        "true",
    ]);

    // 8 clients with distinct shapes and seeds, all in flight at once;
    // batching may pack any subset of them into one VSA launch.
    let shapes = [
        (16usize, 8usize, 4usize),
        (24, 8, 4),
        (32, 16, 8),
        (16, 16, 4),
        (40, 8, 8),
        (24, 12, 4),
        (32, 8, 4),
        (48, 16, 8),
    ];
    let workers: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, n, nb))| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let a = random_matrix(m, n, 7000 + i as u64);
                let opts = QrOptions::new(nb, (nb / 4).max(1), Tree::Greedy);
                let mut client = Client::connect(&addr).expect("connect");
                let job = client.submit(&a, &opts, 0).expect("submit");
                let r = client.result(job).expect("result");
                let oracle = tile_qr_seq(&a, &opts);
                assert_eq!(
                    r_factor_distance(&r, &oracle.r),
                    0.0,
                    "client {i}: served R must be bit-identical to the oracle"
                );
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let stats = Client::connect(&addr).unwrap().drain().expect("drain");
    assert!(stats.contains("\"jobs_done\":8"), "stats: {stats}");
    for key in [
        "p50_ms",
        "p90_ms",
        "p99_ms",
        "jobs_per_s",
        "pool_utilization",
    ] {
        assert!(
            stats.contains(&format!("\"{key}\":")),
            "missing {key}: {stats}"
        );
    }
    wait_success(child);
    let report = tail.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(report.contains("STATS-JSON"), "daemon report: {report}");
    assert!(report.contains("drained"), "daemon report: {report}");
}

#[test]
fn over_admission_gets_typed_backpressure_not_a_stall() {
    let (child, addr, _tail) =
        spawn_daemon(&["--threads", "1", "--queue-cap", "1", "--batch-max", "1"]);
    let opts = QrOptions::new(8, 2, Tree::Greedy);

    // A fat head-of-line job keeps the single worker busy...
    let mut head_client = Client::connect(&addr).unwrap();
    let big = random_matrix(256, 64, 1);
    let head = head_client.submit(&big, &opts, 0).unwrap();

    // ...so rapid-fire submits against the capacity-1 queue must hit the
    // typed rejection (with a usable retry hint), never block or error out.
    let mut rejections = 0;
    let mut accepted = Vec::new();
    let mut client = Client::connect(&addr).unwrap();
    for seed in 0..32 {
        match client.submit(&random_matrix(16, 8, 100 + seed), &opts, 0) {
            Ok(job) => accepted.push(job),
            Err(ClientError::Backpressure {
                draining, queued, ..
            }) => {
                assert!(!draining, "daemon is not draining");
                assert!(queued >= 1, "rejection reports queue depth");
                rejections += 1;
            }
            Err(e) => panic!("unexpected submit failure: {e}"),
        }
    }
    assert!(
        rejections > 0,
        "expected at least one backpressure rejection"
    );

    // Everything admitted still completes.
    head_client.result(head).expect("head job");
    for job in accepted {
        client.result(job).expect("accepted job completes");
    }
    let stats = client.drain().expect("drain");
    assert!(stats.contains("\"jobs_rejected\""), "stats: {stats}");
    wait_success(child);
}

#[test]
fn cancel_status_and_deadline_over_the_wire() {
    // The scheduler stalls 50 ms after popping each batch, so the jobs
    // behind the head stay queued however fast the kernels run.
    let (child, addr, _tail) = spawn_daemon(&[
        "--threads",
        "1",
        "--queue-cap",
        "16",
        "--batch-max",
        "1",
        "--fault-plan",
        "sched-delay-ms=50",
    ]);
    let opts = QrOptions::new(8, 2, Tree::Greedy);
    let mut client = Client::connect(&addr).unwrap();

    // Occupy the single worker so the jobs behind stay queued.
    let head = client.submit(&random_matrix(256, 64, 2), &opts, 0).unwrap();
    let doomed = client.submit(&random_matrix(16, 8, 3), &opts, 0).unwrap();
    let expired = client.submit(&random_matrix(16, 8, 4), &opts, 1).unwrap();

    let (state, _pos) = client.status(doomed).unwrap();
    if client.cancel(doomed).unwrap() {
        // Won the race with the scheduler: the job was still queued.
        assert!(
            matches!(state, JobState::Queued),
            "cancellable implies it was queued, was {state}"
        );
        match client.result(doomed) {
            Err(ClientError::Job { .. }) => {}
            other => panic!("cancelled job must fail its result call, got {other:?}"),
        }
        let (state, _) = client.status(doomed).unwrap();
        assert!(matches!(state, JobState::Cancelled), "got {state}");
    }

    client.result(head).expect("head completes");
    // The deadline is checked when the job is popped, which is at least
    // the head's 50 ms stall after it was submitted: one worker, FIFO, so
    // the 1 ms deadline job expired in-queue.
    match client.result(expired) {
        Err(ClientError::Job { msg, .. }) => {
            assert!(msg.contains("deadline"), "wrong failure: {msg}")
        }
        other => panic!("expected deadline expiry, got {other:?}"),
    }

    match client.status(424242) {
        Err(ClientError::Job { .. }) => {}
        other => panic!("unknown job must be a typed error, got {other:?}"),
    }
    client.drain().expect("drain");
    wait_success(child);
}

/// Run the CLI binary, returning (status, stdout, stderr).
fn run_cli(args: &[&str]) -> (std::process::ExitStatus, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pulsar-qr"))
        .args(args)
        .output()
        .expect("running pulsar-qr");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Scrape the `HANDLE <id>` rendezvous line a `submit --keep true` prints.
fn scrape_handle(out: &str) -> String {
    out.lines()
        .find_map(|l| l.strip_prefix("HANDLE "))
        .unwrap_or_else(|| panic!("no HANDLE line in {out:?}"))
        .to_string()
}

#[test]
fn keep_solve_apply_q_and_update_verbs_self_verify() {
    let (child, addr, _tail) = spawn_daemon(&["--threads", "2", "--store-mb", "64"]);
    let seed_args = [
        "--addr", &addr, "--rows", "32", "--cols", "8", "--seed", "11",
    ];

    let (status, out, err) = run_cli(
        &[
            &["submit"],
            &seed_args[..],
            &["--nb", "4", "--keep", "true"],
        ]
        .concat(),
    );
    assert!(status.success(), "keep submit failed: {out}\n{err}");
    assert!(out.contains("verification OK"), "{out}");
    let handle = scrape_handle(&out);

    // Each verb re-derives its oracle from the shared seed and verifies
    // in-process; "verification OK" is the whole assertion.
    let (status, out, err) = run_cli(
        &[
            &["submit", "--verb", "solve", "--handle", &handle],
            &seed_args[..],
            &["--rhs", "2"],
        ]
        .concat(),
    );
    assert!(status.success(), "solve failed: {out}\n{err}");
    assert!(out.contains("verification OK"), "{out}");

    let (status, out, err) = run_cli(
        &[
            &["submit", "--verb", "apply-q", "--handle", &handle],
            &seed_args[..],
            &["--rhs", "3"],
        ]
        .concat(),
    );
    assert!(status.success(), "apply-q failed: {out}\n{err}");
    assert!(out.contains("verification OK"), "{out}");

    let (status, out, err) = run_cli(
        &[
            &["submit", "--verb", "update", "--handle", &handle],
            &seed_args[..],
            &["--append-rows", "8"],
        ]
        .concat(),
    );
    assert!(status.success(), "update failed: {out}\n{err}");
    assert!(out.contains("-> 40 total"), "{out}");
    assert!(out.contains("verification OK"), "{out}");

    let (status, out, _) = run_cli(&["drain", "--addr", &addr]);
    assert!(status.success());
    // update's verify issues a second solve against the updated factors.
    assert!(out.contains("\"solves\":2"), "{out}");
    assert!(out.contains("\"updates\":1"), "{out}");
    assert!(out.contains("\"store\":{"), "{out}");
    wait_success(child);
}

#[test]
fn eviction_under_a_tiny_store_is_a_typed_expiry_with_exit_code_9() {
    // 2 MiB holds one 1024x64 factorization (~1.3 MiB of V/T/R) but not
    // two: the second keep must evict the first, and solving against the
    // evicted handle fails with the dedicated handle-expired exit code.
    let (child, addr, _tail) = spawn_daemon(&["--threads", "2", "--store-mb", "2"]);
    let keep = |seed: &str| {
        let (status, out, err) = run_cli(&[
            "submit", "--addr", &addr, "--rows", "1024", "--cols", "64", "--nb", "16", "--seed",
            seed, "--keep", "true",
        ]);
        assert!(status.success(), "keep submit failed: {out}\n{err}");
        scrape_handle(&out)
    };
    let first = keep("21");
    let second = keep("22");

    let solve = |handle: &str, seed: &str| {
        run_cli(&[
            "submit", "--verb", "solve", "--handle", handle, "--addr", &addr, "--rows", "1024",
            "--cols", "64", "--seed", seed,
        ])
    };
    let (status, out, err) = solve(&first, "21");
    assert!(!status.success(), "evicted handle must fail: {out}");
    assert_eq!(status.code(), Some(9), "handle expiry exit code: {err}");
    assert!(err.contains("expired") || err.contains("evicted"), "{err}");

    // The survivor still solves.
    let (status, out, err) = solve(&second, "22");
    assert!(status.success(), "resident handle failed: {out}\n{err}");
    assert!(out.contains("verification OK"), "{out}");

    let (status, out, _) = run_cli(&["drain", "--addr", &addr]);
    assert!(status.success());
    assert!(out.contains("\"evictions\":1"), "{out}");
    wait_success(child);
}

#[test]
fn submit_and_drain_subcommands_drive_a_daemon() {
    let (child, addr, _tail) = spawn_daemon(&["--threads", "2"]);
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_pulsar-qr"))
            .args(args)
            .output()
            .expect("running pulsar-qr");
        (
            out.status,
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let (status, out, err) = run(&[
        "submit", "--addr", &addr, "--rows", "32", "--cols", "8", "--nb", "4",
    ]);
    assert!(status.success(), "submit failed: {out}\n{err}");
    assert!(out.contains("verification OK"), "{out}");

    let (status, out, err) = run(&["drain", "--addr", &addr]);
    assert!(status.success(), "drain failed: {out}\n{err}");
    assert!(out.contains("STATS-JSON"), "{out}");
    assert!(out.contains("\"jobs_done\":1"), "{out}");
    wait_success(child);
}
