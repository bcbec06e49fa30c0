//! Router integration tests, fully in-process: real TCP between the
//! router front end and worker serve daemons, chaos via the seeded
//! fault injector's `die=N` directive (sever every connection after the
//! Nth job reply — an in-process SIGKILL).

use pulsar_core::{tile_qr_seq, QrOptions, Tree};
use pulsar_linalg::verify::r_factor_distance;
use pulsar_linalg::Matrix;
use pulsar_server::{
    route, serve_with_faults, split_handle, Client, ClientError, ErrCode, RouteConfig, Router,
    ServeConfig, ServeFaultPlan, Service,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

type ServeHandle = std::thread::JoinHandle<std::io::Result<()>>;

fn spawn_worker(faults: Option<ServeFaultPlan>) -> (String, Arc<Service>, ServeHandle) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let svc = Service::start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let svc2 = svc.clone();
    let h = std::thread::spawn(move || serve_with_faults(listener, svc2, faults));
    (addr, svc, h)
}

fn spawn_router(cfg: RouteConfig) -> (String, Arc<Router>, ServeHandle) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let router = Router::new(cfg);
    let r2 = router.clone();
    let h = std::thread::spawn(move || route(listener, r2));
    (addr, router, h)
}

fn problem() -> (Matrix, QrOptions) {
    let mut rng = StdRng::seed_from_u64(42);
    let a = Matrix::random(16, 8, &mut rng);
    (a, QrOptions::new(4, 2, Tree::Greedy))
}

/// A top-level number of the router's one-line stats JSON (the rollup's
/// own counter, never a same-named one inside a per-node section).
fn json_f64(stats: &str, key: &str) -> f64 {
    pulsar_tuner::json::Json::parse(stats)
        .expect("stats are JSON")
        .get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("{key} in {stats}"))
}

fn json_u64(stats: &str, key: &str) -> u64 {
    json_f64(stats, key) as u64
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn fleet_round_trip_join_submit_keep_solve_leave_drain() {
    let (w1, _s1, h1) = spawn_worker(None);
    let (w2, _s2, h2) = spawn_worker(None);
    let (raddr, router, rh) = spawn_router(RouteConfig {
        replicate_under: 0, // single-dispatch: keeps placement assertions simple
        heartbeat_ms: 20,
        ..RouteConfig::default()
    });

    let mut c = Client::connect(&raddr).unwrap();
    let n1 = c.join(&w1, 2, 1 << 20, "scalar").unwrap();
    let n2 = c.join(&w2, 2, 1 << 20, "scalar").unwrap();
    assert_ne!(n1, n2);
    assert_eq!(c.join(&w1, 2, 1 << 20, "scalar").unwrap(), n1, "idempotent");

    let (a, opts) = problem();
    let oracle = tile_qr_seq(&a, &opts);

    // Fire-and-forget jobs shard across the fleet; results match the
    // sequential oracle bit for bit.
    for _ in 0..4 {
        let job = c.submit(&a, &opts, 0).unwrap();
        assert_eq!(split_handle(job).0, 0, "router-local ids carry node 0");
        let r = c.result(job).unwrap();
        assert_eq!(r_factor_distance(&r, &oracle.r), 0.0);
    }

    // Keep jobs mint routed handles; the verbs follow the factor.
    let handle = c.submit_keep(&a, &opts, 0).unwrap();
    let (node, remote) = split_handle(handle);
    assert!(node == n1 || node == n2, "routed handle names its node");
    assert!(remote > 0);
    let r = c.result(handle).unwrap();
    assert_eq!(r_factor_distance(&r, &oracle.r), 0.0);
    let mut rng = StdRng::seed_from_u64(7);
    let b = Matrix::random(16, 2, &mut rng);
    let x = c.solve(handle, &b).unwrap();
    let xref = pulsar_linalg::reference::geqrf(a.clone()).solve_ls(&b);
    assert!(x.sub(&xref).norm_fro() < 1e-9 * xref.norm_fro().max(1.0));
    let qb = c.apply_q(handle, &b, false).unwrap();
    let back = c.apply_q(handle, &qb, true).unwrap();
    assert!(back.sub(&b).norm_fro() < 1e-12 * b.norm_fro());
    assert!(c.release(handle).unwrap());
    assert!(!c.release(handle).unwrap(), "second release is a miss");

    // Drain-then-leave: the node stops attracting placements.
    assert_eq!(router.placeable_nodes(), 2);
    assert!(c.leave(n1).unwrap());
    assert_eq!(router.placeable_nodes(), 1);
    let job = c.submit(&a, &opts, 0).unwrap();
    c.result(job).unwrap();

    // Drain cascades: router stats embed each worker's final stats.
    let stats = c.drain().unwrap();
    assert!(stats.contains("\"router\":true"), "{stats}");
    assert!(stats.contains("\"nodes\":[{"), "{stats}");
    assert!(stats.contains("\"node\":1,"), "{stats}");
    assert!(stats.contains("\"jobs_done\":"), "{stats}");
    assert!(
        stats.contains("\"health\":\"healthy\""),
        "workers stayed healthy: {stats}"
    );
    // Each worker's final stats are embedded once, beside the router's.
    assert_eq!(
        stats.matches("\"batches_walked\":").count(),
        2,
        "one stats section per node: {stats}"
    );
    assert_eq!(json_u64(&stats, "jobs_done"), 6);
    assert_eq!(json_u64(&stats, "node_lost"), 0);
    rh.join().unwrap().unwrap();
    h1.join().unwrap().unwrap();
    h2.join().unwrap().unwrap();
}

#[test]
fn node_death_mid_job_redispatches_to_survivor_bit_identical() {
    // Worker 1 severs every connection right after its first job reply —
    // i.e. immediately after ACKing the submit, with the result still
    // owed. Worker 2 is clean.
    let dying = ServeFaultPlan::parse("die=1").unwrap();
    let (w1, _s1, h1) = spawn_worker(Some(dying));
    let (w2, _s2, h2) = spawn_worker(None);
    let (raddr, router, rh) = spawn_router(RouteConfig {
        replicate_under: 0, // force the re-dispatch path, not the replica path
        heartbeat_ms: 20,
        probe_timeout_ms: 60,
        ..RouteConfig::default()
    });

    let mut c = Client::connect(&raddr).unwrap();
    let n1 = c.join(&w1, 2, 1 << 20, "scalar").unwrap();
    c.join(&w2, 2, 1 << 20, "scalar").unwrap();

    let (a, opts) = problem();
    let oracle = tile_qr_seq(&a, &opts);

    // Both fresh nodes are tied; ties break toward the lower id, so the
    // first submit lands on the dying node.
    let job = c.submit(&a, &opts, 0).unwrap();
    let r = c.result(job).unwrap();
    assert_eq!(
        r_factor_distance(&r, &oracle.r),
        0.0,
        "re-dispatched result is bit-identical"
    );

    let stats = router.stats_json_standalone();
    assert_eq!(json_u64(&stats, "jobs_done"), 1, "exactly-once: {stats}");
    assert_eq!(json_u64(&stats, "redispatched"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "node_lost"), 0, "{stats}");

    // The prober keeps missing the corpse until hysteresis declares it
    // dead; placement has already moved on.
    wait_for(
        || {
            router.stats_json_standalone().contains(&format!(
                "\"addr\":\"{w1}\",\"health\":\"dead\",\"node\":{n1},"
            ))
        },
        "prober declaring the killed node dead",
    );
    assert_eq!(router.placeable_nodes(), 1);

    // More traffic flows, all on the survivor.
    for _ in 0..3 {
        let job = c.submit(&a, &opts, 0).unwrap();
        let r = c.result(job).unwrap();
        assert_eq!(r_factor_distance(&r, &oracle.r), 0.0);
    }

    let stats = c.drain().unwrap();
    assert_eq!(json_u64(&stats, "jobs_done"), 4);
    rh.join().unwrap().unwrap();
    let died = h1.join().unwrap();
    assert!(died.is_err(), "die directive is a crash, not a drain");
    h2.join().unwrap().unwrap();
}

#[test]
fn keep_job_on_dead_node_fails_typed_node_lost() {
    // A single worker that dies right after ACKing the keep submit: the
    // factor is pinned to the corpse, so the job and every later handle
    // verb must fail with the typed NodeLost — never hang, never lie.
    let dying = ServeFaultPlan::parse("die=1").unwrap();
    let (w1, _s1, h1) = spawn_worker(Some(dying));
    let (raddr, router, rh) = spawn_router(RouteConfig {
        heartbeat_ms: 20,
        probe_timeout_ms: 60,
        ..RouteConfig::default()
    });

    let mut c = Client::connect(&raddr).unwrap();
    c.join(&w1, 2, 1 << 20, "scalar").unwrap();
    let (a, opts) = problem();
    let handle = c.submit_keep(&a, &opts, 0).unwrap();
    assert_ne!(split_handle(handle).0, 0);

    match c.result(handle) {
        Err(ClientError::Job {
            code: ErrCode::NodeLost,
            ..
        }) => {}
        other => panic!("expected NodeLost for the orphaned keep job, got {other:?}"),
    }
    let mut rng = StdRng::seed_from_u64(9);
    let b = Matrix::random(16, 1, &mut rng);
    match c.solve(handle, &b) {
        Err(ClientError::Job {
            code: ErrCode::NodeLost,
            ..
        }) => {}
        other => panic!("expected NodeLost solving against a dead node, got {other:?}"),
    }

    let stats = router.stats_json_standalone();
    assert_eq!(json_u64(&stats, "node_lost"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "jobs_done"), 0, "{stats}");

    c.drain().unwrap();
    rh.join().unwrap().unwrap();
    assert!(h1.join().unwrap().is_err());
}

#[test]
fn small_jobs_replicate_and_outcomes_stay_exactly_once() {
    let (w1, _s1, h1) = spawn_worker(None);
    let (w2, _s2, h2) = spawn_worker(None);
    let (raddr, _router, rh) = spawn_router(RouteConfig {
        replicate_under: usize::MAX, // everything fire-and-forget replicates
        heartbeat_ms: 20,
        ..RouteConfig::default()
    });

    let mut c = Client::connect(&raddr).unwrap();
    c.join(&w1, 2, 1 << 20, "scalar").unwrap();
    c.join(&w2, 2, 1 << 20, "scalar").unwrap();

    let (a, opts) = problem();
    let oracle = tile_qr_seq(&a, &opts);
    for _ in 0..3 {
        let job = c.submit(&a, &opts, 0).unwrap();
        let r = c.result(job).unwrap();
        assert_eq!(r_factor_distance(&r, &oracle.r), 0.0);
    }

    let stats = c.drain().unwrap();
    assert_eq!(json_u64(&stats, "replicated"), 3, "{stats}");
    assert_eq!(
        json_u64(&stats, "jobs_done"),
        3,
        "first answer wins, duplicates dropped: {stats}"
    );
    rh.join().unwrap().unwrap();
    h1.join().unwrap().unwrap();
    h2.join().unwrap().unwrap();
}

#[test]
fn latencies_measure_router_admission_to_outcome_and_ledger_bounds_inflight() {
    // The worker's scheduler sleeps 60 ms before every batch (injected
    // per-node delay). If the router's percentiles measured per-node
    // service time — or worse, only its own proxy overhead — p50 would
    // sit near zero; measured from router admission it must carry the
    // full delay.
    let (w1, s1, h1) = spawn_worker(None);
    s1.inject_sched_delay(Duration::from_millis(60));
    let (raddr, _router, rh) = spawn_router(RouteConfig {
        ledger_cap: 1,
        heartbeat_ms: 20,
        ..RouteConfig::default()
    });

    let mut c = Client::connect(&raddr).unwrap();
    c.join(&w1, 2, 1 << 20, "scalar").unwrap();
    let (a, opts) = problem();

    // The bounded ledger refuses the second admission while the first
    // is still in flight: typed backpressure, not an unbounded queue.
    let job = c.submit(&a, &opts, 0).unwrap();
    let mut c2 = Client::connect(&raddr).unwrap();
    match c2.submit(&a, &opts, 0) {
        Err(ClientError::Backpressure {
            draining: false, ..
        }) => {}
        other => panic!("expected router backpressure, got {other:?}"),
    }
    c.result(job).unwrap();

    let stats = c.drain().unwrap();
    let p50 = json_f64(&stats, "p50_ms");
    assert!(
        p50 >= 55.0,
        "router p50 must include the injected per-node delay, got {p50} ms: {stats}"
    );
    assert_eq!(json_u64(&stats, "jobs_rejected"), 1, "{stats}");
    rh.join().unwrap().unwrap();
    h1.join().unwrap().unwrap();
}
