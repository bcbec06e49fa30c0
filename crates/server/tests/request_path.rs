//! The one request path under `serve` and `route`: the front end over a
//! fake node (no pool, no sockets behind it), worker and router answering
//! bad submits identically, each request answered in the frame version it
//! came in, oversized messages refused on the client, the idempotency
//! bound counted on both, and the full key set of every stats surface.

use pulsar_core::{QrOptions, Tree};
use pulsar_fabric::fnv1a;
use pulsar_fabric::frame::{encode_header, FrameHeader, FrameKind, HEADER_LEN};
use pulsar_linalg::Matrix;
use pulsar_server::proto::{read_msg, write_msg, Version};
use pulsar_server::router::membership::Caps;
use pulsar_server::{
    encode_msg, route, serve, serve_node, Client, ClientError, ErrCode, JobState, Msg, Node,
    NodeResult, ProtoError, RouteConfig, Router, ServeConfig, Service, SubmitError,
    MAX_SERVICE_BODY,
};
use pulsar_tuner::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Answers every verb from constants.
struct FakeNode;

impl Node for FakeNode {
    fn submit(
        self: &Arc<Self>,
        _: Matrix,
        _: QrOptions,
        _: u32,
        _: bool,
        _: u64,
    ) -> Result<u64, SubmitError> {
        Ok(7)
    }
    fn status(&self, _: u64) -> Option<(JobState, u32)> {
        None
    }
    fn wait_result(&self, job: u64) -> NodeResult<Matrix> {
        Err((ErrCode::UnknownJob, format!("unknown job {job}")))
    }
    fn cancel(&self, _: u64) -> bool {
        false
    }
    fn solve(&self, _: u64, b: &Matrix) -> NodeResult<Matrix> {
        Ok(b.clone())
    }
    fn apply_q(&self, _: u64, b: &Matrix, _: bool) -> NodeResult<Matrix> {
        Ok(b.clone())
    }
    fn update(&self, _: u64, e: &Matrix) -> NodeResult<u64> {
        Ok(e.nrows() as u64)
    }
    fn release(&self, _: u64) -> NodeResult<bool> {
        Ok(false)
    }
    fn load(&self) -> (u32, u32) {
        (3, 1)
    }
    fn drain(&self) -> String {
        "{\"fake\":true}".into()
    }
    fn linger(&self) {}
}

type Front = std::thread::JoinHandle<std::io::Result<()>>;

fn spawn(run: impl FnOnce(TcpListener) -> std::io::Result<()> + Send + 'static) -> (String, Front) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || run(listener)))
}

fn spawn_fake() -> (String, Front) {
    spawn(|l| serve_node(l, Arc::new(FakeNode), None))
}

fn spawn_worker(cfg: ServeConfig) -> (String, Arc<Service>, Front) {
    let svc = Service::start(cfg);
    let s2 = svc.clone();
    let (addr, h) = spawn(move |l| serve(l, s2));
    (addr, svc, h)
}

fn spawn_router(cfg: RouteConfig) -> (String, Arc<Router>, Front) {
    let router = Router::new(cfg);
    let r2 = router.clone();
    let (addr, h) = spawn(move |l| route(l, r2));
    (addr, router, h)
}

fn caps() -> Caps {
    Caps {
        threads: 2,
        store_bytes: 1 << 20,
        gemm_tier: "scalar".into(),
    }
}

fn call(stream: &mut TcpStream, msg: &Msg) -> Msg {
    write_msg(stream, msg, 1).unwrap();
    read_msg(stream).unwrap().0
}

#[test]
fn garbage_frame_gets_one_typed_invalid_then_eof() {
    let (addr, front) = spawn_fake();
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(&[0x5a; 64]).unwrap();
    match read_msg(&mut s).unwrap().0 {
        Msg::Error {
            code: ErrCode::Invalid,
            ..
        } => {}
        other => panic!("expected a typed Invalid, got {other:?}"),
    }
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "exactly one reply, then the hang-up");

    Client::connect(&addr).unwrap().drain().unwrap();
    front.join().unwrap().unwrap();
}

/// A v1 frame of `msg` as an older client writes it: the payload under a
/// `Data` header, checked with FNV-1a mixed with the verb and request id.
fn encode_v1(msg: &Msg, seq: u64) -> Vec<u8> {
    let payload = &encode_msg(msg, seq)[HEADER_LEN + 4..];
    let verb = msg.verb();
    let crc = fnv1a(payload) ^ verb.wrapping_mul(0x9e37_79b9) ^ (seq as u32) ^ ((seq >> 32) as u32);
    let header = FrameHeader {
        kind: FrameKind::Data { wire_id: verb },
        seq,
        ack: 0,
        len: 4 + payload.len() as u64,
    };
    [&encode_header(&header)[..], &crc.to_le_bytes(), payload].concat()
}

#[test]
fn each_request_is_answered_in_the_version_it_came_in() {
    let (addr, front) = spawn_fake();
    let mut s = TcpStream::connect(&addr).unwrap();
    let submit = Msg::Submit {
        nb: 4,
        ib: 2,
        deadline_ms: 0,
        keep: false,
        idem: 0,
        tree: "greedy".into(),
        a: Matrix::zeros(8, 4),
    };
    s.write_all(&encode_v1(&submit, 5)).unwrap();
    assert_eq!(
        read_msg(&mut s).unwrap(),
        (Msg::SubmitOk { job: 7 }, 5, Version::V1)
    );
    write_msg(&mut s, &submit, 6).unwrap();
    assert_eq!(
        read_msg(&mut s).unwrap(),
        (Msg::SubmitOk { job: 7 }, 6, Version::V2)
    );
    s.write_all(&encode_v1(&Msg::Drain, 7)).unwrap();
    assert_eq!(read_msg(&mut s).unwrap().2, Version::V1);
    front.join().unwrap().unwrap();
}

#[test]
fn an_oversized_submit_is_a_typed_error_and_the_client_stays_usable() {
    let (addr, front) = spawn_fake();
    let mut client = Client::connect(&addr).unwrap();
    let opts = QrOptions::new(4, 2, Tree::Greedy);
    let huge = Matrix::zeros(MAX_SERVICE_BODY / 8, 1);
    match client.submit(&huge, &opts, 0) {
        Err(ClientError::Proto(ProtoError::Oversized(n))) => {
            assert!(n > MAX_SERVICE_BODY as u64, "{n}")
        }
        other => panic!("expected a typed Oversized, got {other:?}"),
    }
    drop(huge);
    assert_eq!(client.submit(&Matrix::zeros(8, 4), &opts, 0).unwrap(), 7);
    client.drain().unwrap();
    front.join().unwrap().unwrap();
}

#[test]
fn reply_verb_as_request_is_typed_invalid_and_drain_returns_the_front_end() {
    let (addr, front) = spawn_fake();
    let mut s = TcpStream::connect(&addr).unwrap();
    match call(&mut s, &Msg::SubmitOk { job: 1 }) {
        Msg::Error {
            code: ErrCode::Invalid,
            msg,
            ..
        } => assert!(msg.contains("is a reply, not a request"), "{msg}"),
        other => panic!("expected a typed Invalid, got {other:?}"),
    }
    // The connection survives a confused request; a plain worker is no
    // router, and says so with the same typed code.
    match call(&mut s, &Msg::Leave { node_id: 1 }) {
        Msg::Error {
            code: ErrCode::Invalid,
            ..
        } => {}
        other => panic!("expected a typed Invalid, got {other:?}"),
    }
    assert_eq!(
        call(&mut s, &Msg::Ping { nonce: 9 }),
        Msg::Pong {
            nonce: 9,
            queued: 3,
            running: 1
        }
    );
    assert_eq!(
        call(&mut s, &Msg::Drain),
        Msg::Drained {
            stats: "{\"fake\":true}".into()
        }
    );
    // The drain woke the acceptor: `serve_node` returns without any
    // further connection.
    front.join().unwrap().unwrap();
}

#[test]
fn worker_and_router_refuse_bad_submits_identically() {
    let (waddr, _svc, wh) = spawn_worker(ServeConfig::default());
    let (w2addr, _svc2, w2h) = spawn_worker(ServeConfig::default());
    let (raddr, router, rh) = spawn_router(RouteConfig::default());
    router.join(&w2addr, caps()).unwrap();

    let submit = |tree: &str, nb: u32, ib: u32, m: usize, n: usize| Msg::Submit {
        nb,
        ib,
        deadline_ms: 0,
        keep: false,
        idem: 0,
        tree: tree.into(),
        a: Matrix::zeros(m, n),
    };
    let bad = [
        submit("shrub", 4, 2, 8, 8),   // unknown tree
        submit("greedy", 0, 2, 8, 8),  // nb = 0
        submit("greedy", 4, 8, 8, 8),  // ib > nb
        submit("greedy", 4, 2, 0, 0),  // empty matrix
        submit("greedy", 4, 2, 10, 8), // m % nb != 0
    ];
    let mut w = TcpStream::connect(&waddr).unwrap();
    let mut r = TcpStream::connect(&raddr).unwrap();
    for msg in &bad {
        let from_worker = call(&mut w, msg);
        assert!(
            matches!(
                from_worker,
                Msg::Error {
                    job: 0,
                    code: ErrCode::Invalid,
                    ..
                }
            ),
            "{from_worker:?}"
        );
        assert_eq!(from_worker, call(&mut r, msg), "same code, same message");
    }

    Client::connect(&raddr).unwrap().drain().unwrap();
    Client::connect(&waddr).unwrap().drain().unwrap();
    for h in [rh, wh, w2h] {
        h.join().unwrap().unwrap();
    }
}

#[test]
fn idempotency_evictions_are_counted_on_worker_and_router() {
    let (a, opts) = (
        Matrix::random(8, 8, &mut StdRng::seed_from_u64(5)),
        QrOptions::new(4, 2, Tree::Greedy),
    );
    let stat = |stats: &str, key: &str| {
        Json::parse(stats)
            .unwrap()
            .get(key)
            .and_then(Json::as_usize)
    };

    let svc = Service::start(ServeConfig {
        idem_cap: 2,
        ..ServeConfig::default()
    });
    for key in [11, 12, 13] {
        svc.submit_idem(a.clone(), opts.clone(), None, false, key)
            .unwrap();
    }
    assert_eq!(stat(&svc.drain(), "idem_evictions"), Some(1));

    let (waddr, _svc, wh) = spawn_worker(ServeConfig::default());
    let router = Router::new(RouteConfig {
        idem_cap: 2,
        ..RouteConfig::default()
    });
    router.join(&waddr, caps()).unwrap();
    let ids: Vec<u64> = [21, 22, 23]
        .iter()
        .map(|&key| {
            router
                .submit(a.clone(), opts.clone(), 0, false, key)
                .unwrap()
        })
        .collect();
    // The newest key is still remembered: a retry is a hit, not a job.
    assert_eq!(
        router
            .submit(a.clone(), opts.clone(), 0, false, 23)
            .unwrap(),
        ids[2]
    );
    let stats = router.drain();
    assert_eq!(stat(&stats, "idem_evictions"), Some(1));
    assert_eq!(stat(&stats, "idem_hits"), Some(1));
    assert_eq!(stat(&stats, "jobs_done"), Some(3));
    wh.join().unwrap().unwrap();
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(m) => m.keys().map(String::as_str).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// Every key of every stats surface, sorted as the writer emits them. The
/// benchmark, `check.sh` and the e2e tests read these by name, so a key
/// dropped or renamed has to fail here first.
#[test]
fn stats_surfaces_keep_their_full_key_sets() {
    const SERVICE: &[&str] = &[
        "applies",
        "batches",
        "batches_walked",
        "idem_evictions",
        "idem_hits",
        "jobs_cancelled",
        "jobs_done",
        "jobs_expired",
        "jobs_failed",
        "jobs_panicked",
        "jobs_per_s",
        "jobs_redispatched",
        "jobs_rejected",
        "p50_ms",
        "p90_ms",
        "p99_ms",
        "pool_respawns",
        "pool_utilization",
        "queue_depth",
        "queue_peak",
        "running",
        "solves",
        "store",
        "tuner",
        "update_rows",
        "updates",
        "uptime_s",
    ];
    const STORE: &[&str] = &[
        "budget_bytes",
        "bytes",
        "entries",
        "evictions",
        "hits",
        "inserts",
        "misses",
        "rejected",
        "released",
    ];
    const TUNER: &[&str] = &[
        "enabled",
        "profile_cells",
        "profile_hits",
        "profile_misses",
        "refinements",
        "tsqr_jobs",
    ];
    const ROUTER: &[&str] = &[
        "idem_evictions",
        "idem_hits",
        "inflight",
        "jobs_cancelled",
        "jobs_done",
        "jobs_expired",
        "jobs_failed",
        "jobs_per_s",
        "jobs_rejected",
        "joins",
        "leaves",
        "node_lost",
        "nodes",
        "p50_ms",
        "p90_ms",
        "p99_ms",
        "redispatched",
        "replicated",
        "router",
        "uptime_s",
    ];
    const NODE: &[&str] = &["addr", "health", "node", "placed", "stats"];

    let (waddr, svc, wh) = spawn_worker(ServeConfig::default());
    let service = Json::parse(&svc.stats_json()).unwrap();
    assert_eq!(keys(&service), SERVICE);
    assert_eq!(keys(service.get("store").unwrap()), STORE);
    assert_eq!(keys(service.get("tuner").unwrap()), TUNER);

    let router = Router::new(RouteConfig::default());
    router.join(&waddr, caps()).unwrap();
    let standalone = Json::parse(&router.stats_json_standalone()).unwrap();
    assert_eq!(keys(&standalone), ROUTER);
    let node = &standalone.get("nodes").unwrap().as_arr().unwrap()[0];
    assert_eq!(keys(node), NODE);
    assert_eq!(node.get("stats"), Some(&Json::Null));

    // The cascaded drain nests the worker's own stats, whole, and counts
    // render as integers.
    let drained = router.drain();
    assert!(drained.contains("\"jobs_done\":0,"), "{drained}");
    let drained = Json::parse(&drained).unwrap();
    assert_eq!(keys(&drained), ROUTER);
    let node = &drained.get("nodes").unwrap().as_arr().unwrap()[0];
    assert_eq!(keys(node), NODE);
    assert_eq!(keys(node.get("stats").unwrap()), SERVICE);
    wh.join().unwrap().unwrap();
}
