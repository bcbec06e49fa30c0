//! Persistent QR service ("pulsar-serve").
//!
//! The offline pipeline (`pulsar-qr factor`) builds a VSA, spawns worker
//! threads, factors one matrix, and tears everything down. This crate
//! keeps that machinery *warm*: a [`Service`] owns a
//! [`VsaPool`](pulsar_runtime::VsaPool) of persistent workers whose
//! per-thread scratch arenas survive from job to job, an admission queue
//! with typed backpressure, and a batching scheduler that packs several
//! small factorizations into a single VSA launch (each job lives in its
//! own tuple namespace, so results are bit-identical to running alone).
//!
//! Beyond one-shot factorization, the service keeps completed
//! factorizations alive: `submit --keep` parks the full V/T reflector
//! tree and `R` in a byte-budgeted LRU [`store`](crate::store), and the
//! `solve`, `apply-q`, and `update` verbs run least-squares solves,
//! `Q`/`Q^T` products, and streaming row appends against the stored
//! factors — no re-factorization, typed `HandleExpired`/`StoreFull`
//! errors when the cache says no.
//!
//! Layers, bottom-up:
//! - [`proto`] — the binary wire protocol, framed by the fabric codec.
//! - [`store`] — the byte-budgeted LRU factorization store, optionally
//!   durable (checksummed snapshot + write-ahead log).
//! - [`service`] — the in-process queue + scheduler + pool + store.
//! - [`server`] — the one TCP front end ([`serve_node`]) over the [`Node`]
//!   interface that a worker and a router both implement.
//! - [`fault`] — seeded reply-path fault injection for chaos tests.
//! - [`client`] — blocking client used by `pulsar-qr submit`/`drain`,
//!   with per-call deadlines and idempotent retries.
//! - [`router`] — the `pulsar-route` node: shards jobs across many
//!   worker nodes with health-checked placement, a bounded in-flight
//!   ledger for lossless failover, and elastic join/leave membership.

#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod proto;
pub mod router;
pub mod server;
pub mod service;
pub mod store;

pub use client::{fresh_idem, Client, ClientError};
pub use fault::ServeFaultPlan;
pub use proto::{decode_msg, encode_msg, ErrCode, JobState, Msg, ProtoError, MAX_SERVICE_BODY};
pub use router::{route, routed_handle, split_handle, RouteConfig, Router};
pub use server::{serve, serve_node, serve_with_faults, Node, NodeResult};
pub use service::{JobError, ServeConfig, Service, SubmitError};
pub use store::{FactorHandle, FactorStore, StoreError, StoreStats, WalError};

#[cfg(test)]
mod tests {
    use super::*;
    use pulsar_core::{tile_qr_seq, QrOptions, Tree};
    use pulsar_linalg::verify::r_factor_distance;
    use pulsar_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::net::TcpListener;

    #[test]
    fn tcp_round_trip_submit_result_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let svc = Service::start(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let daemon = std::thread::spawn(move || serve(listener, svc));

        let mut rng = StdRng::seed_from_u64(42);
        let mut a = Matrix::zeros(16, 8);
        for v in a.data_mut() {
            *v = rng.random::<f64>() - 0.5;
        }
        let opts = QrOptions::new(4, 2, Tree::Greedy);

        let mut c = Client::connect(&addr).unwrap();
        let job = c.submit(&a, &opts, 0).unwrap();
        let (state, _) = c.status(job).unwrap();
        assert!(
            matches!(state, JobState::Queued | JobState::Running | JobState::Done),
            "live job state, got {state}"
        );
        let r = c.result(job).unwrap();
        let oracle = tile_qr_seq(&a, &opts);
        assert_eq!(r_factor_distance(&r, &oracle.r), 0.0);
        assert!(!c.cancel(job).unwrap(), "done job is not cancellable");
        match c.status(9999) {
            Err(ClientError::Job {
                code: ErrCode::UnknownJob,
                ..
            }) => {}
            other => panic!("expected UnknownJob, got {other:?}"),
        }

        let stats = c.drain().unwrap();
        assert!(stats.contains("\"jobs_done\":1"), "stats: {stats}");
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn tcp_keep_solve_apply_update_release_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let svc = Service::start(ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        });
        let daemon = std::thread::spawn(move || serve(listener, svc));

        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::random(24, 8, &mut rng);
        let opts = QrOptions::new(4, 2, Tree::Greedy);
        let mut c = Client::connect(&addr).unwrap();

        let handle = c.submit_keep(&a, &opts, 0).unwrap();
        c.result(handle).unwrap();

        let b = Matrix::random(24, 2, &mut rng);
        let x = c.solve(handle, &b).unwrap();
        let xref = pulsar_linalg::reference::geqrf(a.clone()).solve_ls(&b);
        assert!(x.sub(&xref).norm_fro() < 1e-9 * xref.norm_fro().max(1.0));

        let qb = c.apply_q(handle, &b, false).unwrap();
        let back = c.apply_q(handle, &qb, true).unwrap();
        assert!(back.sub(&b).norm_fro() < 1e-12 * b.norm_fro());

        let e = Matrix::random(4, 8, &mut rng);
        assert_eq!(c.update(handle, &e).unwrap(), 28);

        assert!(c.release(handle).unwrap());
        assert!(!c.release(handle).unwrap(), "second release is a miss");
        match c.solve(handle, &b) {
            Err(ClientError::Job {
                code: ErrCode::HandleExpired,
                ..
            }) => {}
            other => panic!("expected HandleExpired over the wire, got {other:?}"),
        }

        let stats = c.drain().unwrap();
        assert!(stats.contains("\"solves\":1"), "stats: {stats}");
        assert!(stats.contains("\"store\":{"), "stats: {stats}");
        daemon.join().unwrap().unwrap();
    }
}
