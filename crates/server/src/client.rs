//! Blocking client for the QR service protocol.
//!
//! Robustness layer: [`Client::connect_timeout`] bounds the dial and arms
//! per-call read/write deadlines (a wedged or fault-injected server
//! surfaces as typed [`ClientError::Timeout`] instead of blocking
//! forever), and [`Client::submit_retrying`] pairs a client-generated
//! idempotency key with jittered exponential backoff so a submit retried
//! after a dropped ACK lands on the server-side dedup table rather than
//! factoring (and charging the store budget) twice.

use crate::proto::{self, ErrCode, JobState, Msg, ProtoError};
use pulsar_core::QrOptions;
use pulsar_linalg::Matrix;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server refused admission (queue full or draining). This is the
    /// typed backpressure signal: retry after `retry_after_ms` unless
    /// `draining` is set.
    Backpressure {
        /// Server-suggested back-off.
        retry_after_ms: u32,
        /// Queue depth at rejection time.
        queued: u32,
        /// True when the server is shutting down.
        draining: bool,
    },
    /// The server reported a job-level failure.
    Job {
        /// Offending job id (0 when not job-specific).
        job: u64,
        /// Failure class.
        code: ErrCode,
        /// Server-side detail.
        msg: String,
    },
    /// The reply did not decode (carried inside an io error by the
    /// protocol reader) or violated the protocol.
    Proto(ProtoError),
    /// Transport failure.
    Io(std::io::Error),
    /// A call exceeded its connect/read/write deadline. The connection is
    /// no longer frame-aligned; reconnect before reusing it (the retrying
    /// submit path does this automatically).
    Timeout,
    /// The server replied with a verb this call does not expect.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Backpressure {
                retry_after_ms,
                queued,
                draining,
            } => write!(
                f,
                "server over capacity ({queued} queued, draining: {draining}); \
                 retry after {retry_after_ms} ms"
            ),
            ClientError::Job { job, code, msg } => {
                write!(f, "job {job} failed ({code:?}): {msg}")
            }
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Timeout => write!(f, "call deadline exceeded"),
            ClientError::Unexpected(what) => write!(f, "unexpected reply to {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // The protocol reader smuggles decode failures through
        // `InvalidData`; unwrap them back into their typed form.
        if e.kind() == std::io::ErrorKind::InvalidData {
            if let Some(inner) = e.get_ref().and_then(|i| i.downcast_ref::<ProtoError>()) {
                return ClientError::Proto(inner.clone());
            }
        }
        // A socket with an armed read/write deadline reports expiry as
        // `WouldBlock` (unix) or `TimedOut` (windows, and connect_timeout
        // everywhere); both mean the same thing to callers.
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            return ClientError::Timeout;
        }
        ClientError::Io(e)
    }
}

/// Mint a process-unique idempotency key (never 0 — 0 means "no key" on
/// the wire). Keys combine a process-random hash seed with an atomic
/// counter, so two clients retrying concurrently cannot collide by
/// counter reuse alone.
pub fn fresh_idem() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(n);
    h.write_u32(std::process::id());
    let k = h.finish();
    if k == 0 {
        1
    } else {
        k
    }
}

/// Deterministic jittered exponential backoff: ~10 ms doubling per
/// attempt, capped at 500 ms, jittered to [cap/2, cap] by a SplitMix64
/// hash of (key, attempt) so concurrent retriers decorrelate without a
/// shared RNG.
fn backoff_delay(key: u64, attempt: u32) -> Duration {
    let cap = 10u64.saturating_mul(1 << attempt.min(6)).min(500);
    let mut x = key ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    Duration::from_millis(cap / 2 + x % (cap / 2 + 1))
}

/// The `expect` argument of [`Client::call`]: the one reply pattern a verb
/// succeeds with, and what the method returns from it.
macro_rules! expect {
    ($reply:pat => $out:expr) => {
        |m| match m {
            $reply => Some($out),
            _ => None,
        }
    };
}

/// A blocking connection to a QR service.
pub struct Client {
    stream: TcpStream,
    next_seq: u64,
    addr: String,
    timeout: Option<Duration>,
}

impl Client {
    /// Connect to a serve daemon at `addr` (e.g. `127.0.0.1:7070`).
    /// No deadlines: calls block until the server answers (use
    /// [`Self::connect_timeout`] when a wedged server must not wedge
    /// the client too).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Self::open(addr, None)
    }

    /// [`Self::connect`] with a deadline on the dial and on every
    /// subsequent read/write. An expired deadline surfaces as
    /// [`ClientError::Timeout`]; the connection is then no longer
    /// frame-aligned and must be reconnected before reuse.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> Result<Client, ClientError> {
        Self::open(addr, Some(timeout))
    }

    fn open(addr: &str, timeout: Option<Duration>) -> Result<Client, ClientError> {
        Ok(Client {
            stream: dial(addr, timeout)?,
            next_seq: 1,
            addr: addr.to_string(),
            timeout,
        })
    }

    /// Drop the current connection and dial the same address again with
    /// the same deadlines. Sequence numbers keep counting up; the server
    /// only requires them to be per-connection consistent.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = dial(&self.addr, self.timeout)?;
        Ok(())
    }

    /// One request/reply exchange. `expect` picks the verb's success
    /// reply apart; a typed error, a reject, or any other verb becomes the
    /// matching [`ClientError`] here, once for every verb.
    fn call<T>(
        &mut self,
        what: &'static str,
        msg: &Msg,
        expect: impl FnOnce(Msg) -> Option<T>,
    ) -> Result<T, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        proto::write_msg(&mut self.stream, msg, seq)?;
        let (reply, rseq, _) = proto::read_msg(&mut self.stream)?;
        if rseq != seq {
            return Err(ClientError::Unexpected("reply with a foreign request id"));
        }
        match reply {
            Msg::Error { job, code, msg } => Err(ClientError::Job { job, code, msg }),
            Msg::Reject {
                draining,
                retry_after_ms,
                queued,
            } => Err(ClientError::Backpressure {
                retry_after_ms,
                queued,
                draining,
            }),
            other => expect(other).ok_or(ClientError::Unexpected(what)),
        }
    }

    /// Submit a factorization; returns the server-assigned job id.
    /// `deadline_ms == 0` means the job may queue forever.
    pub fn submit(
        &mut self,
        a: &Matrix,
        opts: &QrOptions,
        deadline_ms: u32,
    ) -> Result<u64, ClientError> {
        self.submit_with_idem(a, opts, deadline_ms, false, 0)
    }

    /// [`Self::submit`] with keep: the server stores the complete
    /// factorization, and the returned job id doubles as the factor
    /// handle for [`Self::solve`] / [`Self::apply_q`] / [`Self::update`]
    /// until released or evicted.
    pub fn submit_keep(
        &mut self,
        a: &Matrix,
        opts: &QrOptions,
        deadline_ms: u32,
    ) -> Result<u64, ClientError> {
        self.submit_with_idem(a, opts, deadline_ms, true, 0)
    }

    /// Submit under a caller-provided idempotency key (0 = none). The
    /// router uses this to re-dispatch a ledgered job under its original
    /// key: a worker that already admitted it answers with the original
    /// job id instead of factoring twice.
    pub fn submit_with_idem(
        &mut self,
        a: &Matrix,
        opts: &QrOptions,
        deadline_ms: u32,
        keep: bool,
        idem: u64,
    ) -> Result<u64, ClientError> {
        let msg = Msg::Submit {
            nb: opts.nb as u32,
            ib: opts.ib as u32,
            deadline_ms,
            keep,
            idem,
            tree: opts.tree.to_string(),
            a: a.clone(),
        };
        self.call("submit", &msg, expect!(Msg::SubmitOk { job } => job))
    }

    /// Submit with automatic retries for up to `retry_for` wall time.
    ///
    /// Every attempt carries the same fresh idempotency key, so a retry
    /// after a dropped ACK (the server admitted the job but the reply
    /// never arrived) returns the original job id instead of factoring —
    /// and charging the store budget — twice. Backpressure rejects honor
    /// the server's `retry_after_ms` hint; transport errors and timeouts
    /// reconnect and back off exponentially with jitter. Non-retryable
    /// failures (invalid request, draining server) return immediately.
    pub fn submit_retrying(
        &mut self,
        a: &Matrix,
        opts: &QrOptions,
        deadline_ms: u32,
        keep: bool,
        retry_for: Duration,
    ) -> Result<u64, ClientError> {
        let idem = fresh_idem();
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            let err = match self.submit_with_idem(a, opts, deadline_ms, keep, idem) {
                Ok(job) => return Ok(job),
                Err(e) => e,
            };
            let (hint, transport) = match &err {
                ClientError::Backpressure {
                    draining: false,
                    retry_after_ms,
                    ..
                } => (
                    Some(Duration::from_millis(u64::from(*retry_after_ms).max(1))),
                    false,
                ),
                ClientError::Io(_) | ClientError::Timeout => (None, true),
                _ => return Err(err),
            };
            attempt += 1;
            let delay = hint.unwrap_or_else(|| backoff_delay(idem, attempt));
            if start.elapsed() + delay >= retry_for {
                return Err(err);
            }
            std::thread::sleep(delay);
            if transport {
                // A half-finished exchange leaves the old stream out of
                // frame sync; a failed redial just means the next attempt
                // errors fast and backs off again.
                let _ = self.reconnect();
            }
        }
    }

    /// Block until `job` finishes and return its R factor.
    pub fn result(&mut self, job: u64) -> Result<Matrix, ClientError> {
        self.call(
            "result",
            &Msg::Result { job },
            expect!(Msg::RFactor { r, .. } => r),
        )
    }

    /// [`Self::result`] with transport retries for up to `retry_for` wall
    /// time. The long-poll is naturally idempotent — it mutates nothing —
    /// so a reply lost on the wire (or a read deadline expiring while the
    /// job still runs) is safely asked again on a fresh connection.
    /// Semantic failures (`Error` replies) return immediately.
    pub fn result_retrying(
        &mut self,
        job: u64,
        retry_for: Duration,
    ) -> Result<Matrix, ClientError> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            let err = match self.result(job) {
                Ok(r) => return Ok(r),
                Err(e @ (ClientError::Io(_) | ClientError::Timeout)) => e,
                Err(e) => return Err(e),
            };
            attempt += 1;
            let delay = backoff_delay(job, attempt);
            if start.elapsed() + delay >= retry_for {
                return Err(err);
            }
            std::thread::sleep(delay);
            let _ = self.reconnect();
        }
    }

    /// Query a job's state and queue position.
    pub fn status(&mut self, job: u64) -> Result<(JobState, u32), ClientError> {
        self.call(
            "status",
            &Msg::Status { job },
            expect!(Msg::State { state, queue_pos, .. } => (state, queue_pos)),
        )
    }

    /// Cancel a queued job; false when it already ran (or never existed).
    pub fn cancel(&mut self, job: u64) -> Result<bool, ClientError> {
        self.call(
            "cancel",
            &Msg::Cancel { job },
            expect!(Msg::CancelOk { cancelled, .. } => cancelled),
        )
    }

    /// Least-squares solve against a stored factorization: returns the
    /// `n x k` solution of `min ||A x - b||`.
    pub fn solve(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, ClientError> {
        let b = b.clone();
        self.call(
            "solve",
            &Msg::Solve { handle, b },
            expect!(Msg::Solution { x, .. } => x),
        )
    }

    /// Apply `Q` (or `Q^T` when `transpose`) from a stored factorization
    /// to an `m x k` operand.
    pub fn apply_q(
        &mut self,
        handle: u64,
        b: &Matrix,
        transpose: bool,
    ) -> Result<Matrix, ClientError> {
        let msg = Msg::ApplyQ {
            handle,
            transpose,
            b: b.clone(),
        };
        self.call("apply-q", &msg, expect!(Msg::QApplied { c, .. } => c))
    }

    /// Append rows to a stored factorization (streaming update). Returns
    /// the updated total row count.
    pub fn update(&mut self, handle: u64, e: &Matrix) -> Result<u64, ClientError> {
        let e = e.clone();
        self.call(
            "update",
            &Msg::Update { handle, e },
            expect!(Msg::Updated { rows, .. } => rows),
        )
    }

    /// Drop a stored factorization; false when the handle was already
    /// gone (released, evicted, or never kept).
    pub fn release(&mut self, handle: u64) -> Result<bool, ClientError> {
        self.call(
            "release",
            &Msg::Release { handle },
            expect!(Msg::Released { released, .. } => released),
        )
    }

    /// Drain the server: no new admissions, queued jobs finish, the
    /// daemon exits. Returns the final stats JSON.
    pub fn drain(&mut self) -> Result<String, ClientError> {
        self.call(
            "drain",
            &Msg::Drain,
            expect!(Msg::Drained { stats } => stats),
        )
    }

    /// Register a worker node with a router. `addr` is where the router
    /// should dial the worker back; the capability report rides along.
    /// Returns the router-assigned node id.
    pub fn join(
        &mut self,
        addr: &str,
        threads: u32,
        store_bytes: u64,
        gemm_tier: &str,
    ) -> Result<u32, ClientError> {
        let msg = Msg::Join {
            addr: addr.to_string(),
            threads,
            store_bytes,
            gemm_tier: gemm_tier.to_string(),
        };
        self.call("join", &msg, expect!(Msg::JoinOk { node_id } => node_id))
    }

    /// Stop a router from placing new jobs on node `node_id`. In-flight
    /// work completes and resident factors keep routing. Returns false
    /// when the node was not a member.
    pub fn leave(&mut self, node_id: u32) -> Result<bool, ClientError> {
        self.call(
            "leave",
            &Msg::Leave { node_id },
            expect!(Msg::LeaveOk { left, .. } => left),
        )
    }

    /// Liveness probe; returns the peer's (queued, running) load snapshot.
    pub fn ping(&mut self) -> Result<(u32, u32), ClientError> {
        let nonce = fresh_idem();
        let (echoed, load) = self.call(
            "ping",
            &Msg::Ping { nonce },
            expect!(Msg::Pong { nonce, queued, running, } => (nonce, (queued, running))),
        )?;
        if echoed != nonce {
            return Err(ClientError::Unexpected("pong with a foreign nonce"));
        }
        Ok(load)
    }
}

/// Dial `addr`, optionally bounded by (and arming) `timeout`.
fn dial(addr: &str, timeout: Option<Duration>) -> Result<TcpStream, ClientError> {
    let stream = match timeout {
        None => TcpStream::connect(addr).map_err(ClientError::Io)?,
        Some(t) => {
            // connect_timeout wants a resolved SocketAddr; take the first.
            let sa = addr
                .to_socket_addrs()
                .map_err(ClientError::Io)?
                .next()
                .ok_or_else(|| {
                    ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::AddrNotAvailable,
                        format!("{addr} resolved to no addresses"),
                    ))
                })?;
            let s = TcpStream::connect_timeout(&sa, t).map_err(ClientError::from)?;
            s.set_read_timeout(Some(t)).map_err(ClientError::Io)?;
            s.set_write_timeout(Some(t)).map_err(ClientError::Io)?;
            s
        }
    };
    stream.set_nodelay(true).ok();
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_idem_is_unique_and_nonzero() {
        let keys: Vec<u64> = (0..64).map(|_| fresh_idem()).collect();
        assert!(keys.iter().all(|&k| k != 0));
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "collision in {keys:?}");
    }

    #[test]
    fn backoff_grows_and_caps() {
        for attempt in 1..12 {
            let d = backoff_delay(0xdead_beef, attempt);
            let cap = 10u64.saturating_mul(1 << attempt.min(6)).min(500);
            assert!(d.as_millis() as u64 >= cap / 2, "attempt {attempt}: {d:?}");
            assert!(d.as_millis() as u64 <= cap, "attempt {attempt}: {d:?}");
        }
        // Jitter decorrelates different keys at the same attempt.
        assert_ne!(backoff_delay(1, 5), backoff_delay(2, 5));
    }

    #[test]
    fn timeout_kinds_map_to_typed_timeout() {
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            match ClientError::from(std::io::Error::new(kind, "deadline")) {
                ClientError::Timeout => {}
                other => panic!("{kind:?} mapped to {other:?}"),
            }
        }
    }
}
