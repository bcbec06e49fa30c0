//! The one request path of the service tier: the [`Node`] interface a
//! worker ([`Service`]) and a fleet ([`Router`](crate::router::Router))
//! both implement, the shared admission helpers, and [`serve_node`] — the
//! only accept loop, connection handler and `Msg` → reply table.

use crate::fault::{ConnFaults, ReplyFate, ServeFaultPlan};
use crate::proto::{self, ErrCode, JobState, Msg};
use crate::router::membership::Caps;
use crate::service::{JobError, Service, SubmitError};
use parking_lot::Mutex;
use pulsar_core::{QrOptions, Tree};
use pulsar_linalg::Matrix;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A verb's failure in its wire form: the code and detail of the
/// [`Msg::Error`] reply.
pub type NodeResult<T> = Result<T, (ErrCode, String)>;

/// What the front end serves: one method per request verb, failures
/// already reduced to their wire form. A single worker and a router over
/// many are both a `Node`, so every client works against either.
pub trait Node: Send + Sync + 'static {
    /// Admit a factorization; the id is what status/result/cancel take
    /// (and, with `keep`, the factor handle).
    fn submit(
        self: &Arc<Self>,
        a: Matrix,
        opts: QrOptions,
        deadline_ms: u32,
        keep: bool,
        idem: u64,
    ) -> Result<u64, SubmitError>;
    /// A job's lifecycle state and queue position; `None` when unknown.
    fn status(&self, job: u64) -> Option<(JobState, u32)>;
    /// Block until the job reaches a terminal state and return its R.
    fn wait_result(&self, job: u64) -> NodeResult<Matrix>;
    /// Cancel a job that has not started.
    fn cancel(&self, job: u64) -> bool;
    /// Least-squares solve against a kept factorization.
    fn solve(&self, handle: u64, b: &Matrix) -> NodeResult<Matrix>;
    /// Apply `Q` (or `Q^T`) from a kept factorization.
    fn apply_q(&self, handle: u64, b: &Matrix, transpose: bool) -> NodeResult<Matrix>;
    /// Append rows to a kept factorization; returns its new row count.
    fn update(&self, handle: u64, e: &Matrix) -> NodeResult<u64>;
    /// Drop a kept factorization; `Ok(false)` when it was already gone.
    fn release(&self, handle: u64) -> NodeResult<bool>;
    /// `(queued, running)` load snapshot for the ping reply.
    fn load(&self) -> (u32, u32);
    /// Stop admitting, finish what was admitted, return the stats JSON.
    fn drain(&self) -> String;
    /// After a drain, before the front end hangs up: wait, bounded by the
    /// node's drain grace, for clients still on their way to collect an
    /// outcome they were promised.
    fn linger(&self);
    /// Register a member node. Only a router has members.
    fn join(&self, _addr: &str, _caps: Caps) -> NodeResult<u32> {
        Err((ErrCode::Invalid, "join: this node is not a router".into()))
    }
    /// Stop placing on a member node. Only a router has members.
    fn leave(&self, _node_id: u32) -> NodeResult<bool> {
        Err((ErrCode::Invalid, "leave: this node is not a router".into()))
    }
}

// --- admission, shared by the worker and the router ---------------------

/// Shape and tile-size checks every submit passes before admission.
pub(crate) fn validate_job(a: &Matrix, opts: &QrOptions) -> Result<(), String> {
    if a.nrows() == 0 || a.ncols() == 0 {
        return Err("matrix must be non-empty".into());
    }
    if opts.nb == 0 || opts.ib == 0 || opts.ib > opts.nb {
        return Err(format!(
            "need 0 < ib <= nb, got nb={} ib={}",
            opts.nb, opts.ib
        ));
    }
    if !a.nrows().is_multiple_of(opts.nb) || !a.ncols().is_multiple_of(opts.nb) {
        return Err(format!(
            "matrix {}x{} is not tiled by nb={}",
            a.nrows(),
            a.ncols(),
            opts.nb
        ));
    }
    Ok(())
}

/// Client idempotency key → job id, bounded FIFO. A retried submit whose
/// key is remembered — the original ACK was lost — gets the original id
/// back instead of a second admission.
pub(crate) struct IdemMap {
    cap: usize,
    ids: HashMap<u64, u64>,
    order: VecDeque<u64>,
    /// Retried submits answered from the map.
    pub hits: u64,
    /// Keys dropped by the capacity bound.
    pub evictions: u64,
}

impl IdemMap {
    pub fn new(cap: usize) -> Self {
        IdemMap {
            cap: cap.max(1),
            ids: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            evictions: 0,
        }
    }

    /// The id `key` was admitted under, counting the hit. Key 0 ("no
    /// key") is never remembered, so it never matches.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        let id = *self.ids.get(&key)?;
        self.hits += 1;
        Some(id)
    }

    /// Remember `key -> id` (nothing for key 0), evicting the oldest key
    /// at capacity.
    pub fn remember(&mut self, key: u64, id: u64) {
        if key == 0 {
            return;
        }
        if self.order.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.ids.remove(&old);
                self.evictions += 1;
            }
        }
        self.ids.insert(key, id);
        self.order.push_back(key);
    }
}

// --- the worker as a node -----------------------------------------------

/// A job failure in its wire form.
fn wire(e: JobError) -> (ErrCode, String) {
    let code = match e {
        JobError::Failed(_) => ErrCode::Failed,
        JobError::DeadlineExpired => ErrCode::DeadlineExpired,
        JobError::Cancelled => ErrCode::Cancelled,
        JobError::Unknown => ErrCode::UnknownJob,
        JobError::HandleExpired(_) => ErrCode::HandleExpired,
        JobError::StoreFull { .. } => ErrCode::StoreFull,
        JobError::Invalid(_) => ErrCode::Invalid,
        JobError::Panicked(_) => ErrCode::Panicked,
    };
    (code, e.to_string())
}

// Handle verbs run inline on the connection thread: they are pure reads
// of stored factors (plus a short store commit for update), so they never
// queue behind factorization batches.
impl Node for Service {
    fn submit(
        self: &Arc<Self>,
        a: Matrix,
        opts: QrOptions,
        deadline_ms: u32,
        keep: bool,
        idem: u64,
    ) -> Result<u64, SubmitError> {
        let deadline = (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
        self.submit_idem(a, opts, deadline, keep, idem)
    }
    fn status(&self, job: u64) -> Option<(JobState, u32)> {
        Service::status(self, job)
    }
    fn wait_result(&self, job: u64) -> NodeResult<Matrix> {
        Service::wait_result(self, job).map_err(wire)
    }
    fn cancel(&self, job: u64) -> bool {
        Service::cancel(self, job)
    }
    fn solve(&self, handle: u64, b: &Matrix) -> NodeResult<Matrix> {
        Service::solve(self, handle, b).map_err(wire)
    }
    fn apply_q(&self, handle: u64, b: &Matrix, transpose: bool) -> NodeResult<Matrix> {
        Service::apply_q(self, handle, b, transpose).map_err(wire)
    }
    fn update(&self, handle: u64, e: &Matrix) -> NodeResult<u64> {
        Service::update(self, handle, e).map_err(wire)
    }
    fn release(&self, handle: u64) -> NodeResult<bool> {
        Ok(Service::release(self, handle))
    }
    fn load(&self) -> (u32, u32) {
        Service::load(self)
    }
    fn drain(&self) -> String {
        Service::drain(self)
    }
    fn linger(&self) {
        let grace = Instant::now();
        while self.unclaimed_outcomes() > 0 && grace.elapsed() < self.config().drain_grace {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Serve `service` on `listener` until a client sends [`Msg::Drain`].
///
/// Each connection gets its own handler thread; requests on one
/// connection are processed in order ([`Msg::Result`] long-polls, so
/// interleave slow and fast requests on separate connections). The call
/// returns after a drain completed: the queue was run dry, the drained
/// reply was sent, and every handler thread was joined.
pub fn serve(listener: TcpListener, service: Arc<Service>) -> std::io::Result<()> {
    serve_node(listener, service, None)
}

/// [`serve`] under a seeded [`ServeFaultPlan`]: every reply frame rolls
/// for drop / delay / corrupt / disconnect before the write, and a
/// `panic-job` directive detonates inside that job's first VDP firing.
/// Chaos tests use this to prove accepted jobs survive dropped ACKs,
/// poisoned batches, and severed connections with typed errors — never a
/// hang or a silently wrong answer.
pub fn serve_with_faults(
    listener: TcpListener,
    service: Arc<Service>,
    faults: Option<ServeFaultPlan>,
) -> std::io::Result<()> {
    if let Some(job) = faults.as_ref().and_then(|f| f.panic_job) {
        service.inject_panic_job(job);
    }
    if let Some(ms) = faults.as_ref().and_then(|f| f.sched_delay_ms) {
        service.inject_sched_delay(Duration::from_millis(ms));
    }
    serve_node(listener, service, faults)
}

// --- the front end ------------------------------------------------------

/// What one connection handler shares with the acceptor.
struct FrontEnd {
    /// Where the acceptor listens; a handler self-connects to wake it.
    local: SocketAddr,
    /// Set once a drain was answered or the `die=N` switch fired.
    shutdown: AtomicBool,
    /// A duplicate handle per connection, so the acceptor (or the die
    /// switch) can unblock handlers parked in a read.
    conns: Mutex<Vec<TcpStream>>,
    /// The `die=N` chaos directive: crash after this many replies...
    die_after: Option<u64>,
    /// ...counted across every connection...
    replies: AtomicU64,
    /// ...exactly once.
    died: AtomicBool,
}

impl FrontEnd {
    /// Stop accepting: the self-connection is accepted and discarded.
    fn wake_acceptor(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_secs(5));
    }
}

/// Serve any [`Node`] on `listener` until a client sends [`Msg::Drain`]
/// (`Ok`) or the plan's `die=N` directive severs the node (`Err`). The
/// reply-path directives of `faults` apply per connection; its service
/// directives are [`serve_with_faults`]'s business.
pub fn serve_node<N: Node>(
    listener: TcpListener,
    node: Arc<N>,
    faults: Option<ServeFaultPlan>,
) -> std::io::Result<()> {
    let front = Arc::new(FrontEnd {
        local: listener.local_addr()?,
        shutdown: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
        die_after: faults.as_ref().and_then(|f| f.die),
        replies: AtomicU64::new(0),
        died: AtomicBool::new(false),
    });
    let mut handlers = Vec::new();
    let mut conn_index = 0u64;
    loop {
        let (stream, _) = listener.accept()?;
        if front.shutdown.load(Ordering::Acquire) {
            break;
        }
        if let Ok(dup) = stream.try_clone() {
            front.conns.lock().push(dup);
        }
        let (node, front) = (node.clone(), front.clone());
        let conn_faults = faults.as_ref().map(|p| ConnFaults::new(p, conn_index));
        conn_index += 1;
        handlers.push(
            std::thread::Builder::new()
                .name("qr-conn".into())
                .spawn(move || handle_conn(stream, &node, &front, conn_faults))
                .expect("failed to spawn connection handler"),
        );
    }
    // A fired die directive is a crash, not a drain: connections are
    // already severed, so skip the grace window and surface an error.
    let died = front.died.load(Ordering::Acquire);
    if !died {
        // Drained: every admitted job has resolved, but a result posted
        // moments ago may not have been *collected* yet — a client can be
        // mid-flight between its submit ACK and its result call. Give
        // those outcomes a short grace window before hanging up, so drain
        // never races result collection. Only then close the read half of
        // each connection (dead ones error, which is fine) so handlers
        // blocked in a read see EOF and return, while in-flight replies
        // still flush.
        node.linger();
        for conn in front.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    if died {
        return Err(std::io::Error::other(
            "chaos: die directive severed the node",
        ));
    }
    Ok(())
}

fn handle_conn<N: Node>(
    mut stream: TcpStream,
    node: &Arc<N>,
    front: &FrontEnd,
    mut faults: Option<ConnFaults>,
) {
    loop {
        let (msg, seq, version) = match proto::read_msg(&mut stream) {
            Ok(x) => x,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Garbage on the wire: after a bad frame the stream offset
                // is unreliable, so reply once and hang up (explicitly: the
                // acceptor's duplicate handle keeps the socket open).
                let reply = invalid(e.to_string());
                let _ = proto::write_msg(&mut stream, &reply, 0);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            // Clean disconnect (or any other io failure): drop the
            // connection silently.
            Err(_) => return,
        };
        let draining = matches!(msg, Msg::Drain);
        let reply = dispatch(node, msg);
        // Answered in the version asked; an oversized reply is a typed error.
        let mut frame = proto::encode_frame(&reply, seq, version).unwrap_or_else(|e| {
            proto::encode_frame(&invalid(e.to_string()), seq, version)
                .expect("a typed error fits the body cap")
        });
        let fate = faults
            .as_mut()
            .map_or(ReplyFate::Deliver, |f| f.apply(&mut frame));
        let delivered = match fate {
            ReplyFate::Deliver => stream.write_all(&frame).is_ok(),
            ReplyFate::DeliverAfter(d) => {
                std::thread::sleep(d);
                stream.write_all(&frame).is_ok()
            }
            // A dropped ACK: the request took effect but the client hears
            // nothing. The connection stays usable for its retry.
            ReplyFate::Drop => true,
            ReplyFate::Disconnect => {
                let _ = stream.shutdown(Shutdown::Both);
                false
            }
        };
        // Probe replies don't advance the die counter: a router's prober
        // pings continuously, and `die=N` must mean "after N *job*
        // replies", deterministic regardless of heartbeat cadence.
        if let Some(after) = front
            .die_after
            .filter(|_| !matches!(reply, Msg::Pong { .. }))
        {
            // The crash lands *after* this reply went out: the client saw
            // the ACK, then the node vanished mid-conversation.
            if front.replies.fetch_add(1, Ordering::AcqRel) + 1 >= after
                && !front.died.swap(true, Ordering::AcqRel)
            {
                // Refuse new connections before severing the live ones.
                front.shutdown.store(true, Ordering::Release);
                for conn in front.conns.lock().drain(..) {
                    let _ = conn.shutdown(Shutdown::Both);
                }
                front.wake_acceptor();
                return;
            }
        }
        if draining {
            // The drained reply is out (or chaos ate it — the drain still
            // happened); wake the acceptor so the front end returns.
            front.wake_acceptor();
            return;
        }
        if !delivered {
            return;
        }
    }
}

fn invalid(msg: String) -> Msg {
    Msg::Error {
        job: 0,
        code: ErrCode::Invalid,
        msg,
    }
}

/// The verb table: one request in, one reply out. `id` is the job or
/// handle a typed failure is reported against.
fn dispatch<N: Node>(node: &Arc<N>, msg: Msg) -> Msg {
    fn reply<T>(id: u64, r: NodeResult<T>, ok: impl FnOnce(T) -> Msg) -> Msg {
        match r {
            Ok(t) => ok(t),
            Err((code, msg)) => Msg::Error { job: id, code, msg },
        }
    }
    match msg {
        Msg::Submit {
            nb,
            ib,
            deadline_ms,
            keep,
            idem,
            tree,
            a,
        } => {
            let tree: Tree = match tree.parse() {
                Ok(t) => t,
                Err(e) => return invalid(e),
            };
            if nb == 0 || ib == 0 {
                return invalid("nb and ib must be positive".into());
            }
            let opts = QrOptions::new(nb as usize, ib as usize, tree);
            match node.submit(a, opts, deadline_ms, keep, idem) {
                Ok(job) => Msg::SubmitOk { job },
                Err(SubmitError::Backpressure {
                    retry_after_ms,
                    queued,
                    draining,
                }) => Msg::Reject {
                    draining,
                    retry_after_ms,
                    queued,
                },
                Err(SubmitError::Invalid(msg)) => invalid(msg),
                Err(SubmitError::Node(code, msg)) => Msg::Error { job: 0, code, msg },
            }
        }
        Msg::Status { job } => {
            let known = node
                .status(job)
                .ok_or_else(|| (ErrCode::UnknownJob, format!("unknown job {job}")));
            reply(job, known, |(state, queue_pos)| Msg::State {
                job,
                state,
                queue_pos,
            })
        }
        Msg::Result { job } => reply(job, node.wait_result(job), |r| Msg::RFactor { job, r }),
        Msg::Cancel { job } => Msg::CancelOk {
            job,
            cancelled: node.cancel(job),
        },
        Msg::Solve { handle, b } => reply(handle, node.solve(handle, &b), |x| Msg::Solution {
            handle,
            x,
        }),
        Msg::ApplyQ {
            handle,
            transpose,
            b,
        } => reply(handle, node.apply_q(handle, &b, transpose), |c| {
            Msg::QApplied { handle, c }
        }),
        Msg::Update { handle, e } => reply(handle, node.update(handle, &e), |rows| Msg::Updated {
            handle,
            rows,
        }),
        Msg::Release { handle } => reply(handle, node.release(handle), |released| Msg::Released {
            handle,
            released,
        }),
        Msg::Join {
            addr,
            threads,
            store_bytes,
            gemm_tier,
        } => {
            let caps = Caps {
                threads,
                store_bytes,
                gemm_tier,
            };
            reply(0, node.join(&addr, caps), |node_id| Msg::JoinOk { node_id })
        }
        Msg::Leave { node_id } => reply(0, node.leave(node_id), |left| Msg::LeaveOk {
            node_id,
            left,
        }),
        // Liveness probe (a router's health prober, or any client): the
        // load snapshot placement feeds on.
        Msg::Ping { nonce } => {
            let (queued, running) = node.load();
            Msg::Pong {
                nonce,
                queued,
                running,
            }
        }
        Msg::Drain => Msg::Drained {
            stats: node.drain(),
        },
        // A client sending reply verbs is confused; tell it so.
        other => invalid(format!("verb {} is a reply, not a request", other.verb())),
    }
}
