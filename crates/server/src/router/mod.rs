//! `pulsar-route`: one logical QR service over a fleet of worker nodes.
//!
//! The router speaks the same wire protocol as a single worker, so any
//! existing client works unchanged. Behind the front end it keeps a
//! [`Membership`] table with probed health (healthy → suspect → dead,
//! with hysteresis), places jobs least-loaded ([`placement::place`]: small jobs replicated: first answer wins, loser
//! cancelled), and journals every accepted job in a bounded in-flight
//! [`Ledger`] so a node death mid-job triggers re-dispatch to survivors
//! under the job's original idempotency key — exactly-once outcomes,
//! bit-identical results.
//!
//! Factor handles minted here are *routed handles*: the owning node's id
//! rides in the top [`NODE_SHIFT`] bits, so `solve`/`apply-q`/`update`/
//! `release` follow the factor to its node statelessly — no table to
//! evict — and an unreplicated dead node surfaces as a typed
//! [`ErrCode::NodeLost`].

pub mod ledger;
pub mod membership;
pub mod placement;

use crate::client::{Client, ClientError};
use crate::proto::{ErrCode, JobState};
use crate::server::{serve_node, validate_job, IdemMap, Node, NodeResult};
use crate::service::{latency_percentiles, milli, SubmitError};
use ledger::{Assignment, Entry, Ledger, Outcome};
use membership::{Caps, Health, Membership};
use parking_lot::{Condvar, Mutex};
use placement::{place, Placement};
use pulsar_core::QrOptions;
use pulsar_linalg::Matrix;
use pulsar_tuner::json::{obj, Json};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bits of a routed handle reserved for the remote job id; the node id
/// lives above them. Worker job ids never reach 2^48, so the node bits
/// of a purely local handle are always zero.
pub const NODE_SHIFT: u32 = 48;
const REMOTE_MASK: u64 = (1 << NODE_SHIFT) - 1;

/// Pack a node id and that node's local job id into one routed handle.
pub fn routed_handle(node: u32, remote: u64) -> u64 {
    debug_assert!(remote <= REMOTE_MASK);
    (u64::from(node) << NODE_SHIFT) | (remote & REMOTE_MASK)
}

/// Split a handle into `(node, remote)`. Node 0 means the handle was
/// never routed (a plain single-node handle).
pub fn split_handle(handle: u64) -> (u32, u64) {
    ((handle >> NODE_SHIFT) as u32, handle & REMOTE_MASK)
}

/// Tuning knobs of a [`Router`].
#[derive(Clone, Debug)]
pub struct RouteConfig {
    /// Prober beat interval.
    pub heartbeat_ms: u64,
    /// Per-probe dial/read deadline.
    pub probe_timeout_ms: u64,
    /// Fire-and-forget jobs under this many matrix bytes are
    /// dual-dispatched (0 disables replication).
    pub replicate_under: usize,
    /// In-flight ledger bound; admission past it is typed backpressure.
    pub ledger_cap: usize,
    /// Re-dispatches per job before it fails with `NodeLost`.
    pub redispatch_max: u32,
    /// Dial deadline for synchronous worker calls (handle verbs, joins,
    /// cascaded drains).
    pub dial_timeout: Duration,
    /// Client idempotency keys remembered (FIFO), as on a single node.
    pub idem_cap: usize,
    /// Linger after the drained reply before severing connections,
    /// mirroring the worker's `--drain-grace-ms`.
    pub drain_grace: Duration,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            heartbeat_ms: 50,
            probe_timeout_ms: 250,
            replicate_under: 32 << 10,
            ledger_cap: 256,
            redispatch_max: 3,
            dial_timeout: Duration::from_secs(1),
            idem_cap: 1024,
            drain_grace: Duration::from_millis(250),
        }
    }
}

#[derive(Default)]
struct Counters {
    done: u64,
    failed: u64,
    rejected: u64,
    cancelled: u64,
    expired: u64,
    node_lost: u64,
    redispatched: u64,
    replicated: u64,
    joins: u64,
    leaves: u64,
}

struct RState {
    members: Membership,
    ledger: Ledger,
    draining: bool,
    /// Router-local ids for fire-and-forget entries. These stay far below
    /// 2^48, so their node bits are zero and they can never collide with
    /// a routed keep handle.
    next_id: u64,
    counters: Counters,
    /// Router-admission-to-outcome, one sample per resolved entry.
    latencies_ms: Vec<f64>,
    /// Client idempotency keys of admitted jobs.
    idem: IdemMap,
}

/// The router core: membership + placement + ledger behind one lock,
/// shared by the front end's connection threads, the waiters, and the
/// prober. Cheap to share behind an [`Arc`].
pub struct Router {
    cfg: RouteConfig,
    started: Instant,
    state: Mutex<RState>,
    /// Signals waiters-of-outcomes (result long-polls, drain).
    done: Condvar,
}

/// What a locked re-dispatch decision concluded.
enum Redispatch {
    /// Nothing to do (resolved already, or a live replica still racing).
    Covered,
    /// Spawn a waiter for this node.
    Spawn(u32),
    /// The entry was resolved (NodeLost or budget exhausted).
    Resolved,
}

impl Router {
    /// A router with no members yet.
    pub fn new(cfg: RouteConfig) -> Arc<Router> {
        Arc::new(Router {
            state: Mutex::new(RState {
                members: Membership::new(),
                ledger: Ledger::new(cfg.ledger_cap),
                draining: false,
                next_id: 1,
                counters: Counters::default(),
                latencies_ms: Vec::new(),
                idem: IdemMap::new(cfg.idem_cap),
            }),
            cfg,
            started: Instant::now(),
            done: Condvar::new(),
        })
    }

    /// Number of member nodes currently placeable.
    pub fn placeable_nodes(&self) -> usize {
        self.state.lock().members.placeable().len()
    }

    /// In-flight entries journaled right now.
    pub fn inflight(&self) -> usize {
        self.state.lock().ledger.inflight()
    }
}

/// The fleet as one [`Node`]: any client of a single worker works against
/// the router unchanged.
impl Node for Router {
    /// Register a worker node after probing it once (an unreachable
    /// worker is refused — a join must mean the router can dispatch).
    fn join(&self, addr: &str, caps: Caps) -> NodeResult<u32> {
        let probe = Client::connect_timeout(addr, self.cfg.dial_timeout)
            .and_then(|mut c| c.ping())
            .map_err(|e| {
                (
                    ErrCode::Invalid,
                    format!("worker at {addr} failed its join probe: {e}"),
                )
            })?;
        let mut st = self.state.lock();
        let id = st.members.join(addr, caps);
        st.members.record_beat(id, probe.0, probe.1);
        st.counters.joins += 1;
        Ok(id)
    }

    /// Stop placing new jobs on `node_id`. In-flight dispatches finish
    /// and resident factors keep routing until the node really goes away.
    fn leave(&self, node_id: u32) -> NodeResult<bool> {
        let mut st = self.state.lock();
        let left = st.members.leave(node_id);
        if left {
            st.counters.leaves += 1;
        }
        Ok(left)
    }

    /// Admit a job, shard it, and return the id result polls use. Keep
    /// jobs return a routed handle (node bits set) after a synchronous
    /// dispatch; fire-and-forget jobs return a router-local id and are
    /// dispatched (possibly twice) in the background.
    fn submit(
        self: &Arc<Self>,
        a: Matrix,
        opts: QrOptions,
        deadline_ms: u32,
        keep: bool,
        client_idem: u64,
    ) -> Result<u64, SubmitError> {
        validate_job(&a, &opts).map_err(SubmitError::Invalid)?;
        let job_bytes = a.nrows() * a.ncols() * 8;
        let idem = crate::client::fresh_idem();
        let placement;
        {
            let mut st = self.state.lock();
            if let Some(known) = st.idem.lookup(client_idem) {
                return Ok(known);
            }
            if st.draining {
                st.counters.rejected += 1;
                return Err(SubmitError::Backpressure {
                    retry_after_ms: 0,
                    queued: st.ledger.inflight() as u32,
                    draining: true,
                });
            }
            if st.ledger.inflight() >= st.ledger.cap() {
                st.counters.rejected += 1;
                return Err(SubmitError::Backpressure {
                    retry_after_ms: 50,
                    queued: st.ledger.inflight() as u32,
                    draining: false,
                });
            }
            placement = place(&st.members, self.cfg.replicate_under, job_bytes, keep);
            if matches!(placement, Placement::None) {
                st.counters.rejected += 1;
                return Err(SubmitError::Node(
                    ErrCode::NodeLost,
                    "no live worker node to place on".into(),
                ));
            }
            if !keep {
                let nodes: Vec<u32> = match placement {
                    Placement::One(n) => vec![n],
                    Placement::Two(x, y) => vec![x, y],
                    Placement::None => unreachable!(),
                };
                if nodes.len() == 2 {
                    st.counters.replicated += 1;
                }
                let id = st.next_id;
                st.next_id += 1;
                let entry = Entry {
                    a: Some(a),
                    opts,
                    deadline_ms,
                    keep: false,
                    idem,
                    admitted: Instant::now(),
                    assignments: nodes
                        .iter()
                        .map(|&n| Assignment {
                            node: n,
                            remote_job: 0,
                            abandoned: false,
                        })
                        .collect(),
                    outcome: None,
                    redispatches: 0,
                };
                assert!(st.ledger.admit(id, entry), "inflight bound checked above");
                for &n in &nodes {
                    if let Some(node) = st.members.get_mut(n) {
                        node.inflight += 1;
                        node.placed += 1;
                    }
                }
                st.idem.remember(client_idem, id);
                drop(st);
                for n in nodes {
                    self.spawn_waiter(id, n, None);
                }
                return Ok(id);
            }
        }
        // Keep: dispatch synchronously to one node so the reply already
        // carries the routed handle the client will solve against.
        let node = match placement {
            Placement::One(n) => n,
            _ => unreachable!("keep jobs place on exactly one node"),
        };
        let addr = {
            let mut st = self.state.lock();
            let Some(m) = st.members.get_mut(node) else {
                return Err(SubmitError::Node(
                    ErrCode::NodeLost,
                    format!("node {node} vanished before dispatch"),
                ));
            };
            m.inflight += 1;
            m.placed += 1;
            m.addr.clone()
        };
        let admitted = Instant::now();
        let remote = Client::connect_timeout(&addr, self.cfg.dial_timeout)
            .and_then(|mut c| c.submit_with_idem(&a, &opts, deadline_ms, true, idem));
        let remote = match remote {
            Ok(r) => r,
            Err(e) => {
                if let Some(m) = self.state.lock().members.get_mut(node) {
                    m.inflight = m.inflight.saturating_sub(1);
                }
                return Err(match e {
                    ClientError::Backpressure {
                        retry_after_ms,
                        queued,
                        draining,
                    } => SubmitError::Backpressure {
                        retry_after_ms,
                        queued,
                        draining,
                    },
                    ClientError::Job { code, msg, .. } => SubmitError::Node(code, msg),
                    other => {
                        self.note_miss(node, None);
                        SubmitError::Node(
                            ErrCode::NodeLost,
                            format!("node {node} failed mid-dispatch: {other}"),
                        )
                    }
                });
            }
        };
        let handle = routed_handle(node, remote);
        {
            let mut st = self.state.lock();
            let entry = Entry {
                a: None, // keep jobs are never re-dispatched: the handle is the node
                opts,
                deadline_ms,
                keep: true,
                idem,
                admitted,
                assignments: vec![Assignment {
                    node,
                    remote_job: remote,
                    abandoned: false,
                }],
                outcome: None,
                redispatches: 0,
            };
            // The bound was checked at entry; a concurrent overshoot past
            // cap is tolerated rather than orphaning the remote job.
            if !st.ledger.admit(handle, entry) {
                st.counters.rejected += 1;
            }
            st.idem.remember(client_idem, handle);
        }
        self.spawn_waiter(handle, node, Some(remote));
        Ok(handle)
    }

    /// Block until `id` resolves; the outcome is exactly the one the
    /// first successful dispatch posted.
    fn wait_result(&self, id: u64) -> Outcome {
        let mut st = self.state.lock();
        loop {
            match st.ledger.get(id) {
                None => return Err((ErrCode::UnknownJob, format!("unknown job {id}"))),
                Some(e) => {
                    if let Some(o) = &e.outcome {
                        return o.clone();
                    }
                }
            }
            self.done.wait(&mut st);
        }
    }

    /// A journaled job's state as the router sees it.
    fn status(&self, id: u64) -> Option<(JobState, u32)> {
        let st = self.state.lock();
        let e = st.ledger.get(id)?;
        let state = match &e.outcome {
            None => JobState::Running,
            Some(Ok(_)) => JobState::Done,
            Some(Err((ErrCode::Cancelled, _))) => JobState::Cancelled,
            Some(Err((ErrCode::DeadlineExpired, _))) => JobState::Expired,
            Some(Err(_)) => JobState::Failed,
        };
        Some((state, 0))
    }

    /// Best-effort cancel: forwarded to every live dispatch; the entry
    /// resolves cancelled if any node still had it queued.
    fn cancel(&self, id: u64) -> bool {
        let targets: Vec<(String, u64)> = {
            let st = self.state.lock();
            match st.ledger.get(id) {
                Some(e) if e.outcome.is_none() => e
                    .assignments
                    .iter()
                    .filter(|a| !a.abandoned && a.remote_job != 0)
                    .filter_map(|a| {
                        st.members
                            .get(a.node)
                            .map(|n| (n.addr.clone(), a.remote_job))
                    })
                    .collect(),
                _ => return false,
            }
        };
        let mut any = false;
        for (addr, rj) in targets {
            if let Ok(mut c) = Client::connect_timeout(&addr, self.cfg.dial_timeout) {
                any |= c.cancel(rj).unwrap_or(false);
            }
        }
        if any {
            self.post_outcome(id, None, Err((ErrCode::Cancelled, "cancelled".into())));
        }
        any
    }

    /// Drain the fleet: stop admission, wait for the ledger to empty,
    /// then cascade a drain to every live member and return the combined
    /// stats (router rollup + per-node sections).
    fn drain(&self) -> String {
        {
            let mut st = self.state.lock();
            st.draining = true;
            while st.ledger.inflight() > 0 {
                self.done.wait(&mut st);
            }
        }
        let sections = self.node_sections(|addr| {
            let stats = Client::connect_timeout(addr, self.cfg.dial_timeout)
                .and_then(|mut c| c.drain())
                .ok()?;
            Json::parse(&stats).ok()
        });
        self.stats_json(sections)
    }

    // Handle verbs are proxied to the node the routed handle names.
    fn solve(&self, handle: u64, b: &Matrix) -> NodeResult<Matrix> {
        self.with_owner(handle, |c, remote| c.solve(remote, b))
    }
    fn apply_q(&self, handle: u64, b: &Matrix, transpose: bool) -> NodeResult<Matrix> {
        self.with_owner(handle, |c, remote| c.apply_q(remote, b, transpose))
    }
    fn update(&self, handle: u64, e: &Matrix) -> NodeResult<u64> {
        self.with_owner(handle, |c, remote| c.update(remote, e))
    }
    fn release(&self, handle: u64) -> NodeResult<bool> {
        self.with_owner(handle, |c, remote| c.release(remote))
    }
    fn load(&self) -> (u32, u32) {
        (self.inflight() as u32, 0)
    }
    // The ledger does not track which outcomes were collected, so the
    // router always lingers its whole grace.
    fn linger(&self) {
        std::thread::sleep(self.cfg.drain_grace);
    }
}

impl Router {
    /// Proxy a handle verb to the owning node. `handle` is routed; the
    /// worker sees only its local part.
    fn with_owner<T>(
        &self,
        handle: u64,
        call: impl FnOnce(&mut Client, u64) -> Result<T, ClientError>,
    ) -> NodeResult<T> {
        let (node, remote) = split_handle(handle);
        if node == 0 {
            return Err((
                ErrCode::Invalid,
                format!("handle {handle} carries no node id (not a routed handle)"),
            ));
        }
        let lost = |why: String| {
            let msg = format!("handle {node}:{remote}: node {node} {why}");
            (ErrCode::NodeLost, msg)
        };
        let addr = match self.state.lock().members.get(node) {
            None => return Err(lost("is not a member".into())),
            Some(n) if n.health == Health::Dead => {
                return Err(lost("is dead (factor unreplicated)".into()))
            }
            Some(n) => n.addr.clone(),
        };
        let mut client = Client::connect_timeout(&addr, self.cfg.dial_timeout)
            .map_err(|e| lost(format!("unreachable: {e}")))?;
        call(&mut client, remote).map_err(|e| match e {
            ClientError::Job { code, msg, .. } => (code, msg),
            e => lost(format!("failed mid-call: {e}")),
        })
    }

    /// One probe round: ping every non-dead member, applying beats and
    /// misses. Public so tests can drive health deterministically without
    /// a live prober thread.
    pub fn probe_once(self: &Arc<Self>) {
        let targets = self.state.lock().members.probe_targets();
        let timeout = Duration::from_millis(self.cfg.probe_timeout_ms.max(10));
        for (id, addr) in targets {
            match Client::connect_timeout(&addr, timeout).and_then(|mut c| c.ping()) {
                Ok((queued, running)) => {
                    self.state.lock().members.record_beat(id, queued, running);
                }
                Err(_) => self.note_miss(id, None),
            }
        }
    }

    /// Stats rollup without dialing any worker (per-node sections carry
    /// membership health but `"stats":null`). The route daemon prints
    /// this after its front end returns; the drained client got the full
    /// cascade from [`Self::drain`].
    pub fn stats_json_standalone(&self) -> String {
        self.stats_json(self.node_sections(|_| None))
    }

    /// One section per member, in id order. `stats_of` supplies a live
    /// member's own stats (dead members and failures report `null`); it
    /// runs off-lock because it may dial the member.
    fn node_sections(&self, stats_of: impl Fn(&str) -> Option<Json>) -> Vec<Json> {
        let members: Vec<(u32, String, Health, u64)> = {
            let st = self.state.lock();
            let all = st.members.all();
            all.iter()
                .map(|n| (n.id, n.addr.clone(), n.health, n.placed))
                .collect()
        };
        members
            .into_iter()
            .map(|(id, addr, health, placed)| {
                let stats = (health != Health::Dead).then(|| stats_of(&addr)).flatten();
                obj([
                    ("node", id.into()),
                    ("addr", Json::Str(addr)),
                    ("health", Json::Str(health.name().into())),
                    ("placed", placed.into()),
                    ("stats", stats.unwrap_or(Json::Null)),
                ])
            })
            .collect()
    }

    /// One-line JSON rollup over the per-node `sections`. Latencies
    /// measure router-admission-to-outcome — a job re-dispatched after a
    /// node death carries its full wait, not just its final node's
    /// service time.
    fn stats_json(&self, sections: Vec<Json>) -> String {
        let st = self.state.lock();
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let [p50, p90, p99] = latency_percentiles(&st.latencies_ms);
        let c = &st.counters;
        obj([
            ("router", Json::Bool(true)),
            ("jobs_done", c.done.into()),
            ("jobs_failed", c.failed.into()),
            ("jobs_cancelled", c.cancelled.into()),
            ("jobs_expired", c.expired.into()),
            ("jobs_rejected", c.rejected.into()),
            ("node_lost", c.node_lost.into()),
            ("redispatched", c.redispatched.into()),
            ("replicated", c.replicated.into()),
            ("idem_hits", st.idem.hits.into()),
            ("idem_evictions", st.idem.evictions.into()),
            ("joins", c.joins.into()),
            ("leaves", c.leaves.into()),
            ("p50_ms", p50),
            ("p90_ms", p90),
            ("p99_ms", p99),
            ("jobs_per_s", milli(c.done as f64 / uptime)),
            ("inflight", st.ledger.inflight().into()),
            ("uptime_s", milli(uptime)),
            ("nodes", Json::Arr(sections)),
        ])
        .write()
    }

    // --- dispatch machinery ------------------------------------------

    fn spawn_waiter(self: &Arc<Self>, id: u64, node: u32, remote: Option<u64>) {
        let router = self.clone();
        std::thread::Builder::new()
            .name("qr-route-waiter".into())
            .spawn(move || router.waiter(id, node, remote))
            .expect("failed to spawn dispatch waiter");
    }

    /// One dispatch: submit (unless already submitted), long-poll the
    /// result, post the outcome. Transport failure feeds the failure
    /// path: node marked missing, entry re-homed or resolved `NodeLost`.
    fn waiter(self: Arc<Self>, id: u64, node: u32, known_remote: Option<u64>) {
        let (addr, payload, deadline_ms) = {
            let mut st = self.state.lock();
            let Some(entry) = st.ledger.get(id) else {
                return;
            };
            if entry.outcome.is_some() {
                return;
            }
            // Deadline rebasing: the clock started at *router* admission,
            // so a re-dispatched job forwards only its remaining budget —
            // and one that already overstayed expires here, undipatched.
            let mut remaining = entry.deadline_ms;
            if entry.deadline_ms > 0 {
                let elapsed = entry.admitted.elapsed().as_millis() as u64;
                if elapsed >= u64::from(entry.deadline_ms) {
                    resolve_locked(
                        &mut st,
                        id,
                        Err((
                            ErrCode::DeadlineExpired,
                            "deadline expired at the router".into(),
                        )),
                    );
                    self.done.notify_all();
                    return;
                }
                remaining = (u64::from(entry.deadline_ms) - elapsed).max(1) as u32;
            }
            let payload = if known_remote.is_none() {
                let Some(a) = entry.a.clone() else { return };
                Some((a, entry.opts.clone(), entry.keep, entry.idem))
            } else {
                None
            };
            let Some(m) = st.members.get(node) else {
                drop(st);
                self.note_miss(node, Some(id));
                return;
            };
            (m.addr.clone(), payload, remaining)
        };
        let result = dispatch_remote(&addr, payload, deadline_ms, known_remote, |rj| {
            self.record_remote_job(id, node, rj)
        });
        match result {
            Ok(outcome) => self.post_outcome(id, Some(node), outcome),
            Err(_transport) => self.note_miss(node, Some(id)),
        }
    }

    fn record_remote_job(&self, id: u64, node: u32, remote: u64) {
        let mut st = self.state.lock();
        if let Some(e) = st.ledger.get_mut(id) {
            for a in &mut e.assignments {
                if a.node == node && !a.abandoned && a.remote_job == 0 {
                    a.remote_job = remote;
                    break;
                }
            }
        }
    }

    /// Post a terminal outcome (first one wins), cancel losing replicas,
    /// and wake result polls.
    fn post_outcome(&self, id: u64, winner: Option<u32>, outcome: Outcome) {
        let mut cancels: Vec<(String, u64)> = Vec::new();
        {
            let mut st = self.state.lock();
            let Some(entry) = st.ledger.get(id) else {
                return;
            };
            if entry.outcome.is_some() {
                return; // a replica answered first; drop the duplicate
            }
            let live: Vec<(u32, u64)> = entry
                .assignments
                .iter()
                .filter(|a| !a.abandoned)
                .map(|a| (a.node, a.remote_job))
                .collect();
            if let Some(e) = st.ledger.get_mut(id) {
                for a in &mut e.assignments {
                    a.abandoned = true;
                }
            }
            for (n, rj) in &live {
                if let Some(m) = st.members.get_mut(*n) {
                    m.inflight = m.inflight.saturating_sub(1);
                }
                if winner != Some(*n) && *rj != 0 {
                    if let Some(m) = st.members.get(*n) {
                        cancels.push((m.addr.clone(), *rj));
                    }
                }
            }
            resolve_locked(&mut st, id, outcome);
            self.done.notify_all();
        }
        // The race is settled; losers are cancelled off-lock, best effort
        // (a loser that already ran just produced the same bits).
        let dial = self.cfg.dial_timeout;
        for (addr, rj) in cancels {
            std::thread::spawn(move || {
                if let Ok(mut c) = Client::connect_timeout(&addr, dial) {
                    let _ = c.cancel(rj);
                }
            });
        }
    }

    /// Count a miss against `node` — a probe's, or the severed dispatch of
    /// entry `failed`, whose assignment there is written off — and re-home
    /// what that strands: `failed` itself, plus every entry on the node if
    /// this miss was the dead transition (so each is re-homed exactly once).
    fn note_miss(self: &Arc<Self>, node: u32, failed: Option<u64>) {
        let mut spawns = Vec::new();
        {
            let mut st = self.state.lock();
            let mut ids = Vec::from_iter(failed);
            for &id in &ids {
                abandon_on_node(&mut st, id, node);
            }
            if st.members.record_miss(node).1 {
                for id in st.ledger.stranded_on(node) {
                    abandon_on_node(&mut st, id, node);
                    ids.push(id);
                }
            }
            let mut resolved_any = false;
            for id in ids {
                match redispatch_entry(&mut st, &self.cfg, id) {
                    Redispatch::Spawn(n) => spawns.push((id, n)),
                    Redispatch::Resolved => resolved_any = true,
                    Redispatch::Covered => {}
                }
            }
            if resolved_any {
                self.done.notify_all();
            }
        }
        for (id, n) in spawns {
            self.spawn_waiter(id, n, None);
        }
    }
}

/// Mark `id`'s live assignment on `node` abandoned and return the
/// node's in-flight credit.
fn abandon_on_node(st: &mut RState, id: u64, node: u32) {
    let mut hit = false;
    if let Some(e) = st.ledger.get_mut(id) {
        for a in &mut e.assignments {
            if a.node == node && !a.abandoned {
                a.abandoned = true;
                hit = true;
            }
        }
    }
    if hit {
        if let Some(m) = st.members.get_mut(node) {
            m.inflight = m.inflight.saturating_sub(1);
        }
    }
}

/// Decide what happens to an entry that just lost a dispatch.
fn redispatch_entry(st: &mut RState, cfg: &RouteConfig, id: u64) -> Redispatch {
    let Some(entry) = st.ledger.get(id) else {
        return Redispatch::Covered;
    };
    if entry.outcome.is_some() || !entry.live_nodes().is_empty() {
        return Redispatch::Covered; // settled, or a replica still racing
    }
    // A keep job is pinned: its routed handle names the dead node, so a
    // re-home would mint a different handle than the one the client holds.
    if entry.keep {
        resolve_locked(
            st,
            id,
            Err((
                ErrCode::NodeLost,
                "the node owning this keep job died before completing it".into(),
            )),
        );
        return Redispatch::Resolved;
    }
    if entry.redispatches >= cfg.redispatch_max {
        resolve_locked(
            st,
            id,
            Err((
                ErrCode::NodeLost,
                format!("re-dispatch budget ({}) exhausted", cfg.redispatch_max),
            )),
        );
        return Redispatch::Resolved;
    }
    let tried: Vec<u32> = entry.assignments.iter().map(|a| a.node).collect();
    let job_bytes = entry.a.as_ref().map_or(0, |a| a.nrows() * a.ncols() * 8);
    let keep = entry.keep;
    // Prefer an untried survivor; failing that, any placeable node (the
    // idempotency key makes a same-node retry safe).
    let target = match place(&st.members, cfg.replicate_under, job_bytes, keep) {
        Placement::None => None,
        Placement::One(n) | Placement::Two(n, _) if !tried.contains(&n) => Some(n),
        _ => st
            .members
            .placeable()
            .iter()
            .map(|n| n.id)
            .find(|n| !tried.contains(n))
            .or_else(|| st.members.placeable().first().map(|n| n.id)),
    };
    let Some(target) = target else {
        resolve_locked(
            st,
            id,
            Err((
                ErrCode::NodeLost,
                "no surviving node to re-dispatch to".into(),
            )),
        );
        return Redispatch::Resolved;
    };
    if let Some(e) = st.ledger.get_mut(id) {
        e.redispatches += 1;
        e.assignments.push(Assignment {
            node: target,
            remote_job: 0,
            abandoned: false,
        });
    }
    if let Some(m) = st.members.get_mut(target) {
        m.inflight += 1;
        m.placed += 1;
    }
    st.counters.redispatched += 1;
    Redispatch::Spawn(target)
}

/// Resolve an entry and do the outcome bookkeeping (latency sample,
/// counters). Caller notifies the condvar.
fn resolve_locked(st: &mut RState, id: u64, outcome: Outcome) {
    let Some(entry) = st.ledger.get(id) else {
        return;
    };
    if entry.outcome.is_some() {
        return;
    }
    let latency_ms = entry.admitted.elapsed().as_secs_f64() * 1e3;
    match &outcome {
        Ok(_) => st.counters.done += 1,
        Err((ErrCode::DeadlineExpired, _)) => st.counters.expired += 1,
        Err((ErrCode::Cancelled, _)) => st.counters.cancelled += 1,
        Err((ErrCode::NodeLost, _)) => st.counters.node_lost += 1,
        Err(_) => st.counters.failed += 1,
    }
    if st.ledger.resolve(id, outcome) {
        st.latencies_ms.push(latency_ms);
    }
}

/// Run one dispatch against a worker: submit under the ledger's idem key
/// (unless the remote id is already known), then long-poll the result.
/// `Ok` carries the semantic outcome; `Err` is a transport failure the
/// caller turns into a node-failure signal.
fn dispatch_remote(
    addr: &str,
    payload: Option<(Matrix, QrOptions, bool, u64)>,
    deadline_ms: u32,
    known_remote: Option<u64>,
    record_remote: impl FnOnce(u64),
) -> Result<Outcome, ClientError> {
    // No read deadline: the result call parks server-side for as long as
    // the job takes. A killed node surfaces as EOF/reset, which is
    // exactly the failure signal wanted here.
    let mut client = Client::connect(addr)?;
    let remote = match known_remote {
        Some(r) => r,
        None => {
            let (a, opts, keep, idem) = payload.expect("fresh dispatch carries its payload");
            // Bounded backpressure courtesy: honor a busy worker's hint a
            // few times before giving up with a typed error (the router
            // already bounded admission; this only smooths bursts).
            let mut attempts = 0u32;
            loop {
                match client.submit_with_idem(&a, &opts, deadline_ms, keep, idem) {
                    Ok(r) => break r,
                    Err(ClientError::Backpressure {
                        draining: false,
                        retry_after_ms,
                        ..
                    }) if attempts < 20 => {
                        attempts += 1;
                        std::thread::sleep(Duration::from_millis(
                            u64::from(retry_after_ms).clamp(1, 100),
                        ));
                    }
                    Err(ClientError::Backpressure { .. }) => {
                        return Ok(Err((
                            ErrCode::Failed,
                            "worker backpressure never cleared".into(),
                        )))
                    }
                    Err(ClientError::Job { code, msg, .. }) => return Ok(Err((code, msg))),
                    Err(e) => return Err(e),
                }
            }
        }
    };
    record_remote(remote);
    match client.result(remote) {
        Ok(r) => Ok(Ok(r)),
        Err(ClientError::Job { code, msg, .. }) => Ok(Err((code, msg))),
        Err(e) => Err(e),
    }
}

/// Serve the router on `listener` until a client sends a drain: the
/// worker front end ([`serve_node`]) over a [`Router`], plus the health
/// prober. The final drain cascades to every member node.
pub fn route(listener: TcpListener, router: Arc<Router>) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let (router, stop) = (router.clone(), stop.clone());
        let beat = Duration::from_millis(router.cfg.heartbeat_ms.max(5));
        std::thread::Builder::new()
            .name("qr-route-prober".into())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(beat);
                    router.probe_once();
                }
            })
            .expect("failed to spawn router prober")
    };
    let served = serve_node(listener, router, None);
    stop.store(true, Ordering::Release);
    let _ = prober.join();
    served
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_handles_pack_and_split() {
        let h = routed_handle(3, 7);
        assert_eq!(split_handle(h), (3, 7));
        assert_eq!(split_handle(42), (0, 42), "local handles carry node 0");
        let max = routed_handle(u16::MAX as u32, REMOTE_MASK);
        assert_eq!(split_handle(max), (u16::MAX as u32, REMOTE_MASK));
    }
}
