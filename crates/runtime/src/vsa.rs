//! The Virtual Systolic Array: construction and execution.

use crate::channel::{ChannelQueue, ChannelSpec};
use crate::checkpoint::{self, CheckpointError, RankCheckpoint, VdpEntry};
use crate::error::RunError;
use crate::net::{NetModel, RouteTable};
use crate::packet::{Packet, PacketRegistry, WireError};
use crate::pool::{PoolJob, VsaPool};
use crate::sched::{worker_loop, OutgoingQueue, ThreadNotifier};
use crate::trace::{Trace, TraceCollector};
use crate::tuple::Tuple;
use crate::vdp::{OutputTarget, VdpSpec, VdpState, WorkerScratch};
use parking_lot::Mutex;
use pulsar_fabric::{
    Fabric, FaultLog, FaultPlan, FaultyFabric, InProcFabric, RetryPolicy, TcpFabric,
};
use std::collections::HashMap;
use std::net::TcpListener;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which VDP a tuple maps to: a node and a node-local worker thread.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Place {
    /// Virtual node (paper: one MPI process per node).
    pub node: usize,
    /// Worker thread within the node.
    pub thread: usize,
}

/// The user-supplied many-to-one VDP→thread mapping function.
pub type MappingFn = Arc<dyn Fn(&Tuple) -> Place + Send + Sync>;

/// VDP firing policy within a worker sweep (Section IV-A).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SchedScheme {
    /// Fire a ready VDP once, then move to the next VDP. Encourages
    /// lookahead (panel/update interleaving) — the paper's better choice
    /// for tree-based QR.
    Lazy,
    /// Keep refiring a VDP while it stays ready.
    Aggressive,
}

/// How a run's nodes talk to each other.
#[derive(Clone)]
pub enum Backend {
    /// All nodes live in this process as thread groups, connected by
    /// in-memory queues (packets cross "the network" by pointer).
    InProcess,
    /// This process is ONE node of a multi-process run over TCP sockets.
    Tcp(TcpBackend),
}

/// Parameters for joining a multi-process TCP run ([`Backend::Tcp`]).
///
/// Every rank runs the same program, builds the identical [`Vsa`], and
/// passes the same peer table — SPMD, like the paper's MPI processes. Only
/// the VDPs mapped to `rank` are materialized locally.
#[derive(Clone)]
pub struct TcpBackend {
    /// This process's node index.
    pub rank: usize,
    /// Listener already bound to `peers[rank]` (bind first, then exchange
    /// addresses, so no connection races the rendezvous).
    pub listener: Arc<Mutex<Option<TcpListener>>>,
    /// Address table, one entry per rank.
    pub peers: Vec<String>,
    /// Decoders for every payload type that crosses node boundaries.
    pub registry: Arc<PacketRegistry>,
    /// How long to keep retrying the mesh dial-up.
    pub connect_timeout: Duration,
}

impl TcpBackend {
    /// Backend for `rank` with a bound `listener` and the run's address
    /// table, decoding arrivals with `registry`.
    pub fn new(
        rank: usize,
        listener: TcpListener,
        peers: Vec<String>,
        registry: PacketRegistry,
    ) -> Self {
        TcpBackend {
            rank,
            listener: Arc::new(Mutex::new(Some(listener))),
            peers,
            registry: Arc::new(registry),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// Execution parameters for [`Vsa::run`].
#[derive(Clone)]
pub struct RunConfig {
    /// Number of virtual nodes (distributed-memory domains).
    pub nodes: usize,
    /// Worker threads per node.
    pub threads_per_node: usize,
    /// Firing policy.
    pub scheme: SchedScheme,
    /// VDP→thread mapping.
    pub mapping: MappingFn,
    /// Record an execution trace.
    pub trace: bool,
    /// Optional interconnect model applied to inter-node packets.
    pub net: Option<NetModel>,
    /// Abort (with diagnostics) when no VDP fires for this long.
    pub deadlock_timeout: Option<Duration>,
    /// Inter-node transport.
    pub backend: Backend,
    /// Deterministic fault injection applied to every local fabric
    /// endpoint (chaos testing). Requires `chaos_registry` under
    /// [`Backend::InProcess`], because injected faults operate on wire
    /// bytes.
    pub fault: Option<FaultPlan>,
    /// Decoders for the wire-encoded packets a fault-injected in-process
    /// run moves between nodes.
    pub chaos_registry: Option<Arc<PacketRegistry>>,
    /// Heartbeat interval for [`Backend::Tcp`]: probe peers this often and
    /// declare one dead after five silent intervals.
    pub heartbeat: Option<Duration>,
    /// Where per-rank checkpoint files go. Setting this alone writes the
    /// epoch-0 snapshot (initial state, before any firing); combined with
    /// [`RunConfig::checkpoint_every`] under [`Backend::Tcp`] it also
    /// enables periodic coordinated checkpoints.
    pub checkpoint_dir: Option<PathBuf>,
    /// How often rank 0 initiates a coordinated quiescent checkpoint
    /// (periodic rounds require [`Backend::Tcp`] with more than one node;
    /// other backends get the epoch-0 snapshot only).
    pub checkpoint_every: Option<Duration>,
    /// Restore state from the newest checkpoint epoch every rank completed
    /// in `checkpoint_dir` instead of starting fresh.
    pub resume: bool,
    /// In-run recovery for transient connection faults under
    /// [`Backend::Tcp`]: redial and replay un-acked frames this many times
    /// before escalating to a fatal [`RunError`].
    pub retry: RetryPolicy,
    /// Chaos hook: panic deterministically on the first firing of this
    /// VDP, exercising the real quarantine path
    /// ([`crate::RunError::VdpPanicked`]). Unlike [`RunConfig::fault`] this
    /// needs no wire codec, so pooled runs accept it.
    pub chaos_panic: Option<Tuple>,
}

impl RunConfig {
    /// Single-node configuration with a deterministic default mapping that
    /// spreads tuples over `threads` by hashing.
    pub fn smp(threads: usize) -> Self {
        RunConfig {
            nodes: 1,
            threads_per_node: threads,
            scheme: SchedScheme::Lazy,
            mapping: Arc::new(move |t: &Tuple| {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &v in t.ids() {
                    h = (h ^ v as u64).wrapping_mul(0x1000_0000_01b3);
                }
                Place {
                    node: 0,
                    thread: (h % threads as u64) as usize,
                }
            }),
            trace: false,
            net: None,
            deadlock_timeout: Some(Duration::from_secs(30)),
            backend: Backend::InProcess,
            fault: None,
            chaos_registry: None,
            heartbeat: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            retry: RetryPolicy::none(),
            chaos_panic: None,
        }
    }

    /// Multi-node configuration with an explicit mapping.
    pub fn cluster(nodes: usize, threads_per_node: usize, mapping: MappingFn) -> Self {
        RunConfig {
            nodes,
            threads_per_node,
            scheme: SchedScheme::Lazy,
            mapping,
            trace: false,
            net: None,
            deadlock_timeout: Some(Duration::from_secs(30)),
            backend: Backend::InProcess,
            fault: None,
            chaos_registry: None,
            heartbeat: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            retry: RetryPolicy::none(),
            chaos_panic: None,
        }
    }

    /// Enable trace recording.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Set the firing policy.
    pub fn with_scheme(mut self, s: SchedScheme) -> Self {
        self.scheme = s;
        self
    }

    /// Attach an interconnect model.
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = Some(net);
        self
    }

    /// Select the inter-node transport.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Inject faults per `plan` at every local fabric endpoint. The
    /// `registry` decodes the wire-encoded packets an in-process chaos run
    /// moves between nodes (pass the same registry a TCP run would use).
    pub fn with_fault(mut self, plan: FaultPlan, registry: Arc<PacketRegistry>) -> Self {
        self.fault = Some(plan);
        self.chaos_registry = Some(registry);
        self
    }

    /// Enable TCP heartbeats: probe peers every `interval`, declare one
    /// dead ([`crate::RunError::PeerLost`]) after five silent intervals.
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// Write checkpoints into `dir`: the epoch-0 snapshot always, plus a
    /// coordinated quiescent checkpoint every `every` (periodic rounds run
    /// only under [`Backend::Tcp`] with more than one node).
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>, every: Option<Duration>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every;
        self
    }

    /// Resume from the newest checkpoint epoch every rank completed in the
    /// configured checkpoint directory.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Heal transient connection faults in-run: redial up to
    /// `retry.attempts` times with `retry.backoff` between attempts,
    /// replaying un-acked frames after each reconnect.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Panic deterministically on the first firing of `tuple` (chaos
    /// testing of the VDP-quarantine path). Works under every backend,
    /// including pooled runs.
    pub fn with_chaos_panic(mut self, tuple: Tuple) -> Self {
        self.chaos_panic = Some(tuple);
        self
    }
}

/// Counters and statistics from a completed run.
///
/// Under [`Backend::Tcp`] every count is local to this rank (each process
/// sees only its own VDPs and proxy).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Total VDP firings.
    pub fired: usize,
    /// Inter-node messages posted to the fabric.
    pub remote_msgs: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Firings per global worker thread (load-balance diagnostics).
    pub fired_per_thread: Vec<usize>,
    /// Deepest any channel queue ever got — the memory high-water mark of
    /// the run (Section II: unbounded queues can exhaust node memory).
    pub peak_channel_depth: usize,
    /// Payload bytes handed to the fabric (actual frame bodies for TCP,
    /// declared packet bytes in-process).
    pub wire_bytes_sent: u64,
    /// Payload bytes received from the fabric.
    pub wire_bytes_recv: u64,
    /// Arrivals the [`NetModel`] held back before delivery.
    pub deferred_msgs: usize,
    /// Proxy loop iterations that found no work and napped.
    pub proxy_idle_spins: usize,
    /// Heartbeat probes the local fabric(s) queued to peers.
    pub heartbeats_sent: u64,
    /// Liveness deadlines that expired on the local fabric(s).
    pub heartbeats_missed: u64,
    /// Redials during TCP mesh-up (exponential backoff).
    pub reconnect_attempts: u64,
    /// Sends that needed more than one write attempt.
    pub retried_sends: u64,
    /// VDPs destroyed because their firing panicked.
    pub quarantined_vdps: usize,
    /// Checkpoint files this rank wrote (epoch 0 included).
    pub checkpoints_written: u64,
    /// Total bytes of checkpoint files written.
    pub checkpoint_bytes: u64,
    /// Frames resent from the replay log after a reconnect.
    pub frames_replayed: u64,
    /// Connection faults the retry policy healed in-run.
    pub retries_healed: u64,
    /// What the fault injector did to this rank (`with_fault` runs only).
    pub fault_log: Option<FaultLog>,
}

impl RunStats {
    /// Load imbalance: max over mean of per-thread firing counts
    /// (1.0 = perfectly balanced; only threads that own VDPs count).
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<usize> = self.fired_per_thread.to_vec();
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        let sum: usize = busy.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        max * busy.len() as f64 / sum as f64
    }
}

/// Everything a completed run produced.
pub struct RunOutput {
    /// Packets that left the array through exit channels, keyed by the
    /// (nonexistent) destination tuple and slot of the exit channel.
    pub exits: HashMap<(Tuple, usize), Vec<Packet>>,
    /// Execution trace, when requested.
    pub trace: Option<Trace>,
    /// Run statistics.
    pub stats: RunStats,
}

impl RunOutput {
    /// Take the packets delivered to exit `(tuple, slot)`.
    pub fn take_exit(&mut self, tuple: impl Into<Tuple>, slot: usize) -> Vec<Packet> {
        self.exits.remove(&(tuple.into(), slot)).unwrap_or_default()
    }
}

/// Checkpoint protocol phase: workers run normally.
pub(crate) const CKPT_RUN: u8 = 0;
/// Workers must stop at the next firing boundary and report parked.
pub(crate) const CKPT_PARK: u8 = 1;
/// The epoch is sealed; workers serialize their VDP sets.
pub(crate) const CKPT_SERIALIZE: u8 = 2;

/// Coordination state for periodic coordinated checkpoints (present only
/// when the run can take them: TCP backend, several nodes, an interval and
/// a directory configured).
pub(crate) struct CkptControl {
    /// Current protocol phase ([`CKPT_RUN`]/[`CKPT_PARK`]/[`CKPT_SERIALIZE`]).
    pub phase: AtomicU8,
    /// Workers parked this round (the proxy resets it when resuming them).
    pub parked: AtomicUsize,
    /// Workers done serializing this round.
    pub done: AtomicUsize,
    /// Per-global-thread serialized VDP entries, collected by the proxy.
    pub buffers: Vec<Mutex<Option<Vec<VdpEntry>>>>,
    /// Set by a node's proxy on clean exit; releases lingering workers.
    pub shutdown: AtomicBool,
    /// Destination directory for per-rank checkpoint files.
    pub dir: PathBuf,
    /// Rank 0's initiation interval.
    pub every: Duration,
    /// Epoch this run restored from (0 fresh); rounds continue at +1.
    pub start_epoch: AtomicU64,
}

/// Global state shared by all workers and proxies of a run.
pub(crate) struct Shared {
    pub notifiers: Vec<Arc<ThreadNotifier>>,
    pub exits: Mutex<HashMap<(Tuple, usize), Vec<Packet>>>,
    /// Per-node count of not-yet-destroyed VDPs; a node's proxy may enter
    /// the shutdown barrier once its entry reaches zero.
    pub live: Vec<AtomicUsize>,
    pub sent: AtomicUsize,
    pub fired: AtomicUsize,
    pub fired_per_thread: Vec<AtomicUsize>,
    pub wire_bytes_sent: AtomicU64,
    pub wire_bytes_recv: AtomicU64,
    pub deferred: AtomicUsize,
    pub idle_spins: AtomicUsize,
    pub heartbeats_sent: AtomicU64,
    pub heartbeats_missed: AtomicU64,
    pub reconnect_attempts: AtomicU64,
    pub retried_sends: AtomicU64,
    pub quarantined: AtomicUsize,
    pub checkpoints_written: AtomicU64,
    pub checkpoint_bytes: AtomicU64,
    pub frames_replayed: AtomicU64,
    pub retries_healed: AtomicU64,
    /// Folded from every local fault-injecting fabric endpoint.
    pub fault_log: Mutex<Option<FaultLog>>,
    /// Present when periodic coordinated checkpoints are enabled.
    pub ckpt: Option<CkptControl>,
    pub trace: Option<TraceCollector>,
    pub net: Option<NetModel>,
    pub deadlock_timeout: Option<Duration>,
    pub threads_per_node: usize,
    /// Chaos hook: the VDP whose first firing must panic.
    pub chaos_panic: Option<Tuple>,
    /// First run error observed; later reports are discarded.
    error: Mutex<Option<RunError>>,
    t0: Instant,
    last_progress_us: AtomicU64,
    aborted: AtomicBool,
}

impl Shared {
    pub fn global_thread(&self, node: usize, local: usize) -> usize {
        node * self.threads_per_node + local
    }

    /// Wake every worker of one node (checkpoint phase transitions).
    pub fn notify_node(&self, node: usize) {
        let base = node * self.threads_per_node;
        for n in &self.notifiers[base..base + self.threads_per_node] {
            n.notify();
        }
    }

    pub fn mark_progress(&self) {
        let us = self.t0.elapsed().as_micros() as u64;
        self.last_progress_us.store(us, Ordering::Relaxed);
    }

    pub fn since_progress(&self) -> Duration {
        let last = self.last_progress_us.load(Ordering::Relaxed);
        let now = self.t0.elapsed().as_micros() as u64;
        Duration::from_micros(now.saturating_sub(last))
    }

    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        for n in &self.notifiers {
            n.notify();
        }
    }

    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Record a run error (first one wins) and tear the run down.
    pub fn fail(&self, e: RunError) {
        {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
        self.abort();
    }

    /// The recorded error, if any.
    pub fn take_error(&self) -> Option<RunError> {
        self.error.lock().take()
    }
}

/// Per-node state shared between the node's workers and its proxy.
pub(crate) struct NodeShared {
    pub outgoing: Vec<OutgoingQueue>,
}

/// A Virtual Systolic Array under construction: VDPs + channels + seeds
/// (`prt_vsa_new` / `prt_vsa_vdp_insert` analogue).
#[derive(Default)]
pub struct Vsa {
    vdps: Vec<VdpSpec>,
    by_tuple: HashMap<Tuple, usize>,
    channels: Vec<ChannelSpec>,
    seeds: Vec<(Tuple, usize, Packet)>,
}

impl Vsa {
    /// An empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a VDP. Tuples must be unique and counters positive.
    pub fn add_vdp(&mut self, spec: VdpSpec) {
        assert!(spec.counter > 0, "VDP {} has zero counter", spec.tuple);
        let prev = self.by_tuple.insert(spec.tuple.clone(), self.vdps.len());
        assert!(prev.is_none(), "duplicate VDP tuple {}", spec.tuple);
        self.vdps.push(spec);
    }

    /// Insert a channel. A channel whose destination tuple has no VDP is an
    /// *exit* channel: its packets are collected into [`RunOutput::exits`].
    pub fn add_channel(&mut self, spec: ChannelSpec) {
        self.channels.push(spec);
    }

    /// Queue an initial packet on input `slot` of `dst` before the run
    /// starts (this is how the matrix tiles enter the array). If no channel
    /// feeds that slot, an implicit one is created.
    pub fn seed(&mut self, dst: impl Into<Tuple>, slot: usize, p: Packet) {
        self.seeds.push((dst.into(), slot, p));
    }

    /// Number of VDPs currently in the array.
    pub fn vdp_count(&self) -> usize {
        self.vdps.len()
    }

    /// Number of channels currently in the array.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Check the array's wiring against a configuration without running
    /// it: slot bounds, slot conflicts, dangling channels, seed targets,
    /// and mapping placements. Returns every problem found. `run` enforces
    /// the same invariants with panics; this gives them all at once.
    pub fn validate(&self, config: &RunConfig) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let mut in_used: HashMap<(usize, usize), usize> = HashMap::new();
        let mut out_used: HashMap<(usize, usize), usize> = HashMap::new();

        for (ci, ch) in self.channels.iter().enumerate() {
            let src = self.by_tuple.get(&ch.src);
            let dst = self.by_tuple.get(&ch.dst);
            if src.is_none() && dst.is_none() {
                errors.push(format!(
                    "channel #{ci} {}:{} -> {}:{} connects two nonexistent VDPs",
                    ch.src, ch.src_slot, ch.dst, ch.dst_slot
                ));
                continue;
            }
            if let Some(&s) = src {
                if ch.src_slot >= self.vdps[s].n_out {
                    errors.push(format!(
                        "channel #{ci}: output slot {} out of range for VDP {} ({} outputs)",
                        ch.src_slot, ch.src, self.vdps[s].n_out
                    ));
                } else if let Some(prev) = out_used.insert((s, ch.src_slot), ci) {
                    errors.push(format!(
                        "VDP {} output slot {} wired by channels #{prev} and #{ci}",
                        ch.src, ch.src_slot
                    ));
                }
            }
            if let Some(&d) = dst {
                if ch.dst_slot >= self.vdps[d].n_in {
                    errors.push(format!(
                        "channel #{ci}: input slot {} out of range for VDP {} ({} inputs)",
                        ch.dst_slot, ch.dst, self.vdps[d].n_in
                    ));
                } else if let Some(prev) = in_used.insert((d, ch.dst_slot), ci) {
                    errors.push(format!(
                        "VDP {} input slot {} wired by channels #{prev} and #{ci}",
                        ch.dst, ch.dst_slot
                    ));
                }
            }
        }
        for (dst, slot, _) in &self.seeds {
            match self.by_tuple.get(dst) {
                None => errors.push(format!("seed targets nonexistent VDP {dst}")),
                Some(&d) => {
                    if *slot >= self.vdps[d].n_in {
                        errors.push(format!(
                            "seed targets out-of-range input slot {slot} of VDP {dst}"
                        ));
                    }
                }
            }
        }
        for v in &self.vdps {
            let p = (config.mapping)(&v.tuple);
            if p.node >= config.nodes || p.thread >= config.threads_per_node {
                errors.push(format!(
                    "mapping places VDP {} at {:?}, outside {} nodes x {} threads",
                    v.tuple, p, config.nodes, config.threads_per_node
                ));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Build everything a run needs short of spawning threads: placement,
    /// VDP states, the [`Shared`] block, channel wiring, seeds, checkpoint
    /// base/restore, and the per-thread work partition. Shared by
    /// [`Vsa::run`] (scoped threads) and [`Vsa::run_pooled`] (warm pool).
    fn prepare(self, config: &RunConfig) -> Result<Prepared, RunError> {
        let Vsa {
            vdps,
            by_tuple,
            channels,
            seeds,
        } = self;
        let nodes = config.nodes;
        let tpn = config.threads_per_node;
        assert!(nodes > 0 && tpn > 0);
        let local_nodes: Range<usize> = match &config.backend {
            Backend::InProcess => 0..nodes,
            Backend::Tcp(t) => {
                assert_eq!(
                    t.peers.len(),
                    nodes,
                    "TCP peer table size must match config.nodes"
                );
                assert!(t.rank < nodes, "TCP rank {} out of range", t.rank);
                t.rank..t.rank + 1
            }
        };

        // Resolve VDP placements.
        let places: Vec<Place> = vdps
            .iter()
            .map(|v| {
                let p = (config.mapping)(&v.tuple);
                assert!(
                    p.node < nodes && p.thread < tpn,
                    "mapping put VDP {} at invalid place {:?}",
                    v.tuple,
                    p
                );
                p
            })
            .collect();
        let mut live_per_node = vec![0usize; nodes];
        for p in &places {
            live_per_node[p.node] += 1;
        }

        // Materialize VDP states — only the ones that live on this process.
        let mut states: Vec<Option<VdpState>> = vdps
            .into_iter()
            .zip(&places)
            .map(|(spec, place)| {
                local_nodes.contains(&place.node).then(|| VdpState {
                    tuple: spec.tuple,
                    counter: spec.counter,
                    fired: 0,
                    inputs: (0..spec.n_in).map(|_| None).collect(),
                    outputs: (0..spec.n_out).map(|_| None).collect(),
                    logic: Some(spec.logic),
                })
            })
            .collect();

        let t0 = Instant::now();
        // Periodic coordinated checkpoints need a real inter-process
        // transport (the quiescence barrier seals an epoch across ranks);
        // other backends still get the epoch-0 snapshot below.
        let ckpt = match (&config.backend, config.checkpoint_dir.as_ref()) {
            (Backend::Tcp(_), Some(dir)) if nodes > 1 => {
                config.checkpoint_every.map(|every| CkptControl {
                    phase: AtomicU8::new(CKPT_RUN),
                    parked: AtomicUsize::new(0),
                    done: AtomicUsize::new(0),
                    buffers: (0..nodes * tpn).map(|_| Mutex::new(None)).collect(),
                    shutdown: AtomicBool::new(false),
                    dir: dir.clone(),
                    every,
                    start_epoch: AtomicU64::new(0),
                })
            }
            _ => None,
        };
        let shared = Shared {
            notifiers: (0..nodes * tpn).map(|_| ThreadNotifier::new()).collect(),
            exits: Mutex::new(HashMap::new()),
            live: live_per_node.into_iter().map(AtomicUsize::new).collect(),
            sent: AtomicUsize::new(0),
            fired: AtomicUsize::new(0),
            fired_per_thread: (0..nodes * tpn).map(|_| AtomicUsize::new(0)).collect(),
            wire_bytes_sent: AtomicU64::new(0),
            wire_bytes_recv: AtomicU64::new(0),
            deferred: AtomicUsize::new(0),
            idle_spins: AtomicUsize::new(0),
            heartbeats_sent: AtomicU64::new(0),
            heartbeats_missed: AtomicU64::new(0),
            reconnect_attempts: AtomicU64::new(0),
            retried_sends: AtomicU64::new(0),
            quarantined: AtomicUsize::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            frames_replayed: AtomicU64::new(0),
            retries_healed: AtomicU64::new(0),
            fault_log: Mutex::new(None),
            ckpt,
            trace: config.trace.then(|| TraceCollector::new(t0, nodes * tpn)),
            net: config.net,
            deadlock_timeout: config.deadlock_timeout,
            threads_per_node: tpn,
            chaos_panic: config.chaos_panic.clone(),
            error: Mutex::new(None),
            t0,
            last_progress_us: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
        };

        // Wire channels (keep a registry to report queue high-water marks).
        // Wire ids advance for every cross-node channel whether or not an
        // endpoint is local, keeping the SPMD ranks' tables aligned.
        let mut all_queues: Vec<Arc<ChannelQueue>> = Vec::new();
        let mut routes: Vec<RouteTable> = (0..nodes).map(|_| RouteTable::new()).collect();
        let mut next_wire: u32 = 0;
        for ch in channels {
            let dst_idx = by_tuple.get(&ch.dst).copied();
            let src_idx = by_tuple.get(&ch.src).copied();
            match (src_idx, dst_idx) {
                (Some(s), Some(d)) => {
                    let (sp, dp) = (places[s], places[d]);
                    let wire_id = (sp.node != dp.node).then(|| {
                        let w = next_wire;
                        next_wire += 1;
                        w
                    });
                    let owner = shared.global_thread(dp.node, dp.thread);
                    let queue = local_nodes.contains(&dp.node).then(|| {
                        let queue = ChannelQueue::new(ch.max_bytes, ch.enabled);
                        all_queues.push(queue.clone());
                        attach_input(states[d].as_mut().unwrap(), ch.dst_slot, queue.clone(), &ch);
                        if let Some(w) = wire_id {
                            routes[dp.node].insert(w, (queue.clone(), owner));
                        }
                        queue
                    });
                    if local_nodes.contains(&sp.node) {
                        let target = match wire_id {
                            None => OutputTarget::Local {
                                queue: queue.expect("same-node channel has a queue"),
                                owner,
                            },
                            Some(w) => OutputTarget::Remote {
                                wire_id: w,
                                dst_node: dp.node,
                            },
                        };
                        attach_output(states[s].as_mut().unwrap(), ch.src_slot, target, &ch);
                    }
                }
                (Some(s), None) => {
                    // Exit channel.
                    if local_nodes.contains(&places[s].node) {
                        attach_output(
                            states[s].as_mut().unwrap(),
                            ch.src_slot,
                            OutputTarget::Exit {
                                key: (ch.dst.clone(), ch.dst_slot),
                            },
                            &ch,
                        );
                    }
                }
                (None, Some(d)) => {
                    // Entry channel: only seeds feed it.
                    if local_nodes.contains(&places[d].node) {
                        let queue = ChannelQueue::new(ch.max_bytes, ch.enabled);
                        all_queues.push(queue.clone());
                        attach_input(states[d].as_mut().unwrap(), ch.dst_slot, queue, &ch);
                    }
                }
                (None, None) => {
                    panic!(
                        "channel {}:{} -> {}:{} connects two nonexistent VDPs",
                        ch.src, ch.src_slot, ch.dst, ch.dst_slot
                    );
                }
            }
        }

        // Seeds (each rank keeps only those aimed at its own VDPs).
        for (dst, slot, p) in seeds {
            let idx = *by_tuple
                .get(&dst)
                .unwrap_or_else(|| panic!("seed destination VDP {dst} does not exist"));
            let Some(state) = states[idx].as_mut() else {
                continue;
            };
            if state.inputs[slot].is_none() {
                let queue = ChannelQueue::new(usize::MAX, true);
                all_queues.push(queue.clone());
                state.inputs[slot] = Some(queue);
            }
            state.inputs[slot].as_ref().unwrap().push(p);
        }
        shared.mark_progress();

        // Checkpoint base / restore. A fresh run with a checkpoint dir
        // writes the epoch-0 snapshot synchronously (initial state, seeds
        // queued, nothing fired) so `resume` always has a base; a resuming
        // run instead loads the newest epoch every rank completed and
        // overwrites firing counters, local stores, queue contents, and
        // accumulated exits.
        if let Some(dir) = &config.checkpoint_dir {
            if config.resume {
                let registry: Arc<PacketRegistry> = match &config.backend {
                    Backend::Tcp(t) => t.registry.clone(),
                    Backend::InProcess => config
                        .chaos_registry
                        .clone()
                        .unwrap_or_else(|| Arc::new(PacketRegistry::standard())),
                };
                let epoch = checkpoint::latest_common_epoch(dir, nodes).map_err(|error| {
                    RunError::Checkpoint {
                        node: local_nodes.start,
                        error,
                    }
                })?;
                for node in local_nodes.clone() {
                    checkpoint::load_rank(dir, node, epoch, &registry)
                        .and_then(|ck| {
                            apply_restore(
                                &ck,
                                node,
                                nodes,
                                &by_tuple,
                                &places,
                                &mut states,
                                &shared,
                            )
                        })
                        .map_err(|error| RunError::Checkpoint { node, error })?;
                }
                if let Some(c) = &shared.ckpt {
                    c.start_epoch.store(epoch, Ordering::Relaxed);
                }
            } else {
                for node in local_nodes.clone() {
                    let ck = RankCheckpoint {
                        rank: node,
                        nodes,
                        epoch: 0,
                        vdps: states
                            .iter()
                            .zip(&places)
                            .filter(|(s, p)| p.node == node && s.is_some())
                            .map(|(s, _)| checkpoint::entry_of(s.as_ref().unwrap()))
                            .collect(),
                        exits: Vec::new(),
                    };
                    let bytes = checkpoint::write_rank_checkpoint(dir, &ck)
                        .map_err(|error| RunError::Checkpoint { node, error })?;
                    shared.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                    shared.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
            }
        }

        // Partition local VDPs per worker thread.
        let mut per_thread: Vec<Vec<VdpState>> = (0..nodes * tpn).map(|_| Vec::new()).collect();
        for (state, place) in states.into_iter().zip(&places) {
            if let Some(state) = state {
                per_thread[shared.global_thread(place.node, place.thread)].push(state);
            }
        }

        // Node-shared outgoing queues (worker -> proxy).
        let node_shared: Vec<NodeShared> = (0..nodes)
            .map(|_| NodeShared {
                outgoing: (0..tpn).map(|_| Mutex::new(Default::default())).collect(),
            })
            .collect();

        Ok(Prepared {
            shared: Arc::new(shared),
            per_thread,
            node_shared: Arc::new(node_shared),
            all_queues,
            routes,
            local_nodes,
            t0,
        })
    }

    /// Launch the array and block until every local VDP has been destroyed
    /// or the run fails.
    ///
    /// Under [`Backend::InProcess`] all `nodes` run here as thread groups.
    /// Under [`Backend::Tcp`] only the VDPs mapped to the backend's rank
    /// are materialized; wire ids for *every* cross-node channel are still
    /// assigned (deterministically, in channel insertion order), so all
    /// ranks of the SPMD run agree on them — the identically-built array IS
    /// the address space.
    ///
    /// A lost peer, undecodable arrival, panicking VDP, or stall is
    /// reported as a typed [`RunError`] (first failure wins; every thread
    /// is unblocked). Wiring bugs in the caller's own array — bad slots,
    /// duplicate tuples, non-wire packets crossing nodes — still panic, as
    /// does anything [`Vsa::validate`] would have rejected.
    pub fn run(self, config: &RunConfig) -> Result<RunOutput, RunError> {
        let nodes = config.nodes;
        let tpn = config.threads_per_node;
        let Prepared {
            shared: shared_arc,
            mut per_thread,
            node_shared: node_shared_arc,
            all_queues,
            routes,
            local_nodes,
            t0,
        } = self.prepare(config)?;
        let shared: &Shared = &shared_arc;
        let node_shared: &[NodeShared] = &node_shared_arc;

        let scheme = config.scheme;
        // `thread::scope` replaces panic payloads with a generic message, so
        // capture the first real payload (e.g. a watchdog diagnostic or a
        // user-kernel panic) and re-raise it after every thread has stopped.
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let capture = |e: Box<dyn std::any::Any + Send>| {
            shared.abort();
            let mut slot = first_panic.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        };
        std::thread::scope(|scope| {
            // Workers.
            for node in local_nodes.clone() {
                for local in 0..tpn {
                    let vdps = std::mem::take(&mut per_thread[shared.global_thread(node, local)]);
                    let ns = &node_shared[node];
                    let capture = &capture;
                    scope.spawn(move || {
                        // One fresh scratch store per scoped worker thread;
                        // pooled runs reuse the pool's persistent stores.
                        let scratch = WorkerScratch::new();
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            worker_loop(node, local, vdps, shared, ns, scheme, &scratch)
                        }));
                        if let Err(e) = r {
                            capture(e);
                        }
                    });
                }
            }
            // Proxies (one per local node, matching the paper's PRT layout).
            if nodes > 1 {
                let mut proxies = Proxies {
                    scope,
                    shared,
                    node_shared,
                    routes,
                    capture: &capture,
                };
                // A byte fabric's codec pair: packets cross as wire bytes.
                let wire_codec = |registry: &Arc<PacketRegistry>| {
                    let registry = registry.clone();
                    (wire_encode, move |buf: Vec<u8>| registry.decode(&buf))
                };
                match &config.backend {
                    Backend::InProcess if config.fault.is_some() => {
                        // Chaos mode: packets cross the in-process "network"
                        // as wire bytes so injected faults (corruption,
                        // truncation) hit real encodings — and get caught by
                        // the same checksum a TCP run relies on.
                        let plan = config.fault.clone().unwrap();
                        let registry = config
                            .chaos_registry
                            .as_ref()
                            .expect("fault injection on InProcess requires with_fault's registry");
                        let mesh = InProcFabric::<Vec<u8>>::mesh(nodes);
                        for (node, fabric) in mesh.into_iter().enumerate() {
                            let fabric = FaultyFabric::new(fabric, plan.clone());
                            proxies.spawn(node, move || Some(fabric), wire_codec(registry));
                        }
                    }
                    Backend::InProcess => {
                        let mesh = InProcFabric::<Packet>::mesh(nodes);
                        for (node, fabric) in mesh.into_iter().enumerate() {
                            // Zero-copy across the "network": clone the
                            // Arc, not the payload.
                            let codec = (|p: &Packet| (p.clone(), p.bytes()), |p: Packet| Ok(p));
                            proxies.spawn(node, move || Some(fabric), codec);
                        }
                    }
                    Backend::Tcp(t) => {
                        let rank = t.rank;
                        let listener = t
                            .listener
                            .lock()
                            .take()
                            .expect("TcpBackend listener already consumed");
                        let peers = t.peers.clone();
                        let timeout = t.connect_timeout;
                        let heartbeat = config.heartbeat;
                        let retry = config.retry;
                        let connect = move || {
                            let mut fabric =
                                match TcpFabric::connect(rank, listener, &peers, timeout) {
                                    Ok(f) => f,
                                    Err(e) => {
                                        // The mesh never came up; the workers
                                        // are unblocked by the abort inside
                                        // fail().
                                        shared.fail(RunError::MeshConnect {
                                            node: rank,
                                            msg: e.to_string(),
                                        });
                                        return None;
                                    }
                                };
                            if let Some(hb) = heartbeat {
                                fabric.set_heartbeat(hb, hb * 5);
                            }
                            if retry.attempts > 0 {
                                fabric.set_retry(retry);
                            }
                            Some(fabric)
                        };
                        let codec = wire_codec(&t.registry);
                        match config.fault.clone() {
                            Some(plan) => {
                                let faulty = move || connect().map(|f| FaultyFabric::new(f, plan));
                                proxies.spawn(rank, faulty, codec)
                            }
                            None => proxies.spawn(rank, connect, codec),
                        }
                    }
                }
            }
        });
        if let Some(p) = first_panic.into_inner() {
            std::panic::resume_unwind(p);
        }
        finish_run(shared_arc, &all_queues, t0)
    }

    /// Run the array on a persistent [`VsaPool`] instead of spawning one
    /// scoped thread per worker. The pool's per-thread [`WorkerScratch`]
    /// stores survive from run to run, so kernel workspaces warmed by one
    /// job are reused allocation-free by the next — the warm-pool path of
    /// `pulsar-qr serve`. Because the tuple→thread mapping is deterministic
    /// and jobs are dispatched thread-`i`→pool-worker-`i`, repeated runs of
    /// the same array shape always land on the same warm arenas.
    ///
    /// Restricted to single-node in-process runs: `config` must have
    /// `nodes == 1`, [`Backend::InProcess`], no fault injection, no
    /// checkpointing, and `threads_per_node` equal to [`VsaPool::threads`].
    /// Violations are reported as [`RunError::Protocol`].
    pub fn run_pooled(self, config: &RunConfig, pool: &VsaPool) -> Result<RunOutput, RunError> {
        let unsupported = |msg: &str| RunError::Protocol {
            node: 0,
            msg: msg.to_string(),
        };
        if config.nodes != 1 {
            return Err(unsupported("run_pooled requires nodes == 1"));
        }
        if !matches!(config.backend, Backend::InProcess) {
            return Err(unsupported("run_pooled requires Backend::InProcess"));
        }
        if config.fault.is_some() || config.checkpoint_dir.is_some() || config.resume {
            return Err(unsupported(
                "run_pooled does not support fault injection or checkpointing",
            ));
        }
        if config.threads_per_node != pool.threads() {
            return Err(unsupported(
                "config.threads_per_node must match the pool's thread count",
            ));
        }
        let tpn = config.threads_per_node;
        let scheme = config.scheme;
        let Prepared {
            shared,
            mut per_thread,
            node_shared,
            all_queues,
            routes: _,
            local_nodes: _,
            t0,
        } = self.prepare(config)?;
        let jobs: Vec<PoolJob> = (0..tpn)
            .map(|local| {
                let vdps = std::mem::take(&mut per_thread[local]);
                let shared = Arc::clone(&shared);
                let node_shared = Arc::clone(&node_shared);
                let job: PoolJob = Box::new(move |scratch: &WorkerScratch| {
                    worker_loop(0, local, vdps, &shared, &node_shared[0], scheme, scratch)
                });
                job
            })
            .collect();
        if let Some(p) = pool.run_jobs(jobs) {
            std::panic::resume_unwind(p);
        }
        finish_run(shared, &all_queues, t0)
    }
}

/// Everything [`Vsa::prepare`] builds for the execution step.
struct Prepared {
    shared: Arc<Shared>,
    per_thread: Vec<Vec<VdpState>>,
    node_shared: Arc<Vec<NodeShared>>,
    all_queues: Vec<Arc<ChannelQueue>>,
    routes: Vec<RouteTable>,
    local_nodes: Range<usize>,
    t0: Instant,
}

/// Tear down after every worker has stopped: reclaim the shared block,
/// surface the first typed error, and assemble stats + output.
fn finish_run(
    shared: Arc<Shared>,
    all_queues: &[Arc<ChannelQueue>],
    t0: Instant,
) -> Result<RunOutput, RunError> {
    // Scoped runs reach here holding the only reference; pooled runs can
    // momentarily race a pool thread that has signalled completion but not
    // yet dropped its clone.
    let mut shared = shared;
    let shared = loop {
        match Arc::try_unwrap(shared) {
            Ok(s) => break s,
            Err(again) => {
                shared = again;
                std::thread::yield_now();
            }
        }
    };
    if let Some(e) = shared.take_error() {
        return Err(e);
    }

    let stats = RunStats {
        fired: shared.fired.load(Ordering::Relaxed),
        remote_msgs: shared.sent.load(Ordering::Relaxed),
        wall: t0.elapsed(),
        fired_per_thread: shared
            .fired_per_thread
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        peak_channel_depth: all_queues.iter().map(|q| q.high_water()).max().unwrap_or(0),
        wire_bytes_sent: shared.wire_bytes_sent.load(Ordering::Relaxed),
        wire_bytes_recv: shared.wire_bytes_recv.load(Ordering::Relaxed),
        deferred_msgs: shared.deferred.load(Ordering::Relaxed),
        proxy_idle_spins: shared.idle_spins.load(Ordering::Relaxed),
        heartbeats_sent: shared.heartbeats_sent.load(Ordering::Relaxed),
        heartbeats_missed: shared.heartbeats_missed.load(Ordering::Relaxed),
        reconnect_attempts: shared.reconnect_attempts.load(Ordering::Relaxed),
        retried_sends: shared.retried_sends.load(Ordering::Relaxed),
        quarantined_vdps: shared.quarantined.load(Ordering::Relaxed),
        checkpoints_written: shared.checkpoints_written.load(Ordering::Relaxed),
        checkpoint_bytes: shared.checkpoint_bytes.load(Ordering::Relaxed),
        frames_replayed: shared.frames_replayed.load(Ordering::Relaxed),
        retries_healed: shared.retries_healed.load(Ordering::Relaxed),
        fault_log: *shared.fault_log.lock(),
    };
    Ok(RunOutput {
        exits: shared.exits.into_inner(),
        trace: shared.trace.map(|t| t.finish()),
        stats,
    })
}

/// Overwrite one local node's fresh build with a checkpoint: firing
/// counters, local stores, channel FIFOs and life-cycle states, the live
/// count, and accumulated exits. Every mismatch between the checkpoint and
/// the identically-rebuilt plan is a typed error, never a wrong resume.
fn apply_restore(
    ck: &RankCheckpoint,
    rank: usize,
    nodes: usize,
    by_tuple: &HashMap<Tuple, usize>,
    places: &[Place],
    states: &mut [Option<VdpState>],
    shared: &Shared,
) -> Result<(), CheckpointError> {
    if ck.nodes != nodes || ck.rank != rank {
        return Err(CheckpointError::Malformed(
            "checkpoint rank/node count does not match this run",
        ));
    }
    let local_total = places
        .iter()
        .enumerate()
        .filter(|&(i, p)| p.node == rank && states[i].is_some())
        .count();
    if ck.vdps.len() != local_total {
        return Err(CheckpointError::Malformed(
            "checkpoint VDP count does not match the plan",
        ));
    }
    let mut live = 0usize;
    for entry in &ck.vdps {
        let &idx = by_tuple
            .get(&entry.tuple)
            .ok_or(CheckpointError::Malformed(
                "checkpointed VDP tuple not in the plan",
            ))?;
        if places[idx].node != rank {
            return Err(CheckpointError::Malformed(
                "checkpointed VDP mapped to a different rank",
            ));
        }
        let state = states[idx].as_mut().ok_or(CheckpointError::Malformed(
            "checkpointed VDP not materialized locally",
        ))?;
        if entry.counter != state.counter {
            return Err(CheckpointError::Malformed(
                "checkpointed firing counter does not match the plan",
            ));
        }
        if entry.slots.len() != state.inputs.len() {
            return Err(CheckpointError::Malformed(
                "checkpointed slot count does not match the plan",
            ));
        }
        state.fired = entry.fired;
        if entry.fired >= state.counter {
            state.logic = None;
        } else {
            live += 1;
            state
                .logic
                .as_mut()
                .expect("freshly built VDP has logic")
                .restore(&entry.logic)?;
        }
        for (se, q) in entry.slots.iter().zip(state.inputs.iter_mut()) {
            match (se, q) {
                (Some(se), Some(q)) => q.restore(se.state, se.packets.clone()),
                (None, None) => {}
                _ => {
                    return Err(CheckpointError::Malformed(
                        "checkpointed channel wiring does not match the plan",
                    ))
                }
            }
        }
    }
    shared.live[rank].store(live, Ordering::Release);
    let mut exits = shared.exits.lock();
    for e in &ck.exits {
        exits
            .entry((e.tuple.clone(), e.slot))
            .or_default()
            .extend(e.packets.iter().cloned());
    }
    Ok(())
}

/// What the proxy threads of one run share; [`Self::spawn`] starts one.
struct Proxies<'scope, 'env, C> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    shared: &'scope Shared,
    node_shared: &'scope [NodeShared],
    routes: Vec<RouteTable>,
    capture: &'scope C,
}

impl<'scope, C: Fn(Box<dyn std::any::Any + Send>) + Sync> Proxies<'scope, '_, C> {
    /// Start `node`'s proxy thread: build the fabric on that thread (`make`
    /// returns `None` once it has reported why there is none), run
    /// [`proxy_loop`](crate::net::proxy_loop) over it with the `(encode,
    /// decode)` codec pair, and hand a panic payload to `capture`.
    fn spawn<F, E, D>(
        &mut self,
        node: usize,
        make: impl FnOnce() -> Option<F> + Send + 'scope,
        (encode, decode): (E, D),
    ) where
        F: Fabric,
        E: Fn(&Packet) -> (F::Payload, usize) + Send + 'scope,
        D: Fn(F::Payload) -> Result<Packet, WireError> + Send + 'scope,
    {
        let (shared, capture) = (self.shared, self.capture);
        let outgoing = &self.node_shared[node].outgoing;
        let routes = std::mem::take(&mut self.routes[node]);
        self.scope.spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(fabric) = make() {
                    crate::net::proxy_loop(node, fabric, routes, outgoing, shared, encode, decode)
                }
            }));
            if let Err(e) = r {
                capture(e);
            }
        });
    }
}

/// Encode half of a byte fabric's codec pair. A non-wire packet crossing
/// nodes is a wiring bug in the caller's array, so it panics like the
/// other wiring asserts.
fn wire_encode(p: &Packet) -> (Vec<u8>, usize) {
    let buf = p.encode_wire().unwrap_or_else(|e| {
        panic!("packet crossing nodes must be wire-encodable (use Packet::wire): {e}")
    });
    let n = buf.len();
    (buf, n)
}

fn attach_input(state: &mut VdpState, slot: usize, q: Arc<ChannelQueue>, ch: &ChannelSpec) {
    assert!(
        slot < state.inputs.len(),
        "channel {}:{} -> {}:{}: input slot out of range",
        ch.src,
        ch.src_slot,
        ch.dst,
        ch.dst_slot
    );
    assert!(
        state.inputs[slot].is_none(),
        "VDP {} input slot {} already connected",
        state.tuple,
        slot
    );
    state.inputs[slot] = Some(q);
}

fn attach_output(state: &mut VdpState, slot: usize, t: OutputTarget, ch: &ChannelSpec) {
    assert!(
        slot < state.outputs.len(),
        "channel {}:{} -> {}:{}: output slot out of range",
        ch.src,
        ch.src_slot,
        ch.dst,
        ch.dst_slot
    );
    assert!(
        state.outputs[slot].is_none(),
        "VDP {} output slot {} already connected",
        state.tuple,
        slot
    );
    state.outputs[slot] = Some(t);
}
