//! The Virtual Systolic Array: construction and execution.

use crate::channel::{ChannelQueue, ChannelSpec};
use crate::checkpoint::{self, CheckpointError, RankCheckpoint, VdpEntry};
use crate::error::RunError;
use crate::net::NetModel;
use crate::packet::{Packet, PacketRegistry, WireError};
use crate::pool::{PoolJob, VsaPool};
use crate::sched::{worker_loop, OutgoingQueue, ThreadNotifier};
use crate::trace::{Trace, TraceCollector};
use crate::tuple::Tuple;
use crate::vdp::{span, OutputTarget, VdpSpec, VdpState, WorkerScratch};
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
        let mapping = move |t: &Tuple| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &v in t.ids() {
                h = (h ^ v as u64).wrapping_mul(0x1000_0000_01b3);
            }
            Place {
                node: 0,
                thread: (h % threads as u64) as usize,
            }
        };
        Self::cluster(1, threads, Arc::new(mapping))
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
    /// Wall-clock duration of the run, wiring included.
    pub wall: Duration,
    /// The part of `wall` spent before any worker started: placing VDPs,
    /// wiring channels into the arena, queueing seeds.
    pub prepare: Duration,
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
    /// Arrivals the [`NetModel`] held back before delivery. With a model
    /// attached ([`RunConfig::with_net`]) every arrival is held for its
    /// modeled flight time, so this equals `remote_msgs` by construction;
    /// without one it is 0. It does not count a proxy "slow path".
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

/// A value alone on its cache line (per-worker counters hit every firing).
#[repr(align(64))]
pub(crate) struct Padded<T>(pub T);

/// Where an inter-node channel lands: queue index and owning global thread.
#[derive(Copy, Clone)]
pub(crate) struct Route {
    pub queue: u32,
    pub owner: u32,
}

/// Global state shared by all workers and proxies of a run, including the
/// flat array itself: every slot's queue or target, addressed by index.
pub(crate) struct Shared {
    /// One queue per input slot of every local VDP.
    pub queues: Vec<ChannelQueue>,
    /// One target per output slot of every local VDP.
    pub outputs: Vec<OutputTarget>,
    /// Inter-node channels by wire id (`None`: destination not local).
    pub routes: Vec<Option<Route>>,
    /// `(tuple, slot)` key of each dense exit id.
    pub exit_keys: Vec<(Tuple, usize)>,
    /// Exit packets a resumed run inherited from its checkpoint.
    pub restored_exits: HashMap<(Tuple, usize), Vec<Packet>>,
    /// Each worker's exit packets under their dense ids, in firing order.
    pub exits: Vec<Mutex<Vec<(u32, Packet)>>>,
    pub notifiers: Vec<ThreadNotifier>,
    /// Per-node count of workers that still own a live VDP; at zero the
    /// node's proxy may enter the shutdown barrier.
    pub live: Vec<AtomicUsize>,
    /// Firings per global worker thread, stored by its owner; read by an
    /// idle worker's stall watchdog and at run end.
    pub fired: Vec<Padded<AtomicUsize>>,
    /// Every other counter: proxies fold theirs in as they exit.
    pub stats: Mutex<RunStats>,
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

    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        for n in &self.notifiers {
            n.notify();
        }
    }

    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
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

    /// Exit packets by `(tuple, slot)` key: the restored ones, then the
    /// collected ones in the order given.
    pub fn merge_exits(
        &self,
        restored: HashMap<(Tuple, usize), Vec<Packet>>,
        collected: impl IntoIterator<Item = (u32, Packet)>,
    ) -> HashMap<(Tuple, usize), Vec<Packet>> {
        let mut exits = restored;
        exits.reserve(self.exit_keys.len());
        for (id, p) in collected {
            let key = self.exit_keys[id as usize].clone();
            exits.entry(key).or_default().push(p);
        }
        exits
    }
}

/// Per-node state shared between the node's workers and its proxy.
pub(crate) struct NodeShared {
    pub outgoing: Vec<OutgoingQueue>,
}

/// One end of a channel or seed, resolved when it is added: a VDP index,
/// or — tagged [`End::OPEN`] — an index into the builder's table of tuples
/// that named no VDP (yet). An end that stays open makes an exit or entry.
#[derive(Copy, Clone)]
struct End(u32);

impl End {
    const OPEN: u32 = 1 << 31;
}

/// A channel as the builder stores it.
struct Wire {
    max_bytes: usize,
    src: End,
    dst: End,
    src_slot: u32,
    dst_slot: u32,
    enabled: bool,
}

/// A Virtual Systolic Array under construction: VDPs + channels + seeds
/// (`prt_vsa_new` / `prt_vsa_vdp_insert` analogue).
#[derive(Default)]
pub struct Vsa {
    vdps: Vec<VdpSpec>,
    by_tuple: HashMap<Tuple, u32>,
    channels: Vec<Wire>,
    seeds: Vec<(End, usize, Packet)>,
    /// Tuples of the open ends.
    open: Vec<Tuple>,
    /// A VDP was added after an end was left open: open ends get one more
    /// lookup at launch (arrays that add their VDPs first never pay).
    late_vdps: bool,
}

impl Vsa {
    /// An empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a VDP. Tuples must be unique and counters positive.
    pub fn add_vdp(&mut self, spec: VdpSpec) {
        assert!(spec.counter > 0, "VDP {} has zero counter", spec.tuple);
        let idx = self.vdps.len() as u32;
        assert!(idx < End::OPEN, "too many VDPs");
        let prev = self.by_tuple.insert(spec.tuple.clone(), idx);
        assert!(prev.is_none(), "duplicate VDP tuple {}", spec.tuple);
        self.late_vdps |= !self.open.is_empty();
        self.vdps.push(spec);
    }

    fn end(&mut self, tuple: Tuple) -> End {
        match self.by_tuple.get(&tuple) {
            Some(&idx) => End(idx),
            None => {
                self.open.push(tuple);
                End(End::OPEN | (self.open.len() - 1) as u32)
            }
        }
    }

    /// The VDP an end names, if any.
    fn vdp_of(&self, end: End) -> Option<usize> {
        if end.0 & End::OPEN == 0 {
            Some(end.0 as usize)
        } else if self.late_vdps {
            self.by_tuple.get(self.tuple_of(end)).map(|&i| i as usize)
        } else {
            None
        }
    }

    fn tuple_of(&self, end: End) -> &Tuple {
        if end.0 & End::OPEN == 0 {
            &self.vdps[end.0 as usize].tuple
        } else {
            &self.open[(end.0 & !End::OPEN) as usize]
        }
    }

    /// `src:slot -> dst:slot`, for diagnostics.
    fn describe(&self, ch: &Wire) -> String {
        format!(
            "{}:{} -> {}:{}",
            self.tuple_of(ch.src),
            ch.src_slot,
            self.tuple_of(ch.dst),
            ch.dst_slot
        )
    }

    /// Insert a channel. A channel whose destination tuple has no VDP is an
    /// *exit* channel: its packets are collected into [`RunOutput::exits`].
    pub fn add_channel(&mut self, spec: ChannelSpec) {
        let slot = |s: usize| u32::try_from(s).expect("slot index exceeds u32");
        let wire = Wire {
            max_bytes: spec.max_bytes,
            src: self.end(spec.src),
            dst: self.end(spec.dst),
            src_slot: slot(spec.src_slot),
            dst_slot: slot(spec.dst_slot),
            enabled: spec.enabled,
        };
        self.channels.push(wire);
    }

    /// Queue an initial packet on input `slot` of `dst` before the run
    /// starts (this is how the matrix tiles enter the array). If no channel
    /// feeds that slot, an implicit one is created.
    pub fn seed(&mut self, dst: impl Into<Tuple>, slot: usize, p: Packet) {
        let dst = self.end(dst.into());
        self.seeds.push((dst, slot, p));
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
            let src = self.vdp_of(ch.src);
            let dst = self.vdp_of(ch.dst);
            let (src_slot, dst_slot) = (ch.src_slot as usize, ch.dst_slot as usize);
            if src.is_none() && dst.is_none() {
                errors.push(format!(
                    "channel #{ci} {} connects two nonexistent VDPs",
                    self.describe(ch)
                ));
                continue;
            }
            if let Some(s) = src {
                if src_slot >= self.vdps[s].n_out {
                    errors.push(format!(
                        "channel #{ci}: output slot {} out of range for VDP {} ({} outputs)",
                        src_slot, self.vdps[s].tuple, self.vdps[s].n_out
                    ));
                } else if let Some(prev) = out_used.insert((s, src_slot), ci) {
                    errors.push(format!(
                        "VDP {} output slot {} wired by channels #{prev} and #{ci}",
                        self.vdps[s].tuple, src_slot
                    ));
                }
            }
            if let Some(d) = dst {
                if dst_slot >= self.vdps[d].n_in {
                    errors.push(format!(
                        "channel #{ci}: input slot {} out of range for VDP {} ({} inputs)",
                        dst_slot, self.vdps[d].tuple, self.vdps[d].n_in
                    ));
                } else if let Some(prev) = in_used.insert((d, dst_slot), ci) {
                    errors.push(format!(
                        "VDP {} input slot {} wired by channels #{prev} and #{ci}",
                        self.vdps[d].tuple, dst_slot
                    ));
                }
            }
        }
        for &(dst, slot, _) in &self.seeds {
            match self.vdp_of(dst) {
                None => errors.push(format!(
                    "seed targets nonexistent VDP {}",
                    self.tuple_of(dst)
                )),
                Some(d) => {
                    if slot >= self.vdps[d].n_in {
                        errors.push(format!(
                            "seed targets out-of-range input slot {slot} of VDP {}",
                            self.vdps[d].tuple
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
    /// the queue and output arenas with every channel wired in by index
    /// (ends were resolved as they were added, so no tuple is hashed),
    /// seeds, the [`Shared`] block, checkpoint base/restore, and the
    /// per-thread partition. Shared by [`Vsa::run`] and [`Vsa::run_pooled`].
    fn prepare(mut self, config: &RunConfig) -> Result<Prepared, RunError> {
        let t0 = Instant::now();
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

        // Place every VDP and give the local ones their slot ranges.
        let (mut n_queues, mut n_outputs) = (0u32, 0u32);
        let homes: Vec<Home> = self
            .vdps
            .iter()
            .map(|v| {
                let p = (config.mapping)(&v.tuple);
                assert!(
                    p.node < nodes && p.thread < tpn,
                    "mapping put VDP {} at invalid place {:?}",
                    v.tuple,
                    p
                );
                let home = Home {
                    thread: (p.node * tpn + p.thread) as u32,
                    local: local_nodes.contains(&p.node),
                    in_base: n_queues,
                    out_base: n_outputs,
                };
                if home.local {
                    n_queues += v.n_in as u32;
                    n_outputs += v.n_out as u32;
                }
                home
            })
            .collect();
        let node_of = |h: &Home| h.thread as usize / tpn;
        let mut queues: Vec<ChannelQueue> = (0..n_queues).map(|_| ChannelQueue::absent()).collect();
        let mut outputs: Vec<OutputTarget> =
            (0..n_outputs).map(|_| OutputTarget::Unwired).collect();

        // Wire channels. Wire ids advance for every cross-node channel
        // whether or not an endpoint is local, keeping the SPMD ranks'
        // tables aligned.
        let mut routes: Vec<Option<Route>> = Vec::new();
        let mut exit_keys: Vec<(Tuple, usize)> = Vec::new();
        for ch in std::mem::take(&mut self.channels) {
            let (src, dst) = (self.vdp_of(ch.src), self.vdp_of(ch.dst));
            let (src_slot, dst_slot) = (ch.src_slot as usize, ch.dst_slot as usize);
            if let Some(d) = dst.filter(|&d| homes[d].local) {
                assert!(
                    dst_slot < self.vdps[d].n_in,
                    "channel {}: input slot out of range",
                    self.describe(&ch)
                );
                assert!(
                    queues[homes[d].in_base as usize + dst_slot].wire(ch.max_bytes, ch.enabled),
                    "VDP {} input slot {dst_slot} already connected",
                    self.vdps[d].tuple
                );
            }
            let Some(s) = src else {
                // Entry channel: only seeds feed it.
                assert!(
                    dst.is_some(),
                    "channel {} connects two nonexistent VDPs",
                    self.describe(&ch)
                );
                continue;
            };
            let target = match dst {
                None => OutputTarget::Exit {
                    id: exit_keys.len() as u32,
                },
                Some(d) => {
                    let dh = &homes[d];
                    let (queue, owner) = (dh.in_base + ch.dst_slot, dh.thread);
                    if node_of(&homes[s]) == node_of(dh) {
                        OutputTarget::Local { queue, owner }
                    } else {
                        routes.push(dh.local.then_some(Route { queue, owner }));
                        OutputTarget::Remote {
                            wire_id: routes.len() as u32 - 1,
                            dst_node: node_of(dh) as u32,
                        }
                    }
                }
            };
            if !homes[s].local {
                continue;
            }
            assert!(
                src_slot < self.vdps[s].n_out,
                "channel {}: output slot out of range",
                self.describe(&ch)
            );
            let out = &mut outputs[homes[s].out_base as usize + src_slot];
            assert!(
                matches!(out, OutputTarget::Unwired),
                "VDP {} output slot {src_slot} already connected",
                self.vdps[s].tuple
            );
            if let OutputTarget::Exit { .. } = target {
                exit_keys.push((self.tuple_of(ch.dst).clone(), dst_slot));
            }
            *out = target;
        }

        // Seeds (each rank keeps only those aimed at its own VDPs).
        for (dst, slot, p) in std::mem::take(&mut self.seeds) {
            let d = self.vdp_of(dst).unwrap_or_else(|| {
                panic!("seed destination VDP {} does not exist", self.tuple_of(dst))
            });
            if homes[d].local {
                assert!(
                    slot < self.vdps[d].n_in,
                    "seed targets out-of-range input slot {slot} of VDP {}",
                    self.vdps[d].tuple
                );
                let queue = &mut queues[homes[d].in_base as usize + slot];
                queue.wire(usize::MAX, true);
                queue.seed(p);
            }
        }

        // Materialize VDP states — only the ones that live on this process.
        let Vsa { vdps, by_tuple, .. } = self;
        let mut states: Vec<Option<VdpState>> = vdps
            .into_iter()
            .zip(&homes)
            .map(|(spec, home)| {
                home.local.then(|| VdpState {
                    tuple: spec.tuple,
                    counter: spec.counter,
                    fired: 0,
                    inputs: home.in_base..home.in_base + spec.n_in as u32,
                    outputs: home.out_base..home.out_base + spec.n_out as u32,
                    logic: Some(spec.logic),
                })
            })
            .collect();

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
        let mut shared = Shared {
            queues,
            outputs,
            routes,
            exit_keys,
            restored_exits: HashMap::new(),
            exits: (0..nodes * tpn).map(|_| Mutex::new(Vec::new())).collect(),
            notifiers: (0..nodes * tpn).map(|_| ThreadNotifier::new()).collect(),
            live: (0..nodes).map(|_| AtomicUsize::new(0)).collect(),
            fired: (0..nodes * tpn)
                .map(|_| Padded(AtomicUsize::new(0)))
                .collect(),
            stats: Mutex::new(RunStats::default()),
            ckpt,
            trace: config.trace.then(|| TraceCollector::new(t0, nodes * tpn)),
            net: config.net,
            deadlock_timeout: config.deadlock_timeout,
            threads_per_node: tpn,
            chaos_panic: config.chaos_panic.clone(),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
        };

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
                            let mine = |i: usize| homes[i].thread as usize / tpn == node;
                            apply_restore(&ck, nodes, &by_tuple, mine, &mut states, &mut shared)
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
                            .zip(&homes)
                            .filter(|(_, h)| node_of(h) == node)
                            .filter_map(|(s, _)| s.as_ref())
                            // SAFETY: no worker or proxy thread exists yet.
                            .map(|v| unsafe { checkpoint::entry_of(v, &shared.queues) })
                            .collect(),
                        exits: Vec::new(),
                    };
                    let bytes = checkpoint::write_rank_checkpoint(dir, &ck)
                        .map_err(|error| RunError::Checkpoint { node, error })?;
                    let mut stats = shared.stats.lock();
                    stats.checkpoints_written += 1;
                    stats.checkpoint_bytes += bytes;
                }
            }
        }

        // Partition local VDPs per worker thread; a node's `live` counts
        // its workers that own a live VDP.
        let mut per_thread: Vec<Vec<VdpState>> = (0..nodes * tpn).map(|_| Vec::new()).collect();
        for (state, home) in states.into_iter().zip(&homes) {
            if let Some(state) = state {
                per_thread[home.thread as usize].push(state);
            }
        }
        for (thread, vdps) in per_thread.iter().enumerate() {
            if vdps.iter().any(|v| v.logic.is_some()) {
                *shared.live[thread / tpn].get_mut() += 1;
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
            local_nodes,
            t0,
            prepare: t0.elapsed(),
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
            local_nodes,
            t0,
            prepare,
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
                let proxies = Proxies {
                    scope,
                    shared,
                    node_shared,
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
        finish_run(shared_arc, t0, prepare)
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
            local_nodes: _,
            t0,
            prepare,
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
        finish_run(shared, t0, prepare)
    }
}

/// Where [`Vsa::prepare`] put one VDP: its worker (global thread index)
/// and, for a VDP local to this process, where its slot ranges start.
struct Home {
    thread: u32,
    local: bool,
    in_base: u32,
    out_base: u32,
}

/// Everything [`Vsa::prepare`] builds for the execution step.
struct Prepared {
    shared: Arc<Shared>,
    per_thread: Vec<Vec<VdpState>>,
    node_shared: Arc<Vec<NodeShared>>,
    local_nodes: Range<usize>,
    t0: Instant,
    prepare: Duration,
}

/// Tear down after every worker has stopped: reclaim the shared block,
/// surface the first typed error, and assemble stats + output.
fn finish_run(shared: Arc<Shared>, t0: Instant, prepare: Duration) -> Result<RunOutput, RunError> {
    // Scoped runs reach here holding the only reference; pooled runs can
    // momentarily race a pool thread that has signalled completion but not
    // yet dropped its clone.
    let mut shared = shared;
    let mut shared = loop {
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

    let mut stats = std::mem::take(&mut *shared.stats.lock());
    stats.fired_per_thread = shared
        .fired
        .iter()
        .map(|c| c.0.load(Ordering::Relaxed))
        .collect();
    stats.fired = stats.fired_per_thread.iter().sum();
    stats.peak_channel_depth = shared
        .queues
        .iter()
        .map(|q| q.high_water())
        .max()
        .unwrap_or(0);
    stats.prepare = prepare;
    stats.wall = t0.elapsed();
    let collected = std::mem::take(&mut shared.exits)
        .into_iter()
        .flat_map(Mutex::into_inner);
    let restored = std::mem::take(&mut shared.restored_exits);
    Ok(RunOutput {
        exits: shared.merge_exits(restored, collected),
        trace: shared.trace.map(|t| t.finish()),
        stats,
    })
}

/// Overwrite one local node's fresh build with a checkpoint: firing
/// counters, local stores, channel FIFOs and life-cycle states, and
/// accumulated exits. `mine(i)` says whether VDP `i` belongs to the
/// checkpoint's rank. Every mismatch between the checkpoint and the
/// identically-rebuilt plan is a typed error, never a wrong resume.
fn apply_restore(
    ck: &RankCheckpoint,
    nodes: usize,
    by_tuple: &HashMap<Tuple, u32>,
    mine: impl Fn(usize) -> bool,
    states: &mut [Option<VdpState>],
    shared: &mut Shared,
) -> Result<(), CheckpointError> {
    let malformed = |why| Err(CheckpointError::Malformed(why));
    if ck.nodes != nodes {
        return malformed("checkpoint node count does not match this run");
    }
    let local_total = (0..states.len())
        .filter(|&i| mine(i) && states[i].is_some())
        .count();
    if ck.vdps.len() != local_total {
        return malformed("checkpoint VDP count does not match the plan");
    }
    for entry in &ck.vdps {
        let state = by_tuple
            .get(&entry.tuple)
            .map(|&i| i as usize)
            .filter(|&i| mine(i))
            .and_then(|i| states[i].as_mut());
        let Some(state) = state else {
            return malformed("checkpointed VDP is not one of this rank's in the plan");
        };
        if entry.counter != state.counter {
            return malformed("checkpointed firing counter does not match the plan");
        }
        let inputs = &mut shared.queues[span(&state.inputs)];
        if entry.slots.len() != inputs.len() {
            return malformed("checkpointed slot count does not match the plan");
        }
        state.fired = entry.fired;
        if entry.fired >= state.counter {
            state.logic = None;
        } else {
            state
                .logic
                .as_mut()
                .expect("freshly built VDP has logic")
                .restore(&entry.logic)?;
        }
        for (se, q) in entry.slots.iter().zip(inputs) {
            match (se, q.state()) {
                (Some(se), Some(_)) => q.restore(se.state, se.packets.clone()),
                (None, None) => {}
                _ => return malformed("checkpointed channel wiring does not match the plan"),
            }
        }
    }
    for e in &ck.exits {
        shared
            .restored_exits
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
    capture: &'scope C,
}

impl<'scope, C: Fn(Box<dyn std::any::Any + Send>) + Sync> Proxies<'scope, '_, C> {
    /// Start `node`'s proxy thread: build the fabric on that thread (`make`
    /// returns `None` once it has reported why there is none), run
    /// [`proxy_loop`](crate::net::proxy_loop) over it with the `(encode,
    /// decode)` codec pair, and hand a panic payload to `capture`.
    fn spawn<F, E, D>(
        &self,
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
        self.scope.spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(fabric) = make() {
                    crate::net::proxy_loop(node, fabric, outgoing, shared, encode, decode)
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
