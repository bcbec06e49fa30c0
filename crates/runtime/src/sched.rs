//! Worker-thread scheduling: each worker sweeps its list of live VDPs and
//! fires the ready ones (lazy or aggressive), parking when nothing is ready.

use crate::error::{panic_message, RunError, StuckVdp};
use crate::packet::Packet;
use crate::trace::TaskSpan;
use crate::tuple::Tuple;
use crate::vdp::{span, VdpContext, VdpState, WorkerScratch};
use crate::vsa::{CkptControl, NodeShared, SchedScheme, Shared, CKPT_RUN, CKPT_SERIALIZE};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Wakes a parked worker when new work may be available.
///
/// The owner announces that it is about to sleep ([`arm`](Self::arm)),
/// looks for work once more, and only then parks; a producer publishes its
/// packet and then reads the flag. All four accesses are `SeqCst` (the flag
/// here, the queue word in `ChannelQueue::{push, satisfied}`), so at least
/// one side sees the other: the owner's second look finds the packet, or
/// the producer finds the flag and unparks. A push to a running worker
/// therefore costs one load.
pub(crate) struct ThreadNotifier {
    parked: AtomicBool,
    thread: OnceLock<Thread>,
}

impl ThreadNotifier {
    pub fn new() -> Self {
        ThreadNotifier {
            parked: AtomicBool::new(false),
            thread: OnceLock::new(),
        }
    }

    /// Bind the notifier to the calling thread (the worker that parks on it).
    pub fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Signal that state changed; wakes the owner only if it is (about to
    /// be) parked.
    pub fn notify(&self) {
        if self.parked.load(Ordering::SeqCst) {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }

    /// Owner: announce the intent to sleep. Look for work again before
    /// calling [`park`](Self::park).
    pub fn arm(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Owner: withdraw the announcement (work turned up).
    pub fn disarm(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Owner: sleep until notified or `timeout` elapses.
    pub fn park(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
        self.disarm();
    }

    /// Owner: a timed wait with no work to re-check (checkpoint phases).
    pub fn nap(&self, timeout: Duration) {
        self.arm();
        self.park(timeout);
    }
}

/// The services a firing VDP gets from its worker thread.
pub(crate) struct WorkerServices<'a> {
    pub shared: &'a Shared,
    pub node_shared: &'a NodeShared,
    pub node: usize,
    pub local_thread: usize,
    /// This worker's global thread index.
    pub global: usize,
    pub scratch: &'a WorkerScratch,
}

impl WorkerServices<'_> {
    pub fn deliver_local(&self, queue: u32, owner: u32, p: Packet) {
        // SAFETY: an output slot is wired to at most one channel and a VDP
        // fires on one thread, so this worker is the queue's only producer.
        unsafe { self.shared.queues[queue as usize].push(p) };
        self.shared.notifiers[owner as usize].notify();
    }

    pub fn deliver_remote(&self, wire_id: u32, dst_node: u32, p: Packet) {
        self.node_shared.outgoing[self.local_thread]
            .lock()
            .push_back(crate::net::WireMsg {
                wire_id,
                dst_node: dst_node as usize,
                packet: p,
            });
    }

    /// Exit packets go on this worker's own list (its lock is only ever
    /// contended by a checkpoint cut), in firing order.
    pub fn deliver_exit(&self, id: u32, p: Packet) {
        self.shared.exits[self.global].lock().push((id, p));
    }

    pub fn tracing(&self) -> bool {
        self.shared.trace.is_some()
    }

    /// Trace clock, or 0 when the run records no trace.
    pub fn now_us(&self) -> f64 {
        self.shared.trace.as_ref().map_or(0.0, |t| t.now_us())
    }

    /// Record a span of `tuple` on this worker from `start_us` to now;
    /// `label` is built only when the run records a trace.
    pub fn record_span(&self, tuple: &Tuple, label: impl FnOnce() -> String, start_us: f64) {
        if let Some(t) = &self.shared.trace {
            t.record(TaskSpan {
                node: self.node,
                thread: self.global,
                tuple: tuple.to_string(),
                label: label(),
                start_us,
                end_us: t.now_us(),
            });
        }
    }
}

/// Fire one VDP once.
fn fire_vdp(vdp: &mut VdpState, services: &WorkerServices<'_>) {
    let shared = services.shared;
    let mut logic = vdp.logic.take().expect("firing a destroyed VDP");
    let t0 = services.now_us();
    let mut ctx = VdpContext {
        tuple: &vdp.tuple,
        remaining: vdp.counter - vdp.fired - 1,
        firing: vdp.fired,
        inputs: &shared.queues[span(&vdp.inputs)],
        outputs: &shared.outputs[span(&vdp.outputs)],
        services,
        label: None,
    };
    logic.fire(&mut ctx);
    let label = ctx.label;
    vdp.logic = Some(logic);
    vdp.fired += 1;
    let default_label = || format!("fire{}", vdp.tuple);
    services.record_span(&vdp.tuple, || label.unwrap_or_else(default_label), t0);
}

/// Ready when every *connected, active* input channel holds a packet: one
/// load per input slot, no lock.
fn is_ready(vdp: &VdpState, shared: &Shared) -> bool {
    shared.queues[span(&vdp.inputs)]
        .iter()
        .all(|q| q.satisfied())
}

/// Main loop of one worker thread.
///
/// `scratch` is the worker's typed slot store: kernel workspaces stay warm
/// across every VDP firing this worker executes. Scoped runs hand each
/// spawned thread a fresh store; pooled runs ([`crate::VsaPool`]) pass the
/// pool thread's persistent store so arenas survive from job to job.
///
/// The sweep visits `live`, the indices of this worker's not-yet-destroyed
/// VDPs in their original order; a VDP leaves the list in the sweep that
/// destroys it.
pub(crate) fn worker_loop(
    node: usize,
    local_thread: usize,
    mut vdps: Vec<VdpState>,
    shared: &Shared,
    node_shared: &NodeShared,
    scheme: SchedScheme,
    scratch: &WorkerScratch,
) {
    // If this worker panics (user VDP code, watchdog, wiring bug), wake and
    // stop every other thread so the scope can join and propagate the panic.
    struct AbortOnPanic<'a>(&'a Shared);
    impl Drop for AbortOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.abort();
            }
        }
    }
    let _guard = AbortOnPanic(shared);

    let global = shared.global_thread(node, local_thread);
    let services = WorkerServices {
        shared,
        node_shared,
        node,
        local_thread,
        global,
        scratch,
    };
    let notifier = &shared.notifiers[global];
    notifier.register();
    // A restore may hand this worker already-destroyed VDPs.
    let mut live: Vec<u32> = (0..vdps.len() as u32)
        .filter(|&i| vdps[i as usize].logic.is_some())
        .collect();
    // `shared.live[node]` counts this node's workers that still own a live
    // VDP; one that starts with none was never counted.
    let mut counted = !live.is_empty();
    let mut fired = 0usize;
    // Stall watchdog: the run-wide firing count this worker last saw, and
    // when. Sampled on the idle path only.
    let mut watch = (0usize, Instant::now());

    loop {
        if shared.is_aborted() {
            break;
        }
        if let Some(ctl) = &shared.ckpt {
            if ctl.phase.load(Ordering::Acquire) != CKPT_RUN {
                serve_checkpoint(ctl, &vdps, shared, global);
                continue;
            }
            if live.is_empty() {
                // Linger: this node's proxy may still run checkpoint
                // rounds on behalf of busier ranks; stay available for
                // the park/serialize handshake until it says shutdown.
                if ctl.shutdown.load(Ordering::Acquire) {
                    break;
                }
                notifier.nap(Duration::from_micros(200));
                continue;
            }
        } else if live.is_empty() {
            break;
        }
        let mut progressed = false;
        let mut kept = 0;
        for at in 0..live.len() {
            let vdp = &mut vdps[live[at] as usize];
            while is_ready(vdp, shared) {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Chaos hook: a configured panic target detonates here,
                    // inside the same catch_unwind that guards real kernel
                    // panics, so tests exercise the genuine quarantine path.
                    if shared.chaos_panic.as_ref() == Some(&vdp.tuple) {
                        panic!("chaos: injected panic at VDP {}", vdp.tuple);
                    }
                    fire_vdp(vdp, &services)
                }));
                if let Err(e) = r {
                    // Quarantine: the panicking firing already left
                    // `logic` taken, so the VDP can never fire again.
                    // Record the typed error and tear the run down.
                    shared.stats.lock().quarantined_vdps += 1;
                    shared.fail(RunError::VdpPanicked {
                        tuple: vdp.tuple.clone(),
                        payload: panic_message(&*e),
                    });
                    return;
                }
                progressed = true;
                fired += 1;
                // A plain store to this worker's own cache line; only an
                // idle worker's watchdog reads it before the run ends.
                shared.fired[global].0.store(fired, Ordering::Relaxed);
                if vdp.fired == vdp.counter {
                    vdp.logic = None;
                    break;
                }
                if scheme == SchedScheme::Lazy {
                    break;
                }
            }
            if vdp.logic.is_some() {
                live[kept] = live[at];
                kept += 1;
            }
        }
        live.truncate(kept);
        if progressed {
            if live.is_empty() && counted {
                // The AcqRel decrement orders this worker's final output
                // pushes before the proxy's observation of `live == 0`.
                shared.live[node].fetch_sub(1, Ordering::AcqRel);
                counted = false;
            }
            continue;
        }
        // Nothing fired: say so, then look once more before sleeping (see
        // `ThreadNotifier`).
        notifier.arm();
        if live.iter().any(|&i| is_ready(&vdps[i as usize], shared)) {
            notifier.disarm();
            continue;
        }
        notifier.park(Duration::from_micros(500));
        if let Some(limit) = shared.deadlock_timeout {
            let total: usize = shared
                .fired
                .iter()
                .map(|f| f.0.load(Ordering::Relaxed))
                .sum();
            if total != watch.0 {
                watch = (total, Instant::now());
            } else if watch.1.elapsed() > limit {
                // Stall watchdog: report which VDPs this worker still
                // owns and which input channels they starve on, then
                // tear the run down with a typed error.
                let stuck: Vec<StuckVdp> = live
                    .iter()
                    .map(|&i| describe_stuck(&vdps[i as usize], shared))
                    .collect();
                shared.fail(RunError::Stalled {
                    waited: limit,
                    stuck,
                });
                break;
            }
        }
    }
}

/// One worker's side of a checkpoint round: park at the firing boundary,
/// wait for the proxy to seal the epoch, serialize every owned VDP
/// (destroyed ones included — their firing counters matter to the
/// restore), then wait to be resumed. An abort anywhere unblocks it.
fn serve_checkpoint(ctl: &CkptControl, vdps: &[VdpState], shared: &Shared, global: usize) {
    let notifier = &shared.notifiers[global];
    ctl.parked.fetch_add(1, Ordering::AcqRel);
    loop {
        if shared.is_aborted() {
            return;
        }
        match ctl.phase.load(Ordering::Acquire) {
            CKPT_SERIALIZE => break,
            // The round was unwound before sealing; resume running.
            CKPT_RUN => return,
            _ => notifier.nap(Duration::from_micros(200)),
        }
    }
    // SAFETY: CKPT_SERIALIZE is published after every worker of this node
    // parked and the proxy drained its arrivals, and the proxy routes
    // nothing until the round ends — every queue is quiescent.
    let entries = vdps
        .iter()
        .map(|v| unsafe { crate::checkpoint::entry_of(v, &shared.queues) })
        .collect();
    *ctl.buffers[global].lock() = Some(entries);
    ctl.done.fetch_add(1, Ordering::AcqRel);
    while ctl.phase.load(Ordering::Acquire) == CKPT_SERIALIZE {
        if shared.is_aborted() {
            return;
        }
        notifier.nap(Duration::from_micros(200));
    }
}

fn describe_stuck(v: &VdpState, shared: &Shared) -> StuckVdp {
    StuckVdp {
        tuple: v.tuple.clone(),
        fired: v.fired,
        counter: v.counter,
        empty_inputs: shared.queues[span(&v.inputs)]
            .iter()
            .enumerate()
            .filter_map(|(slot, q)| (!q.satisfied()).then_some(slot))
            .collect(),
    }
}

/// An output queue from workers to their node proxy.
pub(crate) type OutgoingQueue = Mutex<VecDeque<crate::net::WireMsg>>;
