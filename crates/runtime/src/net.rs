//! The per-node proxy thread, generic over the inter-node [`Fabric`].
//!
//! This module is the runtime's side of the paper's MPI substitution (see
//! DESIGN.md): each node runs a dedicated proxy thread, exactly like the
//! paper's PRT. Workers never touch the fabric — they enqueue outgoing
//! packets on per-worker queues; the proxy posts the sends (`MPI_Isend`
//! analogue), tests one outstanding wildcard receive
//! (`MPI_Irecv`/`MPI_Test` analogue), and routes arrivals to the
//! destination channel by wire id (the MPI-tag trick of Section IV-B).
//! Shutdown follows the paper: once the node's last VDP is destroyed and
//! all sends are flushed, the proxy enters a fabric barrier and then
//! cancels the outstanding receive.
//!
//! An optional alpha-beta [`NetModel`] delays deliveries on the *receiving*
//! side to emulate a slower interconnect — identically for every backend.

use crate::checkpoint::{self, CheckpointError, ExitEntry, RankCheckpoint};
use crate::error::{fabric_run_error, RunError};
use crate::packet::{Packet, WireError};
use crate::vsa::{CkptControl, Shared, CKPT_PARK, CKPT_RUN, CKPT_SERIALIZE};
use pulsar_fabric::{Completion, Fabric, FabricError, Op};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Alpha-beta interconnect model: a message of `b` bytes takes
/// `latency + b / bandwidth` to arrive.
#[derive(Copy, Clone, Debug)]
pub struct NetModel {
    /// Per-message latency (alpha), microseconds.
    pub latency_us: f64,
    /// Bandwidth (1/beta), bytes per microsecond.
    pub bytes_per_us: f64,
}

impl NetModel {
    /// Delivery delay for a message of `bytes`.
    pub fn delay(&self, bytes: usize) -> Duration {
        let us = self.latency_us + bytes as f64 / self.bytes_per_us;
        Duration::from_secs_f64(us * 1e-6)
    }

    /// Roughly a Cray SeaStar2+ link (the paper's Kraken): ~6 us latency,
    /// ~6 GB/s bandwidth.
    pub fn seastar2() -> Self {
        NetModel {
            latency_us: 6.0,
            bytes_per_us: 6000.0,
        }
    }
}

/// One outgoing message, queued by a worker for its node's proxy.
pub(crate) struct WireMsg {
    pub wire_id: u32,
    pub dst_node: usize,
    pub packet: Packet,
}

/// Reserved wire id for checkpoint-round announcements (rank 0 → peers).
/// Plans allocate wire ids from 0 upward, so the top value never collides.
pub(crate) const CKPT_WIRE: u32 = u32::MAX;

/// An arrival the [`NetModel`] is still holding back.
struct Held {
    at: Instant,
    seq: u64,
    wire_id: u32,
    packet: Packet,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// What one proxy measured; folded into [`Shared`] when it exits.
#[derive(Default)]
struct ProxyStats {
    sent: usize,
    deferred: usize,
    idle_spins: usize,
}

/// Why the proxy's inner loop bailed out; mapped to a [`RunError`] by
/// [`proxy_loop`].
enum ProxyFail {
    /// The transport failed.
    Fabric(FabricError),
    /// An arrived payload did not decode as a registered packet.
    Decode(WireError),
    /// An arrival addressed a wire id this node has no route for.
    Route(u32),
    /// Writing a periodic checkpoint failed.
    Checkpoint(CheckpointError),
}

impl From<FabricError> for ProxyFail {
    fn from(e: FabricError) -> Self {
        ProxyFail::Fabric(e)
    }
}

/// Main loop of one node's proxy thread, generic over the transport.
///
/// `encode` turns a runtime packet into the fabric's payload (an identity
/// clone for in-process transports — preserving zero-copy aliasing — or a
/// wire encoding for socket transports); `decode` is its inverse.
///
/// A transport failure, undecodable arrival, or routing violation records
/// the first [`RunError`] on `shared`, announces the abort to peers, and
/// stops the run; the proxy itself never panics on remote input.
pub(crate) fn proxy_loop<F, E, D>(
    node: usize,
    mut fabric: F,
    outgoing: &[crate::sched::OutgoingQueue],
    shared: &Shared,
    encode: E,
    decode: D,
) where
    F: Fabric,
    E: Fn(&Packet) -> (F::Payload, usize),
    D: Fn(F::Payload) -> Result<Packet, WireError>,
{
    let mut stats = ProxyStats::default();
    if let Err(fail) = proxy_run(
        node,
        &mut fabric,
        outgoing,
        shared,
        encode,
        decode,
        &mut stats,
    ) {
        let error = match fail {
            // First error wins inside fail(): if this Cancelled is merely
            // the reaction to an abort another thread already diagnosed,
            // that thread's error is the one kept.
            ProxyFail::Fabric(e) => fabric_run_error(node, e),
            ProxyFail::Decode(e) => RunError::Decode { node, error: e },
            ProxyFail::Route(w) => RunError::Protocol {
                node,
                msg: format!("no route for wire id {w}"),
            },
            ProxyFail::Checkpoint(e) => RunError::Checkpoint { node, error: e },
        };
        shared.fail(error);
        // Tell the peers we are going down so their barriers and receives
        // fail fast instead of timing out.
        fabric.abort();
    }
    fold_stats(&fabric, &stats, shared);
}

#[allow(clippy::too_many_arguments)]
fn proxy_run<F, E, D>(
    node: usize,
    fabric: &mut F,
    outgoing: &[crate::sched::OutgoingQueue],
    shared: &Shared,
    encode: E,
    decode: D,
    stats: &mut ProxyStats,
) -> Result<(), ProxyFail>
where
    F: Fabric,
    E: Fn(&Packet) -> (F::Payload, usize),
    D: Fn(F::Payload) -> Result<Packet, WireError>,
{
    let mut held: BinaryHeap<Reverse<Held>> = BinaryHeap::new();
    let mut held_seq = 0u64;
    // Per-wire FIFO floor: the model must not reorder messages on one wire.
    let mut wire_floor: Vec<Option<Instant>> = vec![None; shared.routes.len()];
    let mut pending_sends: Vec<Op> = Vec::new();
    let mut recv_op = fabric.post_recv()?;

    // Periodic-checkpoint state. Rank 0 is the sole initiator; every other
    // rank joins a round when the announcement frame reaches its drain.
    let ckpt = shared.ckpt.as_ref();
    let mut next_epoch = ckpt.map_or(1, |c| c.start_epoch.load(Ordering::Relaxed) + 1);
    let mut last_ckpt = Instant::now();
    let mut ckpt_requested: Option<u64> = None;

    loop {
        // Observe quiescence BEFORE sweeping outgoing: a worker's last push
        // happens-before its final `live` decrement, so live == 0 followed
        // by an empty sweep means no send can appear later.
        let quiesced = shared.live[node].load(Ordering::Acquire) == 0;
        let mut progressed = false;

        // Initiate a checkpoint round: rank 0 only, on its timer, never
        // while quiesced (a quiesced rank 0 initiating nothing is what lets
        // every rank's final barrier come up empty and close the run).
        if let Some(ctl) = ckpt {
            if node == 0
                && !quiesced
                && ckpt_requested.is_none()
                && last_ckpt.elapsed() >= ctl.every
            {
                let epoch = next_epoch;
                for peer in 1..fabric.nodes() {
                    let (payload, nbytes) = encode(&Packet::wire(epoch as i64));
                    pending_sends.push(fabric.post_send(peer, CKPT_WIRE, payload, nbytes)?);
                }
                ckpt_requested = Some(epoch);
            }
        }

        // Serve outgoing queues: post the sends (MPI_Isend analogue).
        let mut swept_any = false;
        for q in outgoing {
            loop {
                let Some(msg) = q.lock().pop_front() else {
                    break;
                };
                let (payload, nbytes) = encode(&msg.packet);
                pending_sends.push(fabric.post_send(msg.dst_node, msg.wire_id, payload, nbytes)?);
                stats.sent += 1;
                swept_any = true;
                progressed = true;
            }
        }

        // Complete posted sends (MPI_Test analogue).
        let mut i = 0;
        while i < pending_sends.len() {
            match fabric.test(pending_sends[i])? {
                Completion::SendDone => {
                    fabric.get_count(pending_sends[i]);
                    pending_sends.swap_remove(i);
                    progressed = true;
                }
                _ => i += 1,
            }
        }

        // Drain arrivals, re-posting the wildcard receive after each
        // (MPI_Irecv/MPI_Test/MPI_Get_count analogue).
        loop {
            match fabric.test(recv_op)? {
                Completion::Pending => break,
                Completion::SendDone => unreachable!("recv op completed as send"),
                Completion::Recv {
                    wire_id,
                    payload,
                    bytes,
                } => {
                    let bytes = fabric.get_count(recv_op).unwrap_or(bytes);
                    recv_op = fabric.post_recv()?;
                    progressed = true;
                    let packet = decode(payload).map_err(ProxyFail::Decode)?;
                    if wire_id == CKPT_WIRE {
                        // Rank 0 announced a checkpoint round; run it after
                        // this drain (at most one can be outstanding — the
                        // next announcement is only sent after this round's
                        // barrier completed on every rank).
                        ckpt_requested = Some(ckpt_epoch_of(&packet)?);
                        continue;
                    }
                    match shared.net {
                        Some(net) => {
                            // Receiver-side hold; clamp to the wire's FIFO floor.
                            let floor = wire_floor
                                .get_mut(wire_id as usize)
                                .ok_or(ProxyFail::Route(wire_id))?;
                            let mut at = Instant::now() + net.delay(bytes);
                            if let Some(floor) = *floor {
                                at = at.max(floor);
                            }
                            *floor = Some(at);
                            stats.deferred += 1;
                            held.push(Reverse(Held {
                                at,
                                seq: held_seq,
                                wire_id,
                                packet,
                            }));
                            held_seq += 1;
                        }
                        None => route_packet(shared, node, wire_id, packet)?,
                    }
                }
            }
        }

        // Deliver held messages whose modeled flight time has elapsed (all
        // of them once the node is quiesced — nobody is left to care about
        // the remaining delay).
        while let Some(Reverse(h)) = held.peek() {
            if !quiesced && h.at > Instant::now() {
                break;
            }
            let Reverse(h) = held.pop().unwrap();
            route_packet(shared, node, h.wire_id, h.packet)?;
            progressed = true;
        }

        if shared.is_aborted() {
            // Local teardown (error or panic elsewhere in this process):
            // announce it so peers fail fast instead of stalling.
            fabric.cancel(recv_op);
            fabric.abort();
            return Ok(());
        }

        // Run the checkpoint round the drain surfaced (or rank 0 queued).
        // The round itself performs this rank's barrier for the epoch.
        if let Some(epoch) = ckpt_requested.take() {
            if let Some(ctl) = ckpt {
                checkpoint_round(
                    node,
                    epoch,
                    false,
                    fabric,
                    ctl,
                    outgoing,
                    &mut pending_sends,
                    &mut recv_op,
                    &mut held,
                    shared,
                    &encode,
                    &decode,
                )?;
                next_epoch = epoch + 1;
                last_ckpt = Instant::now();
                continue;
            }
        }

        // Paper shutdown sequence: last local VDP destroyed and nothing in
        // flight -> Barrier (every peer's data frames precede its barrier
        // frame, so all traffic for us has been absorbed) -> Cancel the
        // outstanding receive.
        if quiesced && !swept_any && pending_sends.is_empty() && held.is_empty() {
            match fabric.barrier(&mut || shared.is_aborted()) {
                // Cancelled = poisoned by our own abort flag; still a
                // clean local exit.
                Ok(()) | Err(FabricError::Cancelled) => {}
                Err(e) => {
                    fabric.cancel(recv_op);
                    return Err(e.into());
                }
            }
            let Some(ctl) = ckpt else {
                fabric.cancel(recv_op);
                return Ok(());
            };
            if shared.is_aborted() {
                fabric.cancel(recv_op);
                return Ok(());
            }
            // Lingering exit under periodic checkpointing: a done rank
            // cannot know whether the barrier it just completed closes the
            // run or seals a round initiated by a still-busy rank 0. The
            // per-connection FIFO settles it: rank 0 sends the
            // announcement *before* its round barrier, so after the
            // barrier a drain either surfaces the announcement (this was
            // round `e`'s barrier — take the checkpoint, skip its barrier,
            // and keep lingering) or comes up empty (every rank is in the
            // same announcement-free barrier — exit together).
            let mut announced: Option<u64> = None;
            loop {
                match fabric.test(recv_op) {
                    Ok(Completion::Pending) => break,
                    Ok(Completion::SendDone) => unreachable!("recv op completed as send"),
                    Ok(Completion::Recv {
                        wire_id, payload, ..
                    }) => {
                        fabric.get_count(recv_op);
                        recv_op = fabric.post_recv()?;
                        let packet = decode(payload).map_err(ProxyFail::Decode)?;
                        if wire_id == CKPT_WIRE {
                            announced = Some(ckpt_epoch_of(&packet)?);
                        } else {
                            route_packet(shared, node, wire_id, packet)?;
                        }
                    }
                    // A peer that closed after our exit barrier has itself
                    // drained empty and concluded collective exit (it could
                    // not be mid-round: the initiator blocks in the round
                    // barrier until every rank joins) — follow it out
                    // rather than treating its EOF as a lost peer.
                    Err(FabricError::PeerClosed { .. }) if announced.is_none() => break,
                    Err(e) => return Err(e.into()),
                }
            }
            match announced {
                Some(epoch) => {
                    checkpoint_round(
                        node,
                        epoch,
                        true,
                        fabric,
                        ctl,
                        outgoing,
                        &mut pending_sends,
                        &mut recv_op,
                        &mut held,
                        shared,
                        &encode,
                        &decode,
                    )?;
                    next_epoch = epoch + 1;
                    last_ckpt = Instant::now();
                    continue;
                }
                None => {
                    ctl.shutdown.store(true, Ordering::Release);
                    shared.notify_node(node);
                    fabric.cancel(recv_op);
                    return Ok(());
                }
            }
        }

        if !progressed {
            stats.idle_spins += 1;
            let nap = held
                .peek()
                .map(|Reverse(h)| {
                    h.at.saturating_duration_since(Instant::now())
                        .min(Duration::from_micros(100))
                })
                .unwrap_or(Duration::from_micros(100));
            fabric.idle(nap.max(Duration::from_micros(1)));
        }
    }
}

/// Route one arrival into its destination channel and wake the owner. A
/// wire id this node's proxy does not serve is a protocol violation.
fn route_packet(
    shared: &Shared,
    node: usize,
    wire_id: u32,
    packet: Packet,
) -> Result<(), ProxyFail> {
    let route = shared
        .routes
        .get(wire_id as usize)
        .copied()
        .flatten()
        .filter(|r| r.owner as usize / shared.threads_per_node == node)
        .ok_or(ProxyFail::Route(wire_id))?;
    // SAFETY: an inter-node channel's only producer is its destination
    // node's proxy thread — this one, as the owner check above confirms.
    unsafe { shared.queues[route.queue as usize].push(packet) };
    shared.notifiers[route.owner as usize].notify();
    Ok(())
}

/// Epoch carried by a checkpoint-round announcement frame.
fn ckpt_epoch_of(packet: &Packet) -> Result<u64, ProxyFail> {
    match packet.get::<i64>() {
        Some(&e) if e >= 0 => Ok(e as u64),
        _ => Err(ProxyFail::Decode(WireError::Malformed(
            "checkpoint announcement does not carry an epoch",
        ))),
    }
}

/// One rank's side of a coordinated quiescent checkpoint round:
///
/// 1. *Park* — workers stop at their next firing boundary.
/// 2. *Flush* — everything they produced goes out; all posted sends
///    complete (the peer's kernel has the bytes; the replay log covers
///    redelivery on a transient fault).
/// 3. *Barrier* — seals the epoch. Every peer's pre-barrier data frames
///    are parsed before its barrier frame (per-connection FIFO), so after
///    the barrier a drain empties the fabric of everything belonging to
///    this cut. `already_barriered` skips this step on the lingering-exit
///    path, where the barrier ran before the round was recognized.
/// 4. *Drain* — arrivals route to their channels; net-model holds flush.
/// 5. *Serialize* — workers dump their VDP sets into per-thread buffers.
/// 6. *Write* — one atomic per-rank file; resume workers.
///
/// An abort observed at any wait returns `Cancelled`; "first error wins"
/// in `Shared::fail` keeps the real cause. Parked workers are unblocked by
/// the abort itself, so error paths need no phase unwinding.
#[allow(clippy::too_many_arguments)]
fn checkpoint_round<F, E, D>(
    node: usize,
    epoch: u64,
    already_barriered: bool,
    fabric: &mut F,
    ctl: &CkptControl,
    outgoing: &[crate::sched::OutgoingQueue],
    pending_sends: &mut Vec<Op>,
    recv_op: &mut Op,
    held: &mut BinaryHeap<Reverse<Held>>,
    shared: &Shared,
    encode: &E,
    decode: &D,
) -> Result<(), ProxyFail>
where
    F: Fabric,
    E: Fn(&Packet) -> (F::Payload, usize),
    D: Fn(F::Payload) -> Result<Packet, WireError>,
{
    let tpn = shared.threads_per_node;
    let aborted = || -> Result<(), ProxyFail> {
        if shared.is_aborted() {
            Err(ProxyFail::Fabric(FabricError::Cancelled))
        } else {
            Ok(())
        }
    };

    // 1. Park.
    ctl.phase.store(CKPT_PARK, Ordering::Release);
    shared.notify_node(node);
    while ctl.parked.load(Ordering::Acquire) < tpn {
        aborted()?;
        // Keep pumping (heartbeats, arrivals) while workers wind down.
        fabric.idle(Duration::from_micros(50));
    }

    // 2. Flush.
    for q in outgoing {
        while let Some(msg) = q.lock().pop_front() {
            let (payload, nbytes) = encode(&msg.packet);
            pending_sends.push(fabric.post_send(msg.dst_node, msg.wire_id, payload, nbytes)?);
            shared.stats.lock().remote_msgs += 1;
        }
    }
    while !pending_sends.is_empty() {
        aborted()?;
        let mut i = 0;
        let mut moved = false;
        while i < pending_sends.len() {
            match fabric.test(pending_sends[i])? {
                Completion::SendDone => {
                    fabric.get_count(pending_sends[i]);
                    pending_sends.swap_remove(i);
                    moved = true;
                }
                _ => i += 1,
            }
        }
        if !moved {
            fabric.idle(Duration::from_micros(50));
        }
    }

    // 3. Seal the epoch.
    if !already_barriered {
        match fabric.barrier(&mut || shared.is_aborted()) {
            Ok(()) => {}
            Err(FabricError::Cancelled) => return Err(ProxyFail::Fabric(FabricError::Cancelled)),
            Err(e) => return Err(e.into()),
        }
    }

    // 4. Drain everything sealed into this cut.
    loop {
        match fabric.test(*recv_op)? {
            Completion::Pending => break,
            Completion::SendDone => unreachable!("recv op completed as send"),
            Completion::Recv {
                wire_id, payload, ..
            } => {
                fabric.get_count(*recv_op);
                *recv_op = fabric.post_recv()?;
                let packet = decode(payload).map_err(ProxyFail::Decode)?;
                // A nested announcement is impossible mid-round (single
                // initiator, one barrier per round) — treat as data.
                route_packet(shared, node, wire_id, packet)?;
            }
        }
    }
    while let Some(Reverse(h)) = held.pop() {
        route_packet(shared, node, h.wire_id, h.packet)?;
    }

    // 5. Serialize.
    ctl.done.store(0, Ordering::Release);
    ctl.phase.store(CKPT_SERIALIZE, Ordering::Release);
    shared.notify_node(node);
    while ctl.done.load(Ordering::Acquire) < tpn {
        aborted()?;
        fabric.idle(Duration::from_micros(50));
    }

    // 6. Collect, write, resume.
    let threads = shared.global_thread(node, 0)..shared.global_thread(node, tpn);
    let vdps = threads
        .clone()
        .flat_map(|t| {
            let buf = ctl.buffers[t].lock().take();
            buf.expect("parked worker serialized its buffer")
        })
        .collect();
    let collected = threads.flat_map(|t| shared.exits[t].lock().clone());
    let exits: Vec<ExitEntry> = shared
        .merge_exits(shared.restored_exits.clone(), collected)
        .into_iter()
        .map(|((tuple, slot), packets)| ExitEntry {
            tuple,
            slot,
            packets,
        })
        .collect();
    let ck = RankCheckpoint {
        rank: node,
        nodes: fabric.nodes(),
        epoch,
        vdps,
        exits,
    };
    let written = checkpoint::write_rank_checkpoint(&ctl.dir, &ck);
    ctl.parked.store(0, Ordering::Release);
    ctl.phase.store(CKPT_RUN, Ordering::Release);
    shared.notify_node(node);
    match written {
        Ok(bytes) => {
            let mut s = shared.stats.lock();
            s.checkpoints_written += 1;
            s.checkpoint_bytes += bytes;
            Ok(())
        }
        Err(e) => Err(ProxyFail::Checkpoint(e)),
    }
}

fn fold_stats<F: Fabric>(fabric: &F, proxy: &ProxyStats, shared: &Shared) {
    let h = fabric.health();
    let mut s = shared.stats.lock();
    s.remote_msgs += proxy.sent;
    s.deferred_msgs += proxy.deferred;
    s.proxy_idle_spins += proxy.idle_spins;
    s.wire_bytes_sent += fabric.bytes_sent();
    s.wire_bytes_recv += fabric.bytes_received();
    s.heartbeats_sent += h.heartbeats_sent;
    s.heartbeats_missed += h.heartbeats_missed;
    s.reconnect_attempts += h.reconnect_attempts;
    s.retried_sends += h.retried_sends;
    s.frames_replayed += h.frames_replayed;
    s.retries_healed += h.retries_healed;
    if let Some(log) = fabric.fault_log() {
        s.fault_log = Some(match s.fault_log {
            None => log,
            Some(prev) => pulsar_fabric::FaultLog {
                dropped: prev.dropped + log.dropped,
                duplicated: prev.duplicated + log.duplicated,
                delayed: prev.delayed + log.delayed,
                corrupted: prev.corrupted + log.corrupted,
                truncated: prev.truncated + log.truncated,
                killed: prev.killed || log.killed,
                disconnected: prev.disconnected || log.disconnected,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_model_delay() {
        let m = NetModel {
            latency_us: 10.0,
            bytes_per_us: 100.0,
        };
        let d = m.delay(1000);
        assert!((d.as_secs_f64() * 1e6 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn held_ordering_is_by_time_then_seq() {
        let now = Instant::now();
        let mk = |us: u64, seq: u64| Held {
            at: now + Duration::from_micros(us),
            seq,
            wire_id: 0,
            packet: Packet::new(0u8, 1),
        };
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(mk(50, 0)));
        heap.push(Reverse(mk(10, 1)));
        heap.push(Reverse(mk(10, 0)));
        let Reverse(first) = heap.pop().unwrap();
        assert_eq!((first.at, first.seq), (now + Duration::from_micros(10), 0));
    }
}
