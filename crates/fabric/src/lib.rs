//! # pulsar-fabric
//!
//! Pluggable inter-node transport for the PULSAR runtime.
//!
//! The paper's PRT talks to the network through six MPI calls only
//! (Section IV-B): `MPI_Isend`, `MPI_Irecv`, `MPI_Test`,
//! `MPI_Get_count`, `MPI_Barrier`, and `MPI_Cancel`. [`Fabric`] is that
//! surface as a Rust trait, which lets the runtime's per-node proxy
//! thread run unchanged over either backend:
//!
//! - [`InProcFabric`] — virtual nodes inside one OS process, connected by
//!   in-memory queues. Payloads move by pointer (the runtime keeps its
//!   zero-copy `Arc` aliasing).
//! - [`TcpFabric`] — real OS processes connected by a full mesh of
//!   nonblocking TCP sockets, with a hand-rolled little-endian frame
//!   codec ([`frame`]), per-peer outbound queues, and clean shutdown via
//!   `barrier` + `cancel`.
//!
//! The trait maps onto the paper's calls as:
//!
//! | paper (MPI)     | [`Fabric`]            |
//! |-----------------|-----------------------|
//! | `MPI_Isend`     | [`Fabric::post_send`] |
//! | `MPI_Irecv`     | [`Fabric::post_recv`] |
//! | `MPI_Test`      | [`Fabric::test`]      |
//! | `MPI_Get_count` | [`Fabric::get_count`] |
//! | `MPI_Barrier`   | [`Fabric::barrier`]   |
//! | `MPI_Cancel`    | [`Fabric::cancel`]    |

#![warn(missing_docs)]

pub mod fault;
pub mod frame;
mod inproc;
mod tcp;

pub use fault::{FaultLog, FaultPlan, FaultyFabric, KillSpec};
pub use frame::{crc32c, fnv1a};
pub use inproc::InProcFabric;
pub use tcp::TcpFabric;

use std::time::Duration;

/// Bounded in-run recovery window for transient connection faults.
///
/// When a peer's connection drops (EOF, I/O error, liveness timeout) and
/// `attempts > 0`, a transport that supports reconnection re-dials the
/// peer up to `attempts` times, `backoff` apart, replaying un-acked
/// frames from its replay log once the connection is back. Only exhausted
/// retries escalate to [`FabricError::RetriesExhausted`]. The default
/// (`attempts: 0`) keeps the old fail-fast behavior.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnection attempts before giving up on a peer.
    pub attempts: u32,
    /// Delay between consecutive attempts.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No in-run recovery: the first connection fault is fatal.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 0,
            backoff: Duration::from_millis(0),
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// A node's index within the run (the MPI-rank analogue).
pub type NodeId = usize;

/// Handle to a posted send or receive (the `MPI_Request` analogue).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Op(pub(crate) u64);

/// Result of testing an operation.
#[derive(Debug, PartialEq, Eq)]
pub enum Completion<P> {
    /// Not finished yet.
    Pending,
    /// A send finished: the payload is on the wire (or delivered).
    SendDone,
    /// A receive finished.
    Recv {
        /// Wire id the sender addressed (the MPI-tag analogue).
        wire_id: u32,
        /// The received payload.
        payload: P,
        /// Payload size in bytes as counted by the transport.
        bytes: usize,
    },
}

/// Why a fabric operation failed.
///
/// Transient conditions (a kernel buffer momentarily full, an interrupted
/// syscall, a peer that has not finished dialing in yet) are retried
/// inside the backends and never surface here; everything that does
/// surface is fatal to the run and sticky — once a fabric reports an
/// error, every later operation reports the same one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// A peer's connection closed (or the peer announced it is aborting)
    /// while we still needed it.
    PeerClosed {
        /// The peer that went away.
        peer: NodeId,
    },
    /// An I/O error on a peer's socket that retrying cannot fix.
    Io {
        /// The peer whose socket failed, when attributable.
        peer: Option<NodeId>,
        /// The OS error kind.
        kind: std::io::ErrorKind,
        /// The OS error message.
        msg: String,
    },
    /// A peer sent bytes that do not parse as a valid frame (or broke the
    /// per-connection FIFO sequence contract).
    MalformedFrame {
        /// The offending peer.
        peer: NodeId,
        /// What was wrong with the frame.
        reason: frame::FrameError,
    },
    /// A peer went silent past the configured liveness deadline
    /// (heartbeats enabled via [`TcpFabric::set_heartbeat`]).
    Timeout {
        /// The silent peer.
        peer: NodeId,
        /// How long it had been silent.
        waited: Duration,
    },
    /// The operation was abandoned locally: the poison predicate fired
    /// during a barrier, or this fabric was deliberately killed
    /// (fault injection).
    Cancelled,
    /// A peer's connection dropped and every attempt of the configured
    /// [`RetryPolicy`] failed to bring it back: the fault was not
    /// transient.
    RetriesExhausted {
        /// The unreachable peer.
        peer: NodeId,
        /// How many reconnection attempts were made.
        attempts: u32,
    },
}

impl FabricError {
    /// The peer this error blames, when attributable to one.
    pub fn peer(&self) -> Option<NodeId> {
        match self {
            FabricError::PeerClosed { peer }
            | FabricError::MalformedFrame { peer, .. }
            | FabricError::Timeout { peer, .. }
            | FabricError::RetriesExhausted { peer, .. } => Some(*peer),
            FabricError::Io { peer, .. } => *peer,
            FabricError::Cancelled => None,
        }
    }
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::PeerClosed { peer } => write!(f, "peer {peer} closed its connection"),
            FabricError::Io {
                peer: Some(p),
                kind,
                msg,
            } => {
                write!(f, "i/o error ({kind:?}) on peer {p}: {msg}")
            }
            FabricError::Io {
                peer: None,
                kind,
                msg,
            } => {
                write!(f, "i/o error ({kind:?}): {msg}")
            }
            FabricError::MalformedFrame { peer, reason } => {
                write!(f, "malformed frame from peer {peer}: {reason}")
            }
            FabricError::Timeout { peer, waited } => {
                write!(f, "peer {peer} silent for {waited:?} (liveness timeout)")
            }
            FabricError::Cancelled => write!(f, "operation cancelled by local abort"),
            FabricError::RetriesExhausted { peer, attempts } => {
                write!(
                    f,
                    "peer {peer} unrecoverable after {attempts} retry attempts"
                )
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Robustness counters a fabric accumulates; folded into the runtime's
/// `RunStats` when the proxy exits.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricHealth {
    /// Heartbeat frames queued to peers.
    pub heartbeats_sent: u64,
    /// Liveness deadlines that expired (each one surfaces as
    /// [`FabricError::Timeout`]).
    pub heartbeats_missed: u64,
    /// Redials during mesh-up (exponential backoff while a peer's
    /// listener was not accepting yet).
    pub reconnect_attempts: u64,
    /// Sends that needed more than one write attempt (partial writes and
    /// interrupted syscalls, retried transparently).
    pub retried_sends: u64,
    /// Frames re-sent from the replay log after a connection was
    /// re-established.
    pub frames_replayed: u64,
    /// Dropped connections that healed through the [`RetryPolicy`]
    /// recovery window (one per successful reconnection).
    pub retries_healed: u64,
}

impl FabricHealth {
    /// Component-wise sum.
    pub fn merge(&mut self, other: &FabricHealth) {
        self.heartbeats_sent += other.heartbeats_sent;
        self.heartbeats_missed += other.heartbeats_missed;
        self.reconnect_attempts += other.reconnect_attempts;
        self.retried_sends += other.retried_sends;
        self.frames_replayed += other.frames_replayed;
        self.retries_healed += other.retries_healed;
    }
}

/// The six-call transport surface of the paper's Section IV-B.
///
/// One instance belongs to exactly one node's proxy thread; no method is
/// called concurrently. `Payload` is the unit a proxy hands to the
/// transport: an in-process fabric moves runtime packets by pointer,
/// a wire fabric moves encoded byte vectors.
pub trait Fabric {
    /// What travels through this fabric.
    type Payload;

    /// This node's rank.
    fn rank(&self) -> NodeId;

    /// Total number of nodes in the run.
    fn nodes(&self) -> usize;

    /// Post a nonblocking send of `payload` to `dst`, addressed to
    /// `wire_id`. `bytes` is the payload's logical size (used only for
    /// accounting by in-process transports). Completion is reported by
    /// [`Fabric::test`] as [`Completion::SendDone`].
    fn post_send(
        &mut self,
        dst: NodeId,
        wire_id: u32,
        payload: Self::Payload,
        bytes: usize,
    ) -> Result<Op, FabricError>;

    /// Post a nonblocking wildcard receive (any source, any wire id).
    /// Each posted receive completes at most once; re-post after every
    /// [`Completion::Recv`].
    fn post_recv(&mut self) -> Result<Op, FabricError>;

    /// Drive transport progress and report the state of `op`. A fatal
    /// transport condition (peer lost, malformed frame, liveness timeout)
    /// surfaces here as `Err` and is sticky.
    fn test(&mut self, op: Op) -> Result<Completion<Self::Payload>, FabricError>;

    /// Byte count of a completed operation (received payload size for a
    /// receive, payload size for a send). Consumes the record; a second
    /// call for the same op returns `None`.
    fn get_count(&mut self, op: Op) -> Option<usize>;

    /// Enter a global barrier and block until every node has entered, the
    /// `poison` predicate returns true (-> [`FabricError::Cancelled`]), or
    /// a peer vanishes (-> [`FabricError::PeerClosed`]).
    fn barrier(&mut self, poison: &mut dyn FnMut() -> bool) -> Result<(), FabricError>;

    /// Cancel a posted receive that will never complete (the paper's
    /// shutdown sequence: barrier, then cancel the outstanding
    /// `MPI_Irecv`).
    fn cancel(&mut self, op: Op);

    /// Announce to every peer that this node is going down (the
    /// `MPI_Abort` analogue): peers blocked in [`Fabric::barrier`] or
    /// [`Fabric::test`] observe a typed error instead of hanging.
    /// Best-effort and idempotent; default is a no-op for transports whose
    /// peer death is otherwise observable.
    fn abort(&mut self) {}

    /// Robustness counters accumulated so far (all zero for transports
    /// with nothing to retry).
    fn health(&self) -> FabricHealth {
        FabricHealth::default()
    }

    /// Sever every live connection without telling the peers (a network
    /// fault, not a shutdown): the next I/O observes EOF on both sides.
    /// Fault-injection hook; default is a no-op for transports without a
    /// connection to drop.
    fn drop_connections(&mut self) {}

    /// The fault-injection audit log, when this fabric injects faults
    /// (see [`FaultyFabric`]); `None` for real transports.
    fn fault_log(&self) -> Option<FaultLog> {
        None
    }

    /// Nothing to do: block for at most `max`, waking early if traffic
    /// may have arrived (transports without a wakeup primitive may just
    /// sleep).
    fn idle(&mut self, max: Duration);

    /// Total payload bytes sent so far (wire bytes for socket transports,
    /// declared packet bytes for in-process ones).
    fn bytes_sent(&self) -> u64;

    /// Total payload bytes received so far.
    fn bytes_received(&self) -> u64;
}
