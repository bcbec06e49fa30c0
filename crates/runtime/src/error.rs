//! Typed run failures: what [`crate::Vsa::run`] returns instead of hanging
//! or aborting the process when a node dies, a frame is garbage, a VDP
//! panics, or the array deadlocks.

use crate::packet::WireError;
use crate::tuple::Tuple;
use pulsar_fabric::FabricError;
use std::time::Duration;

/// Render a panic payload for diagnostics (the `payload` of
/// [`RunError::VdpPanicked`]).
pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// A VDP the stall watchdog found alive but unable to fire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StuckVdp {
    /// The VDP's identifying tuple.
    pub tuple: Tuple,
    /// Firings completed so far.
    pub fired: u32,
    /// Firings the VDP was created with.
    pub counter: u32,
    /// Input slots that are connected but have no satisfying packet —
    /// the channels the deadlock is waiting on.
    pub empty_inputs: Vec<usize>,
}

impl std::fmt::Display for StuckVdp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let waits = if self.empty_inputs.is_empty() {
            String::from("?")
        } else {
            self.empty_inputs
                .iter()
                .map(|s| format!("in{s}"))
                .collect::<Vec<_>>()
                .join("+")
        };
        write!(
            f,
            "{}[fired {}/{}, waiting on {}]",
            self.tuple, self.fired, self.counter, waits
        )
    }
}

/// Why a run failed. Returned by [`crate::Vsa::run`]; the first failure
/// observed wins, and every other thread is unblocked via abort.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// A peer node died, went silent, or closed its connection while this
    /// rank still needed it.
    PeerLost {
        /// The local node that observed the loss.
        node: usize,
        /// The peer blamed.
        peer: usize,
        /// The transport-level detail.
        error: FabricError,
    },
    /// The local fabric failed for a reason not attributable to one peer
    /// (I/O error, local cancellation).
    Fabric {
        /// The local node whose fabric failed.
        node: usize,
        /// The transport-level detail.
        error: FabricError,
    },
    /// A payload arrived that does not decode as any registered packet
    /// (corruption the frame layer could not see, or a registry mismatch
    /// between ranks).
    Decode {
        /// The local node that received the undecodable payload.
        node: usize,
        /// What was wrong with it.
        error: WireError,
    },
    /// A VDP's user logic panicked; the VDP was quarantined (destroyed
    /// without firing again) and the run torn down.
    VdpPanicked {
        /// The VDP whose firing panicked.
        tuple: Tuple,
        /// The panic payload, stringified.
        payload: String,
    },
    /// The stall watchdog fired: no VDP anywhere made progress for the
    /// configured window. Diagnosis lists each live-but-stuck VDP and the
    /// input slots it starves on.
    Stalled {
        /// The no-progress window that elapsed.
        waited: Duration,
        /// The stuck VDPs this worker still owned.
        stuck: Vec<StuckVdp>,
    },
    /// The TCP mesh never came up (a peer unreachable within the connect
    /// timeout, or a bogus handshake).
    MeshConnect {
        /// The local rank that failed to join.
        node: usize,
        /// The connect error text.
        msg: String,
    },
    /// The runtime's own wiring contract was violated by a remote message
    /// (e.g. a wire id with no route); indicates mismatched SPMD arrays.
    Protocol {
        /// The local node that caught the violation.
        node: usize,
        /// What was violated.
        msg: String,
    },
    /// Writing or restoring a checkpoint failed (unencodable packet, I/O
    /// error, corrupt or mismatched checkpoint file).
    Checkpoint {
        /// The local node whose checkpoint failed.
        node: usize,
        /// What went wrong.
        error: crate::checkpoint::CheckpointError,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::PeerLost { node, peer, error } => {
                write!(f, "node {node}: lost peer {peer}: {error}")
            }
            RunError::Fabric { node, error } => write!(f, "node {node}: fabric failed: {error}"),
            RunError::Decode { node, error } => {
                write!(f, "node {node}: undecodable packet: {error}")
            }
            RunError::VdpPanicked { tuple, payload } => {
                write!(f, "VDP {tuple} panicked: {payload}")
            }
            RunError::Stalled { waited, stuck } => {
                write!(f, "no progress for {waited:?}; stuck VDPs: ")?;
                if stuck.is_empty() {
                    write!(f, "(none local)")
                } else {
                    let list: Vec<String> = stuck.iter().map(|s| s.to_string()).collect();
                    write!(f, "{}", list.join(", "))
                }
            }
            RunError::MeshConnect { node, msg } => {
                write!(f, "rank {node}: mesh connect failed: {msg}")
            }
            RunError::Protocol { node, msg } => write!(f, "node {node}: protocol error: {msg}"),
            RunError::Checkpoint { node, error } => {
                write!(f, "node {node}: checkpoint failed: {error}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Map a fabric failure observed by `node`'s proxy to a run error,
/// blaming the peer when the transport can name one.
pub(crate) fn fabric_run_error(node: usize, error: FabricError) -> RunError {
    match error.peer() {
        Some(peer) => RunError::PeerLost { node, peer, error },
        None => RunError::Fabric { node, error },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_vdp_display_names_slots() {
        let s = StuckVdp {
            tuple: Tuple::new2(1, 2),
            fired: 3,
            counter: 5,
            empty_inputs: vec![0, 2],
        };
        assert_eq!(s.to_string(), "(1,2)[fired 3/5, waiting on in0+in2]");
    }

    #[test]
    fn fabric_errors_blame_peers_when_possible() {
        let e = fabric_run_error(0, FabricError::PeerClosed { peer: 3 });
        assert!(matches!(
            e,
            RunError::PeerLost {
                node: 0,
                peer: 3,
                ..
            }
        ));
        let e = fabric_run_error(1, FabricError::Cancelled);
        assert!(matches!(e, RunError::Fabric { node: 1, .. }));
    }
}
