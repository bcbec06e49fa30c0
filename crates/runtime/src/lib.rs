//! # pulsar-runtime
//!
//! A Rust reimplementation of the **PULSAR Runtime (PRT)** — the lightweight
//! runtime of the paper's Section IV. It executes a *Virtual Systolic Array*
//! (VSA): a set of *Virtual Data Processors* (VDPs) connected by FIFO
//! channels, fired by data availability.
//!
//! - [`Tuple`] identifies a VDP; [`VdpSpec`]/[`VdpLogic`] define its code,
//!   firing counter, and channel slots; [`VdpContext`] is what a firing sees.
//! - [`ChannelSpec`] declares a static unidirectional channel between two
//!   VDP slots; channels can start disabled and be enabled/disabled/destroyed
//!   mid-run (used by the QR array's binary→flat return channel).
//! - [`Vsa`] collects VDPs, channels, and seed packets, and [`Vsa::run`]
//!   executes the array on `nodes x threads_per_node` worker threads with a
//!   per-node proxy thread handling inter-node traffic — the same process
//!   layout as the paper's MPI+Pthreads PRT, with a pluggable [`Backend`]
//!   substituted for MPI: in-process queues by default, or real TCP sockets
//!   between SPMD OS processes ([`TcpBackend`]), optionally delayed by a
//!   [`NetModel`]. Payloads that cross a socket implement [`PacketCodec`]
//!   and are decoded on arrival by a [`PacketRegistry`].
//!
//! ## Example
//!
//! ```
//! use pulsar_runtime::*;
//!
//! // A two-VDP pipeline: (0) doubles a number and sends it to (1), which
//! // adds one and exits the result from the array.
//! let mut vsa = Vsa::new();
//! vsa.add_vdp(VdpSpec::new(Tuple::new1(0), 1, 1, 1, |ctx: &mut VdpContext| {
//!     let x: i64 = ctx.pop(0).take();
//!     ctx.push(0, Packet::new(x * 2, 8));
//! }));
//! vsa.add_vdp(VdpSpec::new(Tuple::new1(1), 1, 1, 1, |ctx: &mut VdpContext| {
//!     let x: i64 = ctx.pop(0).take();
//!     ctx.push(0, Packet::new(x + 1, 8));
//! }));
//! vsa.add_channel(ChannelSpec::new(8, Tuple::new1(0), 0, Tuple::new1(1), 0));
//! vsa.add_channel(ChannelSpec::new(8, Tuple::new1(1), 0, Tuple::new1(99), 0)); // exit
//! vsa.seed(Tuple::new1(0), 0, Packet::new(20i64, 8));
//!
//! let mut out = vsa.run(&RunConfig::smp(2)).expect("run failed");
//! let result: i64 = out.take_exit(Tuple::new1(99), 0).remove(0).take();
//! assert_eq!(result, 41);
//! ```
//!
//! ## Failure model
//!
//! [`Vsa::run`] returns `Result`: a lost peer, an undecodable or corrupted
//! payload, a panicking VDP, or a stalled array surfaces as a typed
//! [`RunError`] instead of a hang or a process abort. Deterministic fault
//! injection for chaos tests is available via
//! [`RunConfig::with_fault`] (re-exported [`FaultPlan`]), and TCP runs can
//! enable peer heartbeats with [`RunConfig::with_heartbeat`].

#![warn(missing_docs)]

pub mod channel;
pub mod checkpoint;
pub mod error;
pub mod net;
pub mod packet;
pub mod pool;
mod sched;
pub mod trace;
pub mod tuple;
pub mod vdp;
pub mod vsa;

pub use channel::{ChannelSpec, ChannelState};
pub use checkpoint::CheckpointError;
pub use error::{panic_message, RunError, StuckVdp};
pub use net::NetModel;
pub use packet::{Packet, PacketCodec, PacketRegistry, WireError};
pub use pool::VsaPool;
pub use pulsar_fabric::{FabricError, FaultLog, FaultPlan, KillSpec, RetryPolicy};
pub use trace::{TaskSpan, Trace};
pub use tuple::Tuple;
pub use vdp::{VdpContext, VdpLogic, VdpSpec, WorkerScratch};
pub use vsa::{
    Backend, MappingFn, Place, RunConfig, RunOutput, RunStats, SchedScheme, TcpBackend, Vsa,
};
