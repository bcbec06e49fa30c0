//! # pulsar-sim
//!
//! Large-scale performance projection for the tree-QR VSA: a discrete-event
//! simulator that replays the *same* dataflow graphs the real runtime
//! executes, on a modeled Cray XT5 (Kraken) with per-kernel efficiencies and
//! an alpha-beta interconnect. This substitutes for the paper's 9,216-core
//! testbed (see DESIGN.md) and regenerates Figures 10 and 11. The graph is
//! wired from the plan's row hops and placed by the runtime's `qr_mapping`
//! ([`taskgraph`]), so at small scale its task count, cross-node messages
//! and bytes equal the real runtime's exactly
//! (`tests/end_to_end.rs::simulator_task_count_matches_runtime_firings`).

#![warn(missing_docs)]

pub mod autotune;
pub mod baselines;
pub mod des;
pub mod machine;
pub mod taskgraph;

pub use des::{simulate, simulate_traced, SimResult};
pub use machine::{KernelEff, Machine};
pub use taskgraph::{build_tree_qr_graph, RuntimeModel, TaskGraph};

use pulsar_core::mapping::RowDist;
use pulsar_core::QrOptions;

/// Build and simulate a tree QR of an `m x n` matrix in one call.
pub fn simulate_tree_qr(
    m: usize,
    n: usize,
    opts: &QrOptions,
    dist: RowDist,
    machine: &Machine,
    model: RuntimeModel,
) -> SimResult {
    let g = build_tree_qr_graph(m, n, opts, dist, machine, model);
    simulate(&g, machine)
}
