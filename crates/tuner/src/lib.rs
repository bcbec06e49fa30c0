//! # pulsar-tuner
//!
//! Shape-aware plan autotuning on top of `pulsar-core`'s
//! [`PlanPolicy`](pulsar_core::policy::PlanPolicy) abstraction. The best
//! reduction tree, tile size, and executor depend on the matrix aspect
//! ratio and core count (arXiv:1110.1553); this crate finds and caches
//! that choice:
//!
//! - [`profile`] — the versioned JSON profile table: measured cells keyed
//!   by `(m, n, threads)`, deterministic lookup with nearest-shape
//!   fallback, and [`ProfilePolicy`] implementing `PlanPolicy` over it.
//! - [`sweep`] — offline measured sweeps (`pulsar-qr tune`) that seed the
//!   table.
//! - [`refine`] — online refinement from serve traffic with hysteresis
//!   (a cell flips only after a streak of persistently better
//!   observations).
//! - [`json`] — the dependency-free JSON reader/writer the table format
//!   uses.

#![warn(missing_docs)]

pub mod json;
pub mod profile;
pub mod refine;
pub mod sweep;

pub use profile::{ProfileCell, ProfilePolicy, ProfileTable, PROFILE_VERSION};
pub use refine::{PlanKey, Refiner};
pub use sweep::{candidates, measure, run_sweep, SweepConfig, SweepReport};
