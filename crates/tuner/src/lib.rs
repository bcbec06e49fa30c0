//! # pulsar-tuner
//!
//! Shape-aware plan autotuning on top of `pulsar-core`'s
//! [`PlanPolicy`](pulsar_core::policy::PlanPolicy) abstraction. The best
//! reduction tree, tile size, and executor depend on the matrix aspect
//! ratio and core count (arXiv:1110.1553); this crate finds and caches
//! that choice offline. `pulsar-qr tune --profile` writes the table, and
//! `factor --profile` / `submit --profile` read it; nothing edits it
//! online.
//!
//! - [`profile`] — the versioned JSON profile table: measured cells keyed
//!   by `(m, n, threads)`, deterministic lookup with nearest-shape
//!   fallback, and [`ProfilePolicy`] implementing `PlanPolicy` over it.
//! - [`sweep`] — offline measured sweeps (`pulsar-qr tune`) that write the
//!   table.
//! - [`json`] — the dependency-free JSON reader/writer the table format
//!   and every service stats line use.

#![warn(missing_docs)]

pub mod json;
pub mod profile;
pub mod sweep;

pub use profile::{ProfileCell, ProfilePolicy, ProfileTable, PROFILE_VERSION};
pub use sweep::{candidates, measure, run_sweep, SweepConfig, SweepReport};
