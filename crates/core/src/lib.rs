//! # pulsar-core
//!
//! The paper's primary contribution: a **tree-based tile QR decomposition
//! of tall-and-skinny matrices executed by a 3D Virtual Systolic Array** on
//! the PULSAR runtime.
//!
//! Every reduction tree is one elimination list over the same six tile
//! kernels, so the crate has one op core and executors that differ only in
//! *who runs an op and when*:
//!
//! - [`plan`] — reduction-tree plans (flat / binary / binary-on-flat trees,
//!   fixed / shifted domain boundaries), i.e. the paper's Figure 5 schedule.
//! - `ops` (crate-private) — the op core: the only two functions that call
//!   a tile kernel (`factor_op`, `apply_op`), the one `R` assembly and the
//!   one exits→factors collector. Everything below is built on it.
//! - [`seqqr`] — the plan walker over one tile grid, run on one thread: the
//!   numerical oracle. Adds nothing to the op core but the loop.
//! - [`tsqr`] — the same walker with each panel's domains dispatched onto
//!   scoped threads (communication-optimal TSQR; no VSA at all).
//! - [`vsa3d`] — the 3D VSA of the paper's Section V-C / Figure 8, the one
//!   QR array: one multi-fire VDP per (panel, domain, column) running the
//!   domain's flat chain against a persistent local tile, one single-fire
//!   VDP per binary merge, transformations flowing along vertical channels
//!   with bypass, tiles flowing horizontally to the next panel through a
//!   dashed channel enabled mid-run, under either boundary. On the flat
//!   tree it is the IPDPS'13 2D domino QR (Figure 9). Adds batching of many
//!   jobs into one launch and the SPMD partial collector for distributed
//!   ranks.
//! - [`applyq`] — `Q`/`Q^T` application as a VSA: one VDP per recorded
//!   transformation, row tiles streaming through them.
//! - [`factors`] — the factorization output: `R`, the transformation tree,
//!   sequential `Q` application, least-squares solving, and verification.
//! - [`update`] — streaming row append to stored factors (a TSQRT chain
//!   against the stored `R`).
//! - [`lsqr`] — the least-squares driver: factor and apply `Q^T` as VSAs,
//!   then back-substitute.
//! - [`cholesky`] — tile Cholesky on the same runtime (its own kernels; the
//!   generality demonstration, not part of the QR op core).
//! - [`mapping`] — VDP→(node, thread) mapping functions.
//! - [`policy`] — plan policies: `{tree, h, nb, ib, backend}` chosen per
//!   `(m, n, threads)` instead of hard-coded at call sites.

#![warn(missing_docs)]

pub mod applyq;
pub mod cholesky;
pub mod factors;
pub mod lsqr;
pub mod mapping;
pub(crate) mod ops;
pub mod plan;
pub mod policy;
pub mod seqqr;
pub(crate) mod store;
pub mod tsqr;
pub mod update;
pub mod vsa3d;

pub use factors::{Reflectors, TileQrFactors};
pub use lsqr::{least_squares, LsSolution};
pub use plan::{Boundary, PanelOp, QrPlan, Tree};
pub use policy::{Backend, PaperPolicy, PlanChoice, PlanPolicy};
pub use seqqr::tile_qr_seq;
pub use tsqr::{grid_aspect, tile_qr_tsqr};
pub use update::{append_rows, UpdateError};

/// Decoders for every payload the QR arrays send across node boundaries:
/// the runtime's standard types plus [`Reflectors`]. Every rank of a
/// distributed run must use this registry (or a superset).
pub fn wire_registry() -> pulsar_runtime::PacketRegistry {
    let mut r = pulsar_runtime::PacketRegistry::standard();
    r.register::<Reflectors>();
    r
}

/// Tuning and algorithm parameters of a tile QR factorization.
#[derive(Clone, Debug)]
pub struct QrOptions {
    /// Tile size (paper: 192 or 240 on Kraken).
    pub nb: usize,
    /// Inner block size (paper: 48).
    pub ib: usize,
    /// Panel reduction tree.
    pub tree: Tree,
    /// Domain boundary strategy (paper default: shifted).
    pub boundary: Boundary,
}

impl QrOptions {
    /// Options with the paper's shifted boundaries.
    pub fn new(nb: usize, ib: usize, tree: Tree) -> Self {
        assert!(nb > 0 && ib > 0, "block sizes must be positive");
        QrOptions {
            nb,
            ib,
            tree,
            boundary: Boundary::Shifted,
        }
    }

    /// Use fixed domain boundaries (for the Figure 6/7 comparison).
    pub fn with_fixed_boundary(mut self) -> Self {
        self.boundary = Boundary::Fixed;
        self
    }
}
