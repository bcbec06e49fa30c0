//! Plan policies: choose `{tree, h, nb, ib, backend}` per `(m, n, threads)`.
//!
//! "Hierarchical QR factorization algorithms for multi-core cluster
//! systems" (arXiv:1110.1553) shows the best reduction tree depends on the
//! matrix aspect ratio and core count — there is no single right plan. A
//! [`PlanPolicy`] makes that choice a swappable object instead of constants
//! hard-coded at a call site. [`PaperPolicy`] reproduces the paper's fixed
//! hierarchy; the `pulsar-tuner` crate provides a measured,
//! profile-table-backed policy on top of this trait, which the CLI's
//! `--profile` flags ask for a [`PlanChoice`]. The service asks no policy:
//! a job carries its own options, and the executor of a batch follows from
//! its jobs' shapes ([`crate::vsa3d::batch_backend`]).

use crate::plan::Tree;
use crate::QrOptions;

/// Which executor a plan should run on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The paper's 3D virtual systolic array (panel pipelining across the
    /// full grid) — the default for general shapes.
    Vsa3d,
    /// The plan walker (`walk_plan`): on one thread it is
    /// [`crate::tile_qr_seq`], with its domain stage on pool workers it is
    /// TSQR ([`crate::tile_qr_tsqr`]). What a tall grid and each job of a
    /// balanced service batch run on ([`crate::vsa3d::batch_backend`]).
    Walk,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Vsa3d => "vsa3d",
            Backend::Walk => "walk",
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "vsa3d" => Ok(Backend::Vsa3d),
            // `seq` and `tsqr` name the same walker in older tables.
            "walk" | "seq" | "tsqr" => Ok(Backend::Walk),
            _ => Err(format!("unknown backend `{s}` (use vsa3d | walk)")),
        }
    }
}

/// A fully resolved plan decision for one `(m, n, threads)` job shape.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanChoice {
    /// Panel reduction tree (carries `h` for the hierarchical variants).
    pub tree: Tree,
    /// Tile size.
    pub nb: usize,
    /// Inner block size.
    pub ib: usize,
    /// Executor to run the plan on.
    pub backend: Backend,
}

impl PlanChoice {
    /// The [`QrOptions`] this choice induces (shifted boundaries, the
    /// paper's default).
    pub fn options(&self) -> QrOptions {
        QrOptions::new(self.nb, self.ib, self.tree.clone())
    }

    /// Render as the CLI/flag spelling, e.g. `tree=hier:4 nb=64 ib=16
    /// backend=vsa3d`.
    pub fn describe(&self) -> String {
        format!(
            "tree={} nb={} ib={} backend={}",
            self.tree, self.nb, self.ib, self.backend
        )
    }
}

/// Chooses a [`PlanChoice`] for a job shape. Implementations must be
/// deterministic: the same `(m, n, threads)` always yields the same
/// choice (the profile-table policy guarantees this via exact-cell lookup
/// plus a deterministic nearest-shape fallback).
pub trait PlanPolicy {
    /// Pick the plan for an `m x n` factorization on `threads` workers.
    /// The returned `nb` always divides `m`.
    fn choose(&self, m: usize, n: usize, threads: usize) -> PlanChoice;
}

/// The largest tile size `<= preferred` that divides `m` exactly (tile
/// executors require `m % nb == 0`). Falls back to 1 for pathological `m`.
pub fn divisor_nb(m: usize, preferred: usize) -> usize {
    let cap = preferred.max(1).min(m.max(1));
    (1..=cap).rev().find(|d| m.is_multiple_of(*d)).unwrap_or(1)
}

/// The paper's fixed plan: hierarchical binary-on-flat tree with `h = 4`,
/// shifted boundaries, 3D VSA backend. `nb`/`ib` preferences are clamped
/// to divide `m`.
#[derive(Clone, Debug)]
pub struct PaperPolicy {
    /// Preferred tile size (adjusted per-shape to divide `m`).
    pub nb: usize,
    /// Preferred inner block size (clamped to the chosen `nb`).
    pub ib: usize,
}

impl PaperPolicy {
    /// Policy with the repo's CLI defaults (`nb = 64`, `ib = 16`).
    pub fn new(nb: usize, ib: usize) -> Self {
        assert!(nb > 0 && ib > 0, "block sizes must be positive");
        PaperPolicy { nb, ib }
    }
}

impl Default for PaperPolicy {
    fn default() -> Self {
        PaperPolicy::new(64, 16)
    }
}

impl PlanPolicy for PaperPolicy {
    fn choose(&self, m: usize, _n: usize, _threads: usize) -> PlanChoice {
        let nb = divisor_nb(m, self.nb);
        PlanChoice {
            tree: Tree::BinaryOnFlat { h: 4 },
            nb,
            ib: self.ib.min(nb),
            backend: Backend::Vsa3d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_specs_round_trip() {
        for b in [Backend::Vsa3d, Backend::Walk] {
            assert_eq!(b.to_string().parse::<Backend>().unwrap(), b);
        }
        for old in ["seq", "tsqr"] {
            assert_eq!(old.parse::<Backend>().unwrap(), Backend::Walk);
        }
        assert!("fpga".parse::<Backend>().is_err());
    }

    #[test]
    fn divisor_nb_divides() {
        assert_eq!(divisor_nb(512, 64), 64);
        assert_eq!(divisor_nb(96, 64), 48);
        assert_eq!(divisor_nb(7, 64), 7);
        assert_eq!(divisor_nb(13, 4), 1);
    }

    #[test]
    fn paper_policy_builds_valid_plans() {
        let p = PaperPolicy::default();
        let choice = p.choose(512, 64, 4);
        assert_eq!(choice.nb, 64);
        assert_eq!(choice.ib, 16);
        assert_eq!(choice.tree, Tree::BinaryOnFlat { h: 4 });
        assert_eq!(choice.backend, Backend::Vsa3d);
        let plan = choice.options().plan(512 / choice.nb, 64 / choice.nb);
        assert_eq!((plan.mt, plan.nt), (8, 1));
        // Awkward row counts still get a dividing nb.
        let c2 = p.choose(96, 96, 4);
        assert_eq!(96 % c2.nb, 0);
        assert!(c2.ib <= c2.nb);
    }
}
