//! The cached profile table: measured plan choices keyed by job shape.
//!
//! A table is a versioned set of cells, each recording the best measured
//! `{tree, nb, ib, backend}` for one `(m, n, threads)` shape plus the
//! throughput that won. Lookup is deterministic: an exact cell if present,
//! otherwise the nearest cell in log-shape space (ties broken by smallest
//! `m`, then `n`, then `threads` — never by insertion order). Tables are
//! persisted as JSON under the `--profile` path; `version` is checked on
//! load so a future format change invalidates old files loudly instead of
//! misreading them.

use crate::json::{obj, Json};
use pulsar_core::policy::{divisor_nb, Backend, PaperPolicy, PlanChoice, PlanPolicy};
use pulsar_core::{tall_grid, Tree};
use std::path::Path;

/// Current on-disk format version. Bump on any incompatible change.
pub const PROFILE_VERSION: u64 = 1;

/// One measured cell: the winning plan for a shape.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileCell {
    /// Rows of the tuned shape.
    pub m: usize,
    /// Columns of the tuned shape.
    pub n: usize,
    /// Worker threads the measurement used.
    pub threads: usize,
    /// Winning reduction tree.
    pub tree: Tree,
    /// Winning tile size.
    pub nb: usize,
    /// Inner block size used.
    pub ib: usize,
    /// Winning executor.
    pub backend: Backend,
    /// Throughput of the winner at tune time (GFLOP/s).
    pub gflops: f64,
    /// Measurements behind this cell: always 1 from the offline sweep.
    /// Tables an older `serve --profile` refined may carry more; they
    /// load and save unchanged.
    pub samples: u64,
}

impl ProfileCell {
    fn to_json(&self) -> Json {
        obj([
            ("m", Json::Num(self.m as f64)),
            ("n", Json::Num(self.n as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("tree", Json::Str(self.tree.to_string())),
            ("nb", Json::Num(self.nb as f64)),
            ("ib", Json::Num(self.ib as f64)),
            ("backend", Json::Str(self.backend.to_string())),
            ("gflops", Json::Num(self.gflops)),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("cell missing `{k}`"));
        let num = |k: &str| field(k)?.as_usize().ok_or_else(|| format!("bad `{k}`"));
        Ok(ProfileCell {
            m: num("m")?,
            n: num("n")?,
            threads: num("threads")?,
            tree: field("tree")?
                .as_str()
                .ok_or("bad `tree`")?
                .parse::<Tree>()?,
            nb: num("nb")?,
            ib: num("ib")?,
            backend: field("backend")?
                .as_str()
                .ok_or("bad `backend`")?
                .parse::<Backend>()?,
            gflops: field("gflops")?.as_f64().ok_or("bad `gflops`")?,
            samples: num("samples")? as u64,
        })
    }
}

/// The profile table (see module docs for lookup semantics).
#[derive(Clone, Debug, Default)]
pub struct ProfileTable {
    cells: Vec<ProfileCell>,
}

impl ProfileTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// All cells, in deterministic (m, n, threads) order.
    pub fn cells(&self) -> &[ProfileCell] {
        &self.cells
    }

    /// Insert or replace the cell for `(cell.m, cell.n, cell.threads)`.
    pub fn insert(&mut self, cell: ProfileCell) {
        let key = (cell.m, cell.n, cell.threads);
        match self
            .cells
            .binary_search_by_key(&key, |c| (c.m, c.n, c.threads))
        {
            Ok(i) => self.cells[i] = cell,
            Err(i) => self.cells.insert(i, cell),
        }
    }

    /// The exact cell for a shape, if tuned.
    pub fn lookup_exact(&self, m: usize, n: usize, threads: usize) -> Option<&ProfileCell> {
        self.cells
            .binary_search_by_key(&(m, n, threads), |c| (c.m, c.n, c.threads))
            .ok()
            .map(|i| &self.cells[i])
    }

    /// Deterministic lookup: the exact cell, or the nearest tuned shape in
    /// log space. Returns the cell and whether it was an exact hit.
    pub fn lookup(&self, m: usize, n: usize, threads: usize) -> Option<(&ProfileCell, bool)> {
        if let Some(c) = self.lookup_exact(m, n, threads) {
            return Some((c, true));
        }
        let lg = |x: usize| (x.max(1) as f64).ln();
        let dist = |c: &ProfileCell| {
            let dm = lg(c.m) - lg(m);
            let dn = lg(c.n) - lg(n);
            let dt = lg(c.threads) - lg(threads);
            dm * dm + dn * dn + dt * dt
        };
        // Cells are in (m, n, threads) order, so strict `<` makes the
        // winner the smallest-keyed cell among equal distances.
        let mut best: Option<(&ProfileCell, f64)> = None;
        for c in &self.cells {
            let d = dist(c);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((c, d));
            }
        }
        best.map(|(c, _)| (c, false))
    }

    /// Serialize to the versioned JSON format.
    pub fn to_json(&self) -> String {
        obj(vec![
            ("version", Json::Num(PROFILE_VERSION as f64)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(ProfileCell::to_json).collect()),
            ),
        ])
        .write()
    }

    /// Parse the JSON format, rejecting unknown versions.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let version = v
            .get("version")
            .and_then(Json::as_usize)
            .ok_or("profile missing `version`")? as u64;
        if version != PROFILE_VERSION {
            return Err(format!(
                "profile version {version} unsupported (this build reads {PROFILE_VERSION})"
            ));
        }
        let mut table = ProfileTable::new();
        for cell in v
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("profile missing `cells`")?
        {
            table.insert(ProfileCell::from_json(cell)?);
        }
        Ok(table)
    }

    /// Load a table from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the table to `path` (atomically via a sibling temp file, so a
    /// concurrent reader never sees a torn table).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
    }
}

/// A [`PlanPolicy`] backed by a [`ProfileTable`]: exact hit, nearest-shape
/// fallback, and — with no cells at all — the paper's fixed plan.
#[derive(Debug, Default)]
pub struct ProfilePolicy {
    /// The table consulted on every choice.
    pub table: ProfileTable,
    fallback: PaperPolicy,
}

impl ProfilePolicy {
    /// Policy over `table` with the paper plan as empty-table fallback.
    pub fn new(table: ProfileTable) -> Self {
        ProfilePolicy {
            table,
            fallback: PaperPolicy::default(),
        }
    }

    /// Adapt a cell tuned for one shape to a concrete `(m, n)`: clamp `nb`
    /// to divide `m`, clamp `h` to the shrunken grid, and apply the aspect
    /// rule for the backend.
    fn adapt(&self, cell: &ProfileCell, m: usize, n: usize) -> PlanChoice {
        let nb = if m.is_multiple_of(cell.nb) {
            cell.nb
        } else {
            divisor_nb(m, cell.nb)
        };
        let mt = (m / nb).max(1);
        let tree = match &cell.tree {
            Tree::BinaryOnFlat { h } => Tree::BinaryOnFlat {
                h: (*h).min(mt).max(1),
            },
            t => t.clone(),
        };
        // A walked cell only transfers where the aspect rule holds: a
        // square shape borrowing a tall cell, or a walked cell that an
        // older table booked for a balanced batch, stays on the VSA.
        let backend = match cell.backend {
            Backend::Walk if tall_grid(m, n, nb) => Backend::Walk,
            Backend::Walk | Backend::Vsa3d => Backend::Vsa3d,
        };
        PlanChoice {
            tree,
            nb,
            ib: cell.ib.min(nb).max(1),
            backend,
        }
    }
}

impl PlanPolicy for ProfilePolicy {
    fn choose(&self, m: usize, n: usize, threads: usize) -> PlanChoice {
        match self.table.lookup(m, n, threads) {
            Some((cell, _)) => self.adapt(cell, m, n),
            None => {
                let mut choice = self.fallback.choose(m, n, threads);
                if tall_grid(m, n, choice.nb) {
                    choice.backend = Backend::Walk;
                }
                choice
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(m: usize, n: usize, threads: usize, tree: Tree, nb: usize) -> ProfileCell {
        ProfileCell {
            m,
            n,
            threads,
            tree,
            nb,
            ib: nb.min(16),
            backend: Backend::Vsa3d,
            gflops: 1.0,
            samples: 1,
        }
    }

    #[test]
    fn json_round_trip() {
        let mut t = ProfileTable::new();
        t.insert(cell(512, 64, 4, Tree::BinaryOnFlat { h: 8 }, 64));
        t.insert(cell(64, 64, 4, Tree::Greedy, 16));
        let back = ProfileTable::parse(&t.to_json()).unwrap();
        assert_eq!(back.cells(), t.cells());
        // A version-1 table saved with the retired pooled-GEMM crossover
        // and TSQR threshold keys still loads, and is saved again without
        // them.
        let saved = concat!(
            r#"{"cells":[{"backend":"vsa3d","gflops":1,"ib":16,"m":64,"n":64,"#,
            r#""nb":16,"samples":1,"threads":4,"tree":"greedy"},"#,
            r#"{"backend":"vsa3d","gflops":1,"ib":16,"m":512,"n":64,"nb":64,"#,
            r#""samples":1,"threads":4,"tree":"hier:8"}],"#,
            r#""pool_min_mnk":452984832,"tsqr_"#,
            r#"min_aspect":32,"version":1}"#
        );
        let old = ProfileTable::parse(saved).unwrap();
        assert_eq!(old.cells(), t.cells());
        assert_eq!(old.to_json(), t.to_json());
        assert!(!old.to_json().contains("pool_min_mnk"));
        assert!(!old.to_json().contains("aspect"));
    }

    #[test]
    fn version_is_enforced() {
        let doctored = ProfileTable::new()
            .to_json()
            .replace(&format!("\"version\":{PROFILE_VERSION}"), "\"version\":999");
        assert!(ProfileTable::parse(&doctored).unwrap_err().contains("999"));
    }

    #[test]
    fn exact_beats_nearest_and_fallback_is_deterministic() {
        let mut t = ProfileTable::new();
        t.insert(cell(64, 64, 2, Tree::Greedy, 16));
        t.insert(cell(2048, 8, 2, Tree::BinaryOnFlat { h: 64 }, 16));
        let (c, exact) = t.lookup(64, 64, 2).unwrap();
        assert!(exact);
        assert_eq!(c.tree, Tree::Greedy);
        // 4096x8 has no cell; nearest in log space is the tall one.
        let (c, exact) = t.lookup(4096, 8, 2).unwrap();
        assert!(!exact);
        assert_eq!(c.m, 2048);
        // Repeated lookups agree (determinism).
        assert_eq!(
            t.lookup(100, 100, 3).unwrap().0,
            t.lookup(100, 100, 3).unwrap().0
        );
    }

    #[test]
    fn policy_adapts_cells_to_foreign_shapes() {
        let mut t = ProfileTable::new();
        let mut tall = cell(2048, 8, 2, Tree::BinaryOnFlat { h: 64 }, 16);
        tall.backend = Backend::Walk;
        t.insert(tall);
        let p = ProfilePolicy::new(t);
        // Same family, smaller: h clamps to the grid, nb divides m.
        let c = p.choose(96, 8, 2);
        assert_eq!(96 % c.nb, 0);
        if let Tree::BinaryOnFlat { h } = c.tree {
            assert!(h <= 96 / c.nb);
        }
        // A square shape borrowing the tall cell must not walk.
        let c = p.choose(64, 64, 2);
        assert_eq!(c.backend, Backend::Vsa3d);
    }

    #[test]
    fn empty_table_falls_back_to_paper_plan_with_aspect_rule() {
        let p = ProfilePolicy::new(ProfileTable::new());
        let square = p.choose(256, 256, 4);
        assert_eq!(square.backend, Backend::Vsa3d);
        assert_eq!(square.tree, Tree::BinaryOnFlat { h: 4 });
        let tall = p.choose(16384, 64, 4);
        assert_eq!(tall.backend, Backend::Walk);
    }
}
