//! Online profile refinement from serve traffic, with hysteresis.
//!
//! The serve scheduler reports every completed job as an observation:
//! shape, the plan it actually ran, and the throughput achieved. The
//! refiner folds these into per-`(shape, plan)` EWMAs and updates the
//! profile table only when the evidence is persistent: a challenger plan
//! must beat the incumbent cell's EWMA by a margin on `streak`
//! *consecutive* observations before the cell flips. A single noisy
//! sample therefore can never flip a cell — it either fails the margin or
//! resets nothing more than its own streak counter.

use crate::profile::{ProfileCell, ProfileTable};
use pulsar_core::policy::Backend;
use pulsar_core::Tree;
use std::collections::HashMap;

/// Identity of a plan as observed on a job (the cell fields a refinement
/// can change).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanKey {
    /// Reduction tree the job ran.
    pub tree: Tree,
    /// Tile size the job ran.
    pub nb: usize,
    /// Executor the job ran on.
    pub backend: Backend,
}

// Tree is not Hash upstream (CustomDomains carries an Arc<Vec>); key the
// maps by the canonical spec string instead.
impl PlanKey {
    fn spec(&self) -> String {
        format!("{}/{}/{}", self.tree, self.nb, self.backend)
    }
}

#[derive(Default)]
struct ShapeStats {
    /// Throughput EWMA per plan spec.
    ewma: HashMap<String, f64>,
    /// Observation count per plan spec.
    count: HashMap<String, u64>,
    /// Consecutive observations where this spec beat the incumbent.
    streak: HashMap<String, u32>,
}

/// The online refiner (see module docs).
pub struct Refiner {
    /// Challenger EWMA must exceed incumbent EWMA by this factor.
    pub margin: f64,
    /// Consecutive better observations required before a cell flips.
    pub streak: u32,
    /// EWMA weight of the newest sample.
    pub alpha: f64,
    shapes: HashMap<(usize, usize, usize), ShapeStats>,
    refinements: u64,
}

impl Default for Refiner {
    fn default() -> Self {
        Refiner::new(0.10, 3)
    }
}

impl Refiner {
    /// Refiner requiring `streak` consecutive wins by more than `margin`
    /// (e.g. `0.10` = 10% faster) before flipping a cell.
    pub fn new(margin: f64, streak: u32) -> Self {
        assert!(margin >= 0.0 && streak >= 1);
        Refiner {
            margin,
            streak,
            alpha: 0.3,
            shapes: HashMap::new(),
            refinements: 0,
        }
    }

    /// Cells flipped or newly seeded so far.
    pub fn refinements(&self) -> u64 {
        self.refinements
    }

    /// Fold one completed job into the statistics and, if the hysteresis
    /// threshold is crossed, update `table`. Returns `true` when a cell
    /// changed.
    pub fn observe(
        &mut self,
        table: &mut ProfileTable,
        (m, n, threads): (usize, usize, usize),
        key: &PlanKey,
        ib: usize,
        gflops: f64,
    ) -> bool {
        if !gflops.is_finite() || gflops <= 0.0 {
            return false;
        }
        let spec = key.spec();
        let stats = self.shapes.entry((m, n, threads)).or_default();
        let e = stats.ewma.entry(spec.clone()).or_insert(gflops);
        *e = self.alpha * gflops + (1.0 - self.alpha) * *e;
        let ewma = *e;
        *stats.count.entry(spec.clone()).or_insert(0) += 1;
        let seen = stats.count[&spec];

        let incumbent = table.lookup_exact(m, n, threads).cloned();
        match incumbent {
            None => {
                // No cell yet: seed one once the plan has a full streak of
                // observations behind it (a single job is not evidence).
                if seen >= self.streak as u64 {
                    table.insert(ProfileCell {
                        m,
                        n,
                        threads,
                        tree: key.tree.clone(),
                        nb: key.nb,
                        ib,
                        backend: key.backend,
                        gflops: ewma,
                        samples: seen,
                    });
                    self.refinements += 1;
                    true
                } else {
                    false
                }
            }
            Some(cell) => {
                let inc_key = PlanKey {
                    tree: cell.tree.clone(),
                    nb: cell.nb,
                    backend: cell.backend,
                };
                if inc_key.spec() == spec {
                    // Incumbent re-observed: refresh its recorded
                    // throughput, reset every challenger streak (the
                    // incumbent is still live evidence).
                    let mut cell = cell;
                    cell.gflops = ewma;
                    cell.samples += 1;
                    table.insert(cell);
                    stats.streak.clear();
                    return false;
                }
                let inc_ewma = stats
                    .ewma
                    .get(&inc_key.spec())
                    .copied()
                    .unwrap_or(cell.gflops);
                let s = stats.streak.entry(spec.clone()).or_insert(0);
                if ewma > inc_ewma * (1.0 + self.margin) && gflops > inc_ewma {
                    *s += 1;
                } else {
                    *s = 0;
                    return false;
                }
                if *s < self.streak {
                    return false;
                }
                table.insert(ProfileCell {
                    m,
                    n,
                    threads,
                    tree: key.tree.clone(),
                    nb: key.nb,
                    ib,
                    backend: key.backend,
                    gflops: ewma,
                    samples: cell.samples + 1,
                });
                stats.streak.clear();
                self.refinements += 1;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tree: Tree, nb: usize, backend: Backend) -> PlanKey {
        PlanKey { tree, nb, backend }
    }

    #[test]
    fn one_noisy_sample_cannot_flip_a_cell() {
        let mut table = ProfileTable::new();
        let mut r = Refiner::new(0.10, 3);
        let inc = key(Tree::BinaryOnFlat { h: 4 }, 16, Backend::Vsa3d);
        let ch = key(Tree::Greedy, 16, Backend::Vsa3d);
        for _ in 0..3 {
            r.observe(&mut table, (64, 64, 2), &inc, 8, 10.0);
        }
        assert_eq!(table.lookup_exact(64, 64, 2).unwrap().tree, inc.tree);
        // One huge outlier from a different plan: no flip.
        assert!(!r.observe(&mut table, (64, 64, 2), &ch, 8, 1000.0));
        assert_eq!(table.lookup_exact(64, 64, 2).unwrap().tree, inc.tree);
    }

    #[test]
    fn persistent_challenger_flips_after_streak() {
        let mut table = ProfileTable::new();
        let mut r = Refiner::new(0.10, 3);
        let inc = key(Tree::BinaryOnFlat { h: 4 }, 16, Backend::Vsa3d);
        let ch = key(Tree::Greedy, 16, Backend::Vsa3d);
        for _ in 0..3 {
            r.observe(&mut table, (64, 64, 2), &inc, 8, 10.0);
        }
        let mut flips = 0;
        for _ in 0..3 {
            if r.observe(&mut table, (64, 64, 2), &ch, 8, 20.0) {
                flips += 1;
            }
        }
        assert_eq!(flips, 1);
        assert_eq!(table.lookup_exact(64, 64, 2).unwrap().tree, Tree::Greedy);
        assert_eq!(r.refinements(), 2, "seed + flip");
    }

    #[test]
    fn incumbent_reobservation_resets_challenger_streaks() {
        let mut table = ProfileTable::new();
        let mut r = Refiner::new(0.10, 3);
        let inc = key(Tree::BinaryOnFlat { h: 4 }, 16, Backend::Vsa3d);
        let ch = key(Tree::Binary, 16, Backend::Vsa3d);
        for _ in 0..3 {
            r.observe(&mut table, (64, 64, 2), &inc, 8, 10.0);
        }
        // Two challenger wins, then the incumbent shows up again.
        r.observe(&mut table, (64, 64, 2), &ch, 8, 20.0);
        r.observe(&mut table, (64, 64, 2), &ch, 8, 20.0);
        r.observe(&mut table, (64, 64, 2), &inc, 8, 10.0);
        // The next challenger win starts a fresh streak — still no flip
        // until three more in a row.
        assert!(!r.observe(&mut table, (64, 64, 2), &ch, 8, 20.0));
        assert!(!r.observe(&mut table, (64, 64, 2), &ch, 8, 20.0));
        assert!(r.observe(&mut table, (64, 64, 2), &ch, 8, 20.0));
    }

    #[test]
    fn seeding_requires_a_streak_too() {
        let mut table = ProfileTable::new();
        let mut r = Refiner::new(0.10, 3);
        let k = key(Tree::Flat, 8, Backend::Walk);
        assert!(!r.observe(&mut table, (512, 8, 1), &k, 8, 5.0));
        assert!(!r.observe(&mut table, (512, 8, 1), &k, 8, 5.0));
        assert!(r.observe(&mut table, (512, 8, 1), &k, 8, 5.0));
        let cell = table.lookup_exact(512, 8, 1).unwrap();
        assert_eq!(cell.backend, Backend::Walk);
        assert_eq!(cell.samples, 3);
    }
}
