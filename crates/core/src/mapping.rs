//! VDP→(node, thread) mapping functions (Section V-D).
//!
//! Any mapping is correct — it only moves work and data around. These
//! reproduce the paper's choices: tiles of a block row live on that row's
//! node; threads are assigned cyclically; a binary-reduction parent shares
//! the thread of its first child (automatic here, because a `Ttqrt` op is
//! owned by its `top` row, which is also its first child's owner).

use crate::plan::QrPlan;
use pulsar_runtime::{MappingFn, Place, Tuple};
use std::sync::Arc;

/// How block rows are distributed over nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RowDist {
    /// Row `i` on node `i mod nodes` (good load balance as panels shrink).
    Cyclic,
    /// Contiguous blocks of rows per node (fewest inter-node tile moves —
    /// the layout a weak-scaling run naturally starts from).
    Block,
}

impl RowDist {
    /// The node owning block row `i` of `mt`.
    pub fn node_of(&self, i: usize, mt: usize, nodes: usize) -> usize {
        match self {
            RowDist::Cyclic => i % nodes,
            RowDist::Block => {
                let per = mt.div_ceil(nodes);
                (i / per).min(nodes - 1)
            }
        }
    }
}

/// The paper's mapping for the QR array: each op VDP is placed by its
/// *owner row* (the top child for TT, the head for GEQRT — so a domain's
/// flat chain, named after its `Geqrt`, sits with its head) and spread over
/// threads cyclically by `(row + column)`.
pub fn qr_mapping(plan: &QrPlan, dist: RowDist, nodes: usize, tpn: usize) -> MappingFn {
    // Precompute owner rows: owner[j][q].
    let owners: Vec<Vec<usize>> = (0..plan.panels())
        .map(|j| plan.panel_ops(j).iter().map(|op| op.owner_row()).collect())
        .collect();
    let mt = plan.mt;
    Arc::new(move |t: &Tuple| {
        assert_eq!(t.len(), 3, "QR VDP tuples are (j, q, l)");
        let j = t.id(0) as usize;
        let q = t.id(1) as usize;
        let l = t.id(2) as usize;
        let row = owners[j][q];
        Place {
            node: dist.node_of(row, mt, nodes),
            thread: (row + l) % tpn,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Boundary, Tree};

    #[test]
    fn row_dist_block_covers_all_nodes() {
        let d = RowDist::Block;
        let nodes = 4;
        let mt = 10;
        let got: Vec<usize> = (0..mt).map(|i| d.node_of(i, mt, nodes)).collect();
        assert_eq!(got, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn row_dist_cyclic() {
        assert_eq!(RowDist::Cyclic.node_of(7, 100, 3), 1);
    }

    #[test]
    fn ttqrt_parent_shares_thread_with_first_child() {
        let plan = QrPlan::new(6, 3, Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);
        let map = qr_mapping(&plan, RowDist::Cyclic, 2, 4);
        // Panel 0: op 0 is geqrt(row 0) (first child of the merge), op 6 is
        // ttqrt(0, 3) — both owned by row 0, same place at every column.
        for l in 0..3 {
            let child = map(&Tuple::new3(0, 0, l));
            let parent = map(&Tuple::new3(0, 6, l));
            assert_eq!(child, parent);
        }
    }

    #[test]
    fn mapping_in_range() {
        let plan = QrPlan::new(9, 4, Tree::Binary, Boundary::Shifted);
        let map = qr_mapping(&plan, RowDist::Block, 3, 5);
        for j in 0..plan.panels() {
            for q in 0..plan.panel_ops(j).len() {
                for l in j..plan.nt {
                    let p = map(&Tuple::new3(j as i32, q as i32, l as i32));
                    assert!(p.node < 3 && p.thread < 5);
                }
            }
        }
    }
}
