//! Reduction-tree plans for the panel factorization (Section V-B).
//!
//! A plan turns `(mt, nt, tree, boundary)` into, for each panel `j`, an
//! ordered list of [`PanelOp`]s — exactly the loop nest of the paper's
//! Figure 5 pseudocode: a flat-tree reduction inside each domain of `h`
//! tiles, followed by a binary-tree reduction of the domain top tiles.
//! The *flat* tree is the degenerate case `h = mt` (one domain per panel —
//! any `h >= mt` behaves identically, since panel `j` has only `mt - j`
//! rows left, under both boundary modes) and the *binary* tree is `h = 1`
//! (every row its own domain, so the panel is merges only). Both
//! equivalences are exact op-for-op (pinned by the
//! `degenerate_h_equivalences` test), with panel dependency depths
//! `mt - j` for flat and `1 + ceil(log2(mt - j))` for binary.

/// Which reduction tree factorizes each panel.
///
/// The paper evaluates the first three; [`Tree::Greedy`] and
/// [`Tree::CustomDomains`] are extensions in the spirit of its references
/// [6, 7] ("instead of enumerating and subsequently testing all possible
/// tree variants…") — the optimal tree is system-dependent and found by
/// experimentation, which these make possible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tree {
    /// One flat reduction over the whole panel (the domino QR's tree).
    Flat,
    /// A pure binary reduction (maximum parallelism, TT kernels only).
    Binary,
    /// The paper's hierarchical tree: flat reductions over domains of `h`
    /// tiles, then a binary reduction of the domain tops.
    BinaryOnFlat {
        /// Tiles per domain.
        h: usize,
    },
    /// Greedy pairwise merges: every row is factorized, then each round
    /// eliminates ⌊available/2⌋ rows at once by merging the bottom half
    /// into the top half (stride pairing). Same depth as [`Tree::Binary`],
    /// different wiring: survivors are always the topmost rows, which
    /// frees the rows the *next* panel needs first.
    Greedy,
    /// Arbitrary per-panel domain sizes, cycled: `sizes[0]` tiles in the
    /// first domain, `sizes[1]` in the second, and so on (wrapping), each
    /// flat-reduced, with a binary reduction of the tops. Lets a user
    /// match domains to the hardware topology (e.g. rows-per-node, then
    /// rows-per-socket).
    CustomDomains {
        /// Domain size sequence (every entry must be positive).
        sizes: std::sync::Arc<Vec<usize>>,
    },
}

impl Tree {
    /// Convenience constructor for [`Tree::CustomDomains`].
    pub fn custom(sizes: impl Into<Vec<usize>>) -> Self {
        let sizes = sizes.into();
        assert!(!sizes.is_empty(), "need at least one domain size");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "domain sizes must be positive"
        );
        Tree::CustomDomains {
            sizes: std::sync::Arc::new(sizes),
        }
    }
}

/// Renders the spec syntax [`Tree::from_str`] parses:
/// `flat | binary | greedy | hier:H | domains:a,b,...`.
impl std::fmt::Display for Tree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tree::Flat => write!(f, "flat"),
            Tree::Binary => write!(f, "binary"),
            Tree::Greedy => write!(f, "greedy"),
            Tree::BinaryOnFlat { h } => write!(f, "hier:{h}"),
            Tree::CustomDomains { sizes } => {
                write!(f, "domains:")?;
                for (i, s) in sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
        }
    }
}

/// Parse a tree spec: `flat | binary | greedy | hier:H | domains:a,b,...`
/// (the syntax `pulsar-qr --tree` takes and [`Display`](Tree) emits).
impl std::str::FromStr for Tree {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "flat" => Ok(Tree::Flat),
            "binary" => Ok(Tree::Binary),
            "greedy" => Ok(Tree::Greedy),
            _ => {
                if let Some(h) = s.strip_prefix("hier:") {
                    let h: usize = h.parse().map_err(|_| format!("bad h in {s}"))?;
                    if h == 0 {
                        return Err("h must be positive".into());
                    }
                    Ok(Tree::BinaryOnFlat { h })
                } else if let Some(list) = s.strip_prefix("domains:") {
                    let sizes: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
                    let sizes = sizes.map_err(|_| format!("bad domain list in {s}"))?;
                    if sizes.is_empty() || sizes.contains(&0) {
                        return Err("domain sizes must be positive".into());
                    }
                    Ok(Tree::custom(sizes))
                } else {
                    Err(format!(
                        "unknown tree `{s}` (use flat | binary | greedy | hier:H | domains:a,b,...)"
                    ))
                }
            }
        }
    }
}

/// How domain boundaries move between panels (paper Figure 6).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// Domains are fixed groups of absolute block rows; the top domain
    /// shrinks as panels advance. Limits inter-panel overlap (Fig. 7a).
    Fixed,
    /// Domains are defined relative to the current panel, shifting by one
    /// row per panel — the paper's choice, enabling greater overlap of
    /// consecutive reductions (Fig. 7b).
    Shifted,
}

/// One elimination step of a panel factorization.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PanelOp {
    /// `dgeqrt(A(row, j))`: QR of a domain-head tile.
    Geqrt {
        /// Block row factorized.
        row: usize,
    },
    /// `dtsqrt(A(head, j), A(row, j))`: eliminate a full tile against its
    /// domain head's R factor.
    Tsqrt {
        /// Domain-head block row (holds the R factor).
        head: usize,
        /// Block row being eliminated.
        row: usize,
    },
    /// `dttqrt(A(top, j), A(bot, j))`: merge two domain-top R factors.
    Ttqrt {
        /// Surviving block row.
        top: usize,
        /// Block row being eliminated.
        bot: usize,
    },
}

impl PanelOp {
    /// Step `k` of the flat reduction headed at block row `head`: the
    /// head's own QR, then the elimination of row `head + k` against it.
    pub(crate) fn flat_step(head: usize, k: usize) -> Self {
        match k {
            0 => PanelOp::Geqrt { row: head },
            _ => PanelOp::Tsqrt {
                head,
                row: head + k,
            },
        }
    }

    /// Does this op read or write block row `i`?
    pub fn touches(&self, i: usize) -> bool {
        match *self {
            PanelOp::Geqrt { row } => row == i,
            PanelOp::Tsqrt { head, row } => head == i || row == i,
            PanelOp::Ttqrt { top, bot } => top == i || bot == i,
        }
    }

    /// The rows this op touches: `(primary, secondary)`, where the primary
    /// row keeps the R factor.
    pub fn rows(&self) -> (usize, Option<usize>) {
        match *self {
            PanelOp::Geqrt { row } => (row, None),
            PanelOp::Tsqrt { head, row } => (head, Some(row)),
            PanelOp::Ttqrt { top, bot } => (top, Some(bot)),
        }
    }

    /// Which input slot row `i`'s tile uses at a VDP implementing this op:
    /// slot 0 for the primary (R-carrying) row, slot 1 for the secondary.
    pub fn role_slot(&self, i: usize) -> usize {
        let (p, s) = self.rows();
        if p == i {
            0
        } else {
            assert_eq!(s, Some(i), "op {self:?} does not touch row {i}");
            1
        }
    }

    /// Kernel name of the panel (factorization) side.
    pub fn factor_kernel(&self) -> &'static str {
        match self {
            PanelOp::Geqrt { .. } => "geqrt",
            PanelOp::Tsqrt { .. } => "tsqrt",
            PanelOp::Ttqrt { .. } => "ttqrt",
        }
    }

    /// Kernel name of the trailing-update side.
    pub fn update_kernel(&self) -> &'static str {
        match self {
            PanelOp::Geqrt { .. } => "unmqr",
            PanelOp::Tsqrt { .. } => "tsmqr",
            PanelOp::Ttqrt { .. } => "ttmqr",
        }
    }
}

/// A complete factorization plan for an `mt x nt` tile grid.
#[derive(Clone, Debug)]
pub struct QrPlan {
    /// Block rows.
    pub mt: usize,
    /// Block columns.
    pub nt: usize,
    /// Panel reduction tree.
    pub tree: Tree,
    /// Domain boundary strategy.
    pub boundary: Boundary,
}

impl QrPlan {
    /// Build a plan; `h` must be positive and the grid nonempty.
    pub fn new(mt: usize, nt: usize, tree: Tree, boundary: Boundary) -> Self {
        assert!(mt > 0 && nt > 0, "empty tile grid");
        match &tree {
            Tree::BinaryOnFlat { h } => assert!(*h > 0, "domain size h must be positive"),
            Tree::CustomDomains { sizes } => {
                assert!(
                    !sizes.is_empty() && sizes.iter().all(|&s| s > 0),
                    "custom domain sizes must be nonempty and positive"
                );
            }
            _ => {}
        }
        QrPlan {
            mt,
            nt,
            tree,
            boundary,
        }
    }

    /// Effective (first) domain size.
    pub fn h(&self) -> usize {
        match &self.tree {
            Tree::Flat => self.mt.max(1),
            Tree::Binary | Tree::Greedy => 1,
            Tree::BinaryOnFlat { h } => *h,
            Tree::CustomDomains { sizes } => sizes[0],
        }
    }

    /// Number of panel factorizations.
    pub fn panels(&self) -> usize {
        self.mt.min(self.nt)
    }

    /// Domain-head rows for panel `j`, ascending.
    pub fn domain_heads(&self, j: usize) -> Vec<usize> {
        assert!(j < self.panels());
        if let Tree::CustomDomains { sizes } = &self.tree {
            return self.custom_heads(j, sizes);
        }
        let h = self.h();
        match self.boundary {
            Boundary::Shifted => (j..self.mt).step_by(h).collect(),
            Boundary::Fixed => {
                let mut heads = vec![j];
                let mut i = (j / h + 1) * h;
                while i < self.mt {
                    heads.push(i);
                    i += h;
                }
                heads
            }
        }
    }

    fn custom_heads(&self, j: usize, sizes: &[usize]) -> Vec<usize> {
        // Cycle the size sequence; shifted = restart the sequence at row j,
        // fixed = lay the sequence out from row 0 and clip below j.
        let mut heads = Vec::new();
        match self.boundary {
            Boundary::Shifted => {
                let mut row = j;
                let mut k = 0usize;
                while row < self.mt {
                    heads.push(row);
                    row += sizes[k % sizes.len()];
                    k += 1;
                }
            }
            Boundary::Fixed => {
                heads.push(j);
                let mut row = 0usize;
                let mut k = 0usize;
                while row < self.mt {
                    if row > j {
                        heads.push(row);
                    }
                    row += sizes[k % sizes.len()];
                    k += 1;
                }
            }
        }
        heads
    }

    /// The ordered elimination steps of panel `j` (Figure 5): the flat
    /// reduction of each domain, then the binary reduction of domain tops
    /// (greedy stride-pairing for [`Tree::Greedy`]). The order is a valid
    /// sequential schedule; the runtime extracts the real parallelism from
    /// the dataflow.
    pub fn panel_ops(&self, j: usize) -> Vec<PanelOp> {
        let heads = self.domain_heads(j);
        let mut ops = Vec::with_capacity(self.mt - j + heads.len());
        // Flat-tree reduction of each domain.
        for (d, &head) in heads.iter().enumerate() {
            let end = heads.get(d + 1).copied().unwrap_or(self.mt);
            ops.extend((0..end - head).map(|k| PanelOp::flat_step(head, k)));
        }
        // Reduction of the domain tops.
        let mut level = heads;
        while level.len() > 1 {
            if matches!(self.tree, Tree::Greedy) {
                // Merge the bottom half into the top half in one round.
                let len = level.len();
                let kill = len / 2;
                let keep = len - kill;
                for i in 0..kill {
                    ops.push(PanelOp::Ttqrt {
                        top: level[i],
                        bot: level[keep + i],
                    });
                }
                level.truncate(keep);
            } else {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    if let [top, bot] = *pair {
                        ops.push(PanelOp::Ttqrt { top, bot });
                        next.push(top);
                    } else {
                        next.push(pair[0]);
                    }
                }
                level = next;
            }
        }
        ops
    }

    /// Total kernel invocations across the whole factorization (panel side
    /// plus trailing updates) — useful for sizing and progress reporting.
    pub fn total_tasks(&self) -> usize {
        (0..self.panels())
            .map(|j| self.panel_ops(j).len() * (self.nt - j))
            .sum()
    }

    /// Dependency depth of panel `j`'s elimination DAG: the length of the
    /// longest chain of kernels that must run in sequence. This is the
    /// structural reason the flat tree cannot strong-scale (`depth = rows`)
    /// while tree reductions can (`depth ~ h + log2(domains)`).
    pub fn panel_depth(&self, j: usize) -> usize {
        let mut depth = vec![0usize; self.mt];
        let mut max = 0;
        for op in self.panel_ops(j) {
            let (p, s) = op.rows();
            let d = 1 + depth[p].max(s.map_or(0, |s| depth[s]));
            depth[p] = d;
            if let Some(s) = s {
                depth[s] = d;
            }
            max = max.max(d);
        }
        max
    }
}

/// Where a row's tile goes next: `(op index, input slot)`.
pub type Touch = Option<(usize, usize)>;

/// Every block row's chain through `ops` (any op list over `mt` rows — a
/// plan's panels flattened in order, or their reverse), built in one
/// backward pass: `next[k][side]` is the hop after op `k` for its primary
/// (side 0) and secondary (side 1) row, and `first[row]` the row's first
/// op. This is the one derivation of the tiles' dataflow; the simulator
/// wires its task graph from it.
pub fn row_hops(ops: &[PanelOp], mt: usize) -> (Vec<[Touch; 2]>, Vec<Touch>) {
    // Walking backwards, `seen[row]` is the nearest later op touching
    // `row`; what is left at the end is the first.
    let mut seen: Vec<Touch> = vec![None; mt];
    let mut next = vec![[None; 2]; ops.len()];
    for (k, op) in ops.iter().enumerate().rev() {
        let (prim, sec) = op.rows();
        for (side, row) in [Some(prim), sec].into_iter().enumerate() {
            if let Some(row) = row {
                next[k][side] = seen[row].replace((k, side));
            }
        }
    }
    (next, seen)
}

/// Check that a panel schedule is a valid, complete elimination of rows
/// `j..mt` (used by tests and by the property suite): every op only uses
/// live R factors, and at the end only row `j` survives.
pub fn validate_panel_schedule(ops: &[PanelOp], j: usize, mt: usize) -> Result<(), String> {
    #[derive(Copy, Clone, PartialEq)]
    enum S {
        Fresh,
        Factored,
        Eliminated,
    }
    let mut state = vec![S::Fresh; mt];
    for op in ops {
        match *op {
            PanelOp::Geqrt { row } => {
                if row < j || row >= mt {
                    return Err(format!("geqrt row {row} out of range"));
                }
                if state[row] != S::Fresh {
                    return Err(format!("geqrt on non-fresh row {row}"));
                }
                state[row] = S::Factored;
            }
            PanelOp::Tsqrt { head, row } => {
                if state[head] != S::Factored {
                    return Err(format!("tsqrt head {head} not a live R factor"));
                }
                if state[row] != S::Fresh {
                    return Err(format!("tsqrt on non-fresh row {row}"));
                }
                state[row] = S::Eliminated;
            }
            PanelOp::Ttqrt { top, bot } => {
                if state[top] != S::Factored || state[bot] != S::Factored {
                    return Err(format!("ttqrt on non-R rows {top},{bot}"));
                }
                state[bot] = S::Eliminated;
            }
        }
    }
    for (i, s) in state.iter().enumerate().skip(j) {
        match (i == j, *s) {
            (true, S::Factored) => {}
            (false, S::Eliminated) => {}
            _ => return Err(format!("row {i} ended in the wrong state")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_tree_is_sequential_elimination() {
        let p = QrPlan::new(5, 3, Tree::Flat, Boundary::Shifted);
        let ops = p.panel_ops(1);
        assert_eq!(
            ops,
            vec![
                PanelOp::Geqrt { row: 1 },
                PanelOp::Tsqrt { head: 1, row: 2 },
                PanelOp::Tsqrt { head: 1, row: 3 },
                PanelOp::Tsqrt { head: 1, row: 4 },
            ]
        );
    }

    #[test]
    fn binary_tree_structure() {
        let p = QrPlan::new(4, 2, Tree::Binary, Boundary::Shifted);
        let ops = p.panel_ops(0);
        assert_eq!(
            ops,
            vec![
                PanelOp::Geqrt { row: 0 },
                PanelOp::Geqrt { row: 1 },
                PanelOp::Geqrt { row: 2 },
                PanelOp::Geqrt { row: 3 },
                PanelOp::Ttqrt { top: 0, bot: 1 },
                PanelOp::Ttqrt { top: 2, bot: 3 },
                PanelOp::Ttqrt { top: 0, bot: 2 },
            ]
        );
    }

    #[test]
    fn hierarchical_matches_figure5() {
        // 6 rows, h=3, panel 0: two domains {0,1,2} and {3,4,5}, flat inside,
        // one binary merge of tops 0 and 3 — the paper's Figure 8 example.
        let p = QrPlan::new(6, 3, Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);
        let ops = p.panel_ops(0);
        assert_eq!(
            ops,
            vec![
                PanelOp::Geqrt { row: 0 },
                PanelOp::Tsqrt { head: 0, row: 1 },
                PanelOp::Tsqrt { head: 0, row: 2 },
                PanelOp::Geqrt { row: 3 },
                PanelOp::Tsqrt { head: 3, row: 4 },
                PanelOp::Tsqrt { head: 3, row: 5 },
                PanelOp::Ttqrt { top: 0, bot: 3 },
            ]
        );
    }

    #[test]
    fn shifted_boundary_shifts_domains() {
        let p = QrPlan::new(7, 4, Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);
        assert_eq!(p.domain_heads(0), vec![0, 3, 6]);
        assert_eq!(p.domain_heads(1), vec![1, 4]);
        assert_eq!(p.domain_heads(2), vec![2, 5]);
    }

    #[test]
    fn fixed_boundary_keeps_domains() {
        let p = QrPlan::new(7, 4, Tree::BinaryOnFlat { h: 3 }, Boundary::Fixed);
        assert_eq!(p.domain_heads(0), vec![0, 3, 6]);
        assert_eq!(p.domain_heads(1), vec![1, 3, 6]);
        assert_eq!(p.domain_heads(2), vec![2, 3, 6]);
        assert_eq!(p.domain_heads(3), vec![3, 6]);
    }

    #[test]
    fn all_schedules_validate() {
        for tree in [
            Tree::Flat,
            Tree::Binary,
            Tree::Greedy,
            Tree::BinaryOnFlat { h: 2 },
            Tree::BinaryOnFlat { h: 3 },
            Tree::BinaryOnFlat { h: 5 },
            Tree::custom([2, 3]),
            Tree::custom([1, 4, 2]),
        ] {
            for boundary in [Boundary::Fixed, Boundary::Shifted] {
                for mt in 1..12 {
                    let p = QrPlan::new(mt, mt.min(4), tree.clone(), boundary);
                    for j in 0..p.panels() {
                        let ops = p.panel_ops(j);
                        validate_panel_schedule(&ops, j, mt)
                            .unwrap_or_else(|e| panic!("{tree:?} {boundary:?} mt={mt} j={j}: {e}"));
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_merges_bottom_half_each_round() {
        let p = QrPlan::new(8, 1, Tree::Greedy, Boundary::Shifted);
        let ops = p.panel_ops(0);
        // 8 geqrts, then rounds of 4, 2, 1 merges.
        assert_eq!(ops.len(), 8 + 4 + 2 + 1);
        assert_eq!(ops[8], PanelOp::Ttqrt { top: 0, bot: 4 });
        assert_eq!(ops[9], PanelOp::Ttqrt { top: 1, bot: 5 });
        assert_eq!(ops[12], PanelOp::Ttqrt { top: 0, bot: 2 });
        assert_eq!(ops[14], PanelOp::Ttqrt { top: 0, bot: 1 });
        // Depth equals the binary tree's.
        let b = QrPlan::new(8, 1, Tree::Binary, Boundary::Shifted);
        assert_eq!(ops.len(), b.panel_ops(0).len());
    }

    #[test]
    fn custom_domains_cycle_sizes() {
        let p = QrPlan::new(10, 2, Tree::custom([3, 1]), Boundary::Shifted);
        assert_eq!(p.domain_heads(0), vec![0, 3, 4, 7, 8]);
        assert_eq!(p.domain_heads(1), vec![1, 4, 5, 8, 9]);
        let f = QrPlan::new(10, 2, Tree::custom([3, 1]), Boundary::Fixed);
        assert_eq!(f.domain_heads(0), vec![0, 3, 4, 7, 8]);
        assert_eq!(f.domain_heads(1), vec![1, 3, 4, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn custom_domains_reject_zero() {
        let _ = Tree::custom([2, 0]);
    }

    #[test]
    fn op_counts() {
        // Each panel: (mt-j) rows -> heads geqrts + (rows-heads) tsqrts +
        // (heads-1) ttqrts = rows + heads - 1 ops.
        let p = QrPlan::new(9, 3, Tree::BinaryOnFlat { h: 4 }, Boundary::Shifted);
        for j in 0..3 {
            let rows = 9 - j;
            let heads = p.domain_heads(j).len();
            assert_eq!(p.panel_ops(j).len(), rows + heads - 1);
        }
    }

    #[test]
    fn row_ops_chains() {
        let p = QrPlan::new(6, 3, Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);
        let row_ops = |i: usize| -> Vec<PanelOp> {
            p.panel_ops(0)
                .into_iter()
                .filter(|op| op.touches(i))
                .collect()
        };
        // Row 0 in panel 0: geqrt, two tsqrts as head, final ttqrt as top.
        let chain = row_ops(0);
        assert_eq!(chain.len(), 4);
        assert_eq!(chain[0], PanelOp::Geqrt { row: 0 });
        assert_eq!(chain[3], PanelOp::Ttqrt { top: 0, bot: 3 });
        // Row 5: tsqrt elimination only.
        assert_eq!(row_ops(5).len(), 1);
    }

    #[test]
    fn total_tasks_counts_updates() {
        let p = QrPlan::new(4, 2, Tree::Flat, Boundary::Shifted);
        // Panel 0: 4 ops x 2 cols; panel 1: 3 ops x 1 col.
        assert_eq!(p.total_tasks(), 8 + 3);
    }

    #[test]
    fn degenerate_h_equivalences() {
        // The header's claim, op-for-op: flat == hier with h = mt (one
        // domain) and binary == hier with h = 1 (all domains singleton),
        // for every panel and both boundary modes.
        for boundary in [Boundary::Fixed, Boundary::Shifted] {
            for mt in 1..10 {
                let nt = mt.min(4);
                let flat = QrPlan::new(mt, nt, Tree::Flat, boundary);
                let hier_mt = QrPlan::new(mt, nt, Tree::BinaryOnFlat { h: mt }, boundary);
                let binary = QrPlan::new(mt, nt, Tree::Binary, boundary);
                let hier_1 = QrPlan::new(mt, nt, Tree::BinaryOnFlat { h: 1 }, boundary);
                for j in 0..flat.panels() {
                    assert_eq!(
                        flat.panel_ops(j),
                        hier_mt.panel_ops(j),
                        "flat != hier:{mt} at mt={mt} j={j} {boundary:?}"
                    );
                    assert_eq!(
                        binary.panel_ops(j),
                        hier_1.panel_ops(j),
                        "binary != hier:1 at mt={mt} j={j} {boundary:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_depth_formulas() {
        // Depth formulas for the two degenerate cases, every panel: flat
        // chains one op per remaining row; binary is one geqrt plus a
        // ceil(log2) merge cascade.
        for mt in 1..=17 {
            let flat = QrPlan::new(mt, mt, Tree::Flat, Boundary::Shifted);
            let binary = QrPlan::new(mt, mt, Tree::Binary, Boundary::Shifted);
            for j in 0..mt {
                let rows = mt - j;
                assert_eq!(flat.panel_depth(j), rows, "flat depth, mt={mt} j={j}");
                // ceil(log2(rows)): bit length of rows - 1 (0 when rows == 1).
                let merges = usize::BITS as usize - (rows - 1).leading_zeros() as usize;
                assert_eq!(
                    binary.panel_depth(j),
                    1 + merges,
                    "binary depth, mt={mt} j={j}"
                );
            }
        }
    }

    #[test]
    fn panel_depths_by_tree() {
        let mt = 64;
        let flat = QrPlan::new(mt, 1, Tree::Flat, Boundary::Shifted);
        assert_eq!(flat.panel_depth(0), mt, "flat depth = one op per row");
        let binary = QrPlan::new(mt, 1, Tree::Binary, Boundary::Shifted);
        assert_eq!(binary.panel_depth(0), 1 + 6, "geqrt + log2(64) merges");
        let hier = QrPlan::new(mt, 1, Tree::BinaryOnFlat { h: 8 }, Boundary::Shifted);
        assert_eq!(hier.panel_depth(0), 8 + 3, "h flat steps + log2(8) merges");
        let greedy = QrPlan::new(mt, 1, Tree::Greedy, Boundary::Shifted);
        assert_eq!(greedy.panel_depth(0), binary.panel_depth(0));
    }

    #[test]
    fn role_slots() {
        let op = PanelOp::Tsqrt { head: 2, row: 5 };
        assert_eq!(op.role_slot(2), 0);
        assert_eq!(op.role_slot(5), 1);
    }

    /// The tables against the definition they replace: for every op and
    /// row, the next op touching that row, found by scanning.
    #[test]
    fn hops_agree_with_a_scan_of_the_op_list() {
        for tree in [Tree::Greedy, Tree::Binary, Tree::BinaryOnFlat { h: 3 }] {
            let plan = QrPlan::new(11, 4, tree, Boundary::Shifted);
            let ops: Vec<PanelOp> = (0..plan.panels()).flat_map(|j| plan.panel_ops(j)).collect();
            let (next, first) = row_hops(&ops, plan.mt);
            let scan = |from: usize, row: usize| {
                (from..ops.len())
                    .find(|&k| ops[k].touches(row))
                    .map(|k| (k, ops[k].role_slot(row)))
            };
            for (row, &f) in first.iter().enumerate() {
                assert_eq!(f, scan(0, row));
            }
            for (k, op) in ops.iter().enumerate() {
                let (prim, sec) = op.rows();
                assert_eq!(next[k][0], scan(k + 1, prim));
                assert_eq!(next[k][1], sec.and_then(|r| scan(k + 1, r)));
            }
        }
    }

    #[test]
    fn tree_spec_round_trips() {
        for tree in [
            Tree::Flat,
            Tree::Binary,
            Tree::Greedy,
            Tree::BinaryOnFlat { h: 12 },
            Tree::custom([3, 2]),
        ] {
            assert_eq!(tree.to_string().parse::<Tree>().unwrap(), tree);
        }
        assert!("hier:0".parse::<Tree>().is_err());
        assert!("domains:3,0".parse::<Tree>().is_err());
        assert!("nope".parse::<Tree>().is_err());
    }
}
