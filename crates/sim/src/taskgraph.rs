//! Task-graph construction: the dataflow the 3D VSA executes, as a DAG of
//! kernel tasks with data-transfer edges, one task per (op, column) firing.
//! The tile edges come from the plan's one row-hop derivation
//! ([`row_hops`]) and every task is placed by the runtime's own
//! [`qr_mapping`], so the graph's cross-node messages and bytes are the
//! runtime's exactly (pinned by `tests/end_to_end.rs`).

use crate::machine::Machine;
use pulsar_core::mapping::{qr_mapping, RowDist};
use pulsar_core::plan::{row_hops, PanelOp};
use pulsar_core::QrOptions;
use pulsar_linalg::flops;
use pulsar_runtime::Tuple;

/// A data dependence between two tasks.
#[derive(Copy, Clone, Debug)]
pub struct Edge {
    /// Consumer task id.
    pub dst: u32,
    /// Message size used by the interconnect model.
    pub bytes: u32,
}

/// One kernel invocation.
#[derive(Clone, Debug)]
pub struct Task {
    /// Kernel name (indexes the efficiency table).
    pub kernel: &'static str,
    /// Modeled execution time, microseconds (including runtime overhead).
    pub duration_us: f64,
    /// Node executing the task.
    pub node: u32,
    /// Global worker thread executing the task.
    pub thread: u32,
    /// Number of input edges that must arrive before the task is ready.
    pub pending: u32,
    /// Edges released when the task starts.
    pub out_start: Vec<Edge>,
    /// Edges released when the task ends.
    pub out_end: Vec<Edge>,
}

/// A complete task graph plus its initial data placement.
pub struct TaskGraph {
    /// All tasks.
    pub tasks: Vec<Task>,
    /// Initial arrivals `(task, time_us)` — matrix tiles reaching their
    /// first consumer (non-zero time when the tile's home node differs).
    pub seeds: Vec<(u32, f64)>,
    /// Total flops the tree variant actually executes.
    pub executed_flops: f64,
    /// Standard QR flops `2 n^2 (m - n/3)` (the Gflop/s numerator).
    pub standard_flops: f64,
    /// Matrix bytes initially resident on the fullest node (the weak- vs
    /// strong-scaling memory argument of Section II).
    pub peak_node_bytes: u64,
}

/// Tuning knobs that differentiate runtime models (see `baselines`).
#[derive(Copy, Clone, Debug)]
pub struct RuntimeModel {
    /// Per-task scheduling/bookkeeping overhead, microseconds.
    pub task_overhead_us: f64,
    /// Whether transformation packets are forwarded before use.
    pub bypass: bool,
    /// Multiplier on kernel durations capturing scheduling quality /
    /// runtime interference (1.0 = ideal; calibrated per runtime).
    pub duration_scale: f64,
}

impl RuntimeModel {
    /// The PULSAR runtime: negligible per-task overhead, bypass on.
    pub fn pulsar() -> Self {
        RuntimeModel {
            task_overhead_us: 1.0,
            bypass: true,
            duration_scale: 1.0,
        }
    }
}

/// Build the tree-QR task graph for an `m x n` matrix on `machine`.
pub fn build_tree_qr_graph(
    m: usize,
    n: usize,
    opts: &QrOptions,
    dist: RowDist,
    machine: &Machine,
    model: RuntimeModel,
) -> TaskGraph {
    let nb = opts.nb;
    assert_eq!(m % nb, 0, "exact row tiling required");
    let mt = m / nb;
    let nt = n.div_ceil(nb);
    let cb = |l: usize| nb.min(n - l * nb);
    let plan = opts.plan(mt, nt);
    let kt = plan.panels();
    let stage_ops: Vec<Vec<PanelOp>> = (0..kt).map(|j| plan.panel_ops(j)).collect();

    // Id layout: stage j starts at off[j]; task (j, q, l) = off[j] + q*(nt-j) + (l-j).
    let mut off = vec![0usize; kt + 1];
    for j in 0..kt {
        off[j + 1] = off[j] + stage_ops[j].len() * (nt - j);
    }
    let id = |j: usize, q: usize, l: usize| -> u32 { (off[j] + q * (nt - j) + (l - j)) as u32 };
    let total = off[kt];

    let map = qr_mapping(&plan, dist, machine.nodes, machine.workers_per_node);

    let mut tasks: Vec<Task> = Vec::with_capacity(total);
    let mut executed = 0.0f64;
    for (j, ops) in stage_ops.iter().enumerate() {
        for (q, &op) in ops.iter().enumerate() {
            for l in j..nt {
                let kernel = if l == j {
                    op.factor_kernel()
                } else {
                    op.update_kernel()
                };
                let f = match (op, l == j) {
                    (PanelOp::Geqrt { .. }, true) => flops::geqrt_flops(nb, cb(j)),
                    (PanelOp::Geqrt { .. }, false) => flops::unmqr_flops(nb, cb(l), cb(j)),
                    (PanelOp::Tsqrt { .. }, true) => flops::tsqrt_flops(nb, cb(j)),
                    (PanelOp::Tsqrt { .. }, false) => flops::tsmqr_flops(nb, cb(l), cb(j)),
                    (PanelOp::Ttqrt { .. }, true) => flops::ttqrt_flops(cb(j)),
                    (PanelOp::Ttqrt { .. }, false) => flops::ttmqr_flops(cb(l), cb(j)),
                };
                executed += f;
                let place = map(&Tuple::new3(j as i32, q as i32, l as i32));
                tasks.push(Task {
                    kernel,
                    duration_us: machine.kernel_time_us(kernel, f) * model.duration_scale
                        + model.task_overhead_us,
                    node: place.node as u32,
                    thread: (place.node * machine.workers_per_node + place.thread) as u32,
                    pending: 0,
                    out_start: Vec::new(),
                    out_end: Vec::new(),
                });
            }
        }
    }
    let mut link = |src: u32, edge: Edge, at_start: bool| {
        tasks[edge.dst as usize].pending += 1;
        let src = &mut tasks[src as usize];
        if at_start {
            src.out_start.push(edge);
        } else {
            src.out_end.push(edge);
        }
    };

    // Transformations go one column right. The factor kernel computes its
    // transformation during execution; update tasks forward it before use
    // (released at start) when the runtime supports bypass.
    let trans_bytes = |j: usize| (8 * nb * cb(j) + 8 * opts.ib * cb(j)) as u32;
    for (j, ops) in stage_ops.iter().enumerate() {
        for q in 0..ops.len() {
            for l in j + 1..nt {
                let edge = Edge {
                    dst: id(j, q, l),
                    bytes: trans_bytes(j),
                };
                link(id(j, q, l - 1), edge, model.bypass && l - 1 > j);
            }
        }
    }

    // Tiles follow the plan's row hops over its ops flattened in order: at
    // column `l` a row's tile goes from each op to the next op touching the
    // row, which fires at `l` only if its panel is at most `l`.
    let tile_bytes = |l: usize| (8 * nb * cb(l)) as u32;
    let at: Vec<(usize, usize)> = stage_ops
        .iter()
        .enumerate()
        .flat_map(|(j, ops)| (0..ops.len()).map(move |q| (j, q)))
        .collect();
    let (next, first) = row_hops(&stage_ops.concat(), mt);
    for (k, hops) in next.iter().enumerate() {
        let (j, q) = at[k];
        for &(k2, _) in hops.iter().flatten() {
            let (j2, q2) = at[k2];
            for l in j2..nt {
                let edge = Edge {
                    dst: id(j2, q2, l),
                    bytes: tile_bytes(l),
                };
                link(id(j, q, l), edge, false);
            }
        }
    }
    // Each matrix tile arrives from its row's home node at the row's first op.
    let mut seeds: Vec<(u32, f64)> = Vec::new();
    for (row, hop) in first.iter().enumerate() {
        let (j, q) = at[hop.expect("panel 0 touches every row").0];
        let home = dist.node_of(row, mt, machine.nodes);
        for l in j..nt {
            let me = id(j, q, l);
            tasks[me as usize].pending += 1;
            let node = tasks[me as usize].node as usize;
            seeds.push((me, machine.comm_us(home, node, tile_bytes(l) as usize)));
        }
    }

    // Initial per-node matrix footprint: each block row holds nt tiles.
    let mut node_bytes = vec![0u64; machine.nodes];
    for i in 0..mt {
        let home = dist.node_of(i, mt, machine.nodes);
        for l in 0..nt {
            node_bytes[home] += tile_bytes(l) as u64;
        }
    }

    TaskGraph {
        tasks,
        seeds,
        executed_flops: executed,
        standard_flops: flops::qr_flops(m, n),
        peak_node_bytes: node_bytes.into_iter().max().unwrap_or(0),
    }
}

impl TaskGraph {
    /// The critical path of the DAG in microseconds: the earliest possible
    /// finish with unlimited workers (communication delays included,
    /// bypass edges released at task start). A hard lower bound on any
    /// schedule's makespan — this is what caps the flat tree regardless of
    /// machine size.
    pub fn critical_path_us(&self, machine: &Machine) -> f64 {
        // Task ids are already topologically ordered by construction
        // (stages ascend, ops ascend within a stage, columns ascend).
        let n = self.tasks.len();
        let mut est = vec![0.0f64; n];
        for &(t, at) in &self.seeds {
            let e = &mut est[t as usize];
            *e = e.max(at);
        }
        let mut finish_max = 0.0f64;
        for (i, task) in self.tasks.iter().enumerate() {
            let start = est[i];
            let end = start + task.duration_us;
            finish_max = finish_max.max(end);
            let mut relax = |edges: &[Edge], at: f64| {
                for e in edges {
                    debug_assert!(e.dst as usize > i, "ids must be topological");
                    let dst_node = self.tasks[e.dst as usize].node;
                    let arr = at
                        + machine.comm_us(task.node as usize, dst_node as usize, e.bytes as usize);
                    let slot = &mut est[e.dst as usize];
                    *slot = slot.max(arr);
                }
            };
            relax(&task.out_start, start);
            relax(&task.out_end, end);
        }
        finish_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulsar_core::plan::Tree;

    fn small_graph(tree: Tree) -> TaskGraph {
        let machine = Machine::kraken(2);
        build_tree_qr_graph(
            8 * 192,
            2 * 192,
            &QrOptions::new(192, 48, tree),
            RowDist::Cyclic,
            &machine,
            RuntimeModel::pulsar(),
        )
    }

    #[test]
    fn task_count_matches_plan() {
        let g = small_graph(Tree::BinaryOnFlat { h: 3 });
        let plan = QrOptions::new(192, 48, Tree::BinaryOnFlat { h: 3 }).plan(8, 2);
        assert_eq!(g.tasks.len(), plan.total_tasks());
    }

    #[test]
    fn every_task_has_inputs_or_is_seeded() {
        let g = small_graph(Tree::Binary);
        let mut arrivals = vec![0u32; g.tasks.len()];
        for (t, _) in &g.seeds {
            arrivals[*t as usize] += 1;
        }
        for t in &g.tasks {
            for e in t.out_start.iter().chain(&t.out_end) {
                arrivals[e.dst as usize] += 1;
            }
        }
        for (i, t) in g.tasks.iter().enumerate() {
            assert_eq!(
                arrivals[i], t.pending,
                "task {i} ({}) pending/arrival mismatch",
                t.kernel
            );
            assert!(t.pending > 0, "task {i} has no inputs at all");
        }
    }

    #[test]
    fn binary_tree_does_more_flops_than_flat() {
        let flat = small_graph(Tree::Flat);
        let bin = small_graph(Tree::Binary);
        // The paper: tree variants increase the computational cost.
        assert!(bin.executed_flops > flat.executed_flops * 0.99);
        assert_eq!(flat.standard_flops, bin.standard_flops);
    }

    #[test]
    fn bypass_moves_transform_edges_to_start() {
        let machine = Machine::kraken(2);
        let mk = |bypass| {
            build_tree_qr_graph(
                4 * 64,
                3 * 64,
                &QrOptions::new(64, 16, Tree::Flat),
                RowDist::Cyclic,
                &machine,
                RuntimeModel {
                    task_overhead_us: 0.0,
                    bypass,
                    duration_scale: 1.0,
                },
            )
        };
        let with = mk(true);
        let without = mk(false);
        let starts = |g: &TaskGraph| g.tasks.iter().map(|t| t.out_start.len()).sum::<usize>();
        assert!(starts(&with) > 0);
        assert_eq!(starts(&without), 0);
    }
}
