//! Figure 8: the structure of the 3D Virtual Systolic Array for a
//! hierarchical QR of a 6x3-tile matrix with h = 3 and five threads.
//!
//! Prints every VDP (kernels, firing count, thread assignment) and the
//! channel counts, mirroring the paper's diagram: red = domain flat
//! reductions, orange = their trailing updates — one multi-fire VDP per
//! domain and column — and blue = binary reductions.

use pulsar_core::mapping::{qr_mapping, RowDist};
use pulsar_core::plan::{Boundary, PanelOp, QrPlan, Tree};
use pulsar_core::vsa3d::array_shape;
use pulsar_runtime::Tuple;

fn main() {
    let plan = QrPlan::new(6, 3, Tree::BinaryOnFlat { h: 3 }, Boundary::Shifted);
    let threads = 5;
    let map = qr_mapping(&plan, RowDist::Cyclic, 1, threads);

    println!("# Figure 8: 3D VSA for hierarchical QR, 6x3 tiles, h=3, {threads} threads");
    let shape = array_shape(&plan);
    println!(
        "# VDPs: {}   channels: {}   per stage: {:?}",
        shape.vdps, shape.channels, shape.per_stage
    );
    for j in 0..plan.panels() {
        println!("\n== stage j={j} (panel column {j}) ==");
        let heads = plan.domain_heads(j);
        for (q, op) in plan.panel_ops(j).iter().enumerate() {
            let (fires, what) = match *op {
                PanelOp::Geqrt { row } => {
                    let d = heads.partition_point(|&h| h <= row);
                    let end = heads.get(d).copied().unwrap_or(plan.mt);
                    (end - row, format!("domain rows {row}..{end}"))
                }
                PanelOp::Ttqrt { top, bot } => (1, format!("merge {top} <- {bot}")),
                PanelOp::Tsqrt { .. } => continue, // a firing of its domain's VDP
            };
            for l in j..plan.nt {
                let place = map(&Tuple::new3(j as i32, q as i32, l as i32));
                let (color, first, rest) = match (op, l == j) {
                    (PanelOp::Ttqrt { .. }, true) => ("blue  ", "ttqrt", ""),
                    (PanelOp::Ttqrt { .. }, false) => ("blue  ", "ttmqr", ""),
                    (_, true) => ("red   ", "geqrt", "+tsqrt"),
                    (_, false) => ("orange", "unmqr", "+tsmqr"),
                };
                let kernels = if fires > 1 {
                    format!("{first}{rest}*{}", fires - 1)
                } else {
                    first.to_string()
                };
                println!(
                    "  vdp ({j},{q},{l})  {color}  {kernels:<14} fires {fires}  {what:<18} thread {}",
                    place.thread,
                );
            }
        }
    }
    println!("\n# vertical channels broadcast (V,T) along each op's column chain (with bypass);");
    println!("# horizontal channels move a domain's held tile through its merges, stream");
    println!("# eliminated rows to the next stage, and carry each merged-away top on the");
    println!("# dashed channel, enabled only for its reader's last firing;");
    println!("# a merge VDP shares its thread with its first child (paper Section V-D).");
}
