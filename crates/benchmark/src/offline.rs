//! The three offline workloads: repeated `tile_qr_vsa` calls on one seeded
//! matrix (2 SMP workers, or 2 virtual nodes over the in-process fabric).

use crate::daemon::Check;
use crate::gen::{self, streams};
use crate::metrics::{Kind, Shape, Workload};
use crate::spans::Tracer;
use crate::stats::{median, windows, Windowed};
use crate::workload::{Outcome, Settings};
use pulsar_core::mapping::{qr_mapping, RowDist};
use pulsar_core::vsa3d::tile_qr_vsa;
use pulsar_core::{tile_qr_seq, QrOptions, TileQrFactors};
use pulsar_linalg::Matrix;
use pulsar_runtime::{NetModel, RunConfig};
use std::time::Instant;

/// Scaled factorization residuals must stay below this.
pub const RESIDUAL_TOL: f64 = 1e-12;

/// The plan options of a shape (shifted boundaries, the paper's default).
pub fn options(shape: &Shape) -> QrOptions {
    QrOptions::new(shape.nb, shape.ib, shape.tree.clone())
}

/// The run configuration a workload kind factors under: 2 SMP workers, or
/// two single-worker nodes with row-cyclic mapping and a SeaStar2+ model.
pub fn run_config(kind: Kind, shape: &Shape) -> RunConfig {
    match kind {
        Kind::OfflineCluster => cluster_config(shape),
        _ => RunConfig::smp(2),
    }
}

/// Two virtual nodes, one worker each, rows dealt cyclically.
pub fn cluster_config(shape: &Shape) -> RunConfig {
    let opts = options(shape);
    let plan = opts.plan(shape.m / shape.nb, shape.n.div_ceil(shape.nb));
    RunConfig::cluster(2, 1, qr_mapping(&plan, RowDist::Cyclic, 2, 1))
        .with_net(NetModel::seastar2())
}

/// Number of `f64` entries whose bit patterns differ (0 = bit-identical).
pub fn bit_diff(a: &Matrix, b: &Matrix) -> usize {
    if (a.nrows(), a.ncols()) != (b.nrows(), b.ncols()) {
        return a.data().len().max(b.data().len());
    }
    a.data()
        .iter()
        .zip(b.data())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

/// Everything a run needs, built (and warmed) by [`setup`].
pub struct Offline {
    /// The matrix every rep factors.
    pub a: Matrix,
    /// Plan options.
    pub opts: QrOptions,
    /// Executor configuration.
    pub cfg: RunConfig,
    /// `R` of `tile_qr_seq` on the same input: the bit-identity oracle.
    pub oracle_r: Matrix,
}

/// Generate the matrix from the seed, compute the oracle, and warm up.
pub fn setup(w: &Workload, s: &Settings) -> Offline {
    let shape = s.shape(w);
    let a = gen::matrix(&mut gen::stream(s.seed, streams::MATRIX), shape.m, shape.n);
    let opts = options(shape);
    let cfg = run_config(w.kind, shape);
    let oracle_r = tile_qr_seq(&a, &opts).r;
    for _ in 0..s.warmups() {
        std::hint::black_box(tile_qr_vsa(&a, &opts, &cfg));
    }
    Offline {
        a,
        opts,
        cfg,
        oracle_r,
    }
}

impl Offline {
    /// The correctness gate of one factorization: residual and bit-identity
    /// with the sequential oracle.
    pub fn verify(&self, f: &TileQrFactors, check: &mut Check) {
        let residual = f.residual(&self.a);
        if residual.is_nan() || residual > RESIDUAL_TOL {
            check.fail(format!("residual {residual:e} exceeds {RESIDUAL_TOL:e}"));
        }
        let diff = bit_diff(&f.r, &self.oracle_r);
        if diff != 0 {
            check.fail(format!("R differs from tile_qr_seq in {diff} entries"));
        }
    }
}

/// Factor back to back for `seconds` (at least twice). The first and the
/// last rep pass the correctness gate, off the clock. With a tracer, every
/// rep runs with the runtime's own tracing on and is recorded as a span; the
/// last rep's firings are adopted as child spans.
pub fn measure(st: &Offline, seconds: f64, tracer: Option<&Tracer>) -> Outcome {
    let mut check = Check::default();
    let cfg = match tracer {
        Some(_) => st.cfg.clone().with_trace(),
        None => st.cfg.clone(),
    };

    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut spans = Vec::new();
    let last = loop {
        let t = Instant::now();
        let run = tile_qr_vsa(&st.a, &st.opts, &cfg);
        let dur = t.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            let end_us = t.now_us();
            spans.push((end_us - dur * 1e6, end_us));
        }
        if reps.is_empty() {
            st.verify(&run.factors, &mut check);
        }
        reps.push(dur);
        if reps.len() >= 2 && t0.elapsed().as_secs_f64() >= seconds {
            break run;
        }
    };
    st.verify(&last.factors, &mut check);
    check.attempted += reps.len() as u64;
    if let Some(t) = tracer {
        for (i, &(start_us, end_us)) in spans.iter().enumerate() {
            let id = t.record(crate::spans::Span {
                layer: "core",
                name: "tile_qr_vsa".into(),
                start_us,
                end_us,
                parent: None,
                request: i as u64,
                lane: 0,
            });
            if let (true, Some(trace)) = (i + 1 == spans.len(), &last.trace) {
                // The runtime's clock starts when its workers do, a little
                // after the call; aligning it with the call is close enough
                // to read the picture.
                t.adopt(trace, Some(id), i as u64, start_us, (start_us, end_us));
            }
        }
    }

    let mut out = Outcome::new(check);
    let p50 = Windowed {
        values: windows(&reps).into_iter().map(median).collect(),
        n: reps.len(),
    };
    out.put("factor_s_p50", p50);
    out
}
