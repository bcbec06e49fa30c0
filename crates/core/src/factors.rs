//! The output of a tile tree-QR factorization: `R` plus the tree of
//! Householder transformations, with `Q` application and least-squares
//! solving. Shared by every executor (the sequential walker, TSQR and the
//! 3D VSA), so all of them are verified by the same machinery.

use crate::ops::apply_op;
use crate::plan::PanelOp;
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{with_thread_workspace, Matrix};
use pulsar_runtime::packet::{decode_matrix_body, encode_matrix_body};
use pulsar_runtime::{PacketCodec, WireError};

/// One recorded transformation: the op it came from, the reflector tile `v`
/// (a factored tile: `R`+reflectors for GEQRT, tails for TS/TT), and its
/// inner-block factors `t`.
#[derive(Clone, Debug)]
pub struct Reflectors {
    /// The elimination step this transformation implements.
    pub op: PanelOp,
    /// Reflector storage (the factored tile).
    pub v: Matrix,
    /// Inner-block `T` factors (`ib x k`).
    pub t: Matrix,
}

/// Wire codec so transformations can cross a socket fabric in distributed
/// runs. Body: `[op kind u8][row a u64][row b u64][v matrix][t matrix]`,
/// all little-endian (application tag space starts at 16).
impl PacketCodec for Reflectors {
    const TAG: u32 = 16;

    fn wire_bytes(&self) -> usize {
        8 * (self.v.nrows() * self.v.ncols() + self.t.nrows() * self.t.ncols())
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        let (kind, a, b) = match self.op {
            PanelOp::Geqrt { row } => (0u8, row as u64, 0u64),
            PanelOp::Tsqrt { head, row } => (1, head as u64, row as u64),
            PanelOp::Ttqrt { top, bot } => (2, top as u64, bot as u64),
        };
        out.push(kind);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        encode_matrix_body(&self.v, out);
        encode_matrix_body(&self.t, out);
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        if body.len() < 17 {
            return Err(WireError::Truncated);
        }
        let a = u64::from_le_bytes(body[1..9].try_into().unwrap()) as usize;
        let b = u64::from_le_bytes(body[9..17].try_into().unwrap()) as usize;
        let op = match body[0] {
            0 => PanelOp::Geqrt { row: a },
            1 => PanelOp::Tsqrt { head: a, row: b },
            2 => PanelOp::Ttqrt { top: a, bot: b },
            _ => return Err(WireError::Malformed("bad PanelOp kind")),
        };
        let (v, rest) = decode_matrix_body(&body[17..])?;
        let (t, rest) = decode_matrix_body(rest)?;
        if !rest.is_empty() {
            return Err(WireError::Malformed("trailing bytes after reflectors"));
        }
        Ok(Reflectors { op, v, t })
    }
}

/// A completed tile QR factorization `A = Q R`.
#[derive(Clone, Debug)]
pub struct TileQrFactors {
    /// Row count of `A`.
    pub m: usize,
    /// Column count of `A`.
    pub n: usize,
    /// Tile size used.
    pub nb: usize,
    /// Inner block size used.
    pub ib: usize,
    /// The `min(m,n) x n` upper-triangular/trapezoidal factor.
    pub r: Matrix,
    /// Transformations, grouped by panel, in schedule order.
    pub panels: Vec<Vec<Reflectors>>,
}

impl TileQrFactors {
    /// Apply `Q^T` (from the left) to a dense `m x k` matrix.
    pub fn apply_qt(&self, b: &Matrix) -> Matrix {
        self.apply(b, ApplyTrans::Trans)
    }

    /// Apply `Q` (from the left) to a dense `m x k` matrix.
    pub fn apply_q(&self, b: &Matrix) -> Matrix {
        self.apply(b, ApplyTrans::NoTrans)
    }

    fn apply(&self, b: &Matrix, trans: ApplyTrans) -> Matrix {
        assert_eq!(b.nrows(), self.m, "operand row count must match A");
        assert_eq!(self.m % self.nb, 0, "row tiling must be exact");
        let nb = self.nb;
        let mt = self.m / nb;
        let mut blocks: Vec<Matrix> = (0..mt)
            .map(|i| b.submatrix(i * nb, 0, nb, b.ncols()))
            .collect();

        with_thread_workspace(|ws| {
            let mut step = |r: &Reflectors| {
                // The primary row of every op lies above its secondary.
                let (c1, c2) = match r.op.rows() {
                    (p, None) => (&mut blocks[p], None),
                    (p, Some(s)) => {
                        let (lo, hi) = blocks.split_at_mut(s);
                        (&mut lo[p], Some(&mut hi[0]))
                    }
                };
                apply_op(r, trans, c1, c2, self.ib, ws);
            };
            match trans {
                ApplyTrans::Trans => self.panels.iter().flatten().for_each(&mut step),
                ApplyTrans::NoTrans => self
                    .panels
                    .iter()
                    .rev()
                    .flat_map(|p| p.iter().rev())
                    .for_each(&mut step),
            }
        });

        let mut out = Matrix::zeros(self.m, b.ncols());
        for (i, blk) in blocks.iter().enumerate() {
            out.set_submatrix(i * nb, 0, blk);
        }
        out
    }

    /// Explicitly form the `m x m` orthogonal factor (test-scale only).
    pub fn form_q(&self) -> Matrix {
        self.apply_q(&Matrix::identity(self.m))
    }

    /// Explicitly form the thin factor `Q1` (`m x min(m,n)`), the part of
    /// `Q` spanning the column space of `A`: `Q1 = Q * [I; 0]` — the
    /// economical orthobasis used by least-squares and randomized methods.
    pub fn form_q_thin(&self) -> Matrix {
        let k = self.m.min(self.n);
        let mut eye = Matrix::zeros(self.m, k);
        for i in 0..k {
            eye[(i, i)] = 1.0;
        }
        self.apply_q(&eye)
    }

    /// Solve the least-squares problem `min ||A x - b||` (`m >= n`,
    /// full rank): `x = R^{-1} (Q^T b)[0..n]`.
    pub fn solve_ls(&self, b: &Matrix) -> Matrix {
        self.try_solve_ls(b).expect("singular R in solve_ls")
    }

    /// [`Self::solve_ls`] with a typed verdict: an exactly-singular `R`
    /// (rank-deficient `A`) returns [`pulsar_linalg::SolveError::Singular`]
    /// instead of flooding the solution with inf/NaN. This is the entry
    /// point the QR service's `solve` verb uses against stored factors.
    pub fn try_solve_ls(&self, b: &Matrix) -> Result<Matrix, pulsar_linalg::SolveError> {
        assert!(self.m >= self.n, "least squares needs m >= n");
        let qtb = self.apply_qt(b);
        let mut x = qtb.submatrix(0, 0, self.n, b.ncols());
        pulsar_linalg::back_substitute(&self.r, &mut x)?;
        Ok(x)
    }

    /// Scaled factorization residual `||A - Q [R; 0]||_F / (||A||_F max(m,n))`.
    pub fn residual(&self, a: &Matrix) -> f64 {
        let mut rstack = Matrix::zeros(self.m, self.n);
        rstack.set_submatrix(0, 0, &self.r);
        let qr = self.apply_q(&rstack);
        let denom = a.norm_fro().max(f64::MIN_POSITIVE) * self.m.max(self.n) as f64;
        qr.sub(a).norm_fro() / denom
    }

    /// Scaled orthogonality check via random probes: `max_k ||Q^T Q x_k -
    /// x_k|| / ||x_k||`, avoiding the `m x m` explicit `Q` on large inputs.
    pub fn orthogonality_probe(&self, probes: usize, rng: &mut impl rand::Rng) -> f64 {
        let mut worst: f64 = 0.0;
        for _ in 0..probes {
            let x = Matrix::random(self.m, 1, rng);
            let qx = self.apply_q(&x);
            let qtqx = self.apply_qt(&qx);
            worst = worst.max(qtqx.sub(&x).norm_fro() / x.norm_fro());
        }
        worst
    }

    /// Number of recorded transformations.
    pub fn transform_count(&self) -> usize {
        self.panels.iter().map(|p| p.len()).sum()
    }

    /// Approximate resident size in bytes: the `f64` payload of `R` and
    /// every recorded `V`/`T` block, plus a fixed per-transform overhead
    /// for the surrounding structs. The factorization store budgets its
    /// cache against this estimate.
    pub fn approx_bytes(&self) -> usize {
        let payload: usize = 8 * self.r.nrows() * self.r.ncols()
            + self
                .panels
                .iter()
                .flat_map(|p| p.iter())
                .map(|rf| 8 * (rf.v.nrows() * rf.v.ncols() + rf.t.nrows() * rf.t.ncols()))
                .sum::<usize>();
        payload + 64 * self.transform_count() + 128
    }

    /// Estimated 1-norm condition number of `R` (`m >= n` only). Since
    /// `Q` is orthogonal this also estimates the conditioning of the
    /// least-squares problem; values near `1/eps` mean [`Self::solve_ls`]
    /// results are unreliable.
    pub fn r_condition_estimate(&self) -> f64 {
        assert!(self.m >= self.n, "condition estimate needs m >= n");
        pulsar_linalg::cond::cond_est_upper(&self.r)
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::Tree;
    use crate::vsa3d::tile_qr_vsa;
    use crate::QrOptions;
    use pulsar_linalg::{Matrix, SolveError};
    use pulsar_runtime::RunConfig;

    fn factor(a: &Matrix) -> super::TileQrFactors {
        let opts = QrOptions::new(4, 2, Tree::BinaryOnFlat { h: 2 });
        tile_qr_vsa(a, &opts, &RunConfig::smp(2)).factors
    }

    #[test]
    fn consistent_system_recovers_exactly() {
        let mut rng = rand::rng();
        let a = Matrix::random(40, 8, &mut rng);
        let x0 = Matrix::random(8, 2, &mut rng);
        let x = factor(&a).solve_ls(&a.matmul(&x0));
        assert!(x.sub(&x0).norm_fro() < 1e-10);
    }

    #[test]
    fn condition_estimate_flags_bad_systems() {
        let mut rng = rand::rng();
        let a = Matrix::random(32, 8, &mut rng);
        assert!(factor(&a).r_condition_estimate() < 1e4);

        // Nearly rank-deficient: last column almost a copy of the first.
        let mut bad = a.clone();
        for i in 0..32 {
            bad[(i, 7)] = bad[(i, 0)] * (1.0 + 1e-13);
        }
        assert!(factor(&bad).r_condition_estimate() > 1e8);
    }

    #[test]
    fn zero_column_fails_typed_instead_of_returning_nan() {
        let mut rng = rand::rng();
        let mut a = Matrix::random(24, 6, &mut rng);
        for i in 0..24 {
            a[(i, 2)] = 0.0;
        }
        let b = Matrix::random(24, 1, &mut rng);
        assert_eq!(
            factor(&a).try_solve_ls(&b).err(),
            Some(SolveError::Singular { col: 2 })
        );
    }
}
