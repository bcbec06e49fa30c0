//! Tile Cholesky factorization on the PULSAR runtime — the paper's stated
//! future work ("to map other algorithms onto PULSAR"), demonstrating that
//! the runtime layer is genuinely algorithm-agnostic.
//!
//! The right-looking tile Cholesky `A = L L^T` of an SPD matrix becomes a
//! VSA with one VDP per kernel task `(k, i, j)` (step, tile row, tile
//! column, `k <= j <= i`):
//!
//! - `(k, k, k)` — `potrf` of the diagonal tile; the resulting `L(k,k)`
//!   travels down a chain of the step's `trsm` VDPs (with bypass);
//! - `(j, i, j)`, `i > j` — `trsm` forming `L(i,j)`, which then travels
//!   along a chain of the step's `syrk`/`gemm` consumers;
//! - `(k, i, j)`, `k < j` — `syrk` (diagonal) or `gemm` (off-diagonal)
//!   trailing update; tiles flow "horizontally" from step `k` to `k+1`.
//!
//! The same systolic ideas as the QR array — kernel-per-VDP, operand
//! broadcast by chained bypass, tiles streaming between steps — with a
//! different algorithm plugged in.

use pulsar_linalg::kernels::{potrf_lower, syrk_lower, trsm_right_lower_trans};
use pulsar_linalg::{blas, Matrix, TileMatrix};
use pulsar_runtime::{
    ChannelSpec, Packet, RunConfig, RunStats, Tuple, VdpContext, VdpLogic, VdpSpec, Vsa,
};

/// Result of a tile Cholesky factorization.
pub struct CholeskyResult {
    /// The lower-triangular factor (`n x n`, upper triangle zeroed).
    pub l: Matrix,
    /// Runtime statistics.
    pub stats: RunStats,
}

/// Scaled residual `||A - L L^T||_F / (||A||_F * n)` (lower triangles).
pub fn cholesky_residual(a: &Matrix, l: &Matrix) -> f64 {
    let n = a.nrows();
    let mut llt = Matrix::zeros(n, n);
    blas::dgemm(blas::Trans::No, blas::Trans::Yes, 1.0, l, l, 0.0, &mut llt);
    let mut err: f64 = 0.0;
    let mut nrm: f64 = 0.0;
    for j in 0..n {
        for i in j..n {
            err += (llt[(i, j)] - a[(i, j)]).powi(2);
            nrm += a[(i, j)].powi(2);
        }
    }
    (err.sqrt() / nrm.sqrt().max(f64::MIN_POSITIVE)) / n as f64
}

/// Sequential tile Cholesky (right-looking), the oracle for the VSA.
/// Only the lower triangle of `a` is read. Returns `Err(column)` when a
/// diagonal tile fails to factor (matrix not positive definite).
pub fn tile_cholesky_seq(a: &Matrix, nb: usize) -> Result<Matrix, usize> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "Cholesky needs a square matrix");
    assert_eq!(n % nb, 0, "exact tiling required");
    let mut tiles = TileMatrix::from_matrix(a, nb);
    let nt = tiles.nt();
    for k in 0..nt {
        potrf_lower(tiles.tile_mut(k, k)).map_err(|c| k * nb + c)?;
        for i in k + 1..nt {
            let (lkk, aik) = tiles.two_tiles_mut((k, k), (i, k));
            trsm_right_lower_trans(lkk, aik);
        }
        for i in k + 1..nt {
            for j in k + 1..=i {
                if i == j {
                    let (lik, aii) = tiles.two_tiles_mut((i, k), (i, i));
                    syrk_lower(lik, aii);
                } else {
                    // The gemm update reads two L tiles and writes a third;
                    // clone the smaller operand to satisfy the borrows.
                    let ljk = tiles.tile(j, k).clone();
                    let (lik, aij) = tiles.two_tiles_mut((i, k), (i, j));
                    blas::dgemm(blas::Trans::No, blas::Trans::Yes, -1.0, lik, &ljk, 1.0, aij);
                }
            }
        }
    }
    Ok(assemble_l(&tiles))
}

fn assemble_l(tiles: &TileMatrix) -> Matrix {
    let n = tiles.nrows();
    let nb = tiles.nb();
    let mut l = Matrix::zeros(n, n);
    for i in 0..tiles.mt() {
        for j in 0..=i {
            let t = tiles.tile(i, j);
            let block = if i == j {
                Matrix::from_fn(
                    t.nrows(),
                    t.ncols(),
                    |r, c| if r >= c { t[(r, c)] } else { 0.0 },
                )
            } else {
                t.clone()
            };
            l.set_submatrix(i * nb, j * nb, &block);
        }
    }
    l
}

fn task(k: usize, i: usize, j: usize) -> Tuple {
    Tuple::new3(k as i32, i as i32, j as i32)
}

fn exit_l(i: usize, j: usize) -> Tuple {
    Tuple::new3(-1, i as i32, j as i32)
}

/// One Cholesky kernel task as a VDP.
struct CholVdp {
    k: usize,
    i: usize,
    j: usize,
}

impl VdpLogic for CholVdp {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        let (k, i, j) = (self.k, self.i, self.j);
        if k == j {
            if i == j {
                // potrf.
                let mut tile = ctx.pop(0).into_tile();
                ctx.kernel("potrf", || potrf_lower(&mut tile))
                    .unwrap_or_else(|c| panic!("matrix not SPD at tile ({k},{k}) column {c}"));
                ctx.set_label(|c| format!("potrf{:?}", c.tuple()));
                let pkt = Packet::tile(tile);
                if ctx.output_connected(1) {
                    ctx.push(1, pkt.clone()); // L(k,k) to the trsm chain
                }
                ctx.push(0, pkt); // exit
            } else {
                // trsm: pop L(k,k) (slot 1), forward it (bypass), solve.
                let lkk = ctx.pop(1);
                if ctx.output_connected(1) {
                    ctx.push(1, lkk.clone());
                }
                let mut tile = ctx.pop(0).into_tile();
                ctx.kernel("trsm", || {
                    trsm_right_lower_trans(lkk.as_tile().unwrap(), &mut tile)
                });
                ctx.set_label(|c| format!("trsm{:?}", c.tuple()));
                let pkt = Packet::tile(tile);
                if ctx.output_connected(2) {
                    ctx.push(2, pkt.clone()); // L(i,k) to its consumer chain
                }
                ctx.push(0, pkt); // exit
            }
        } else {
            // Trailing update at step k: syrk (i == j) or gemm (i > j).
            let lik = ctx.pop(1);
            if ctx.output_connected(1) {
                ctx.push(1, lik.clone());
            }
            let mut tile = ctx.pop(0).into_tile();
            if i == j {
                ctx.kernel("syrk", || syrk_lower(lik.as_tile().unwrap(), &mut tile));
                ctx.set_label(|c| format!("syrk{:?}", c.tuple()));
            } else {
                let ljk = ctx.pop(2);
                if ctx.output_connected(2) {
                    ctx.push(2, ljk.clone());
                }
                ctx.kernel("gemm", || {
                    blas::dgemm(
                        blas::Trans::No,
                        blas::Trans::Yes,
                        -1.0,
                        lik.as_tile().unwrap(),
                        ljk.as_tile().unwrap(),
                        1.0,
                        &mut tile,
                    )
                });
                ctx.set_label(|c| format!("gemm{:?}", c.tuple()));
            }
            ctx.push(0, Packet::tile(tile));
        }
    }
}

/// Factor an SPD matrix on the PULSAR runtime. Panics (with a clear
/// message) when the matrix is not positive definite.
pub fn tile_cholesky_vsa(a: &Matrix, nb: usize, config: &RunConfig) -> CholeskyResult {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "Cholesky needs a square matrix");
    assert_eq!(n % nb, 0, "exact tiling required");
    let mut tiles = TileMatrix::from_matrix(a, nb);
    let nt = tiles.nt();
    let tile_bytes = 8 * nb * nb;

    let mut vsa = Vsa::new();
    // VDPs: one per task (k, i, j), k <= j <= i < nt.
    for k in 0..nt {
        for i in k..nt {
            for j in k..=i {
                vsa.add_vdp(VdpSpec::new(task(k, i, j), 1, 3, 3, CholVdp { k, i, j }));
            }
        }
    }

    // Tile chains: (k, i, j) -> (k+1, i, j) for k < j, ending at the factor
    // task (j, i, j), whose output 0 exits.
    for i in 0..nt {
        for j in 0..=i {
            for k in 0..j {
                vsa.add_channel(ChannelSpec::new(
                    tile_bytes,
                    task(k, i, j),
                    0,
                    task(k + 1, i, j),
                    0,
                ));
            }
            vsa.add_channel(ChannelSpec::new(
                tile_bytes,
                task(j, i, j),
                0,
                exit_l(i, j),
                0,
            ));
        }
    }

    // L(k,k) chains: potrf (k,k,k) out1 -> trsm (k,k+1,k) in1 -> ... .
    for k in 0..nt {
        let mut prev = (task(k, k, k), 1usize);
        for i in k + 1..nt {
            vsa.add_channel(ChannelSpec::new(
                tile_bytes,
                prev.0.clone(),
                prev.1,
                task(k, i, k),
                1,
            ));
            prev = (task(k, i, k), 1);
        }
    }

    // L(r,k) consumer chains: trsm (k,r,k) out2 heads the chain; consumers
    // are the row-r updates (k, r, j) for j = k+1..=r (operand slot 1),
    // then the column-r gemms (k, i', r) for i' > r (operand slot 2).
    for k in 0..nt {
        for r in k + 1..nt {
            let mut prev = (task(k, r, k), 2usize);
            for j in k + 1..=r {
                vsa.add_channel(ChannelSpec::new(
                    tile_bytes,
                    prev.0.clone(),
                    prev.1,
                    task(k, r, j),
                    1,
                ));
                prev = (task(k, r, j), 1);
            }
            for i2 in r + 1..nt {
                vsa.add_channel(ChannelSpec::new(
                    tile_bytes,
                    prev.0.clone(),
                    prev.1,
                    task(k, i2, r),
                    2,
                ));
                prev = (task(k, i2, r), 2);
            }
        }
    }

    // Seeds: each lower tile enters its first task.
    for i in 0..nt {
        for j in 0..=i {
            let t = tiles.take_tile(i, j);
            let first = if j == 0 { task(0, i, 0) } else { task(0, i, j) };
            vsa.seed(first, 0, Packet::tile(t));
        }
    }

    let mut out = vsa
        .run(config)
        .unwrap_or_else(|e| panic!("tile_cholesky_vsa: {e}"));
    let mut ltiles = TileMatrix::zeros(n, n, nb);
    for i in 0..nt {
        for j in 0..=i {
            let mut p = out.take_exit(exit_l(i, j), 0);
            assert_eq!(p.len(), 1, "missing L tile ({i},{j})");
            ltiles.replace_tile(i, j, p.remove(0).into_tile());
        }
    }
    CholeskyResult {
        l: assemble_l(&ltiles),
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Matrix::random(n, n, &mut rng);
        let mut a = Matrix::zeros(n, n);
        blas::dgemm(blas::Trans::No, blas::Trans::Yes, 1.0, &b, &b, 0.0, &mut a);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn vsa_cholesky_reconstructs() {
        for (n, nb, threads) in [(16, 4, 2), (24, 4, 4), (32, 8, 3), (8, 8, 1)] {
            let a = spd(n, n as u64);
            let r = tile_cholesky_vsa(&a, nb, &RunConfig::smp(threads));
            let resid = cholesky_residual(&a, &r.l);
            assert!(resid < 1e-13, "n={n} nb={nb}: residual {resid}");
            // L is lower triangular.
            for j in 0..n {
                for i in 0..j {
                    assert_eq!(r.l[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn vsa_matches_sequential_oracle() {
        let a = spd(24, 41);
        let seq = tile_cholesky_seq(&a, 4).unwrap();
        let vsa = tile_cholesky_vsa(&a, 4, &RunConfig::smp(3)).l;
        // Identical schedule => identical arithmetic => identical L.
        assert_eq!(seq.sub(&vsa).norm_fro(), 0.0);
    }

    #[test]
    fn seq_detects_indefinite_with_position() {
        let mut a = spd(12, 2);
        a[(7, 7)] = -50.0;
        // The failure is reported at or before global column 7.
        let err = tile_cholesky_seq(&a, 4).unwrap_err();
        assert!(err <= 7, "reported failing column {err}");
    }

    #[test]
    fn task_count_is_exact() {
        // nt=4: sum over k of (1 + t + t(t+1)/2), t = nt-k-1 -> 20 tasks.
        let a = spd(16, 3);
        let r = tile_cholesky_vsa(&a, 4, &RunConfig::smp(2));
        assert_eq!(r.stats.fired, 20);
    }

    #[test]
    fn ignores_upper_triangle() {
        let n = 16;
        let mut a = spd(n, 9);
        let clean = tile_cholesky_vsa(&a, 4, &RunConfig::smp(2)).l;
        for j in 0..n {
            for i in 0..j {
                a[(i, j)] = 1e300; // poison
            }
        }
        let poisoned = tile_cholesky_vsa(&a, 4, &RunConfig::smp(2)).l;
        assert!(
            clean.sub(&poisoned).norm_fro() == 0.0,
            "upper triangle read"
        );
    }

    #[test]
    #[should_panic(expected = "not SPD")]
    fn indefinite_matrix_panics() {
        let mut a = spd(8, 1);
        a[(5, 5)] = -100.0;
        let _ = tile_cholesky_vsa(&a, 4, &RunConfig::smp(1));
    }

    #[test]
    fn multinode_cholesky() {
        use pulsar_runtime::{MappingFn, Place};
        use std::sync::Arc;
        let a = spd(24, 12);
        let mapping: MappingFn = Arc::new(|t: &Tuple| Place {
            node: (t.id(1).unsigned_abs() as usize) % 2,
            thread: (t.id(2).unsigned_abs() as usize) % 2,
        });
        let cfg = RunConfig::cluster(2, 2, mapping);
        let r = tile_cholesky_vsa(&a, 4, &cfg);
        assert!(cholesky_residual(&a, &r.l) < 1e-13);
        assert!(r.stats.remote_msgs > 0);
    }

    #[test]
    fn solve_spd_system_via_cholesky() {
        // Forward/backward substitution with the computed L.
        let n = 16;
        let a = spd(n, 77);
        let mut rng = StdRng::seed_from_u64(5);
        let x0 = Matrix::random(n, 1, &mut rng);
        let b = a.matmul(&x0);
        let l = tile_cholesky_vsa(&a, 4, &RunConfig::smp(2)).l;
        // Solve L y = b (forward), L^T x = y (backward via dtrsm_upper on L^T).
        let mut y = b.clone();
        for i in 0..n {
            let mut s = y[(i, 0)];
            for k in 0..i {
                s -= l[(i, k)] * y[(k, 0)];
            }
            y[(i, 0)] = s / l[(i, i)];
        }
        let lt = l.transpose();
        let mut x = y.clone();
        pulsar_linalg::blas::dtrsm_upper_left(&lt, &mut x);
        assert!(x.sub(&x0).norm_fro() < 1e-9);
    }
}
