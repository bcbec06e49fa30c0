//! Floating-point operation counts for the tile kernels and for full QR.
//!
//! Leading-order counts for square `nb x nb` tiles with inner blocking
//! (derived in DESIGN.md; the TT kernels cost 1/3 (factor) and 1/2 (update)
//! of their TS counterparts thanks to the triangular reflector tails):
//!
//! | kernel | flops |
//! |--------|-------|
//! | GEQRT  | 4/3 nb^3 |
//! | UNMQR  | 2 nb^3 |
//! | TSQRT  | 2 nb^3 |
//! | TSMQR  | 4 nb^3 |
//! | TTQRT  | 2/3 nb^3 |
//! | TTMQR  | 2 nb^3 |

/// Standard Householder QR flop count for an `m x n` matrix of either
/// orientation: `2 n^2 (m - n/3)` for `m >= n`, and its transpose for a
/// wide one. This is the numerator the paper (and PLASMA) uses when
/// reporting Gflop/s, regardless of the extra flops a tree variant does.
pub fn qr_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m.max(n) as f64, m.min(n) as f64);
    2.0 * n * n * (m - n / 3.0)
}

/// Flops for `geqrt` on an `m x n` tile.
pub fn geqrt_flops(m: usize, n: usize) -> f64 {
    qr_flops(m, n)
}

/// Flops for `unmqr` applying `k` reflectors of a tile QR to an `m x n` tile.
pub fn unmqr_flops(m: usize, n: usize, k: usize) -> f64 {
    // 4 m n k - 2 n k^2 at leading order (triangular V).
    let (m, n, k) = (m as f64, n as f64, k as f64);
    4.0 * m * n * k - 2.0 * n * k * k
}

/// Flops for `tsqrt` of a triangle on an `m2 x n` tile.
pub fn tsqrt_flops(m2: usize, n: usize) -> f64 {
    // Reflector tails of constant length m2 across n columns.
    2.0 * (m2 as f64) * (n as f64) * (n as f64)
}

/// Flops for `tsmqr` updating an `.. x nc` pair with `k` reflectors of tail
/// length `m2`.
pub fn tsmqr_flops(m2: usize, nc: usize, k: usize) -> f64 {
    4.0 * (m2 as f64) * (nc as f64) * (k as f64)
}

/// Flops for `ttqrt` on two stacked `n x n` triangles.
pub fn ttqrt_flops(n: usize) -> f64 {
    2.0 / 3.0 * (n as f64).powi(3)
}

/// Flops for `ttmqr` updating an `.. x nc` pair with `k` triangular tails.
pub fn ttmqr_flops(nc: usize, k: usize) -> f64 {
    2.0 * (nc as f64) * (k as f64) * (k as f64)
}

/// Flops for a general `m x n x k` gemm.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * (m as f64) * (n as f64) * (k as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qr_flops_square() {
        // 2 n^2 (n - n/3) = 4/3 n^3.
        let n = 300;
        assert!((qr_flops(n, n) - 4.0 / 3.0 * (n as f64).powi(3)).abs() < 1.0);
    }

    #[test]
    fn qr_flops_is_orientation_free() {
        assert!(qr_flops(100, 100) > 0.0);
        assert_eq!(qr_flops(50, 200), qr_flops(200, 50));
        assert!(qr_flops(64, 256) > 0.0);
    }

    #[test]
    fn tile_kernel_ratios() {
        let nb = 200;
        // TT kernels are cheaper than TS kernels.
        assert!(ttqrt_flops(nb) < tsqrt_flops(nb, nb));
        assert!(ttmqr_flops(nb, nb) < tsmqr_flops(nb, nb, nb));
        // Updates dominate factorizations.
        assert!(tsmqr_flops(nb, nb, nb) > tsqrt_flops(nb, nb));
        // TSMQR is two gemm-equivalents.
        assert!((tsmqr_flops(nb, nb, nb) / (2.0 * 2.0 * (nb as f64).powi(3)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tall_skinny_dominates_square_of_same_columns() {
        assert!(qr_flops(100_000, 1000) > qr_flops(1000, 1000));
    }
}
