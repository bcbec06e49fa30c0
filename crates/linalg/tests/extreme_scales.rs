//! The panel kernels on inputs whose squares overflow (scale 1e160) or
//! underflow (scale 1e-170). `dlarfg` takes its scaled route there, so the
//! factors stay finite and `Q^T A = R` holds to the same relative accuracy
//! as at scale 1.

use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCALES: [f64; 3] = [1e160, 1.0, 1e-170];
const IB: usize = 4;

fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix {
    Matrix::random(m, n, &mut StdRng::seed_from_u64(seed))
}

fn scaled(a: &Matrix, s: f64) -> Matrix {
    Matrix::from_fn(a.nrows(), a.ncols(), |i, j| a[(i, j)] * s)
}

/// `||(got - want) / s||_F / base`, without squaring a scaled entry.
fn rel_err(got: &Matrix, want: &Matrix, s: f64, base: f64) -> f64 {
    let sq: f64 = (got.data().iter().zip(want.data()))
        .map(|(g, w)| ((g - w) / s).powi(2))
        .sum();
    sq.sqrt() / base
}

fn assert_finite(a: &Matrix, what: &str) {
    assert!(a.data().iter().all(|x| x.is_finite()), "{what}: non-finite");
}

#[test]
fn geqrt_is_accurate_at_every_scale() {
    let b = rand_matrix(32, 16, 1);
    let col0 = b.col(0).iter().map(|x| x * x).sum::<f64>().sqrt();
    for s in SCALES {
        let mut a = scaled(&b, s);
        let mut t = Matrix::zeros(IB, 16);
        geqrt(&mut a, &mut t, IB);
        assert_finite(&a, &format!("geqrt R at {s:e}"));
        assert!(((a[(0, 0)] / s).abs() / col0 - 1.0).abs() < 1e-13, "{s:e}");
        let mut c = scaled(&b, s);
        unmqr(&a, &t, ApplyTrans::Trans, &mut c, IB);
        let err = rel_err(&c, &a.upper_triangle(), s, b.norm_fro());
        assert!(err <= 1e-12, "geqrt residual {err:e} at {s:e}");
    }
}

#[test]
fn tsqrt_is_accurate_at_every_scale() {
    let (r0, b0) = (
        rand_matrix(16, 16, 2).upper_triangle(),
        rand_matrix(16, 16, 3),
    );
    let base = (r0.norm_fro().powi(2) + b0.norm_fro().powi(2)).sqrt();
    for s in SCALES {
        let (mut a1, mut a2) = (scaled(&r0, s), scaled(&b0, s));
        let mut t = Matrix::zeros(IB, 16);
        tsqrt(&mut a1, &mut a2, &mut t, IB);
        assert_finite(&a1, &format!("tsqrt R at {s:e}"));
        let (mut c1, mut c2) = (scaled(&r0, s), scaled(&b0, s));
        tsmqr(&mut c1, &mut c2, &a2, &t, ApplyTrans::Trans, IB);
        let zero = Matrix::zeros(16, 16);
        let err = rel_err(&c1, &a1, s, base).max(rel_err(&c2, &zero, s, base));
        assert!(err <= 1e-12, "tsqrt residual {err:e} at {s:e}");
    }
}

#[test]
fn ttqrt_is_accurate_at_every_scale() {
    let r1 = rand_matrix(16, 16, 4).upper_triangle();
    let r2 = rand_matrix(16, 16, 5).upper_triangle();
    let base = (r1.norm_fro().powi(2) + r2.norm_fro().powi(2)).sqrt();
    for s in SCALES {
        let (mut a1, mut a2) = (scaled(&r1, s), scaled(&r2, s));
        let mut t = Matrix::zeros(IB, 16);
        ttqrt(&mut a1, &mut a2, &mut t, IB);
        assert_finite(&a1, &format!("ttqrt R at {s:e}"));
        let (mut c1, mut c2) = (scaled(&r1, s), scaled(&r2, s));
        ttmqr(
            &mut c1,
            &mut c2,
            &a2.upper_triangle(),
            &t,
            ApplyTrans::Trans,
            IB,
        );
        let zero = Matrix::zeros(16, 16);
        let err = rel_err(&c1, &a1.upper_triangle(), s, base).max(rel_err(&c2, &zero, s, base));
        assert!(err <= 1e-12, "ttqrt residual {err:e} at {s:e}");
    }
}
