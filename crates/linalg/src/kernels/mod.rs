//! PLASMA-style tile QR kernels.
//!
//! These are the computational kernels from Section V-B of the paper:
//!
//! | kernel               | role |
//! |----------------------|------|
//! | [`geqrt`]            | QR of a tile; R in the upper triangle, reflectors below, `T` factors on the side |
//! | [`unmqr`]            | apply a `geqrt` transformation to a tile of the trailing submatrix |
//! | [`tsqrt`]            | incremental QR of a triangle stacked on a full tile |
//! | [`tsmqr`]            | apply a `tsqrt` transformation to two stacked tiles |
//! | [`ttqrt`]            | incremental QR of a triangle stacked on a triangle |
//! | [`ttmqr`]            | apply a `ttqrt` transformation to two stacked tiles |
//!
//! All kernels use inner blocking with block size `ib` and store the
//! block-reflector factors in a `ib x n` matrix `t`: the `T` factor of the
//! inner block starting at column `jb` lives in `t[0..ibb, jb..jb+ibb]`
//! (upper triangular, `ibb = min(ib, n - jb)`).
//!
//! The factorizations themselves are blocked twice: each `ib`-wide panel is
//! factored in sub-panels of width [`PANEL_IB`] (override with
//! [`set_panel_ib`]), where only the current sub-panel runs scalar
//! Householder loops — the finished sub-panel is applied to the rest of its
//! panel through the same GEMM-shaped block apply the trailing update uses,
//! and the `T` factors come from a `V̂^T V̂` Gram GEMM plus a small
//! triangular recurrence. Ragged reflector shapes (the unit-triangle heads
//! of `geqrt`, the staircase tails of `ttqrt`) are zero-padded into dense
//! `V̂` copies so every apply is two GEMMs — the padded lanes contribute
//! exact zeros, so results are unchanged. Each kernel has a `*_ws` variant
//! taking an explicit [`Workspace`] (allocation-free in steady state); the
//! plain names borrow the thread-local workspace.

mod geqrt;
mod tsqrt;
mod ttqrt;

pub use geqrt::{geqrt, geqrt_ws, unmqr, unmqr_ws};
pub use tsqrt::{tsmqr, tsmqr_ws, tsqrt, tsqrt_ws};
pub use ttqrt::{ttmqr, ttmqr_ws, ttqrt, ttqrt_ws};

use crate::blas::ddot;
use crate::gemm::{gemm_into, GemmScratch, MatMut, MatRef};
use crate::matrix::Matrix;
use crate::workspace::grow;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as x86;
use std::cell::Cell;

/// Which operator to apply in the `*mqr` kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ApplyTrans {
    /// Apply `Q` itself.
    NoTrans,
    /// Apply `Q^T` (the direction used during factorization updates).
    Trans,
}

/// Default sub-panel width of the blocked panel factorizations: within each
/// `ib`-wide inner block, only `PANEL_IB` columns at a time are factored
/// with scalar Householder loops; everything wider goes through GEMM. 16
/// matches the microkernel's full MR tile, so the `V̂^T C` sub-panel
/// GEMMs run unmasked.
pub(crate) const PANEL_IB: usize = 16;

/// Column-block width of the T-recurrence lift and the Gram floor inside
/// [`form_block_t`]: small enough that the per-block scalar recurrence
/// stays negligible, big enough that the lift GEMMs aren't degenerate.
const T_BLOCK_IB: usize = 8;

thread_local! {
    static PANEL_IB_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Override the factorization sub-panel width for the current thread
/// (`None` restores [`PANEL_IB`]). `Some(usize::MAX)` disables sub-panel
/// blocking entirely (one scalar panel per inner block, the pre-blocking
/// code path) — a test/bench hook, not a tuning knob.
pub fn set_panel_ib(width: Option<usize>) {
    assert!(width != Some(0), "sub-panel width must be positive");
    PANEL_IB_OVERRIDE.with(|c| c.set(width));
}

/// The sub-panel width in effect on this thread.
pub(crate) fn panel_ib() -> usize {
    PANEL_IB_OVERRIDE.with(|c| c.get()).unwrap_or(PANEL_IB)
}

/// Sub-panel width used to factor an `ibb`-wide inner block: the thread's
/// [`panel_ib`] when the block is wide enough for the pad/Gram/apply
/// machinery to amortize, the full block width otherwise (one scalar
/// panel — the fastest shape for small `ib`, where splitting only adds
/// copies and tiny GEMMs).
pub(crate) fn sub_panel_width(ibb: usize) -> usize {
    let pib = panel_ib();
    if ibb / 2 > pib {
        pib
    } else {
        ibb.max(1)
    }
}

/// Iterate over the inner blocks of a factorization with `k` columns:
/// yields `(jb, ibb)` pairs, ascending for [`ApplyTrans::Trans`] (and for
/// factorization), descending for [`ApplyTrans::NoTrans`]. Allocation-free.
pub(crate) fn inner_blocks(
    k: usize,
    ib: usize,
    trans: ApplyTrans,
) -> impl Iterator<Item = (usize, usize)> {
    assert!(ib > 0, "inner block size must be positive");
    let nblocks = k.div_ceil(ib);
    (0..nblocks).map(move |bi| {
        let bi = if trans == ApplyTrans::NoTrans {
            nblocks - 1 - bi
        } else {
            bi
        };
        let jb = bi * ib;
        (jb, ib.min(k - jb))
    })
}

/// The one crossover of a block-reflector apply: narrower blocks run
/// [`fused_apply`], wider ones two GEMMs around [`apply_t_block`]. Below it
/// products miss the packed GEMM, and staging them through `W` costs more.
const T_APPLY_GEMM_MIN: usize = 16;

/// `op(T) * w` for the `ibb x nc` block `w` (`ibb >= T_APPLY_GEMM_MIN`), `T`
/// upper triangular in columns `t_col0..` of `t` (leading dimension `t_ld`),
/// into the first `ibb * nc` elements of `scratch` (returned). `T` is
/// zero-filled into a dense copy in the rest of `scratch`: one GEMM.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_t_block<'s>(
    t: &[f64],
    t_ld: usize,
    t_col0: usize,
    ibb: usize,
    trans: ApplyTrans,
    w: &[f64],
    scratch: &'s mut [f64],
    nc: usize,
    gemm: &mut GemmScratch,
) -> &'s mut [f64] {
    debug_assert!(ibb >= T_APPLY_GEMM_MIN && scratch.len() >= ibb * (nc + ibb));
    let (out, td) = scratch.split_at_mut(ibb * nc);
    for j in 0..ibb {
        let dst = &mut td[j * ibb..(j + 1) * ibb];
        dst[..=j].copy_from_slice(&t[(t_col0 + j) * t_ld..][..=j]);
        dst[j + 1..].fill(0.0);
    }
    let tv = MatRef::new(&td[..ibb * ibb], ibb, ibb, 1, ibb);
    let tv = match trans {
        ApplyTrans::Trans => tv.t(),
        ApplyTrans::NoTrans => tv,
    };
    gemm_into(
        1.0,
        tv,
        MatRef::new(&w[..ibb * nc], ibb, nc, 1, ibb),
        0.0,
        MatMut::new(out, ibb, nc, 1, ibb),
        gemm,
    );
    out
}

/// The operands of a [`fused_apply`]: `V` is `rows x ibb` (column `k` at
/// `v[k * v_ld..]`), `C` is `rows x nc` (column `j` at `c[j * c_ld..]`), and
/// a stacked reflector's identity part targets `ibb` rows of `head`.
struct Fused<'a> {
    v: &'a [f64],
    v_ld: usize,
    rows: usize,
    head: Option<(&'a mut [f64], usize)>,
    c: &'a mut [f64],
    c_ld: usize,
    nc: usize,
}

/// Apply a block reflector narrower than [`T_APPLY_GEMM_MIN`] in one pass
/// per target column on stack arrays: `w = head + V^T c`, `w := op(T) w`
/// (`T` upper triangular in columns `t_col0..` of `t`, leading dimension
/// `t_ld`), `head -= w`, `c -= V w`. Each width has a fixed-size body, picked
/// from [`crate::gemm::active_gemm_tier`]. Columns never interact.
fn fused_apply(f: Fused<'_>, ibb: usize, t: &[f64], t_ld: usize, t_col0: usize, trans: ApplyTrans) {
    macro_rules! widths {
        ($($k:literal)*) => {
            match ibb {
                $($k => fused_k::<$k>(f, t, t_ld, t_col0, trans),)*
                _ => unreachable!("fused apply of a {ibb}-wide block"),
            }
        };
    }
    widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
}

fn fused_k<const K: usize>(f: Fused<'_>, t: &[f64], ld: usize, col0: usize, tr: ApplyTrans) {
    // opt[j] = column j of op(T), zero outside the triangle.
    let opt: [[f64; K]; K] = std::array::from_fn(|j| {
        std::array::from_fn(|i| match tr {
            ApplyTrans::Trans if j <= i => t[j + (col0 + i) * ld],
            ApplyTrans::NoTrans if i <= j => t[i + (col0 + j) * ld],
            _ => 0.0,
        })
    });
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::active_gemm_tier() != crate::gemm::GemmTier::Scalar {
        // SAFETY: the wider tiers are only selected when runtime detection
        // confirmed avx2 + fma support on this CPU.
        return unsafe { fused_columns_fma::<K>(f, &opt) };
    }
    fused_columns::<K, [f64; 4]>(f, &opt)
}

/// [`fused_columns`] on AVX2 registers with FMA.
///
/// # Safety
/// The CPU must support avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fused_columns_fma<const K: usize>(f: Fused<'_>, opt: &[[f64; K]; K]) {
    fused_columns::<K, x86::__m256d>(f, opt);
}

/// Four `f64` lanes, the register type of [`fused_columns`]: left to it, the
/// autovectorizer runs the chunk loops across chunks, transposing loads.
trait Lanes: Copy {
    /// Whether `mul_add` rounds once (and so must the scalar tails).
    const FMA: bool;
    fn load(s: &[f64; 4]) -> Self;
    fn store(self, s: &mut [f64; 4]);
    /// `self + a * b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    #[inline(always)]
    fn sum(self) -> f64 {
        let mut s = [0.0; 4];
        self.store(&mut s);
        (s[0] + s[1]) + (s[2] + s[3])
    }
}

impl Lanes for [f64; 4] {
    const FMA: bool = false;
    fn load(s: &[f64; 4]) -> Self {
        *s
    }
    fn store(self, s: &mut [f64; 4]) {
        *s = self;
    }
    fn mul_add(self, a: Self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] + a[l] * b[l])
    }
}

/// Only used inside [`fused_columns_fma`], so avx2 + fma are present.
#[cfg(target_arch = "x86_64")]
impl Lanes for x86::__m256d {
    const FMA: bool = true;
    #[inline(always)]
    fn load(s: &[f64; 4]) -> Self {
        // SAFETY: avx2 is present (see the impl); `s` is 4 readable f64s.
        unsafe { x86::_mm256_loadu_pd(s.as_ptr()) }
    }
    #[inline(always)]
    fn store(self, s: &mut [f64; 4]) {
        // SAFETY: avx2 is present (see the impl); `s` is 4 writable f64s.
        unsafe { x86::_mm256_storeu_pd(s.as_mut_ptr(), self) }
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: fma is present (see the impl).
        unsafe { x86::_mm256_fmadd_pd(a, b, self) }
    }
}

#[inline(always)]
fn fused_columns<const K: usize, L: Lanes>(f: Fused<'_>, opt: &[[f64; K]; K]) {
    let fma = |a: f64, b: f64, c: f64| if L::FMA { a.mul_add(b, c) } else { a * b + c };
    let (c, mut head) = (f.c, f.head);
    // Every column is `rows` long: four-lane chunks, then a scalar tail.
    let vc: [(&[[f64; 4]], &[f64]); K] =
        std::array::from_fn(|k| f.v[k * f.v_ld..][..f.rows].as_chunks());
    for j in 0..f.nc {
        let (xc, xt) = c[j * f.c_ld..][..f.rows].as_chunks_mut::<4>();
        let mut acc = [L::load(&[0.0; 4]); K];
        for (i, xi) in xc.iter().enumerate() {
            let x = L::load(xi);
            for (a, (vi, _)) in acc.iter_mut().zip(&vc) {
                *a = a.mul_add(L::load(&vi[i]), x);
            }
        }
        let mut h = head.as_mut().map(|(h, ld)| &mut h[j * *ld..][..K]);
        let mut w = [0.0f64; K];
        for k in 0..K {
            let mut s = acc[k].sum();
            for (vi, xi) in vc[k].1.iter().zip(xt.iter()) {
                s = fma(*vi, *xi, s);
            }
            w[k] = h.as_ref().map_or(s, |h| h[k] + s);
        }
        // y = -op(T) w, so both updates below are multiply-adds.
        let mut y = [0.0f64; K];
        for (col, &wj) in opt.iter().zip(&w) {
            for (yi, &ti) in y.iter_mut().zip(col) {
                *yi = fma(ti, -wj, *yi);
            }
        }
        for (hk, yk) in h.iter_mut().flat_map(|h| h.iter_mut()).zip(&y) {
            *hk += yk;
        }
        let ys = y.map(|yk| L::load(&[yk; 4]));
        for (i, xi) in xc.iter_mut().enumerate() {
            let mut x = L::load(xi);
            for ((vi, _), &yk) in vc.iter().zip(&ys) {
                x = x.mul_add(L::load(&vi[i]), yk);
            }
            x.store(xi);
        }
        for ((_, vt), &yk) in vc.iter().zip(&y) {
            for (xi, vi) in xt.iter_mut().zip(vt.iter()) {
                *xi = fma(*vi, yk, *xi);
            }
        }
    }
}

/// Form the upper-triangular `T` factor of an `ibb`-wide reflector block
/// from its dense `rows x ibb` column-major representation `vhat` (leading
/// dimension `v_ld`, zero-padded where reflectors are ragged; unit heads
/// explicit for in-tile blocks, absent for stacked blocks whose heads live
/// in a separate identity part).
///
/// The cross products come from one Gram GEMM `G = V̂^T V̂` (`gram`
/// scratch); the dlarft recurrence is then blocked over the `ibb x ibb`
/// triangle: a scalar recurrence on each `T_BLOCK_IB`-wide diagonal block
/// `T22`, followed by a GEMM lift `T12 = -T11 (V1^T V2) T22` for the rows
/// above it (the cross Gram `V1^T V2` is already sitting in `g`). The
/// result goes to columns `t_col0..t_col0+ibb` of the flat column-major
/// buffer `t` (leading dimension `t_ld`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn form_block_t(
    vhat: &[f64],
    v_ld: usize,
    rows: usize,
    ibb: usize,
    taus: &[f64],
    t: &mut [f64],
    t_ld: usize,
    t_col0: usize,
    gram: &mut Vec<f64>,
    gemm: &mut GemmScratch,
) {
    if ibb == 0 {
        return;
    }
    let tq = T_BLOCK_IB;
    // Narrow blocks (`ibb < 2 * tq`, e.g. small-`ib` tiles) skip both the
    // Gram GEMM and the recurrence lift: at that size the GEMMs fall under
    // the packed threshold and run generic full-rectangle loops, losing to
    // plain triangular dots.
    let narrow = ibb < 2 * tq;
    let lift = !narrow && ibb > tq;
    // Scratch layout: Gram `g` (ibb^2), then — only when lifting — dense
    // zero-padded copies `t11d` (ibb^2) and `t22d` (tq^2) of the triangular
    // factors plus the `tmp` product (ibb*tq). The dense copies exist
    // because `t`'s sub-diagonal is caller-owned (possibly dirty) and GEMM
    // can't honor triangular structure.
    let want = if lift {
        2 * ibb * ibb + tq * tq + ibb * tq
    } else {
        ibb * ibb
    };
    let buf = grow(gram, want);
    let (g, dense) = buf.split_at_mut(ibb * ibb);
    if rows > 0 && ibb > 1 {
        if narrow {
            // Upper triangle only, by plain dots over the columns.
            for lj in 1..ibb {
                let vj = &vhat[lj * v_ld..][..rows];
                for li in 0..lj {
                    g[li + lj * ibb] = ddot(&vhat[li * v_ld..][..rows], vj);
                }
            }
        } else {
            // The recurrence only reads the upper triangle `g[li, lj]`,
            // `li < lj`, so form the Gram in column blocks: each block of
            // columns `b0..b0+bw` needs rows `0..b0+bw` only. Two halves is
            // the sweet spot — narrower blocks save more flops but the
            // skinny GEMMs run slower than the saved work is worth.
            let gw = (ibb / 2).max(T_BLOCK_IB);
            for (b0, bw) in inner_blocks(ibb, gw, ApplyTrans::Trans) {
                let hi = b0 + bw;
                let va = MatRef::new(vhat, rows, hi, 1, v_ld).t();
                let vb = MatRef::new(&vhat[b0 * v_ld..], rows, bw, 1, v_ld);
                let gb = MatMut::new(&mut g[b0 * ibb..], hi, bw, 1, ibb);
                gemm_into(1.0, va, vb, 0.0, gb, gemm);
            }
        }
    }
    // Without the lift the recurrence must run as one full block (there is
    // nothing else to fill rows above the diagonal blocks).
    let rw = if lift { tq } else { ibb };
    for (b0, bw) in inner_blocks(ibb, rw, ApplyTrans::Trans) {
        // Scalar recurrence confined to the diagonal block: for columns
        // `b0..b0+bw` only rows `b0..` are built here; rows `0..b0` come
        // from the lift GEMMs below.
        for lj in b0..b0 + bw {
            let tau = taus[lj];
            let colbase = (t_col0 + lj) * t_ld;
            t[lj + colbase] = tau;
            if tau == 0.0 {
                for li in b0..lj {
                    t[li + colbase] = 0.0;
                }
                // Rows 0..b0 are still written by the lift (T22 column is
                // zero, so the GEMM lands zeros there too).
                continue;
            }
            // t[b0..lj, col] = -tau * V̂[:, b0..lj]^T v̂_lj from the Gram.
            for li in b0..lj {
                t[li + colbase] = -tau * g[li + lj * ibb];
            }
            // t[b0..lj, col] = T22_partial * t[b0..lj, col], ascending
            // in-place triangular product within the block.
            for li in b0..lj {
                let mut s = 0.0;
                for ll in li..lj {
                    s += t[li + (t_col0 + ll) * t_ld] * t[ll + colbase];
                }
                t[li + colbase] = s;
            }
        }
        if lift && b0 > 0 {
            let (t11d, rest) = dense.split_at_mut(ibb * ibb);
            let (t22d, tmp) = rest.split_at_mut(tq * tq);
            // Dense zero-padded copy of the fresh diagonal block T22.
            for j in 0..bw {
                let src = &t[(t_col0 + b0 + j) * t_ld + b0..];
                let dst = &mut t22d[j * bw..(j + 1) * bw];
                dst[..=j].copy_from_slice(&src[..=j]);
                dst[j + 1..].fill(0.0);
            }
            // tmp = G12 * T22, then T12 = -T11 * tmp straight into `t`.
            let g12 = MatRef::new(&g[b0 * ibb..], b0, bw, 1, ibb);
            let t22 = MatRef::new(&t22d[..bw * bw], bw, bw, 1, bw);
            let tmp = &mut tmp[..b0 * bw];
            gemm_into(1.0, g12, t22, 0.0, MatMut::new(tmp, b0, bw, 1, b0), gemm);
            let t11 = MatRef::new(t11d, b0, b0, 1, ibb);
            let t12 = MatMut::new(&mut t[(t_col0 + b0) * t_ld..], b0, bw, 1, t_ld);
            gemm_into(-1.0, t11, MatRef::new(tmp, b0, bw, 1, b0), 0.0, t12, gemm);
        }
        if lift {
            // Extend the dense T11 copy with this block's finished columns
            // so later blocks can lift against it.
            let t11d = &mut dense[..ibb * ibb];
            for j in 0..bw {
                let col = b0 + j;
                let src = &t[(t_col0 + col) * t_ld..];
                let dst = &mut t11d[col * ibb..(col + 1) * ibb];
                dst[..=col].copy_from_slice(&src[..=col]);
                dst[col + 1..].fill(0.0);
            }
        }
    }
}

/// Build the zero-padded dense `V̂` for one in-tile reflector block: column
/// `l` gets zeros above its head, an explicit unit head at local row `l`,
/// and the stored tail below. `v` is the flat column-major tile (leading
/// dimension `ld` = tile rows) holding reflector `l` in column `jb + l`.
/// Returns the padded row count `ld - jb`.
pub(crate) fn pad_tile_v(v: &[f64], ld: usize, jb: usize, ibb: usize, out: &mut Vec<f64>) -> usize {
    let rows = ld - jb;
    let buf = grow(out, rows * ibb);
    for l in 0..ibb {
        let src = &v[(jb + l) * ld..][..ld];
        let dst = &mut buf[l * rows..(l + 1) * rows];
        dst[..l].fill(0.0);
        dst[l] = 1.0;
        dst[l + 1..].copy_from_slice(&src[jb + l + 1..]);
    }
    rows
}

/// Build the zero-padded dense `V̂` for one staircase reflector-tail block
/// (`ttqrt` family): local tail `l` (column `col0 + l` of `v`, leading
/// dimension `ld`) has `first + l` valid rows; shorter tails are padded
/// with exact zeros at the bottom. Returns the padded row count
/// `first + ibb - 1`.
pub(crate) fn pad_stair_v(
    v: &[f64],
    ld: usize,
    col0: usize,
    first: usize,
    ibb: usize,
    out: &mut Vec<f64>,
) -> usize {
    let rows = first + ibb - 1;
    let buf = grow(out, rows * ibb);
    for l in 0..ibb {
        let len = first + l;
        let src = &v[(col0 + l) * ld..][..len];
        let dst = &mut buf[l * rows..(l + 1) * rows];
        dst[..len].copy_from_slice(src);
        dst[len..].fill(0.0);
    }
    rows
}

/// Apply one inner block of a *stacked* block reflector from the left to
/// the pair `(rows a1_row0..a1_row0+ibb of a1, rows 0..v2_rows of a2)`,
/// columns `cols` of both:
///
/// ```text
/// W  = A1[a1_row0.., cols] + V2^T * A2[0..v2_rows, cols]
/// W := op(T_blk) * W
/// A1[a1_row0.., cols] -= W
/// A2[0..v2_rows, cols] -= V2 * W
/// ```
///
/// `v2` is a dense column-major reflector-tail store with leading dimension
/// `v2_ld`: local reflector `l` has its tail in column `v2_col0 + l`, rows
/// `0..v2_rows` (staircase tails must be zero-padded, see [`pad_stair_v`]).
/// The `T` block lives in columns `t_col0..` of the flat buffer `t`
/// (leading dimension `t_ld`). `a2` is a raw column-major slice (leading
/// dimension `a2m`) whose first column is global column `a2_col0` — this
/// lets `tsqrt` split its tile into reflector and target halves and apply
/// in place, with no `V` copy. Blocks narrower than [`T_APPLY_GEMM_MIN`]
/// take [`fused_apply`]; wider ones make both `V2` products single GEMMs,
/// with `w`/`gemm` the caller's scratch (no allocations in steady state).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_stacked_block(
    v2: &[f64],
    v2_ld: usize,
    v2_col0: usize,
    v2_rows: usize,
    t: &[f64],
    t_ld: usize,
    t_col0: usize,
    ibb: usize,
    trans: ApplyTrans,
    a1: &mut Matrix,
    a1_row0: usize,
    a2: &mut [f64],
    a2m: usize,
    a2_col0: usize,
    cols: std::ops::Range<usize>,
    w: &mut Vec<f64>,
    gemm: &mut GemmScratch,
) {
    let nc = cols.len();
    if nc == 0 || ibb == 0 {
        return;
    }
    let a2_off = (cols.start - a2_col0) * a2m;
    if ibb < T_APPLY_GEMM_MIN {
        let (a1m, h0) = (a1.nrows(), a1_row0 + cols.start * a1.nrows());
        let f = Fused {
            v: &v2[v2_col0 * v2_ld..],
            v_ld: v2_ld,
            rows: v2_rows,
            head: Some((&mut a1.data_mut()[h0..], a1m)),
            c: &mut a2[a2_off..],
            c_ld: a2m,
            nc,
        };
        return fused_apply(f, ibb, t, t_ld, t_col0, trans);
    }
    let wbuf = grow(w, ibb * (2 * nc + ibb));
    let (w, tscratch) = wbuf.split_at_mut(ibb * nc);

    // W = A1[a1_row0..a1_row0+ibb, cols].
    for (wc, c) in cols.clone().enumerate() {
        w[wc * ibb..(wc + 1) * ibb].copy_from_slice(&a1.col(c)[a1_row0..a1_row0 + ibb]);
    }
    // W += V2^T * A2.
    if v2_rows > 0 {
        let v2v = MatRef::new(&v2[v2_col0 * v2_ld..], v2_rows, ibb, 1, v2_ld).t();
        let a2v = MatRef::new(&a2[a2_off..], v2_rows, nc, 1, a2m);
        gemm_into(
            1.0,
            v2v,
            a2v,
            1.0,
            MatMut::new(&mut w[..], ibb, nc, 1, ibb),
            gemm,
        );
    }

    let w = apply_t_block(t, t_ld, t_col0, ibb, trans, w, tscratch, nc, gemm);

    // A1[a1_row0..a1_row0+ibb, cols] -= W.
    for (wc, c) in cols.clone().enumerate() {
        let dst = &mut a1.col_mut(c)[a1_row0..a1_row0 + ibb];
        for (x, wv) in dst.iter_mut().zip(&w[wc * ibb..(wc + 1) * ibb]) {
            *x -= wv;
        }
    }
    // A2 -= V2 * W.
    if v2_rows > 0 {
        let v2v = MatRef::new(&v2[v2_col0 * v2_ld..], v2_rows, ibb, 1, v2_ld);
        let wv = MatRef::new(&w[..], ibb, nc, 1, ibb);
        let cv = MatMut::new(&mut a2[a2_off..], v2_rows, nc, 1, a2m);
        gemm_into(-1.0, v2v, wv, 1.0, cv, gemm);
    }
}

/// Apply one inner block of an *in-tile* block reflector (`geqrt` trailing
/// update / `unmqr`) from the left to columns `c_col0..c_col0+nc` of the
/// column-major buffer `c` (leading dimension `ld`), rows
/// `row0..row0+rows`:
///
/// ```text
/// W  = V̂^T * C[row0.., cols]
/// W := op(T_blk) * W
/// C[row0.., cols] -= V̂ * W
/// ```
///
/// `vhat` is the zero-padded dense `rows x ibb` reflector block from
/// [`pad_tile_v`] (unit heads explicit, so there is no triangular fringe:
/// [`fused_apply`] below [`T_APPLY_GEMM_MIN`], two GEMMs from it up). The
/// `T` block lives in columns `t_col0..` of the flat buffer `t` (leading
/// dimension `t_ld`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_tile_block(
    vhat: &[f64],
    rows: usize,
    ibb: usize,
    t: &[f64],
    t_ld: usize,
    t_col0: usize,
    trans: ApplyTrans,
    c: &mut [f64],
    ld: usize,
    row0: usize,
    c_col0: usize,
    nc: usize,
    w: &mut Vec<f64>,
    gemm: &mut GemmScratch,
) {
    if nc == 0 || ibb == 0 || rows == 0 {
        return;
    }
    if ibb < T_APPLY_GEMM_MIN {
        let f = Fused {
            v: vhat,
            v_ld: rows,
            rows,
            head: None,
            c: &mut c[c_col0 * ld + row0..],
            c_ld: ld,
            nc,
        };
        return fused_apply(f, ibb, t, t_ld, t_col0, trans);
    }
    let wbuf = grow(w, ibb * (2 * nc + ibb));
    let (w, tscratch) = wbuf.split_at_mut(ibb * nc);
    let vv = MatRef::new(&vhat[..rows * ibb], rows, ibb, 1, rows);

    // W = V̂^T * C (beta = 0: W scratch may hold stale garbage).
    let cv = MatRef::new(&c[c_col0 * ld + row0..], rows, nc, 1, ld);
    gemm_into(
        1.0,
        vv.t(),
        cv,
        0.0,
        MatMut::new(&mut w[..], ibb, nc, 1, ibb),
        gemm,
    );

    let w = apply_t_block(t, t_ld, t_col0, ibb, trans, w, tscratch, nc, gemm);

    // C -= V̂ * W.
    let wv = MatRef::new(&w[..], ibb, nc, 1, ibb);
    let cm = MatMut::new(&mut c[c_col0 * ld + row0..], rows, nc, 1, ld);
    gemm_into(-1.0, vv, wv, 1.0, cm, gemm);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_blocks_cover_columns() {
        let blocks: Vec<_> = inner_blocks(10, 4, ApplyTrans::Trans).collect();
        assert_eq!(blocks, vec![(0, 4), (4, 4), (8, 2)]);
        let rev: Vec<_> = inner_blocks(10, 4, ApplyTrans::NoTrans).collect();
        assert_eq!(rev, vec![(8, 2), (4, 4), (0, 4)]);
    }

    #[test]
    fn inner_blocks_single() {
        let blocks: Vec<_> = inner_blocks(3, 8, ApplyTrans::Trans).collect();
        assert_eq!(blocks, vec![(0, 3)]);
        assert_eq!(inner_blocks(0, 4, ApplyTrans::Trans).count(), 0);
    }

    // The dense-T GEMM path (`ibb >= T_APPLY_GEMM_MIN`).
    #[test]
    fn apply_t_block_matches_dense_gemm_path() {
        use crate::blas::{dgemm, Trans};
        let (ibb, nc) = (24, 17);
        let mut rng = rand::rng();
        // t with the block at columns 2..2+ibb, upper triangular.
        let mut t = Matrix::zeros(ibb + 1, ibb + 4);
        for j in 0..ibb {
            for i in 0..=j {
                t[(i, 2 + j)] = rand::Rng::random::<f64>(&mut rng);
            }
        }
        let tdense = Matrix::from_fn(ibb, ibb, |i, j| if i <= j { t[(i, 2 + j)] } else { 0.0 });
        let w0 = Matrix::random(ibb, nc, &mut rng);
        let mut scratch = vec![0.0; ibb * (nc + ibb)];
        let mut gemm = GemmScratch::default();

        for (trans, tt) in [
            (ApplyTrans::Trans, Trans::Yes),
            (ApplyTrans::NoTrans, Trans::No),
        ] {
            let out = apply_t_block(
                t.data(),
                t.nrows(),
                2,
                ibb,
                trans,
                w0.data(),
                &mut scratch,
                nc,
                &mut gemm,
            );
            let got = Matrix::from_fn(ibb, nc, |i, j| out[i + j * ibb]);
            let mut want = Matrix::zeros(ibb, nc);
            dgemm(tt, Trans::No, 1.0, &tdense, &w0, 0.0, &mut want);
            assert!(got.sub(&want).norm_fro() < 1e-12, "trans={trans:?}");
        }
    }

    /// `(I - V op(T) V^T) C`, with the reflector built densely by `dgemm`.
    fn reflect_dense(v: &Matrix, t: &Matrix, trans: ApplyTrans, c: &Matrix) -> Matrix {
        use crate::blas::{dgemm, Trans};
        let tt = match trans {
            ApplyTrans::Trans => Trans::Yes,
            ApplyTrans::NoTrans => Trans::No,
        };
        let n = v.nrows();
        let mut vt = Matrix::zeros(n, v.ncols());
        dgemm(Trans::No, tt, 1.0, v, t, 0.0, &mut vt);
        let mut h = Matrix::identity(n);
        dgemm(Trans::No, Trans::Yes, -1.0, &vt, v, 1.0, &mut h);
        let mut out = Matrix::zeros(n, c.ncols());
        dgemm(Trans::No, Trans::No, 1.0, &h, c, 0.0, &mut out);
        out
    }

    /// Both fused callers against [`reflect_dense`] at one shape: the
    /// in-tile apply on rows `1..1+rows`, columns `2..2+nc` of a wider
    /// buffer, and the stacked apply on `[A1 rows 2..2+ibb; A2]`, columns
    /// `3..3+nc`. `T` sits at columns `2..` of a buffer whose sub-diagonal
    /// is dirty; column `zero` of it is a zero-`tau` reflector.
    fn check_fused(ibb: usize, rows: usize, nc: usize, trans: ApplyTrans, zero: Option<usize>) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64((ibb * 1000 + rows * 10 + nc) as u64);
        let mut t = Matrix::from_fn(ibb + 1, ibb + 3, |_, _| 9.0);
        for j in 0..ibb {
            for i in 0..=j {
                t[(i, 2 + j)] = if zero == Some(j) {
                    0.0
                } else {
                    rand::Rng::random::<f64>(&mut rng)
                };
            }
        }
        let tdense = Matrix::from_fn(ibb, ibb, |i, j| if i <= j { t[(i, 2 + j)] } else { 0.0 });
        let close = |got: &Matrix, want: &Matrix, before: &Matrix, what: &str| {
            let err = got.sub(want).norm_fro();
            let scale = want.norm_fro() + before.norm_fro();
            assert!(
                err <= 1e-13 * scale,
                "{what} ibb={ibb} rows={rows} nc={nc} {trans:?} zero={zero:?}: {err:e}"
            );
        };
        let mut w = Vec::new();
        let mut gemm = GemmScratch::default();

        // In-tile: C[1..1+rows, 2..2+nc] -= V op(T) V^T C.
        let v = Matrix::random(rows, ibb, &mut rng);
        let c0 = Matrix::random(rows + 2, nc + 3, &mut rng);
        let mut c = c0.clone();
        let ld = c.nrows();
        apply_tile_block(
            v.data(),
            rows,
            ibb,
            t.data(),
            t.nrows(),
            2,
            trans,
            c.data_mut(),
            ld,
            1,
            2,
            nc,
            &mut w,
            &mut gemm,
        );
        let mut want = c0.clone();
        let target = c0.submatrix(1, 2, rows, nc);
        want.set_submatrix(1, 2, &reflect_dense(&v, &tdense, trans, &target));
        close(&c, &want, &c0, "in-tile");

        // Stacked: [A1 rows 2..2+ibb; A2] with reflector [I; V2], V2 in
        // columns 2..2+ibb of its store.
        let v2 = Matrix::random(rows, ibb + 2, &mut rng);
        let a10 = Matrix::random(ibb + 3, nc + 3, &mut rng);
        let a20 = Matrix::random(rows, nc + 3, &mut rng);
        let (mut a1, mut a2) = (a10.clone(), a20.clone());
        apply_stacked_block(
            v2.data(),
            rows,
            2,
            rows,
            t.data(),
            t.nrows(),
            2,
            ibb,
            trans,
            &mut a1,
            2,
            a2.data_mut(),
            rows,
            0,
            3..3 + nc,
            &mut w,
            &mut gemm,
        );
        let vfull = Matrix::from_fn(ibb + rows, ibb, |i, j| {
            if i < ibb {
                f64::from(u8::from(i == j))
            } else {
                v2[(i - ibb, 2 + j)]
            }
        });
        let mut target = Matrix::zeros(ibb + rows, nc);
        target.set_submatrix(0, 0, &a10.submatrix(2, 3, ibb, nc));
        target.set_submatrix(ibb, 0, &a20.submatrix(0, 3, rows, nc));
        let out = reflect_dense(&vfull, &tdense, trans, &target);
        let (mut want1, mut want2) = (a10.clone(), a20.clone());
        want1.set_submatrix(2, 3, &out.submatrix(0, 0, ibb, nc));
        want2.set_submatrix(0, 3, &out.submatrix(ibb, 0, rows, nc));
        close(&a1, &want1, &a10, "stacked head");
        close(&a2, &want2, &a20, "stacked tail");
        assert!(w.is_empty(), "the fused pass must not touch the W scratch");
    }

    #[test]
    fn fused_apply_matches_dense_reflector_at_every_narrow_width() {
        use crate::gemm::{set_gemm_tier, GemmTier};
        // The plain body and the FMA body (shared by every wider tier).
        for tier in [GemmTier::Scalar, GemmTier::detect()] {
            set_gemm_tier(Some(tier));
            for ibb in 1..T_APPLY_GEMM_MIN {
                for rows in [0, 1, 3, 4, 5, 16, 17, 32] {
                    for nc in [0, 1, 7, 16] {
                        for trans in [ApplyTrans::Trans, ApplyTrans::NoTrans] {
                            let zero = (nc % 2 == 1).then_some(ibb / 2);
                            check_fused(ibb, rows, nc, trans, zero);
                        }
                    }
                }
            }
        }
        set_gemm_tier(None);
    }

    #[test]
    fn pad_tile_v_builds_unit_lower_copy() {
        // 5x3 tile, block at jb = 1, ibb = 2.
        let m = 5;
        let v: Vec<f64> = (0..15).map(|x| x as f64 + 1.0).collect();
        let mut out = Vec::new();
        let rows = pad_tile_v(&v, m, 1, 2, &mut out);
        assert_eq!(rows, 4);
        // Column 0 = reflector in tile column 1: head at local row 0.
        assert_eq!(&out[0..4], &[1.0, v[7], v[8], v[9]]);
        // Column 1 = reflector in tile column 2: zero, head, tail.
        assert_eq!(&out[4..8], &[0.0, 1.0, v[13], v[14]]);
    }

    #[test]
    fn pad_stair_v_zero_pads_short_tails() {
        // Tails at col0 = 1, first = 2, ibb = 2: lengths 2 and 3.
        let ld = 4;
        let v: Vec<f64> = (0..12).map(|x| x as f64 + 1.0).collect();
        let mut out = Vec::new();
        let rows = pad_stair_v(&v, ld, 1, 2, 2, &mut out);
        assert_eq!(rows, 3);
        assert_eq!(&out[0..3], &[v[4], v[5], 0.0]);
        assert_eq!(&out[3..6], &[v[8], v[9], v[10]]);
    }
}
