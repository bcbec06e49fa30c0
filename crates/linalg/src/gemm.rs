//! BLIS-style packed, register-blocked GEMM engine with tiered microkernels.
//!
//! The engine follows the classic three-loop blocking scheme: `B` panels of
//! `KC x NC` and `A` panels of `MC x KC` are packed into contiguous,
//! microkernel-ready buffers, and an unrolled register-tiled microkernel
//! sweeps the packed panels. Edge tiles are zero-padded during packing so
//! the microkernel always runs at full size; the write-back step masks to
//! the true `mr x nr` footprint.
//!
//! All four transpose combinations are handled by the packing step: operands
//! are described by [`MatRef`] strided views, and transposition is just a
//! stride swap. Products smaller than [`PACKED_MIN_FLOPS`] skip packing and
//! run cache-aware fallback loops instead.
//!
//! Three microkernel tiers are compiled on `x86_64` and selected at runtime
//! (see [`GemmTier`]): a portable scalar `8x6` tile, the same tile compiled
//! with `avx2`+`fma` (the autovectorizer turns the accumulator rows into
//! 256-bit FMAs), and a hand-written `16x8` AVX-512 intrinsics tile with
//! software prefetch. The best available tier is detected once; tests and
//! benches can force a lower tier with the `PULSAR_GEMM_TIER` environment
//! variable (`scalar`/`avx2`/`avx512`, clamped to what the CPU supports) or
//! per-thread with [`set_gemm_tier`].

use crate::matrix::Matrix;
use std::cell::Cell;
use std::sync::OnceLock;

/// Register-tile rows of the scalar and AVX2 microkernels.
const MR2: usize = 8;
/// Register-tile columns of the scalar and AVX2 microkernels. `8 x 6`
/// keeps 12 four-wide accumulator rows plus the `A` column and one
/// broadcast in 15 of the 16 AVX2 registers — the classic double-precision
/// Haswell tile.
const NR2: usize = 6;
/// Register-tile rows of the AVX-512 microkernel (two zmm per column).
const MR5: usize = 16;
/// Register-tile columns of the AVX-512 microkernel. `16 x 8` uses 16 zmm
/// accumulators + 2 `A` loads + 1 broadcast = 19 of 32 registers.
const NR5: usize = 8;
/// Rows of a packed `A` panel (`MC x KC` sized for L2 residency).
const MC: usize = 128;
/// Shared inner (`k`) blocking of the packed panels.
const KC: usize = 256;
/// Columns of a packed `B` panel.
const NC: usize = 4096;
/// Below this `m*n*k`, the packed path loses to the plain loops.
const PACKED_MIN_FLOPS: usize = 8192;
/// Packed-`A` prefetch distance in k-steps (one k-step of a 16-row panel
/// is two cache lines).
const PF_DIST: usize = 4;

/// Microkernel tier, ordered from narrowest to widest.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GemmTier {
    /// Portable `8x6` tile; whatever SIMD the baseline target allows.
    Scalar,
    /// The `8x6` tile compiled with `avx2`+`fma` (256-bit FMAs).
    Avx2,
    /// Hand-written `16x8` AVX-512 intrinsics tile with prefetch.
    Avx512,
}

impl GemmTier {
    /// Whether this tier's microkernel can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            GemmTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            GemmTier::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            // Implies Avx2: the fused small-block apply runs its body here.
            GemmTier::Avx512 => {
                GemmTier::Avx2.is_available() && std::arch::is_x86_feature_detected!("avx512f")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest tier the current CPU supports.
    pub fn detect() -> Self {
        [GemmTier::Avx512, GemmTier::Avx2]
            .into_iter()
            .find(|t| t.is_available())
            .unwrap_or(GemmTier::Scalar)
    }

    /// Parse a tier name as used by `PULSAR_GEMM_TIER` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(GemmTier::Scalar),
            "avx2" => Some(GemmTier::Avx2),
            "avx512" => Some(GemmTier::Avx512),
            _ => None,
        }
    }

    /// Canonical lowercase name (the `PULSAR_GEMM_TIER` spelling).
    pub fn name(self) -> &'static str {
        match self {
            GemmTier::Scalar => "scalar",
            GemmTier::Avx2 => "avx2",
            GemmTier::Avx512 => "avx512",
        }
    }

    /// Microkernel register-tile rows for this tier.
    #[inline]
    fn mr(self) -> usize {
        match self {
            GemmTier::Avx512 => MR5,
            _ => MR2,
        }
    }

    /// Microkernel register-tile columns for this tier.
    #[inline]
    fn nr(self) -> usize {
        match self {
            GemmTier::Avx512 => NR5,
            _ => NR2,
        }
    }
}

impl std::fmt::Display for GemmTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    static TIER_OVERRIDE: Cell<Option<GemmTier>> = const { Cell::new(None) };
}

/// Force a microkernel tier for the current thread (`None` restores the
/// process-wide default). Panics if the tier is not available on this CPU —
/// callers (tests) should check [`GemmTier::is_available`] first.
///
/// The override is thread-local. Use `PULSAR_GEMM_TIER` to pin every thread.
pub fn set_gemm_tier(tier: Option<GemmTier>) {
    if let Some(t) = tier {
        assert!(
            t.is_available(),
            "GEMM tier {t} is not available on this CPU"
        );
    }
    TIER_OVERRIDE.with(|c| c.set(tier));
}

/// Process-wide tier: `PULSAR_GEMM_TIER` if set, parsable, and available on
/// this CPU; otherwise the widest detected tier. Cached after first use.
fn env_tier() -> GemmTier {
    static ENV: OnceLock<GemmTier> = OnceLock::new();
    *ENV.get_or_init(|| {
        let detected = GemmTier::detect();
        match std::env::var("PULSAR_GEMM_TIER") {
            Ok(s) => match GemmTier::parse(&s) {
                Some(t) if t.is_available() => t,
                _ => detected,
            },
            Err(_) => detected,
        }
    })
}

/// The microkernel tier GEMM calls on this thread will use right now
/// (thread override > `PULSAR_GEMM_TIER` > detection).
pub fn active_gemm_tier() -> GemmTier {
    TIER_OVERRIDE.with(|c| c.get()).unwrap_or_else(env_tier)
}

/// Comma-separated list of the SIMD features relevant to tier dispatch that
/// the current CPU supports (for bench metadata).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        macro_rules! probe {
            ($($name:tt),*) => {
                $(if std::arch::is_x86_feature_detected!($name) { out.push($name); })*
            };
        }
        probe!("sse2", "avx", "avx2", "fma", "avx512f", "avx512vl", "avx512dq", "avx512bw");
        out.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("none")
    }
}

/// Reusable packing buffers for the packed GEMM path. Buffers only ever
/// grow, so steady-state calls with stable problem sizes allocate nothing.
#[derive(Default)]
pub struct GemmScratch {
    pack_a: Vec<f64>,
    pack_b: Vec<f64>,
}

impl GemmScratch {
    /// Total `f64` capacity currently held (diagnostics).
    pub fn capacity(&self) -> usize {
        self.pack_a.capacity() + self.pack_b.capacity()
    }
}

/// Immutable strided view of a column-major buffer: element `(i, j)` lives
/// at `data[i * rs + j * cs]`.
#[derive(Copy, Clone)]
pub(crate) struct MatRef<'a> {
    data: &'a [f64],
    m: usize,
    n: usize,
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    pub(crate) fn new(data: &'a [f64], m: usize, n: usize, rs: usize, cs: usize) -> Self {
        if m > 0 && n > 0 {
            let span = (m - 1) * rs + (n - 1) * cs;
            assert!(span < data.len(), "MatRef view exceeds its buffer");
        }
        MatRef { data, m, n, rs, cs }
    }

    pub(crate) fn from_matrix(a: &'a Matrix) -> Self {
        Self::new(a.data(), a.nrows(), a.ncols(), 1, a.nrows().max(1))
    }

    /// The transposed view (stride swap; no data movement).
    pub(crate) fn t(self) -> Self {
        MatRef {
            data: self.data,
            m: self.n,
            n: self.m,
            rs: self.cs,
            cs: self.rs,
        }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// Mutable strided view (same layout convention as [`MatRef`]).
pub(crate) struct MatMut<'a> {
    data: &'a mut [f64],
    m: usize,
    n: usize,
    rs: usize,
    cs: usize,
}

impl<'a> MatMut<'a> {
    pub(crate) fn new(data: &'a mut [f64], m: usize, n: usize, rs: usize, cs: usize) -> Self {
        if m > 0 && n > 0 {
            let span = (m - 1) * rs + (n - 1) * cs;
            assert!(span < data.len(), "MatMut view exceeds its buffer");
        }
        MatMut { data, m, n, rs, cs }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.rs + j * self.cs
    }
}

/// Issue a best-effort L1 prefetch for the cache line holding `p`. The
/// address does not need to be in bounds — prefetching never faults — so
/// callers may pass `wrapping_add` results that run past a buffer's end.
#[inline(always)]
fn prefetch(p: *const f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is architecturally defined to be a hint with no
    // memory effects, valid for any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// `C := alpha * A * B + beta * C` on strided views, picking the packed or
/// fallback path by problem size. `beta == 0` overwrites `C` (NaN-safe,
/// BLAS convention); `beta == 1` skips the scale pass entirely.
pub(crate) fn gemm_into(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
    scratch: &mut GemmScratch,
) {
    gemm_into_impl(alpha, a, b, beta, &mut c, scratch, false);
}

pub(crate) fn gemm_into_impl(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: &mut MatMut<'_>,
    scratch: &mut GemmScratch,
    force_packed: bool,
) {
    assert_eq!(a.n, b.m, "gemm inner dimensions");
    assert_eq!(a.m, c.m, "gemm C rows");
    assert_eq!(b.n, c.n, "gemm C cols");
    scale_c(beta, c);
    let (m, n, k) = (c.m, c.n, a.n);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    if force_packed || m * n * k >= PACKED_MIN_FLOPS {
        gemm_packed(alpha, a, b, c, scratch);
    } else {
        gemm_small(alpha, a, b, c);
    }
}

/// Apply `beta` to `C`: zero-fill for `beta == 0` (so garbage, including
/// NaN/Inf, in an uninitialized `C` cannot leak through `0 * NaN`), no-op
/// for `beta == 1`, scale otherwise.
fn scale_c(beta: f64, c: &mut MatMut<'_>) {
    if beta == 1.0 || c.m == 0 || c.n == 0 {
        return;
    }
    if c.rs == 1 && c.cs >= c.m {
        for j in 0..c.n {
            let base = j * c.cs;
            let col = &mut c.data[base..base + c.m];
            if beta == 0.0 {
                col.fill(0.0);
            } else {
                for x in col {
                    *x *= beta;
                }
            }
        }
    } else {
        for j in 0..c.n {
            for i in 0..c.m {
                let idx = c.idx(i, j);
                c.data[idx] = if beta == 0.0 { 0.0 } else { c.data[idx] * beta };
            }
        }
    }
}

/// Unpacked fallback for small products: `C += alpha * A * B` with the loop
/// order chosen by which operands are unit-stride.
fn gemm_small(alpha: f64, a: MatRef<'_>, b: MatRef<'_>, c: &mut MatMut<'_>) {
    let (m, n, k) = (c.m, c.n, a.n);
    if a.cs == 1 && b.rs == 1 {
        // Dot form: rows of A and columns of B are both contiguous.
        for j in 0..n {
            let bcol = &b.data[j * b.cs..j * b.cs + k];
            for i in 0..m {
                let arow = &a.data[i * a.rs..i * a.rs + k];
                let dot = crate::blas::ddot(arow, bcol);
                let idx = c.idx(i, j);
                c.data[idx] += alpha * dot;
            }
        }
    } else if a.rs == 1 && c.rs == 1 {
        // Axpy form: columns of A and C are contiguous (jki order).
        for j in 0..n {
            for p in 0..k {
                let f = alpha * b.at(p, j);
                if f == 0.0 {
                    continue;
                }
                let acol = &a.data[p * a.cs..p * a.cs + m];
                let cbase = j * c.cs;
                let ccol = &mut c.data[cbase..cbase + m];
                for (x, v) in ccol.iter_mut().zip(acol) {
                    *x += f * v;
                }
            }
        }
    } else {
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at(i, p) * b.at(p, j);
                }
                let idx = c.idx(i, j);
                c.data[idx] += alpha * s;
            }
        }
    }
}

fn gemm_packed(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut MatMut<'_>,
    scratch: &mut GemmScratch,
) {
    let (m, n, k) = (c.m, c.n, a.n);
    let tier = active_gemm_tier();
    let (mr, nr) = (tier.mr(), tier.nr());
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, pc, jc, kc, nc, nr, &mut scratch.pack_b);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(a, ic, pc, mc, kc, mr, &mut scratch.pack_a);
                macro_kernel(
                    &scratch.pack_a,
                    &scratch.pack_b,
                    mc,
                    nc,
                    kc,
                    alpha,
                    c,
                    ic,
                    jc,
                    tier,
                );
            }
        }
    }
}

/// Pack the `mc x kc` block of `A` at `(ic, pc)` into row-panels of `mr`:
/// panel `ip` holds rows `ic + ip*mr ..` for all `kc` columns, `mr` entries
/// per k-step, zero-padded at the bottom edge.
fn pack_a(
    a: MatRef<'_>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    mr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(mr);
    let needed = panels * mr * kc;
    if buf.len() < needed {
        buf.resize(needed, 0.0);
    }
    let buf = &mut buf[..needed];
    for ip in 0..panels {
        let i0 = ic + ip * mr;
        let rows = mr.min(ic + mc - i0);
        let dst = &mut buf[ip * mr * kc..(ip + 1) * mr * kc];
        if a.rs == 1 {
            for p in 0..kc {
                let base = (pc + p) * a.cs + i0;
                // Pull the next source column toward L1 while this one copies.
                prefetch(a.data.as_ptr().wrapping_add(base + a.cs));
                let src = &a.data[base..base + rows];
                let d = &mut dst[p * mr..(p + 1) * mr];
                d[..rows].copy_from_slice(src);
                d[rows..].fill(0.0);
            }
        } else {
            for p in 0..kc {
                let base = i0 * a.rs + (pc + p) * a.cs;
                prefetch(a.data.as_ptr().wrapping_add(base + a.cs));
                let d = &mut dst[p * mr..(p + 1) * mr];
                for (ii, x) in d[..rows].iter_mut().enumerate() {
                    *x = a.at(i0 + ii, pc + p);
                }
                d[rows..].fill(0.0);
            }
        }
    }
}

/// Pack the `kc x nc` block of `B` at `(pc, jc)` into column-panels of
/// `nr`: panel `jp` holds columns `jc + jp*nr ..`, `nr` entries per k-step,
/// zero-padded at the right edge.
fn pack_b(
    b: MatRef<'_>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    nr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = nc.div_ceil(nr);
    let needed = panels * nr * kc;
    if buf.len() < needed {
        buf.resize(needed, 0.0);
    }
    let buf = &mut buf[..needed];
    for jp in 0..panels {
        let j0 = jc + jp * nr;
        let cols = nr.min(jc + nc - j0);
        let dst = &mut buf[jp * nr * kc..(jp + 1) * nr * kc];
        if b.rs == 1 {
            for jj in 0..cols {
                let base = (j0 + jj) * b.cs + pc;
                prefetch(b.data.as_ptr().wrapping_add(base + b.cs));
                let src = &b.data[base..base + kc];
                for (p, x) in src.iter().enumerate() {
                    dst[p * nr + jj] = *x;
                }
            }
        } else if b.cs == 1 {
            for p in 0..kc {
                let base = (pc + p) * b.rs + j0;
                prefetch(b.data.as_ptr().wrapping_add(base + b.rs));
                let src = &b.data[base..base + cols];
                let d = &mut dst[p * nr..(p + 1) * nr];
                d[..cols].copy_from_slice(src);
            }
        } else {
            for p in 0..kc {
                let d = &mut dst[p * nr..(p + 1) * nr];
                for (jj, x) in d[..cols].iter_mut().enumerate() {
                    *x = b.at(pc + p, j0 + jj);
                }
            }
        }
        // Zero-pad the right edge once per panel.
        if cols < nr {
            for p in 0..kc {
                dst[p * nr + cols..(p + 1) * nr].fill(0.0);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    pa: &[f64],
    pb: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    c: &mut MatMut<'_>,
    ic: usize,
    jc: usize,
    tier: GemmTier,
) {
    match tier {
        GemmTier::Scalar => macro_kernel_generic::<false>(pa, pb, mc, nc, kc, alpha, c, ic, jc),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when runtime detection confirmed
        // avx2 + fma support on this CPU.
        GemmTier::Avx2 => unsafe { macro_kernel_avx2(pa, pb, mc, nc, kc, alpha, c, ic, jc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier is only selected when runtime detection confirmed
        // avx512f support on this CPU.
        GemmTier::Avx512 => unsafe { macro_kernel_avx512(pa, pb, mc, nc, kc, alpha, c, ic, jc) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => macro_kernel_generic::<false>(pa, pb, mc, nc, kc, alpha, c, ic, jc),
    }
}

/// The same macrokernel body compiled with AVX2 + FMA enabled; the
/// autovectorizer turns the accumulator rows into 256-bit FMAs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn macro_kernel_avx2(
    pa: &[f64],
    pb: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    c: &mut MatMut<'_>,
    ic: usize,
    jc: usize,
) {
    macro_kernel_generic::<true>(pa, pb, mc, nc, kc, alpha, c, ic, jc);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn macro_kernel_generic<const FMA: bool>(
    pa: &[f64],
    pb: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    c: &mut MatMut<'_>,
    ic: usize,
    jc: usize,
) {
    for jp in 0..nc.div_ceil(NR2) {
        let j0 = jp * NR2;
        let nr = NR2.min(nc - j0);
        let bpan = &pb[jp * NR2 * kc..(jp + 1) * NR2 * kc];
        for ip in 0..mc.div_ceil(MR2) {
            let i0 = ip * MR2;
            let mr = MR2.min(mc - i0);
            let apan = &pa[ip * MR2 * kc..(ip + 1) * MR2 * kc];
            micro_kernel::<FMA>(alpha, apan, bpan, c, ic + i0, jc + j0, mr, nr);
        }
    }
}

/// `MR2 x NR2` register tile: accumulate `alpha * apan * bpan` over the
/// full packed k-extent, then write the true `mr x nr` footprint back into
/// `C`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel<const FMA: bool>(
    alpha: f64,
    apan: &[f64],
    bpan: &[f64],
    c: &mut MatMut<'_>,
    ci: usize,
    cj: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; MR2]; NR2];
    for (ac, bc) in apan.chunks_exact(MR2).zip(bpan.chunks_exact(NR2)) {
        let ac: &[f64; MR2] = ac.try_into().unwrap();
        let bc: &[f64; NR2] = bc.try_into().unwrap();
        for j in 0..NR2 {
            let bj = bc[j];
            for i in 0..MR2 {
                if FMA {
                    acc[j][i] = ac[i].mul_add(bj, acc[j][i]);
                } else {
                    acc[j][i] += ac[i] * bj;
                }
            }
        }
    }
    for (j, accj) in acc.iter().enumerate().take(nr) {
        for (i, &v) in accj.iter().enumerate().take(mr) {
            let idx = c.idx(ci + i, cj + j);
            c.data[idx] += alpha * v;
        }
    }
}

/// AVX-512 macrokernel: `16 x 8` intrinsics register tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn macro_kernel_avx512(
    pa: &[f64],
    pb: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    c: &mut MatMut<'_>,
    ic: usize,
    jc: usize,
) {
    for jp in 0..nc.div_ceil(NR5) {
        let j0 = jp * NR5;
        let nr = NR5.min(nc - j0);
        let bpan = &pb[jp * NR5 * kc..(jp + 1) * NR5 * kc];
        for ip in 0..mc.div_ceil(MR5) {
            let i0 = ip * MR5;
            let mr = MR5.min(mc - i0);
            let apan = &pa[ip * MR5 * kc..(ip + 1) * MR5 * kc];
            micro_kernel_avx512(alpha, apan, bpan, c, ic + i0, jc + j0, mr, nr, kc);
        }
    }
}

/// `16 x 8` zmm register tile: 16 accumulators (two per `B` column), two
/// `A` loads, one broadcast — 19 of 32 registers, with a software-prefetch
/// stream [`PF_DIST`] k-steps ahead in both packed panels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_kernel_avx512(
    alpha: f64,
    apan: &[f64],
    bpan: &[f64],
    c: &mut MatMut<'_>,
    ci: usize,
    cj: usize,
    mr: usize,
    nr: usize,
    kc: usize,
) {
    use core::arch::x86_64::*;
    debug_assert!(apan.len() >= kc * MR5 && bpan.len() >= kc * NR5);
    let mut acc = [[_mm512_setzero_pd(); 2]; NR5];
    let mut ap = apan.as_ptr();
    let mut bp = bpan.as_ptr();
    for _ in 0..kc {
        prefetch(ap.wrapping_add(MR5 * PF_DIST));
        prefetch(ap.wrapping_add(MR5 * PF_DIST + 8));
        prefetch(bp.wrapping_add(NR5 * PF_DIST));
        let a0 = _mm512_loadu_pd(ap);
        let a1 = _mm512_loadu_pd(ap.add(8));
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm512_set1_pd(*bp.add(j));
            accj[0] = _mm512_fmadd_pd(a0, bj, accj[0]);
            accj[1] = _mm512_fmadd_pd(a1, bj, accj[1]);
        }
        ap = ap.add(MR5);
        bp = bp.add(NR5);
    }
    // Spill the register tile and mask the write-back to the true
    // footprint (C is strided; a scalar loop over <= 128 entries).
    let mut buf = [0.0f64; MR5 * NR5];
    for (j, accj) in acc.iter().enumerate() {
        _mm512_storeu_pd(buf.as_mut_ptr().add(j * MR5), accj[0]);
        _mm512_storeu_pd(buf.as_mut_ptr().add(j * MR5 + 8), accj[1]);
    }
    for j in 0..nr {
        for i in 0..mr {
            let idx = c.idx(ci + i, cj + j);
            c.data[idx] += alpha * buf[j * MR5 + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: usize, n: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        let mut v = vec![0.0; m * n];
        for j in 0..n {
            for i in 0..m {
                v[i + j * m] = f(i, j);
            }
        }
        v
    }

    #[test]
    fn packed_matches_naive_with_offsets_and_strides() {
        let (m, n, k) = (13, 9, 21);
        let a = dense(m, k, |i, j| (i * 31 + j * 7) as f64 * 0.01 - 1.0);
        let b = dense(k, n, |i, j| (i * 13 + j * 5) as f64 * 0.02 - 2.0);
        let mut c = vec![0.5; m * n];
        let mut scratch = GemmScratch::default();
        gemm_into_impl(
            1.5,
            MatRef::new(&a, m, k, 1, m),
            MatRef::new(&b, k, n, 1, k),
            -1.0,
            &mut MatMut::new(&mut c, m, n, 1, m),
            &mut scratch,
            true,
        );
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i + p * m] * b[p + j * k];
                }
                let want = 1.5 * s - 0.5;
                assert!((c[i + j * m] - want).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn transposed_views_match() {
        let (m, n, k) = (10, 6, 7);
        let at = dense(k, m, |i, j| (i + 2 * j) as f64 * 0.1);
        let b = dense(k, n, |i, j| (3 * i + j) as f64 * 0.1 - 1.0);
        let mut c = vec![0.0; m * n];
        let mut scratch = GemmScratch::default();
        gemm_into_impl(
            1.0,
            MatRef::new(&at, k, m, 1, k).t(),
            MatRef::new(&b, k, n, 1, k),
            0.0,
            &mut MatMut::new(&mut c, m, n, 1, m),
            &mut scratch,
            true,
        );
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    s += at[p + i * k] * b[p + j * k];
                }
                assert!((c[i + j * m] - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = dense(4, 4, |i, j| (i + j) as f64);
        let b = a.clone();
        let mut c = vec![f64::NAN; 16];
        let mut scratch = GemmScratch::default();
        gemm_into_impl(
            1.0,
            MatRef::new(&a, 4, 4, 1, 4),
            MatRef::new(&b, 4, 4, 1, 4),
            0.0,
            &mut MatMut::new(&mut c, 4, 4, 1, 4),
            &mut scratch,
            true,
        );
        assert!(c.iter().all(|x| x.is_finite()), "NaN leaked through beta=0");
    }

    #[test]
    fn tier_parse_and_names_roundtrip() {
        for t in [GemmTier::Scalar, GemmTier::Avx2, GemmTier::Avx512] {
            assert_eq!(GemmTier::parse(t.name()), Some(t));
            assert_eq!(GemmTier::parse(&t.name().to_uppercase()), Some(t));
        }
        assert_eq!(GemmTier::parse("sse9"), None);
        // The detected tier must itself be available, and scalar always is.
        assert!(GemmTier::detect().is_available());
        assert!(GemmTier::Scalar.is_available());
    }

    #[test]
    fn forced_tiers_agree_on_one_product() {
        let (m, n, k) = (37, 29, 53);
        let a = dense(m, k, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.25 - 1.0);
        let b = dense(k, n, |i, j| ((i * 5 + j * 13) % 7) as f64 * 0.5 - 1.5);
        let mut scratch = GemmScratch::default();
        let mut results: Vec<(GemmTier, Vec<f64>)> = Vec::new();
        for tier in [GemmTier::Scalar, GemmTier::Avx2, GemmTier::Avx512] {
            if !tier.is_available() {
                continue;
            }
            set_gemm_tier(Some(tier));
            let mut c = vec![0.0; m * n];
            gemm_into_impl(
                1.0,
                MatRef::new(&a, m, k, 1, m),
                MatRef::new(&b, k, n, 1, k),
                0.0,
                &mut MatMut::new(&mut c, m, n, 1, m),
                &mut scratch,
                true,
            );
            results.push((tier, c));
        }
        set_gemm_tier(None);
        let (t0, base) = &results[0];
        for (t, c) in &results[1..] {
            for (i, (x, y)) in base.iter().zip(c).enumerate() {
                assert!(
                    (x - y).abs() < 1e-11,
                    "tier {t} differs from {t0} at {i}: {x} vs {y}"
                );
            }
        }
    }
}
