//! Runtime-dispatched SIMD kernel tier.
//!
//! Every hot f32 kernel in the crate — the three GEMM orientations in
//! [`crate::ops`], the Q8/f16 decoders in [`crate::quant`], the
//! refine-loop elementwise ops, and the planar-stencil gather/adjoint
//! behind depthwise convolution and SSIM ([`crate::conv::Stencil`]) — has
//! two implementations: the scalar Rust
//! loop (the *reference*, always compiled, the only one on non-x86
//! targets) and an AVX2 variant behind `#[target_feature(enable =
//! "avx2")]`. This module picks between them **once per process** and
//! exposes `try_*` entry points the scalar call sites consult first:
//! `true` means the active tier handled the slice, `false` means the
//! caller must run its scalar loop.
//!
//! # Tier selection
//!
//! The tier is probed on first use and cached for the process lifetime:
//!
//! | `USB_KERNEL` | resolved tier |
//! |--------------|---------------|
//! | unset / `auto` | `avx2` if `is_x86_feature_detected!("avx2")`, else `scalar` |
//! | `scalar`     | `scalar` (reference path, any machine) |
//! | `avx2`       | `avx2`, **panics** if the CPU lacks AVX2 |
//!
//! Any other value panics — a silently ignored typo would invalidate an
//! A/B measurement.
//!
//! # Bit-exactness contract
//!
//! The AVX2 kernels are *transcriptions*, not re-derivations, of the
//! scalar loops: each output element performs the identical floating-point
//! operation sequence (same ops, same operand order, ascending-`k`
//! accumulation, **no FMA contraction, no reassociation**), with lanes
//! laid across independent output elements only — for the stencils, the
//! same pixel of 8 different planes. Reductions whose scalar
//! form is a single serial chain (softmax row sums, max folds) stay
//! scalar. IEEE-754 arithmetic is deterministic per operation, so both
//! tiers produce bit-identical results — enforced by the unit tests here
//! and by running `kernel_reference` / `refine_alloc` / the determinism
//! suite under both `USB_KERNEL=scalar` and the default tier in CI.
#![allow(unsafe_code)]

use crate::conv::Stencil;
use crate::Workspace;
use std::sync::OnceLock;

/// The kernel implementation a process routes its hot loops through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Portable scalar Rust loops — the reference implementation.
    Scalar,
    /// AVX2 256-bit lanes across independent output elements.
    Avx2,
}

impl Tier {
    /// Stable lowercase name, recorded in the BENCH json `kernel` field.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
        }
    }
}

static TIER: OnceLock<Tier> = OnceLock::new();

/// The active kernel tier, probed once per process (see module docs).
///
/// # Panics
///
/// Panics if `USB_KERNEL` holds an unknown value, or forces `avx2` on a
/// CPU without AVX2.
pub fn tier() -> Tier {
    *TIER.get_or_init(|| {
        let request = std::env::var("USB_KERNEL");
        resolve(request.as_deref().unwrap_or("auto"), avx2_supported())
    })
}

/// [`Tier::name`] of the active tier — the BENCH json `kernel` field.
pub fn tier_name() -> &'static str {
    tier().name()
}

/// Maps a `USB_KERNEL` request onto a tier given the probed CPU support.
fn resolve(request: &str, avx2: bool) -> Tier {
    match request {
        "" | "auto" => {
            if avx2 {
                Tier::Avx2
            } else {
                Tier::Scalar
            }
        }
        "scalar" => Tier::Scalar,
        "avx2" => {
            assert!(
                avx2,
                "USB_KERNEL=avx2 requested but this CPU does not support AVX2"
            );
            Tier::Avx2
        }
        other => panic!("USB_KERNEL: expected scalar|avx2|auto, got {other:?}"),
    }
}

/// Whether the running CPU supports AVX2 (always `false` off x86-64).
fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline]
fn avx2_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        tier() == Tier::Avx2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Scalar Adam hyper-parameters handed to [`try_adam_step`] as one bundle.
///
/// `bc1`/`bc2` are the bias corrections `1 − βᵢᵗ`, computed scalar by the
/// caller exactly as the reference loop does.
#[derive(Clone, Copy, Debug)]
pub struct AdamParams {
    /// First-moment decay β₁.
    pub b1: f32,
    /// Second-moment decay β₂.
    pub b2: f32,
    /// First-moment bias correction `1 − β₁ᵗ`.
    pub bc1: f32,
    /// Second-moment bias correction `1 − β₂ᵗ`.
    pub bc2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator fuzz ε.
    pub eps: f32,
    /// Decoupled weight decay added into the gradient.
    pub decay: f32,
}

// ---------------------------------------------------------------------
// try_* dispatch entry points. Each returns `true` when the active tier
// handled the work (bit-identically to the caller's scalar loop) and
// `false` when the caller must run its scalar reference loop.
// ---------------------------------------------------------------------

/// GEMM driver for the shared strided-`a` orientation (`matmul_into` /
/// `matmul_transa_into`). Geometry is the caller's: `a[abase + r*ars +
/// kk*aks]`, `b` row-major `[k, n]`, `out` row-major `[m, n]`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn try_gemm_strided_a(
    a: &[f32],
    ars: usize,
    aks: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::gemm_strided_a(a, ars, aks, b, m, k, n, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (a, ars, aks, b, m, k, n, out);
    false
}

/// GEMM driver for `a @ bᵀ` (`matmul_transb_into`): `a` is `[m, k]`,
/// `b` is `[n, k]`, both k-contiguous, `out` is `[m, n]`.
#[inline]
pub fn try_gemm_transb(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::gemm_transb(a, b, m, k, n, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (a, b, m, k, n, out);
    false
}

/// Decodes a little-endian f16 byte stream (`2 · out.len()` bytes) into
/// `out`, bit-identical to [`crate::quant::f16_decode`] per element.
#[inline]
pub fn try_f16_decode(bytes: &[u8], out: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::f16_decode_slice(bytes, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (bytes, out);
    false
}

/// Decodes Q8 blocks (`4`-byte scale + [`crate::quant::Q8_BLOCK`] signed
/// bytes per block) into `out`, bit-identical to the scalar decoder.
#[inline]
pub fn try_q8_decode(bytes: &[u8], out: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::q8_decode_blocks(bytes, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (bytes, out);
    false
}

/// `y[i] += s * x[i]` over paired slices (panics on length mismatch).
#[inline]
pub fn try_axpy(y: &mut [f32], s: f32, x: &[f32]) -> bool {
    assert_eq!(y.len(), x.len(), "try_axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::axpy(y, s, x) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (y, s, x);
    false
}

/// `y[i] += x[i]` over paired slices (panics on length mismatch).
#[inline]
pub fn try_add_assign(y: &mut [f32], x: &[f32]) -> bool {
    assert_eq!(y.len(), x.len(), "try_add_assign: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::add_assign(y, x) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (y, x);
    false
}

/// `y[i] -= x[i]` over paired slices (panics on length mismatch).
#[inline]
pub fn try_sub_assign(y: &mut [f32], x: &[f32]) -> bool {
    assert_eq!(y.len(), x.len(), "try_sub_assign: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::sub_assign(y, x) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (y, x);
    false
}

/// `y[i] *= s` in place.
#[inline]
pub fn try_scale(y: &mut [f32], s: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::scale(y, s) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (y, s);
    false
}

/// `y[i] /= z` in place — the per-lane normalisation pass of softmax /
/// cross-entropy (the preceding row-sum reduction stays scalar).
#[inline]
pub fn try_div(y: &mut [f32], z: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::div_assign(y, z) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (y, z);
    false
}

/// One trigger-blend plane: `out[j] = batch[j]*(1 − m[j]) + p[j]*m[j]`
/// (`TriggerVar::apply`). All four slices must share one length.
#[inline]
pub fn try_trigger_blend(out: &mut [f32], batch: &[f32], m: &[f32], p: &[f32]) -> bool {
    assert!(
        batch.len() == out.len() && m.len() == out.len() && p.len() == out.len(),
        "try_trigger_blend: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::trigger_blend(out, batch, m, p) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (out, batch, m, p);
    false
}

/// One trigger-backward plane (`TriggerVar::backward`): where
/// `g[j] != 0.0`, accumulates `d_pattern[j] += g[j]*m[j]` and
/// `d_mask[j] += g[j]*(p[j] − x[j])`; where `g[j] == 0.0` both
/// accumulators keep their exact old bits (the scalar loop `continue`s,
/// so even a `-0.0` accumulator must not be rewritten).
#[inline]
pub fn try_trigger_backward(
    g: &[f32],
    x: &[f32],
    m: &[f32],
    p: &[f32],
    d_pattern: &mut [f32],
    d_mask: &mut [f32],
) -> bool {
    assert!(
        x.len() == g.len()
            && m.len() == g.len()
            && p.len() == g.len()
            && d_pattern.len() == g.len()
            && d_mask.len() == g.len(),
        "try_trigger_backward: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::trigger_backward(g, x, m, p, d_pattern, d_mask) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (g, x, m, p, d_pattern, d_mask);
    false
}

/// One Adam update over paired param / grad / moment slices, identical
/// per element to the reference loop in `usb_nn::optim::TensorAdam`.
#[inline]
pub fn try_adam_step(
    pd: &mut [f32],
    gd: &[f32],
    md: &mut [f32],
    vd: &mut [f32],
    params: &AdamParams,
) -> bool {
    assert!(
        gd.len() == pd.len() && md.len() == pd.len() && vd.len() == pd.len(),
        "try_adam_step: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection.
        unsafe { avx2::adam_step(pd, gd, md, vd, params) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (pd, gd, md, vd, params);
    false
}

/// Scratch `f32`s the AVX2 stencil kernels check out of the workspace: the
/// lane-interleaved input, output and kernel of the 8-plane groups the
/// adjoint runs in lockstep (the gather uses the first), plus bias lanes.
#[cfg(target_arch = "x86_64")]
fn stencil_scratch_len(st: &Stencil) -> usize {
    8 * avx2::ADJOINT_GROUPS * (st.h * st.w + st.out_h() * st.out_w() + st.kh * st.kw) + 8
}

/// Planar-stencil gather ([`crate::conv::stencil_gather_ws`], whose scalar
/// reference the caller runs on `false`). Lanes run across planes: each
/// group of 8 planes is interleaved pixel-major into a workspace buffer,
/// so one vector load fetches the same pixel of 8 planes, each lane
/// multiplying by its own plane's kernel tap. Every lane shares the
/// output's tap range, so borders and strides cost no extra work per lane.
///
/// The AVX2 loads are unchecked: callers must have validated every slice
/// length against `st` (as `stencil_gather_ws` does).
#[inline]
pub(crate) fn try_stencil_gather(
    x: &[f32],
    st: Stencil,
    ker: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    ws: &mut Workspace,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        let mut scratch = ws.take_dirty(stencil_scratch_len(&st));
        // SAFETY: `avx2_active` is true only after runtime AVX2 detection;
        // the caller validated the slice lengths and the scratch is sized
        // by `stencil_scratch_len`, which bounds every unchecked access.
        unsafe { avx2::stencil_gather(x, st, ker, bias, out, &mut scratch) };
        ws.put(scratch);
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (x, st, ker, bias, out, ws);
    false
}

/// Planar-stencil adjoint ([`crate::conv::stencil_adjoint_ws`]), lanes
/// across planes like [`try_stencil_gather`]. The scalar `g == 0.0` skip
/// becomes a `_CMP_NEQ_UQ` blend mask: lanes whose gradient is `±0.0`
/// keep their accumulator bits, NaN gradients accumulate. Same length
/// contract as [`try_stencil_gather`].
#[inline]
pub(crate) fn try_stencil_adjoint(
    g: &[f32],
    st: Stencil,
    ker: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        let mut scratch = ws.take_dirty(stencil_scratch_len(&st));
        // SAFETY: as in `try_stencil_gather`.
        unsafe { avx2::stencil_adjoint(g, st, ker, out, &mut scratch) };
        ws.put(scratch);
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (g, st, ker, out, ws);
    false
}

/// The AVX2 transcriptions of the scalar reference loops.
///
/// Lane layout is always "8 independent output elements" (for the
/// stencils: one pixel of 8 planes, interleaved into scratch); every lane
/// executes the scalar op sequence for its element verbatim (mul then
/// add — `vmulps`/`vaddps`, never `vfmadd`), so results are bit-identical
/// to the scalar tier. `unsafe` here is confined to (a) the raw-pointer
/// `loadu`/`storeu` helpers, each guarded by a `debug_assert!` and called
/// only with in-bounds geometry, and (b) the `try_*` call boundary above,
/// justified by runtime feature detection.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(clippy::too_many_arguments)]

    use crate::conv::Stencil;
    use crate::ops::{MR, NR};
    use crate::quant::Q8_BLOCK;
    use core::arch::x86_64::*;

    /// Unaligned 8-lane load of `s[at..at + 8]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load8(s: &[f32], at: usize) -> __m256 {
        debug_assert!(at + 8 <= s.len());
        // SAFETY: callers pass `at + 8 <= s.len()` (debug-asserted).
        unsafe { _mm256_loadu_ps(s.as_ptr().add(at)) }
    }

    /// Unaligned 8-lane store into `s[at..at + 8]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store8(s: &mut [f32], at: usize, v: __m256) {
        debug_assert!(at + 8 <= s.len());
        // SAFETY: callers pass `at + 8 <= s.len()` (debug-asserted).
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(at), v) }
    }

    /// Loads 8 consecutive bytes of `s` into the low half of a 128-bit reg.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_bytes8(s: &[u8], at: usize) -> __m128i {
        debug_assert!(at + 8 <= s.len());
        // SAFETY: callers pass `at + 8 <= s.len()` (debug-asserted).
        unsafe { _mm_loadl_epi64(s.as_ptr().add(at) as *const __m128i) }
    }

    /// Loads 16 consecutive bytes of `s` (8 little-endian u16 lanes).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_bytes16(s: &[u8], at: usize) -> __m128i {
        debug_assert!(at + 16 <= s.len());
        // SAFETY: callers pass `at + 16 <= s.len()` (debug-asserted).
        unsafe { _mm_loadu_si128(s.as_ptr().add(at) as *const __m128i) }
    }

    /// AVX2 width of one full GEMM tile: two 8-lane column vectors per
    /// row, so four rows fill 8 of the 16 ymm registers with accumulators.
    const NR_AVX: usize = 16;

    /// AVX2 twin of `ops::gemm_strided_a` — same geometry contract.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_strided_a(
        a: &[f32],
        ars: usize,
        aks: usize,
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let mut i = 0;
        while i < m {
            let rows = (m - i).min(MR);
            let abase = i * ars;
            let obase = i * n;
            let mut j = 0;
            if rows == MR {
                while j + NR_AVX <= n {
                    tile_full(a, abase, ars, aks, b, j, k, n, out, obase);
                    j += NR_AVX;
                }
            }
            // Ragged right/bottom edges reuse the scalar edge tile: per
            // output element it is the same ascending-k chain either way.
            while j < n {
                let jw = (n - j).min(NR);
                crate::ops::gemm_tile_edge(a, abase, ars, aks, b, j, jw, k, n, out, obase, rows);
                j += NR;
            }
            i += MR;
        }
    }

    /// Full `MR × NR_AVX` register tile: per `k` step, two `b` vector
    /// loads and `MR` scalar broadcasts feed 8 mul+add pairs. Each lane
    /// is one output element's ascending-`k` chain — no FMA, no
    /// cross-lane math — so the tile is a transcription of
    /// `ops::gemm_tile_full` at twice the width.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tile_full(
        a: &[f32],
        abase: usize,
        ars: usize,
        aks: usize,
        b: &[f32],
        j0: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
        obase: usize,
    ) {
        let mut lo = [_mm256_setzero_ps(); MR];
        let mut hi = [_mm256_setzero_ps(); MR];
        for kk in 0..k {
            let b0 = kk * n + j0;
            let blo = load8(b, b0);
            let bhi = load8(b, b0 + 8);
            let a0 = abase + kk * aks;
            for r in 0..MR {
                let av = _mm256_set1_ps(a[a0 + r * ars]);
                lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, blo));
                hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, bhi));
            }
        }
        for r in 0..MR {
            let o0 = obase + r * n + j0;
            store8(out, o0, lo[r]);
            store8(out, o0 + 8, hi[r]);
        }
    }

    /// AVX2 twin of the `matmul_transb_into` kernel: both operands
    /// k-contiguous, columns vectorized 8 wide via strided gathers.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_transb(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        const MRT: usize = 4;
        let mut i = 0;
        while i < m {
            let rows = (m - i).min(MRT);
            let mut j = 0;
            if rows == MRT {
                while j + 8 <= n {
                    let mut acc = [_mm256_setzero_ps(); MRT];
                    for kk in 0..k {
                        // One column-strided gather of b[(j..j+8) * k + kk];
                        // set_ps takes lanes high-to-low.
                        let bv = _mm256_set_ps(
                            b[(j + 7) * k + kk],
                            b[(j + 6) * k + kk],
                            b[(j + 5) * k + kk],
                            b[(j + 4) * k + kk],
                            b[(j + 3) * k + kk],
                            b[(j + 2) * k + kk],
                            b[(j + 1) * k + kk],
                            b[j * k + kk],
                        );
                        for r in 0..MRT {
                            let av = _mm256_set1_ps(a[(i + r) * k + kk]);
                            acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, bv));
                        }
                    }
                    for (r, &accr) in acc.iter().enumerate() {
                        store8(out, (i + r) * n + j, accr);
                    }
                    j += 8;
                }
            }
            // Ragged edge: independent ascending-k dot products, the same
            // per-element op sequence every tile shape produces.
            for r in 0..rows {
                for c in j..n {
                    let mut s = 0.0f32;
                    for kk in 0..k {
                        s += a[(i + r) * k + kk] * b[c * k + kk];
                    }
                    out[(i + r) * n + c] = s;
                }
            }
            i += MRT;
        }
    }

    /// AVX2 twin of the scalar Q8 block decoder: sign-extend 8 quants,
    /// exact int→float convert, one multiply by the block scale.
    #[target_feature(enable = "avx2")]
    pub(super) fn q8_decode_blocks(bytes: &[u8], out: &mut [f32]) {
        for (ob, block) in out
            .chunks_mut(Q8_BLOCK)
            .zip(bytes.chunks_exact(4 + Q8_BLOCK))
        {
            let scale = f32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            if ob.len() == Q8_BLOCK {
                let sv = _mm256_set1_ps(scale);
                let mut off = 0;
                while off < Q8_BLOCK {
                    let q = load_bytes8(block, 4 + off);
                    // Exact: |q| ≤ 127 converts without rounding, so the
                    // only rounding step is the scale multiply — same as
                    // the scalar `(q as i8) as f32 * scale`.
                    let f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q));
                    store8(ob, off, _mm256_mul_ps(f, sv));
                    off += 8;
                }
            } else {
                // Final partial logical block (padding bytes are ignored).
                for (o, &q) in ob.iter_mut().zip(&block[4..]) {
                    *o = (q as i8) as f32 * scale;
                }
            }
        }
    }

    /// AVX2 twin of `quant::f16_decode` over a little-endian byte stream.
    ///
    /// Branchless integer decode instead of F16C's `vcvtph2ps`, which
    /// quiets signalling NaNs and would diverge from the scalar decoder's
    /// payload-preserving semantics. Per lane: normals rebias the
    /// exponent, subnormals convert the mantissa exactly (`m · 2⁻²⁴`,
    /// both factors exact in f32), Inf/NaN keep the shifted payload; the
    /// three cases are blended by exponent-field compares.
    #[target_feature(enable = "avx2")]
    pub(super) fn f16_decode_slice(bytes: &[u8], out: &mut [f32]) {
        debug_assert!(bytes.len() >= 2 * out.len());
        let full = out.len() / 8 * 8;
        let mut i = 0;
        while i < full {
            let h = _mm256_cvtepu16_epi32(load_bytes16(bytes, 2 * i));
            let sign = _mm256_slli_epi32(_mm256_and_si256(h, _mm256_set1_epi32(0x8000)), 16);
            let exp = _mm256_and_si256(_mm256_srli_epi32(h, 10), _mm256_set1_epi32(0x1F));
            let mant = _mm256_and_si256(h, _mm256_set1_epi32(0x03FF));
            let m13 = _mm256_slli_epi32(mant, 13);
            // Normal: sign | ((e + 112) << 23) | (m << 13).
            let normal = _mm256_or_si256(
                _mm256_slli_epi32(_mm256_add_epi32(exp, _mm256_set1_epi32(112)), 23),
                m13,
            );
            // Inf/NaN (e = 31): max exponent, payload in the top bits.
            let infnan = _mm256_or_si256(_mm256_set1_epi32(0x7F80_0000), m13);
            // Subnormal/zero (e = 0): m · 2⁻²⁴ exactly, sign OR-ed on —
            // m = 0 yields +0.0 bits, so ±0 falls out of the same lane.
            let mag = _mm256_mul_ps(_mm256_cvtepi32_ps(mant), _mm256_set1_ps(1.0 / 16_777_216.0));
            let sub = _mm256_castps_si256(mag);
            let is_e0 = _mm256_cmpeq_epi32(exp, _mm256_setzero_si256());
            let is_e31 = _mm256_cmpeq_epi32(exp, _mm256_set1_epi32(0x1F));
            let mut bits = _mm256_blendv_epi8(normal, infnan, is_e31);
            bits = _mm256_blendv_epi8(bits, sub, is_e0);
            bits = _mm256_or_si256(sign, bits);
            store8(out, i, _mm256_castsi256_ps(bits));
            i += 8;
        }
        for (o, h) in out[full..]
            .iter_mut()
            .zip(bytes[2 * full..].chunks_exact(2))
        {
            *o = crate::quant::f16_decode(u16::from_le_bytes([h[0], h[1]]));
        }
    }

    /// `y[i] += s * x[i]`.
    #[target_feature(enable = "avx2")]
    pub(super) fn axpy(y: &mut [f32], s: f32, x: &[f32]) {
        let full = y.len() / 8 * 8;
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i < full {
            store8(
                y,
                i,
                _mm256_add_ps(load8(y, i), _mm256_mul_ps(sv, load8(x, i))),
            );
            i += 8;
        }
        for (a, &b) in y[full..].iter_mut().zip(&x[full..]) {
            *a += s * b;
        }
    }

    /// `y[i] += x[i]`.
    #[target_feature(enable = "avx2")]
    pub(super) fn add_assign(y: &mut [f32], x: &[f32]) {
        let full = y.len() / 8 * 8;
        let mut i = 0;
        while i < full {
            store8(y, i, _mm256_add_ps(load8(y, i), load8(x, i)));
            i += 8;
        }
        for (a, &b) in y[full..].iter_mut().zip(&x[full..]) {
            *a += b;
        }
    }

    /// `y[i] -= x[i]`.
    #[target_feature(enable = "avx2")]
    pub(super) fn sub_assign(y: &mut [f32], x: &[f32]) {
        let full = y.len() / 8 * 8;
        let mut i = 0;
        while i < full {
            store8(y, i, _mm256_sub_ps(load8(y, i), load8(x, i)));
            i += 8;
        }
        for (a, &b) in y[full..].iter_mut().zip(&x[full..]) {
            *a -= b;
        }
    }

    /// `y[i] *= s`.
    #[target_feature(enable = "avx2")]
    pub(super) fn scale(y: &mut [f32], s: f32) {
        let full = y.len() / 8 * 8;
        let sv = _mm256_set1_ps(s);
        let mut i = 0;
        while i < full {
            store8(y, i, _mm256_mul_ps(load8(y, i), sv));
            i += 8;
        }
        for a in &mut y[full..] {
            *a *= s;
        }
    }

    /// `y[i] /= z`.
    #[target_feature(enable = "avx2")]
    pub(super) fn div_assign(y: &mut [f32], z: f32) {
        let full = y.len() / 8 * 8;
        let zv = _mm256_set1_ps(z);
        let mut i = 0;
        while i < full {
            store8(y, i, _mm256_div_ps(load8(y, i), zv));
            i += 8;
        }
        for a in &mut y[full..] {
            *a /= z;
        }
    }

    /// `out[j] = batch[j]*(1 − m[j]) + p[j]*m[j]`.
    #[target_feature(enable = "avx2")]
    pub(super) fn trigger_blend(out: &mut [f32], batch: &[f32], m: &[f32], p: &[f32]) {
        let full = out.len() / 8 * 8;
        let one = _mm256_set1_ps(1.0);
        let mut j = 0;
        while j < full {
            let mv = load8(m, j);
            let blended = _mm256_add_ps(
                _mm256_mul_ps(load8(batch, j), _mm256_sub_ps(one, mv)),
                _mm256_mul_ps(load8(p, j), mv),
            );
            store8(out, j, blended);
            j += 8;
        }
        for j in full..out.len() {
            let mv = m[j];
            out[j] = batch[j] * (1.0 - mv) + p[j] * mv;
        }
    }

    /// Masked trigger-gradient accumulation (see `try_trigger_backward`).
    #[target_feature(enable = "avx2")]
    pub(super) fn trigger_backward(
        g: &[f32],
        x: &[f32],
        m: &[f32],
        p: &[f32],
        d_pattern: &mut [f32],
        d_mask: &mut [f32],
    ) {
        let full = g.len() / 8 * 8;
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j < full {
            let gv = load8(g, j);
            // Accumulate exactly where the scalar guard `g == 0.0` fails:
            // NEQ_UQ is true for non-zeros *and* NaN (NaN == 0.0 is false),
            // false for ±0. Skipped lanes keep their old accumulator bits
            // via blend, so a -0.0 accumulator is never rewritten to +0.0.
            let go = _mm256_cmp_ps::<_CMP_NEQ_UQ>(gv, zero);
            let dp_old = load8(d_pattern, j);
            let dm_old = load8(d_mask, j);
            let dp_new = _mm256_add_ps(dp_old, _mm256_mul_ps(gv, load8(m, j)));
            let dm_new = _mm256_add_ps(
                dm_old,
                _mm256_mul_ps(gv, _mm256_sub_ps(load8(p, j), load8(x, j))),
            );
            store8(d_pattern, j, _mm256_blendv_ps(dp_old, dp_new, go));
            store8(d_mask, j, _mm256_blendv_ps(dm_old, dm_new, go));
            j += 8;
        }
        for j in full..g.len() {
            let gs = g[j];
            if gs == 0.0 {
                continue;
            }
            d_pattern[j] += gs * m[j];
            d_mask[j] += gs * (p[j] - x[j]);
        }
    }

    /// One Adam update; per lane the op-for-op scalar sequence, with
    /// `_mm256_sqrt_ps` (IEEE correctly rounded, like `f32::sqrt`).
    #[target_feature(enable = "avx2")]
    pub(super) fn adam_step(
        pd: &mut [f32],
        gd: &[f32],
        md: &mut [f32],
        vd: &mut [f32],
        params: &super::AdamParams,
    ) {
        let full = pd.len() / 8 * 8;
        let b1 = _mm256_set1_ps(params.b1);
        let b2 = _mm256_set1_ps(params.b2);
        let ob1 = _mm256_set1_ps(1.0 - params.b1);
        let ob2 = _mm256_set1_ps(1.0 - params.b2);
        let bc1 = _mm256_set1_ps(params.bc1);
        let bc2 = _mm256_set1_ps(params.bc2);
        let lr = _mm256_set1_ps(params.lr);
        let eps = _mm256_set1_ps(params.eps);
        let decay = _mm256_set1_ps(params.decay);
        let mut i = 0;
        while i < full {
            let pv = load8(pd, i);
            let g = _mm256_add_ps(load8(gd, i), _mm256_mul_ps(decay, pv));
            let mv = _mm256_add_ps(_mm256_mul_ps(b1, load8(md, i)), _mm256_mul_ps(ob1, g));
            // (1 − β₂) * g * g associates left in the scalar loop.
            let vv = _mm256_add_ps(
                _mm256_mul_ps(b2, load8(vd, i)),
                _mm256_mul_ps(_mm256_mul_ps(ob2, g), g),
            );
            store8(md, i, mv);
            store8(vd, i, vv);
            let mhat = _mm256_div_ps(mv, bc1);
            let vhat = _mm256_div_ps(vv, bc2);
            let upd = _mm256_div_ps(
                _mm256_mul_ps(lr, mhat),
                _mm256_add_ps(_mm256_sqrt_ps(vhat), eps),
            );
            store8(pd, i, _mm256_sub_ps(pv, upd));
            i += 8;
        }
        for i in full..pd.len() {
            let g = gd[i] + params.decay * pd[i];
            md[i] = params.b1 * md[i] + (1.0 - params.b1) * g;
            vd[i] = params.b2 * vd[i] + (1.0 - params.b2) * g * g;
            let mhat = md[i] / params.bc1;
            let vhat = vd[i] / params.bc2;
            pd[i] -= params.lr * mhat / (vhat.sqrt() + params.eps);
        }
    }

    /// In-register 8×8 transpose: lane `j` of output row `i` is lane `i`
    /// of input row `j`. Pure bit moves, so NaN payloads pass unchanged.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// Interleaves planes `p0..p0 + lanes` of `src` (`len` floats each)
    /// pixel-major into `dst`: element `(j, l)` lands at `dst[j*8 + l]`.
    /// Lanes past `lanes` (a ragged last group) are zero-filled.
    #[target_feature(enable = "avx2")]
    fn interleave(src: &[f32], len: usize, p0: usize, lanes: usize, dst: &mut [f32]) {
        let mut j = 0;
        if lanes == 8 {
            while j + 8 <= len {
                let mut rows = [_mm256_setzero_ps(); 8];
                for (l, r) in rows.iter_mut().enumerate() {
                    *r = load8(src, (p0 + l) * len + j);
                }
                for (i, v) in transpose8(rows).into_iter().enumerate() {
                    store8(dst, (j + i) * 8, v);
                }
                j += 8;
            }
        }
        for j in j..len {
            for l in 0..8 {
                dst[j * 8 + l] = if l < lanes {
                    src[(p0 + l) * len + j]
                } else {
                    0.0
                };
            }
        }
    }

    /// Inverse of [`interleave`] for the first `lanes` lanes.
    #[target_feature(enable = "avx2")]
    fn deinterleave(src: &[f32], len: usize, p0: usize, lanes: usize, dst: &mut [f32]) {
        let mut j = 0;
        if lanes == 8 {
            while j + 8 <= len {
                let mut rows = [_mm256_setzero_ps(); 8];
                for (i, r) in rows.iter_mut().enumerate() {
                    *r = load8(src, (j + i) * 8);
                }
                for (l, v) in transpose8(rows).into_iter().enumerate() {
                    store8(dst, (p0 + l) * len + j, v);
                }
                j += 8;
            }
        }
        for j in j..len {
            for l in 0..lanes {
                dst[(p0 + l) * len + j] = src[j * 8 + l];
            }
        }
    }

    /// Interleaves the kernel taps (and bias) of planes `p0..p0 + 8`:
    /// plane `p` uses kernel `p % nk`; missing lanes get zeros.
    fn interleave_kernels(
        ker: &[f32],
        kk: usize,
        bias: Option<&[f32]>,
        p0: usize,
        lanes: usize,
        ks: &mut [f32],
        bs: &mut [f32],
    ) {
        let nk = ker.len() / kk;
        for l in 0..8 {
            let kid = (p0 + l) % nk;
            for t in 0..kk {
                ks[t * 8 + l] = if l < lanes { ker[kid * kk + t] } else { 0.0 };
            }
            bs[l] = match bias {
                Some(b) if l < lanes => b[kid],
                _ => 0.0,
            };
        }
    }

    /// Splits the stencil scratch into its interleaved input, output,
    /// kernel and bias regions (the sizes `stencil_scratch_len` budgets).
    fn split_scratch(
        scratch: &mut [f32],
        in_len: usize,
        out_len: usize,
        kk: usize,
    ) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
        let (a, rest) = scratch.split_at_mut(in_len * 8);
        let (b, rest) = rest.split_at_mut(out_len * 8);
        let (k, rest) = rest.split_at_mut(kk * 8);
        (a, b, k, &mut rest[..8])
    }

    /// AVX2 twin of `conv::stencil_gather_scalar`, 8 planes per group.
    #[target_feature(enable = "avx2")]
    pub(super) fn stencil_gather(
        x: &[f32],
        st: Stencil,
        ker: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        let (hw, ohw, kk) = (st.h * st.w, st.out_h() * st.out_w(), st.kh * st.kw);
        let planes = out.len() / ohw;
        let shared = ker.len() == kk;
        let (xs, os, ks, bs) = split_scratch(scratch, hw, ohw, kk);
        if shared {
            interleave_kernels(ker, kk, bias, 0, 8, ks, bs);
        }
        for p0 in (0..planes).step_by(8) {
            let lanes = (planes - p0).min(8);
            if !shared {
                interleave_kernels(ker, kk, bias, p0, lanes, ks, bs);
            }
            interleave(x, hw, p0, lanes, xs);
            gather_group(xs, st, ks, load8(bs, 0), os);
            deinterleave(os, ohw, p0, lanes, out);
        }
    }

    /// Gather over one interleaved group. Outputs whose window lies fully
    /// inside the plane horizontally run four (or two) at a time, each in
    /// its own accumulator, to hide the add latency of the serial tap chain.
    #[target_feature(enable = "avx2")]
    fn gather_group(xs: &[f32], st: Stencil, ks: &[f32], bias: __m256, os: &mut [f32]) {
        let (s, pad, kw) = (st.spec.stride, st.spec.pad, st.kw);
        let ow = st.out_w();
        // Outputs ox_lo..ox_hi use every kernel column.
        let ox_lo = pad.div_ceil(s).min(ow);
        let ox_hi = (st.w + pad)
            .checked_sub(kw)
            .map_or(0, |room| room / s + 1)
            .min(ow)
            .max(ox_lo);
        for oy in 0..st.out_h() {
            let (ky0, ky1) = st.taps_y(oy);
            let mut ox = 0;
            while ox < ow {
                if ox >= ox_lo && ox + 4 <= ox_hi {
                    gather_run::<4>(xs, st, ks, bias, os, oy, (ky0, ky1), ox, (0, kw));
                    ox += 4;
                } else if ox >= ox_lo && ox + 2 <= ox_hi {
                    gather_run::<2>(xs, st, ks, bias, os, oy, (ky0, ky1), ox, (0, kw));
                    ox += 2;
                } else {
                    gather_run::<1>(xs, st, ks, bias, os, oy, (ky0, ky1), ox, st.taps_x(ox));
                    ox += 1;
                }
            }
        }
    }

    /// `N` adjacent outputs of row `oy` sharing tap ranges `ky`, `kx`:
    /// per lane `acc = bias`, then `acc + x·k` in ascending `(ky, kx)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn gather_run<const N: usize>(
        xs: &[f32],
        st: Stencil,
        ks: &[f32],
        bias: __m256,
        os: &mut [f32],
        oy: usize,
        (ky0, ky1): (usize, usize),
        ox: usize,
        (kx0, kx1): (usize, usize),
    ) {
        let (s, pad, w, kw) = (st.spec.stride, st.spec.pad, st.w, st.kw);
        let mut acc = [bias; N];
        for ky in ky0..ky1 {
            let row = (oy * s + ky - pad) * w + ox * s;
            for kx in kx0..kx1 {
                let kv = load8(ks, (ky * kw + kx) * 8);
                for (j, a) in acc.iter_mut().enumerate() {
                    let xv = load8(xs, (row + j * s + kx - pad) * 8);
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, kv));
                }
            }
        }
        let ow = st.out_w();
        for (j, a) in acc.into_iter().enumerate() {
            store8(os, (oy * ow + ox + j) * 8, a);
        }
    }

    /// 8-plane groups the adjoint runs in lockstep, one accumulator each.
    pub(super) const ADJOINT_GROUPS: usize = 4;

    /// AVX2 twin of `conv::stencil_adjoint_scalar`: batches of up to
    /// [`ADJOINT_GROUPS`] 8-plane groups, each interleaved into its own
    /// slice of the scratch (the slices are the gather's regions, scaled).
    #[target_feature(enable = "avx2")]
    pub(super) fn stencil_adjoint(
        g: &[f32],
        st: Stencil,
        ker: &[f32],
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        let (hw, ohw, kk) = (st.h * st.w, st.out_h() * st.out_w(), st.kh * st.kw);
        let planes = g.len() / ohw;
        let shared = ker.len() == kk;
        let (is, gs, ks, bs) = split_scratch(
            scratch,
            ADJOINT_GROUPS * hw,
            ADJOINT_GROUPS * ohw,
            ADJOINT_GROUPS * kk,
        );
        if shared {
            for ksg in ks.chunks_exact_mut(kk * 8) {
                interleave_kernels(ker, kk, None, 0, 8, ksg, bs);
            }
        }
        let mut p0 = 0;
        while p0 < planes {
            let groups = (planes - p0).div_ceil(8).min(ADJOINT_GROUPS);
            for j in 0..groups {
                let q0 = p0 + 8 * j;
                let lanes = (planes - q0).min(8);
                if !shared {
                    interleave_kernels(
                        ker,
                        kk,
                        None,
                        q0,
                        lanes,
                        &mut ks[j * kk * 8..(j + 1) * kk * 8],
                        bs,
                    );
                }
                interleave(g, ohw, q0, lanes, &mut gs[j * ohw * 8..(j + 1) * ohw * 8]);
            }
            match groups {
                1 => adjoint_groups::<1>(gs, st, ks, is),
                2 => adjoint_groups::<2>(gs, st, ks, is),
                3 => adjoint_groups::<3>(gs, st, ks, is),
                _ => adjoint_groups::<4>(gs, st, ks, is),
            }
            for j in 0..groups {
                let q0 = p0 + 8 * j;
                deinterleave(
                    &is[j * hw * 8..(j + 1) * hw * 8],
                    hw,
                    q0,
                    (planes - q0).min(8),
                    out,
                );
            }
            p0 += 8 * groups;
        }
    }

    /// Adjoint over `G` interleaved groups, input pixel by input pixel:
    /// `acc = 0`, then for every covering output in ascending `(oy, ox)`
    /// `acc + g·k`, kept only in lanes where `g != 0` (NEQ_UQ: true for
    /// NaN, false for ±0 — exactly the scalar `if`).
    ///
    /// The groups share every index and branch, so their `G` serial
    /// chains overlap. Lanes across groups rather than adjacent pixels:
    /// a pixel's covering outputs are clipped differently from its
    /// neighbours' wherever the window is wide relative to the output
    /// (SSIM's 11×11 window over 10×10 outputs clips every pixel, giving
    /// chains of up to 100 add + blend steps), but never differently from
    /// the same pixel of another plane.
    #[target_feature(enable = "avx2")]
    fn adjoint_groups<const G: usize>(gs: &[f32], st: Stencil, ks: &[f32], is: &mut [f32]) {
        let (s, pad, w, kw, ow) = (st.spec.stride, st.spec.pad, st.w, st.kw, st.out_w());
        let (gstride, kstride, istride) = (st.out_h() * ow * 8, st.kh * kw * 8, st.h * w * 8);
        let zero = _mm256_setzero_ps();
        for iy in 0..st.h {
            let (oy0, oy1) = st.sources_y(iy);
            for ix in 0..w {
                let (ox0, ox1) = st.sources_x(ix);
                let mut acc = [zero; G];
                for oy in oy0..oy1 {
                    let krow = (iy + pad - oy * s) * kw + ix + pad;
                    for ox in ox0..ox1 {
                        let (gat, kat) = ((oy * ow + ox) * 8, (krow - ox * s) * 8);
                        for (j, a) in acc.iter_mut().enumerate() {
                            let gv = load8(gs, j * gstride + gat);
                            let kv = load8(ks, j * kstride + kat);
                            let sum = _mm256_add_ps(*a, _mm256_mul_ps(gv, kv));
                            *a = _mm256_blendv_ps(*a, sum, _mm256_cmp_ps::<_CMP_NEQ_UQ>(gv, zero));
                        }
                    }
                }
                for (j, a) in acc.into_iter().enumerate() {
                    store8(is, j * istride + (iy * w + ix) * 8, a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_honours_requests_and_detection() {
        assert_eq!(resolve("auto", true), Tier::Avx2);
        assert_eq!(resolve("", true), Tier::Avx2);
        assert_eq!(resolve("auto", false), Tier::Scalar);
        assert_eq!(resolve("scalar", true), Tier::Scalar);
        assert_eq!(resolve("scalar", false), Tier::Scalar);
        assert_eq!(resolve("avx2", true), Tier::Avx2);
    }

    #[test]
    #[should_panic(expected = "does not support AVX2")]
    fn resolve_rejects_forced_avx2_without_support() {
        let _ = resolve("avx2", false);
    }

    #[test]
    #[should_panic(expected = "expected scalar|avx2|auto")]
    fn resolve_rejects_unknown_values() {
        let _ = resolve("sse9", true);
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Avx2.name(), "avx2");
    }

    /// Deterministic value soup including the awkward cases: ±0,
    /// subnormals, huge/tiny magnitudes, and exact zeros for the
    /// trigger-backward guard.
    fn soup(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let x = ((i as u32).wrapping_mul(2654435761).wrapping_add(salt)) as f32;
                match i % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => (x / 4.0e9 - 0.5) * 2.0,
                    3 => f32::from_bits((i as u32 % 0x7F_FFFF) | 1), // subnormal
                    4 => (x / 4.0e9) * 1.0e30,
                    5 => -(x / 4.0e9) * 1.0e-30,
                    _ => (x / 4.0e9 - 0.5) * 8.0,
                }
            })
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    mod avx2_vs_scalar {
        use super::super::*;
        use super::soup;

        fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
            assert_eq!(a.len(), b.len(), "{what}: length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: lane {i}: {x:?} vs {y:?}");
            }
        }

        fn have_avx2() -> bool {
            std::arch::is_x86_feature_detected!("avx2")
        }

        #[test]
        fn axpy_matches_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            for n in [0, 1, 7, 8, 9, 64, 130] {
                let x = soup(n, 3);
                let mut y_simd = soup(n, 17);
                let mut y_ref = y_simd.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::axpy(&mut y_simd, -0.37, &x) };
                for (a, &b) in y_ref.iter_mut().zip(&x) {
                    *a += -0.37 * b;
                }
                assert_bits_eq(&y_simd, &y_ref, "axpy");
            }
        }

        #[test]
        fn elementwise_kernels_match_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            for n in [1, 8, 23, 129] {
                let x = soup(n, 5);
                let mut add_s = soup(n, 11);
                let mut add_r = add_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::add_assign(&mut add_s, &x) };
                for (a, &b) in add_r.iter_mut().zip(&x) {
                    *a += b;
                }
                assert_bits_eq(&add_s, &add_r, "add_assign");

                let mut sub_s = soup(n, 13);
                let mut sub_r = sub_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::sub_assign(&mut sub_s, &x) };
                for (a, &b) in sub_r.iter_mut().zip(&x) {
                    *a -= b;
                }
                assert_bits_eq(&sub_s, &sub_r, "sub_assign");

                let mut sc_s = soup(n, 19);
                let mut sc_r = sc_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::scale(&mut sc_s, 1.0 / 3.0) };
                for a in &mut sc_r {
                    *a *= 1.0 / 3.0;
                }
                assert_bits_eq(&sc_s, &sc_r, "scale");

                let mut dv_s = soup(n, 23);
                let mut dv_r = dv_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::div_assign(&mut dv_s, 0.7) };
                for a in &mut dv_r {
                    *a /= 0.7;
                }
                assert_bits_eq(&dv_s, &dv_r, "div_assign");
            }
        }

        #[test]
        fn trigger_blend_and_backward_match_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            for n in [1, 8, 50, 131] {
                let batch = soup(n, 29);
                let m: Vec<f32> = soup(n, 31).iter().map(|v| v.abs().min(1.0)).collect();
                let p = soup(n, 37);
                let mut out_s = vec![f32::NAN; n];
                let mut out_r = vec![f32::NAN; n];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::trigger_blend(&mut out_s, &batch, &m, &p) };
                for j in 0..n {
                    out_r[j] = batch[j] * (1.0 - m[j]) + p[j] * m[j];
                }
                assert_bits_eq(&out_s, &out_r, "trigger_blend");

                // g holds exact ±0 lanes so the skip path is exercised,
                // and the accumulators start at -0.0 so a sloppy
                // "accumulate 0" would flip their sign bit.
                let g = soup(n, 41);
                let x = soup(n, 43);
                let mut dp_s = vec![-0.0f32; n];
                let mut dm_s = vec![-0.0f32; n];
                let mut dp_r = dp_s.clone();
                let mut dm_r = dm_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::trigger_backward(&g, &x, &m, &p, &mut dp_s, &mut dm_s) };
                for j in 0..n {
                    let gs = g[j];
                    if gs == 0.0 {
                        continue;
                    }
                    dp_r[j] += gs * m[j];
                    dm_r[j] += gs * (p[j] - x[j]);
                }
                assert_bits_eq(&dp_s, &dp_r, "trigger_backward d_pattern");
                assert_bits_eq(&dm_s, &dm_r, "trigger_backward d_mask");
            }
        }

        #[test]
        fn adam_step_matches_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            let params = AdamParams {
                b1: 0.5,
                b2: 0.9,
                bc1: 1.0 - 0.5f32.powi(3),
                bc2: 1.0 - 0.9f32.powi(3),
                lr: 0.05,
                eps: 1e-8,
                decay: 0.01,
            };
            for n in [1, 8, 33, 200] {
                let gd = soup(n, 47);
                let mut pd_s = soup(n, 53);
                let mut md_s = soup(n, 59);
                let mut vd_s: Vec<f32> = soup(n, 61).iter().map(|v| v.abs()).collect();
                let mut pd_r = pd_s.clone();
                let mut md_r = md_s.clone();
                let mut vd_r = vd_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::adam_step(&mut pd_s, &gd, &mut md_s, &mut vd_s, &params) };
                for i in 0..n {
                    let g = gd[i] + params.decay * pd_r[i];
                    md_r[i] = params.b1 * md_r[i] + (1.0 - params.b1) * g;
                    vd_r[i] = params.b2 * vd_r[i] + (1.0 - params.b2) * g * g;
                    let mhat = md_r[i] / params.bc1;
                    let vhat = vd_r[i] / params.bc2;
                    pd_r[i] -= params.lr * mhat / (vhat.sqrt() + params.eps);
                }
                assert_bits_eq(&pd_s, &pd_r, "adam params");
                assert_bits_eq(&md_s, &md_r, "adam m");
                assert_bits_eq(&vd_s, &vd_r, "adam v");
            }
        }

        #[test]
        fn gemm_kernels_match_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            // Shapes straddling both the 16-wide AVX2 tile and the 8-wide
            // scalar edge tile, plus degenerate edges.
            for &(m, k, n) in &[
                (4, 16, 16),
                (3, 5, 7),
                (5, 65, 130),
                (17, 100, 129),
                (1, 200, 3),
                (9, 7, 33),
                (8, 1, 16),
            ] {
                let a = soup(m * k, 67);
                let b = soup(k * n, 71);
                let mut out_s = vec![f32::NAN; m * n];
                let mut out_r = vec![f32::NAN; m * n];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::gemm_strided_a(&a, k, 1, &b, m, k, n, &mut out_s) };
                for i in 0..m {
                    for j in 0..n {
                        let mut s = 0.0f32;
                        for kk in 0..k {
                            s += a[i * k + kk] * b[kk * n + j];
                        }
                        out_r[i * n + j] = s;
                    }
                }
                assert_bits_eq(&out_s, &out_r, "gemm_strided_a");

                let bt = soup(n * k, 73);
                let mut t_s = vec![f32::NAN; m * n];
                let mut t_r = vec![f32::NAN; m * n];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::gemm_transb(&a, &bt, m, k, n, &mut t_s) };
                for i in 0..m {
                    for j in 0..n {
                        let mut s = 0.0f32;
                        for kk in 0..k {
                            s += a[i * k + kk] * bt[j * k + kk];
                        }
                        t_r[i * n + j] = s;
                    }
                }
                assert_bits_eq(&t_s, &t_r, "gemm_transb");
            }
        }

        #[test]
        fn stencil_kernels_match_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            use crate::conv::{stencil_adjoint_scalar, stencil_gather_scalar, ConvSpec};
            // (planes, h, w, k, stride, pad, kernels): ragged 8-plane
            // groups, 1–4 groups in lockstep and more than one batch of
            // them, per-plane and shared kernels, borders, strides 1–3
            // (3 takes the general division path), SSIM's valid 11×11.
            for &(planes, h, w, k, stride, pad, nk) in &[
                (1, 1, 1, 1, 1, 0, 1),
                (3, 5, 7, 3, 1, 1, 3),
                (8, 20, 20, 3, 2, 1, 8),
                (13, 9, 6, 5, 2, 2, 13),
                (17, 12, 12, 11, 1, 0, 1),
                (10, 10, 10, 5, 1, 2, 5),
                (9, 7, 11, 3, 3, 0, 3),
                (24, 4, 9, 1, 2, 0, 6),
                (32, 12, 12, 11, 1, 0, 1),
                (45, 6, 7, 3, 2, 1, 45),
            ] {
                let st = Stencil::new(h, w, k, k, ConvSpec::new(stride, pad));
                let (oh, ow) = (st.out_h(), st.out_w());
                let mut scratch = vec![f32::NAN; stencil_scratch_len(&st)];
                let x = soup(planes * h * w, 83);
                // One infinite tap: `0·∞` is NaN, so the adjoint's
                // skip of `±0` gradients (soup lanes 0 and 1) shows.
                let mut ker = soup(nk * k * k, 89);
                ker[k * k / 2] = f32::INFINITY;
                let bias = soup(nk, 97);
                for b in [None, Some(&bias[..])] {
                    let mut out_s = vec![f32::NAN; planes * oh * ow];
                    let mut out_r = vec![f32::NAN; planes * oh * ow];
                    // SAFETY: guarded by have_avx2().
                    unsafe { avx2::stencil_gather(&x, st, &ker, b, &mut out_s, &mut scratch) };
                    stencil_gather_scalar(&x, st, &ker, b, &mut out_r);
                    assert_bits_eq(&out_s, &out_r, "stencil_gather");
                }
                // One NaN-payload gradient: NaN != 0, so it accumulates.
                let mut g = soup(planes * oh * ow, 101);
                let mid = g.len() / 2;
                g[mid] = f32::from_bits(0x7FC0_0ABC);
                let mut out_s = vec![f32::NAN; planes * h * w];
                let mut out_r = vec![f32::NAN; planes * h * w];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::stencil_adjoint(&g, st, &ker, &mut out_s, &mut scratch) };
                stencil_adjoint_scalar(&g, st, &ker, &mut out_r);
                assert_bits_eq(&out_s, &out_r, "stencil_adjoint");
            }
        }

        #[test]
        fn decoders_match_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            // f16: every half-bit pattern in 8 chunks would be slow here
            // (the exhaustive sweep lives in quant.rs); cover the class
            // representatives plus misaligned tails.
            let halves: Vec<u16> = (0..4099u32)
                .map(|i| (i.wrapping_mul(16385) % 65536) as u16)
                .chain([
                    0x0000, 0x8000, 0x7C00, 0xFC00, 0x7C01, 0xFE00, 0x0001, 0x83FF,
                ])
                .collect();
            let bytes: Vec<u8> = halves.iter().flat_map(|h| h.to_le_bytes()).collect();
            let mut out_s = vec![0.0f32; halves.len()];
            // SAFETY: guarded by have_avx2().
            unsafe { avx2::f16_decode_slice(&bytes, &mut out_s) };
            for (o, &h) in out_s.iter().zip(&halves) {
                let r = crate::quant::f16_decode(h);
                assert_eq!(o.to_bits(), r.to_bits(), "f16 0x{h:04x}: {o:?} vs {r:?}");
            }

            for n in [1, 31, 32, 33, 64, 257] {
                let data = soup(n, 79);
                let q = crate::quant::QTensor::quantize(
                    &crate::Tensor::from_vec(data, &[n]),
                    crate::quant::Dtype::Q8,
                );
                let mut simd = vec![f32::NAN; n];
                let mut reference = vec![f32::NAN; n];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::q8_decode_blocks(q.bytes(), &mut simd) };
                for (ob, block) in reference
                    .chunks_mut(crate::quant::Q8_BLOCK)
                    .zip(q.bytes().chunks_exact(4 + crate::quant::Q8_BLOCK))
                {
                    let scale = f32::from_le_bytes([block[0], block[1], block[2], block[3]]);
                    for (o, &qv) in ob.iter_mut().zip(&block[4..]) {
                        *o = (qv as i8) as f32 * scale;
                    }
                }
                assert_bits_eq(&simd, &reference, "q8_decode");
            }
        }
    }
}
