//! Runtime-dispatched SIMD kernel tier: one home per hot loop.
//!
//! Every hot f32 kernel in the crate — the GEMM tiles behind both
//! [`crate::ops`] orientations, the [`transpose`] that moves a network's
//! batch across lanes at its boundary and lays out the weight gradients'
//! right operands, the Q8/f16 decoders behind [`crate::quant::QTensor`],
//! the refine-loop elementwise ops, the trigger blend and its backward,
//! Adam, the one stencil pair behind depthwise convolution and SSIM's blurs
//! ([`depthwise_gather`], [`depthwise_adjoint`] over a
//! [`crate::conv::Stencil`]), [`exp`]/[`exp_in_place`] behind
//! [`softmax_row`], [`sigmoid_silu`], SiLU's and Sigmoid's one-pass
//! forward, and [`silu_grad`] — is one
//! public function here with two implementations side by side: the
//! scalar loop in `kernels/scalar.rs` (the *reference*, always compiled,
//! the only one on non-x86 targets) and its AVX2 twin of the same name in
//! `kernels/avx2.rs`, behind `#[target_feature(enable = "avx2")]`. The
//! public function checks the slice lengths and runs the twin of the tier
//! this module picks **once per process**; callers just call it.
//!
//! A plain map is written once: its AVX2 twin is the scalar body,
//! `#[inline(always)]` into a one-line AVX2 function that LLVM
//! vectorises. These are the decoders ([`f16_decode`], [`q8_decode`]),
//! [`axpy`], [`add_assign`], [`scale`], [`div`],
//! [`trigger_blend`], [`trigger_backward`], [`adam_step`] and
//! [`silu_grad`]; in release they run about as fast as the intrinsics
//! loops they replaced. The rest keep a hand-written twin, because the
//! compiler cannot derive it from the scalar loop: the GEMM tiles and
//! [`transpose`] (register blocking, masked edges, in-register 8×8
//! blocks), the reads of `exp`'s table and the depthwise pair (several
//! pixels in registers at once, each tap's weights broadcast or read per
//! lane; a one-body version ran `effnet-table7` 10% slower).
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
//! The same probe picks how the AVX2 tier reads `exp`'s table
//! ([`exp_read`]): on a CPU with AVX-512F the kernels over `exp` run
//! AVX-512F code, not AVX2, with no setting of their own (see `exp`
//! below). The tier names stay `scalar|avx2`; BENCH json records the read
//! in its `exp_read` field.
//!
//! # Bit-exactness contract
//!
//! The AVX2 kernels are *transcriptions*, not re-derivations, of the
//! scalar loops: each output element performs the identical floating-point
//! operation sequence (same ops, same operand order, ascending-`k`
//! accumulation, **no FMA contraction, no reassociation**), with lanes
//! laid across independent output elements only — for the depthwise
//! pair, the same pixel of 8 images (or of 8 planes, or of one image's 8
//! channels). A one-body twin gets
//! this from the compiler: Rust never contracts a multiply and an add,
//! and LLVM reorders no float operation without fast-math flags, so the
//! vectorised map runs each element's scalar sequence. Reductions whose scalar
//! form is a single serial chain (softmax row sums, max folds) stay
//! scalar. IEEE-754 arithmetic is deterministic per operation, so both
//! tiers produce bit-identical results — enforced by the `avx2_vs_scalar`
//! unit tests here, which run each twin against its scalar reference, and
//! by running `kernel_reference` / `refine_alloc` / the determinism suite
//! under both `USB_KERNEL=scalar` and the default tier in CI.
//!
//! # `exp`
//!
//! [`exp`] is the crate's own `e^x` for f32, so no hot exponential reaches
//! the host's libm. It ports glibc's `expf`: a 32-entry `2^(i/32)` table,
//! a degree-3 polynomial evaluated in f64 with no FMA, one rounding to
//! f32, and glibc's special cases. Its bits are therefore the same on
//! every IEEE-754 host and tier, and equal glibc's non-FMA `expf`; glibc's
//! FMA variant rounds two f32 inputs differently (`32.564632` and
//! `-63.09946`). The AVX2 tier runs the same f64 op sequence over 8 lanes
//! per step, with one of two reads of the same table:
//!
//! | [`ExpRead`] | CPU | 8 f32 lanes as | table read |
//! |-------------|-----|----------------|------------|
//! | `gather` | AVX2 | two halves of 4 f64 lanes | `vpgatherqq` from memory |
//! | `permute` | AVX-512F | 8 f64 lanes | two `vpermt2pd` and a blend over 4 zmm registers |
//!
//! Both are transcriptions of [`exp`], so the choice moves no bit; the
//! exhaustive sweeps in this module's tests run every read the host can
//! run. On a 2-core Emerald Rapids host, `exp_in_place` over 153,600
//! floats took 0.67–0.89 ns per element with the permute read against
//! 1.02–1.61 with the gather, in two runs. An AVX2 permute read
//! (`vpermps` and blends) measured slower than the gather there, since
//! its shuffles all queue on one port. [`exp_in_place`]
//! (behind [`softmax_row`] and the data splat) and [`sigmoid_silu`] go
//! through the chosen read; the SSIM window calls the scalar [`exp`].
#![allow(unsafe_code)]

use crate::conv::Stencil;
use crate::quant::Dtype;
use crate::Workspace;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod scalar;

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

/// How the active tier reads `exp`'s `2^(i/32)` table (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExpRead {
    /// The scalar tier: one indexed load per element.
    Scalar,
    /// The AVX2 tier without AVX-512F: `vpgatherqq` on 4 f64 lanes.
    Gather,
    /// The AVX2 tier on an AVX-512F CPU: two `vpermt2pd` and a blend over
    /// the table held in 4 zmm registers, on 8 f64 lanes.
    Permute,
}

impl ExpRead {
    /// Stable lowercase name, recorded in the BENCH json `exp_read` field.
    pub fn name(self) -> &'static str {
        match self {
            ExpRead::Scalar => "scalar",
            ExpRead::Gather => "gather",
            ExpRead::Permute => "permute",
        }
    }
}

static PROBE: OnceLock<(Tier, ExpRead)> = OnceLock::new();

/// The tier and its `exp` table read, probed together once per process.
fn probe() -> (Tier, ExpRead) {
    *PROBE.get_or_init(|| {
        let request = std::env::var("USB_KERNEL");
        let tier = resolve(request.as_deref().unwrap_or("auto"), avx2_supported());
        (tier, exp_read_for(tier, avx512f_supported()))
    })
}

/// The active kernel tier, probed once per process (see module docs).
///
/// # Panics
///
/// Panics if `USB_KERNEL` holds an unknown value, or forces `avx2` on a
/// CPU without AVX2.
pub fn tier() -> Tier {
    probe().0
}

/// [`Tier::name`] of the active tier — the BENCH json `kernel` field.
pub fn tier_name() -> &'static str {
    tier().name()
}

/// The active tier's `exp` table read, probed with the tier.
pub fn exp_read() -> ExpRead {
    probe().1
}

/// The table read a tier uses given the probed AVX-512F support.
fn exp_read_for(tier: Tier, avx512f: bool) -> ExpRead {
    match tier {
        Tier::Scalar => ExpRead::Scalar,
        Tier::Avx2 if avx512f => ExpRead::Permute,
        Tier::Avx2 => ExpRead::Gather,
    }
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

/// Whether the running CPU supports AVX-512F (always `false` off x86-64).
fn avx512f_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_active() -> bool {
    tier() == Tier::Avx2
}

/// Runs `avx2::$f` when the AVX2 tier is active, else `scalar::$f`.
/// Expands inside a dispatch function, after its length checks.
macro_rules! dispatch {
    ($f:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: `avx2_active` is true only after runtime AVX2
            // detection, and the enclosing dispatch function has checked
            // every slice length the twin's unchecked accesses rely on.
            return unsafe { avx2::$f($($arg),*) };
        }
        scalar::$f($($arg),*)
    }};
}

/// [`dispatch!`] for a kernel over `exp`: runs `avx2::$permute` when the
/// probe chose the permute read, else `avx2::$f` or `scalar::$f` by tier.
macro_rules! dispatch_exp {
    ($f:ident | $permute:ident($($arg:expr),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        match exp_read() {
            // SAFETY: the permute read is chosen only on the AVX2 tier
            // after runtime AVX-512F detection, and the enclosing dispatch
            // function has checked every slice length.
            ExpRead::Permute => return unsafe { avx2::$permute($($arg),*) },
            // SAFETY: as in `dispatch!`.
            ExpRead::Gather => return unsafe { avx2::$f($($arg),*) },
            ExpRead::Scalar => {}
        }
        scalar::$f($($arg),*)
    }};
}

/// Scalar Adam hyper-parameters handed to [`adam_step`] as one bundle.
///
/// `bc1`/`bc2` are the bias corrections `1 − βᵢᵗ`, computed scalar by the
/// caller.
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
}

/// Register-blocked GEMM over a strided left operand, the driver behind
/// [`crate::ops::matmul_into`] (`ars = k, aks = 1`) and
/// [`crate::ops::matmul_transa_into`] (`ars = 1, aks = m`): `out[r, c] =
/// Σ a[r·ars + kk·aks] · b[kk·n + c]`, `b` row-major `[k, n]`, `out`
/// row-major `[m, n]`. Every output element accumulates in ascending `kk`
/// (bit-identical to the naive triple loop) and is written exactly once,
/// so dirty scratch buffers are fine.
///
/// # Panics
///
/// Panics if `b` or `out` disagree with the dimensions, or `a` is too
/// short for its strides.
#[allow(clippy::too_many_arguments)] // flat scalar geometry, hot path
#[inline]
pub fn gemm_strided_a(
    a: &[f32],
    ars: usize,
    aks: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(b.len(), k * n, "gemm_strided_a: rhs length mismatch");
    assert_eq!(out.len(), m * n, "gemm_strided_a: out length mismatch");
    dispatch!(gemm_strided_a(a, ars, aks, b, m, k, n, out))
}

/// `out` (`[cols, rows]`) = the transpose of `src` (`[rows, cols]`), both
/// row-major; `out` is fully overwritten. A pure permutation: every bit
/// pattern, NaN payloads included, arrives unchanged.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
#[inline]
pub fn transpose(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose: src length mismatch");
    assert_eq!(out.len(), rows * cols, "transpose: out length mismatch");
    dispatch!(transpose(src, rows, cols, out))
}

/// Decodes a little-endian f16 byte stream into `out`, bit-identical to
/// [`crate::quant::f16_decode`] per element (NaN payloads included).
///
/// # Panics
///
/// Panics unless `bytes` holds exactly `out.len()` halves.
#[inline]
pub fn f16_decode(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(
        bytes.len(),
        Dtype::F16.encoded_len(out.len()),
        "f16_decode: length mismatch"
    );
    dispatch!(f16_decode(bytes, out))
}

/// Decodes Q8 blocks (`4`-byte scale + [`crate::quant::Q8_BLOCK`] signed
/// bytes per block) into `out`: `q · scale` per element.
///
/// # Panics
///
/// Panics unless `bytes` holds exactly the blocks `out.len()` elements
/// encode to.
#[inline]
pub fn q8_decode(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(
        bytes.len(),
        Dtype::Q8.encoded_len(out.len()),
        "q8_decode: length mismatch"
    );
    dispatch!(q8_decode(bytes, out))
}

/// `y[i] += s * x[i]` over paired slices.
///
/// # Panics
///
/// Panics on length mismatch.
#[inline]
pub fn axpy(y: &mut [f32], s: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    dispatch!(axpy(y, s, x))
}

/// `y[i] += x[i]` over paired slices.
///
/// # Panics
///
/// Panics on length mismatch.
#[inline]
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign: length mismatch");
    dispatch!(add_assign(y, x))
}

/// `y[i] *= s` in place.
#[inline]
pub fn scale(y: &mut [f32], s: f32) {
    dispatch!(scale(y, s))
}

/// `y[i] /= z` in place — the per-lane normalisation pass of softmax /
/// cross-entropy.
#[inline]
pub fn div(y: &mut [f32], z: f32) {
    dispatch!(div(y, z))
}

/// `e^x` for one value: the scalar reference of [`exp_in_place`] (see
/// the module docs for its contract).
#[inline]
pub fn exp(x: f32) -> f32 {
    scalar::exp(x)
}

/// `y[i] = exp(y[i])` in place, bit-identical to [`exp`] per element on
/// every tier.
#[inline]
pub fn exp_in_place(y: &mut [f32]) {
    dispatch_exp!(exp_in_place | exp_in_place_permute(y))
}

/// The logistic sigmoid `σ(x) = 1/(1+e^{−x})` into `sigma` and SiLU's
/// `σ(x)·x` into `silu`, each only if given, in one pass over `x`: per
/// element, `e = exp(−|x|)`, then `1/(1+e)` where `x ≥ 0` and `e/(1+e)`
/// elsewhere. A NaN input enters `exp` as it is (`−|x|` would flip its
/// sign bit), so it comes out quietened with its sign and payload.
///
/// # Panics
///
/// Panics unless each given output is as long as `x`.
#[inline]
pub fn sigmoid_silu(x: &[f32], sigma: Option<&mut [f32]>, silu: Option<&mut [f32]>) {
    for out in [&sigma, &silu].into_iter().flatten() {
        assert_eq!(out.len(), x.len(), "sigmoid_silu: length mismatch");
    }
    dispatch_exp!(sigmoid_silu | sigmoid_silu_permute(x, sigma, silu))
}

/// Numerically stable softmax of one logits `row` into `out`: subtract the
/// row max, [`exp_in_place`], sum serially, then [`div`] by the sum. The
/// max fold and the sum are single serial chains, so they stay scalar on
/// every tier.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn softmax_row(row: &[f32], out: &mut [f32]) {
    assert_eq!(row.len(), out.len(), "softmax_row: length mismatch");
    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (o, &v) in out.iter_mut().zip(row) {
        *o = v - m;
    }
    exp_in_place(out);
    let z = out.iter().fold(0.0, |z, &e| z + e);
    div(out, z);
}

/// One trigger-blend plane: `out[j] = batch[j]*(1 − m[j]) + p[j]*m[j]`.
///
/// # Panics
///
/// Panics unless all four slices share one length.
#[inline]
pub fn trigger_blend(out: &mut [f32], batch: &[f32], m: &[f32], p: &[f32]) {
    assert!(
        batch.len() == out.len() && m.len() == out.len() && p.len() == out.len(),
        "trigger_blend: length mismatch"
    );
    dispatch!(trigger_blend(out, batch, m, p))
}

/// One trigger-backward plane: where `g[j] != 0.0` (NaN included),
/// accumulates `d_pattern[j] += g[j]*m[j]` and
/// `d_mask[j] += g[j]*(p[j] − x[j])`; where `g[j] == 0.0` both
/// accumulators keep their exact old bits, so even a `-0.0` accumulator
/// is not rewritten.
///
/// # Panics
///
/// Panics unless all six slices share one length.
#[inline]
pub fn trigger_backward(
    g: &[f32],
    x: &[f32],
    m: &[f32],
    p: &[f32],
    d_pattern: &mut [f32],
    d_mask: &mut [f32],
) {
    assert!(
        x.len() == g.len()
            && m.len() == g.len()
            && p.len() == g.len()
            && d_pattern.len() == g.len()
            && d_mask.len() == g.len(),
        "trigger_backward: length mismatch"
    );
    dispatch!(trigger_backward(g, x, m, p, d_pattern, d_mask))
}

/// One Adam update over paired param / grad / moment slices:
/// `m = β₁m + (1 − β₁)g`, `v = β₂v + (1 − β₂)g·g`,
/// `θ −= lr·(m / bc1) / (√(v / bc2) + ε)`.
///
/// # Panics
///
/// Panics unless all four slices share one length.
#[inline]
pub fn adam_step(pd: &mut [f32], gd: &[f32], md: &mut [f32], vd: &mut [f32], params: &AdamParams) {
    assert!(
        gd.len() == pd.len() && md.len() == pd.len() && vd.len() == pd.len(),
        "adam_step: length mismatch"
    );
    dispatch!(adam_step(pd, gd, md, vd, params))
}

/// Depthwise gather over batch-last planes `[C, H, W, N]`: channel `ch`
/// of `x` cross-correlated with kernel `ch` of `ker` (`C` kernels of
/// `KH·KW` taps) plus `bias[ch]`, into `out` (`[C, OH, OW, N]`, fully
/// overwritten). Per output, `acc = bias`, then `acc += x·k` over the
/// in-bounds taps in ascending `(ky, kx)`. This is the one stencil
/// kernel: depthwise convolution calls it
/// ([`crate::conv::depthwise_forward_lanes_ws`]), and so do SSIM's blurs,
/// with one shared window (`C = 1`) and the image planes as lanes.
///
/// The AVX2 twin broadcasts each tap's weight over a pixel's `N` lanes
/// and holds up to four 8-lane blocks of it in registers across the taps,
/// masking the ragged last block. For one image (`N = 1`) of several
/// channels it transposes the image, the kernels and the output through
/// buffers from `ws`, so the channels fill the lanes and each reads its
/// own kernel; the scalar tier runs its loop at `N = 1` and copies
/// nothing.
///
/// # Panics
///
/// Panics if `n` is zero, a slice length disagrees with the geometry, or
/// `bias` does not hold one value per kernel.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
#[inline]
pub fn depthwise_gather(
    x: &[f32],
    st: Stencil,
    n: usize,
    ker: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    let c = check_lanes(
        x,
        st.h * st.w,
        n,
        ker,
        st.kh * st.kw,
        out,
        st.out_h() * st.out_w(),
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), c, "depthwise: one bias per kernel");
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: as in `dispatch!`.
        return unsafe { avx2::depthwise_gather(x, st, n, ker, bias, out, ws) };
    }
    scalar::depthwise_gather(x, st, n, ker, bias, out)
}

/// Adjoint of [`depthwise_gather`] without the bias
/// ([`crate::conv::depthwise_input_backward_ws`], SSIM's gradient): per
/// input lane, `acc = 0.0`, then `acc += g·k` for every covering output
/// in ascending `(oy, ox)`, skipping `g == 0.0`. The AVX2 twin runs the
/// lanes of [`depthwise_gather`] and turns the skip into a `_CMP_NEQ_UQ`
/// mask: lanes whose gradient is `±0.0` keep their bits, NaN gradients
/// accumulate.
///
/// # Panics
///
/// Panics if `n` is zero or a slice length disagrees with the geometry.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
#[inline]
pub fn depthwise_adjoint(
    g: &[f32],
    st: Stencil,
    n: usize,
    ker: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) {
    check_lanes(
        g,
        st.out_h() * st.out_w(),
        n,
        ker,
        st.kh * st.kw,
        out,
        st.h * st.w,
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: as in `dispatch!`.
        return unsafe { avx2::depthwise_adjoint(g, st, n, ker, out, ws) };
    }
    scalar::depthwise_adjoint(g, st, n, ker, out)
}

/// Checks a batch-last depthwise call's slice lengths: `C` kernels of
/// `kk` taps, `src` `C` runs of `src_plane · n` floats, `out` `C` runs of
/// `out_plane · n`. Returns `C`.
fn check_lanes(
    src: &[f32],
    src_plane: usize,
    n: usize,
    ker: &[f32],
    kk: usize,
    out: &[f32],
    out_plane: usize,
) -> usize {
    assert!(n > 0, "depthwise: empty batch");
    assert!(
        !ker.is_empty() && ker.len().is_multiple_of(kk),
        "depthwise: kernel length {} is not a multiple of {kk}",
        ker.len()
    );
    let c = ker.len() / kk;
    assert_eq!(
        src.len(),
        c * src_plane * n,
        "depthwise: input length mismatch"
    );
    assert_eq!(
        out.len(),
        c * out_plane * n,
        "depthwise: output length mismatch"
    );
    c
}

/// SiLU's input gradient on the input `x` and sigmoid `s` its forward
/// recorded: `out[i] = g[i]·(s[i] + x[i]·s[i]·(1 − s[i]))`. One body
/// serves both tiers: the AVX2 twin is the scalar map compiled with AVX2.
///
/// # Panics
///
/// Panics unless all four slices share one length.
#[inline]
pub fn silu_grad(g: &[f32], x: &[f32], s: &[f32], out: &mut [f32]) {
    assert!(
        x.len() == g.len() && s.len() == g.len() && out.len() == g.len(),
        "silu_grad: length mismatch"
    );
    dispatch!(silu_grad(g, x, s, out))
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

    // The AVX2 twins' loads and stores are unchecked, so a short slice
    // must stop at the dispatch function on every tier.
    #[test]
    #[should_panic(expected = "gemm_strided_a: out length mismatch")]
    fn gemm_rejects_a_short_output() {
        gemm_strided_a(&[1.0; 32], 8, 1, &[1.0; 128], 4, 8, 16, &mut [0.0; 63]);
    }

    #[test]
    #[should_panic(expected = "f16_decode: length mismatch")]
    fn f16_decode_rejects_a_short_payload() {
        f16_decode(&[0; 30], &mut [0.0; 16]);
    }

    /// The inputs where the port may differ from the host's `f32::exp`:
    /// glibc's FMA `expf` variant rounds these two differently. Its
    /// non-FMA variant matches the port on all 2³² inputs.
    const EXP_LIBM_EXCEPTIONS: [f32; 2] = [32.564632, -63.09946];

    /// The SIMD table reads this CPU can run, whatever the active tier.
    fn simd_reads() -> Vec<ExpRead> {
        let mut reads = Vec::new();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            reads.push(ExpRead::Gather);
            if std::arch::is_x86_feature_detected!("avx512f") {
                reads.push(ExpRead::Permute);
            }
        }
        reads
    }

    /// Names the reads a sweep covered, so a test log shows whether the
    /// permute read ran on this host.
    fn report_reads(sweep: &str) {
        let names: Vec<_> = simd_reads().iter().map(|r| r.name()).collect();
        println!("{sweep}: scalar vs table reads [{}]", names.join(", "));
    }

    /// `read`'s twin of [`exp_in_place`], whatever the active tier.
    fn exp_in_place_by(read: ExpRead, y: &mut [f32]) {
        match read {
            // SAFETY: `simd_reads` lists a read only where the CPU runs it.
            #[cfg(target_arch = "x86_64")]
            ExpRead::Gather => unsafe { avx2::exp_in_place(y) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            ExpRead::Permute => unsafe { avx2::exp_in_place_permute(y) },
            _ => scalar::exp_in_place(y),
        }
    }

    /// `read`'s twin of [`sigmoid_silu`], whatever the active tier.
    fn sigmoid_silu_by(
        read: ExpRead,
        x: &[f32],
        sigma: Option<&mut [f32]>,
        silu: Option<&mut [f32]>,
    ) {
        match read {
            // SAFETY: `simd_reads` lists a read only where the CPU runs
            // it, and every caller passes outputs as long as `x`.
            #[cfg(target_arch = "x86_64")]
            ExpRead::Gather => unsafe { avx2::sigmoid_silu(x, sigma, silu) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            ExpRead::Permute => unsafe { avx2::sigmoid_silu_permute(x, sigma, silu) },
            _ => scalar::sigmoid_silu(x, sigma, silu),
        }
    }

    /// Runs `sweep(lo, hi)` over all 2³² bit patterns, split over a few
    /// threads, and returns what each part returned.
    fn sweep_all_bits<T: Send>(sweep: impl Fn(u64, u64) -> T + Sync) -> Vec<T> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let sweep = &sweep;
        std::thread::scope(|s| {
            let parts: Vec<_> = (0..threads)
                .map(|t| s.spawn(move || sweep(t * span, ((t + 1) * span).min(1 << 32))))
                .collect();
            parts
                .into_iter()
                .map(|p| p.join().expect("sweep thread"))
                .collect()
        })
    }

    /// Calls `check` on successive chunks of every `stride`-th bit pattern
    /// in `lo..hi`.
    fn for_bit_chunks(lo: u64, hi: u64, stride: u64, mut check: impl FnMut(&[f32])) {
        let mut buf = Vec::with_capacity(4096);
        let mut bits = lo;
        while bits < hi {
            buf.clear();
            while bits < hi && buf.len() < 4096 {
                buf.push(f32::from_bits(bits as u32));
                bits += stride;
            }
            check(&buf);
        }
    }

    /// Runs the port on every `stride`-th bit pattern in `lo..hi` and
    /// returns the inputs where it differs from `f32::exp`, checking on the
    /// way that every SIMD table read equals the scalar [`exp`] bitwise.
    fn exp_sweep(lo: u64, hi: u64, stride: u64) -> Vec<f32> {
        let reads = simd_reads();
        let mut off_libm = Vec::new();
        let mut lanes = Vec::with_capacity(4096);
        for_bit_chunks(lo, hi, stride, |buf| {
            let port: Vec<f32> = buf.iter().map(|&x| exp(x)).collect();
            for &read in &reads {
                lanes.clear();
                lanes.extend_from_slice(buf);
                exp_in_place_by(read, &mut lanes);
                for ((&x, &e), &p) in buf.iter().zip(&lanes).zip(&port) {
                    assert_eq!(e.to_bits(), p.to_bits(), "exp({x:e}): {read:?} vs scalar");
                }
            }
            for (&x, &p) in buf.iter().zip(&port) {
                if p.to_bits() != x.exp().to_bits() {
                    off_libm.push(x);
                }
            }
        });
        off_libm
    }

    fn assert_libm_exceptions(off_libm: &[f32]) {
        for x in off_libm {
            assert!(
                EXP_LIBM_EXCEPTIONS
                    .iter()
                    .any(|n| n.to_bits() == x.to_bits()),
                "exp({x:e}) = {:e} but libm gives {:e}",
                exp(*x),
                x.exp()
            );
        }
    }

    #[test]
    fn exp_special_cases_follow_glibc() {
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        let snan = f32::from_bits(0xff80_0abc);
        assert_eq!(
            exp(snan).to_bits(),
            0xffc0_0abc,
            "NaN keeps sign and payload, quietened"
        );
        assert_eq!(exp(88.72284), f32::INFINITY);
        assert!(exp(f32::from_bits(0x42b1_7217)).is_finite());
        assert_eq!(exp(-103.98).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(-103.9).to_bits(), 1, "the smallest subnormal");
    }

    /// Every 61st bit pattern, the special values and the named exceptions:
    /// the port differs from the host's libm on at most the named list.
    #[test]
    fn exp_matches_libm_except_named_inputs() {
        let mut off_libm = exp_sweep(0, 1 << 32, 61);
        for x in EXP_LIBM_EXCEPTIONS.into_iter().chain([
            0.0,
            -0.0,
            88.0,
            -88.0,
            88.72284,
            -103.97,
            f32::MIN_POSITIVE,
        ]) {
            if exp(x).to_bits() != x.exp().to_bits() {
                off_libm.push(x);
            }
        }
        assert_libm_exceptions(&off_libm);
    }

    /// All 2³² bit patterns, split over a few threads: every SIMD table
    /// read this CPU runs equals the scalar [`exp`] bitwise, and the port
    /// differs from the host's `f32::exp` on at most the named list.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive; run with --release")]
    fn exp_exhaustive_tiers_and_libm() {
        report_reads("exp_exhaustive_tiers_and_libm");
        let off_libm: Vec<f32> = sweep_all_bits(|lo, hi| exp_sweep(lo, hi, 1))
            .into_iter()
            .flatten()
            .collect();
        assert_libm_exceptions(&off_libm);
    }

    /// The multi-pass composition `SiLU` and `Sigmoid` ran before
    /// [`sigmoid_silu`]: write `−|x|` (a NaN as it is), [`exp`] the slice,
    /// select `1/(1+e)` where `x ≥ 0` and `e/(1+e)` elsewhere, then
    /// multiply by `x`. Returns `(σ, x·σ)`.
    fn sigmoid_silu_composition(x: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut sigma: Vec<f32> = x.iter().map(|&v| if v > 0.0 { -v } else { v }).collect();
        scalar::exp_in_place(&mut sigma);
        for (o, &v) in sigma.iter_mut().zip(x) {
            let e = *o;
            *o = if v >= 0.0 {
                1.0 / (1.0 + e)
            } else {
                e / (1.0 + e)
            };
        }
        let silu = sigma.iter().zip(x).map(|(&s, &v)| s * v).collect();
        (sigma, silu)
    }

    fn assert_same_bits(x: &[f32], got: &[f32], want: &[f32], what: &str) {
        for ((&v, &g), &w) in x.iter().zip(got).zip(want) {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}({v:e}): {g:e} vs {w:e}");
        }
    }

    /// Checks [`sigmoid_silu`]'s scalar reference and every SIMD table read
    /// against [`sigmoid_silu_composition`] on every `stride`-th bit
    /// pattern in `lo..hi`: both outputs together, σ alone (`Sigmoid`) and
    /// `x·σ` alone (`SiLU` without a tape). Returns the patterns checked.
    fn sigmoid_silu_sweep(lo: u64, hi: u64, stride: u64) -> u64 {
        let reads: Vec<_> = [ExpRead::Scalar].into_iter().chain(simd_reads()).collect();
        let (mut sigma, mut silu) = (vec![0.0; 4096], vec![0.0; 4096]);
        let mut checked = 0;
        for_bit_chunks(lo, hi, stride, |x| {
            checked += x.len() as u64;
            let (want_sigma, want_silu) = sigmoid_silu_composition(x);
            let (sigma, silu) = (&mut sigma[..x.len()], &mut silu[..x.len()]);
            for &read in &reads {
                sigma.fill(f32::NAN);
                silu.fill(f32::NAN);
                sigmoid_silu_by(read, x, Some(&mut *sigma), Some(&mut *silu));
                assert_same_bits(x, sigma, &want_sigma, &format!("{read:?} σ"));
                assert_same_bits(x, silu, &want_silu, &format!("{read:?} x·σ"));
                sigma.fill(f32::NAN);
                sigmoid_silu_by(read, x, Some(&mut *sigma), None);
                assert_same_bits(x, sigma, &want_sigma, &format!("{read:?} σ alone"));
                silu.fill(f32::NAN);
                sigmoid_silu_by(read, x, None, Some(&mut *silu));
                assert_same_bits(x, silu, &want_silu, &format!("{read:?} x·σ alone"));
            }
        });
        checked
    }

    /// Every 61st bit pattern: the sampled twin of
    /// [`sigmoid_silu_exhaustive_tiers_and_composition`] for debug builds.
    #[test]
    fn sigmoid_silu_matches_composition_sampled() {
        assert_eq!(sigmoid_silu_sweep(0, 1 << 32, 61), (1 << 32) / 61 + 1);
    }

    /// All 2³² bit patterns, `±0`, `±∞` and NaN sign and payload included:
    /// the scalar [`sigmoid_silu`] and every SIMD table read this CPU runs
    /// equal the multi-pass composition bitwise, for σ and `x·σ`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive; run with --release")]
    fn sigmoid_silu_exhaustive_tiers_and_composition() {
        report_reads("sigmoid_silu_exhaustive_tiers_and_composition");
        let checked: u64 = sweep_all_bits(|lo, hi| sigmoid_silu_sweep(lo, hi, 1))
            .into_iter()
            .sum();
        assert_eq!(checked, 1 << 32);
    }

    #[test]
    fn sigmoid_silu_passes_nan_through_and_keeps_signed_zero_cases() {
        let x = [
            f32::from_bits(0xff80_0abc),
            f32::NAN,
            -0.0,
            0.0,
            30.0,
            -30.0,
            -200.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let (want_sigma, want_silu) = sigmoid_silu_composition(&x);
        for read in [ExpRead::Scalar].into_iter().chain(simd_reads()) {
            let (mut sigma, mut silu) = ([0.0; 9], [0.0; 9]);
            sigmoid_silu_by(read, &x, Some(&mut sigma), Some(&mut silu));
            assert_same_bits(&x, &sigma, &want_sigma, &format!("{read:?} σ"));
            assert_same_bits(&x, &silu, &want_silu, &format!("{read:?} x·σ"));
            assert_eq!(
                sigma[0].to_bits(),
                0xffc0_0abc,
                "NaN keeps sign and payload"
            );
            assert_eq!(silu[0].to_bits(), 0xffc0_0abc, "NaN keeps sign and payload");
            assert_eq!((sigma[2], sigma[3]), (0.5, 0.5));
            assert_eq!(
                (silu[2].to_bits(), silu[3].to_bits()),
                ((-0.0f32).to_bits(), 0)
            );
            assert_eq!((sigma[6], sigma[7], sigma[8]), (0.0, 1.0, 0.0));
            assert_eq!(silu[7], f32::INFINITY);
            assert!(silu[8].is_nan(), "−∞ · 0 is NaN");
        }
    }

    #[test]
    #[should_panic(expected = "sigmoid_silu: length mismatch")]
    fn sigmoid_silu_rejects_a_short_output() {
        sigmoid_silu(&[1.0; 9], None, Some(&mut [0.0; 8]));
    }

    #[test]
    fn exp_read_follows_tier_and_avx512f() {
        assert_eq!(exp_read_for(Tier::Scalar, true), ExpRead::Scalar);
        assert_eq!(exp_read_for(Tier::Scalar, false), ExpRead::Scalar);
        assert_eq!(exp_read_for(Tier::Avx2, false), ExpRead::Gather);
        assert_eq!(exp_read_for(Tier::Avx2, true), ExpRead::Permute);
        assert_eq!(
            [ExpRead::Scalar, ExpRead::Gather, ExpRead::Permute].map(ExpRead::name),
            ["scalar", "gather", "permute"]
        );
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

        /// The AVX2 twin `simd` against the scalar twin `twin` that runs
        /// under `USB_KERNEL=scalar`, and against an independent oracle.
        fn assert_twins(simd: &[f32], twin: &[f32], oracle: &[f32], what: &str) {
            assert_bits_eq(simd, twin, &format!("{what} vs scalar twin"));
            assert_bits_eq(simd, oracle, what);
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
                let mut y_twin = y_simd.clone();
                let mut y_ref = y_simd.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::axpy(&mut y_simd, -0.37, &x) };
                scalar::axpy(&mut y_twin, -0.37, &x);
                for (a, &b) in y_ref.iter_mut().zip(&x) {
                    *a += -0.37 * b;
                }
                assert_twins(&y_simd, &y_twin, &y_ref, "axpy");
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
                let mut add_t = add_s.clone();
                let mut add_r = add_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::add_assign(&mut add_s, &x) };
                scalar::add_assign(&mut add_t, &x);
                for (a, &b) in add_r.iter_mut().zip(&x) {
                    *a += b;
                }
                assert_twins(&add_s, &add_t, &add_r, "add_assign");

                let mut sc_s = soup(n, 19);
                let mut sc_t = sc_s.clone();
                let mut sc_r = sc_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::scale(&mut sc_s, 1.0 / 3.0) };
                scalar::scale(&mut sc_t, 1.0 / 3.0);
                for a in &mut sc_r {
                    *a *= 1.0 / 3.0;
                }
                assert_twins(&sc_s, &sc_t, &sc_r, "scale");

                let mut dv_s = soup(n, 23);
                let mut dv_t = dv_s.clone();
                let mut dv_r = dv_s.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::div(&mut dv_s, 0.7) };
                scalar::div(&mut dv_t, 0.7);
                for a in &mut dv_r {
                    *a /= 0.7;
                }
                assert_twins(&dv_s, &dv_t, &dv_r, "div");
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
                let mut out_t = vec![f32::NAN; n];
                let mut out_r = vec![f32::NAN; n];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::trigger_blend(&mut out_s, &batch, &m, &p) };
                scalar::trigger_blend(&mut out_t, &batch, &m, &p);
                for j in 0..n {
                    out_r[j] = batch[j] * (1.0 - m[j]) + p[j] * m[j];
                }
                assert_twins(&out_s, &out_t, &out_r, "trigger_blend");

                // g holds exact ±0 lanes so the skip path is exercised,
                // and the accumulators start at -0.0 so a sloppy
                // "accumulate 0" would flip their sign bit. Quiet and
                // signalling NaN lanes of both signs must accumulate,
                // since the skip test `g == 0.0` is false on NaN.
                let mut g = soup(n, 41);
                let nans = [0x7FC0_0000, 0xFFC0_0001, 0x7F80_0001, 0xFFA0_0000];
                for (j, gv) in g.iter_mut().enumerate().skip(4).step_by(5) {
                    *gv = f32::from_bits(nans[j / 5 % 4]);
                }
                let x = soup(n, 43);
                let mut dp_s = vec![-0.0f32; n];
                let mut dm_s = vec![-0.0f32; n];
                let (mut dp_t, mut dm_t) = (dp_s.clone(), dm_s.clone());
                let (mut dp_r, mut dm_r) = (dp_s.clone(), dm_s.clone());
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::trigger_backward(&g, &x, &m, &p, &mut dp_s, &mut dm_s) };
                scalar::trigger_backward(&g, &x, &m, &p, &mut dp_t, &mut dm_t);
                for j in 0..n {
                    let gs = g[j];
                    if gs == 0.0 {
                        continue;
                    }
                    dp_r[j] += gs * m[j];
                    dm_r[j] += gs * (p[j] - x[j]);
                }
                assert_twins(&dp_s, &dp_t, &dp_r, "trigger_backward d_pattern");
                assert_twins(&dm_s, &dm_t, &dm_r, "trigger_backward d_mask");
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
            };
            for n in [1, 8, 33, 200] {
                let gd = soup(n, 47);
                let mut pd_s = soup(n, 53);
                let mut md_s = soup(n, 59);
                let mut vd_s: Vec<f32> = soup(n, 61).iter().map(|v| v.abs()).collect();
                let (mut pd_t, mut md_t, mut vd_t) = (pd_s.clone(), md_s.clone(), vd_s.clone());
                let (mut pd_r, mut md_r, mut vd_r) = (pd_s.clone(), md_s.clone(), vd_s.clone());
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::adam_step(&mut pd_s, &gd, &mut md_s, &mut vd_s, &params) };
                scalar::adam_step(&mut pd_t, &gd, &mut md_t, &mut vd_t, &params);
                for i in 0..n {
                    let g = gd[i];
                    md_r[i] = params.b1 * md_r[i] + (1.0 - params.b1) * g;
                    vd_r[i] = params.b2 * vd_r[i] + (1.0 - params.b2) * g * g;
                    let mhat = md_r[i] / params.bc1;
                    let vhat = vd_r[i] / params.bc2;
                    pd_r[i] -= params.lr * mhat / (vhat.sqrt() + params.eps);
                }
                assert_twins(&pd_s, &pd_t, &pd_r, "adam params");
                assert_twins(&md_s, &md_t, &md_r, "adam m");
                assert_twins(&vd_s, &vd_t, &vd_r, "adam v");
            }
        }

        /// Reference `out[i, j] = Σ_k a[i·ars + kk·aks] · b[kk·n + j]`,
        /// ascending `kk` from `0.0`.
        fn naive_gemm(
            a: &[f32],
            ars: usize,
            aks: usize,
            b: &[f32],
            m: usize,
            k: usize,
            n: usize,
        ) -> Vec<f32> {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0f32;
                    for kk in 0..k {
                        s += a[i * ars + kk * aks] * b[kk * n + j];
                    }
                    out[i * n + j] = s;
                }
            }
            out
        }

        #[test]
        fn gemm_kernels_match_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            // Every m ∈ 1..=9 × n ∈ 1..=40 covers each masked edge width,
            // every bottom-edge height and 0–2 full 16-wide tiles; the k
            // values cover the single-step and a long chain. `b` and `out`
            // are exact-length prefixes of buffers whose tails hold
            // sentinel NaNs: a masked load that leaked the tail would put
            // a NaN into a stored lane, a masked store that spilled would
            // rewrite the tail.
            const TAIL: usize = 16;
            let sentinel = f32::from_bits(0x7fc0_5e17);
            for k in [1, 5, 7, 33] {
                for m in 1..=9 {
                    let a = soup(m * k, 67);
                    for n in 1..=40 {
                        let mut b = soup(k * n, 71);
                        b.extend([sentinel; TAIL]);
                        let b = &b[..k * n];
                        for (ars, aks, what) in [(k, 1, "row-major"), (1, m, "k-major")] {
                            let want = naive_gemm(&a, ars, aks, b, m, k, n);
                            let mut out_s = vec![f32::NAN; m * n + TAIL];
                            out_s[m * n..].fill(sentinel);
                            let mut out_t = out_s.clone();
                            // SAFETY: guarded by have_avx2().
                            unsafe {
                                avx2::gemm_strided_a(&a, ars, aks, b, m, k, n, &mut out_s[..m * n])
                            };
                            scalar::gemm_strided_a(&a, ars, aks, b, m, k, n, &mut out_t[..m * n]);
                            let what = format!("gemm_strided_a {what} m={m} k={k} n={n}");
                            assert_twins(&out_s[..m * n], &out_t[..m * n], &want, &what);
                            assert!(
                                out_s[m * n..]
                                    .iter()
                                    .all(|v| v.to_bits() == sentinel.to_bits()),
                                "{what}: store spilled past the output"
                            );
                        }
                    }
                }
            }
            // Small-k shapes with full and ragged row blocks, and shapes
            // straddling the 16-wide AVX2 tile on larger operands.
            for &(m, k, n) in &[
                (3, 5, 7),
                (9, 7, 33),
                (4, 16, 16),
                (5, 65, 130),
                (17, 100, 129),
                (1, 200, 3),
                (8, 1, 16),
            ] {
                let a = soup(m * k, 67);
                let b = soup(k * n, 71);
                for (ars, aks) in [(k, 1), (1, m)] {
                    let mut out_s = vec![f32::NAN; m * n];
                    let mut out_t = vec![f32::NAN; m * n];
                    // SAFETY: guarded by have_avx2().
                    unsafe { avx2::gemm_strided_a(&a, ars, aks, &b, m, k, n, &mut out_s) };
                    scalar::gemm_strided_a(&a, ars, aks, &b, m, k, n, &mut out_t);
                    let want = naive_gemm(&a, ars, aks, &b, m, k, n);
                    assert_twins(&out_s, &out_t, &want, "gemm_strided_a");
                }
            }
        }

        #[test]
        fn transpose_matches_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            // Full 8×8 blocks, ragged strips on either side, and the
            // convolution shapes: [N, C·H·W] in and [OC·OH·OW, N] out.
            for &(rows, cols) in &[
                (1, 1),
                (8, 8),
                (3, 17),
                (16, 40),
                (9, 8),
                (17, 23),
                (16, 1152),
                (576, 16),
            ] {
                let src = soup(rows * cols, 79);
                let mut out_s = vec![f32::NAN; rows * cols];
                let mut out_t = vec![f32::NAN; rows * cols];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::transpose(&src, rows, cols, &mut out_s) };
                scalar::transpose(&src, rows, cols, &mut out_t);
                let mut want = vec![0.0f32; rows * cols];
                for i in 0..rows {
                    for j in 0..cols {
                        want[j * rows + i] = src[i * cols + j];
                    }
                }
                assert_twins(&out_s, &out_t, &want, &format!("transpose {rows}x{cols}"));
            }
        }

        /// One image (`N = 1`): the AVX2 twin puts its channels across the
        /// lanes, each lane reading its kernel from the transposed table,
        /// and must match the scalar loop at `N = 1`. Channel counts on and
        /// off the 8-lane block (1 runs broadcast), kernels 1 to 11,
        /// strides 1–3 (3 takes the general division path), padded
        /// borders and SSIM's valid 11×11 window over 12×12 and 20×20
        /// planes. The soup's `±0` gradients meet an infinite tap, so a
        /// skipped `0·∞` shows; one gradient carries a NaN payload.
        #[test]
        fn depthwise_one_image_matches_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            use crate::conv::ConvSpec;
            let mut ws = Workspace::new();
            for &(c, h, w, k, stride, pad) in &[
                (1, 1, 1, 1, 1, 0),
                (3, 5, 7, 3, 1, 1),
                (8, 20, 20, 3, 2, 1),
                (13, 9, 6, 5, 2, 2),
                (17, 12, 12, 11, 1, 0),
                (8, 20, 20, 11, 1, 0),
                (10, 10, 10, 5, 1, 2),
                (13, 7, 11, 3, 3, 0),
                (45, 4, 9, 1, 2, 0),
                (45, 6, 7, 3, 2, 1),
            ] {
                let st = Stencil::new(h, w, k, k, ConvSpec::new(stride, pad));
                let (oh, ow) = (st.out_h(), st.out_w());
                let what = format!("c={c} {st:?}");
                let x = soup(c * h * w, 83);
                let mut ker = soup(c * k * k, 89);
                ker[k * k / 2] = f32::INFINITY;
                let bias = soup(c, 97);
                for b in [None, Some(&bias[..])] {
                    let mut simd = vec![f32::NAN; c * oh * ow];
                    let mut twin = simd.clone();
                    // SAFETY: guarded by have_avx2().
                    unsafe { avx2::depthwise_gather(&x, st, 1, &ker, b, &mut simd, &mut ws) };
                    scalar::depthwise_gather(&x, st, 1, &ker, b, &mut twin);
                    assert_bits_eq(&simd, &twin, &format!("depthwise_gather {what}"));
                }
                let mut g = soup(c * oh * ow, 101);
                let mid = g.len() / 2;
                g[mid] = f32::from_bits(0x7FC0_0ABC);
                let mut simd = vec![f32::NAN; c * h * w];
                let mut twin = simd.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::depthwise_adjoint(&g, st, 1, &ker, &mut simd, &mut ws) };
                scalar::depthwise_adjoint(&g, st, 1, &ker, &mut twin);
                assert_bits_eq(&simd, &twin, &format!("depthwise_adjoint {what}"));
            }
        }

        /// The batch-last depthwise kernels against their scalar twins,
        /// and the scalar twins against their own loop at `N = 1` run
        /// image by image (one image's planes): batches of one to 48
        /// images (full, paired, quadrupled and ragged 8-lane blocks),
        /// kernels 3 and 5, strides 1 and 2, borders, `±0` gradients (an
        /// infinite tap makes a skipped `0·∞` visible) and NaN lanes.
        #[test]
        fn depthwise_lanes_match_scalar_and_planar_bitwise() {
            if !have_avx2() {
                return;
            }
            use crate::conv::ConvSpec;
            for n in [1, 2, 7, 8, 9, 17, 48] {
                for &(c, h, w, k, stride, pad) in &[
                    (3, 7, 9, 3, 1, 1),
                    (2, 10, 10, 3, 2, 1),
                    (2, 9, 6, 5, 2, 2),
                    (1, 5, 12, 5, 1, 2),
                    (2, 4, 4, 3, 1, 0),
                ] {
                    let st = Stencil::new(h, w, k, k, ConvSpec::new(stride, pad));
                    for special in [Special::InfTap, Special::NanLanes] {
                        check_depthwise_lanes(st, c, n, special);
                    }
                }
            }
        }

        /// What a depthwise case salts its operands with. Each case holds
        /// at most one source of NaN per sum: which payload survives a
        /// NaN + NaN add is not pinned by IEEE-754.
        #[derive(Clone, Copy, Debug)]
        enum Special {
            /// An infinite kernel tap: `0·∞` is NaN, so a skipped `±0`
            /// gradient shows.
            InfTap,
            /// One NaN-payload lane in the input and one in the gradient.
            NanLanes,
        }

        fn check_depthwise_lanes(st: Stencil, c: usize, n: usize, special: Special) {
            let (h, w, k) = (st.h, st.w, st.kh);
            let (oh, ow) = (st.out_h(), st.out_w());
            let mut x = soup(c * h * w * n, 109);
            let mut ker = soup(c * k * k, 113);
            let bias = soup(c, 127);
            let mut g = soup(c * oh * ow * n, 131);
            match special {
                Special::InfTap => ker[k * k / 2] = f32::INFINITY,
                Special::NanLanes => {
                    x.iter_mut().for_each(|v| *v = v.clamp(-4.0, 4.0));
                    g.iter_mut().for_each(|v| *v = v.clamp(-4.0, 4.0));
                    x[c * h * w * n / 3] = f32::from_bits(0x7FC0_0ABC);
                    g[c * oh * ow * n / 2] = f32::from_bits(0x7FC0_0DEF);
                }
            }
            let what = format!("n={n} {st:?} {special:?}");
            let mut ws = Workspace::new();
            // One image's `c` planes, the layout at `N = 1`.
            let image = |src: &[f32], len: usize, i: usize| -> Vec<f32> {
                (0..c * len).map(|j| src[j * n + i]).collect()
            };
            for b in [None, Some(&bias[..])] {
                let mut simd = vec![f32::NAN; c * oh * ow * n];
                let mut twin = simd.clone();
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::depthwise_gather(&x, st, n, &ker, b, &mut simd, &mut ws) };
                scalar::depthwise_gather(&x, st, n, &ker, b, &mut twin);
                assert_bits_eq(&simd, &twin, &format!("depthwise_gather {what} vs scalar"));
                for i in 0..n {
                    let mut want = vec![f32::NAN; c * oh * ow];
                    scalar::depthwise_gather(&image(&x, h * w, i), st, 1, &ker, b, &mut want);
                    let got = image(&twin, oh * ow, i);
                    assert_bits_eq(&got, &want, &format!("depthwise_gather {what} image {i}"));
                }
            }
            let mut simd = vec![f32::NAN; c * h * w * n];
            let mut twin = simd.clone();
            // SAFETY: guarded by have_avx2().
            unsafe { avx2::depthwise_adjoint(&g, st, n, &ker, &mut simd, &mut ws) };
            scalar::depthwise_adjoint(&g, st, n, &ker, &mut twin);
            assert_bits_eq(&simd, &twin, &format!("depthwise_adjoint {what} vs scalar"));
            for i in 0..n {
                let mut want = vec![f32::NAN; c * h * w];
                scalar::depthwise_adjoint(&image(&g, oh * ow, i), st, 1, &ker, &mut want);
                let got = image(&twin, h * w, i);
                assert_bits_eq(&got, &want, &format!("depthwise_adjoint {what} image {i}"));
            }
        }

        #[test]
        fn silu_grad_matches_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0, -0.0];
            for n in 0..132 {
                let mut g = soup(n, 137);
                let mut x = soup(n, 139);
                let mut sig: Vec<f32> = soup(n, 149).iter().map(|v| v.abs().min(1.0)).collect();
                for (i, &sp) in specials.iter().enumerate() {
                    for (j, v) in [&mut g, &mut x, &mut sig].into_iter().enumerate() {
                        if let Some(slot) = v.get_mut(5 * i + 2 * j + 1) {
                            *slot = sp;
                        }
                    }
                }
                let mut simd = vec![f32::NAN; n];
                let mut twin = vec![f32::NAN; n];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::silu_grad(&g, &x, &sig, &mut simd) };
                scalar::silu_grad(&g, &x, &sig, &mut twin);
                let want: Vec<f32> = (0..n)
                    .map(|i| g[i] * (sig[i] + x[i] * sig[i] * (1.0 - sig[i])))
                    .collect();
                assert_twins(&simd, &twin, &want, &format!("silu_grad n={n}"));
            }
        }

        /// Finite lanes around `exp`'s working range, with the lanes the
        /// vector paths hand to the scalar twin (|x| ≥ 88, ±∞, NaN) mixed
        /// into some chunks, and -0.0 and subnormals, which stay on the
        /// vector paths.
        fn exp_inputs(n: usize) -> Vec<f32> {
            let specials = [
                88.0,
                -88.0,
                88.5,
                -88.5,
                88.72284,
                -103.98,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::from_bits(0xff80_0abc),
                -0.0,
                f32::from_bits(1),
                -f32::from_bits(0x7f_ffff),
            ];
            let mut x: Vec<f32> = soup(n, 107)
                .iter()
                .map(|v| v.clamp(-1.0e3, 1.0e3).rem_euclid(176.0) - 88.0)
                .collect();
            for (i, &sp) in specials.iter().enumerate() {
                let at = 19 * i + 3;
                if at < n && (at / 8) % 2 == 0 {
                    x[at] = sp;
                }
            }
            x
        }

        #[test]
        fn exp_in_place_matches_scalar_bitwise() {
            for read in super::simd_reads() {
                for n in [0, 1, 7, 8, 9, 23, 64, 131] {
                    let x = exp_inputs(n);
                    let mut simd = x.clone();
                    let mut twin = x.clone();
                    super::exp_in_place_by(read, &mut simd);
                    scalar::exp_in_place(&mut twin);
                    assert_bits_eq(&simd, &twin, &format!("exp_in_place {read:?} vs scalar"));
                }
            }
        }

        #[test]
        fn sigmoid_silu_matches_scalar_bitwise() {
            for read in super::simd_reads() {
                for n in [0, 1, 7, 8, 9, 23, 64, 131] {
                    let x = exp_inputs(n);
                    let (mut sigma_s, mut silu_s) = (vec![f32::NAN; n], vec![f32::NAN; n]);
                    let (mut sigma_t, mut silu_t) = (vec![f32::NAN; n], vec![f32::NAN; n]);
                    super::sigmoid_silu_by(read, &x, Some(&mut sigma_s), Some(&mut silu_s));
                    scalar::sigmoid_silu(&x, Some(&mut sigma_t), Some(&mut silu_t));
                    assert_bits_eq(&sigma_s, &sigma_t, &format!("σ {read:?} vs scalar"));
                    assert_bits_eq(&silu_s, &silu_t, &format!("x·σ {read:?} vs scalar"));
                }
            }
        }

        #[test]
        fn decoders_match_scalar_bitwise() {
            if !have_avx2() {
                return;
            }
            // f16: every half against the decoder's former `match` form,
            // an oracle independent of the select form both tiers share.
            fn f16_match(h: u16) -> f32 {
                let sign = ((h as u32) & 0x8000) << 16;
                let exp = ((h >> 10) & 0x1F) as u32;
                let mant = (h & 0x03FF) as u32;
                let bits = match (exp, mant) {
                    (0, 0) => sign,
                    (0, m) => sign | ((m as f32) * (1.0 / 16_777_216.0)).to_bits(),
                    (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
                    (e, m) => sign | ((e + 112) << 23) | (m << 13),
                };
                f32::from_bits(bits)
            }
            let bytes: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
            let mut out_s = vec![0.0f32; 1 << 16];
            let mut out_t = vec![0.0f32; 1 << 16];
            // SAFETY: guarded by have_avx2().
            unsafe { avx2::f16_decode(&bytes, &mut out_s) };
            scalar::f16_decode(&bytes, &mut out_t);
            let oracle: Vec<f32> = (0..=u16::MAX).map(f16_match).collect();
            assert_twins(&out_s, &out_t, &oracle, "f16_decode");

            for n in [1, 31, 32, 33, 64, 257] {
                let data = soup(n, 79);
                let q = crate::quant::QTensor::quantize(
                    &crate::Tensor::from_vec(data, &[n]),
                    crate::quant::Dtype::Q8,
                );
                let mut simd = vec![f32::NAN; n];
                let mut twin = vec![f32::NAN; n];
                let mut reference = vec![f32::NAN; n];
                // SAFETY: guarded by have_avx2().
                unsafe { avx2::q8_decode(q.bytes(), &mut simd) };
                scalar::q8_decode(q.bytes(), &mut twin);
                for (ob, block) in reference
                    .chunks_mut(crate::quant::Q8_BLOCK)
                    .zip(q.bytes().chunks_exact(4 + crate::quant::Q8_BLOCK))
                {
                    let scale = f32::from_le_bytes([block[0], block[1], block[2], block[3]]);
                    for (o, &qv) in ob.iter_mut().zip(&block[4..]) {
                        *o = (qv as i8) as f32 * scale;
                    }
                }
                assert_twins(&simd, &twin, &reference, "q8_decode");
            }
        }
    }
}
