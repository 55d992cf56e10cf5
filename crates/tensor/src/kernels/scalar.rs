//! The scalar reference loops: the only tier off x86-64 and under
//! `USB_KERNEL=scalar`, and the op sequence every [`super::avx2`] twin
//! transcribes. Each function here has an AVX2 twin of the same name and
//! signature (the depthwise pair's twins also take a workspace); the
//! dispatch functions in [`super`] check the slice lengths before either
//! runs. An `#[inline(always)]` function here is a plain map whose AVX2
//! twin is this body compiled with AVX2, so it must stay vectorisable:
//! operands resliced to one length, selects instead of branches.
#![allow(clippy::too_many_arguments)] // flat scalar geometry, hot path

use super::AdamParams;
use crate::conv::Stencil;
use crate::quant::Q8_BLOCK;

/// Register-tile height: rows of the output each micro-kernel call produces.
pub(super) const MR: usize = 4;
/// Register-tile width: output columns per micro-kernel call. `MR × NR`
/// accumulators are 8 SSE vectors at the default x86-64 target, leaving
/// half the register file for the `b` row and the `a` broadcasts.
pub(super) const NR: usize = 8;

/// Full `MR × NR` register tile of `out[i0.., j0..] = Σ_k a ⊙ b`.
///
/// `a` is addressed as `a[abase + r*ars + kk*aks]` so the same kernel serves
/// both the row-major (`ars = k, aks = 1`) and the transposed / k-major
/// (`ars = 1, aks = m`) left operand without a copy. The accumulators live
/// in a fixed-size array for the whole `k` sweep and are stored exactly
/// once, and every output element still accumulates in ascending-`k` order,
/// so results are bit-identical to the naive triple loop.
#[inline(always)]
fn gemm_tile_full(
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
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let b0 = kk * n + j0;
        let brow: [f32; NR] = b[b0..b0 + NR].try_into().expect("an NR-wide slice");
        let a0 = abase + kk * aks;
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a[a0 + r * ars];
            for (o, &bv) in accr.iter_mut().zip(&brow) {
                *o += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let o0 = obase + r * n + j0;
        out[o0..o0 + NR].copy_from_slice(accr);
    }
}

/// Partial tile (`rows ≤ MR`, `jw ≤ NR`) for the ragged right/bottom edges.
/// Same accumulation order as [`gemm_tile_full`], just with runtime bounds.
#[inline(always)]
fn gemm_tile_edge(
    a: &[f32],
    abase: usize,
    ars: usize,
    aks: usize,
    b: &[f32],
    j0: usize,
    jw: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    obase: usize,
    rows: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let b0 = kk * n + j0;
        let a0 = abase + kk * aks;
        for (r, accr) in acc.iter_mut().enumerate().take(rows) {
            let av = a[a0 + r * ars];
            for (o, &bv) in accr.iter_mut().zip(&b[b0..b0 + jw]) {
                *o += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rows) {
        let o0 = obase + r * n + j0;
        out[o0..o0 + jw].copy_from_slice(&accr[..jw]);
    }
}

/// Register-blocked GEMM driver for the strided-`a` orientation. Walks the
/// output in `MR × NR` tiles; every element of `out` is written exactly
/// once, so dirty scratch buffers are fine without a pre-fill.
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
            while j + NR <= n {
                gemm_tile_full(a, abase, ars, aks, b, j, k, n, out, obase);
                j += NR;
            }
        }
        while j < n {
            let jw = (n - j).min(NR);
            gemm_tile_edge(a, abase, ars, aks, b, j, jw, k, n, out, obase, rows);
            j += NR;
        }
        i += MR;
    }
}

/// `out[j·rows + i] = src[i·cols + j]`: one copy per element, row by row.
pub(super) fn transpose(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    for i in 0..rows {
        for (j, &v) in src[i * cols..(i + 1) * cols].iter().enumerate() {
            out[j * rows + i] = v;
        }
    }
}

/// Little-endian f16 stream, one [`crate::quant::f16_decode`] per element.
#[inline(always)]
pub(super) fn f16_decode(bytes: &[u8], out: &mut [f32]) {
    let (halves, _) = bytes.as_chunks::<2>();
    for (o, &h) in out.iter_mut().zip(halves) {
        *o = crate::quant::f16_decode(u16::from_le_bytes(h));
    }
}

/// Q8 blocks: `(q as i8) as f32 * scale` per element; padding is ignored.
/// Full blocks run over fixed-size array views, so each block's loop has
/// a constant trip count and no tail.
#[inline(always)]
pub(super) fn q8_decode(bytes: &[u8], out: &mut [f32]) {
    let (blocks, _) = bytes.as_chunks::<{ 4 + Q8_BLOCK }>();
    let (full, tail) = out.as_chunks_mut::<Q8_BLOCK>();
    let dequant = |ob: &mut [f32], block: &[u8; 4 + Q8_BLOCK]| {
        let scale = f32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        for (o, &q) in ob.iter_mut().zip(&block[4..]) {
            *o = (q as i8) as f32 * scale;
        }
    };
    for (ob, block) in full.iter_mut().zip(blocks) {
        dequant(ob, block);
    }
    if let Some(block) = blocks.get(full.len()) {
        dequant(tail, block);
    }
}

/// `y[i] += s * x[i]`.
#[inline(always)]
pub(super) fn axpy(y: &mut [f32], s: f32, x: &[f32]) {
    for (a, &b) in y.iter_mut().zip(x) {
        *a += s * b;
    }
}

/// `y[i] += x[i]`.
#[inline(always)]
pub(super) fn add_assign(y: &mut [f32], x: &[f32]) {
    for (a, &b) in y.iter_mut().zip(x) {
        *a += b;
    }
}

/// `y[i] *= s`.
#[inline(always)]
pub(super) fn scale(y: &mut [f32], s: f32) {
    for a in y {
        *a *= s;
    }
}

/// `y[i] /= z`.
#[inline(always)]
pub(super) fn div(y: &mut [f32], z: f32) {
    for a in y {
        *a /= z;
    }
}

/// `exp2f` table: `EXP_TAB[i] = bits(2^(i/32)) − (i << 47)`, so
/// `EXP_TAB[k % 32] + (k << 47)` is the bit pattern of `2^(k/32)` for any
/// integer `|k| < 150·32`.
#[rustfmt::skip]
pub(super) const EXP_TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `32 / ln 2` (`0x1.71547652b82fep+5`).
pub(super) const EXP_INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `0x1.8p52`: adding it rounds a double to an integer held in the low
/// mantissa bits.
pub(super) const EXP_SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The degree-3 polynomial for `2^(r/32)`, highest degree first:
/// `0x1.c6af84b912394p-20`, `0x1.ebfce50fac4f3p-13`, `0x1.62e42ff0c52d6p-6`.
pub(super) const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];
/// Bits of `88.0f32`: at or above this `|x|` (NaN included) `exp` takes
/// the special-case checks before the main path.
pub(super) const EXP_BIG: u32 = 0x42b0_0000;

/// `e^x`, a port of glibc's `expf` (`sysdeps/ieee754/flt-32/e_expf.c`):
/// `x·32/ln 2 = k + r`, `2^(k/32)` from [`EXP_TAB`], `2^(r/32)` from a
/// degree-3 polynomial in f64, rounded once to f32. No FMA, so the bits
/// are glibc's non-FMA `expf` on every host.
pub(super) fn exp(x: f32) -> f32 {
    let bits = x.to_bits();
    if bits & 0x7fff_ffff >= EXP_BIG {
        if bits == f32::NEG_INFINITY.to_bits() {
            return 0.0;
        }
        if bits & 0x7fff_ffff >= f32::INFINITY.to_bits() {
            return x + x; // NaN (quietened) or +∞
        }
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY; // x > 0x1.62e42ep6 = ln 2^128
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0; // x < -0x1.9fe368p6 = ln 2^-150
        }
    }
    let z = EXP_INV_LN2_N * f64::from(x);
    let kd = z + EXP_SHIFT;
    let ki = kd.to_bits();
    let r = z - (kd - EXP_SHIFT);
    let s = f64::from_bits(EXP_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let p = EXP_C[0] * r + EXP_C[1];
    let r2 = r * r;
    let y = EXP_C[2] * r + 1.0;
    let y = p * r2 + y;
    (y * s) as f32
}

/// `y[i] = exp(y[i])`.
pub(super) fn exp_in_place(y: &mut [f32]) {
    for v in y {
        *v = exp(*v);
    }
}

/// `σ(x)` into `sigma` and `σ(x)·x` (SiLU) into `silu`, each if given:
/// `e = exp(−|x|)`, then `1/(1+e)` where `x ≥ 0` and `e/(1+e)` elsewhere.
/// A NaN enters `exp` as it is (`−|x|` would flip its sign bit), so it
/// comes out quietened with its sign and payload.
pub(super) fn sigmoid_silu(x: &[f32], mut sigma: Option<&mut [f32]>, mut silu: Option<&mut [f32]>) {
    for (i, &v) in x.iter().enumerate() {
        let e = exp(if v > 0.0 { -v } else { v });
        let s = if v >= 0.0 {
            1.0 / (1.0 + e)
        } else {
            e / (1.0 + e)
        };
        if let Some(out) = sigma.as_deref_mut() {
            out[i] = s;
        }
        if let Some(out) = silu.as_deref_mut() {
            out[i] = s * v;
        }
    }
}

/// `out[j] = batch[j]*(1 − m[j]) + p[j]*m[j]`.
#[inline(always)]
pub(super) fn trigger_blend(out: &mut [f32], batch: &[f32], m: &[f32], p: &[f32]) {
    let n = out.len();
    let (batch, m, p) = (&batch[..n], &m[..n], &p[..n]);
    for j in 0..n {
        let mv = m[j];
        out[j] = batch[j] * (1.0 - mv) + p[j] * mv;
    }
}

/// Where `g[j] != 0.0` (NaN included): `d_pattern[j] += g[j]*m[j]` and
/// `d_mask[j] += g[j]*(p[j] − x[j])`. Elsewhere both keep their old bits,
/// a `−0.0` included: a select, not a branch, so the loop vectorises.
#[inline(always)]
pub(super) fn trigger_backward(
    g: &[f32],
    x: &[f32],
    m: &[f32],
    p: &[f32],
    d_pattern: &mut [f32],
    d_mask: &mut [f32],
) {
    let n = g.len();
    let (x, m, p) = (&x[..n], &m[..n], &p[..n]);
    let (d_pattern, d_mask) = (&mut d_pattern[..n], &mut d_mask[..n]);
    for j in 0..n {
        let gs = g[j];
        let (dp, dm) = (d_pattern[j], d_mask[j]);
        let (dp_new, dm_new) = (dp + gs * m[j], dm + gs * (p[j] - x[j]));
        // A bit mask, not an `if`: LLVM turns `if live { new } else { old }`
        // into masked loads, ~10% slower than the intrinsics twin was.
        let keep = u32::from(gs != 0.0).wrapping_sub(1);
        let pick =
            |old: f32, new: f32| f32::from_bits(old.to_bits() & keep | new.to_bits() & !keep);
        d_pattern[j] = pick(dp, dp_new);
        d_mask[j] = pick(dm, dm_new);
    }
}

/// One Adam update per element.
#[inline(always)]
pub(super) fn adam_step(
    pd: &mut [f32],
    gd: &[f32],
    md: &mut [f32],
    vd: &mut [f32],
    params: &AdamParams,
) {
    let AdamParams {
        b1,
        b2,
        bc1,
        bc2,
        lr,
        eps,
    } = *params;
    let n = pd.len();
    let (gd, md, vd) = (&gd[..n], &mut md[..n], &mut vd[..n]);
    for i in 0..n {
        let g = gd[i];
        md[i] = b1 * md[i] + (1.0 - b1) * g;
        vd[i] = b2 * vd[i] + (1.0 - b2) * g * g;
        let mhat = md[i] / bc1;
        let vhat = vd[i] / bc2;
        pd[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// Depthwise gather over batch-last planes `[C, H, W, N]`, output pixel
/// by output pixel: each lane of the pixel's `N`-float run starts at
/// `bias`, then `acc += x·k` over the in-bounds taps in ascending
/// `(ky, kx)`, the tap's weight broadcast over the run. At `N = 1` this
/// is the per-plane loop over one image's channels.
pub(super) fn depthwise_gather(
    x: &[f32],
    st: Stencil,
    n: usize,
    ker: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let (w, kw, s, pad) = (st.w, st.kw, st.spec.stride, st.spec.pad);
    let (oh, ow) = (st.out_h(), st.out_w());
    let kk = st.kh * kw;
    for (ch, (xc, oc)) in x
        .chunks_exact(st.h * w * n)
        .zip(out.chunks_exact_mut(oh * ow * n))
        .enumerate()
    {
        let k = &ker[ch * kk..(ch + 1) * kk];
        let b = bias.map_or(0.0, |b| b[ch]);
        for oy in 0..oh {
            let (ky0, ky1) = st.taps_y(oy);
            for ox in 0..ow {
                let (kx0, kx1) = st.taps_x(ox);
                let acc = &mut oc[(oy * ow + ox) * n..(oy * ow + ox + 1) * n];
                acc.fill(b);
                for ky in ky0..ky1 {
                    let row = (oy * s + ky - pad) * w + ox * s;
                    for kx in kx0..kx1 {
                        let kv = k[ky * kw + kx];
                        let at = (row + kx - pad) * n;
                        for (a, &xv) in acc.iter_mut().zip(&xc[at..at + n]) {
                            *a += xv * kv;
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`depthwise_gather`], input pixel by input pixel: each lane
/// starts at `0.0`, then `acc += g·k` for every covering output in
/// ascending `(oy, ox)`, skipping `g == 0.0`.
pub(super) fn depthwise_adjoint(g: &[f32], st: Stencil, n: usize, ker: &[f32], out: &mut [f32]) {
    let (h, w, kw, s, pad) = (st.h, st.w, st.kw, st.spec.stride, st.spec.pad);
    let ow = st.out_w();
    let kk = st.kh * kw;
    for (ch, (gc, ic)) in g
        .chunks_exact(st.out_h() * ow * n)
        .zip(out.chunks_exact_mut(h * w * n))
        .enumerate()
    {
        let k = &ker[ch * kk..(ch + 1) * kk];
        for iy in 0..h {
            let (oy0, oy1) = st.sources_y(iy);
            for ix in 0..w {
                let (ox0, ox1) = st.sources_x(ix);
                let acc = &mut ic[(iy * w + ix) * n..(iy * w + ix + 1) * n];
                acc.fill(0.0);
                for oy in oy0..oy1 {
                    let krow = (iy + pad - oy * s) * kw + ix + pad;
                    for ox in ox0..ox1 {
                        let kv = k[krow - ox * s];
                        let at = (oy * ow + ox) * n;
                        for (a, &gv) in acc.iter_mut().zip(&gc[at..at + n]) {
                            if gv != 0.0 {
                                *a += gv * kv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// SiLU's input gradient on the recorded input `x` and sigmoid `s`:
/// `out = g·(s + x·s·(1 − s))` per element.
#[inline(always)]
pub(super) fn silu_grad(g: &[f32], x: &[f32], s: &[f32], out: &mut [f32]) {
    for (((o, &gv), &v), &sv) in out.iter_mut().zip(g).zip(x).zip(s) {
        *o = gv * (sv + v * sv * (1.0 - sv));
    }
}
