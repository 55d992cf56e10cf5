//! The scalar reference loops: the only tier off x86-64 and under
//! `USB_KERNEL=scalar`, and the op sequence every [`super::avx2`] twin
//! transcribes. Each function here has an AVX2 twin of the same name and
//! signature (the stencils' twins also take a scratch slice); the
//! dispatch functions in [`super`] check the slice lengths before either
//! runs.
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
/// The AVX2 driver reuses it for its own edges — per output element the
/// chain is identical either way.
#[inline(always)]
pub(super) fn gemm_tile_edge(
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

/// `a @ bᵀ` with both operands k-contiguous, so each output element is one
/// dot product; a 4×2 tile runs eight independent accumulator chains to
/// hide FP-add latency. Each chain still sums in ascending `k`.
pub(super) fn gemm_transb(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    const MRT: usize = 4;
    const NRT: usize = 2;
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(MRT);
        let mut j = 0;
        while j < n {
            let cols = (n - j).min(NRT);
            let mut acc = [[0.0f32; NRT]; MRT];
            for kk in 0..k {
                let mut bv = [0.0f32; NRT];
                for (c, bvc) in bv.iter_mut().enumerate().take(cols) {
                    *bvc = b[(j + c) * k + kk];
                }
                for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                    let av = a[(i + r) * k + kk];
                    for (o, &bvc) in accr.iter_mut().zip(&bv).take(cols) {
                        *o += av * bvc;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(rows) {
                for (c, &v) in accr.iter().enumerate().take(cols) {
                    out[(i + r) * n + j + c] = v;
                }
            }
            j += NRT;
        }
        i += MRT;
    }
}

/// Little-endian f16 stream, one [`crate::quant::f16_decode`] per element.
pub(super) fn f16_decode(bytes: &[u8], out: &mut [f32]) {
    for (o, h) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        *o = crate::quant::f16_decode(u16::from_le_bytes([h[0], h[1]]));
    }
}

/// Q8 blocks: `(q as i8) as f32 * scale` per element; padding is ignored.
pub(super) fn q8_decode(bytes: &[u8], out: &mut [f32]) {
    for (ob, block) in out
        .chunks_mut(Q8_BLOCK)
        .zip(bytes.chunks_exact(4 + Q8_BLOCK))
    {
        let scale = f32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        for (o, &q) in ob.iter_mut().zip(&block[4..]) {
            *o = (q as i8) as f32 * scale;
        }
    }
}

/// `y[i] += s * x[i]`.
pub(super) fn axpy(y: &mut [f32], s: f32, x: &[f32]) {
    for (a, &b) in y.iter_mut().zip(x) {
        *a += s * b;
    }
}

/// `y[i] += x[i]`.
pub(super) fn add_assign(y: &mut [f32], x: &[f32]) {
    for (a, &b) in y.iter_mut().zip(x) {
        *a += b;
    }
}

/// `y[i] -= x[i]`.
pub(super) fn sub_assign(y: &mut [f32], x: &[f32]) {
    for (a, &b) in y.iter_mut().zip(x) {
        *a -= b;
    }
}

/// `y[i] *= s`.
pub(super) fn scale(y: &mut [f32], s: f32) {
    for a in y {
        *a *= s;
    }
}

/// `y[i] /= z`.
pub(super) fn div(y: &mut [f32], z: f32) {
    for a in y {
        *a /= z;
    }
}

/// `out[j] = batch[j]*(1 − m[j]) + p[j]*m[j]`.
pub(super) fn trigger_blend(out: &mut [f32], batch: &[f32], m: &[f32], p: &[f32]) {
    for j in 0..out.len() {
        let mv = m[j];
        out[j] = batch[j] * (1.0 - mv) + p[j] * mv;
    }
}

/// Where `g[j] != 0.0`: `d_pattern[j] += g[j]*m[j]` and
/// `d_mask[j] += g[j]*(p[j] − x[j])`.
pub(super) fn trigger_backward(
    g: &[f32],
    x: &[f32],
    m: &[f32],
    p: &[f32],
    d_pattern: &mut [f32],
    d_mask: &mut [f32],
) {
    for j in 0..g.len() {
        let gs = g[j];
        if gs == 0.0 {
            continue;
        }
        d_pattern[j] += gs * m[j];
        d_mask[j] += gs * (p[j] - x[j]);
    }
}

/// One Adam update per element, decoupled decay added into the gradient.
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
        decay,
    } = *params;
    for i in 0..pd.len() {
        let g = gd[i] + decay * pd[i];
        md[i] = b1 * md[i] + (1.0 - b1) * g;
        vd[i] = b2 * vd[i] + (1.0 - b2) * g * g;
        let mhat = md[i] / bc1;
        let vhat = vd[i] / bc2;
        pd[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// Planar-stencil gather, output by output: `acc = bias`, then
/// `acc += x·k` over the in-bounds taps in ascending `(ky, kx)`.
pub(super) fn stencil_gather(
    x: &[f32],
    st: Stencil,
    ker: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let (w, kw, s, pad) = (st.w, st.kw, st.spec.stride, st.spec.pad);
    let (oh, ow) = (st.out_h(), st.out_w());
    let kk = st.kh * kw;
    let nk = ker.len() / kk;
    for (p, (img, o)) in x
        .chunks_exact(st.h * w)
        .zip(out.chunks_exact_mut(oh * ow))
        .enumerate()
    {
        let k = &ker[(p % nk) * kk..(p % nk + 1) * kk];
        let b = bias.map_or(0.0, |b| b[p % nk]);
        for oy in 0..oh {
            let (ky0, ky1) = st.taps_y(oy);
            for ox in 0..ow {
                let (kx0, kx1) = st.taps_x(ox);
                let mut acc = b;
                for ky in ky0..ky1 {
                    let row = (oy * s + ky - pad) * w + ox * s;
                    for kx in kx0..kx1 {
                        acc += img[row + kx - pad] * k[ky * kw + kx];
                    }
                }
                o[oy * ow + ox] = acc;
            }
        }
    }
}

/// Planar-stencil adjoint, input pixel by input pixel: `acc = 0.0`, then
/// `acc += g·k` for every covering output in ascending `(oy, ox)`,
/// skipping `g == 0.0`.
pub(super) fn stencil_adjoint(g: &[f32], st: Stencil, ker: &[f32], out: &mut [f32]) {
    let (h, w, kw, s, pad) = (st.h, st.w, st.kw, st.spec.stride, st.spec.pad);
    let ow = st.out_w();
    let kk = st.kh * kw;
    let nk = ker.len() / kk;
    for (p, (go, gi)) in g
        .chunks_exact(st.out_h() * ow)
        .zip(out.chunks_exact_mut(h * w))
        .enumerate()
    {
        let k = &ker[(p % nk) * kk..(p % nk + 1) * kk];
        for iy in 0..h {
            let (oy0, oy1) = st.sources_y(iy);
            for ix in 0..w {
                let (ox0, ox1) = st.sources_x(ix);
                let mut acc = 0.0f32;
                for oy in oy0..oy1 {
                    let krow = (iy + pad - oy * s) * kw + ix + pad;
                    for ox in ox0..ox1 {
                        let gv = go[oy * ow + ox];
                        if gv != 0.0 {
                            acc += gv * k[krow - ox * s];
                        }
                    }
                }
                gi[iy * w + ix] = acc;
            }
        }
    }
}
