//! 2-D convolution kernels (dense and depthwise) built on im2col / col2im.
//!
//! Layout conventions:
//!
//! * activations: `[N, C, H, W]`
//! * dense weights: `[OC, IC, KH, KW]`
//! * depthwise weights: `[C, 1, KH, KW]`
//!
//! All functions provide forward *and* backward passes; the backward passes
//! return gradients with respect to the input as well as the parameters,
//! because the defenses in this workspace optimise over the *input space*
//! (triggers, masks, universal perturbations).

use crate::{kernels, ops, Tensor, Workspace};

/// Geometry of a convolution: strides and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Symmetric zero padding along both spatial axes.
    pub pad: usize,
}

impl ConvSpec {
    /// Convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(stride: usize, pad: usize) -> Self {
        assert!(stride > 0, "ConvSpec: stride must be positive");
        ConvSpec { stride, pad }
    }

    /// Output spatial size for an input of `in_size` with kernel `k`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_size(&self, in_size: usize, k: usize) -> usize {
        let padded = in_size + 2 * self.pad;
        assert!(padded >= k, "kernel {k} larger than padded input {padded}");
        (padded - k) / self.stride + 1
    }
}

impl Default for ConvSpec {
    /// Stride 1, no padding.
    fn default() -> Self {
        ConvSpec { stride: 1, pad: 0 }
    }
}

/// Unfolds one `[C, H, W]` image (given as a flat slice) into the
/// `[C*KH*KW, OH*OW]` column matrix `out`: column `(oy, ox)` holds the
/// receptive field the kernel sees when it produces output pixel
/// `(oy, ox)`. `out` is overwritten, including the zero padding taps, so
/// dirty [`Workspace`] buffers can be handed in.
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry.
#[allow(clippy::too_many_arguments)] // flat scalar geometry, hot path
pub fn im2col_into(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    out: &mut [f32],
) {
    assert_eq!(img.len(), c * h * w, "im2col_into: image length mismatch");
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cols = oh * ow;
    assert_eq!(
        out.len(),
        c * kh * kw * cols,
        "im2col_into: out length mismatch"
    );
    out.fill(0.0);
    im2col_strided_into(img, c, h, w, kh, kw, spec, cols, 0, out);
}

/// [`im2col_into`] writing into a column *block* of a wider matrix: row `r`
/// of the unfolding lands at `out[r * row_stride + col0 ..]`. This is how
/// the batched conv GEMM lays N images side by side into one `[C·KH·KW,
/// N·OH·OW]` matrix so a single wide GEMM replaces N skinny ones.
///
/// Only in-bounds taps are written — the caller must pre-zero the
/// destination so padding taps read as zero (exactly the zeros
/// [`im2col_into`]'s own `fill` would have produced, so results are
/// bit-identical to the per-image path). Stride-1 geometries take a
/// contiguous `copy_from_slice` fast path per kernel row.
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry or the block does
/// not fit within `row_stride`.
#[allow(clippy::too_many_arguments)] // flat scalar geometry, hot path
pub fn im2col_strided_into(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    row_stride: usize,
    col0: usize,
    out: &mut [f32],
) {
    assert_eq!(
        img.len(),
        c * h * w,
        "im2col_strided: image length mismatch"
    );
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cols = oh * ow;
    assert!(
        col0 + cols <= row_stride,
        "im2col_strided: block [{col0}, {}) exceeds row stride {row_stride}",
        col0 + cols
    );
    assert!(
        out.len() >= c * kh * kw * row_stride,
        "im2col_strided: out length mismatch"
    );
    for ch in 0..c {
        let img_ch = &img[ch * h * w..(ch + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                let out_row = &mut out[row * row_stride + col0..row * row_stride + col0 + cols];
                if spec.stride == 1 {
                    // In-bounds output range is an interval: one contiguous
                    // copy per (kernel row, output row).
                    let oy0 = spec.pad.saturating_sub(ky);
                    let oy1 = oh.min((h + spec.pad).saturating_sub(ky));
                    let ox0 = spec.pad.saturating_sub(kx);
                    let ox1 = ow.min((w + spec.pad).saturating_sub(kx));
                    if ox1 > ox0 {
                        for oy in oy0..oy1 {
                            let iy = oy + ky - spec.pad;
                            let ix0 = ox0 + kx - spec.pad;
                            out_row[oy * ow + ox0..oy * ow + ox1]
                                .copy_from_slice(&img_ch[iy * w + ix0..iy * w + ix0 + (ox1 - ox0)]);
                        }
                    }
                } else {
                    for oy in 0..oh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src_row = &img_ch[iy as usize * w..(iy as usize + 1) * w];
                        for ox in 0..ow {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out_row[oy * ow + ox] = src_row[ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col_into`]: folds a `[C*KH*KW, OH*OW]` column matrix
/// back into a `[C, H, W]` image `out`, *summing* overlapping
/// contributions (`out` is overwritten first, so dirty [`Workspace`]
/// buffers can be handed in).
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry.
#[allow(clippy::too_many_arguments)] // flat scalar geometry, hot path
pub fn col2im_into(
    cols_mat: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    out: &mut [f32],
) {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cols = oh * ow;
    assert_eq!(
        cols_mat.len(),
        c * kh * kw * cols,
        "col2im_into: column matrix length mismatch"
    );
    assert_eq!(out.len(), c * h * w, "col2im_into: out length mismatch");
    out.fill(0.0);
    col2im_strided_into(cols_mat, c, h, w, kh, kw, spec, cols, 0, out);
}

/// [`col2im_into`] reading one column *block* of a wider matrix (see
/// [`im2col_strided_into`] for the layout). Accumulates with `+=` into
/// `out`, which the caller must pre-zero; the (channel, kernel-row,
/// kernel-col, output-row) scatter order matches the per-image kernel
/// exactly, so overlapping contributions sum in the same order and results
/// are bit-identical. Stride-1 geometries take a contiguous vectorizable
/// fast path.
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry or the block does
/// not fit within `row_stride`.
#[allow(clippy::too_many_arguments)] // flat scalar geometry, hot path
pub fn col2im_strided_into(
    cols_mat: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    row_stride: usize,
    col0: usize,
    out: &mut [f32],
) {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cols = oh * ow;
    assert!(
        col0 + cols <= row_stride,
        "col2im_strided: block [{col0}, {}) exceeds row stride {row_stride}",
        col0 + cols
    );
    assert!(
        cols_mat.len() >= c * kh * kw * row_stride,
        "col2im_strided: column matrix length mismatch"
    );
    assert_eq!(out.len(), c * h * w, "col2im_strided: out length mismatch");
    for ch in 0..c {
        let img_ch = &mut out[ch * h * w..(ch + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                let src_row = &cols_mat[row * row_stride + col0..row * row_stride + col0 + cols];
                if spec.stride == 1 {
                    let oy0 = spec.pad.saturating_sub(ky);
                    let oy1 = oh.min((h + spec.pad).saturating_sub(ky));
                    let ox0 = spec.pad.saturating_sub(kx);
                    let ox1 = ow.min((w + spec.pad).saturating_sub(kx));
                    if ox1 > ox0 {
                        for oy in oy0..oy1 {
                            let iy = oy + ky - spec.pad;
                            let ix0 = ox0 + kx - spec.pad;
                            let dst = &mut img_ch[iy * w + ix0..iy * w + ix0 + (ox1 - ox0)];
                            let src = &src_row[oy * ow + ox0..oy * ow + ox1];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += s;
                            }
                        }
                    }
                } else {
                    for oy in 0..oh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            img_ch[iy as usize * w + ix as usize] += src_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

/// The `dL/d input` half of [`conv2d_backward_ws`] alone: for input-space
/// optimisation (DeepFool, trigger refinement) the parameter gradients are
/// computed and immediately discarded, so this kernel skips them — no
/// im2col of the cached input, no weight/bias GEMM — and folds
/// `Wᵀ @ grad_out` straight back into image space. The whole batch goes
/// through **one wide GEMM**: the per-image `[OC, OH·OW]` gradients are
/// interleaved into a `[OC, N·OH·OW]` matrix, multiplied once, and folded
/// back per image. Every output element still sums over `oc` in ascending
/// order and the col2im scatter order per image is unchanged, so the
/// result is **bit-identical** to the first element of the
/// [`conv2d_backward_ws`] tuple; `h`/`w` are the spatial dims of the forward
/// input.
///
/// The returned gradient is built from a workspace buffer ([`col2im_into`]
/// fully overwrites each per-image slice, so a dirty checkout is safe);
/// callers on the hot path hand it back via [`Workspace::recycle`] to keep
/// the steady state allocation-free.
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn conv2d_input_backward_ws(
    weight: &Tensor,
    grad_out: &Tensor,
    h: usize,
    w: usize,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> Tensor {
    conv2d_input_backward_panel_ws(weight.data(), weight.shape(), grad_out, h, w, spec, ws)
}

/// [`conv2d_input_backward_ws`] on a weight of shape `wshape`
/// (`[OC, IC, KH, KW]`) given as its natural-order panel: the row-major
/// values, which as an `[OC, IC·KH·KW]` matrix are already the k-major
/// panel `Wᵀ@g` consumes. A quantized layer passes its decoded
/// [`crate::panel::GemmWeight::natural`].
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn conv2d_input_backward_panel_ws(
    natural: &[f32],
    wshape: &[usize],
    grad_out: &Tensor,
    h: usize,
    w: usize,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> Tensor {
    let (oc, ic, kh, kw) = shape4(wshape);
    let (n, goc, oh, ow) = dims4(grad_out);
    assert_eq!(goc, oc, "conv2d_input_backward: channel mismatch");
    assert_eq!(
        (oh, ow),
        (spec.out_size(h, kh), spec.out_size(w, kw)),
        "conv2d_input_backward: grad_out spatial dims mismatch"
    );
    let rows = ic * kh * kw;
    let cols = oh * ow;
    let wide = n * cols;
    let god = grad_out.data();
    // Interleave [N, OC, cols] → [OC, N·cols] so one wide GEMM covers the
    // whole batch (the per-image `cols` is tiny on deep layers, far below
    // the width a register-tiled GEMM needs).
    let mut go_wide = ws.take_dirty(oc * wide);
    for i in 0..n {
        for ch in 0..oc {
            go_wide[ch * wide + i * cols..ch * wide + (i + 1) * cols]
                .copy_from_slice(&god[(i * oc + ch) * cols..(i * oc + ch + 1) * cols]);
        }
    }
    let mut grad_cols = ws.take_dirty(rows * wide);
    ops::matmul_transa_into(natural, &go_wide, rows, oc, wide, &mut grad_cols);
    let mut grad_input = ws.take_dirty(n * ic * h * w);
    for i in 0..n {
        let gi = &mut grad_input[i * ic * h * w..(i + 1) * ic * h * w];
        gi.fill(0.0);
        col2im_strided_into(&grad_cols, ic, h, w, kh, kw, spec, wide, i * cols, gi);
    }
    ws.put(go_wide);
    ws.put(grad_cols);
    Tensor::from_vec(grad_input, &[n, ic, h, w])
}

/// The `dL/d input` half of [`depthwise_backward_ws`] alone (see
/// [`conv2d_input_backward_ws`] for why): one [`stencil_adjoint_ws`] over
/// the `N·C` planes, plane `i·C + ch` scattered through kernel `ch`, into a
/// buffer drawn from `ws`.
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn depthwise_input_backward_ws(
    weight: &Tensor,
    grad_out: &Tensor,
    h: usize,
    w: usize,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> Tensor {
    let (c, one, kh, kw) = dims4(weight);
    assert_eq!(one, 1, "depthwise: weight second dim must be 1");
    let (n, gc, oh, ow) = dims4(grad_out);
    assert_eq!(gc, c, "depthwise_input_backward: channel mismatch");
    assert_eq!(
        (oh, ow),
        (spec.out_size(h, kh), spec.out_size(w, kw)),
        "depthwise_input_backward: grad_out spatial dims mismatch"
    );
    let st = Stencil::new(h, w, kh, kw, spec);
    let mut grad_input = ws.take_dirty(n * c * h * w);
    stencil_adjoint_ws(grad_out.data(), st, weight.data(), &mut grad_input, ws);
    Tensor::from_vec(grad_input, &[n, c, h, w])
}

/// Dense convolution forward pass: `input` `[N, IC, H, W]`, `weight`
/// `[OC, IC, KH, KW]` and optional `bias` `[OC]` give `[N, OC, OH, OW]`.
/// The weight is packed k-major into a workspace buffer on every call;
/// layers that own a weight call [`conv2d_forward_panel_ws`] with the
/// panel they keep instead.
///
/// # Panics
///
/// Panics on any rank or channel-count mismatch.
pub fn conv2d_forward_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> Tensor {
    let (oc, ic, kh, kw) = dims4(weight);
    let mut kmajor = ws.take_dirty(weight.len());
    ops::transpose_into(weight.data(), oc, ic * kh * kw, &mut kmajor);
    let out = conv2d_forward_panel_ws(input, &kmajor, weight.shape(), bias, spec, ws);
    ws.put(kmajor);
    out
}

/// [`conv2d_forward_ws`] on a weight of shape `wshape` (`[OC, IC, KH, KW]`)
/// given as its k-major panel: the `[IC·KH·KW, OC]` transpose, e.g.
/// [`crate::panel::GemmWeight::kmajor`].
///
/// The batch is fused into **one wide GEMM**: all N images are unfolded
/// side by side into a `[IC·KH·KW, N·OH·OW]` column matrix and multiplied
/// by the panel in a single call. Each output element is still the same
/// ascending-`k` dot product, so results are bit-identical to a per-image
/// loop.
///
/// Every scratch buffer comes from `ws`. After the first call at a given
/// geometry, repeat calls with the same (warm) workspace perform no heap
/// allocation; the returned output tensor is built from a workspace
/// buffer, so callers that hand it back via [`Workspace::recycle`] keep
/// the steady state allocation-free.
///
/// # Panics
///
/// Panics on any rank or channel-count mismatch.
pub fn conv2d_forward_panel_ws(
    input: &Tensor,
    kmajor: &[f32],
    wshape: &[usize],
    bias: Option<&Tensor>,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(input.ndim(), 4, "conv2d: input must be [N,IC,H,W]");
    let (n, ic, h, w) = dims4(input);
    let (oc, wic, kh, kw) = shape4(wshape);
    assert_eq!(
        ic, wic,
        "conv2d: input channels {ic} != weight channels {wic}"
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), oc, "conv2d: bias length mismatch");
    }
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let rows = ic * kh * kw;
    let cols = oh * ow;
    let wide = n * cols;
    let id = input.data();
    // All N images side by side: padding taps must read as zero, so the
    // wide column matrix is blanket-zeroed once before the strided writes.
    let mut cols_all = ws.take_dirty(rows * wide);
    cols_all.fill(0.0);
    for i in 0..n {
        let img = &id[i * ic * h * w..(i + 1) * ic * h * w];
        im2col_strided_into(img, ic, h, w, kh, kw, spec, wide, i * cols, &mut cols_all);
    }
    let mut out_wide = ws.take_dirty(oc * wide);
    let mut out = ws.take_dirty(n * oc * cols);
    ops::matmul_transa_into(kmajor, &cols_all, oc, rows, wide, &mut out_wide);
    // Un-interleave [OC, N·cols] → [N, OC, cols], fusing the bias add.
    for i in 0..n {
        for ch in 0..oc {
            let src = &out_wide[ch * wide + i * cols..ch * wide + (i + 1) * cols];
            let dst = &mut out[(i * oc + ch) * cols..(i * oc + ch + 1) * cols];
            match bias {
                Some(b) => {
                    let bv = b.data()[ch];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = s + bv;
                    }
                }
                None => dst.copy_from_slice(src),
            }
        }
    }
    ws.put(cols_all);
    ws.put(out_wide);
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// Gradients of a dense convolution: given `grad_out = dL/d output` of
/// shape `[N, OC, OH, OW]`, returns `(grad_input, grad_weight, grad_bias)`
/// with the shapes of `input`, `weight`, and `[OC]`.
///
/// The im2col / GEMM scratch buffers come from `ws`, so a training loop
/// holding one workspace across steps allocates the im2col columns — the
/// dominant transient of the backward pass — once per geometry.
///
/// # Panics
///
/// Panics on any rank or shape mismatch.
pub fn conv2d_backward_ws(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> (Tensor, Tensor, Tensor) {
    let (n, ic, h, w) = dims4(input);
    let (oc, _, kh, kw) = dims4(weight);
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    assert_eq!(
        grad_out.shape(),
        &[n, oc, oh, ow],
        "conv2d_backward: grad_out shape mismatch"
    );
    let rows = ic * kh * kw;
    let cols = oh * ow;
    let id = input.data();
    let wd = weight.data(); // [OC, IC·KH·KW] row-major, no reshape copy
    let god = grad_out.data();
    // `col2im_into` overwrites each image's slice, so a dirty checkout is
    // safe; drawing it from `ws` keeps a training loop, which hands the
    // gradient back after the next layer consumed it, from growing the
    // pool by one buffer per step.
    let mut grad_input = Tensor::from_vec(ws.take_dirty(n * ic * h * w), &[n, ic, h, w]);
    let mut grad_w_mat = Tensor::zeros(&[oc, rows]);
    let mut grad_bias = Tensor::zeros(&[oc]);
    let mut cols_buf = ws.take_dirty(rows * cols);
    let mut gw_buf = ws.take_dirty(oc * rows);
    let mut grad_cols = ws.take_dirty(rows * cols);
    for i in 0..n {
        let img = &id[i * ic * h * w..(i + 1) * ic * h * w];
        im2col_into(img, ic, h, w, kh, kw, spec, &mut cols_buf);
        let go = &god[i * oc * cols..(i + 1) * oc * cols];
        // dL/dW += grad_out_i @ cols^T
        ops::matmul_transb_into(go, &cols_buf, oc, cols, rows, &mut gw_buf);
        for (acc, &g) in grad_w_mat.data_mut().iter_mut().zip(&gw_buf) {
            *acc += g;
        }
        // dL/dbias += row sums
        for ch in 0..oc {
            let s: f32 = go[ch * cols..(ch + 1) * cols].iter().sum();
            grad_bias.data_mut()[ch] += s;
        }
        // dL/dcols = W^T @ grad_out_i, then fold back.
        ops::matmul_transa_into(wd, go, rows, oc, cols, &mut grad_cols);
        let gi = &mut grad_input.data_mut()[i * ic * h * w..(i + 1) * ic * h * w];
        col2im_into(&grad_cols, ic, h, w, kh, kw, spec, gi);
    }
    ws.put(cols_buf);
    ws.put(gw_buf);
    ws.put(grad_cols);
    (grad_input, grad_w_mat.reshape(weight.shape()), grad_bias)
}

/// Depthwise convolution forward pass: each channel of `input`
/// `[N, C, H, W]` is convolved with its own `[1, KH, KW]` kernel of
/// `weight` `[C, 1, KH, KW]`, plus optional `bias` `[C]`. One
/// [`stencil_gather_ws`] over the `N·C` planes, plane `i·C + ch` using
/// kernel and bias `ch`, into an output buffer drawn from `ws`.
///
/// The gather fully overwrites the output, so a dirty workspace buffer is
/// fine; recycling the returned tensor keeps steady-state inference
/// allocation-free.
///
/// # Panics
///
/// Panics on rank, channel or bias-length mismatches.
pub fn depthwise_forward_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(input.ndim(), 4, "depthwise: input must be [N,C,H,W]");
    assert_eq!(weight.ndim(), 4, "depthwise: weight must be [C,1,KH,KW]");
    let (n, c, h, w) = dims4(input);
    let (wc, one, kh, kw) = dims4(weight);
    assert_eq!(c, wc, "depthwise: channel mismatch {c} vs {wc}");
    assert_eq!(one, 1, "depthwise: weight second dim must be 1");
    if let Some(b) = bias {
        assert_eq!(b.len(), c, "depthwise: bias length mismatch");
    }
    let st = Stencil::new(h, w, kh, kw, spec);
    let (oh, ow) = (st.out_h(), st.out_w());
    let mut out = ws.take_dirty(n * c * oh * ow);
    stencil_gather_ws(
        input.data(),
        st,
        weight.data(),
        bias.map(Tensor::data),
        &mut out,
        ws,
    );
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Gradients of a depthwise convolution; returns
/// `(grad_input, grad_weight, grad_bias)`.
///
/// The input gradient is [`depthwise_input_backward_ws`]; this adds the
/// weight/bias accumulation, each weight tap summing its contributions in
/// ascending `(image, oy, ox)` order and skipping zero gradients.
///
/// # Panics
///
/// Panics on rank or shape mismatches.
pub fn depthwise_backward_ws(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = dims4(input);
    let (_, _, kh, kw) = dims4(weight);
    let st = Stencil::new(h, w, kh, kw, spec);
    let (oh, ow) = (st.out_h(), st.out_w());
    assert_eq!(
        grad_out.shape(),
        &[n, c, oh, ow],
        "depthwise_backward: grad_out shape mismatch"
    );
    let grad_input = depthwise_input_backward_ws(weight, grad_out, h, w, spec, ws);
    let mut grad_weight = vec![0.0f32; c * kh * kw];
    let mut grad_bias = vec![0.0f32; c];
    let id = input.data();
    let god = grad_out.data();
    for i in 0..n {
        for ch in 0..c {
            let img = &id[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            let go = &god[(i * c + ch) * oh * ow..(i * c + ch + 1) * oh * ow];
            let gw = &mut grad_weight[ch * kh * kw..(ch + 1) * kh * kw];
            grad_bias[ch] += go.iter().sum::<f32>();
            for oy in 0..oh {
                let (ky0, ky1) = st.taps_y(oy);
                for ox in 0..ow {
                    let g = go[oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    let (kx0, kx1) = st.taps_x(ox);
                    for ky in ky0..ky1 {
                        let row = (oy * spec.stride + ky - spec.pad) * w;
                        for kx in kx0..kx1 {
                            gw[ky * kw + kx] += g * img[row + ox * spec.stride + kx - spec.pad];
                        }
                    }
                }
            }
        }
    }
    (
        grad_input,
        Tensor::from_vec(grad_weight, weight.shape()),
        Tensor::from_vec(grad_bias, &[c]),
    )
}

/// Shared geometry of a *planar stencil*: a stack of `[H, W]` planes, each
/// convolved (cross-correlated) with a `[KH, KW]` kernel under one
/// [`ConvSpec`]. Depthwise convolution (one plane per image·channel, one
/// kernel per channel) and SSIM's gaussian blurs (one plane per image
/// plane, one shared window) are both this shape.
///
/// Two kernels run over it, each with a fixed per-element op sequence that
/// both kernel tiers reproduce bit for bit:
///
/// * [`stencil_gather_ws`] — `out = bias`, then `out += x·k` over the
///   in-bounds taps in ascending `(ky, kx)` order;
/// * [`stencil_adjoint_ws`] — its adjoint: every input pixel starts at
///   `0.0` and receives `g·k` from each output whose window covers it, in
///   ascending `(oy, ox)` order, skipping `g == 0.0`.
///
/// Fields are private: the AVX2 tier's unchecked loads rely on the output
/// size staying consistent with the geometry [`Stencil::new`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stencil {
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) spec: ConvSpec,
    oh: usize,
    ow: usize,
}

impl Stencil {
    /// Checked constructor.
    ///
    /// # Panics
    ///
    /// Panics if the plane or kernel is empty, or the kernel does not fit
    /// the padded plane.
    pub fn new(h: usize, w: usize, kh: usize, kw: usize, spec: ConvSpec) -> Self {
        assert!(
            h > 0 && w > 0 && kh > 0 && kw > 0,
            "stencil: empty plane or kernel"
        );
        Stencil {
            h,
            w,
            kh,
            kw,
            spec,
            oh: spec.out_size(h, kh),
            ow: spec.out_size(w, kw),
        }
    }

    /// Output plane height.
    pub fn out_h(&self) -> usize {
        self.oh
    }

    /// Output plane width.
    pub fn out_w(&self) -> usize {
        self.ow
    }

    /// In-bounds kernel rows `ky0..ky1` of output row `oy`.
    pub(crate) fn taps_y(&self, oy: usize) -> (usize, usize) {
        taps(oy, self.h, self.kh, self.spec)
    }

    /// In-bounds kernel columns `kx0..kx1` of output column `ox`.
    pub(crate) fn taps_x(&self, ox: usize) -> (usize, usize) {
        taps(ox, self.w, self.kw, self.spec)
    }

    /// Output rows `oy0..oy1` whose window covers input row `iy`.
    pub(crate) fn sources_y(&self, iy: usize) -> (usize, usize) {
        sources(iy, self.oh, self.kh, self.spec)
    }

    /// Output columns `ox0..ox1` whose window covers input column `ix`.
    pub(crate) fn sources_x(&self, ix: usize) -> (usize, usize) {
        sources(ix, self.ow, self.kw, self.spec)
    }
}

/// Kernel taps `t0..t1` with `o·stride + t − pad` inside `0..n`.
#[inline]
fn taps(o: usize, n: usize, k: usize, spec: ConvSpec) -> (usize, usize) {
    let at = o * spec.stride;
    let t0 = spec.pad.saturating_sub(at);
    let t1 = k.min((n + spec.pad).saturating_sub(at));
    (t0, t1.max(t0))
}

/// Outputs `o0..o1` (of `n_out`) whose tap `i + pad − o·stride` is inside
/// `0..k`, ascending.
#[inline]
fn sources(i: usize, n_out: usize, k: usize, spec: ConvSpec) -> (usize, usize) {
    // The kernels evaluate this per pixel: keep the common strides off the
    // integer divider.
    let div = |a: usize| match spec.stride {
        1 => a,
        2 => a >> 1,
        s => a / s,
    };
    let reach = i + spec.pad;
    let o0 = div((reach + 1).saturating_sub(k) + spec.stride - 1);
    let o1 = n_out.min(div(reach) + 1);
    (o0, o1.max(o0))
}

/// Checks a planar-stencil call's slice lengths against the geometry.
fn check_planes(
    src: &[f32],
    src_plane: usize,
    ker: &[f32],
    kk: usize,
    out: &[f32],
    out_plane: usize,
) {
    assert!(
        !ker.is_empty() && ker.len().is_multiple_of(kk),
        "stencil: kernel length {} is not a multiple of {kk}",
        ker.len()
    );
    assert!(
        src.len().is_multiple_of(src_plane),
        "stencil: ragged input planes"
    );
    assert_eq!(
        out.len(),
        src.len() / src_plane * out_plane,
        "stencil: output length mismatch"
    );
}

/// Planar-stencil gather: `out` plane `p` (`[OH, OW]`) is plane `p` of `x`
/// (`[H, W]`) cross-correlated with kernel `p % K` of `ker` (`K` kernels of
/// `KH·KW` taps, row-major), plus `bias[p % K]` (or `0.0`).
///
/// Per output: `acc = bias`, then `acc += x·k` over the in-bounds taps in
/// ascending `(ky, kx)` order — no FMA, no reassociation — so the AVX2
/// tier (lanes across planes, `kernels::try_stencil_gather`)
/// and this scalar reference agree bit for bit. `out` is fully
/// overwritten, so dirty workspace buffers are fine.
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry, or `bias` does not
/// hold one value per kernel.
pub fn stencil_gather_ws(
    x: &[f32],
    st: Stencil,
    ker: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    let kk = st.kh * st.kw;
    check_planes(x, st.h * st.w, ker, kk, out, st.out_h() * st.out_w());
    if let Some(b) = bias {
        assert_eq!(b.len(), ker.len() / kk, "stencil: one bias per kernel");
    }
    if !kernels::try_stencil_gather(x, st, ker, bias, out, ws) {
        stencil_gather_scalar(x, st, ker, bias, out);
    }
}

/// Scalar reference of [`stencil_gather_ws`].
pub(crate) fn stencil_gather_scalar(
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

/// Planar-stencil adjoint of [`stencil_gather_ws`] (without the bias):
/// scatters each `[OH, OW]` gradient plane of `g` back onto its `[H, W]`
/// plane of `out` through kernel `p % K`.
///
/// Per input pixel: `acc = 0.0`, then `acc += g·k` for every output whose
/// window covers the pixel, in ascending `(oy, ox)` order, skipping
/// `g == 0.0` exactly as the classic per-output scatter loop does — the
/// same sum in the same order, evaluated pixel by pixel so stride-2
/// geometries only visit the taps that reach each pixel. `out` is fully
/// overwritten.
///
/// # Panics
///
/// Panics if a slice length disagrees with the geometry.
pub fn stencil_adjoint_ws(
    g: &[f32],
    st: Stencil,
    ker: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) {
    check_planes(
        g,
        st.out_h() * st.out_w(),
        ker,
        st.kh * st.kw,
        out,
        st.h * st.w,
    );
    if !kernels::try_stencil_adjoint(g, st, ker, out, ws) {
        stencil_adjoint_scalar(g, st, ker, out);
    }
}

/// Scalar reference of [`stencil_adjoint_ws`].
pub(crate) fn stencil_adjoint_scalar(g: &[f32], st: Stencil, ker: &[f32], out: &mut [f32]) {
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

/// Valid (no padding, stride 1) convolution of one `[H, W]` plane with a
/// `[KH, KW]` kernel; the result is `[H-KH+1, W-KW+1]`.
///
/// # Panics
///
/// Panics if either tensor is not rank-2 or the kernel does not fit.
pub fn conv2d_valid_single(img: &Tensor, ker: &Tensor) -> Tensor {
    assert_eq!(img.ndim(), 2, "conv2d_valid_single: image must be rank-2");
    assert_eq!(ker.ndim(), 2, "conv2d_valid_single: kernel must be rank-2");
    let st = Stencil::new(
        img.shape()[0],
        img.shape()[1],
        ker.shape()[0],
        ker.shape()[1],
        ConvSpec::new(1, 0),
    );
    let mut out = vec![0.0f32; st.out_h() * st.out_w()];
    stencil_gather_ws(
        img.data(),
        st,
        ker.data(),
        None,
        &mut out,
        &mut Workspace::new(),
    );
    Tensor::from_vec(out, &[st.out_h(), st.out_w()])
}

/// Adjoint of [`conv2d_valid_single`] with respect to the image: scatters an
/// output-sized gradient back onto an `[H, W]` input-gradient plane
/// ("full" correlation with the same kernel).
///
/// # Panics
///
/// Panics on rank mismatches or if `grad.shape()` is inconsistent with
/// `(h, w)` and the kernel.
pub fn conv2d_valid_single_adjoint(grad: &Tensor, ker: &Tensor, h: usize, w: usize) -> Tensor {
    assert_eq!(grad.ndim(), 2, "adjoint: grad must be rank-2");
    assert_eq!(ker.ndim(), 2, "adjoint: kernel must be rank-2");
    let (kh, kw) = (ker.shape()[0], ker.shape()[1]);
    let (oh, ow) = (grad.shape()[0], grad.shape()[1]);
    assert_eq!(oh, h + 1 - kh, "adjoint: grad height mismatch");
    assert_eq!(ow, w + 1 - kw, "adjoint: grad width mismatch");
    let st = Stencil::new(h, w, kh, kw, ConvSpec::new(1, 0));
    let mut out = vec![0.0f32; h * w];
    stencil_adjoint_ws(grad.data(), st, ker.data(), &mut out, &mut Workspace::new());
    Tensor::from_vec(out, &[h, w])
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    shape4(t.shape())
}

fn shape4(s: &[usize]) -> (usize, usize, usize, usize) {
    assert_eq!(s.len(), 4, "expected rank-4 tensor, got {s:?}");
    (s[0], s[1], s[2], s[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(shape: &[usize]) -> Tensor {
        Tensor::from_fn(shape, |i| (i as f32 * 0.37).sin())
    }

    fn conv2d_forward(x: &Tensor, w: &Tensor, b: Option<&Tensor>, spec: ConvSpec) -> Tensor {
        conv2d_forward_ws(x, w, b, spec, &mut Workspace::new())
    }

    fn conv2d_backward(
        x: &Tensor,
        w: &Tensor,
        go: &Tensor,
        spec: ConvSpec,
    ) -> (Tensor, Tensor, Tensor) {
        conv2d_backward_ws(x, w, go, spec, &mut Workspace::new())
    }

    fn depthwise_forward(x: &Tensor, w: &Tensor, b: Option<&Tensor>, spec: ConvSpec) -> Tensor {
        depthwise_forward_ws(x, w, b, spec, &mut Workspace::new())
    }

    #[test]
    fn out_size_math() {
        let s = ConvSpec::new(1, 0);
        assert_eq!(s.out_size(5, 3), 3);
        let s = ConvSpec::new(2, 1);
        assert_eq!(s.out_size(8, 3), 4);
        let s = ConvSpec::new(1, 1);
        assert_eq!(s.out_size(4, 3), 4); // 'same' for 3x3
    }

    #[test]
    fn identity_kernel_preserves_image() {
        // 1x1 kernel of value 1 with stride 1 pad 0 is the identity.
        let img = seq_tensor(&[1, 2, 4, 4]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]);
        let out = conv2d_forward(&img, &w, None, ConvSpec::default());
        assert_eq!(out.shape(), img.shape());
        for (a, b) in out.data().iter().zip(img.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn conv_matches_manual_3x3() {
        // Single-channel 3x3 image, 2x2 averaging kernel.
        let img = Tensor::from_vec((1..=9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let w = Tensor::full(&[1, 1, 2, 2], 0.25);
        let out = conv2d_forward(&img, &w, None, ConvSpec::default());
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[3.0, 4.0, 6.0, 7.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let img = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[3, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let out = conv2d_forward(&img, &w, Some(&b), ConvSpec::default());
        assert_eq!(out.index_axis0(0).index_axis0(2).data(), &[3.0; 4]);
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the pair is a
        // true adjoint, which is exactly what backprop needs.
        let spec = ConvSpec::new(2, 1);
        let x = seq_tensor(&[2, 5, 5]);
        let mut cols_mat = vec![0.0; 2 * 9 * 9];
        im2col_into(x.data(), 2, 5, 5, 3, 3, spec, &mut cols_mat);
        let y = Tensor::from_fn(&[cols_mat.len()], |i| ((i * 13 % 7) as f32) - 3.0);
        let lhs = Tensor::from_vec(cols_mat, &[y.len()]).dot(&y);
        let mut folded = vec![0.0; x.len()];
        col2im_into(y.data(), 2, 5, 5, 3, 3, spec, &mut folded);
        let rhs = x.dot(&Tensor::from_vec(folded, x.shape()));
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn conv2d_gradients_match_finite_differences() {
        let spec = ConvSpec::new(1, 1);
        let x = seq_tensor(&[2, 2, 4, 4]);
        let w = seq_tensor(&[3, 2, 3, 3]).scale(0.5);
        let b = seq_tensor(&[3]);
        // Loss = sum(conv(x)); dL/d out = ones.
        let out = conv2d_forward(&x, &w, Some(&b), spec);
        let go = Tensor::ones(out.shape());
        let (gi, gw, gb) = conv2d_backward(&x, &w, &go, spec);
        let eps = 1e-3;
        // Check a handful of input coordinates.
        for &flat in &[0usize, 7, 19, 40, 63] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fp = conv2d_forward(&xp, &w, Some(&b), spec).sum();
            let fm = conv2d_forward(&xm, &w, Some(&b), spec).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gi.data()[flat]).abs() < 1e-2,
                "input grad mismatch at {flat}: num={num} ana={}",
                gi.data()[flat]
            );
        }
        // Check weight coordinates.
        for &flat in &[0usize, 11, 33, 53] {
            let mut wp = w.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = w.clone();
            wm.data_mut()[flat] -= eps;
            let fp = conv2d_forward(&x, &wp, Some(&b), spec).sum();
            let fm = conv2d_forward(&x, &wm, Some(&b), spec).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - gw.data()[flat]).abs() < 1e-2,
                "weight grad mismatch at {flat}: num={num} ana={}",
                gw.data()[flat]
            );
        }
        // Bias gradient is the number of output pixels per channel.
        let expected = (out.len() / 3) as f32;
        for ch in 0..3 {
            assert!((gb.data()[ch] - expected).abs() < 1e-3);
        }
    }

    #[test]
    fn depthwise_matches_dense_with_diagonal_weights() {
        // A depthwise conv equals a dense conv whose weight is diagonal in
        // the channel dimensions.
        let spec = ConvSpec::new(1, 1);
        let x = seq_tensor(&[1, 3, 5, 5]);
        let dw = seq_tensor(&[3, 1, 3, 3]);
        let out_dw = depthwise_forward(&x, &dw, None, spec);
        let mut dense = Tensor::zeros(&[3, 3, 3, 3]);
        for c in 0..3 {
            for k in 0..9 {
                let v = dw.data()[c * 9 + k];
                dense.data_mut()[((c * 3 + c) * 9) + k] = v;
            }
        }
        let out_dense = conv2d_forward(&x, &dense, None, spec);
        assert_eq!(out_dw.shape(), out_dense.shape());
        for (a, b) in out_dw.data().iter().zip(out_dense.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn depthwise_gradients_match_finite_differences() {
        let spec = ConvSpec::new(1, 1);
        let x = seq_tensor(&[1, 2, 4, 4]);
        let w = seq_tensor(&[2, 1, 3, 3]);
        let out = depthwise_forward(&x, &w, None, spec);
        let go = Tensor::ones(out.shape());
        let (gi, gw, _gb) = depthwise_backward_ws(&x, &w, &go, spec, &mut Workspace::new());
        let eps = 1e-3;
        for &flat in &[0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let num = (depthwise_forward(&xp, &w, None, spec).sum()
                - depthwise_forward(&xm, &w, None, spec).sum())
                / (2.0 * eps);
            assert!((num - gi.data()[flat]).abs() < 1e-2);
        }
        for &flat in &[0usize, 8, 12] {
            let mut wp = w.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = w.clone();
            wm.data_mut()[flat] -= eps;
            let num = (depthwise_forward(&x, &wp, None, spec).sum()
                - depthwise_forward(&x, &wm, None, spec).sum())
                / (2.0 * eps);
            assert!((num - gw.data()[flat]).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "depthwise: bias length mismatch")]
    fn depthwise_rejects_too_long_bias() {
        let x = seq_tensor(&[1, 3, 4, 4]);
        let w = seq_tensor(&[3, 1, 3, 3]);
        let _ = depthwise_forward(&x, &w, Some(&seq_tensor(&[4])), ConvSpec::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "depthwise: bias length mismatch")]
    fn depthwise_rejects_too_short_bias() {
        let x = seq_tensor(&[1, 3, 4, 4]);
        let w = seq_tensor(&[3, 1, 3, 3]);
        let _ = depthwise_forward(&x, &w, Some(&seq_tensor(&[2])), ConvSpec::new(1, 1));
    }

    #[test]
    fn stencil_ranges_match_brute_force() {
        // taps: kernel offsets landing inside the plane; sources: outputs
        // whose window covers an input pixel — both contiguous, ascending.
        for stride in 1..4 {
            for pad in 0..3 {
                for k in 1..6 {
                    for n in 1..9 {
                        if n + 2 * pad < k {
                            continue;
                        }
                        let spec = ConvSpec::new(stride, pad);
                        let st = Stencil::new(n, n, k, k, spec);
                        let on = st.out_h();
                        for o in 0..on {
                            let want: Vec<usize> = (0..k)
                                .filter(|&t| (pad..n + pad).contains(&(o * stride + t)))
                                .collect();
                            let (t0, t1) = st.taps_y(o);
                            assert_eq!(
                                (t0..t1).collect::<Vec<_>>(),
                                want,
                                "taps {spec:?} n={n} k={k} o={o}"
                            );
                        }
                        for i in 0..n {
                            let want: Vec<usize> = (0..on)
                                .filter(|&o| (o * stride..o * stride + k).contains(&(i + pad)))
                                .collect();
                            let (o0, o1) = st.sources_x(i);
                            assert_eq!(
                                (o0..o1).collect::<Vec<_>>(),
                                want,
                                "sources {spec:?} n={n} k={k} i={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn valid_single_and_adjoint_are_adjoint() {
        let img = seq_tensor(&[6, 7]);
        let ker = seq_tensor(&[3, 3]);
        let out = conv2d_valid_single(&img, &ker);
        assert_eq!(out.shape(), &[4, 5]);
        let y = Tensor::from_fn(out.shape(), |i| (i as f32 % 5.0) - 2.0);
        let lhs = out.dot(&y);
        let back = conv2d_valid_single_adjoint(&y, &ker, 6, 7);
        let rhs = img.dot(&back);
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn strided_conv_shapes() {
        let x = seq_tensor(&[2, 3, 8, 8]);
        let w = seq_tensor(&[4, 3, 3, 3]);
        let out = conv2d_forward(&x, &w, None, ConvSpec::new(2, 1));
        assert_eq!(out.shape(), &[2, 4, 4, 4]);
        let (gi, gw, gb) = conv2d_backward(&x, &w, &Tensor::ones(out.shape()), ConvSpec::new(2, 1));
        assert_eq!(gi.shape(), x.shape());
        assert_eq!(gw.shape(), w.shape());
        assert_eq!(gb.shape(), &[4]);
    }
}
