//! 2-D convolution kernels: dense ones built on im2col / col2im and one
//! wide GEMM per batch, depthwise ones on the lanes stencil
//! ([`kernels::depthwise_gather`] and its adjoint, over a [`Stencil`]),
//! which broadcasts each kernel tap over the batch and, for one image,
//! puts the channels across the lanes. SSIM's blurs run the same pair.
//!
//! # Layout
//!
//! Activations are held *images across lanes*, the batch last:
//! `[C, H, W, N]`, the `N` values of one pixel contiguous. This is the
//! layout every `usb-nn` layer passes to the next, so these kernels read
//! and write it directly and no convolution moves data between layouts:
//!
//! * dense weights: `[OC, IC, KH, KW]`; depthwise weights:
//!   `[C, 1, KH, KW]`;
//! * dense column matrices: `[C·KH·KW, OH·OW·N]`, column `(oy, ox, n)`
//!   (see [`conv2d_forward_panel_ws`]).
//!
//! Dense weights are multiplied as stored: as the `[OC, IC·KH·KW]`
//! row-major left factor of [`ops::matmul_into`] forward, and read k-major
//! by [`ops::matmul_transa_into`] for the input gradient. No kernel packs
//! or transposes a weight; the weight gradient transposes each image's
//! column matrix instead, its right operand.
//!
//! Two entry points take the image layout `[N, C, H, W]` instead,
//! [`conv2d_forward_ws`] and [`depthwise_forward_ws`]: thin wrappers that
//! move the batch across lanes with [`ops::lanes_from_images`], run the
//! lanes kernel and move the output back. Every other function here is
//! batch-last. At `N = 1` the two layouts are the same memory.
//!
//! Each convolution has one backward per thing it differentiates. The
//! input gradients ([`conv2d_input_backward_panel_ws`],
//! [`depthwise_input_backward_ws`]) return `dL/d input`, which every
//! caller needs: the defenses in this workspace optimise over the *input
//! space* (triggers, masks, universal perturbations), and training
//! chains through it. The parameter gradients ([`conv2d_backward_ws`],
//! [`depthwise_backward_ws`]) build no tensor: they **add** into
//! accumulator slices the caller hands in (a training step's gradient
//! sink), image by image in the order of a per-image loop, so training
//! bits do not depend on the layout.

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

/// Unfolds `n` images held *images across lanes* — `[C, H, W, N]`, the
/// `N` values of one pixel contiguous — into the `[C·KH·KW, OH·OW·N]`
/// column matrix `out`: row `(ch, ky, kx)`, column `(oy, ox, i)` holds the
/// tap `(ky, kx)` of channel `ch` that image `i` feeds output pixel
/// `(oy, ox)`, or `0.0` where the tap falls in the padding. With `n == 1`
/// this is the classic per-image `[C·KH·KW, OH·OW]` unfolding.
///
/// In this layout one kernel tap's in-bounds outputs along a row are one
/// contiguous run of `len · N` floats (stride 1) or `N`-float runs
/// (larger strides), so the unfolding is a few long copies rather than
/// one short copy per image. Each tap's in-bounds output ranges are
/// computed once per call, and the rows of all channels are walked under
/// them; at `n == 1` the runs are a few floats, so padding zeros and
/// strided taps are written element by element. `out` is fully overwritten, padding zeros included, so dirty
/// [`Workspace`] buffers are fine.
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
    n: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    out: &mut [f32],
) {
    assert_eq!(
        img.len(),
        c * h * w * n,
        "im2col_into: image length mismatch"
    );
    let (oh, ow) = (spec.out_size(h, kh), spec.out_size(w, kw));
    let (plane, orow) = (oh * ow * n, ow * n);
    assert_eq!(
        out.len(),
        c * kh * kw * plane,
        "im2col_into: out length mismatch"
    );
    let (s, pad) = (spec.stride, spec.pad);
    for_each_tap(
        h,
        w,
        oh,
        ow,
        kh,
        kw,
        spec,
        |ky, kx, (oy0, oy1), (ox0, ox1)| {
            for ch in 0..c {
                let row = (ch * kh + ky) * kw + kx;
                let dst = &mut out[row * plane..(row + 1) * plane];
                dst[..oy0 * orow].fill(0.0);
                dst[oy1 * orow..].fill(0.0);
                for oy in oy0..oy1 {
                    let src = &img[(ch * h + oy * s + ky - pad) * w * n..];
                    let d = &mut dst[oy * orow..(oy + 1) * orow];
                    if n == 1 {
                        let (head, rest) = d.split_at_mut(ox0);
                        let (run, tail) = rest.split_at_mut(ox1 - ox0);
                        for v in head.iter_mut().chain(tail) {
                            *v = 0.0;
                        }
                        if s == 1 {
                            let ix0 = ox0 + kx - pad;
                            run.copy_from_slice(&src[ix0..ix0 + run.len()]);
                        } else {
                            for (ox, v) in (ox0..).zip(run) {
                                *v = src[ox * s + kx - pad];
                            }
                        }
                        continue;
                    }
                    d[..ox0 * n].fill(0.0);
                    d[ox1 * n..].fill(0.0);
                    if s == 1 {
                        let ix0 = ox0 + kx - pad;
                        let len = (ox1 - ox0) * n;
                        d[ox0 * n..ox1 * n].copy_from_slice(&src[ix0 * n..ix0 * n + len]);
                    } else {
                        for ox in ox0..ox1 {
                            let ix = ox * s + kx - pad;
                            d[ox * n..(ox + 1) * n].copy_from_slice(&src[ix * n..(ix + 1) * n]);
                        }
                    }
                }
            }
        },
    );
}

/// Adjoint of [`im2col_into`]: folds a `[C·KH·KW, OH·OW·N]` column matrix
/// back into `n` images held images across lanes (`[C, H, W, N]`),
/// *summing* overlapping contributions. `out` is zeroed first (dirty
/// [`Workspace`] buffers are fine), then every element receives its
/// contributions in ascending `(ky, kx, oy, ox)` order — per image the
/// classic per-image scatter order, so the sums are bit-identical to it.
/// (Taps are walked outermost and channels inside them, as in
/// [`im2col_into`]; a channel's rows write only that channel's plane, so
/// the order each element sees is unchanged.)
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
    n: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    out: &mut [f32],
) {
    let (oh, ow) = (spec.out_size(h, kh), spec.out_size(w, kw));
    let (plane, orow) = (oh * ow * n, ow * n);
    assert_eq!(
        cols_mat.len(),
        c * kh * kw * plane,
        "col2im_into: column matrix length mismatch"
    );
    assert_eq!(out.len(), c * h * w * n, "col2im_into: out length mismatch");
    out.fill(0.0);
    let (s, pad) = (spec.stride, spec.pad);
    for_each_tap(
        h,
        w,
        oh,
        ow,
        kh,
        kw,
        spec,
        |ky, kx, (oy0, oy1), (ox0, ox1)| {
            for ch in 0..c {
                let row = (ch * kh + ky) * kw + kx;
                let src = &cols_mat[row * plane..(row + 1) * plane];
                for oy in oy0..oy1 {
                    let dst = &mut out[(ch * h + oy * s + ky - pad) * w * n..];
                    let g = &src[oy * orow..(oy + 1) * orow];
                    if s == 1 {
                        let ix0 = ox0 + kx - pad;
                        let len = (ox1 - ox0) * n;
                        add_run(&mut dst[ix0 * n..ix0 * n + len], &g[ox0 * n..ox1 * n]);
                    } else if n == 1 {
                        for ox in ox0..ox1 {
                            dst[ox * s + kx - pad] += g[ox];
                        }
                    } else {
                        for ox in ox0..ox1 {
                            let ix = ox * s + kx - pad;
                            add_run(&mut dst[ix * n..(ix + 1) * n], &g[ox * n..(ox + 1) * n]);
                        }
                    }
                }
            }
        },
    );
}

/// Calls `f(ky, kx, oy range, ox range)` for every kernel tap in
/// ascending `(ky, kx)` order, with the outputs whose tap lands inside
/// the plane. A tap that misses every column (wide kernel, large
/// padding, narrow plane) gets an empty row range too, so it has no run
/// start.
#[allow(clippy::too_many_arguments)] // flat scalar geometry
#[inline(always)]
fn for_each_tap(
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    mut f: impl FnMut(usize, usize, (usize, usize), (usize, usize)),
) {
    for ky in 0..kh {
        let rows = in_bounds(ky, h, oh, spec);
        for kx in 0..kw {
            let cols = in_bounds(kx, w, ow, spec);
            f(ky, kx, if cols.0 < cols.1 { rows } else { (0, 0) }, cols);
        }
    }
}

/// `dst[i] += src[i]`: inline, as col2im's runs are often a few floats.
#[inline(always)]
fn add_run(dst: &mut [f32], src: &[f32]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d += v;
    }
}

/// Outputs `o0..o1` (of `n_out`) whose tap `t` lands inside the plane:
/// `o·stride + t − pad ∈ 0..n_in`.
#[inline]
fn in_bounds(t: usize, n_in: usize, n_out: usize, spec: ConvSpec) -> (usize, usize) {
    let o0 = spec.pad.saturating_sub(t).div_ceil(spec.stride);
    let o1 = (n_in + spec.pad)
        .saturating_sub(t)
        .div_ceil(spec.stride)
        .min(n_out);
    (o0.min(o1), o1)
}

/// Whether a dense convolution's unfolding is the input itself: a 1×1,
/// stride-1, unpadded kernel.
fn pointwise(kh: usize, kw: usize, spec: ConvSpec) -> bool {
    (kh, kw) == (1, 1) && spec == ConvSpec::default()
}

/// The input gradient of a dense convolution, batch-last: `grad_out`
/// `[OC, OH, OW, N]` gives `dL/d input` `[IC, H, W, N]`, `h`/`w` being the
/// forward input's spatial dims. The weight, of shape `wshape`
/// (`[OC, IC, KH, KW]`), is given as its natural-order panel: the
/// row-major values, which as an `[OC, IC·KH·KW]` matrix are the k-major
/// left operand `Wᵀ@g` reads. A quantized layer passes its decoded
/// [`crate::panel::GemmWeight::natural`]. Nothing here reads the forward
/// input: no im2col of it, no weight GEMM.
///
/// The whole batch goes through **one wide GEMM** on the lanes layout
/// (see [`conv2d_forward_panel_ws`]): `Wᵀ` times the `[OC, OH·OW·N]`
/// gradient, folded by [`col2im_into`] into `[IC, H, W, N]`. For a 1×1,
/// stride-1, unpadded convolution the GEMM output already is that
/// gradient and the fold is skipped: its `0.0 + v` would change no bit,
/// since a GEMM sum starts at `+0.0` and so is never `−0.0`. Every element
/// still sums over `oc` in ascending order, and the fold adds each pixel's
/// contributions in the per-image `(ch, ky, kx, oy, ox)` order onto `0.0`,
/// so results are bit-identical to a per-image loop.
///
/// The returned gradient is built from a workspace buffer (fully
/// overwritten, so a dirty checkout is safe); callers on the hot path
/// hand it back via [`Workspace::recycle`] to keep the steady state
/// allocation-free.
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
    let (goc, oh, ow, n) = dims4(grad_out);
    assert_eq!(goc, oc, "conv2d_input_backward: channel mismatch");
    assert_eq!(
        (oh, ow),
        (spec.out_size(h, kh), spec.out_size(w, kw)),
        "conv2d_input_backward: grad_out spatial dims mismatch"
    );
    let rows = ic * kh * kw;
    let wide = oh * ow * n;
    let mut grad_cols = ws.take_dirty(rows * wide);
    ops::matmul_transa_into(natural, grad_out.data(), rows, oc, wide, &mut grad_cols);
    if pointwise(kh, kw, spec) {
        return Tensor::from_vec(grad_cols, &[ic, h, w, n]);
    }
    let mut folded = ws.take_dirty(ic * h * w * n);
    col2im_into(&grad_cols, ic, h, w, n, kh, kw, spec, &mut folded);
    ws.put(grad_cols);
    Tensor::from_vec(folded, &[ic, h, w, n])
}

/// The input gradient of a depthwise convolution, batch-last: `grad_out`
/// `[C, OH, OW, N]` gives `dL/d input` `[C, H, W, N]`, into a buffer drawn
/// from `ws`.
/// Per input pixel, `acc = 0.0`, then `acc += g·k` for every output whose
/// window covers it, in ascending `(oy, ox)` order, skipping `g == 0.0`:
/// the per-image scatter's sums, run by [`kernels::depthwise_adjoint`].
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
    let (gc, oh, ow, n) = dims4(grad_out);
    assert_eq!(gc, c, "depthwise_input_backward: channel mismatch");
    assert_eq!(
        (oh, ow),
        (spec.out_size(h, kh), spec.out_size(w, kw)),
        "depthwise_input_backward: grad_out spatial dims mismatch"
    );
    let st = Stencil::new(h, w, kh, kw, spec);
    let mut grad_input = ws.take_dirty(c * h * w * n);
    kernels::depthwise_adjoint(grad_out.data(), st, n, weight.data(), &mut grad_input, ws);
    Tensor::from_vec(grad_input, &[c, h, w, n])
}

/// Dense convolution forward pass on the image layout: `input`
/// `[N, IC, H, W]`, `weight` `[OC, IC, KH, KW]` and optional `bias`
/// `[OC]` give `[N, OC, OH, OW]`. A wrapper around
/// [`conv2d_forward_panel_ws`] that moves the batch across lanes and back
/// on every call; layers keep their activations batch-last and call the
/// lanes kernel.
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
    assert_eq!(input.ndim(), 4, "conv2d: input must be [N,IC,H,W]");
    let x = ops::lanes_from_images(input, ws);
    let y = conv2d_forward_panel_ws(&x, weight.data(), weight.shape(), bias, spec, ws);
    ws.recycle(x);
    let out = ops::images_from_lanes(&y, ws);
    ws.recycle(y);
    out
}

/// Dense convolution forward pass, batch-last: `input` `[IC, H, W, N]`
/// gives `[OC, OH, OW, N]`, on a weight of shape `wshape`
/// (`[OC, IC, KH, KW]`) given as its natural-order panel — the row-major
/// values, e.g. [`crate::panel::GemmWeight::natural`] — plus an optional
/// `bias` `[OC]`.
///
/// The batch is fused into **one wide GEMM** over a `[IC·KH·KW,
/// OH·OW·N]` column matrix: column `(oy, ox, i)` is image `i`'s receptive
/// field of output pixel `(oy, ox)`. [`im2col_into`] unfolds the input,
/// the weight, as stored, multiplies it as the `[OC, IC·KH·KW]` left
/// factor of [`ops::matmul_into`], and the `[OC, OH·OW·N]` product is the
/// output with the bias added to each channel's run. A 1×1, stride-1, unpadded
/// convolution's unfolding is the input itself, so it is one GEMM with
/// no copy either way. This is the only layout for every geometry; it is
/// chosen over image-major columns `(i, oy, ox)` because those split each
/// unfolding copy into one short run per image, which cost more than the
/// GEMM on small planes. A permutation of GEMM columns changes no
/// element's ascending-`k` dot product, so results are bit-identical to a
/// per-image loop.
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
    natural: &[f32],
    wshape: &[usize],
    bias: Option<&Tensor>,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(input.ndim(), 4, "conv2d: input must be [IC,H,W,N]");
    let (ic, h, w, n) = dims4(input);
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
    let wide = oh * ow * n;
    // The column matrix, or `None` while it is the input itself.
    let cols_mat = (!pointwise(kh, kw, spec)).then(|| {
        let mut unfolded = ws.take_dirty(rows * wide);
        im2col_into(input.data(), ic, h, w, n, kh, kw, spec, &mut unfolded);
        unfolded
    });
    let mut out = ws.take_dirty(oc * wide);
    let x = cols_mat.as_deref().unwrap_or(input.data());
    ops::matmul_into(natural, x, oc, rows, wide, &mut out);
    if let Some(t) = cols_mat {
        ws.put(t);
    }
    if let Some(b) = bias {
        for (run, &bv) in out.chunks_exact_mut(wide).zip(b.data()) {
            for v in run {
                *v += bv;
            }
        }
    }
    Tensor::from_vec(out, &[oc, oh, ow, n])
}

/// Adds a dense convolution's parameter gradients into the caller's
/// accumulators, batch-last: for `grad_out = dL/d output` `[OC, OH, OW, N]`
/// of `input` `[IC, H, W, N]` under a weight of shape `wshape`
/// (`[OC, IC, KH, KW]`), `grad_weight` (that many floats) receives
/// `Σ_i grad_out_i · im2col(x_i)ᵀ` and `grad_bias` (`[OC]`; `None` for a
/// bias-free layer, which skips the sums) `Σ_i rowsum(grad_out_i)`.
///
/// Image by image, as a per-image loop sums them: image `i`'s lane of the
/// input and of `grad_out` is gathered with a stride-`N` walk into one
/// image-sized buffer each, and its column matrix is unfolded and
/// transposed to `[OH·OW, IC·KH·KW]`, so `grad_out_i @ colsᵀ` is one
/// [`ops::matmul_into`] with `grad_out_i` the left factor, added onto
/// `grad_weight`. Trained weights therefore do not depend on the layout.
/// An accumulator that starts at `+0.0` ends as the sum a zeroed
/// temporary would have held. The lane / im2col / transpose / GEMM
/// scratch buffers come from `ws`, so a training loop holding one
/// workspace across steps allocates nothing after its first step.
///
/// # Panics
///
/// Panics on any rank, shape or accumulator-length mismatch.
pub fn conv2d_backward_ws(
    input: &Tensor,
    grad_out: &Tensor,
    wshape: &[usize],
    spec: ConvSpec,
    grad_weight: &mut [f32],
    mut grad_bias: Option<&mut [f32]>,
    ws: &mut Workspace,
) {
    let (ic, h, w, n) = dims4(input);
    let (oc, _, kh, kw) = shape4(wshape);
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    assert_eq!(
        grad_out.shape(),
        &[oc, oh, ow, n],
        "conv2d_backward: grad_out shape mismatch"
    );
    let rows = ic * kh * kw;
    let cols = oh * ow;
    assert_eq!(
        grad_weight.len(),
        oc * rows,
        "conv2d_backward: weight accumulator length mismatch"
    );
    assert!(
        grad_bias.as_deref().is_none_or(|gb| gb.len() == oc),
        "conv2d_backward: bias accumulator length mismatch"
    );
    let mut img = ws.take_dirty(ic * h * w);
    let mut go = ws.take_dirty(oc * cols);
    let mut cols_buf = ws.take_dirty(rows * cols);
    let mut cols_t = ws.take_dirty(cols * rows);
    let mut gw_buf = ws.take_dirty(oc * rows);
    for i in 0..n {
        lane_into(input.data(), n, i, &mut img);
        lane_into(grad_out.data(), n, i, &mut go);
        im2col_into(&img, ic, h, w, 1, kh, kw, spec, &mut cols_buf);
        // dL/dW += grad_out_i @ cols^T
        kernels::transpose(&cols_buf, rows, cols, &mut cols_t);
        ops::matmul_into(&go, &cols_t, oc, cols, rows, &mut gw_buf);
        kernels::add_assign(grad_weight, &gw_buf);
        // dL/dbias += row sums
        if let Some(gb) = grad_bias.as_deref_mut() {
            for (acc, row) in gb.iter_mut().zip(go.chunks_exact(cols)) {
                *acc += row.iter().sum::<f32>();
            }
        }
    }
    ws.put(img);
    ws.put(go);
    ws.put(cols_buf);
    ws.put(cols_t);
    ws.put(gw_buf);
}

/// Image `i` of the batch-last `src` (`N` lanes per pixel) into the
/// image-layout `dst`: every `N`-th float from lane `i`.
fn lane_into(src: &[f32], n: usize, i: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len() * n, "lane_into: length mismatch");
    for (d, &v) in dst.iter_mut().zip(src[i..].iter().step_by(n)) {
        *d = v;
    }
}

/// Depthwise convolution forward pass on the image layout: each channel
/// of `input` `[N, C, H, W]` is convolved with its own `[1, KH, KW]`
/// kernel of `weight` `[C, 1, KH, KW]`, plus optional `bias` `[C]`. A
/// wrapper that moves the batch across lanes, runs
/// [`depthwise_forward_lanes_ws`] and moves the output back.
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
    let x = ops::lanes_from_images(input, ws);
    let y = depthwise_forward_lanes_ws(&x, weight, bias, spec, ws);
    ws.recycle(x);
    let out = ops::images_from_lanes(&y, ws);
    ws.recycle(y);
    out
}

/// Depthwise convolution forward pass, batch-last: `input` `[C, H, W, N]`
/// gives `[C, OH, OW, N]`, into an output buffer drawn from `ws`. Per
/// output, `acc = bias`, then `acc += x·k` over the in-bounds taps in
/// ascending `(ky, kx)` order, run by [`kernels::depthwise_gather`].
///
/// The gather fully overwrites the output, so a dirty workspace buffer is
/// fine; recycling the returned tensor keeps steady-state inference
/// allocation-free.
///
/// # Panics
///
/// Panics on rank, channel or bias-length mismatches.
pub fn depthwise_forward_lanes_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: ConvSpec,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(input.ndim(), 4, "depthwise: input must be [C,H,W,N]");
    assert_eq!(weight.ndim(), 4, "depthwise: weight must be [C,1,KH,KW]");
    let (c, h, w, n) = dims4(input);
    let (wc, one, kh, kw) = dims4(weight);
    assert_eq!(c, wc, "depthwise: channel mismatch {c} vs {wc}");
    assert_eq!(one, 1, "depthwise: weight second dim must be 1");
    if let Some(b) = bias {
        assert_eq!(b.len(), c, "depthwise: bias length mismatch");
    }
    let st = Stencil::new(h, w, kh, kw, spec);
    let (oh, ow) = (st.out_h(), st.out_w());
    let mut out = ws.take_dirty(c * oh * ow * n);
    let (x, k, b) = (input.data(), weight.data(), bias.map(Tensor::data));
    kernels::depthwise_gather(x, st, n, k, b, &mut out, ws);
    Tensor::from_vec(out, &[c, oh, ow, n])
}

/// Adds a depthwise convolution's weight gradient into the caller's
/// accumulator, batch-last: for `grad_out` `[C, OH, OW, N]` of `input`
/// `[C, H, W, N]` under a weight of shape `wshape` (`[C, 1, KH, KW]`),
/// `grad_weight` (that many floats) receives, per weight tap, `g·x` from
/// every output the tap feeds, in ascending `(image, oy, ox)` order,
/// skipping `g == 0.0`: a walk of stride `N` through the lanes, in the
/// per-image loop's order.
///
/// # Panics
///
/// Panics on rank, shape or accumulator-length mismatches.
pub fn depthwise_backward_ws(
    input: &Tensor,
    grad_out: &Tensor,
    wshape: &[usize],
    spec: ConvSpec,
    grad_weight: &mut [f32],
) {
    let (c, h, w, n) = dims4(input);
    let (_, _, kh, kw) = shape4(wshape);
    let st = Stencil::new(h, w, kh, kw, spec);
    let (oh, ow) = (st.out_h(), st.out_w());
    assert_eq!(
        grad_out.shape(),
        &[c, oh, ow, n],
        "depthwise_backward: grad_out shape mismatch"
    );
    assert_eq!(
        grad_weight.len(),
        c * kh * kw,
        "depthwise_backward: weight accumulator length mismatch"
    );
    let id = input.data();
    let god = grad_out.data();
    for i in 0..n {
        for (ch, gw) in grad_weight.chunks_exact_mut(kh * kw).enumerate() {
            // Pixel `j` of image `i` in channel `ch`'s input and output.
            let img = |j: usize| id[(ch * h * w + j) * n + i];
            let go = |j: usize| god[(ch * oh * ow + j) * n + i];
            for oy in 0..oh {
                let (ky0, ky1) = st.taps_y(oy);
                for ox in 0..ow {
                    let g = go(oy * ow + ox);
                    if g == 0.0 {
                        continue;
                    }
                    let (kx0, kx1) = st.taps_x(ox);
                    for ky in ky0..ky1 {
                        let row = (oy * spec.stride + ky - spec.pad) * w;
                        for kx in kx0..kx1 {
                            gw[ky * kw + kx] += g * img(row + ox * spec.stride + kx - spec.pad);
                        }
                    }
                }
            }
        }
    }
}

/// Geometry of a *stencil*: `[H, W]` planes, each convolved
/// (cross-correlated) with a `[KH, KW]` kernel under one [`ConvSpec`].
/// Depthwise convolution (one kernel per channel) and SSIM's gaussian
/// blurs (one shared window over every image plane) are both this shape.
///
/// Two kernels run over it, each with a fixed per-element op sequence that
/// both kernel tiers reproduce bit for bit:
///
/// * [`kernels::depthwise_gather`] — `out = bias`, then `out += x·k` over
///   the in-bounds taps in ascending `(ky, kx)` order;
/// * [`kernels::depthwise_adjoint`] — its adjoint: every input pixel
///   starts at `0.0` and receives `g·k` from each output whose window
///   covers it, in ascending `(oy, ox)` order, skipping `g == 0.0`.
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

    /// Image-layout `x` and `go` moved across lanes, and the spatial dims
    /// of `x`.
    fn lanes_of(x: &Tensor, go: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor, usize, usize) {
        let (h, w) = (x.shape()[2], x.shape()[3]);
        (
            ops::lanes_from_images(x, ws),
            ops::lanes_from_images(go, ws),
            h,
            w,
        )
    }

    /// A dense conv's gradients on image-layout `x` and `go`: the input
    /// gradient (image layout) and the weight and bias gradients summed
    /// onto zeroed accumulators.
    fn conv2d_backward(
        x: &Tensor,
        w: &Tensor,
        go: &Tensor,
        spec: ConvSpec,
    ) -> (Tensor, Tensor, Tensor) {
        let mut ws = Workspace::new();
        let (xl, gl, h, wd) = lanes_of(x, go, &mut ws);
        let gi = conv2d_input_backward_panel_ws(w.data(), w.shape(), &gl, h, wd, spec, &mut ws);
        let mut gw = Tensor::zeros(w.shape());
        let mut gb = Tensor::zeros(&[w.shape()[0]]);
        let (acc_w, acc_b) = (gw.data_mut(), Some(gb.data_mut()));
        conv2d_backward_ws(&xl, &gl, w.shape(), spec, acc_w, acc_b, &mut ws);
        (ops::images_from_lanes(&gi, &mut ws), gw, gb)
    }

    /// [`conv2d_backward`] for a depthwise conv, which has no bias.
    fn depthwise_backward(x: &Tensor, w: &Tensor, go: &Tensor, spec: ConvSpec) -> (Tensor, Tensor) {
        let mut ws = Workspace::new();
        let (xl, gl, h, wd) = lanes_of(x, go, &mut ws);
        let gi = depthwise_input_backward_ws(w, &gl, h, wd, spec, &mut ws);
        let mut gw = Tensor::zeros(w.shape());
        depthwise_backward_ws(&xl, &gl, w.shape(), spec, gw.data_mut());
        (ops::images_from_lanes(&gi, &mut ws), gw)
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
        // true adjoint, which is exactly what backprop needs — for one
        // image and for three across lanes.
        for n in [1, 3] {
            let spec = ConvSpec::new(2, 1);
            let x = seq_tensor(&[2, 5, 5, n]);
            let mut cols_mat = vec![0.0; 2 * 9 * 9 * n];
            im2col_into(x.data(), 2, 5, 5, n, 3, 3, spec, &mut cols_mat);
            let y = Tensor::from_fn(&[cols_mat.len()], |i| ((i * 13 % 7) as f32) - 3.0);
            let lhs = Tensor::from_vec(cols_mat, &[y.len()]).dot(&y);
            let mut folded = vec![0.0; x.len()];
            col2im_into(y.data(), 2, 5, 5, n, 3, 3, spec, &mut folded);
            let rhs = x.dot(&Tensor::from_vec(folded, x.shape()));
            assert!((lhs - rhs).abs() < 1e-3, "n={n}: lhs={lhs} rhs={rhs}");
        }
    }

    #[test]
    fn in_bounds_matches_brute_force() {
        for stride in 1..4 {
            for pad in 0..3 {
                for t in 0..6 {
                    for n_in in 1..9 {
                        let spec = ConvSpec::new(stride, pad);
                        let n_out = 7;
                        let want: Vec<usize> = (0..n_out)
                            .filter(|&o| (pad..n_in + pad).contains(&(o * stride + t)))
                            .collect();
                        let (o0, o1) = in_bounds(t, n_in, n_out, spec);
                        assert_eq!(
                            (o0..o1).collect::<Vec<_>>(),
                            want,
                            "{spec:?} t={t} n={n_in}"
                        );
                    }
                }
            }
        }
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
        let (gi, gw) = depthwise_backward(&x, &w, &go, spec);
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
    fn valid_stencil_gather_and_adjoint_are_adjoint() {
        // SSIM's shape: one shared window (`C = 1`) over three planes
        // held as lanes, `[H, W, planes]`.
        let img = seq_tensor(&[6, 7, 3]);
        let ker = seq_tensor(&[3, 3]);
        let st = Stencil::new(6, 7, 3, 3, ConvSpec::new(1, 0));
        assert_eq!((st.out_h(), st.out_w()), (4, 5));
        let mut ws = Workspace::new();
        let mut out = vec![0.0f32; 4 * 5 * 3];
        kernels::depthwise_gather(img.data(), st, 3, ker.data(), None, &mut out, &mut ws);
        let y = Tensor::from_fn(&[4, 5, 3], |i| (i as f32 % 5.0) - 2.0);
        let lhs = Tensor::from_vec(out, &[4, 5, 3]).dot(&y);
        let mut back = vec![0.0f32; 6 * 7 * 3];
        kernels::depthwise_adjoint(y.data(), st, 3, ker.data(), &mut back, &mut ws);
        let rhs = img.dot(&Tensor::from_vec(back, &[6, 7, 3]));
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
