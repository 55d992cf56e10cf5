//! Bit-accuracy suite for the register-blocked GEMM and conv kernels.
//!
//! Every optimised `_into`/`_ws` kernel in `usb_tensor` carries the same
//! contract: each output element is produced by the **same float
//! operations in the same (ascending-`k`) order** as a naive
//! triple-loop, so results are bit-identical — that is what keeps every
//! detection verdict stable across kernel rewrites. This suite pins the
//! contract with property tests over odd and degenerate shapes (sizes
//! straddling the `MR`×`NR` register tile, single rows/columns,
//! non-multiples), dirty workspace buffers, warm decoded weights, and the
//! batched conv paths against their per-image equivalents.

use proptest::prelude::*;
use usb_tensor::conv::{
    col2im_into, conv2d_backward_ws, conv2d_forward_ws, conv2d_input_backward_panel_ws,
    depthwise_backward_ws, depthwise_forward_ws, depthwise_input_backward_ws, im2col_into,
    ConvSpec, Stencil,
};
use usb_tensor::panel::GemmWeight;
use usb_tensor::quant::{f16_decode, Q8_BLOCK};
use usb_tensor::{kernels, ops, Dtype, QTensor, Tensor, Workspace};

// ---------------------------------------------------------------------------
// Naive references: the ascending-k accumulation the kernels must reproduce.
// ---------------------------------------------------------------------------

fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn naive_matmul_transa(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    // a is [k, m] column-major-for-the-product: out = aᵀ b.
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[kk * m + i] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn naive_matmul_transb(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    // b is [n, k]: out = a bᵀ.
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[j * k + kk];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn naive_im2col(
    img: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) -> Vec<f32> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cols = oh * ow;
    let mut out = vec![0.0f32; c * kh * kw * cols];
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            out[row * cols + oy * ow + ox] =
                                img[ch * h * w + iy as usize * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Adjoint scatter in the exact (channel, ky, kx, oy, ox) order of
/// `col2im_into` — overlapping contributions must sum in the same order for
/// bit equality.
fn naive_col2im(
    cols_mat: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) -> Vec<f32> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let cols = oh * ow;
    let mut out = vec![0.0f32; c * h * w];
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            out[ch * h * w + iy as usize * w + ix as usize] +=
                                cols_mat[row * cols + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Image `i` of `n` held across lanes (`[.., N]`): every `n`-th value.
fn lane(lanes: &[f32], n: usize, i: usize) -> Vec<f32> {
    lanes.iter().skip(i).step_by(n).copied().collect()
}

/// Inverse of [`lane`]: `n` equal-length images interleaved across lanes.
fn across_lanes(images: &[Vec<f32>]) -> Vec<f32> {
    let n = images.len();
    let mut out = vec![0.0f32; n * images[0].len()];
    for (i, img) in images.iter().enumerate() {
        for (j, &v) in img.iter().enumerate() {
            out[j * n + i] = v;
        }
    }
    out
}

/// From-scratch byte-level decode of a quantized payload, independent of
/// `QTensor::dequantize_into`: f16 words through the scalar decoder, Q8
/// blocks as `scale * i8` in block order.
fn naive_decode(q: &QTensor) -> Vec<f32> {
    let bytes = q.bytes();
    let len = q.len();
    match q.dtype() {
        Dtype::F32 => unreachable!("dense tensors never enter the quantized codec"),
        Dtype::F16 => bytes
            .chunks_exact(2)
            .take(len)
            .map(|c| f16_decode(u16::from_le_bytes([c[0], c[1]])))
            .collect(),
        Dtype::Q8 => {
            let mut out = Vec::with_capacity(len);
            for block in bytes.chunks_exact(4 + Q8_BLOCK) {
                let scale = f32::from_le_bytes(block[..4].try_into().expect("scale word"));
                for &b in &block[4..] {
                    if out.len() == len {
                        break;
                    }
                    out.push(scale * (b as i8) as f32);
                }
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Planar-stencil oracles: the per-output loops depthwise convolution and
// SSIM ran before the stencil kernels, kept verbatim.
// ---------------------------------------------------------------------------

/// The historical `conv_single_into` (one plane, one kernel): a tight
/// loop for the unpadded case, bounds-checked taps otherwise, the same
/// ascending `(ky, kx)` accumulation in both.
#[allow(clippy::too_many_arguments)]
fn naive_conv_single_into(
    img: &[f32],
    h: usize,
    w: usize,
    ker: &[f32],
    kh: usize,
    kw: usize,
    spec: ConvSpec,
    bias: f32,
    out: &mut [f32],
) {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    debug_assert_eq!(out.len(), oh * ow);
    if spec.pad == 0 {
        for oy in 0..oh {
            let iy0 = oy * spec.stride;
            for ox in 0..ow {
                let ix0 = ox * spec.stride;
                let mut acc = bias;
                for ky in 0..kh {
                    let irow = &img[(iy0 + ky) * w + ix0..(iy0 + ky) * w + ix0 + kw];
                    for (&iv, &kv) in irow.iter().zip(&ker[ky * kw..(ky + 1) * kw]) {
                        acc += iv * kv;
                    }
                }
                out[oy * ow + ox] = acc;
            }
        }
        return;
    }
    for oy in 0..oh {
        for ox in 0..ow {
            let mut acc = bias;
            for ky in 0..kh {
                let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..kw {
                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    acc += img[iy as usize * w + ix as usize] * ker[ky * kw + kx];
                }
            }
            out[oy * ow + ox] = acc;
        }
    }
}

/// The historical `depthwise_forward_ws` loop: one `conv_single_into` per
/// (image, channel) plane.
#[allow(clippy::too_many_arguments)]
fn naive_depthwise_forward(
    id: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    wd: &[f32],
    kh: usize,
    kw: usize,
    bias: Option<&[f32]>,
    spec: ConvSpec,
) -> Vec<f32> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let mut out = vec![0.0f32; n * c * oh * ow];
    for i in 0..n {
        for ch in 0..c {
            let img = &id[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            let ker = &wd[ch * kh * kw..(ch + 1) * kh * kw];
            let bv = bias.map(|b| b[ch]).unwrap_or(0.0);
            let o = &mut out[(i * c + ch) * oh * ow..(i * c + ch + 1) * oh * ow];
            naive_conv_single_into(img, h, w, ker, kh, kw, spec, bv, o);
        }
    }
    out
}

/// The historical `depthwise_input_backward_ws` scatter: per output in
/// ascending `(oy, ox)`, skip zero gradients, add `g·k` onto every
/// in-bounds window pixel of a zeroed plane.
#[allow(clippy::too_many_arguments)]
fn naive_depthwise_input_backward(
    wd: &[f32],
    kh: usize,
    kw: usize,
    god: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    spec: ConvSpec,
) -> Vec<f32> {
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let mut grad_input = vec![0.0f32; n * c * h * w];
    for i in 0..n {
        for ch in 0..c {
            let ker = &wd[ch * kh * kw..(ch + 1) * kh * kw];
            let go = &god[(i * c + ch) * oh * ow..(i * c + ch + 1) * oh * ow];
            let gi = &mut grad_input[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let pix = iy as usize * w + ix as usize;
                            gi[pix] += g * ker[ky * kw + kx];
                        }
                    }
                }
            }
        }
    }
    grad_input
}

/// The historical `conv_valid_adjoint_into` (SSIM's adjoint blur).
#[allow(clippy::too_many_arguments)]
fn naive_valid_adjoint_into(
    grad: &[f32],
    oh: usize,
    ow: usize,
    ker: &[f32],
    kh: usize,
    kw: usize,
    w: usize,
    out: &mut [f32],
) {
    out.fill(0.0);
    for oy in 0..oh {
        for ox in 0..ow {
            let g = grad[oy * ow + ox];
            if g == 0.0 {
                continue;
            }
            for ky in 0..kh {
                for kx in 0..kw {
                    out[(oy + ky) * w + (ox + kx)] += g * ker[ky * kw + kx];
                }
            }
        }
    }
}

/// Stencil operand soup: proptest values salted with exact `±0.0` (the
/// adjoint's skip guard), subnormals, and — when `nan_every` is nonzero —
/// one NaN payload every `nan_every` elements (quiet and signalling
/// alternately). Payloads are spaced so that no two distinct NaNs meet in
/// one sum: which operand's payload survives a NaN+NaN add is not pinned
/// by IEEE-754, while a single NaN flows through both tiers identically.
fn stencil_soup(vals: &[f32], len: usize, salt: usize, nan_every: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let j = i + salt;
            if nan_every > 0 && j % nan_every == nan_every / 2 {
                if (j / nan_every).is_multiple_of(2) {
                    f32::from_bits(0x7FC0_1234 | ((j as u32 & 0xFF) << 4))
                } else {
                    f32::from_bits(0x7F80_0101)
                }
            } else {
                match j % 9 {
                    0 => 0.0,
                    4 => -0.0,
                    7 => {
                        f32::from_bits(0x0000_3C00 + j as u32)
                            * if j.is_multiple_of(2) { 1.0 } else { -1.0 }
                    }
                    _ => vals[j % vals.len()] + 0.01 * (j % 5) as f32,
                }
            }
        })
        .collect()
}

/// A workspace whose pool is pre-seeded with NaN-filled buffers, so any
/// kernel that forgets to overwrite (or pre-zero) its checkout fails loudly.
fn dirty_workspace() -> Workspace {
    let mut ws = Workspace::new();
    for _ in 0..4 {
        ws.put(vec![f32::NAN; 4096]);
    }
    ws
}

/// A batch-last kernel run on an image-layout operand: `x` moved across
/// lanes, the result moved back.
fn on_lanes(
    x: &Tensor,
    ws: &mut Workspace,
    kernel: impl FnOnce(&Tensor, &mut Workspace) -> Tensor,
) -> Tensor {
    let lanes = ops::lanes_from_images(x, ws);
    let out = kernel(&lanes, ws);
    ws.recycle(lanes);
    let images = ops::images_from_lanes(&out, ws);
    ws.recycle(out);
    images
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: bit drift at flat index {i}: {g} vs {w}"
        );
    }
}

fn tensor_from(vals: &[f32], len: usize, lo: f32) -> Vec<f32> {
    (0..len)
        .map(|i| vals[i % vals.len()] + lo * (i as f32 % 3.0))
        .collect()
}

/// One dense convolution's shape: batch, channels, kernel, input plane.
#[derive(Clone, Copy, Debug)]
struct ConvGeom {
    n: usize,
    ic: usize,
    oc: usize,
    kh: usize,
    kw: usize,
    h: usize,
    w: usize,
    spec: ConvSpec,
}

/// `conv2d_forward_ws` against per-image naive im2col + matmul + bias,
/// on a dirty workspace and again on the warm one.
fn check_conv_forward(g: ConvGeom, with_bias: bool, vals: &[f32]) {
    let ConvGeom {
        n,
        ic,
        oc,
        kh,
        kw,
        h,
        w,
        spec,
    } = g;
    let input = Tensor::from_vec(tensor_from(vals, n * ic * h * w, 0.02), &[n, ic, h, w]);
    let weight = Tensor::from_vec(
        tensor_from(vals, oc * ic * kh * kw, -0.01),
        &[oc, ic, kh, kw],
    );
    let bias = Tensor::from_vec(tensor_from(vals, oc, 0.04), &[oc]);
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let rows = ic * kh * kw;
    let cols = oh * ow;

    // Per-image reference: unfold, W @ cols (ascending k), add bias.
    let mut want = Vec::with_capacity(n * oc * cols);
    for i in 0..n {
        let img = &input.data()[i * ic * h * w..(i + 1) * ic * h * w];
        let unfolded = naive_im2col(img, ic, h, w, kh, kw, spec);
        let prod = naive_matmul(weight.data(), &unfolded, oc, rows, cols);
        for ch in 0..oc {
            for col in 0..cols {
                let b = if with_bias { bias.data()[ch] } else { 0.0 };
                want.push(prod[ch * cols + col] + b);
            }
        }
    }

    let mut ws = dirty_workspace();
    for round in 0..2 {
        // Round 1 reruns on the warm pool.
        let got = conv2d_forward_ws(&input, &weight, with_bias.then_some(&bias), spec, &mut ws);
        assert_eq!(got.shape(), &[n, oc, oh, ow]);
        assert_bits_eq(
            got.data(),
            &want,
            &format!("conv forward {g:?} (round {round})"),
        );
        ws.recycle(got);
    }
}

/// `conv2d_input_backward_panel_ws` against per-image naive Wᵀ@g + fold.
fn check_conv_input_backward(g: ConvGeom, vals: &[f32]) {
    let ConvGeom {
        n,
        ic,
        oc,
        kh,
        kw,
        h,
        w,
        spec,
    } = g;
    let weight = Tensor::from_vec(
        tensor_from(vals, oc * ic * kh * kw, 0.03),
        &[oc, ic, kh, kw],
    );
    let oh = spec.out_size(h, kh);
    let ow = spec.out_size(w, kw);
    let rows = ic * kh * kw;
    let cols = oh * ow;
    let grad_out = Tensor::from_vec(tensor_from(vals, n * oc * cols, -0.02), &[n, oc, oh, ow]);

    let mut want = Vec::with_capacity(n * ic * h * w);
    for i in 0..n {
        let go = &grad_out.data()[i * oc * cols..(i + 1) * oc * cols];
        // Wᵀ @ g: weight is [oc, rows] row-major, so transa over oc.
        let gcols = naive_matmul_transa(weight.data(), go, rows, oc, cols);
        want.extend_from_slice(&naive_col2im(&gcols, ic, h, w, kh, kw, spec));
    }

    let mut ws = dirty_workspace();
    for round in 0..2 {
        let got = on_lanes(&grad_out, &mut ws, |g, ws| {
            conv2d_input_backward_panel_ws(weight.data(), weight.shape(), g, h, w, spec, ws)
        });
        assert_eq!(got.shape(), &[n, ic, h, w]);
        assert_bits_eq(
            got.data(),
            &want,
            &format!("conv input backward {g:?} (round {round})"),
        );
        ws.recycle(got);
    }
}

/// `conv2d_backward_ws`'s weight and bias gradients on a batch-last input
/// against the per-image naive sums `Σ_i go_i · im2col(x_i)ᵀ` and
/// `Σ_i rowsum(go_i)`, added image by image in ascending order onto
/// non-zero accumulators (the kernel adds into them, it does not
/// overwrite), on a dirty workspace and again on the warm one. Without a
/// bias accumulator only the weight sums run.
fn check_conv_weight_backward(g: ConvGeom, with_bias: bool, vals: &[f32]) {
    let ConvGeom {
        n,
        ic,
        oc,
        kh,
        kw,
        h,
        w,
        spec,
    } = g;
    let (oh, ow) = (spec.out_size(h, kh), spec.out_size(w, kw));
    let rows = ic * kh * kw;
    let cols = oh * ow;
    let input = Tensor::from_vec(tensor_from(vals, ic * h * w * n, 0.02), &[ic, h, w, n]);
    let grad_out = Tensor::from_vec(tensor_from(vals, oc * cols * n, 0.03), &[oc, oh, ow, n]);
    let start_w = tensor_from(vals, oc * rows, -0.01);
    let start_b = tensor_from(vals, oc, 0.05);

    let (mut want_w, mut want_b) = (start_w.clone(), start_b.clone());
    for i in 0..n {
        let unfolded = naive_im2col(&lane(input.data(), n, i), ic, h, w, kh, kw, spec);
        let go = lane(grad_out.data(), n, i);
        let gw = naive_matmul_transb(&go, &unfolded, oc, cols, rows);
        for (acc, v) in want_w.iter_mut().zip(gw) {
            *acc += v;
        }
        for (acc, row) in want_b.iter_mut().zip(go.chunks_exact(cols)) {
            *acc += row.iter().sum::<f32>();
        }
    }

    let mut ws = dirty_workspace();
    for round in 0..2 {
        let (mut got_w, mut got_b) = (start_w.clone(), start_b.clone());
        let acc_b = with_bias.then_some(&mut got_b[..]);
        conv2d_backward_ws(
            &input,
            &grad_out,
            &[oc, ic, kh, kw],
            spec,
            &mut got_w,
            acc_b,
            &mut ws,
        );
        let what = format!("{g:?} (round {round})");
        assert_bits_eq(&got_w, &want_w, &format!("conv weight gradient {what}"));
        let want_b = if with_bias { &want_b } else { &start_b };
        assert_bits_eq(&got_b, want_b, &format!("conv bias gradient {what}"));
    }
}

/// The historical per-image depthwise weight gradient: per image and
/// channel, every output in ascending `(oy, ox)`, skipping zero
/// gradients, adds `g·x` onto each in-bounds tap of `acc`.
fn naive_depthwise_weight_backward(
    id: &[f32],
    god: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    k: usize,
    spec: ConvSpec,
    acc: &mut [f32],
) {
    let (oh, ow) = (spec.out_size(h, k), spec.out_size(w, k));
    for i in 0..n {
        for ch in 0..c {
            let img = &id[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
            let go = &god[(i * c + ch) * oh * ow..(i * c + ch + 1) * oh * ow];
            let gw = &mut acc[ch * k * k..(ch + 1) * k * k];
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ky in 0..k {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            gw[ky * k + kx] += g * img[iy as usize * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
}

/// `depthwise_backward_ws` against the per-image naive sum, bit for bit:
/// batches 1–17 across lanes, the MBConv kernels (3×3 and 5×5, padded
/// `k / 2`) at strides 1 and 2, planes from 1 to 9 wide (where taps miss
/// whole rows), inputs and gradients salted with exact `±0.0` and
/// subnormals, added onto non-zero accumulators.
#[test]
fn depthwise_weight_gradient_matches_per_image_naive() {
    let vals = [0.5, -1.25, 0.75, -0.0, 1.5, -0.5, 0.25];
    let c = 3;
    let mut ws = Workspace::new();
    for n in 1..=17 {
        for k in [3, 5] {
            for stride in [1, 2] {
                for (h, w) in [(1, 2), (4, 4), (5, 7), (9, 6)] {
                    let spec = ConvSpec::new(stride, k / 2);
                    let (oh, ow) = (spec.out_size(h, k), spec.out_size(w, k));
                    let input =
                        Tensor::from_vec(stencil_soup(&vals, n * c * h * w, n, 0), &[n, c, h, w]);
                    let grad_out = Tensor::from_vec(
                        stencil_soup(&vals, n * c * oh * ow, 2 * n + 1, 0),
                        &[n, c, oh, ow],
                    );
                    let start = tensor_from(&vals, c * k * k, 0.03);
                    let mut want = start.clone();
                    let dims = (n, c, h, w);
                    naive_depthwise_weight_backward(
                        input.data(),
                        grad_out.data(),
                        dims,
                        k,
                        spec,
                        &mut want,
                    );
                    let (xl, gl) = (
                        ops::lanes_from_images(&input, &mut ws),
                        ops::lanes_from_images(&grad_out, &mut ws),
                    );
                    let mut got = start;
                    depthwise_backward_ws(&xl, &gl, &[c, 1, k, k], spec, &mut got);
                    let what = format!("depthwise weight gradient n={n} k={k} s={stride} {h}x{w}");
                    assert_bits_eq(&got, &want, &what);
                    ws.recycle(xl);
                    ws.recycle(gl);
                }
            }
        }
    }
}

/// Every batch-size class (one image, ragged and full 8-image groups)
/// against every geometry class the kernels branch on — pointwise 1×1,
/// strided 1×1 shortcuts, padded 3×3 and 5×5 at strides 1 and 2, padded
/// 7×7 at stride 1 — on planes from 1 to 20 wide, with exact `±0.0`
/// gradients. On planes 1–2 wide the 5×5 and 7×7 kernels have taps that
/// miss every column.
#[test]
fn batched_conv_geometry_grid_matches_per_image_naive() {
    let vals = [0.0, -0.0, 0.75, -1.25, 0.5, -0.0, 1.5, -0.5, 0.25];
    for n in [1, 2, 8, 9, 16, 17] {
        for (k, stride, pad) in [
            (1, 1, 0),
            (1, 2, 0),
            (3, 1, 1),
            (3, 2, 1),
            (5, 1, 2),
            (5, 2, 2),
            (7, 1, 3),
        ] {
            for side in [1, 2, 3, 6, 12, 20] {
                let geom = ConvGeom {
                    n,
                    ic: 3,
                    oc: 5,
                    kh: k,
                    kw: k,
                    h: side,
                    w: side,
                    spec: ConvSpec::new(stride, pad),
                };
                if side + 2 * pad < k {
                    continue;
                }
                check_conv_forward(geom, n % 2 == 0, &vals);
                check_conv_input_backward(geom, &vals);
                check_conv_weight_backward(geom, n % 2 == 1, &vals);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two GEMM orientations against their naive triple loops, over
    /// shapes straddling the MR×NR register tile (1×1 up past 17,
    /// non-multiples of 4 and 8 included), on dirty workspace buffers.
    #[test]
    fn gemm_kernels_match_naive_bitwise(
        m in 1usize..18,
        k in 1usize..20,
        n in 1usize..18,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let a = tensor_from(&vals, m * k, 0.01);
        let b = tensor_from(&vals, k * n, -0.02);
        let at = tensor_from(&vals, k * m, -0.04);
        let mut ws = dirty_workspace();

        let mut out = ws.take_dirty(m * n);
        ops::matmul_into(&a, &b, m, k, n, &mut out);
        assert_bits_eq(&out, &naive_matmul(&a, &b, m, k, n), "matmul_into");

        ops::matmul_transa_into(&at, &b, m, k, n, &mut out);
        assert_bits_eq(&out, &naive_matmul_transa(&at, &b, m, k, n), "matmul_transa_into");
    }

    /// Unfold and fold against their naive per-image scatter loops,
    /// including strides and padding that push kernel taps out of bounds,
    /// for one image and for several held across lanes.
    #[test]
    fn im2col_col2im_match_naive_bitwise(
        c in 1usize..4,
        n in 1usize..4,
        kh in 1usize..4,
        kw in 1usize..4,
        extra_h in 0usize..6,
        extra_w in 0usize..6,
        stride in 1usize..3,
        pad in 0usize..3,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let (h, w) = (kh + extra_h, kw + extra_w);
        let spec = ConvSpec::new(stride, pad);
        let img = tensor_from(&vals, c * h * w * n, 0.05);
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let rows = c * kh * kw;
        let cols = oh * ow;

        let mut ws = dirty_workspace();
        let mut unfolded = ws.take_dirty(rows * cols * n);
        im2col_into(&img, c, h, w, n, kh, kw, spec, &mut unfolded);
        let want: Vec<Vec<f32>> = (0..n)
            .map(|i| naive_im2col(&lane(&img, n, i), c, h, w, kh, kw, spec))
            .collect();
        assert_bits_eq(&unfolded, &across_lanes(&want), "im2col_into");

        let cols_mat = tensor_from(&vals, rows * cols * n, -0.03);
        let mut folded = ws.take_dirty(c * h * w * n);
        col2im_into(&cols_mat, c, h, w, n, kh, kw, spec, &mut folded);
        let want: Vec<Vec<f32>> = (0..n)
            .map(|i| naive_col2im(&lane(&cols_mat, n, i), c, h, w, kh, kw, spec))
            .collect();
        assert_bits_eq(&folded, &across_lanes(&want), "col2im_into");
    }

    /// The batched wide-GEMM conv forward (all images unfolded across
    /// lanes, one GEMM, packed weights) against a per-image naive
    /// im2col + matmul + bias composition. `n` spans full and ragged
    /// 8-image groups; output widths span 1 to 23.
    #[test]
    fn batched_conv_forward_matches_per_image_naive(
        n in 1usize..19,
        ic in 1usize..10,
        oc in 1usize..13,
        kh in 1usize..4,
        kw in 1usize..4,
        extra in 0usize..21,
        stride in 1usize..3,
        pad in 0usize..2,
        with_bias_bit in 0usize..2,
        vals in proptest::collection::vec(-1.5f32..1.5, 8..32),
    ) {
        let geom = ConvGeom { n, ic, oc, kh, kw, h: kh + extra, w: kw + extra, spec: ConvSpec::new(stride, pad) };
        check_conv_forward(geom, with_bias_bit == 1, &vals);
    }

    /// The batched input backward (images across lanes, one wide transa
    /// GEMM, one col2im) against a per-image naive Wᵀ@g + fold.
    #[test]
    fn batched_conv_input_backward_matches_per_image_naive(
        n in 1usize..19,
        ic in 1usize..10,
        oc in 1usize..13,
        kh in 1usize..4,
        kw in 1usize..4,
        extra in 0usize..21,
        stride in 1usize..3,
        pad in 0usize..2,
        vals in proptest::collection::vec(-1.5f32..1.5, 8..32),
    ) {
        let geom = ConvGeom { n, ic, oc, kh, kw, h: kh + extra, w: kw + extra, spec: ConvSpec::new(stride, pad) };
        check_conv_input_backward(geom, &vals);
    }

    /// A quantized [`GemmWeight`]'s decode against the from-scratch
    /// byte-level decode: `natural` must hold exactly the codec's floats,
    /// in natural order, when built and when read again, and the forward
    /// GEMM `W @ x` fed from it must match the GEMM fed the naive decode
    /// bitwise.
    #[test]
    fn quantized_panels_match_naive_decode_bitwise(
        n in 1usize..13,
        k in 1usize..40,
        m in 1usize..6,
        dtype_bit in 0usize..2,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let dtype = if dtype_bit == 0 { Dtype::F16 } else { Dtype::Q8 };
        let values = Tensor::from_vec(tensor_from(&vals, n * k, 0.015), &[n, k]);
        let mut weight = GemmWeight::new(Tensor::zeros(&[0, 0]));
        *weight.state_mut().1 = Some(QTensor::quantize(&values, dtype));
        let want = naive_decode(weight.quant().expect("quantized"));
        let x = tensor_from(&vals, k * m, 0.01);
        let mut want_y = vec![0.0f32; n * m];
        ops::matmul_into(&want, &x, n, k, m, &mut want_y);

        let mut ws = dirty_workspace();
        for round in 0..2 {
            // Round 0 builds the decode, round 1 reads the built one.
            assert_bits_eq(weight.natural(), &want, &format!("natural {dtype} (round {round})"));
            let mut got_y = ws.take_dirty(n * m);
            ops::matmul_into(weight.natural(), &x, n, k, m, &mut got_y);
            assert_bits_eq(&got_y, &want_y, &format!("gemm via natural {dtype} (round {round})"));
            ws.put(got_y);
        }
    }

    /// The transpose is an exact permutation (round-trips bitwise).
    #[test]
    fn transpose_round_trips(
        rows in 1usize..14,
        cols in 1usize..14,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let src = tensor_from(&vals, rows * cols, 0.01);
        let mut t = vec![0.0f32; rows * cols];
        let mut back = vec![0.0f32; rows * cols];
        kernels::transpose(&src, rows, cols, &mut t);
        kernels::transpose(&t, cols, rows, &mut back);
        assert_bits_eq(&back, &src, "transpose round trip");
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(t[c * rows + r].to_bits(), src[r * cols + c].to_bits());
            }
        }
    }

    /// The weight and bias gradients of a dense conv (each image's column
    /// matrix transposed, one `grad_out_i @ colsᵀ` GEMM per image, added
    /// onto non-zero accumulators) against the per-image naive sums:
    /// batch-last inputs of 1–9 images, strides 1–2, pads 0–2, 1×1 to 3×3
    /// kernels, planes down to one pixel, with and without a bias.
    #[test]
    fn conv_weight_gradients_match_per_image_naive(
        n in 1usize..10,
        ic in 1usize..5,
        oc in 1usize..7,
        k in 1usize..4,
        h in 1usize..8,
        w in 1usize..8,
        stride in 1usize..3,
        pad in 0usize..3,
        with_bias_bit in 0usize..2,
        vals in proptest::collection::vec(-1.5f32..1.5, 8..32),
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = ConvGeom { n, ic, oc, kh: k, kw: k, h, w, spec: ConvSpec::new(stride, pad) };
        check_conv_weight_backward(geom, with_bias_bit == 1, &vals);
    }

    /// Depthwise forward and input backward against the historical
    /// per-output loops: odd shapes, one image (the planar stencil, `c`
    /// planes off the 8-lane group) and batches across lanes up to 18
    /// (full, paired and ragged 8-lane blocks), stride 1–2, pad 0–2,
    /// kernels 1/3/5,
    /// operands salted with ±0 and subnormals, plus either NaN payloads or
    /// an infinite weight tap (where skipping a `±0` gradient is visible:
    /// `0·∞` would be NaN), on a dirty workspace and again warm.
    #[test]
    fn depthwise_matches_historical_loops_bitwise(
        n in 1usize..19,
        c in 1usize..9,
        k_idx in 0usize..3,
        extra_h in 0usize..6,
        extra_w in 0usize..7,
        stride in 1usize..3,
        pad in 0usize..3,
        with_bias_bit in 0usize..2,
        special in 0usize..3,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let nan_bit = usize::from(special == 1);
        let k = [1, 3, 5][k_idx];
        let (h, w) = (k + extra_h, k + extra_w);
        let spec = ConvSpec::new(stride, pad);
        let (oh, ow) = (spec.out_size(h, k), spec.out_size(w, k));
        // At most one NaN per plane: planes never mix, so no sum sees
        // two distinct payloads.
        let nan_in = if nan_bit == 1 { 3 * h * w + 1 } else { 0 };
        let nan_g = if nan_bit == 1 { 3 * oh * ow + 1 } else { 0 };
        let input = Tensor::from_vec(stencil_soup(&vals, n * c * h * w, 1, nan_in), &[n, c, h, w]);
        let mut weight = Tensor::from_vec(tensor_from(&vals, c * k * k, -0.02), &[c, 1, k, k]);
        if special == 2 {
            weight.data_mut()[k * k / 2] = f32::INFINITY;
        }
        let bias = Tensor::from_vec(stencil_soup(&vals, c, 5, 0), &[c]);
        let grad_out = Tensor::from_vec(stencil_soup(&vals, n * c * oh * ow, 2, nan_g), &[n, c, oh, ow]);
        let bias_ref = (with_bias_bit == 1).then_some(&bias);

        let want_fwd = naive_depthwise_forward(
            input.data(), (n, c, h, w), weight.data(), k, k, bias_ref.map(Tensor::data), spec,
        );
        let want_bwd = naive_depthwise_input_backward(
            weight.data(), k, k, grad_out.data(), (n, c, h, w), spec,
        );
        let mut ws = dirty_workspace();
        for round in 0..2 {
            let got = depthwise_forward_ws(&input, &weight, bias_ref, spec, &mut ws);
            prop_assert_eq!(got.shape(), &[n, c, oh, ow]);
            assert_bits_eq(got.data(), &want_fwd, &format!("depthwise forward (round {round})"));
            ws.recycle(got);
            let got = on_lanes(&grad_out, &mut ws, |g, ws| {
                depthwise_input_backward_ws(&weight, g, h, w, spec, ws)
            });
            prop_assert_eq!(got.shape(), &[n, c, h, w]);
            assert_bits_eq(got.data(), &want_bwd, &format!("depthwise input backward (round {round})"));
            ws.recycle(got);
        }
    }

    /// SSIM's blur and adjoint blur (one shared window, `C = 1`, over
    /// every plane held as a lane, valid geometry) against the historical
    /// single-plane loops.
    #[test]
    fn ssim_blur_and_adjoint_match_historical_loops_bitwise(
        planes in 1usize..40,
        win_idx in 0usize..6,
        extra_h in 0usize..5,
        extra_w in 0usize..5,
        nan_bit in 0usize..2,
        vals in proptest::collection::vec(0.0f32..1.0, 8..32),
    ) {
        let win = 2 * win_idx + 1;
        let (h, w) = (win + extra_h, win + extra_w);
        let (oh, ow) = (extra_h + 1, extra_w + 1);
        let st = Stencil::new(h, w, win, win, ConvSpec::new(1, 0));
        let window = tensor_from(&vals, win * win, 0.003);
        let nan_x = if nan_bit == 1 { 2 * h * w + 3 } else { 0 };
        let nan_g = if nan_bit == 1 { 2 * oh * ow + 1 } else { 0 };
        let x = stencil_soup(&vals, planes * h * w, 3, nan_x);
        let g = stencil_soup(&vals, planes * oh * ow, 4, nan_g);

        let mut want_blur = vec![0.0f32; planes * oh * ow];
        let mut want_adj = vec![0.0f32; planes * h * w];
        for p in 0..planes {
            naive_conv_single_into(
                &x[p * h * w..(p + 1) * h * w], h, w, &window, win, win,
                ConvSpec::new(1, 0), 0.0, &mut want_blur[p * oh * ow..(p + 1) * oh * ow],
            );
            naive_valid_adjoint_into(
                &g[p * oh * ow..(p + 1) * oh * ow], oh, ow, &window, win, win, w,
                &mut want_adj[p * h * w..(p + 1) * h * w],
            );
        }
        let x = Tensor::from_vec(x, &[planes, 1, h, w]);
        let g = Tensor::from_vec(g, &[planes, 1, oh, ow]);
        let mut ws = dirty_workspace();
        for round in 0..2 {
            let blur = on_lanes(&x, &mut ws, |x, ws| {
                // Dirty on purpose: the kernel must overwrite every output.
                let mut out = Tensor::from_vec(ws.take_dirty(planes * oh * ow), &[1, oh, ow, planes]);
                kernels::depthwise_gather(x.data(), st, planes, &window, None, out.data_mut(), ws);
                out
            });
            assert_bits_eq(blur.data(), &want_blur, &format!("ssim blur (round {round})"));
            let adj = on_lanes(&g, &mut ws, |g, ws| {
                let mut out = Tensor::from_vec(ws.take_dirty(planes * h * w), &[1, h, w, planes]);
                kernels::depthwise_adjoint(g.data(), st, planes, &window, out.data_mut(), ws);
                out
            });
            assert_bits_eq(adj.data(), &want_adj, &format!("ssim adjoint blur (round {round})"));
            ws.recycle(blur);
            ws.recycle(adj);
        }
    }
}
