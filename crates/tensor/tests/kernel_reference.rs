//! Bit-accuracy suite for the register-blocked GEMM and conv kernels.
//!
//! Every optimised `_into`/`_ws` kernel in `usb_tensor` carries the same
//! contract: each output element is produced by the **same float
//! operations in the same (ascending-`k`) order** as a naive
//! triple-loop, so results are bit-identical — that is what keeps every
//! detection verdict stable across kernel rewrites. This suite pins the
//! contract with property tests over odd and degenerate shapes (sizes
//! straddling the `MR`×`NR` register tile, single rows/columns,
//! non-multiples), dirty workspace buffers, warm packed panels, and the
//! batched conv paths against their per-image equivalents.

use proptest::prelude::*;
use usb_tensor::conv::{
    col2im_into, conv2d_forward_ws, conv2d_input_backward_ws, conv2d_valid_single,
    conv2d_valid_single_adjoint, depthwise_forward_ws, depthwise_input_backward_ws, im2col_into,
    stencil_adjoint_ws, stencil_gather_ws, ConvSpec, Stencil,
};
use usb_tensor::panel::GemmWeight;
use usb_tensor::quant::{f16_decode, Q8_BLOCK};
use usb_tensor::{ops, Dtype, QTensor, Tensor, Workspace};

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
/// `col2im_strided_into` — overlapping contributions must sum in the same
/// order for bit equality.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three GEMM orientations against their naive triple loops, over
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
        let bt = tensor_from(&vals, n * k, 0.03);
        let at = tensor_from(&vals, k * m, -0.04);
        let mut ws = dirty_workspace();

        let mut out = ws.take_dirty(m * n);
        ops::matmul_into(&a, &b, m, k, n, &mut out);
        assert_bits_eq(&out, &naive_matmul(&a, &b, m, k, n), "matmul_into");

        ops::matmul_transa_into(&at, &b, m, k, n, &mut out);
        assert_bits_eq(&out, &naive_matmul_transa(&at, &b, m, k, n), "matmul_transa_into");

        ops::matmul_transb_into(&a, &bt, m, k, n, &mut out);
        assert_bits_eq(&out, &naive_matmul_transb(&a, &bt, m, k, n), "matmul_transb_into");
    }

    /// `x @ Wᵀ` through a [`GemmWeight`]'s k-major panel (the inference
    /// fast path) equals the direct transb kernel bitwise, on the call
    /// that builds the panel and on later calls alike.
    #[test]
    fn packed_panel_matches_transb_bitwise(
        m in 1usize..10,
        k in 1usize..17,
        n in 1usize..13,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let x = tensor_from(&vals, m * k, 0.01);
        let wt = Tensor::from_vec(tensor_from(&vals, n * k, -0.02), &[n, k]);
        let mut want = vec![0.0f32; m * n];
        ops::matmul_transb_into(&x, wt.data(), m, k, n, &mut want);
        let weight = GemmWeight::new(wt);
        let mut ws = dirty_workspace();
        for round in 0..2 {
            // Round 0 builds the panel, round 1 reads the built one.
            let mut got = ws.take_dirty(m * n);
            ops::matmul_into(&x, weight.kmajor(), m, k, n, &mut got);
            assert_bits_eq(&got, &want, &format!("packed panel (round {round})"));
            ws.put(got);
        }
    }

    /// Unfold and fold against their naive scatter loops, including
    /// strides and padding that push kernel taps out of bounds.
    #[test]
    fn im2col_col2im_match_naive_bitwise(
        c in 1usize..4,
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
        let img = tensor_from(&vals, c * h * w, 0.05);
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let rows = c * kh * kw;
        let cols = oh * ow;

        let mut ws = dirty_workspace();
        let mut unfolded = ws.take_dirty(rows * cols);
        im2col_into(&img, c, h, w, kh, kw, spec, &mut unfolded);
        assert_bits_eq(
            &unfolded,
            &naive_im2col(&img, c, h, w, kh, kw, spec),
            "im2col_into",
        );

        let cols_mat = tensor_from(&vals, rows * cols, -0.03);
        let mut folded = ws.take_dirty(c * h * w);
        col2im_into(&cols_mat, c, h, w, kh, kw, spec, &mut folded);
        assert_bits_eq(
            &folded,
            &naive_col2im(&cols_mat, c, h, w, kh, kw, spec),
            "col2im_into",
        );
    }

    /// The batched wide-GEMM conv forward (all images unfolded side by
    /// side, one GEMM, packed weights) against a per-image naive
    /// im2col + matmul + bias composition.
    #[test]
    fn batched_conv_forward_matches_per_image_naive(
        n in 1usize..4,
        ic in 1usize..4,
        oc in 1usize..6,
        kh in 1usize..4,
        kw in 1usize..4,
        extra in 0usize..5,
        stride in 1usize..3,
        pad in 0usize..2,
        with_bias_bit in 0usize..2,
        vals in proptest::collection::vec(-1.5f32..1.5, 8..32),
    ) {
        let with_bias = with_bias_bit == 1;
        let (h, w) = (kh + extra, kw + extra);
        let spec = ConvSpec::new(stride, pad);
        let input = Tensor::from_vec(tensor_from(&vals, n * ic * h * w, 0.02), &[n, ic, h, w]);
        let weight = Tensor::from_vec(tensor_from(&vals, oc * ic * kh * kw, -0.01), &[oc, ic, kh, kw]);
        let bias = Tensor::from_vec(tensor_from(&vals, oc, 0.04), &[oc]);
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
            let got = conv2d_forward_ws(
                &input,
                &weight,
                with_bias.then_some(&bias),
                spec,
                &mut ws,
            );
            prop_assert_eq!(got.shape(), &[n, oc, oh, ow]);
            assert_bits_eq(got.data(), &want, &format!("conv forward (round {round})"));
            ws.recycle(got);
        }
    }

    /// The batched input backward (interleave, one wide transa GEMM,
    /// per-image col2im) against a per-image naive Wᵀ@g + fold.
    #[test]
    fn batched_conv_input_backward_matches_per_image_naive(
        n in 1usize..4,
        ic in 1usize..4,
        oc in 1usize..5,
        kh in 1usize..4,
        kw in 1usize..4,
        extra in 0usize..5,
        stride in 1usize..3,
        pad in 0usize..2,
        vals in proptest::collection::vec(-1.5f32..1.5, 8..32),
    ) {
        let (h, w) = (kh + extra, kw + extra);
        let spec = ConvSpec::new(stride, pad);
        let weight = Tensor::from_vec(tensor_from(&vals, oc * ic * kh * kw, 0.03), &[oc, ic, kh, kw]);
        let oh = spec.out_size(h, kh);
        let ow = spec.out_size(w, kw);
        let rows = ic * kh * kw;
        let cols = oh * ow;
        let grad_out = Tensor::from_vec(tensor_from(&vals, n * oc * cols, -0.02), &[n, oc, oh, ow]);

        let mut want = Vec::with_capacity(n * ic * h * w);
        for i in 0..n {
            let go = &grad_out.data()[i * oc * cols..(i + 1) * oc * cols];
            // Wᵀ @ g: weight is [oc, rows] row-major, so transa over oc.
            let gcols = naive_matmul_transa(weight.data(), go, rows, oc, cols);
            want.extend_from_slice(&naive_col2im(&gcols, ic, h, w, kh, kw, spec));
        }

        let mut ws = dirty_workspace();
        for round in 0..2 {
            let got = conv2d_input_backward_ws(&weight, &grad_out, h, w, spec, &mut ws);
            prop_assert_eq!(got.shape(), &[n, ic, h, w]);
            assert_bits_eq(got.data(), &want, &format!("conv input backward (round {round})"));
            ws.recycle(got);
        }
    }

    /// A quantized [`GemmWeight`]'s panels against the from-scratch
    /// byte-level decode: they must hold exactly the codec's floats —
    /// natural order for `natural`, `[k, n]` transposed order for
    /// `kmajor` — when built and when read again, and the GEMM fed from
    /// the panel must match the GEMM fed the naive decode bitwise.
    #[test]
    fn quantized_panels_match_naive_decode_bitwise(
        n in 1usize..13,
        k in 1usize..40,
        m in 1usize..6,
        dtype_bit in 0usize..2,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let dtype = if dtype_bit == 0 { Dtype::F16 } else { Dtype::Q8 };
        let mut weight = GemmWeight::new(Tensor::from_vec(tensor_from(&vals, n * k, 0.015), &[n, k]));
        weight.quantize(dtype);
        let want = naive_decode(weight.quant().expect("quantized"));
        let mut want_t = vec![0.0f32; n * k];
        ops::transpose_into(&want, n, k, &mut want_t);
        let x = tensor_from(&vals, m * k, 0.01);
        let mut want_y = vec![0.0f32; m * n];
        ops::matmul_into(&x, &want_t, m, k, n, &mut want_y);

        let mut ws = dirty_workspace();
        for round in 0..2 {
            // Round 0 builds both panels, round 1 reads the built ones.
            assert_bits_eq(weight.natural(), &want, &format!("natural {dtype} (round {round})"));
            assert_bits_eq(weight.kmajor(), &want_t, &format!("kmajor {dtype} (round {round})"));
            let mut got_y = ws.take_dirty(m * n);
            ops::matmul_into(&x, weight.kmajor(), m, k, n, &mut got_y);
            assert_bits_eq(&got_y, &want_y, &format!("gemm via kmajor {dtype} (round {round})"));
            ws.put(got_y);
        }
    }

    /// `transpose_into` is an exact permutation (round-trips bitwise).
    #[test]
    fn transpose_into_round_trips(
        rows in 1usize..14,
        cols in 1usize..14,
        vals in proptest::collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let src = tensor_from(&vals, rows * cols, 0.01);
        let mut t = vec![0.0f32; rows * cols];
        let mut back = vec![0.0f32; rows * cols];
        ops::transpose_into(&src, rows, cols, &mut t);
        ops::transpose_into(&t, cols, rows, &mut back);
        assert_bits_eq(&back, &src, "transpose round trip");
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(t[c * rows + r].to_bits(), src[r * cols + c].to_bits());
            }
        }
    }

    /// Depthwise forward and input backward against the historical
    /// per-output loops: odd shapes, plane counts off the 8-lane group
    /// (`n·c` from 1 to 40, past one batch of four groups), stride 1–2,
    /// pad 0–2, kernels 1/3/5,
    /// operands salted with ±0 and subnormals, plus either NaN payloads or
    /// an infinite weight tap (where skipping a `±0` gradient is visible:
    /// `0·∞` would be NaN), on a dirty workspace and again warm.
    #[test]
    fn depthwise_matches_historical_loops_bitwise(
        n in 1usize..6,
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
            let got = depthwise_input_backward_ws(&weight, &grad_out, h, w, spec, &mut ws);
            prop_assert_eq!(got.shape(), &[n, c, h, w]);
            assert_bits_eq(got.data(), &want_bwd, &format!("depthwise input backward (round {round})"));
            ws.recycle(got);
        }
    }

    /// SSIM's blur and adjoint blur (one shared window over every plane,
    /// valid geometry) against the historical single-plane loops, plus
    /// the single-plane tensor entry points.
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
        let mut ws = dirty_workspace();
        for round in 0..2 {
            let mut blur = ws.take_dirty(planes * oh * ow);
            stencil_gather_ws(&x, st, &window, None, &mut blur, &mut ws);
            assert_bits_eq(&blur, &want_blur, &format!("ssim blur (round {round})"));
            let mut adj = ws.take_dirty(planes * h * w);
            stencil_adjoint_ws(&g, st, &window, &mut adj, &mut ws);
            assert_bits_eq(&adj, &want_adj, &format!("ssim adjoint blur (round {round})"));
            ws.put(blur);
            ws.put(adj);
        }
        let ker = Tensor::from_vec(window.clone(), &[win, win]);
        let single = conv2d_valid_single(&Tensor::from_vec(x[..h * w].to_vec(), &[h, w]), &ker);
        assert_bits_eq(single.data(), &want_blur[..oh * ow], "conv2d_valid_single");
        let single = conv2d_valid_single_adjoint(
            &Tensor::from_vec(g[..oh * ow].to_vec(), &[oh, ow]), &ker, h, w,
        );
        assert_bits_eq(single.data(), &want_adj[..h * w], "conv2d_valid_single_adjoint");
    }
}
