//! Spatial pooling (average, max, global-average) with backward passes.
//! Every kernel draws its output buffer from a [`Workspace`], so warm
//! passes allocate nothing.

use crate::{Tensor, Workspace};

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.ndim(), 4, "expected rank-4 tensor, got {:?}", t.shape());
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

/// Average pooling over non-overlapping-or-strided `k x k` windows.
///
/// `input` is `[N, C, H, W]`; the result is `[N, C, OH, OW]` with
/// `OH = (H - k)/stride + 1`. The kernel fully overwrites the output, so
/// dirty workspace buffers are fine.
///
/// # Panics
///
/// Panics if the window does not fit or `stride == 0`.
pub fn avg_pool2d_forward_ws(
    input: &Tensor,
    k: usize,
    stride: usize,
    ws: &mut Workspace,
) -> Tensor {
    assert!(stride > 0, "avg_pool2d: stride must be positive");
    let (n, c, h, w) = dims4(input);
    assert!(k <= h && k <= w, "avg_pool2d: window {k} larger than input");
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let inv = 1.0 / (k * k) as f32;
    let mut out = ws.take_dirty(n * c * oh * ow);
    let id = input.data();
    for plane in 0..n * c {
        let img = &id[plane * h * w..(plane + 1) * h * w];
        let o = &mut out[plane * oh * ow..(plane + 1) * oh * ow];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for ky in 0..k {
                    let row = &img[(oy * stride + ky) * w..(oy * stride + ky) * w + w];
                    for kx in 0..k {
                        acc += row[ox * stride + kx];
                    }
                }
                o[oy * ow + ox] = acc * inv;
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Backward pass of [`avg_pool2d_forward_ws`]: spreads each output
/// gradient uniformly over its window (zero-filled checkout — overlapping
/// windows accumulate with `+=`).
///
/// # Panics
///
/// Panics if `grad_out`'s shape is inconsistent with the geometry.
pub fn avg_pool2d_backward_ws(
    grad_out: &Tensor,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    ws: &mut Workspace,
) -> Tensor {
    let (n, c, oh, ow) = dims4(grad_out);
    assert_eq!(oh, (h - k) / stride + 1, "avg_pool2d_backward: bad OH");
    assert_eq!(ow, (w - k) / stride + 1, "avg_pool2d_backward: bad OW");
    let inv = 1.0 / (k * k) as f32;
    let mut gi = ws.take(n * c * h * w);
    let gd = grad_out.data();
    for plane in 0..n * c {
        let go = &gd[plane * oh * ow..(plane + 1) * oh * ow];
        let g = &mut gi[plane * h * w..(plane + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let v = go[oy * ow + ox] * inv;
                for ky in 0..k {
                    for kx in 0..k {
                        g[(oy * stride + ky) * w + ox * stride + kx] += v;
                    }
                }
            }
        }
    }
    Tensor::from_vec(gi, &[n, c, h, w])
}

/// Backward pass of [`max_pool2d_forward_ws`]: routes each output
/// gradient to the recorded argmax position (zero-filled checkout — the
/// scatter accumulates with `+=`).
///
/// # Panics
///
/// Panics if `argmax.len()` differs from `grad_out.len()`.
pub fn max_pool2d_backward_ws(
    grad_out: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "max_pool2d_backward: argmax length mismatch"
    );
    let mut gi = ws.take(input_shape.iter().product());
    for (&idx, &v) in argmax.iter().zip(grad_out.data()) {
        gi[idx] += v;
    }
    Tensor::from_vec(gi, input_shape)
}

/// Max pooling over `k × k` windows: the pooled values, drawn from `ws`.
/// With `argmax`, also the flat input index of each window's first
/// maximum, written to it (cleared first) — the routing table a recording
/// pass stores and [`max_pool2d_backward_ws`] reads. The window scan is
/// the same either way, so the values are too.
///
/// # Panics
///
/// Panics if the window does not fit or `stride == 0`.
pub fn max_pool2d_forward_ws(
    input: &Tensor,
    k: usize,
    stride: usize,
    ws: &mut Workspace,
    mut argmax: Option<&mut Vec<usize>>,
) -> Tensor {
    assert!(stride > 0, "max_pool2d: stride must be positive");
    let (n, c, h, w) = dims4(input);
    assert!(k <= h && k <= w, "max_pool2d: window {k} larger than input");
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = ws.take_dirty(n * c * oh * ow);
    if let Some(arg) = argmax.as_deref_mut() {
        arg.clear();
        arg.reserve(n * c * oh * ow);
    }
    let id = input.data();
    for plane in 0..n * c {
        let img = &id[plane * h * w..(plane + 1) * h * w];
        let base = plane * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for ky in 0..k {
                    for kx in 0..k {
                        let idx = (oy * stride + ky) * w + ox * stride + kx;
                        if img[idx] > best {
                            best = img[idx];
                            best_idx = idx;
                        }
                    }
                }
                out[base + oy * ow + ox] = best;
                if let Some(arg) = argmax.as_deref_mut() {
                    arg.push(plane * h * w + best_idx);
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Global average pooling `[N, C, H, W] -> [N, C]`.
///
/// # Panics
///
/// Panics if `input` is not rank-4.
pub fn global_avg_pool_forward_ws(input: &Tensor, ws: &mut Workspace) -> Tensor {
    let (n, c, h, w) = dims4(input);
    let inv = 1.0 / (h * w) as f32;
    let mut out = ws.take_dirty(n * c);
    for (plane, o) in out.iter_mut().enumerate() {
        *o = input.data()[plane * h * w..(plane + 1) * h * w]
            .iter()
            .sum::<f32>()
            * inv;
    }
    Tensor::from_vec(out, &[n, c])
}

/// Backward pass of [`global_avg_pool_forward_ws`] (the fill fully
/// overwrites every element, so a dirty checkout is safe).
///
/// # Panics
///
/// Panics if `grad_out` is not `[N, C]`.
pub fn global_avg_pool_backward_ws(
    grad_out: &Tensor,
    h: usize,
    w: usize,
    ws: &mut Workspace,
) -> Tensor {
    assert_eq!(grad_out.ndim(), 2, "global_avg_pool_backward: need [N,C]");
    let (n, c) = (grad_out.shape()[0], grad_out.shape()[1]);
    let inv = 1.0 / (h * w) as f32;
    let mut gi = ws.take_dirty(n * c * h * w);
    for plane in 0..n * c {
        let v = grad_out.data()[plane] * inv;
        for g in &mut gi[plane * h * w..(plane + 1) * h * w] {
            *g = v;
        }
    }
    Tensor::from_vec(gi, &[n, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avg_pool2d_forward(x: &Tensor, k: usize, stride: usize) -> Tensor {
        avg_pool2d_forward_ws(x, k, stride, &mut Workspace::new())
    }

    fn max_pool2d_forward(x: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<usize>) {
        let mut arg = Vec::new();
        let y = max_pool2d_forward_ws(x, k, stride, &mut Workspace::new(), Some(&mut arg));
        let plain = max_pool2d_forward_ws(x, k, stride, &mut Workspace::new(), None);
        assert_eq!(y.data(), plain.data(), "the routing table changes no value");
        (y, arg)
    }

    #[test]
    fn avg_pool_values() {
        let x = Tensor::from_vec((1..=16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let y = avg_pool2d_forward(&x, 2, 2);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn avg_pool_backward_spreads_uniformly() {
        let go = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]);
        let gi = avg_pool2d_backward_ws(&go, 2, 2, 2, 2, &mut Workspace::new());
        assert_eq!(gi.data(), &[1.0; 4]);
    }

    #[test]
    fn avg_pool_gradient_matches_finite_differences() {
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.3).cos());
        let y = avg_pool2d_forward(&x, 2, 2);
        let gi =
            avg_pool2d_backward_ws(&Tensor::ones(y.shape()), 4, 4, 2, 2, &mut Workspace::new());
        let eps = 1e-3;
        for &flat in &[0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let num = (avg_pool2d_forward(&xp, 2, 2).sum() - avg_pool2d_forward(&xm, 2, 2).sum())
                / (2.0 * eps);
            assert!((num - gi.data()[flat]).abs() < 1e-3);
        }
    }

    #[test]
    fn max_pool_values_and_routing() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 4.0, 3.0, 0.0, 1.0, 2.0, 7.0, 1.0, 0.0, 3.0, 2.0, 4.0, 2.0, 1.0,
            ],
            &[1, 1, 4, 4],
        );
        let (y, arg) = max_pool2d_forward(&x, 2, 2);
        assert_eq!(y.data(), &[3.0, 5.0, 7.0, 3.0]);
        let gi = max_pool2d_backward_ws(
            &Tensor::ones(y.shape()),
            &arg,
            &[1, 1, 4, 4],
            &mut Workspace::new(),
        );
        // Exactly one 1.0 routed per window, at the max position.
        assert_eq!(gi.data()[4], 1.0); // 3.0 at flat index 4
        assert_eq!(gi.data()[2], 1.0); // 5.0 at flat index 2
        assert_eq!(gi.data()[8], 1.0); // 7.0 at flat index 8
        assert_eq!(gi.data()[11], 1.0); // 3.0 at flat index 11
        assert_eq!(gi.sum(), 4.0);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let y = global_avg_pool_forward_ws(&x, &mut Workspace::new());
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let gi = global_avg_pool_backward_ws(&Tensor::ones(&[1, 2]), 2, 2, &mut Workspace::new());
        assert_eq!(gi.shape(), x.shape());
        assert_eq!(gi.data(), &[0.25; 8]);
    }

    #[test]
    fn strided_max_pool_shape() {
        let x = Tensor::zeros(&[2, 3, 9, 9]);
        let (y, _) = max_pool2d_forward(&x, 3, 2);
        assert_eq!(y.shape(), &[2, 3, 4, 4]);
    }
}
